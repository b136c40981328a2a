"""Sparse binary-quadratic forms, semantic variable labels, and penalties.

A Qubo stores linear/quadratic coefficients sparsely plus a constant offset
so constraint values can be read off exactly.  A VariableRegistry is the
bijection between semantic labels and dense indices.  A CompiledProblem is
the shape both pipelines compile to: a registry, an objective, one
constraint form per penalty family and the default penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import IndexOutOfRange, LengthMismatch, QuboError

PRUNE_EPS = 1e-12

MODE_PLAIN = "plain"
MODE_SERVICE = "service"
MODE_TRAVERSE = "traverse"


# --- variable labels ------------------------------------------------------

@dataclass(frozen=True)
class PairVar:
    """Pairing decision x_{i,j} between two odd-degree vertices, i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)
        if self.i == self.j:
            raise QuboError(f"pair variable needs two distinct vertices, got {self.i}")

    def sort_key(self):
        return (0, self.i, self.j)

    def __str__(self) -> str:
        return f"x[{self.i},{self.j}]"


@dataclass(frozen=True)
class EdgeStep:
    """Traversal of arc frm->to at a given step, per postman.

    kind 'u'/'d' keeps coexisting undirected and directed edges between the
    same pair distinct; 't' marks synthetic terminal arcs.
    """

    step: int
    frm: int
    to: int
    mode: str = MODE_PLAIN
    postman: int = 0
    kind: str = "u"

    def sort_key(self):
        return (1, self.step, self.postman, self.frm, self.to, self.kind, self.mode)

    def __str__(self) -> str:
        return f"e[step={self.step},{self.frm}->{self.to},{self.mode},p{self.postman},{self.kind}]"


@dataclass(frozen=True)
class RequiredSlack:
    """Slack bit with weight 2**bit absorbing extra visits of a required edge.

    One register per required edge counts the extra visits of every postman.
    """

    bit: int
    frm: int
    to: int
    kind: str = "u"

    def sort_key(self):
        return (2, self.frm, self.to, self.kind, self.bit)

    def __str__(self) -> str:
        return f"s[2^{self.bit},{self.frm}->{self.to},{self.kind}]"


@dataclass(frozen=True)
class RestVar:
    """Postman sits at their walk's endpoint from this step on."""

    step: int
    postman: int = 0

    def sort_key(self):
        return (3, self.step, self.postman)

    def __str__(self) -> str:
        return f"rest[step={self.step},p{self.postman}]"


@dataclass(frozen=True)
class CapacitySlack:
    """Slack bit with weight 2**bit filling the unused part of a capacity."""

    bit: int
    postman: int = 0

    def sort_key(self):
        return (4, self.postman, self.bit)

    def __str__(self) -> str:
        return f"cap[2^{self.bit},p{self.postman}]"


VarLabel = Union[PairVar, EdgeStep, RequiredSlack, RestVar, CapacitySlack]

EDGE_KINDS = ("d", "t", "u")  # an EdgeStep's kind codes, in label order
EDGE_MODES = (MODE_PLAIN, MODE_SERVICE, MODE_TRAVERSE)  # its mode codes, in label order


class VariableRegistry:
    """Bijection between labels and indices, in deterministic label order.

    `edges`, when given, holds a leading block of EdgeStep labels as six
    int64 columns: step, postman, tail, head, kind code (into EDGE_KINDS)
    and mode code (into EDGE_MODES), already in sort-key order.  The
    explicit `labels` are sorted and follow it.  The label objects and the
    index dict are built on first read, so a registry that is only sized
    and written as text never makes them.
    """

    def __init__(self, labels: Iterable[VarLabel] = (), edges: np.ndarray | None = None):
        self._explicit: tuple[VarLabel, ...] = tuple(sorted(labels, key=lambda lab: lab.sort_key()))
        if len(set(self._explicit)) != len(self._explicit):
            raise QuboError("duplicate variable labels")
        edges = np.zeros((6, 0), dtype=np.int64) if edges is None else np.asarray(edges, np.int64)
        # sorted and distinct: each row exceeds the last in its first differing column
        diff = np.diff(edges, axis=1)
        first = (diff != 0).argmax(axis=0)
        if not (diff[first, np.arange(diff.shape[1])] > 0).all():
            raise QuboError("duplicate variable labels, or edge labels out of label order")
        if edges.shape[1] and self._explicit and self._explicit[0].sort_key() < (2,):
            raise QuboError("explicit labels must sort after the edge labels")
        self._edges = edges

    def __len__(self) -> int:
        return self._edges.shape[1] + len(self._explicit)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: VarLabel) -> bool:
        return label in self._index

    def index_of(self, label: VarLabel) -> int:
        return self._index[label]

    def label_of(self, index: int) -> VarLabel:
        return self.labels[index]

    @cached_property
    def labels(self) -> tuple[VarLabel, ...]:
        return tuple(
            EdgeStep(i, t, h, EDGE_MODES[m], p, EDGE_KINDS[k])
            for i, p, t, h, k, m in zip(*self._edges.tolist())
        ) + self._explicit

    @cached_property
    def _index(self) -> dict[VarLabel, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


# --- quadratic form -------------------------------------------------------

# dtypes of Qubo.linear and Qubo.quadratic
LINEAR_TERM = np.dtype([("i", np.int64), ("value", np.float64)])
QUADRATIC_TERM = np.dtype([("i", np.int64), ("j", np.int64), ("value", np.float64)])


def _reduce(keys: np.ndarray, vals: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Sum a stream of (key, value) contributions per key, in stream order.

    Each key's running sum starts from 0.0 and is reset to absent whenever an
    addition leaves it within `eps` of zero, so a later addition starts from
    0.0 again.  Returns the sorted keys still present and their sums.
    """
    if not len(keys):
        return keys, vals
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    start = np.flatnonzero(new)
    counts = np.append(start[1:], len(keys)) - start
    acc = 0.0 + vals[start]
    acc[np.abs(acc) < eps] = 0.0
    # the r-th contribution of every key that has one, one rank at a time
    live = np.arange(len(start))
    for r in range(1, int(counts.max())):
        live = live[counts[live] > r]
        s = acc[live] + vals[start[live] + r]
        s[np.abs(s) < eps] = 0.0
        acc[live] = s
    keep = ~(np.abs(acc) < eps)
    return keys[start[keep]], acc[keep]


def _pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) for every row a and every b in [lo[a], hi[a]), a-major, then b."""
    count = hi - lo
    a = np.repeat(np.arange(len(lo)), count)
    return a, np.arange(len(a)) - np.repeat(np.cumsum(count) - count - lo, count)


class Qubo:
    """offset + sum_i linear[i] x_i + sum_{i<j} quadratic[i,j] x_i x_j over bits.

    Terms are stored as sorted int64 keys (i * n + j with i <= j; i == j is a
    linear term) and float64 coefficients.  Assembly appends contributions
    to a stream in call order; the first read after it reduces the stream
    once (`settle`, with PRUNE_EPS), so every coefficient is the in-order
    sum of its contributions with near-zero running sums dropped.  Inputs
    are checked before anything is appended: a rejected call leaves the
    form unchanged.
    """

    def __init__(self, n: int):
        if n < 0:
            raise QuboError("variable count must be non-negative")
        self.n = n
        self.offset: float = 0.0
        self._keys = np.empty(0, dtype=np.int64)  # settled terms
        self._vals = np.empty(0)
        self._chunks: list[tuple[np.ndarray, np.ndarray]] = []  # pending, in call order
        self._terms = None  # (linear, quadratic) of the settled terms
        self._arrays = None

    # -- assembly --

    def _check_indices(self, idx: np.ndarray) -> None:
        bad = (idx < 0) | (idx >= self.n)
        if bad.any():
            raise IndexOutOfRange(f"variable {idx[bad][0]} outside [0,{self.n})")

    def _append(self, keys: np.ndarray, vals: np.ndarray) -> None:
        if len(keys):
            self._chunks.append((keys, vals))

    def settle(self) -> None:
        """Reduce the pending contributions now; every read does this first.

        A sum that overflows raises QuboError and stays pending.
        """
        if self._chunks:
            keys = np.concatenate([self._keys, *(k for k, _ in self._chunks)])
            vals = np.concatenate([self._vals, *(v for _, v in self._chunks)])
            with np.errstate(over="ignore", invalid="ignore"):
                keys, vals = _reduce(keys, vals, PRUNE_EPS)
            if not np.isfinite(vals).all():
                raise QuboError("a coefficient sum overflows")
            self._chunks = []
            self._keys, self._vals = keys, vals
            self._terms = self._arrays = None

    def add_quadratic_terms(self, i, j, c) -> None:
        """Add c[k] x_i[k] x_j[k] for every k, in order; c may be one number;
        i == j adds a linear term (x^2 == x for bits)."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        c = np.broadcast_to(np.asarray(c, dtype=np.float64), i.shape)
        self._check_indices(i)
        self._check_indices(j)
        if not np.isfinite(c).all():
            raise QuboError("coefficients must be finite")
        self._append(np.minimum(i, j) * self.n + np.maximum(i, j), c)

    def add_square_penalty(self, idx, coef, constant, group=0) -> None:
        """Expand (constant[g] + sum_{group[k] == g} coef[k] x_idx[k])^2
        into the form for every group g, in group order.

        `constant` holds one number per group; `group` (one id per term) and
        `coef` may be single numbers.  Duplicate indices within a group are
        merged first, summed in order; x^2 == x is applied.
        """
        constant = np.atleast_1d(np.asarray(constant, dtype=np.float64))
        if not np.isfinite(constant).all():
            raise QuboError("penalty constants must be finite")
        idx = np.asarray(idx, dtype=np.int64)
        coef = np.broadcast_to(np.asarray(coef, dtype=np.float64), idx.shape)
        group = np.broadcast_to(np.asarray(group, dtype=np.int64), idx.shape)
        self._check_indices(idx)
        if not np.isfinite(coef).all():
            raise QuboError("penalty coefficients must be finite")
        if ((group < 0) | (group >= len(constant))).any():
            raise QuboError(f"penalty groups must lie in [0,{len(constant)})")
        # terms by group, then index; duplicates merged, summed in order
        n = self.n
        key = group * n + idx
        order = np.argsort(key, kind="stable")
        key, m = key[order], coef[order]
        if (key[1:] == key[:-1]).any():
            key, m = _reduce(key, m, 0.0)
        group, idx = np.divmod(key, max(n, 1))
        # every pair a < b within a group, a-major: a term's later partners
        # are the rest of its group's run
        a, b = _pairs(np.arange(1, len(group) + 1), np.searchsorted(group, group, side="right"))
        c = constant[group]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.concatenate([2.0 * c * m + m * m, 2.0 * m[a] * m[b]])
            offset = self.offset
            for t in (constant * constant).tolist():
                offset += t
        if not (np.isfinite(vals).all() and math.isfinite(offset)):
            raise QuboError("penalty expansion overflows")
        self.offset = offset
        self._append(np.concatenate([idx * (n + 1), idx[a] * n + idx[b]]), vals)

    def add_scaled(self, other: "Qubo", scale: float = 1.0) -> None:
        """Merge another form over the same registry, scaled."""
        if other.n != self.n:
            raise LengthMismatch(f"cannot merge n={other.n} into n={self.n}")
        if not math.isfinite(scale):
            raise QuboError(f"scale {scale} is not finite")
        other.settle()
        with np.errstate(over="ignore"):
            vals = scale * other._vals
        offset = self.offset + scale * other.offset
        if not (np.isfinite(vals).all() and math.isfinite(offset)):
            raise QuboError(f"merging at scale {scale} overflows")
        self.offset = offset
        self._append(other._keys, vals)

    def copy(self) -> "Qubo":
        self.settle()
        q = Qubo(self.n)
        q._keys, q._vals = self._keys, self._vals  # settled arrays are never written
        q.offset = self.offset
        return q

    # -- reading --

    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """(linear, quadratic) of the settled terms; cached until they change."""
        self.settle()
        if self._terms is None:
            i, j = np.divmod(self._keys, max(self.n, 1))
            diag = i == j
            linear = np.empty(int(diag.sum()), dtype=LINEAR_TERM)
            linear["i"], linear["value"] = i[diag], self._vals[diag]
            off = ~diag
            quadratic = np.empty(len(diag) - len(linear), dtype=QUADRATIC_TERM)
            quadratic["i"], quadratic["j"], quadratic["value"] = i[off], j[off], self._vals[off]
            linear.flags.writeable = quadratic.flags.writeable = False
            self._terms = (linear, quadratic)
        return self._terms

    @property
    def linear(self) -> np.ndarray:
        """Linear terms as a LINEAR_TERM array (i, value), sorted by i."""
        return self._split()[0]

    @property
    def quadratic(self) -> np.ndarray:
        """Quadratic terms as a QUADRATIC_TERM array (i, j, value), i < j, sorted."""
        return self._split()[1]

    def as_arrays(self):
        """(linear vector, qi, qj, qv arrays); cached until the terms change."""
        linear, quadratic = self._split()
        if self._arrays is None:
            lin = np.zeros(self.n)
            lin[linear["i"]] = linear["value"]
            qi, qj, qv = (np.ascontiguousarray(quadratic[f]) for f in ("i", "j", "value"))
            self._arrays = (lin, qi, qj, qv)
        return self._arrays

    def dense_symmetric(self) -> np.ndarray:
        """Symmetric coupling matrix with zero diagonal (linear kept separate)."""
        lin, qi, qj, qv = self.as_arrays()
        mat = np.zeros((self.n, self.n))
        mat[qi, qj] = qv
        mat[qj, qi] = qv
        return mat

    def energy(self, x: Sequence[int]) -> float:
        """Quadratic form value at a bit vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise LengthMismatch(f"assignment length {x.shape} != ({self.n},)")
        lin, qi, qj, qv = self.as_arrays()
        total = self.offset + float(lin @ x)
        if len(qv):
            total += float(np.sum(qv * x[qi] * x[qj]))
        return total

    def __repr__(self) -> str:
        return (
            f"Qubo(n={self.n}, linear={len(self.linear)} terms, "
            f"quadratic={len(self.quadratic)} terms, offset={self.offset})"
        )


# --- penalty multipliers ---------------------------------------------------

PENALTY_FAMILIES = (
    "pairing",
    "one_edge",
    "adjacency",
    "required",
    "hierarchy",
    "collision",
    "capacity",
)


# default penalty multipliers are this many times the largest weight in play
PENALTY_FACTOR = 5.0


@dataclass(frozen=True)
class PenaltyConfig:
    """One positive, finite multiplier per validity rule; turn bonuses are objective terms."""

    p_one_edge: float
    p_adjacency: float
    p_required: float
    p_hierarchy: float
    p_collision: float
    p_capacity: float
    p_pairing: float

    def __post_init__(self) -> None:
        for fam in PENALTY_FAMILIES:
            if not 0 < self.value(fam) < np.inf:
                raise QuboError(f"penalty p_{fam} must be positive and finite")

    @classmethod
    def uniform(cls, p: float) -> "PenaltyConfig":
        return cls(p, p, p, p, p, p, p)

    @classmethod
    def for_max_weight(cls, max_weight: float) -> "PenaltyConfig":
        """Default multipliers: PENALTY_FACTOR times the largest objective term."""
        base = PENALTY_FACTOR * max_weight if max_weight > 0 else PENALTY_FACTOR
        return cls.uniform(base)

    def value(self, family: str) -> float:
        return getattr(self, f"p_{family}")

    def scaled(self, families: Iterable[str], factor: float) -> "PenaltyConfig":
        changes = {f"p_{fam}": self.value(fam) * factor for fam in families}
        return replace(self, **changes)


# --- compiled problems ---------------------------------------------------------

class CompiledProblem:
    """A registry, an objective form, one constraint form per family and the
    default penalties the problem was compiled with.

    The penalized QUBO is the objective plus pen.value(family) times each
    family's form, at `penalties` unless `pen` is given; both pipelines'
    compiled problems share this shape.
    """

    registry: VariableRegistry
    objective: Qubo
    constraints: dict[str, Qubo]
    penalties: PenaltyConfig

    def qubo(self, pen: PenaltyConfig | None = None) -> Qubo:
        pen = self.penalties if pen is None else pen
        total = self.objective.copy()
        for fam, form in self.constraints.items():
            total.add_scaled(form, pen.value(fam))
        total.settle()
        return total

    def constraint_values(self, x: Sequence[int]) -> dict[str, float]:
        return {fam: form.energy(x) for fam, form in self.constraints.items()}


# --- text export ------------------------------------------------------------

def format_qubo_text(q: Qubo) -> str:
    """Deterministic text form: header, then `i i c` / `i j c` lines (i < j).

    Terms are sorted by index.  Every line is one row of a fixed-width byte
    table: a name per index and a repr per distinct coefficient, made once
    each, padded with NUL bytes that are dropped when the table is joined.
    """
    linear, quadratic = q.linear, q.quadratic
    vals = np.concatenate([linear["value"], quadratic["value"]])
    values = np.unique(vals)
    names = np.array([str(i) for i in range(q.n)], dtype=bytes)
    coefs = np.array([repr(v) for v in values.tolist()], dtype=bytes)
    table = np.empty(len(vals), dtype=[
        ("i", names.dtype), ("s", "S1"), ("j", names.dtype), ("t", "S1"),
        ("c", coefs.dtype), ("nl", "S1"),
    ])
    table["i"] = names[np.concatenate([linear["i"], quadratic["i"]])]
    table["j"] = names[np.concatenate([linear["i"], quadratic["j"]])]
    table["c"] = coefs[np.searchsorted(values, vals)]
    table["s"] = table["t"] = b" "
    table["nl"] = b"\n"
    body = table.tobytes().translate(None, b"\0")
    return f"n {q.n} offset {q.offset!r}\n" + body.decode()


def format_registry_text(reg: VariableRegistry) -> str:
    """`index label` lines in index order, each label as its `str`.

    The edge block is written from its columns in one `%`-format pass, in
    `EdgeStep.__str__`'s layout, so no label object is built.
    """
    lines = [
        "%d e[step=%d,%d->%d,%s,p%d,%s]\n" % (i, step, tail, head, EDGE_MODES[mode], p,
                                             EDGE_KINDS[kind])
        for i, (step, p, tail, head, kind, mode) in enumerate(zip(*reg._edges.tolist()))
    ]
    lines += [f"{i} {lab}\n" for i, lab in enumerate(reg._explicit, len(lines))]
    return "".join(lines)
