"""Sparse binary-quadratic forms, semantic variable labels, and penalties.

A Qubo stores linear/quadratic coefficients sparsely plus a constant offset
so constraint values can be read off exactly.  A VariableRegistry is the
bijection between semantic labels and dense indices.  A CompiledProblem is
the shape both pipelines compile to: a registry, an objective and one
constraint form per penalty family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    """Slack bit with weight 2**bit absorbing extra visits of a required edge."""

    bit: int
    frm: int
    to: int
    postman: int = 0
    kind: str = "u"

    def sort_key(self):
        return (2, self.postman, self.frm, self.to, self.kind, self.bit)

    def __str__(self) -> str:
        return f"s[2^{self.bit},{self.frm}->{self.to},p{self.postman},{self.kind}]"


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


class VariableRegistry:
    """Bijection between labels and indices, in deterministic label order."""

    def __init__(self, labels: Iterable[VarLabel]):
        ordered = sorted(labels, key=lambda lab: lab.sort_key())
        self._labels: tuple[VarLabel, ...] = tuple(ordered)
        self._index: dict[VarLabel, int] = {lab: i for i, lab in enumerate(ordered)}
        if len(self._index) != len(self._labels):
            raise QuboError("duplicate variable labels")

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __contains__(self, label: VarLabel) -> bool:
        return label in self._index

    def index_of(self, label: VarLabel) -> int:
        return self._index[label]

    def label_of(self, index: int) -> VarLabel:
        return self._labels[index]

    @property
    def labels(self) -> tuple[VarLabel, ...]:
        return self._labels


# --- quadratic form -------------------------------------------------------

def _accumulate(table: dict, key, c: float) -> None:
    """Add c to table[key], dropping the entry once it is within PRUNE_EPS of zero."""
    v = table.get(key, 0.0) + c
    if abs(v) < PRUNE_EPS:
        table.pop(key, None)
    else:
        table[key] = v


class Qubo:
    """offset + sum_i linear[i] x_i + sum_{i<j} quadratic[i,j] x_i x_j over bits.

    Mutable while being assembled (single writer), then used read-only.
    """

    def __init__(self, n: int):
        if n < 0:
            raise QuboError("variable count must be non-negative")
        self.n = n
        self.linear: dict[int, float] = {}
        self.quadratic: dict[tuple[int, int], float] = {}
        self.offset: float = 0.0
        self._arrays = None

    # -- assembly --

    def _touch(self) -> None:
        self._arrays = None

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"variable {i} outside [0,{self.n})")

    def add_offset(self, c: float) -> None:
        self.offset += c
        self._touch()

    def add_linear(self, i: int, c: float) -> None:
        self._check_index(i)
        _accumulate(self.linear, i, c)
        self._touch()

    def add_quadratic(self, i: int, j: int, c: float) -> None:
        self._check_index(i)
        self._check_index(j)
        if i == j:
            # x^2 == x for bits
            _accumulate(self.linear, i, c)
        else:
            _accumulate(self.quadratic, (i, j) if i < j else (j, i), c)
        self._touch()

    def add_square_penalty(
        self,
        terms: Sequence[tuple[int, float]],
        constant: float,
        scale: float = 1.0,
    ) -> None:
        """Expand scale * (constant + sum c_i x_i)^2 into the form.

        Duplicate indices in `terms` are merged first; x^2 == x is applied.
        """
        if scale <= 0:
            raise QuboError("penalty scale must be positive")
        merged: dict[int, float] = {}
        for i, c in terms:
            self._check_index(i)
            merged[i] = merged.get(i, 0.0) + c
        self.offset += scale * constant * constant
        idxs = sorted(merged)
        for i in idxs:
            ci = merged[i]
            _accumulate(self.linear, i, scale * (2.0 * constant * ci + ci * ci))
        for a, i in enumerate(idxs):
            for j in idxs[a + 1:]:
                _accumulate(self.quadratic, (i, j), scale * 2.0 * merged[i] * merged[j])
        self._touch()

    def add_scaled(self, other: "Qubo", scale: float = 1.0) -> None:
        """Merge another form over the same registry, scaled."""
        if other.n != self.n:
            raise LengthMismatch(f"cannot merge n={other.n} into n={self.n}")
        self.offset += scale * other.offset
        # the other form's keys were checked when it was assembled
        for i, c in other.linear.items():
            _accumulate(self.linear, i, scale * c)
        for key, c in other.quadratic.items():
            _accumulate(self.quadratic, key, scale * c)
        self._touch()

    def copy(self) -> "Qubo":
        q = Qubo(self.n)
        q.linear = dict(self.linear)
        q.quadratic = dict(self.quadratic)
        q.offset = self.offset
        return q

    # -- evaluation --

    def as_arrays(self):
        """(linear vector, qi, qj, qv arrays); cached until next mutation."""
        if self._arrays is None:
            lin = np.zeros(self.n)
            for i, c in self.linear.items():
                lin[i] = c
            items = sorted(self.quadratic.items())
            qi = np.array([k[0] for k, _ in items], dtype=np.int64)
            qj = np.array([k[1] for k, _ in items], dtype=np.int64)
            qv = np.array([v for _, v in items], dtype=np.float64)
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
    "turn",
    "hierarchy",
    "collision",
    "capacity",
)


# default penalty multipliers are this many times the largest weight in play
PENALTY_FACTOR = 5.0


@dataclass(frozen=True)
class PenaltyConfig:
    """One positive, finite multiplier per constraint family."""

    p_one_edge: float
    p_adjacency: float
    p_required: float
    p_turn: float
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
        return cls(p, p, p, p, p, p, p, p)

    @classmethod
    def for_max_weight(cls, max_weight: float) -> "PenaltyConfig":
        """Default multipliers: PENALTY_FACTOR times the largest edge weight."""
        base = PENALTY_FACTOR * max_weight if max_weight > 0 else PENALTY_FACTOR
        return cls.uniform(base)

    def value(self, family: str) -> float:
        return getattr(self, f"p_{family}")

    def scaled(self, families: Iterable[str], factor: float) -> "PenaltyConfig":
        changes = {f"p_{fam}": self.value(fam) * factor for fam in families}
        return replace(self, **changes)


# --- compiled problems ---------------------------------------------------------

class CompiledProblem:
    """A registry, an objective form and one constraint form per family.

    The penalized QUBO is the objective plus pen.value(family) times each
    family's form; both pipelines' compiled problems share this shape.
    """

    registry: VariableRegistry
    objective: Qubo
    constraints: dict[str, Qubo]

    def qubo(self, pen: PenaltyConfig) -> Qubo:
        total = self.objective.copy()
        for fam, form in self.constraints.items():
            total.add_scaled(form, pen.value(fam))
        return total

    def constraint_values(self, x: Sequence[int]) -> dict[str, float]:
        return {fam: form.energy(x) for fam, form in self.constraints.items()}


# --- text export ------------------------------------------------------------

def format_qubo_text(q: Qubo) -> str:
    """Deterministic text form: header, then `i i c` / `i j c` lines (i < j)."""
    lines = [f"n {q.n} offset {q.offset!r}"]
    for i in sorted(q.linear):
        lines.append(f"{i} {i} {q.linear[i]!r}")
    for i, j in sorted(q.quadratic):
        lines.append(f"{i} {j} {q.quadratic[(i, j)]!r}")
    return "\n".join(lines) + "\n"


def format_registry_text(reg: VariableRegistry) -> str:
    lines = [f"{i} {lab}" for i, lab in enumerate(reg.labels)]
    return "\n".join(lines) + ("\n" if lines else "")
