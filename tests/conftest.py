"""Shared generators and independent test oracles."""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np
import pytest

from postqubo import (
    EdgeRef,
    Graph,
    InfeasibleEndpoints,
    ProblemSpec,
    SpecError,
    is_strongly_connected,
    odd_degree_vertices,
)
from postqubo.errors import QuboError
from postqubo.general import ENC_REPETITION, ENC_TERMINAL, KIND_TERMINAL, TERMINAL
from postqubo.qubo import (
    MODE_SERVICE,
    PRUNE_EPS,
    CapacitySlack,
    EdgeStep,
    PairVar,
    RequiredSlack,
    RestVar,
)
from postqubo.solvers import _energy_blocks

def figure_example_graph() -> Graph:
    """Six-vertex undirected example used across the golden tests."""
    return Graph.build(
        range(6),
        undirected=[(3, 2, 5), (2, 1, 1), (1, 0, 1), (0, 5, 2), (5, 4, 5), (4, 2, 5)]
        + [(5, 2, 4)],
    )


def random_connected_undirected(
    rng: np.random.Generator,
    n_vertices: int,
    extra_edges: int,
    max_weight: int = 9,
) -> Graph:
    """Random connected undirected graph with integer symmetric weights."""
    vertices = list(range(n_vertices))
    perm = list(rng.permutation(n_vertices))
    edges = set()
    for a, b in zip(perm, perm[1:]):  # random spanning tree keeps it connected
        edges.add((min(a, b), max(a, b)))
    pool = [
        (a, b)
        for a in vertices
        for b in vertices
        if a < b and (a, b) not in edges
    ]
    rng.shuffle(pool)
    for pair in pool[:extra_edges]:
        edges.add(pair)
    weighted = [(a, b, int(rng.integers(1, max_weight + 1))) for a, b in sorted(edges)]
    return Graph.build(vertices, undirected=weighted)


def random_graph_with_odd_count(
    rng: np.random.Generator, odd_count: int, max_weight: int = 9
) -> Graph:
    """Connected undirected graph with exactly `odd_count` odd vertices."""
    while True:
        n = odd_count + int(rng.integers(0, 4))
        if n < 3:
            n = 3
        extra = int(rng.integers(0, n))
        g = random_connected_undirected(rng, n, extra, max_weight)
        if len(odd_degree_vertices(g)) == odd_count:
            return g


def random_mixed_graph(
    rng: np.random.Generator,
    n_vertices: int,
    n_edges: int,
    windy: bool,
    directed_frac: float,
    max_weight: int = 9,
) -> Graph | None:
    """Random strongly connected mixed graph, or None if the draw fails."""
    pairs = [
        (a, b) for a in range(n_vertices) for b in range(n_vertices) if a < b
    ]
    rng.shuffle(pairs)
    undirected, directed = [], []
    for a, b in pairs[:n_edges]:
        if rng.random() < directed_frac:
            if rng.random() < 0.5:
                a, b = b, a
            directed.append((a, b, int(rng.integers(1, max_weight + 1))))
        elif windy and rng.random() < 0.7:
            undirected.append(
                (a, b, int(rng.integers(1, max_weight + 1)), int(rng.integers(1, max_weight + 1)))
            )
        else:
            undirected.append((a, b, int(rng.integers(1, max_weight + 1))))
    if len(undirected) + len(directed) < n_edges:
        return None
    g = Graph.build(range(n_vertices), undirected=undirected, directed=directed)
    return g if is_strongly_connected(g) else None


def floyd_warshall(g: Graph) -> dict[tuple[int, int], float]:
    """Independent all-pairs reference (different algorithm family)."""
    vs = sorted(g.vertices)
    dist = {(a, b): (0.0 if a == b else float("inf")) for a in vs for b in vs}
    for arc in g.arcs():
        dist[(arc.tail, arc.head)] = min(dist[(arc.tail, arc.head)], arc.weight)
    for k in vs:
        for i in vs:
            for j in vs:
                via = dist[(i, k)] + dist[(k, j)]
                if via < dist[(i, j)]:
                    dist[(i, j)] = via
    return dist


def naive_energy(q, x) -> float:
    total = q.offset
    for i, c in q.linear.tolist():
        total += c * x[i]
    for i, j, c in q.quadratic.tolist():
        total += c * x[i] * x[j]
    return total


class DictQubo:
    """Reference model of Qubo assembly: one dict entry per term, each
    contribution added in call order, an entry dropped whenever its sum
    comes within PRUNE_EPS of zero."""

    def __init__(self, n: int):
        self.n, self.offset, self.terms = n, 0.0, {}

    def _add(self, i: int, j: int, c: float) -> None:
        key = (min(i, j), max(i, j))
        v = self.terms.get(key, 0.0) + c
        if abs(v) < PRUNE_EPS:
            self.terms.pop(key, None)
        else:
            self.terms[key] = v

    def add_quadratic_terms(self, i, j, c) -> None:
        for a, b, v in zip(i, j, np.broadcast_to(c, np.shape(i)).tolist()):
            self._add(a, b, v)

    def add_square_penalty(self, idx, coef, constant, group=0) -> None:
        """Qubo.add_square_penalty as one single-group square per group, in order."""
        constants = list(np.atleast_1d(constant).tolist())
        groups = np.broadcast_to(group, np.shape(idx)).tolist()
        coefs = np.broadcast_to(coef, np.shape(idx)).tolist()
        for g, c in enumerate(constants):
            terms = [(i, m) for i, m, h in zip(list(idx), coefs, groups) if h == g]
            self._add_square(terms, c)

    def _add_square(self, terms, constant: float) -> None:
        merged: dict[int, float] = {}
        for i, c in terms:
            merged[i] = merged.get(i, 0.0) + c
        self.offset += constant * constant
        idxs = sorted(merged)
        for i in idxs:
            self._add(i, i, 2.0 * constant * merged[i] + merged[i] * merged[i])
        for a, i in enumerate(idxs):
            for j in idxs[a + 1:]:
                self._add(i, j, 2.0 * merged[i] * merged[j])

    def add_scaled(self, other: "DictQubo", scale: float = 1.0) -> None:
        self.offset += scale * other.offset
        for (i, j), c in list(other.terms.items()):
            self._add(i, j, scale * c)

    def text(self) -> str:
        """format_qubo_text's layout: linear terms, then quadratic, by index."""
        keys = sorted(k for k in self.terms if k[0] == k[1])
        keys += sorted(k for k in self.terms if k[0] != k[1])
        lines = [f"n {self.n} offset {self.offset!r}"]
        lines += [f"{i} {j} {self.terms[(i, j)]!r}" for i, j in keys]
        return "\n".join(lines) + "\n"


def reference_prune_steps(spec, i_max: int, repetition: bool, terminal_gate):
    """Reference model of the general compiler's step pruning, one set of arc
    indices per step: forward from the start, backward from the stop.

    The arcs are the graph's in `Graph.arcs()` order, then, given a
    `terminal_gate`, one arc into the terminal per possible end and the
    terminal loop.  A terminal arc is usable from `terminal_gate` on, the
    terminal loop never at step 0.  Raises InfeasibleEndpoints at the first
    empty step.
    """
    Arc = collections.namedtuple("Arc", "index tail head is_terminal")
    arcs = [(a.tail, a.head, False) for a in spec.graph.arcs()]
    if terminal_gate is not None:
        ends = [spec.stop] if spec.stop is not None else sorted(spec.graph.vertices)
        arcs += [(v, TERMINAL, True) for v in [*ends, TERMINAL]]
    arcs = [Arc(i, *a) for i, a in enumerate(arcs)]

    def mask(i: int, arc) -> bool:
        if arc.is_terminal:
            if terminal_gate is None:
                return False
            if i < terminal_gate:
                return False
            if i == 0 and arc.tail == TERMINAL:
                return False
        return True

    start, stop = spec.start, spec.stop
    fwd: list[set[int]] = []
    prev: set[int] = {
        a.index for a in arcs if mask(0, a) and (start is None or a.tail == start)
    }
    fwd.append(prev)
    for i in range(1, i_max):
        heads = {arcs[j].head for j in prev}
        cur = {
            a.index
            for a in arcs
            if mask(i, a) and (a.tail in heads or (repetition and a.index in prev))
        }
        fwd.append(cur)
        prev = cur

    bwd: list[set[int]] = [set()] * i_max
    if stop is None:
        nxt = {a.index for a in arcs if mask(i_max - 1, a)}
    else:
        nxt = {
            a.index
            for a in arcs
            if mask(i_max - 1, a) and a.head in (stop, TERMINAL)
        }
    bwd[i_max - 1] = nxt
    for i in range(i_max - 2, -1, -1):
        tails = {arcs[j].tail for j in nxt}
        cur = {
            a.index
            for a in arcs
            if mask(i, a) and (a.head in tails or (repetition and a.index in nxt))
        }
        bwd[i] = cur
        nxt = cur

    allowed: list[frozenset[int]] = []
    for i in range(i_max):
        step_set = frozenset(fwd[i] & bwd[i])
        if not step_set:
            raise InfeasibleEndpoints(
                f"no arc can appear at step {i} given start={start}, stop={stop}"
            )
        allowed.append(step_set)
    return allowed


def add_offset(q, c: float) -> None:
    """Add a constant to a Qubo's (or a DictQubo's) offset; QuboError, and
    no change, if the sum is not finite."""
    if not math.isfinite(q.offset + c):
        raise QuboError(f"offset {q.offset} + {c} is not finite")
    q.offset += c


def add_quadratic(q, i: int, j: int, c: float) -> None:
    """Add c x_i x_j to a Qubo or a DictQubo; i == j adds a linear term."""
    q.add_quadratic_terms([i], [j], c)


def add_linear(q, i: int, c: float) -> None:
    add_quadratic(q, i, i, c)


def enumerate_all_energies(q) -> np.ndarray:
    """Energies of all 2^n assignments; entry p has bit j of p as x_j.

    O(2^n) work and memory; exact for integer-valued coefficients.  The
    blocks of `brute_force`'s enumeration, written into one table.
    """
    blocks = _energy_blocks(q)
    energies = np.empty(1 << q.n)
    for h, block in blocks:
        energies[h * block.size : (h + 1) * block.size] = block
    return energies


def encode_pairing(pairing, reg) -> list[int]:
    """Inverse of decode_pairing for round-trip checks."""
    x = [0] * len(reg)
    for a, b in pairing.pairs:
        x[reg.index_of(PairVar(a, b))] = 1
    return x


def encode_route(compiled, walks, strict: bool = False) -> list[int]:
    """Bits for per-postman walks given as (tail, head[, mode[, kind]]) steps.

    A reference encoder that reads only a compiled general problem's spec,
    encoding, step budget and registry labels.  An omitted mode is the
    spec's last, an omitted kind the one graph arc between the two vertices.
    Walks are padded with repeats of the last step, terminal arcs or rest
    bits as the encoding asks; a step whose label is not in the registry was
    pruned and raises SpecError.  The slack registers are filled to match,
    each clamped to its range so that violating walks stay encodable: a
    required edge's register holds the extra visits of all postmen, a
    postman's capacity register their unused capacity.  With `strict`, a
    value that would be clamped raises SpecError instead.
    """
    spec, reg, i_max = compiled.spec, compiled.registry, compiled.i_max
    count, pad = spec.postmen.count, spec.modes[-1]
    if len(walks) != count:
        raise SpecError(f"need {count} walks, got {len(walks)}")

    def arc(step) -> tuple[int, int, str, str]:
        tail, head = int(step[0]), int(step[1])
        mode = str(step[2]) if len(step) > 2 and step[2] is not None else pad
        kind = str(step[3]) if len(step) > 3 and step[3] is not None else None
        kinds = [k for k in ((kind,) if kind is not None else ("u", "d"))
                 if (tail, head, k) in spec.graph.arc_weights]
        if len(kinds) != 1:
            raise SpecError(f"arc {tail}->{head} (kind={kind}) matches {len(kinds)} arcs")
        return tail, head, kinds[0], mode

    x = [0] * len(reg)

    def set_bit(label) -> None:
        if label not in reg:
            raise SpecError(f"{label} was pruned for this spec")
        x[reg.index_of(label)] = 1

    visits: collections.Counter = collections.Counter()
    used = [0.0] * count
    for p, walk in enumerate(walks):
        seq = [arc(step) for step in walk]
        if len(seq) > i_max:
            raise SpecError(f"walk of {len(seq)} steps exceeds i_max={i_max}")
        if compiled.encoding == ENC_REPETITION:
            if not seq:
                raise SpecError("repetition encoding cannot express empty walks")
            seq += [seq[-1]] * (i_max - len(seq))
        moves = len(seq)
        if compiled.encoding == ENC_TERMINAL and moves < i_max:
            if seq:
                end = seq[-1][1]
            else:
                end = spec.start if spec.start is not None else min(spec.graph.vertices)
            seq.append((end, TERMINAL, KIND_TERMINAL, pad))
            seq += [(TERMINAL, TERMINAL, KIND_TERMINAL, pad)] * (i_max - len(seq))
        for i, (tail, head, kind, mode) in enumerate(seq):
            set_bit(EdgeStep(i, tail, head, mode, p, kind))
            if kind != KIND_TERMINAL:
                used[p] += spec.weight(p, (tail, head, kind), mode)
                # in service mode only a service step covers its edge
                if spec.service is None or mode == MODE_SERVICE:
                    visits[EdgeRef(kind, tail, head)] += 1
        for i in range(moves, i_max):
            if RestVar(i, p) in reg:
                set_bit(RestVar(i, p))

    def fill(label_of_bit, value: int) -> None:
        """Write `value`, clamped to the register's range."""
        width = 0
        while label_of_bit(width) in reg:
            width += 1
        held = min(max(value, 0), (1 << width) - 1)
        if strict and held != value:
            raise SpecError(f"{value} does not fit the {width}-bit register of {label_of_bit(0)}")
        for bit in range(width):
            if held >> bit & 1:
                set_bit(label_of_bit(bit))

    for ref in spec.resolved_required():
        fill(lambda bit: RequiredSlack(bit, ref.a, ref.b, ref.kind), visits[ref] - 1)
    for p, c in enumerate(spec.postmen.capacities or ()):
        fill(lambda bit: CapacitySlack(bit, p), int(float(c) - used[p]))
    return x


def all_pairings(items: list[int]):
    """Every perfect pairing of an even-sized list."""
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1 :]
        for sub in all_pairings(rest):
            yield [(first, items[k])] + sub


def bits_from_index(index: int, n: int) -> list[int]:
    return [(index >> j) & 1 for j in range(n)]


@pytest.fixture
def figure_graph() -> Graph:
    return figure_example_graph()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
