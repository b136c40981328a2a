"""Mixed windy weighted graphs and the classical algorithms the pipelines need.

A graph is a set of integer vertices plus undirected edges (one weight per
traversal direction) and directed edges.  Everything is immutable after
construction and safe to share across threads; a graph's all-pairs shortest
paths are computed on first use and then kept, as stdlib `array` rows that the
exact layers read without numpy scalars.

Every reachability question (strong connectivity, the walk oracle's hops to
its stop, the closure of the service order) is answered by one breadth-first
search, `reach`, along (tail, head) pairs.

Euler circuits are taken over a plain list of (tail, head) pairs, so a
caller can duplicate or select edges without building another graph and
map each traversed index back to its own edge.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import (
    InvalidGraph,
    NoEulerianCircuit,
    NonUndirectedGraph,
    NotStronglyConnected,
)


@dataclass(frozen=True, order=True)
class EdgeRef:
    """Identity of one graph edge: kind 'u' (undirected, a < b) or 'd'."""

    kind: str
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.kind not in ("u", "d"):
            raise InvalidGraph(f"edge kind must be 'u' or 'd', got {self.kind!r}")
        if self.kind == "u" and self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    def __str__(self) -> str:
        return f"{self.kind}({self.a},{self.b})"


@dataclass(frozen=True)
class UndirectedEdge:
    """Undirected edge with direction-dependent (windy) weights.

    Stored with a < b; w_ab is the cost of traversing a -> b.
    """

    a: int
    b: int
    w_ab: float
    w_ba: float

    def __post_init__(self) -> None:
        if self.a > self.b:
            a, b, w_ab, w_ba = self.b, self.a, self.w_ba, self.w_ab
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            object.__setattr__(self, "w_ab", w_ab)
            object.__setattr__(self, "w_ba", w_ba)

    @property
    def ref(self) -> EdgeRef:
        return EdgeRef("u", self.a, self.b)

    @property
    def symmetric(self) -> bool:
        return self.w_ab == self.w_ba


@dataclass(frozen=True)
class DirectedEdge:
    tail: int
    head: int
    w: float

    @property
    def ref(self) -> EdgeRef:
        return EdgeRef("d", self.tail, self.head)


class Arc(NamedTuple):
    """One directed traversal of an edge (undirected edges yield two arcs)."""

    tail: int
    head: int
    weight: float
    ref: EdgeRef


@dataclass(frozen=True)
class Graph:
    """Mixed windy weighted graph; no parallel edges, no self-loops.

    `edge_refs()`, `arcs()` and the `arc_weights` table, (tail, head, kind)
    -> weight, are built once at construction and are read-only.
    """

    vertices: frozenset[int]
    undirected: tuple[UndirectedEdge, ...] = ()
    directed: tuple[DirectedEdge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        und = tuple(sorted(self.undirected, key=lambda e: (e.a, e.b)))
        dire = tuple(sorted(self.directed, key=lambda e: (e.tail, e.head)))
        object.__setattr__(self, "undirected", und)
        object.__setattr__(self, "directed", dire)
        if not self.vertices:
            raise InvalidGraph("graph needs at least one vertex")
        for v in self.vertices:
            if not isinstance(v, int) or v < 0:
                raise InvalidGraph(f"vertex ids must be non-negative ints, got {v!r}")
        refs = tuple(e.ref for e in und) + tuple(d.ref for d in dire)
        seen: set[tuple[str, int, int]] = set()
        for ref in refs:
            key = (ref.kind, ref.a, ref.b)
            if ref.a == ref.b:
                raise InvalidGraph(f"self-loop on vertex {ref.a}")
            if ref.a not in self.vertices or ref.b not in self.vertices:
                raise InvalidGraph(f"edge {ref} endpoint not in vertex set")
            if key in seen:
                raise InvalidGraph(f"duplicate edge {ref}")
            seen.add(key)
        arcs: list[Arc] = []
        for e, ref in zip(und, refs):
            arcs.append(Arc(e.a, e.b, e.w_ab, ref))
            arcs.append(Arc(e.b, e.a, e.w_ba, ref))
        for d, ref in zip(dire, refs[len(und):]):
            arcs.append(Arc(d.tail, d.head, d.w, ref))
        for tail, head, w, _ in arcs:
            w = float(w)
            if not math.isfinite(w) or w < 0:
                raise InvalidGraph(
                    f"arc ({tail},{head}) weight must be finite and non-negative, got {w}"
                )
        object.__setattr__(self, "_edge_refs", refs)
        object.__setattr__(self, "_arcs", tuple(arcs))
        object.__setattr__(
            self, "arc_weights", {(a.tail, a.head, a.ref.kind): a.weight for a in arcs}
        )

    @classmethod
    def build(
        cls,
        vertices: Iterable[int],
        undirected: Iterable[Sequence[float]] = (),
        directed: Iterable[Sequence[float]] = (),
    ) -> "Graph":
        """Build from plain tuples: (a, b, w) or (a, b, w_ab, w_ba) and (j, k, w)."""
        und = []
        for item in undirected:
            if len(item) == 3:
                a, b, w = item
                und.append(UndirectedEdge(int(a), int(b), float(w), float(w)))
            elif len(item) == 4:
                a, b, w_ab, w_ba = item
                und.append(UndirectedEdge(int(a), int(b), float(w_ab), float(w_ba)))
            else:
                raise InvalidGraph(f"undirected edge needs 3 or 4 fields: {item!r}")
        dire = []
        for item in directed:
            if len(item) != 3:
                raise InvalidGraph(f"directed edge needs 3 fields: {item!r}")
            j, k, w = item
            dire.append(DirectedEdge(int(j), int(k), float(w)))
        return cls(frozenset(int(v) for v in vertices), tuple(und), tuple(dire))

    @property
    def edge_count(self) -> int:
        return len(self.undirected) + len(self.directed)

    @property
    def max_weight(self) -> float:
        weights = [e.w_ab for e in self.undirected] + [e.w_ba for e in self.undirected]
        weights += [d.w for d in self.directed]
        return max(weights) if weights else 0.0

    def edge_refs(self) -> tuple[EdgeRef, ...]:
        """Every edge's identity: the undirected edges, then the directed."""
        return self._edge_refs

    def arcs(self) -> tuple[Arc, ...]:
        """Every directed traversal: two per undirected edge, one per directed."""
        return self._arcs

    @cached_property
    def paths(self) -> ShortestPaths:
        """All-pairs shortest paths, computed once per graph on first use."""
        return shortest_paths(self)


def odd_degree_vertices(g: Graph) -> frozenset[int]:
    """Vertices of odd undirected degree; rejects graphs with directed arcs."""
    if g.directed:
        raise NonUndirectedGraph("odd-degree scan expects a purely undirected graph")
    odd: set[int] = set()
    for e in g.undirected:
        odd ^= {e.a, e.b}
    return frozenset(odd)


def reach(
    edges: Iterable[tuple[Hashable, Hashable]], roots: Iterable[Hashable]
) -> dict[Hashable, int]:
    """Breadth-first search along directed (tail, head) `edges` from `roots`.

    Maps every node reached to the fewest edges from a root to it; roots map
    to 0.  This is the one reachability search of the package.
    """
    out: defaultdict[Hashable, list[Hashable]] = defaultdict(list)
    for tail, head in edges:
        out[tail].append(head)
    hops = dict.fromkeys(roots, 0)
    queue = deque(hops)
    while queue:
        v = queue.popleft()
        for u in out[v]:
            if u not in hops:
                hops[u] = hops[v] + 1
                queue.append(u)
    return hops


def is_strongly_connected(g: Graph) -> bool:
    """True iff every ordered pair is joined by a walk (undirected = both ways)."""
    pairs = [(arc.tail, arc.head) for arc in g.arcs()]
    root = [min(g.vertices)]
    back = [(head, tail) for tail, head in pairs]
    return len(reach(pairs, root)) == len(reach(back, root)) == len(g.vertices)


class ShortestPaths:
    """All-pairs distances plus predecessors over direction-dependent weights.

    One stdlib `array` row of distances (doubles) and one of predecessor
    indices (int64) per source, in ascending vertex order: a lookup reads a
    Python float or int with no numpy scalar in between, and a row holds 8
    bytes an entry, not a list's pointer plus a float object.
    """

    def __init__(self, order: list[int], dist: list[array], pred: list[array]):
        self._order = order
        self._index = {v: i for i, v in enumerate(order)}
        self._dist = dist
        self._pred = pred

    def distance(self, u: int, v: int) -> float:
        return self._dist[self._index[u]][self._index[v]]

    def path(self, u: int, v: int) -> list[int]:
        """One realizing vertex sequence from u to v (inclusive)."""
        iu, iv = self._index[u], self._index[v]
        if iu == iv:
            return [u]
        pred = self._pred[iu]
        rev = [iv]
        while rev[-1] != iu:
            rev.append(pred[rev[-1]])
        return [self._order[i] for i in reversed(rev)]

    def path_steps(self, u: int, v: int) -> list[tuple[int, int]]:
        vs = self.path(u, v)
        return list(zip(vs[:-1], vs[1:]))


def shortest_paths(g: Graph) -> ShortestPaths:
    """Dijkstra from every source; undirected edges contribute w_ab one way
    and w_ba the other.  Raises NotStronglyConnected when any pair is cut off.
    """
    order = sorted(g.vertices)
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    out: list[list[tuple[int, float]]] = [[] for _ in order]
    for arc in g.arcs():
        out[index[arc.tail]].append((index[arc.head], arc.weight))
    for arcs in out:
        arcs.sort()  # heads ascending, then weights
    dist_rows: list[array] = []
    pred_rows: list[array] = []
    for si in range(n):
        dist = [math.inf] * n
        pred = [-1] * n
        dist[si] = 0.0
        heap = [(0.0, si)]
        done = [False] * n
        while heap:
            d, ui = heapq.heappop(heap)
            if done[ui]:
                continue
            done[ui] = True
            for vi, w in out[ui]:
                nd = d + w
                if nd < dist[vi]:
                    dist[vi] = nd
                    pred[vi] = ui
                    heapq.heappush(heap, (nd, vi))
        if not all(done):
            missing = order[done.index(False)]
            raise NotStronglyConnected(f"vertex {missing} unreachable from {order[si]}")
        dist_rows.append(array("d", dist))
        pred_rows.append(array("q", pred))
    return ShortestPaths(order, dist_rows, pred_rows)


def _euler_edge_sequence(
    edges: Sequence[tuple[int, int]], directed: bool = False
) -> list[tuple[int, int, int]]:
    """Hierholzer traversal of an edge multiset as (tail, head, edge_index) triples.

    Starts at the lowest-numbered vertex with an edge and always explores the
    lowest-numbered neighbor first, so output is deterministic.
    """
    if not edges:
        return []
    # incidence[v] = sorted (neighbor, edge_index) pairs leaving v;
    # balance[v] = out minus in (directed) or the degree (undirected)
    incidence: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    balance: defaultdict[int, int] = defaultdict(int)
    for idx, (tail, head) in enumerate(edges):
        incidence[tail].append((head, idx))
        balance[tail] += 1
        balance[head] += -1 if directed else 1
        if not directed:
            incidence[head].append((tail, idx))
    for v in sorted(balance):
        if directed and balance[v]:
            raise NoEulerianCircuit(f"vertex {v}: out-degree minus in-degree is {balance[v]}")
        if not directed and balance[v] % 2:
            raise NoEulerianCircuit(f"vertex {v} has odd degree {balance[v]}")
    for lst in incidence.values():
        lst.sort()

    used = [False] * len(edges)
    pointer = dict.fromkeys(incidence, 0)
    # stack entries: (vertex, edge index used to arrive, arc tail)
    path_stack: list[tuple[int, int, int]] = [(min(incidence), -1, -1)]
    order: list[tuple[int, int, int]] = []
    while path_stack:
        v, _, _ = path_stack[-1]
        lst = incidence[v]
        i = pointer[v]
        while i < len(lst) and used[lst[i][1]]:
            i += 1
        pointer[v] = i
        if i == len(lst):
            order.append(path_stack.pop())
        else:
            head, idx = lst[i]
            used[idx] = True
            path_stack.append((head, idx, v))
    order.reverse()
    steps = [(tail, v, idx) for (v, idx, tail) in order[1:]]
    # with every degree even (or balanced) the traversal uses the start's
    # whole component, so a leftover edge lies in another one
    if len(steps) != len(edges):
        raise NoEulerianCircuit("edge set is not connected")
    return steps
