"""Mixed windy weighted graphs and the classical algorithms the pipelines need.

A graph is a set of integer vertices plus undirected edges (one weight per
traversal direction) and directed edges.  Everything is immutable after
construction and safe to share across threads; a graph's all-pairs shortest
paths are computed on first use and then kept.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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


def _check_weight(w: float, what: str) -> float:
    w = float(w)
    if not math.isfinite(w) or w < 0:
        raise InvalidGraph(f"{what} weight must be finite and non-negative, got {w}")
    return w


@dataclass(frozen=True)
class Graph:
    """Mixed windy weighted graph; no parallel edges, no self-loops.

    `arcs()` and the `arc_weights` table, (tail, head, kind) -> weight, are
    built once at construction and are read-only.
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
        seen_u: set[tuple[int, int]] = set()
        for e in und:
            if e.a == e.b:
                raise InvalidGraph(f"self-loop on vertex {e.a}")
            if e.a not in self.vertices or e.b not in self.vertices:
                raise InvalidGraph(f"edge [{e.a},{e.b}] endpoint not in vertex set")
            if (e.a, e.b) in seen_u:
                raise InvalidGraph(f"duplicate undirected edge [{e.a},{e.b}]")
            seen_u.add((e.a, e.b))
            _check_weight(e.w_ab, f"[{e.a},{e.b}]")
            _check_weight(e.w_ba, f"[{e.b},{e.a}]")
        seen_d: set[tuple[int, int]] = set()
        for d in dire:
            if d.tail == d.head:
                raise InvalidGraph(f"self-loop on vertex {d.tail}")
            if d.tail not in self.vertices or d.head not in self.vertices:
                raise InvalidGraph(f"arc ({d.tail},{d.head}) endpoint not in vertex set")
            if (d.tail, d.head) in seen_d:
                raise InvalidGraph(f"duplicate directed edge ({d.tail},{d.head})")
            seen_d.add((d.tail, d.head))
            _check_weight(d.w, f"({d.tail},{d.head})")
        arcs: list[Arc] = []
        for e in und:
            arcs.append(Arc(e.a, e.b, e.w_ab, e.ref))
            arcs.append(Arc(e.b, e.a, e.w_ba, e.ref))
        for d in dire:
            arcs.append(Arc(d.tail, d.head, d.w, d.ref))
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
        return tuple(e.ref for e in self.undirected) + tuple(d.ref for d in self.directed)

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


def _adjacency(g: Graph) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in g.vertices}
    for arc in g.arcs():
        adj[arc.tail].append((arc.head, arc.weight))
    for lst in adj.values():
        lst.sort()
    return adj


def is_strongly_connected(g: Graph) -> bool:
    """True iff every ordered pair is joined by a walk (undirected = both ways)."""
    if len(g.vertices) == 1:
        return True
    fwd: dict[int, list[int]] = {v: [] for v in g.vertices}
    rev: dict[int, list[int]] = {v: [] for v in g.vertices}
    for arc in g.arcs():
        fwd[arc.tail].append(arc.head)
        rev[arc.head].append(arc.tail)

    def reaches_all(adj: dict[int, list[int]], root: int) -> bool:
        seen = {root}
        stack = [root]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(g.vertices)

    root = min(g.vertices)
    return reaches_all(fwd, root) and reaches_all(rev, root)


class ShortestPaths:
    """All-pairs distances plus predecessors over direction-dependent weights."""

    def __init__(self, order: list[int], dist: np.ndarray, pred: np.ndarray):
        self._order = order
        self._index = {v: i for i, v in enumerate(order)}
        self._dist = dist
        self._pred = pred

    def distance(self, u: int, v: int) -> float:
        return float(self._dist[self._index[u], self._index[v]])

    def path(self, u: int, v: int) -> list[int]:
        """One realizing vertex sequence from u to v (inclusive)."""
        iu, iv = self._index[u], self._index[v]
        if iu == iv:
            return [u]
        rev = [iv]
        while rev[-1] != iu:
            prev = int(self._pred[iu, rev[-1]])
            if prev < 0:
                raise NotStronglyConnected(f"no path from {u} to {v}")
            rev.append(prev)
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
    adj = _adjacency(g)
    dist = np.full((n, n), np.inf)
    pred = np.full((n, n), -1, dtype=np.int64)
    for src in order:
        si = index[src]
        dist[si, si] = 0.0
        heap = [(0.0, si)]
        done = [False] * n
        while heap:
            d, ui = heapq.heappop(heap)
            if done[ui]:
                continue
            done[ui] = True
            for head, w in adj[order[ui]]:
                vi = index[head]
                nd = d + w
                if nd < dist[si, vi]:
                    dist[si, vi] = nd
                    pred[si, vi] = ui
                    heapq.heappush(heap, (nd, vi))
        if not all(done):
            missing = order[done.index(False)]
            raise NotStronglyConnected(f"vertex {missing} unreachable from {src}")
    return ShortestPaths(order, dist, pred)


@dataclass(frozen=True)
class MultiEdge:
    tail: int
    head: int
    weight: float


@dataclass
class MultiGraph:
    """Internal multigraph for augmentation and terminal constructions.

    Parallel edges are allowed; self-loops only where a builder creates them.
    Never accepted as user input.
    """

    vertices: set[int] = field(default_factory=set)
    edges: list[MultiEdge] = field(default_factory=list)
    directed: bool = False

    @classmethod
    def from_graph(cls, g: Graph) -> "MultiGraph":
        """Undirected multigraph copy; requires symmetric undirected weights."""
        if g.directed:
            raise NonUndirectedGraph("only undirected graphs have a multigraph copy")
        mg = cls(set(g.vertices), [], directed=False)
        for e in g.undirected:
            mg.add_edge(e.a, e.b, e.w_ab)
        return mg

    def add_edge(self, tail: int, head: int, weight: float) -> int:
        self.vertices.add(tail)
        self.vertices.add(head)
        self.edges.append(MultiEdge(tail, head, float(weight)))
        return len(self.edges) - 1

    @property
    def total_weight(self) -> float:
        return sum(e.weight for e in self.edges)

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        return deg


def _euler_edge_sequence(mg: MultiGraph) -> list[tuple[int, int, int]]:
    """Hierholzer traversal as (tail, head, edge_index) triples.

    Starts at the lowest-numbered vertex with positive degree and always
    explores the lowest-numbered neighbor first, so output is deterministic.
    """
    if not mg.edges:
        return []
    # incidence[v] = sorted (neighbor, edge_index) pairs leaving v
    incidence: dict[int, list[tuple[int, int]]] = {v: [] for v in mg.vertices}
    for idx, e in enumerate(mg.edges):
        incidence[e.tail].append((e.head, idx))
        if not mg.directed:
            incidence[e.head].append((e.tail, idx))
    for lst in incidence.values():
        lst.sort()

    if mg.directed:
        out = {v: 0 for v in mg.vertices}
        ind = {v: 0 for v in mg.vertices}
        for e in mg.edges:
            out[e.tail] += 1
            ind[e.head] += 1
        for v in mg.vertices:
            if out[v] != ind[v]:
                raise NoEulerianCircuit(f"vertex {v}: in-degree {ind[v]} != out-degree {out[v]}")
    else:
        for v, d in mg.degrees().items():
            if d % 2 == 1:
                raise NoEulerianCircuit(f"vertex {v} has odd degree {d}")

    # connectivity over vertices that carry edges (undirected view suffices:
    # a balanced connected directed multigraph is strongly connected)
    active = {e.tail for e in mg.edges} | {e.head for e in mg.edges}
    links: dict[int, set[int]] = {v: set() for v in active}
    for e in mg.edges:
        links[e.tail].add(e.head)
        links[e.head].add(e.tail)
    start = min(active)
    seen = {start}
    stack = [start]
    while stack:
        for u in links[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if seen != active:
        raise NoEulerianCircuit("edge set is not connected")

    used = [False] * len(mg.edges)
    pointer = {v: 0 for v in mg.vertices}
    # stack entries: (vertex, edge index used to arrive, arc tail)
    path_stack: list[tuple[int, int, int]] = [(start, -1, -1)]
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
    if len(steps) != len(mg.edges):
        raise NoEulerianCircuit("traversal did not use every edge")
    return steps


def rotate_closed_walk(steps: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Rotate a closed walk so it starts at its lowest-numbered vertex."""
    steps = list(steps)
    if not steps:
        return steps
    lowest = min(a for a, _ in steps)
    k = next(i for i, (a, _) in enumerate(steps) if a == lowest)
    return steps[k:] + steps[:k]
