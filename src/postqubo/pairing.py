"""Closed undirected postman pipeline built on odd-vertex pairing.

Workflow: find odd-degree vertices, build the pairing QUBO over shortest-path
distances, sample it, decode the bits into a perfect pairing, duplicate one
edge per pair, take the Euler circuit of the augmented multigraph, and expand
each duplicate back into its shortest path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AsymmetricUndirectedWeights,
    DirectedEdgesPresent,
    NoOddVertices,
    NotPerfectPairing,
    NotStronglyConnected,
    TooManyOddVertices,
)
from .graphs import (
    Graph,
    MultiGraph,
    _euler_edge_sequence,
    is_strongly_connected,
    odd_degree_vertices,
    rotate_closed_walk,
)
from .qubo import PENALTY_FACTOR, CompiledProblem, PairVar, PenaltyConfig, Qubo, VariableRegistry
from .routes import RouteSolution, RouteWalk, ValidityReport, WalkStep

ORACLE_MAX_ODD = 12


@dataclass(frozen=True)
class Pairing:
    """Disjoint vertex pairs covering every odd-degree vertex exactly once."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        canon = frozenset((min(a, b), max(a, b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", canon)
        flat = [v for p in canon for v in p]
        if len(flat) != len(set(flat)):
            raise NotPerfectPairing("pairs are not disjoint")

    def vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.pairs for v in p)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


def _check_pairing_input(g: Graph) -> None:
    if g.directed:
        raise DirectedEdgesPresent("pairing pipeline accepts undirected graphs only")
    for e in g.undirected:
        if not e.symmetric:
            raise AsymmetricUndirectedWeights(
                f"edge [{e.a},{e.b}] has w_ab={e.w_ab} != w_ba={e.w_ba}"
            )
    if not is_strongly_connected(g):
        raise NotStronglyConnected("pairing pipeline needs a connected graph")


@dataclass
class CompiledPairing(CompiledProblem):
    """Pairing QUBO: path-distance objective plus the "pairing" constraint.

    `penalty` is the multiplier the graph was compiled for; `qubo()` uses it
    and `qubo(pen)` reads `pen.p_pairing` instead.
    """

    graph: Graph
    registry: VariableRegistry
    objective: Qubo
    constraints: dict[str, Qubo]
    penalty: float

    def qubo(self, pen: PenaltyConfig | None = None) -> Qubo:
        return super().qubo(pen if pen is not None else PenaltyConfig.uniform(self.penalty))

    def decode(self, x: Sequence[int]) -> RouteSolution:
        try:
            pairing = decode_pairing(x, self.registry)
        except NotPerfectPairing:
            return RouteSolution(
                walks=(),
                objective_weight=float("inf"),
                validity=ValidityReport(required_covered=False),
            )
        return augment_and_route(self.graph, pairing)


def default_pairing_penalty(g: Graph) -> float:
    """PENALTY_FACTOR times the largest shortest-path distance among odd vertex pairs."""
    _check_pairing_input(g)
    odd = sorted(odd_degree_vertices(g))
    if len(odd) < 2:
        raise NoOddVertices("graph has no odd-degree vertices to pair")
    return PENALTY_FACTOR * max(g.paths.distance(a, b) for a, b in itertools.combinations(odd, 2))


def compile_pairing(g: Graph, p: float) -> CompiledPairing:
    """Pairing QUBO: sum W_ij x_ij plus p * sum_i (1 - sum_j x_ij)^2."""
    _check_pairing_input(g)
    if p <= 0:
        raise ValueError("pairing penalty must be positive")
    odd = sorted(odd_degree_vertices(g))
    if not odd:
        raise NoOddVertices("graph has no odd-degree vertices to pair")
    sp = g.paths
    registry = VariableRegistry(
        PairVar(a, b) for a, b in itertools.combinations(odd, 2)
    )
    objective = Qubo(len(registry))
    for label in registry:
        objective.add_linear(registry.index_of(label), sp.distance(label.i, label.j))
    constraint = Qubo(len(registry))
    seen: set[tuple[tuple[int, float], ...]] = set()
    for v in odd:
        terms = sorted(
            (registry.index_of(PairVar(v, u)), -1.0) for u in odd if u != v
        )
        # with exactly two odd vertices both coverage terms are the same
        # polynomial; count it once
        key = tuple(terms)
        if key in seen:
            continue
        seen.add(key)
        constraint.add_square_penalty(terms, constant=1.0, scale=1.0)
    return CompiledPairing(g, registry, objective, {"pairing": constraint}, p)


def decode_pairing(x: Sequence[int], reg: VariableRegistry) -> Pairing:
    """Read the set pair variables back as a perfect pairing.

    Raises NotPerfectPairing when any odd vertex is covered != 1 times,
    which is the signal for the penalty-retune retry.
    """
    if len(x) != len(reg):
        raise NotPerfectPairing(f"assignment length {len(x)} != {len(reg)} variables")
    chosen = [reg.label_of(i) for i, bit in enumerate(x) if bit]
    coverage: dict[int, int] = {}
    for lab in reg:
        coverage.setdefault(lab.i, 0)
        coverage.setdefault(lab.j, 0)
    for lab in chosen:
        coverage[lab.i] += 1
        coverage[lab.j] += 1
    bad = {v: c for v, c in coverage.items() if c != 1}
    if bad:
        raise NotPerfectPairing(f"odd vertices covered != 1 times: {bad}")
    return Pairing(frozenset((lab.i, lab.j) for lab in chosen))


def encode_pairing(pairing: Pairing, reg: VariableRegistry) -> list[int]:
    """Inverse of decode_pairing for round-trip checks."""
    x = [0] * len(reg)
    for a, b in pairing.pairs:
        x[reg.index_of(PairVar(a, b))] = 1
    return x


def augment_and_route(g: Graph, pairing: Pairing) -> RouteSolution:
    """Duplicate one edge per pair, take the Euler circuit, expand duplicates.

    Total weight is exactly (sum of original edge weights) plus the pairing's
    added shortest-path weight.
    """
    _check_pairing_input(g)
    odd = odd_degree_vertices(g)
    if pairing.vertices() != odd:
        raise NotPerfectPairing(
            f"pairing covers {sorted(pairing.vertices())}, odd vertices are {sorted(odd)}"
        )
    mg = MultiGraph.from_graph(g)
    # g.paths is read only for pairs, so an empty pairing computes no shortest paths
    added = {mg.add_edge(a, b, g.paths.distance(a, b)) for a, b in pairing.sorted_pairs()}
    sequence = _euler_edge_sequence(mg)
    steps: list[tuple[int, int]] = []
    for tail, head, idx in sequence:
        if idx in added:
            steps.extend(g.paths.path_steps(tail, head))
        else:
            steps.append((tail, head))
    steps = rotate_closed_walk(steps)
    weight = mg.total_weight
    walk = RouteWalk(tuple(WalkStep(a, b, kind="u") for a, b in steps), weight)
    return RouteSolution(walks=(walk,), objective_weight=weight)


def exact_pairing_oracle(g: Graph) -> tuple[Pairing, float]:
    """Minimum-added-weight perfect pairing by exhaustive enumeration.

    Enumerates all (d-1)!! pairings; ties break to the lexicographically
    smallest pairing.  Capped at 12 odd vertices (10395 pairings).
    """
    _check_pairing_input(g)
    odd = sorted(odd_degree_vertices(g))
    if not odd:
        raise NoOddVertices("graph has no odd-degree vertices to pair")
    if len(odd) > ORACLE_MAX_ODD:
        raise TooManyOddVertices(f"{len(odd)} odd vertices > cap {ORACLE_MAX_ODD}")
    sp = g.paths

    best_pairs: list[tuple[int, int]] | None = None
    best_weight = float("inf")

    def recurse(remaining: list[int], acc: list[tuple[int, int]], weight: float) -> None:
        nonlocal best_pairs, best_weight
        if not remaining:
            # enumeration emits pairings in lexicographic order, so a strict
            # improvement test keeps the lexicographically smallest tie
            if weight < best_weight:
                best_weight = weight
                best_pairs = list(acc)
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            partner = remaining[k]
            acc.append((first, partner))
            rest = remaining[1:k] + remaining[k + 1 :]
            recurse(rest, acc, weight + sp.distance(first, partner))
            acc.pop()

    recurse(odd, [], 0.0)
    assert best_pairs is not None
    return Pairing(frozenset(best_pairs)), best_weight


def euler_route(g: Graph) -> RouteSolution:
    """Direct Euler circuit for graphs with no odd vertices (the empty pairing)."""
    return augment_and_route(g, Pairing(frozenset()))
