"""Closed undirected postman pipeline built on odd-vertex pairing.

Workflow: find odd-degree vertices, build the pairing QUBO over shortest-path
distances, sample it, decode the bits into a perfect pairing, duplicate one
edge per pair, take the Euler circuit of the augmented multigraph, and expand
each duplicate back into its shortest path.  `exact_pairing_oracle` is the
exact reference: a subset DP memoized on a bitmask of the remaining odd
vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AsymmetricUndirectedWeights,
    DirectedEdgesPresent,
    LengthMismatch,
    NoOddVertices,
    NotPerfectPairing,
    NotStronglyConnected,
    TooManyOddVertices,
)
from .graphs import Graph, _euler_edge_sequence, is_strongly_connected, odd_degree_vertices
from .qubo import CompiledProblem, PairVar, PenaltyConfig, Qubo, VariableRegistry
from .problem import ProblemSpec
from .routes import RouteSolution, ValidityReport, WalkStep

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
    """Pairing QUBO: path-distance objective plus the "pairing" constraint."""

    graph: Graph
    registry: VariableRegistry
    objective: Qubo
    constraints: dict[str, Qubo]
    penalties: PenaltyConfig

    def decode(self, x: Sequence[int]) -> RouteSolution:
        try:
            pairing = decode_pairing(x, self.registry)
        except NotPerfectPairing:
            return RouteSolution(
                walks=(),
                objective_weight=float("inf"),
                validity=ValidityReport(required_covered=False),
            )
        return _augment_and_route(self.graph, pairing)  # the graph was checked at compile


def _checked_odd_vertices(g: Graph) -> list[int]:
    """Check the graph for the pairing pipeline; its odd-degree vertices, sorted."""
    _check_pairing_input(g)
    odd = sorted(odd_degree_vertices(g))
    if not odd:
        raise NoOddVertices("graph has no odd-degree vertices to pair")
    return odd


def _penalty(g: Graph, odd: list[int]) -> PenaltyConfig:
    pairs = itertools.combinations(odd, 2)
    return PenaltyConfig.for_max_weight(max(g.paths.distance(a, b) for a, b in pairs))


def default_pairing_penalty(g: Graph) -> float:
    """The `PenaltyConfig.for_max_weight` multiplier at the largest odd-pair distance."""
    return _penalty(g, _checked_odd_vertices(g)).p_pairing


def compile_pairing(g: Graph, p: float | None = None) -> CompiledPairing:
    """Pairing QUBO: sum W_ij x_ij plus p * sum_i (1 - sum_j x_ij)^2.

    Its `penalties` are `PenaltyConfig.uniform(p)`, or the defaults at
    `default_pairing_penalty(g)` when `p` is None; the graph is checked once.
    """
    odd = _checked_odd_vertices(g)
    if p is not None and p <= 0:
        raise ValueError("pairing penalty must be positive")
    penalties = _penalty(g, odd) if p is None else PenaltyConfig.uniform(p)
    sp = g.paths
    registry = VariableRegistry(
        PairVar(a, b) for a, b in itertools.combinations(odd, 2)
    )
    objective = Qubo(len(registry))
    idx = range(len(registry))
    objective.add_quadratic_terms(idx, idx, [sp.distance(lab.i, lab.j) for lab in registry])
    # one coverage square per odd vertex, over the pairs that hold it; with
    # exactly two odd vertices both are the same polynomial, counted once
    group = {v: g for g, v in enumerate(odd[:1] if len(odd) == 2 else odd)}
    terms = [(group[v], k) for k, lab in enumerate(registry) for v in (lab.i, lab.j)
             if v in group]
    constraint = Qubo(len(registry))
    constraint.add_square_penalty([k for _, k in terms], -1.0, [1.0] * len(group),
                                  [g for g, _ in terms])
    return CompiledPairing(g, registry, objective, {"pairing": constraint}, penalties)


def decode_pairing(x: Sequence[int], reg: VariableRegistry) -> Pairing:
    """Read the set pair variables back as a perfect pairing.

    Raises NotPerfectPairing when the set pairs share a vertex or miss one
    of the registry's vertices, which is the signal for the penalty-retune
    retry, and LengthMismatch when x does not have one bit per variable.
    """
    if len(x) != len(reg):
        raise LengthMismatch(f"assignment length {len(x)} != {len(reg)} variables")
    pairing = Pairing(frozenset((lab.i, lab.j) for lab, bit in zip(reg, x) if bit))
    _check_covers(pairing, frozenset(v for lab in reg for v in (lab.i, lab.j)))
    return pairing


def _check_covers(pairing: Pairing, odd: frozenset[int]) -> None:
    """Raise NotPerfectPairing unless the pairs hold exactly the vertices `odd`."""
    if pairing.vertices() != odd:
        raise NotPerfectPairing(
            f"pairing covers {sorted(pairing.vertices())}, odd vertices are {sorted(odd)}"
        )


def augment_and_route(g: Graph, pairing: Pairing) -> RouteSolution:
    """Duplicate one edge per pair, take the Euler circuit, expand duplicates.

    The weight, summed in walk order as `validate` sums it, is the edge weights
    plus the pairing's added shortest-path weight up to summation order.
    """
    _check_pairing_input(g)
    return _augment_and_route(g, pairing)


def _augment_and_route(g: Graph, pairing: Pairing) -> RouteSolution:
    """`augment_and_route` on a graph already checked for the pairing pipeline."""
    _check_covers(pairing, odd_degree_vertices(g))
    # g.paths is read only for pairs, so an empty pairing computes no shortest paths
    edges = [(e.a, e.b) for e in g.undirected] + pairing.sorted_pairs()
    steps: list[tuple[int, int]] = []
    for tail, head, idx in _euler_edge_sequence(edges):
        if idx >= len(g.undirected):  # a pair: expand into its shortest path
            steps.extend(g.paths.path_steps(tail, head))
        else:
            steps.append((tail, head))
    return ProblemSpec(graph=g).route([[WalkStep(a, b, kind="u") for a, b in steps]])


def exact_pairing_oracle(g: Graph) -> tuple[Pairing, float]:
    """Minimum-added-weight perfect pairing, solving each remaining set once.

    The remaining odd vertices are a bitmask over their sorted list.  The
    lowest remaining vertex is paired with each later one in turn, reading its
    one row of the odd-pair distance table, and the rest is solved recursively
    (memoized on the mask), so a strict improvement keeps the lexicographically
    smallest of tied pairings.  Returns the pairing and its weight summed in
    pair order.  Capped at 12 odd vertices.
    """
    odd = _checked_odd_vertices(g)
    if len(odd) > ORACLE_MAX_ODD:
        raise TooManyOddVertices(f"{len(odd)} odd vertices > cap {ORACLE_MAX_ODD}")
    sp = g.paths
    table = [[sp.distance(a, b) for b in odd] for a in odd]
    weight_of = {0: 0.0}  # remaining mask -> its least added weight
    partner_of: dict[int, int] = {}  # remaining mask -> its lowest vertex's partner

    def best(mask: int) -> float:
        weight = weight_of.get(mask)
        if weight is not None:
            return weight
        low = mask & -mask
        row = table[low.bit_length() - 1]
        rest = mask ^ low
        choice, partner = float("inf"), -1
        later = rest
        while later:
            bit = later & -later
            later ^= bit
            weight = best(rest ^ bit) + row[bit.bit_length() - 1]
            if weight < choice:
                choice, partner = weight, bit.bit_length() - 1
        weight_of[mask], partner_of[mask] = choice, partner
        return choice

    mask = (1 << len(odd)) - 1
    best(mask)
    pairs = []
    while mask:
        first, second = (mask & -mask).bit_length() - 1, partner_of[mask]
        pairs.append((odd[first], odd[second]))
        mask ^= (1 << first) | (1 << second)
    return Pairing(frozenset(pairs)), sum((sp.distance(a, b) for a, b in pairs), 0.0)


def euler_route(g: Graph) -> RouteSolution:
    """Direct Euler circuit for graphs with no odd vertices (the empty pairing)."""
    return augment_and_route(g, Pairing(frozenset()))
