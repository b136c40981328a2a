"""Exact ground truth for small instances.

exact_walk_oracle runs a depth-first branch-and-bound over all walks within
the step budget; euler_shortcut returns the direct Euler-circuit answer for
specs where it is provably optimal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    NoEulerianCircuit,
    NoValidSolution,
    SearchBudgetExceeded,
    UnsupportedCombination,
)
from .graphs import EdgeRef, _euler_edge_sequence
from .problem import ProblemSpec
from .qubo import MODE_SERVICE
from .routes import RouteSolution, RouteWalk, ValidityReport, WalkStep

DEFAULT_NODE_LIMIT = 2_000_000


@dataclass(frozen=True)
class _Move:
    tail: int
    head: int
    kind: str
    ref: EdgeRef | None
    mode: str
    cost: float


def _moves_for(spec: ProblemSpec) -> dict[int, list[_Move]]:
    by_tail: dict[int, list[_Move]] = {v: [] for v in spec.graph.vertices}
    for arc in spec.graph.arcs():
        key = (arc.tail, arc.head, arc.ref.kind)
        for mode in spec.modes:
            by_tail[arc.tail].append(
                _Move(arc.tail, arc.head, arc.ref.kind, arc.ref, mode, spec.weight(0, key, mode))
            )
    for moves in by_tail.values():
        moves.sort(key=lambda m: (m.head, m.kind, m.mode))
    return by_tail


def _hop_distance_to(spec: ProblemSpec, target: int) -> dict[int, int]:
    """Unweighted reverse BFS: minimum number of arcs to reach `target`."""
    into: dict[int, list[int]] = {v: [] for v in spec.graph.vertices}
    for arc in spec.graph.arcs():
        into[arc.head].append(arc.tail)
    dist = {target: 0}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        for u in into[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def exact_walk_oracle(
    spec: ProblemSpec, node_limit: int = DEFAULT_NODE_LIMIT
) -> RouteSolution:
    """Minimum-weight walk (plus turn bonuses) covering the required edges.

    Single postman only; exhaustive over walks of length <= i_max honoring
    the endpoints.  Raises SearchBudgetExceeded past `node_limit` expansions
    and NoValidSolution when no covering walk fits the step budget.
    """
    if spec.postmen.count != 1:
        raise UnsupportedCombination("the walk oracle handles a single postman")
    required = list(spec.resolved_required())
    req_index = {ref: i for i, ref in enumerate(required)}
    full_mask = (1 << len(required)) - 1
    moves = _moves_for(spec)
    i_max = spec.effective_i_max
    capacity = (
        float(spec.postmen.capacities[0])
        if spec.postmen.capacities is not None
        else None
    )
    closure = spec.hierarchy_closure()
    preds: dict[EdgeRef, int] = {}
    for first, second in closure:
        preds[second] = preds.get(second, 0) | (1 << req_index[first])

    # admissible bound: every uncovered edge costs at least its cheapest move
    cheapest = {}
    for ref in required:
        costs = []
        for lst in moves.values():
            for m in lst:
                if m.ref == ref and (spec.service is None or m.mode == MODE_SERVICE):
                    costs.append(m.cost)
        cheapest[ref] = min(costs)
    hop_to_stop = _hop_distance_to(spec, spec.stop) if spec.stop is not None else None

    turn_bonus: dict[tuple[int, int, int], float] = {}
    for t in spec.turn_penalties:
        key = (t.in_tail, t.in_head, t.out_head)
        turn_bonus[key] = turn_bonus.get(key, 0.0) + t.bonus

    best_total = float("inf")
    best_path: list[_Move] | None = None
    nodes = 0
    # dominance memo: (vertex, mask, steps, last arc) -> lowest total seen.
    # Under a capacity only the weight decides which moves stay open, so a
    # state dominates another only at equal weight: the weight joins the key.
    memo: dict[tuple, float] = {}

    roots = [spec.start] if spec.start is not None else sorted(spec.graph.vertices)

    def remaining_bound(mask: int) -> float:
        acc = 0.0
        for ref, i in req_index.items():
            if not mask & (1 << i):
                acc += cheapest[ref]
        return acc

    def uncovered_count(mask: int) -> int:
        return len(required) - bin(mask).count("1")

    def dfs(v: int, mask: int, steps: int, wsum: float, bonus: float,
            last: tuple[int, int] | None, path: list[_Move]) -> None:
        nonlocal best_total, best_path, nodes
        nodes += 1
        if nodes > node_limit:
            raise SearchBudgetExceeded(f"oracle exceeded {node_limit} nodes")
        total = wsum + bonus
        if mask == full_mask and (spec.stop is None or v == spec.stop):
            if total < best_total:
                best_total = total
                best_path = list(path)
        if steps == i_max:
            return
        key = (v, mask, steps, last) if capacity is None else (v, mask, steps, last, wsum)
        prev = memo.get(key)
        if prev is not None and prev <= total:
            return
        memo[key] = total
        if total + remaining_bound(mask) >= best_total:
            return
        if steps + uncovered_count(mask) > i_max:
            return
        if hop_to_stop is not None:
            hops = hop_to_stop.get(v)
            if hops is None or steps + max(hops, uncovered_count(mask)) > i_max:
                return
        for m in moves[v]:
            new_mask = mask
            if m.ref in req_index:
                bit = 1 << req_index[m.ref]
                if spec.service is not None:
                    if m.mode == MODE_SERVICE:
                        if new_mask & bit:
                            continue  # required edges are serviced exactly once
                        if preds.get(m.ref, 0) & ~new_mask:
                            continue  # a must-precede edge is still unserviced
                        new_mask |= bit
                else:
                    new_mask |= bit
            new_wsum = wsum + m.cost
            if capacity is not None and new_wsum > capacity:
                continue
            extra = 0.0
            if last is not None:
                extra = turn_bonus.get((last[0], last[1], m.head), 0.0)
            path.append(m)
            dfs(m.head, new_mask, steps + 1, new_wsum, bonus + extra, (m.tail, m.head), path)
            path.pop()

    for root in roots:
        dfs(root, 0, 0, 0.0, 0.0, None, [])

    if best_path is None and best_total == float("inf"):
        raise NoValidSolution("no covering walk fits within i_max steps")
    steps = tuple(WalkStep(m.tail, m.head, m.mode, m.kind) for m in (best_path or []))
    weight = sum(m.cost for m in (best_path or []))
    return RouteSolution(
        walks=(RouteWalk(steps, weight),),
        objective_weight=weight,
        validity=ValidityReport(),
        turn_extra=best_total - weight,
    )


def euler_shortcut(spec: ProblemSpec) -> RouteSolution | None:
    """Direct Euler-circuit answer when it is provably optimal, else None.

    Applies only to a single postman without turn bonuses or ordering, when
    the required edges are either all directed or all undirected with
    symmetric weights (an arbitrary circuit through windy edges need not be
    the cheapest orientation), form a connected even/balanced subgraph, fit
    the step budget, and are compatible with the given endpoints.
    """
    if spec.postmen.count != 1 or spec.uses_rest_encoding:
        return None
    if spec.turn_penalties or spec.hierarchy:
        return None
    required = spec.resolved_required()
    if not required:
        return None
    kinds = {ref.kind for ref in required}
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    directed = kind == "d"

    # the circuit services every required edge once (plain without service mode)
    mode = spec.modes[0]

    def weight_of(tail: int, head: int, kind: str) -> float:
        return spec.weight(0, (tail, head, kind), mode)

    if not directed and any(
        weight_of(ref.a, ref.b, kind) != weight_of(ref.b, ref.a, kind) for ref in required
    ):
        return None  # windy edge: circuit orientation changes the cost
    try:
        sequence = _euler_edge_sequence([(ref.a, ref.b) for ref in required], directed)
    except NoEulerianCircuit:
        return None
    if len(sequence) > spec.effective_i_max:
        return None

    anchor = None
    if spec.start is not None and spec.stop is not None and spec.start != spec.stop:
        return None  # a circuit cannot honor distinct endpoints
    if spec.start is not None:
        anchor = spec.start
    elif spec.stop is not None:
        anchor = spec.stop
    steps = [(a, b) for a, b, _ in sequence]
    if anchor is not None:
        tails = [a for a, _ in steps]
        if anchor not in tails:
            return None
        k = tails.index(anchor)
        steps = steps[k:] + steps[:k]

    weight = sum(weight_of(a, b, kind) for a, b in steps)
    walk = RouteWalk(tuple(WalkStep(a, b, mode, kind) for a, b in steps), weight)
    return RouteSolution(walks=(walk,), objective_weight=weight)
