"""Exact ground truth for small instances.

exact_walk_oracle runs a best-first search over all walks within the step
budget, expanding each state from plain per-vertex move tuples; euler_shortcut
returns the direct Euler-circuit answer for specs where it is provably optimal.
"""

from __future__ import annotations

import heapq

from .errors import (
    NoEulerianCircuit,
    NoValidSolution,
    SearchBudgetExceeded,
    UnsupportedCombination,
)
from .graphs import EdgeRef, _euler_edge_sequence, reach
from .problem import ProblemSpec
from .qubo import MODE_SERVICE
from .routes import RouteSolution, WalkStep

DEFAULT_NODE_LIMIT = 2_000_000


def _moves_for(
    spec: ProblemSpec, req_index: dict[EdgeRef, int], preds: dict[EdgeRef, int],
    hops: dict[int, int],
) -> tuple[dict[int, list[tuple]], dict[int, float]]:
    """Each vertex's moves, sorted by (head, kind, mode), and the cheapest
    covering move of each required-edge bit.

    A move is (digit, head, cost, bit, need, arc, hop, cover, step): `digit`
    is its place in its vertex's list + 1, `bit` the required edge it covers
    (in service mode, service moves only), `need` the required edges that
    must be serviced before it, `hop` the arcs from its head to the stop,
    `cover` the cheapest covering move of its bit and `step` its WalkStep.
    """
    by_tail: dict[int, list[tuple]] = {v: [] for v in spec.graph.vertices}
    cheapest: dict[int, float] = {}
    for arc in spec.graph.arcs():
        key = (arc.tail, arc.head, arc.ref.kind)
        i = req_index.get(arc.ref)
        for mode in spec.modes:
            covers = i is not None and (spec.service is None or mode == MODE_SERVICE)
            cost, bit = spec.weight(0, key, mode), 1 << i if covers else 0
            if bit:
                cheapest[bit] = min(cheapest.get(bit, cost), cost)
            # (head, kind, mode) is unique per tail, so the rows sort by it alone
            by_tail[arc.tail].append((
                (arc.head, arc.ref.kind, mode), cost, bit,
                preds.get(arc.ref, 0) if covers else 0,
            ))
    moves = {}
    for v, rows in by_tail.items():
        rows.sort()
        moves[v] = [
            (j + 1, head, cost, bit, need, (v, head), hops.get(head, spec.effective_i_max),
             cheapest[bit] if bit else 0.0, WalkStep(v, head, mode, kind))
            for j, ((head, kind, mode), cost, bit, need) in enumerate(rows)
        ]
    return moves, cheapest


def exact_walk_oracle(
    spec: ProblemSpec, node_limit: int = DEFAULT_NODE_LIMIT
) -> RouteSolution:
    """Minimum-weight walk (plus turn bonuses) covering the required edges.

    Single postman only; exact over walks of length <= i_max honoring the
    endpoints.  A best-first search (A*) over the states (vertex, covered
    mask, steps, last arc), plus the walk weight under a capacity: a capacity
    bounds the weight alone, so a lighter walk that pays a larger turn bonus
    stays open.  States pop by total so far plus the cheapest covering move of
    each uncovered required edge; weights and turn bonuses are non-negative,
    so that bound is consistent and the first covering walk popped is optimal.
    Ties pop in depth-first order: roots ascending, moves by (head, kind,
    mode), a walk before its extensions.  Raises SearchBudgetExceeded past
    `node_limit` expanded states and NoValidSolution when no covering walk
    fits the step budget.  The validity comes from `ProblemSpec.check_walks`.
    """
    if spec.postmen.count != 1:
        raise UnsupportedCombination("the walk oracle handles a single postman")
    required = spec.resolved_required()
    req_index = {ref: i for i, ref in enumerate(required)}
    full_mask = (1 << len(required)) - 1
    i_max = spec.effective_i_max
    caps = spec.postmen.capacities
    capacity = None if caps is None else float(caps[0])
    preds: dict[EdgeRef, int] = {}
    for first, second in spec.hierarchy_closure():
        preds[second] = preds.get(second, 0) | (1 << req_index[first])
    # the fewest arcs from each vertex to the stop: a search from it, arcs reversed
    hops = (dict.fromkeys(spec.graph.vertices, 0) if spec.stop is None
            else reach([(a.head, a.tail) for a in spec.graph.arcs()], [spec.stop]))
    moves, cheapest = _moves_for(spec, req_index, preds, hops)
    # last arc -> next head -> the summed bonus of that turn
    turn_bonus: dict[tuple[int, int], dict[int, float]] = {}
    for t in spec.turn_penalties:
        heads = turn_bonus.setdefault(t.arc_in, {})
        heads[t.out_head] = heads.get(t.out_head, 0.0) + t.bonus

    # a walk's rank holds its choices as digits, root first: rank order is
    # depth-first order, and the walk is read back off its rank
    roots = [spec.start] if spec.start is not None else sorted(spec.graph.vertices)
    base = 1 + max(len(roots), *map(len, moves.values()))
    place = [base ** (i_max - k) for k in range(i_max + 1)]
    bound = sum(cheapest.values())
    # entries: (total + bound, rank, state, weight, bonus, bound); a state is
    # (vertex, mask, steps, last arc, weight under a capacity or None), and
    # best[state] is the entry that last improved it.  A rank names one walk,
    # so two entries of one state compare on (total, rank) alone.
    heap = []
    best: dict[tuple, tuple] = {}
    for r, root in enumerate(roots):
        state = (root, 0, 0, None, None if capacity is None else 0.0)
        best[state] = (bound, (r + 1) * place[0], state, 0.0, 0.0, bound)
        heap.append(best[state])
    expanded = 0
    while heap:
        entry = heapq.heappop(heap)
        _, rank, state, wsum, bonus, bound = entry
        if best[state] is not entry:
            continue  # a better walk reached this state first
        v, mask, steps, last, _ = state
        if mask == full_mask and spec.stop in (None, v):
            break
        expanded += 1
        if expanded > node_limit:
            raise SearchBudgetExceeded(f"oracle exceeded {node_limit} expanded states")
        if steps == i_max:
            continue  # no move fits the step budget
        step = steps + 1
        step_place = place[step]
        turns = turn_bonus.get(last)
        uncovered = len(required) - mask.bit_count()
        for digit, head, cost, bit, need, arc, hop, cover, _ in moves[v]:
            if mask & bit:
                if spec.service is not None:
                    continue  # required edges are serviced exactly once
                bit = 0
            elif need & ~mask:
                continue  # a must-precede edge is still unserviced
            new_wsum = wsum + cost
            if capacity is not None and new_wsum > capacity:
                continue
            # the uncovered edges and the way to the stop must fit the budget
            left = uncovered - 1 if bit else uncovered
            if step + (left if left > hop else hop) > i_max:
                continue
            new_bonus = bonus + turns[head] if turns and head in turns else bonus
            new_bound = bound - cover if bit else bound
            child = (head, mask | bit, step, arc, None if capacity is None else new_wsum)
            item = (new_wsum + new_bonus + new_bound, rank + digit * step_place, child,
                    new_wsum, new_bonus, new_bound)
            seen = best.get(child)
            if seen is None or item < seen:
                best[child] = item
                heapq.heappush(heap, item)
    else:
        raise NoValidSolution("no covering walk fits within i_max steps")

    path, v = [], roots[rank // place[0] - 1]
    for k in range(1, steps + 1):
        walk_step = moves[v][rank // place[k] % base - 1][-1]
        path.append(walk_step)
        v = walk_step.to
    return spec.route([path])


def euler_shortcut(spec: ProblemSpec) -> RouteSolution | None:
    """Direct Euler-circuit answer when it is provably optimal, else None.

    Applies only to a single postman without turn bonuses or ordering, when
    the required edges are either all directed or all undirected with
    symmetric weights (an arbitrary circuit through windy edges need not be
    the cheapest orientation), form a connected even/balanced subgraph, fit
    the step budget, and are compatible with the given endpoints.
    """
    if spec.uses_rest_encoding or spec.turn_penalties or spec.hierarchy:
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
    if not directed and any(spec.weight(0, (r.a, r.b, kind), mode)
                            != spec.weight(0, (r.b, r.a, kind), mode) for r in required):
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

    return spec.route([[WalkStep(a, b, mode, kind) for a, b in steps]])
