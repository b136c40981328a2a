import hashlib

import numpy as np
import pytest

from postqubo import (
    EdgeRef,
    Graph,
    InfeasibleEndpoints,
    NoValidSolution,
    Postmen,
    ProblemSpec,
    SearchBudgetExceeded,
    ServiceMode,
    TurnPenalty,
    UnsupportedCombination,
    WalkStep,
    euler_shortcut,
    exact_walk_oracle,
)
from postqubo.general import ENC_REPETITION, ENC_TERMINAL, compile_general
from conftest import encode_route, figure_example_graph, random_mixed_graph


def test_closed_tour_on_example_graph_matches_pairing_optimum():
    # the closed route over every edge weighs 23 (edge sum) + 9 (repeat) = 32
    spec = ProblemSpec(graph=figure_example_graph(), start=2, stop=2, i_max=9)
    solution = exact_walk_oracle(spec)
    assert solution.objective_weight == 32.0
    walk = solution.single_walk()
    assert walk.steps[0].frm == 2 and walk.steps[-1].to == 2


def test_directed_cycle_is_its_own_answer():
    g = Graph.build(range(4), directed=[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)])
    solution = exact_walk_oracle(ProblemSpec(graph=g, i_max=4))
    assert solution.objective_weight == 10.0
    assert len(solution.single_walk().steps) == 4


def test_oracle_beats_random_valid_walks(rng):
    checked = 0
    while checked < 12:
        g = random_mixed_graph(
            rng, int(rng.integers(3, 5)), int(rng.integers(2, 5)),
            windy=bool(rng.integers(0, 2)), directed_frac=0.4,
        )
        if g is None:
            continue
        i_max = int(rng.integers(4, 8))
        spec = ProblemSpec(graph=g, i_max=i_max)
        try:
            best = exact_walk_oracle(spec)
        except NoValidSolution:
            continue
        checked += 1
        required = set(spec.resolved_required())
        arcs = list(g.arcs())
        out_arcs = {}
        for a in arcs:
            out_arcs.setdefault(a.tail, []).append(a)
        # random-walk sampling bound: no sampled covering walk beats the oracle
        for _ in range(300):
            v = int(rng.choice(sorted(g.vertices)))
            weight, covered = 0.0, set()
            for _ in range(i_max):
                a = out_arcs[v][int(rng.integers(0, len(out_arcs[v])))]
                weight += a.weight
                covered.add(a.ref)
                v = a.head
                if covered >= required:
                    break
            if covered >= required:
                assert best.objective_weight <= weight + 1e-9


def test_oracle_handles_turn_bonuses():
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    # open variant: the oracle rotates the tour to dodge the taxed turn
    free = exact_walk_oracle(
        ProblemSpec(graph=g, i_max=3, turn_penalties=(TurnPenalty(0, 1, 2, 4.0),))
    )
    assert free.objective_weight == 3.0 and free.turn_extra == 0.0
    # closing the walk at 0 makes the taxed turn unavoidable
    taxed = exact_walk_oracle(
        ProblemSpec(
            graph=g, start=0, stop=0, i_max=3,
            turn_penalties=(TurnPenalty(0, 1, 2, 4.0),),
        )
    )
    assert taxed.objective_weight == 3.0
    assert taxed.turn_extra == 4.0


def test_oracle_respects_capacity():
    g = Graph.build(range(3), undirected=[(0, 1, 2), (1, 2, 3)])
    spec = ProblemSpec(graph=g, postmen=Postmen(count=1, capacities=(5,)), i_max=3)
    solution = exact_walk_oracle(spec)
    assert solution.objective_weight == 5.0
    tight = ProblemSpec(graph=g, postmen=Postmen(count=1, capacities=(4,)), i_max=3)
    with pytest.raises(NoValidSolution):
        exact_walk_oracle(tight)


def test_oracle_capacity_keeps_lighter_walk_with_larger_turn_bonus():
    # 0-4-1 weighs 2 with a turn bonus of 10, 0-2-1 weighs 3 with none; only
    # the lighter prefix fits the capacity of 5 on the way to edge 5-6
    g = Graph.build(range(7), undirected=[(0, 2, 2), (2, 1, 1), (0, 4, 1), (4, 1, 1),
                                          (1, 5, 1), (5, 6, 2)])
    spec = ProblemSpec(
        graph=g, start=0, required_edges=frozenset([EdgeRef("u", 5, 6)]),
        turn_penalties=(TurnPenalty(0, 4, 1, 10.0),),
        postmen=Postmen(count=1, capacities=(5,)), i_max=4,
    )
    solution = exact_walk_oracle(spec)
    assert (solution.objective_weight, solution.turn_extra) == (5.0, 10.0)
    walk = solution.single_walk()
    assert [(s.frm, s.to) for s in walk.steps] == [(0, 4), (4, 1), (1, 5), (5, 6)]
    # every walk of at most i_max arcs from the start: the same optimum
    assert _exhaustive_optimum(spec) == 15.0


def test_oracle_respects_hierarchy():
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    first, second = EdgeRef("d", 1, 2), EdgeRef("d", 0, 1)
    spec = ProblemSpec(
        graph=g, service=ServiceMode(), hierarchy=((first, second),), i_max=4
    )
    solution = exact_walk_oracle(spec)
    services = [
        (s.frm, s.to) for s in solution.single_walk().steps if s.mode == "service"
    ]
    assert services.index((1, 2)) < services.index((0, 1))


def test_oracle_rejects_multiple_postmen():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(UnsupportedCombination):
        exact_walk_oracle(ProblemSpec(graph=g, start=0, postmen=Postmen(count=2)))


def test_oracle_node_budget():
    spec = ProblemSpec(graph=figure_example_graph(), i_max=14)
    with pytest.raises(SearchBudgetExceeded):
        exact_walk_oracle(spec, node_limit=5)


def test_oracle_node_limit_boundary_is_pinned():
    # the smallest node limit that succeeds is the search's expansion count;
    # one spec of each variant, so a changed expansion order shows here
    specs = list(_oracle_specs(4, 12, (5, 6), (1, 3)))
    for k, limit in ((0, 186), (3, 125), (4, 608), (7, 43), (8, 256), (11, 131)):
        exact_walk_oracle(specs[k], node_limit=limit)
        with pytest.raises(SearchBudgetExceeded):
            exact_walk_oracle(specs[k], node_limit=limit - 1)


def test_oracle_on_edgeless_graph_expands_states_at_the_step_budget():
    # i_max is 0, so every expanded root already sits at the step budget
    g = Graph.build([0, 1], undirected=[])
    solution = exact_walk_oracle(ProblemSpec(graph=g, stop=1))
    assert solution.single_walk().steps == () and solution.objective_weight == 0.0
    with pytest.raises(NoValidSolution):
        exact_walk_oracle(ProblemSpec(graph=g, start=0, stop=1))


def test_oracle_no_walk_within_budget():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(NoValidSolution):
        exact_walk_oracle(ProblemSpec(graph=g, start=0, stop=0, i_max=2))


# --- euler shortcut --------------------------------------------------------------

def test_shortcut_on_even_graph():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    solution = euler_shortcut(ProblemSpec(graph=g, i_max=3))
    assert solution is not None
    assert solution.objective_weight == 3.0


def test_shortcut_skips_windy_and_turns_and_odd():
    windy = Graph.build(range(3), undirected=[(0, 1, 1, 9), (1, 2, 1), (0, 2, 1)])
    assert euler_shortcut(ProblemSpec(graph=windy, i_max=6)) is None
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    spec = ProblemSpec(graph=g, i_max=3, turn_penalties=(TurnPenalty(0, 1, 2, 1.0),))
    assert euler_shortcut(spec) is None
    odd = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    assert euler_shortcut(ProblemSpec(graph=odd, i_max=4)) is None


@pytest.mark.parametrize("postmen, collisions", [
    (Postmen(2), False), (Postmen(1, (9,)), False), (Postmen(1), True),
], ids=["team", "capacity", "collision"])
def test_shortcut_skips_rest_encoded_specs_on_an_euler_circuit(postmen, collisions):
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert euler_shortcut(ProblemSpec(graph=g, i_max=3)) is not None
    spec = ProblemSpec(graph=g, i_max=3, postmen=postmen, forbid_edge_collisions=collisions)
    assert spec.uses_rest_encoding
    assert euler_shortcut(spec) is None


def test_shortcut_on_directed_balanced_graph():
    g = Graph.build(range(3), directed=[(0, 1, 2), (1, 2, 2), (2, 0, 2)])
    solution = euler_shortcut(ProblemSpec(graph=g, i_max=3))
    assert solution is not None
    assert solution.objective_weight == 6.0


def test_shortcut_rotates_to_start_and_rejects_distinct_endpoints():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    spec = ProblemSpec(graph=g, start=2, stop=2, i_max=3)
    solution = euler_shortcut(spec)
    assert solution is not None
    assert solution.single_walk().steps[0].frm == 2
    assert euler_shortcut(ProblemSpec(graph=g, start=0, stop=1, i_max=3)) is None


def test_shortcut_respects_step_budget():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert euler_shortcut(ProblemSpec(graph=g, i_max=2)) is None


def test_shortcut_only_covers_required_subset():
    g = Graph.build(range(4), undirected=[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 5)])
    req = frozenset([EdgeRef("u", 0, 1), EdgeRef("u", 1, 2), EdgeRef("u", 0, 2)])
    spec = ProblemSpec(graph=g, required_edges=req, i_max=5)
    solution = euler_shortcut(spec)
    assert solution is not None
    assert solution.objective_weight == 3.0
    # matches the exact oracle on the same instance
    assert exact_walk_oracle(spec).objective_weight == 3.0


# --- pinned shortcut routes ---------------------------------------------------------

def _shortcut_specs():
    """Seeded specs whose required edges are unions of arc-disjoint cycles.

    Undirected and directed, sometimes with extra unrequired edges, a windy
    edge, two components, a tight step budget or start/stop endpoints.
    """
    rng = np.random.default_rng(43)
    for case in range(80):
        directed = case % 2 == 1
        n = int(rng.integers(3, 8))
        required: dict[tuple[int, int], tuple[int, ...]] = {}
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2 if directed else 3, n + 1))
            cycle = [int(v) for v in rng.choice(n, size=size, replace=False)]
            arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
            keys = [a if directed else (min(a), max(a)) for a in arcs]
            if any(k in required for k in keys):
                continue
            for k in keys:
                w = int(rng.integers(1, 9))
                windy = not directed and rng.random() < 0.05
                required[k] = (w, int(rng.integers(1, 9))) if windy else (w,)
        extra = {}
        if rng.random() < 0.3:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            key = (a, b) if directed else (min(a, b), max(a, b))
            if key not in required and (b, a) not in required:
                extra[key] = (int(rng.integers(1, 9)),)
        edges = [k + w for k, w in {**required, **extra}.items()]
        g = Graph.build(range(n), directed=edges) if directed else Graph.build(range(n), undirected=edges)
        kind = "d" if directed else "u"
        refs = frozenset(EdgeRef(kind, a, b) for a, b in required)
        start = stop = None
        r = rng.random()
        if r < 0.25:
            start = stop = int(rng.integers(0, n))
        elif r < 0.4:
            start = int(rng.integers(0, n))
        elif r < 0.55:
            stop = int(rng.integers(0, n))
        elif r < 0.6:
            start, stop = 0, 1
        i_max = len(required) - 1 if rng.random() < 0.1 else None
        yield ProblemSpec(
            graph=g, start=start, stop=stop, required_edges=refs if extra else None, i_max=i_max
        )


def test_shortcut_routes_are_pinned():
    lines = [repr(euler_shortcut(spec)) for spec in _shortcut_specs()]
    assert sum(line != "None" for line in lines) >= 30
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "3551ce1669695a68"


# --- pinned oracle answers ----------------------------------------------------------

def _variant_spec(rng, variant: int, n: int, n_edges: int, i_max_slack: tuple[int, int]):
    """One seeded spec of the given variant, or None if the graph draw fails.

    Variants: 0 endpoints, 1 rural, 2 windy with turns, 3 capacity, 4 service
    with hierarchy (and sometimes service/traverse overrides), 5 rural with
    turns, a capacity and a start.
    """
    g = random_mixed_graph(rng, n, n_edges, windy=variant in (2, 5) or bool(rng.integers(0, 2)),
                           directed_frac=0.3)
    if g is None:
        return None
    refs = sorted(g.edge_refs())
    arcs = list(g.arcs())
    kwargs: dict = {}
    if variant in (0, 1, 2, 4):
        r = rng.random()
        if r < 0.3:
            kwargs["start"] = kwargs["stop"] = int(rng.integers(0, n))
        elif r < 0.45:
            kwargs["start"] = int(rng.integers(0, n))
        elif r < 0.6:
            kwargs["stop"] = int(rng.integers(0, n))
        elif r < 0.75:
            kwargs["start"], kwargs["stop"] = (int(v) for v in rng.choice(n, 2, replace=False))
    if variant in (1, 5):
        keep = rng.random(len(refs)) < 0.6
        keep[int(rng.integers(0, len(refs)))] = True
        kwargs["required_edges"] = frozenset(ref for ref, k in zip(refs, keep) if k)
    if variant in (2, 5):
        turns = [(a, b) for a in arcs for b in arcs if a.head == b.tail]
        picks = rng.choice(len(turns), size=min(len(turns), int(rng.integers(1, 4))), replace=False)
        kwargs["turn_penalties"] = tuple(
            TurnPenalty(turns[i][0].tail, turns[i][0].head, turns[i][1].head,
                        float(rng.integers(1, 5)))
            for i in sorted(picks)
        )
    if variant in (3, 5):
        total = int(sum(a.weight for a in arcs)) // 2
        kwargs["postmen"] = Postmen(count=1, capacities=(int(rng.integers(total // 2, 2 * total)),))
        if variant == 3 and rng.random() < 0.5:
            kwargs["start"] = int(rng.integers(0, n))
        if variant == 5:
            kwargs["start"] = int(rng.integers(0, n))
    if variant == 4:
        overrides = ()
        if rng.random() < 0.5:
            a = arcs[int(rng.integers(0, len(arcs)))]
            overrides = ((a.tail, a.head, a.ref.kind, float(rng.integers(1, 12))),)
        kwargs["service"] = ServiceMode(service_overrides=overrides)
        if len(refs) >= 2:
            i, j = (int(k) for k in rng.choice(len(refs), 2, replace=False))
            kwargs["hierarchy"] = ((refs[i], refs[j]),)
    lo, hi = i_max_slack
    kwargs["i_max"] = max(1, g.edge_count + int(rng.integers(lo, hi + 1)))
    return ProblemSpec(graph=g, **kwargs)


def _oracle_specs(seed: int, count: int, sizes, i_max_slack):
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n = int(rng.choice(sizes))
        spec = _variant_spec(rng, made % 6, n, int(rng.integers(n - 1, n + 2)), i_max_slack)
        if spec is not None:
            made += 1
            yield spec


def _oracle_line(spec) -> str:
    try:
        solution = exact_walk_oracle(spec)
    except NoValidSolution:
        return "NoValidSolution"
    steps = [(s.frm, s.to, s.mode, s.kind) for s in solution.single_walk().steps]
    return f"{solution.objective_weight!r} {solution.turn_extra!r} {steps}"


def test_oracle_answers_are_pinned():
    lines = [_oracle_line(spec) for spec in _oracle_specs(2111, 300, (3, 4, 5), (-1, 3))]
    assert 20 <= lines.count("NoValidSolution") <= 150
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "166b1c85fe0735bd"


def _contiguous_walks(spec):
    """Every contiguous walk of 1..i_max (arc, mode) steps honouring the start."""
    out: dict[int, list[WalkStep]] = {v: [] for v in spec.graph.vertices}
    for arc in spec.graph.arcs():
        for mode in spec.modes:
            out[arc.tail].append(WalkStep(arc.tail, arc.head, mode, arc.ref.kind))
    roots = [spec.start] if spec.start is not None else sorted(spec.graph.vertices)
    stack = [[s] for v in roots for s in out[v]]
    while stack:
        walk = stack.pop()
        yield walk
        if len(walk) < spec.effective_i_max:
            stack.extend(walk + [s] for s in out[walk[-1].to])


def _exhaustive_optimum(spec) -> float:
    """Least weight plus turn bonus over the walks `check_walks` accepts, or inf."""
    best = float("inf")
    for walk in _contiguous_walks(spec):
        problems, weights, turn_extra = spec.check_walks([walk])
        if not problems:
            best = min(best, weights[0] + turn_extra)
    return best


def test_oracle_matches_exhaustive_walk_enumeration():
    found = 0
    for spec in _oracle_specs(7, 60, (3, 4), (-1, 1)):
        best = _exhaustive_optimum(spec)
        if best == float("inf"):
            with pytest.raises(NoValidSolution):
                exact_walk_oracle(spec)
            continue
        found += 1
        solution = exact_walk_oracle(spec)
        assert solution.objective_weight + solution.turn_extra == best
        problems, _, _ = spec.check_walks([solution.single_walk().steps])
        assert problems == []
    assert found >= 30


def test_every_valid_walk_encodes_with_zero_required_energy():
    # service mode has no slack register: each required edge is serviced once
    checked = 0
    for spec in _oracle_specs(7, 60, (3, 4), (-1, 1)):
        if spec.service is not None:
            continue
        compiled = []
        for enc in ["auto"] if spec.uses_rest_encoding else [ENC_REPETITION, ENC_TERMINAL]:
            try:
                compiled.append(compile_general(spec, enc))
            except InfeasibleEndpoints:  # no walk of i_max steps meets the endpoints
                pass
        for walk in _contiguous_walks(spec):
            problems, _, _ = spec.check_walks([walk])
            if problems:
                continue
            steps = [[(s.frm, s.to, s.mode, s.kind) for s in walk]]
            for c in compiled:
                bits = encode_route(c, steps, strict=True)
                assert c.constraint_values(bits)["required"] == 0.0
                assert c.decode(bits).is_valid
                checked += 1
    assert checked >= 300


def test_oracle_ties_break_to_the_lowest_root():
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    walk = exact_walk_oracle(ProblemSpec(graph=g, i_max=3)).single_walk()
    assert [(s.frm, s.to) for s in walk.steps] == [(0, 1), (1, 2), (2, 0)]


def _hub_and_spokes() -> Graph:
    """Arcs 0 -> spoke -> 6 for five spokes, then the return path 6-7-8-9-10-0."""
    spokes = range(1, 6)
    arcs = [(0, s, 1) for s in spokes] + [(s, 6, 1) for s in spokes]
    arcs += [(6, 7, 1), (7, 8, 1), (8, 9, 1), (9, 10, 1), (10, 0, 1)]
    return Graph.build(range(11), directed=arcs)


def test_default_step_budget_can_exclude_every_covering_walk():
    # each spoke needs its own pass round the 5-arc return: 5 x 7 = 35 steps,
    # more than the default budget of 2 |E| = 30
    g = _hub_and_spokes()
    assert g.edge_count == 15
    with pytest.raises(NoValidSolution):
        exact_walk_oracle(ProblemSpec(graph=g, start=0, stop=0))
    solution = exact_walk_oracle(ProblemSpec(graph=g, start=0, stop=0, i_max=35))
    assert solution.objective_weight == 35.0
