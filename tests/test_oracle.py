import itertools

import numpy as np
import pytest

from postqubo import (
    EdgeRef,
    Graph,
    NoValidSolution,
    Postmen,
    ProblemSpec,
    SearchBudgetExceeded,
    ServiceMode,
    TurnPenalty,
    UnsupportedCombination,
    euler_shortcut,
    exact_walk_oracle,
)
from postqubo.general import compile_general
from conftest import figure_example_graph, random_mixed_graph


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
    arcs = list(g.arcs())
    best = float("inf")
    for length in range(1, 5):
        for seq in itertools.product(arcs, repeat=length):
            if seq[0].tail != 0 or any(a.head != b.tail for a, b in zip(seq, seq[1:])):
                continue
            weight = sum(a.weight for a in seq)
            if weight > 5 or EdgeRef("u", 5, 6) not in {a.ref for a in seq}:
                continue
            bonus = sum(10.0 for a, b in zip(seq, seq[1:]) if (a.tail, a.head, b.head) == (0, 4, 1))
            best = min(best, weight + bonus)
    assert best == 15.0


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
