import hashlib
import itertools

import numpy as np
import pytest

from postqubo import (
    EdgeRef,
    EdgeStep,
    Graph,
    InfeasibleEndpoints,
    PenaltyConfig,
    Postmen,
    ProblemSpec,
    RequiredSlack,
    ServiceMode,
    SpecError,
    TurnPenalty,
    UnsupportedCombination,
    brute_force,
    compile_general,
    default_penalties,
    enumerate_all_energies,
    exact_walk_oracle,
    simulated_annealing,
)
from postqubo.general import (
    ENC_REPETITION,
    ENC_TERMINAL,
    TERMINAL,
    VALIDITY_FAMILIES,
    CompiledGeneral,
)
from postqubo.qubo import Qubo, format_qubo_text, format_registry_text
from conftest import bits_from_index, figure_example_graph


def small_path_spec(**kwargs) -> ProblemSpec:
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 2)])
    return ProblemSpec(graph=g, **kwargs)


def hard_constraint_sum(compiled) -> Qubo:
    total = Qubo(len(compiled.registry))
    for fam, c in compiled.constraints.items():
        if fam in VALIDITY_FAMILIES:
            total.add_scaled(c, 1.0)
    return total


# --- variable enumeration -----------------------------------------------------

def test_start_pruning_matches_worked_example():
    spec = ProblemSpec(graph=figure_example_graph(), start=3, i_max=4)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    step0 = {(l.frm, l.to) for l in compiled.registry if isinstance(l, EdgeStep) and l.step == 0}
    step1 = {(l.frm, l.to) for l in compiled.registry if isinstance(l, EdgeStep) and l.step == 1}
    assert step0 == {(3, 2)}
    assert step1 == {(3, 2), (2, 1), (2, 3), (2, 4), (2, 5)}


def test_unpruned_variable_count_formula():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)], directed=[(2, 0, 1)])
    i_max = 4
    spec = ProblemSpec(graph=g, i_max=i_max)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    arcs = 2 * len(g.undirected) + len(g.directed)
    slack_bits = ((i_max - 1).bit_length() + 1) * g.edge_count
    assert len(compiled.registry) == arcs * i_max + slack_bits


def test_pruning_matches_independent_reachability_bfs():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(3, 5))
        g = None
        while g is None:
            from conftest import random_mixed_graph

            g = random_mixed_graph(rng, n, int(rng.integers(n - 1, n + 2)), windy=False,
                                   directed_frac=0.4)
        vs = sorted(g.vertices)
        start = int(rng.choice(vs))
        stop = int(rng.choice(vs))
        i_max = int(rng.integers(2, 5))
        try:
            spec = ProblemSpec(graph=g, start=start, stop=stop, i_max=i_max)
            compiled = compile_general(spec, encoding=ENC_REPETITION)
        except InfeasibleEndpoints:
            continue
        arcs = [(a.tail, a.head, a.ref.kind) for a in g.arcs()]
        # independent state-space BFS over (step, arc) nodes, repetition moves
        forward = {(0, a) for a in arcs if a[0] == start}
        for i in range(1, i_max):
            step_prev = {a for (s, a) in forward if s == i - 1}
            forward |= {
                (i, b)
                for b in arcs
                if any(b[0] == a[1] or b == a for a in step_prev)
            }
        backward = {(i_max - 1, a) for a in arcs if a[1] == stop}
        for i in range(i_max - 2, -1, -1):
            step_next = {a for (s, a) in backward if s == i + 1}
            backward |= {
                (i, b)
                for b in arcs
                if any(b[1] == a[0] or b == a for a in step_next)
            }
        expected = forward & backward
        registry_steps = {
            (l.step, (l.frm, l.to, l.kind))
            for l in compiled.registry
            if isinstance(l, EdgeStep)
        }
        assert registry_steps == expected


def test_infeasible_endpoints_raise():
    # one step cannot get from 0 to 2 on a path graph
    with pytest.raises(InfeasibleEndpoints):
        compile_general(small_path_spec(start=0, stop=2, i_max=1))


def test_enumerate_variables_picks_smaller_encoding():
    spec = small_path_spec(i_max=2)
    reg = compile_general(spec).registry
    rep = compile_general(spec, encoding=ENC_REPETITION)
    term = compile_general(spec, encoding=ENC_TERMINAL)
    assert len(reg) == min(len(rep.registry), len(term.registry))


def test_auto_encoding_builds_forms_once(monkeypatch):
    spec = small_path_spec(i_max=2)
    sizes = {enc: len(compile_general(spec, encoding=enc).registry)
             for enc in (ENC_REPETITION, ENC_TERMINAL)}  # both encodings are feasible
    built = []
    build_forms = CompiledGeneral._build_forms

    def counting(self):
        built.append(self.encoding)
        build_forms(self)

    monkeypatch.setattr(CompiledGeneral, "_build_forms", counting)
    compiled = compile_general(spec)
    q = compiled.qubo(default_penalties(spec))
    assert built == [compiled.encoding]
    assert q.n == len(compiled.registry) == min(sizes.values())


def test_terminal_arcs_gated_by_required_count():
    spec = small_path_spec(i_max=4)
    compiled = compile_general(spec, encoding=ENC_TERMINAL)
    gate = len(spec.resolved_required())
    terminal_steps = {
        l.step for l in compiled.registry if isinstance(l, EdgeStep) and l.to == TERMINAL
    }
    assert terminal_steps and min(terminal_steps) == gate


# --- QUBO construction -----------------------------------------------------------

def test_triangle_ground_state_is_the_tour():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    spec = ProblemSpec(graph=g, i_max=3)
    for encoding in (ENC_REPETITION, ENC_TERMINAL):
        compiled = compile_general(spec, encoding=encoding)
        report = brute_force(compiled.qubo(default_penalties(spec)))
        solution = compiled.decode(report.best_assignment)
        assert solution.is_valid
        assert report.best_energy == 3.0
        assert solution.objective_weight == 3.0


def test_legal_assignment_has_zero_penalty_and_energy_equals_weight():
    spec = small_path_spec(start=0, stop=0, i_max=4)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    x = compiled.encode_route([[(0, 1), (1, 2), (2, 1), (1, 0)]])
    values = compiled.constraint_values(x)
    assert all(v == 0.0 for v in values.values())
    pen = default_penalties(spec)
    assert compiled.qubo(pen).energy(x) == compiled.decode(x).objective_weight == 6.0


def test_single_required_directed_edge_constraint_values():
    g = Graph.build([0, 1], directed=[(0, 1, 2), (1, 0, 3)])
    spec = ProblemSpec(graph=g, required_edges=frozenset([EdgeRef("d", 0, 1)]), i_max=1)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    idx = compiled.registry.index_of(EdgeStep(0, 0, 1, "plain", 0, "d"))
    x = [0] * len(compiled.registry)
    assert compiled.constraint_values(x)["required"] == 1.0
    x[idx] = 1
    assert compiled.constraint_values(x)["required"] == 0.0


def test_slack_absorbs_extra_visits():
    # closed walk on the path graph visits edge (0,1) twice; slack bit 2^0
    # must account for the second visit exactly
    spec = small_path_spec(start=0, stop=0, i_max=4)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    x = compiled.encode_route([[(0, 1), (1, 2), (2, 1), (1, 0)]])
    slack_idx = compiled.registry.index_of(RequiredSlack(0, 0, 1, 0, "u"))
    assert x[slack_idx] == 1
    assert compiled.constraint_values(x)["required"] == 0.0
    x[slack_idx] = 0
    assert compiled.constraint_values(x)["required"] > 0.0
    assert not compiled.decode(x).validity.required_covered


# --- decoding ----------------------------------------------------------------------

def test_decode_collapses_repeated_edges():
    g = figure_example_graph()
    spec = ProblemSpec(graph=g, start=3, i_max=4)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    x = [0] * len(compiled.registry)
    for step, (frm, to) in enumerate([(3, 2), (2, 5), (2, 5), (5, 0)]):
        x[compiled.registry.index_of(EdgeStep(step, frm, to, "plain", 0, "u"))] = 1
    solution = compiled.decode(x)
    walk = solution.single_walk()
    assert [(s.frm, s.to) for s in walk.steps] == [(3, 2), (2, 5), (5, 0)]
    assert solution.objective_weight == 11.0


def test_decode_all_zero_fails_one_edge():
    spec = small_path_spec(i_max=2)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    solution = compiled.decode([0] * len(compiled.registry))
    assert not solution.validity.one_edge_per_step
    assert not solution.is_valid


def test_encode_decode_roundtrip():
    spec = small_path_spec(i_max=4)
    for encoding in (ENC_REPETITION, ENC_TERMINAL):
        compiled = compile_general(spec, encoding=encoding)
        walk = [(0, 1), (1, 2), (2, 1)]
        x = compiled.encode_route([walk])
        solution = compiled.decode(x)
        assert solution.is_valid
        assert [(s.frm, s.to) for s in solution.single_walk().steps] == walk
        assert solution.objective_weight == 5.0


def test_decode_walk_via_public_api():
    spec = small_path_spec(i_max=2)
    pen = default_penalties(spec)
    compiled = compile_general(spec)
    report = brute_force(compiled.qubo(pen))
    solution = compiled.decode(report.best_assignment)
    assert solution.is_valid
    assert solution.objective_weight == 3.0


# --- zero-penalty equivalence (module-scale) ------------------------------------------

@pytest.mark.parametrize(
    "spec_kwargs,encoding",
    [
        (dict(i_max=2), ENC_REPETITION),
        (dict(i_max=2), ENC_TERMINAL),
        (dict(start=0, stop=0, i_max=4), ENC_REPETITION),
        (dict(start=0, stop=2, i_max=3), ENC_TERMINAL),
    ],
)
def test_zero_penalty_iff_valid_exhaustive(spec_kwargs, encoding):
    spec = small_path_spec(**spec_kwargs)
    compiled = compile_general(spec, encoding=encoding)
    n = len(compiled.registry)
    assert n <= 16
    sums = enumerate_all_energies(hard_constraint_sum(compiled))
    for idx in range(1 << n):
        x = bits_from_index(idx, n)
        assert (abs(sums[idx]) < 1e-9) == compiled.decode(x).is_valid


def test_zero_penalty_iff_valid_rest_encoding():
    g = Graph.build(range(2), undirected=[(0, 1, 2)])
    spec = ProblemSpec(
        graph=g, postmen=Postmen(count=1, capacities=(2,)), i_max=2
    )
    compiled = compile_general(spec)
    n = len(compiled.registry)
    assert n <= 12
    sums = enumerate_all_energies(hard_constraint_sum(compiled))
    for idx in range(1 << n):
        x = bits_from_index(idx, n)
        assert (abs(sums[idx]) < 1e-9) == compiled.decode(x).is_valid


_PATH = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 2)])
_CYCLE = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
VARIANT_SPECS = {
    "start-stop": ProblemSpec(graph=_PATH, start=0, stop=0, i_max=4),
    "service-hierarchy": ProblemSpec(
        graph=_CYCLE, service=ServiceMode(), i_max=3,
        hierarchy=((EdgeRef("d", 1, 2), EdgeRef("d", 0, 1)),),
    ),
    "two-postmen": ProblemSpec(graph=_PATH, start=1, postmen=Postmen(count=2), i_max=2),
    "capacity": ProblemSpec(
        graph=_PATH, start=0, postmen=Postmen(count=1, capacities=(3,)), i_max=2
    ),
    "collisions": ProblemSpec(
        graph=Graph.build(range(2), undirected=[(0, 1, 2)]),
        start=0, postmen=Postmen(count=2), forbid_edge_collisions=True, i_max=2,
    ),
    "turns": ProblemSpec(graph=_CYCLE, turn_penalties=(TurnPenalty(0, 1, 2, 3.0),), i_max=3),
}


@pytest.mark.parametrize("variant", sorted(VARIANT_SPECS))
def test_decode_validity_iff_zero_family_values(variant):
    spec = VARIANT_SPECS[variant]
    compiled = compile_general(spec)
    n = len(compiled.registry)
    if n <= 16:
        states = [bits_from_index(idx, n) for idx in range(1 << n)]
    else:
        # random states, plus SA's best states and every one- and two-bit change of them
        states = np.random.default_rng(41).integers(0, 2, size=(2000, n)).tolist()
        q = compiled.qubo(default_penalties(spec))
        flips = [(), *itertools.combinations(range(n), 1), *itertools.combinations(range(n), 2)]
        for seed in range(4):
            best = simulated_annealing(q, sweeps=100, reads=20, seed=seed).best_assignment
            for cols in flips:
                x = [int(b) for b in best]
                for j in cols:
                    x[j] ^= 1
                states.append(x)
    hard = hard_constraint_sum(compiled)
    mismatches = [
        x for x in states if compiled.decode(x).is_valid != (abs(hard.energy(x)) < 1e-9)
    ]
    assert not mismatches, f"{len(mismatches)} of {len(states)} states, first {mismatches[0]}"


# --- encodings agree -----------------------------------------------------------------

def test_encodings_agree_on_optimal_legal_energy():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 5:
        from conftest import random_mixed_graph

        g = random_mixed_graph(rng, 3, 3, windy=bool(rng.integers(0, 2)), directed_frac=0.5)
        if g is None:
            continue
        spec = ProblemSpec(graph=g, i_max=3)
        from postqubo import NoValidSolution, exact_walk_oracle

        try:
            exact_walk_oracle(spec)
        except NoValidSolution:
            continue
        pen = default_penalties(spec)
        energies = {}
        for encoding in (ENC_REPETITION, ENC_TERMINAL):
            compiled = compile_general(spec, encoding=encoding)
            if len(compiled.registry) > 22:
                break
            report = brute_force(compiled.qubo(pen))
            assert compiled.decode(report.best_assignment).is_valid
            energies[encoding] = report.best_energy
        else:
            assert energies[ENC_REPETITION] == energies[ENC_TERMINAL]
            checked += 1


# --- extension constraints (smoke; the acceptance suite sweeps these) ------------------

def test_turn_bonus_added_to_energy():
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    spec = ProblemSpec(graph=g, turn_penalties=(TurnPenalty(0, 1, 2, 5.0),), i_max=3)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    x = compiled.encode_route([[(0, 1), (1, 2), (2, 0)]])
    solution = compiled.decode(x)
    assert solution.is_valid
    assert solution.turn_extra == 5.0
    pen = default_penalties(spec)
    assert compiled.qubo(pen).energy(x) == pytest.approx(
        solution.objective_weight + pen.p_turn * solution.turn_extra
    )


def test_hierarchy_orders_service_steps():
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    first, second = EdgeRef("d", 1, 2), EdgeRef("d", 0, 1)
    spec = ProblemSpec(
        graph=g, service=ServiceMode(), hierarchy=((first, second),), i_max=3
    )
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    ordered = compiled.encode_route(
        [[(1, 2, "service"), (2, 0, "service"), (0, 1, "service")]]
    )
    assert compiled.constraint_values(ordered)["hierarchy"] == 0.0
    reversed_x = compiled.encode_route(
        [[(0, 1, "service"), (1, 2, "service"), (2, 0, "service")]]
    )
    assert compiled.constraint_values(reversed_x)["hierarchy"] > 0.0
    assert not compiled.decode(reversed_x).validity.hierarchy_ok


def test_collision_constraint_counts_shared_arcs():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    spec = ProblemSpec(
        graph=g, start=1, postmen=Postmen(count=2), forbid_edge_collisions=True, i_max=2
    )
    compiled = compile_general(spec)
    apart = compiled.encode_route([[(1, 0)], [(1, 2)]])
    assert compiled.constraint_values(apart)["collision"] == 0.0
    together = compiled.encode_route([[(1, 0)], [(1, 0)]])
    assert compiled.constraint_values(together)["collision"] > 0.0
    assert not compiled.decode(together).validity.collisions_ok


def test_two_postman_decode_weighs_an_empty_walk_as_float_zero():
    g = Graph.build(range(2), undirected=[(0, 1, 2)])
    spec = ProblemSpec(graph=g, start=0, postmen=Postmen(count=2), i_max=2)
    compiled = compile_general(spec)
    solution = compiled.decode(compiled.encode_route([[(0, 1), (1, 0)], []]))
    assert solution.is_valid
    weights = [walk.weight for walk in solution.walks]
    assert weights == [4.0, 0.0]
    assert [type(w) for w in weights] == [float, float]


def test_capacity_constraint_and_slack():
    g = Graph.build(range(3), undirected=[(0, 1, 2), (1, 2, 3)])
    spec = ProblemSpec(graph=g, postmen=Postmen(count=1, capacities=(6,)), i_max=2)
    compiled = compile_general(spec)
    x = compiled.encode_route([[(0, 1), (1, 2)]])
    assert compiled.constraint_values(x)["capacity"] == 0.0
    solution = compiled.decode(x)
    assert solution.validity.capacity_ok


def test_service_required_exactly_once():
    g = Graph.build(range(3), undirected=[(0, 1, 2), (1, 2, 3)])
    spec = ProblemSpec(graph=g, service=ServiceMode(), i_max=3)
    compiled = compile_general(spec, encoding=ENC_TERMINAL)
    once = compiled.encode_route([[(0, 1, "service"), (1, 2, "service")]])
    assert compiled.constraint_values(once)["required"] == 0.0
    twice = compiled.encode_route(
        [[(0, 1, "service"), (1, 0, "service"), (0, 1, "service")]]
    )
    assert compiled.constraint_values(twice)["required"] > 0.0


# --- spec validation --------------------------------------------------------------------

def test_spec_rejects_bad_inputs():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(SpecError):
        ProblemSpec(graph=g, start=9)
    with pytest.raises(SpecError):
        ProblemSpec(graph=g, required_edges=frozenset([EdgeRef("u", 0, 2)]))
    with pytest.raises(SpecError):
        ProblemSpec(graph=g, i_max=0)
    with pytest.raises(SpecError):
        ProblemSpec(graph=g, turn_penalties=(TurnPenalty(0, 1, 2, -1.0),))


def test_spec_rejects_hierarchy_without_service():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    pair = (EdgeRef("u", 0, 1), EdgeRef("u", 1, 2))
    with pytest.raises(SpecError):
        ProblemSpec(graph=g, hierarchy=(pair,))


def test_spec_rejects_cyclic_hierarchy():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    a, b = EdgeRef("u", 0, 1), EdgeRef("u", 1, 2)
    with pytest.raises(SpecError):
        ProblemSpec(graph=g, service=ServiceMode(), hierarchy=((a, b), (b, a)))


def test_spec_rejects_service_with_multiple_postmen():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(UnsupportedCombination):
        ProblemSpec(graph=g, service=ServiceMode(), postmen=Postmen(count=2))


def test_spec_rejects_stop_with_rest_encoding():
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(UnsupportedCombination):
        ProblemSpec(graph=g, stop=2, postmen=Postmen(count=2))


def test_spec_requires_integer_weights_for_capacities():
    g = Graph.build(range(3), undirected=[(0, 1, 1.5), (1, 2, 1)])
    with pytest.raises(SpecError):
        ProblemSpec(graph=g, postmen=Postmen(count=1, capacities=(4,)))


def test_hierarchy_closure_is_transitive():
    g = Graph.build(range(4), undirected=[(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    a, b, c = EdgeRef("u", 0, 1), EdgeRef("u", 1, 2), EdgeRef("u", 2, 3)
    spec = ProblemSpec(graph=g, service=ServiceMode(), hierarchy=((a, b), (b, c)))
    assert (a, c) in spec.hierarchy_closure()


# --- compiled forms pinned byte for byte ----------------------------------------

def _pinned_specs() -> dict[str, tuple[ProblemSpec, str]]:
    mixed = Graph.build(
        range(4), undirected=[(0, 1, 1.5, 2.25), (1, 2, 1), (2, 3, 2.5)],
        directed=[(3, 0, 1), (1, 3, 2)],
    )
    plain = Graph.build(range(4), undirected=[(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1)])
    arrows = Graph.build(range(3), undirected=[(0, 1, 2)], directed=[(1, 2, 1), (2, 0, 3)])
    first, second = EdgeRef("d", 1, 2), EdgeRef("u", 0, 1)
    return {
        "repetition": (ProblemSpec(graph=mixed, start=0, i_max=6), ENC_REPETITION),
        "terminal": (
            ProblemSpec(graph=mixed, start=0, stop=2, i_max=6, required_edges=frozenset(
                [EdgeRef("u", 0, 1), EdgeRef("d", 1, 3)])),
            ENC_TERMINAL,
        ),
        "rest": (ProblemSpec(graph=plain, start=0, postmen=Postmen(1, (9,)), i_max=5), "auto"),
        "service_hierarchy": (
            ProblemSpec(
                graph=arrows, start=0, i_max=5, hierarchy=((first, second),),
                service=ServiceMode(service_overrides=((1, 2, "d", 4.0),),
                                    traverse_overrides=((0, 1, "u", 0.5),)),
            ),
            "auto",
        ),
        "turns": (
            ProblemSpec(graph=mixed, start=1, stop=1, i_max=6, turn_penalties=(
                TurnPenalty(0, 1, 2, 3.0), TurnPenalty(1, 3, 0, 1.5), TurnPenalty(2, 1, 3, 2.0))),
            "auto",
        ),
        "team": (
            ProblemSpec(
                graph=plain, start=0, i_max=4, forbid_edge_collisions=True,
                postmen=Postmen(2, (7, 8), ((), ((1, 2, "u", 3.0),))),
            ),
            "auto",
        ),
    }


def _form_hashes(compiled) -> dict[str, str]:
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    out = {"registry": sha(format_registry_text(compiled.registry)),
           "objective": sha(format_qubo_text(compiled.objective))}
    for fam, form in compiled.constraints.items():
        out[fam] = sha(format_qubo_text(form))
    return out


# sha256 prefixes of the registry, objective and family texts of each spec above
PINNED_FORMS = {
    "repetition": {"registry": "836e0465d32e94cb", "objective": "003426bc51d58a14",
                   "one_edge": "09fdb5b88d409c9f", "adjacency": "4fa38bfbb78e2082",
                   "required": "1cfc6ecded86ff65"},
    "terminal": {"registry": "e4b9af406c7b5938", "objective": "0ea357828b246a7e",
                 "one_edge": "dc225492d09c38f1", "adjacency": "4fb9d6e066861140",
                 "required": "81f20f866cc001ad"},
    "rest": {"registry": "306beb4dbc0945dc", "objective": "3a16d071c68051b7",
             "one_edge": "97d97f432276a0e8", "adjacency": "f876948ef20bad20",
             "required": "89bf3d89b0bdd7ba", "capacity": "42b755dfca750e60"},
    "service_hierarchy": {"registry": "dec00cf3a91f2515", "objective": "a277a92a517a806f",
                          "one_edge": "8c4970014b02e266", "adjacency": "78b0f02110eb9861",
                          "required": "a54d216bb93310a8", "hierarchy": "fd599668a3457920"},
    "turns": {"registry": "b8152771941a2001", "objective": "d6771737958d3c4a",
              "one_edge": "ab4a80d31d615de8", "adjacency": "9376ad551c7760a8",
              "required": "3d1265fb59386da4", "turn": "99ccbc7b0da3e3ba"},
    "team": {"registry": "10c8d7c304240645", "objective": "2d40523b360e68f1",
             "one_edge": "91c2bd015d395597", "adjacency": "02c0ad3dc038c356",
             "required": "04a44db75a082a36", "collision": "dcf5ff03d159fa9c",
             "capacity": "8b79952782d212cb"},
}


@pytest.mark.parametrize("name", sorted(PINNED_FORMS))
def test_compiled_forms_are_pinned(name):
    spec, encoding = _pinned_specs()[name]
    assert _form_hashes(compile_general(spec, encoding)) == PINNED_FORMS[name]


def _pinned_route(name: str, spec: ProblemSpec) -> list[list[tuple]]:
    """One valid route per pinned spec: the walk oracle's, or two hand walks for the team."""
    if name == "team":
        return [[(0, 1), (1, 2), (2, 1), (1, 0)], [(0, 3), (3, 2), (2, 3), (3, 0)]]
    walk = exact_walk_oracle(spec).walks[0]
    return [[(s.frm, s.to, s.mode, s.kind) for s in walk.steps]]


def _decode_hash(name: str) -> str:
    spec, encoding = _pinned_specs()[name]
    compiled = compile_general(spec, encoding)
    n = len(compiled.registry)
    rng = np.random.default_rng(29)
    states = [
        (rng.random(n) < density).astype(int).tolist()
        for density in (0.05, 0.2, 0.5)
        for _ in range(30)
    ]
    valid = compiled.encode_route(_pinned_route(name, spec))
    assert compiled.decode(valid).is_valid
    states.append(valid)
    for j in range(n):
        flipped = list(valid)
        flipped[j] ^= 1
        states.append(flipped)
    text = "\n".join(repr(compiled.decode(x)) for x in states)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of repr(decode(x)) over seeded random states, one valid
# route's bits and every single-bit flip of them, per spec above
PINNED_DECODES = {
    "repetition": "0cae979307dfc3a7",
    "terminal": "3e2711822b4f225e",
    "rest": "cb105f820ca58eef",
    "service_hierarchy": "1c2c7cf902008782",
    "turns": "5412e1fdd2ffeb82",
    "team": "95e1a157d5aa5b2e",
}


@pytest.mark.parametrize("name", sorted(PINNED_DECODES))
def test_decodes_are_pinned(name):
    assert _decode_hash(name) == PINNED_DECODES[name]
