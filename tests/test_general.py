import collections
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postqubo import (
    CapacitySlack,
    EdgeRef,
    EdgeStep,
    Graph,
    InfeasibleEndpoints,
    LengthMismatch,
    NoValidSolution,
    PenaltyConfig,
    Postmen,
    ProblemSpec,
    RequiredSlack,
    RestVar,
    ServiceMode,
    SpecError,
    TurnPenalty,
    UnsupportedCombination,
    VariableRegistry,
    brute_force,
    compile_general,
    default_penalties,
    exact_walk_oracle,
    simulated_annealing,
)
from postqubo.general import (
    ENC_REPETITION,
    ENC_REST,
    ENC_TERMINAL,
    KINDS,
    MODES,
    TERMINAL,
    CompiledGeneral,
)
from postqubo.pairing import compile_pairing
from postqubo.qubo import PENALTY_FAMILIES, Qubo, format_qubo_text, format_registry_text
from conftest import (
    bits_from_index,
    encode_route,
    enumerate_all_energies,
    figure_example_graph,
    random_mixed_graph,
    reference_prune_steps,
)


def small_path_spec(**kwargs) -> ProblemSpec:
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 2)])
    return ProblemSpec(graph=g, **kwargs)


def hard_constraint_sum(compiled) -> Qubo:
    total = Qubo(len(compiled.registry))
    for c in compiled.constraints.values():
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
    slack_bits = (i_max - g.edge_count).bit_length() * g.edge_count
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


@st.composite
def pruning_cases(draw):
    """A random mixed graph with random endpoints, step budget, required
    subset and encoding (the rest encoding through a second postman)."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = None
    while g is None:
        g = random_mixed_graph(rng, n, int(rng.integers(n - 1, n * (n - 1) // 2 + 1)),
                               windy=True, directed_frac=0.4)
    vertices = st.none() | st.sampled_from(sorted(g.vertices))
    encoding = draw(st.sampled_from([ENC_REPETITION, ENC_TERMINAL, ENC_REST]))
    refs = sorted(g.edge_refs())
    required = draw(st.none() | st.sets(st.sampled_from(refs)).map(frozenset))
    spec = ProblemSpec(
        graph=g, start=draw(vertices), stop=None if encoding == ENC_REST else draw(vertices),
        required_edges=required, i_max=draw(st.integers(1, 7)),
        postmen=Postmen(2 if encoding == ENC_REST else 1),
    )
    return spec, encoding


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pruning_cases())
def test_pruning_matches_the_set_reference_model(case):
    spec, encoding = case
    gate = len(spec.resolved_required()) if encoding == ENC_TERMINAL else None
    try:
        allowed = reference_prune_steps(spec, spec.effective_i_max,
                                        encoding == ENC_REPETITION, gate)
        expected = {(i, a) for i, step in enumerate(allowed) for a in step}
    except InfeasibleEndpoints as exc:
        expected = str(exc)
    try:
        got = set(zip(*np.nonzero(CompiledGeneral(spec, encoding).allowed)))
    except InfeasibleEndpoints as exc:
        got = str(exc)
    assert got == expected


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

    registered = []
    build_registry = CompiledGeneral._build_registry

    def counting_registry(self):
        registered.append(self.encoding)
        build_registry(self)

    monkeypatch.setattr(CompiledGeneral, "_build_forms", counting)
    monkeypatch.setattr(CompiledGeneral, "_build_registry", counting_registry)
    compiled = compile_general(spec)
    q = compiled.qubo(default_penalties(spec))
    assert built == registered == [compiled.encoding]
    assert q.n == len(compiled.registry) == min(sizes.values())


def test_auto_encoding_constructs_one_compiled_problem(monkeypatch):
    import postqubo.general as general

    inits, pruned = [], []
    init, prune = CompiledGeneral.__init__, general._prune_steps

    def counting_init(self, *args):
        inits.append(args)
        init(self, *args)

    def counting_prune(*args):
        pruned.append(args[5])  # repetition or not
        return prune(*args)

    monkeypatch.setattr(CompiledGeneral, "__init__", counting_init)
    monkeypatch.setattr(general, "_prune_steps", counting_prune)
    compiled = compile_general(small_path_spec(i_max=2))
    assert len(inits) == 1 and pruned == [True, False]  # repetition, then terminal
    assert compiled.encoding == ENC_REPETITION


@pytest.mark.parametrize("build", [CompiledGeneral, compile_general])
def test_an_encoding_the_spec_does_not_admit_is_a_spec_error(build):
    team = ProblemSpec(graph=small_path_spec().graph, start=0, postmen=Postmen(2))
    with pytest.raises(SpecError, match="unknown encoding 'bogus'"):
        build(small_path_spec(), "bogus")
    with pytest.raises(SpecError, match="compiles the rest encoding, not terminal"):
        build(team, ENC_TERMINAL)
    with pytest.raises(SpecError, match="compiles the repetition or terminal encoding, not rest"):
        build(small_path_spec(), ENC_REST)
    with pytest.raises(SpecError, match="compiles the terminal encoding, not repetition"):
        build(small_path_spec(service=ServiceMode()), ENC_REPETITION)


def _table_specs():
    """Seeded mixed-graph specs for every encoding, with and without service
    mode (which compiles only the terminal encoding)."""
    from conftest import random_mixed_graph

    rng = np.random.default_rng(23)
    cases = []
    for k in range(9):
        g = None
        while g is None:
            g = random_mixed_graph(rng, 4, int(rng.integers(3, 6)), windy=True,
                                   directed_frac=0.4)
        start, i_max = int(rng.integers(0, 4)), int(rng.integers(3, 6))
        if k % 3 == 2:
            cases.append((ProblemSpec(graph=g, start=start, i_max=i_max, postmen=Postmen(2)),
                          "rest"))
        else:
            spec = ProblemSpec(graph=g, start=start, i_max=i_max,
                               service=ServiceMode() if k % 3 else None)
            encodings = (ENC_TERMINAL,) if k % 3 else (ENC_REPETITION, ENC_TERMINAL)
            cases += [(spec, enc) for enc in encodings]
    return cases


def test_step_tables_agree_with_the_registry():
    # the pinned specs add coexisting arcs, turns, hierarchy, collisions and capacity
    for spec, encoding in [*_table_specs(), *_pinned_specs().values()]:
        try:
            compiled = compile_general(spec, encoding)
        except InfeasibleEndpoints:
            continue
        assert encoding in ("auto", compiled.encoding)
        rows = 0
        for p, table in enumerate(compiled._tables):
            for step, idx, tail, head, arc, mode, _ in table.tolist():
                kind = KINDS[compiled._kind[arc]]
                assert compiled.registry.label_of(idx) == EdgeStep(
                    step, tail, head, MODES[mode], p, kind)
                rows += 1
        assert rows == sum(isinstance(lab, EdgeStep) for lab in compiled.registry)


@pytest.mark.parametrize("name", ["coexisting_repetition", "coexisting_terminal"])
def test_lexsorted_indices_are_the_registry_indices(name):
    spec, encoding = _pinned_specs()[name]
    compiled = compile_general(spec, encoding)
    (table,) = compiled._tables
    for step, idx, tail, head, arc, mode, _ in table.tolist():
        label = EdgeStep(step, tail, head, MODES[mode], 0, KINDS[compiled._kind[arc]])
        assert idx == compiled.registry.index_of(label)
    # within a step, arc-index order and label order differ
    assert (np.diff(table["index"])[np.diff(table["step"]) == 0] < 0).any()


def _registry_specs():
    """The table and pinned specs, plus seeded ones with terminal arcs, teams
    of 2-3 postmen, capacities and service mode, each under every encoding
    it admits."""
    cases = [*_table_specs(), *_pinned_specs().values()]
    rng = np.random.default_rng(41)
    for k in range(16):
        g = None
        while g is None:
            g = random_mixed_graph(rng, int(rng.integers(3, 6)), int(rng.integers(3, 7)),
                                   windy=True, directed_frac=0.3)
        start, i_max = int(rng.integers(0, 3)), int(rng.integers(3, 7))
        count = 2 + k % 2
        specs = [
            (ProblemSpec(graph=g, start=start, stop=int(rng.integers(0, 3)), i_max=i_max),
             (ENC_REPETITION, ENC_TERMINAL)),
            (ProblemSpec(graph=g, start=start, i_max=i_max, postmen=Postmen(count)), (ENC_REST,)),
            (ProblemSpec(graph=g, i_max=i_max, postmen=Postmen(
                count, tuple(float(c) for c in rng.integers(1, 40, count)))), (ENC_REST,)),
            (ProblemSpec(graph=g, start=start, i_max=i_max, service=ServiceMode()),
             (ENC_TERMINAL,)),
        ]
        cases += [(spec, enc) for spec, encodings in specs for enc in encodings]
    return cases


def _labelled_indices(compiled):
    """(label object, index) for every variable, read off the step tables and
    the register rows."""
    refs = compiled.required
    return (
        [(EdgeStep(step, tail, head, MODES[mode], p, KINDS[compiled._kind[arc]]), idx)
         for p, table in enumerate(compiled._tables)
         for step, idx, tail, head, arc, mode, _ in table.tolist()]
        + [(RestVar(i, p), idx) for i, p, _, idx in compiled._rest.tolist()]
        + [(RequiredSlack(bit, refs[g].a, refs[g].b, refs[g].kind), idx)
           for g, _, bit, idx in compiled._req_slack.tolist()]
        + [(CapacitySlack(bit, p), idx) for p, _, bit, idx in compiled._cap_slack.tolist()]
    )


def test_the_compiled_registry_is_the_registry_of_its_label_objects():
    """The column-built registry against one built from EdgeStep and register
    label objects: size, order, both lookups, absent labels and the text."""
    seen = collections.Counter()
    for spec, encoding in _registry_specs():
        try:
            compiled = compile_general(spec, encoding)
        except InfeasibleEndpoints:
            continue
        reg = compiled.registry
        text = format_registry_text(reg)  # before any label object is read
        pairs = _labelled_indices(compiled)
        ref = VariableRegistry([lab for lab, _ in pairs])
        assert text == format_registry_text(ref)
        assert len(reg) == len(ref) == len(pairs)
        assert reg.labels == ref.labels and list(reg) == list(ref)
        for i, lab in enumerate(ref.labels):
            assert reg.label_of(i) == lab and reg.index_of(lab) == i and lab in reg
        assert all(ref.index_of(lab) == idx for lab, idx in pairs)
        absent = [EdgeStep(compiled.i_max, 0, 1), RestVar(compiled.i_max),
                  CapacitySlack(0, compiled.postmen), RequiredSlack(9, 0, 1)]
        assert not any(lab in reg for lab in absent)
        seen[compiled.encoding] += 1
        seen["terminal arcs"] += any(
            isinstance(lab, EdgeStep) and TERMINAL in (lab.frm, lab.to) for lab in reg)
        seen["3 postmen"] += compiled.postmen == 3
        seen["capacities"] += len(compiled._cap_slack) > 0
    assert min(seen[k] for k in (ENC_REPETITION, ENC_TERMINAL, ENC_REST, "terminal arcs",
                                 "3 postmen", "capacities")) >= 3


def test_compile_and_registry_text_construct_no_edge_step(monkeypatch):
    made = []
    init = EdgeStep.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EdgeStep, "__init__", counting_init)
    for spec, encoding in [*_table_specs(), *_pinned_specs().values()]:
        compiled = compile_general(spec, encoding)
        compiled.qubo(default_penalties(spec))
        assert format_registry_text(compiled.registry)
    assert made == []
    # the first read of the labels builds them, once
    assert compiled.registry.label_of(0) == compiled.registry.labels[0]
    assert len(made) == len(compiled._tables) * len(compiled._tables[0])


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
    x = encode_route(compiled, [[(0, 1), (1, 2), (2, 1), (1, 0)]])
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
    x = encode_route(compiled, [[(0, 1), (1, 2), (2, 1), (1, 0)]])
    slack_idx = compiled.registry.index_of(RequiredSlack(0, 0, 1, "u"))
    assert x[slack_idx] == 1
    assert compiled.constraint_values(x)["required"] == 0.0
    x[slack_idx] = 0
    assert compiled.constraint_values(x)["required"] > 0.0
    assert not compiled.decode(x).validity.required_covered


def _path_spec(edges: int, postmen: int, i_max: int) -> ProblemSpec:
    g = Graph.build(range(edges + 1), undirected=[(v, v + 1, 1) for v in range(edges)])
    return ProblemSpec(graph=g, postmen=Postmen(postmen), i_max=i_max)


# every step of every postman covers at most one required edge, so a valid
# walk has at most P * i_max - |R| extra visits, all on one edge at worst
@pytest.mark.parametrize("encoding, postmen", [
    (ENC_REPETITION, 1), (ENC_TERMINAL, 1), (ENC_REST, 2), (ENC_REST, 3),
])
@pytest.mark.parametrize("i_max", range(2, 9))
def test_every_spare_step_on_one_required_edge_encodes_at_zero_penalty(encoding, postmen, i_max):
    # path 0-1-2: postman 0 walks it, then every postman bounces on (1, 2)
    spec = _path_spec(2, postmen, i_max)
    bounce = [(1, 2), (2, 1)] * i_max
    walks = [[(0, 1), *bounce[: i_max - 1]]] + [bounce[:i_max]] * (postmen - 1)
    compiled = compile_general(spec, encoding if postmen == 1 else "auto")
    assert compiled.encoding == encoding
    bits = encode_route(compiled, walks, strict=True)
    assert compiled.constraint_values(bits)["required"] == 0.0
    assert compiled.decode(bits).is_valid


@pytest.mark.parametrize("edges, postmen, i_max, capacities, bits", [
    (2, 1, 2, None, 0),  # i_max == |R|: every step covers a new edge
    (4, 1, 2, None, 0),  # no walk covers four edges in two steps
    (2, 1, 6, None, 3),  # 4 extra visits
    (1, 3, 4, None, 4),  # 11 extra visits
    (2, 2, 3, (7, 8), 3),  # 4 extra visits; capacities of 3 and 4 bits
])
def test_slack_registers_have_the_bits_of_their_largest_value(
    edges, postmen, i_max, capacities, bits
):
    g = Graph.build(range(edges + 1), undirected=[(v, v + 1, 1) for v in range(edges)])
    spec = ProblemSpec(graph=g, i_max=i_max, postmen=Postmen(postmen, capacities))
    labels = compile_general(spec).registry.labels
    per_edge = collections.Counter((lab.frm, lab.to) for lab in labels
                                   if isinstance(lab, RequiredSlack))
    assert [per_edge[(v, v + 1)] for v in range(edges)] == [bits] * edges
    per_postman = collections.Counter(lab.postman for lab in labels
                                      if isinstance(lab, CapacitySlack))
    assert per_postman == {p: int(c).bit_length() for p, c in enumerate(capacities or ())}


@pytest.mark.parametrize("encoding, postmen", [
    (ENC_REPETITION, 1), (ENC_TERMINAL, 1), (ENC_REST, 2), (ENC_REST, 3),
])
@pytest.mark.parametrize("i_max", [1, 2, 3])
def test_walks_that_cover_each_edge_once_at_the_step_budget_are_accepted(
    encoding, postmen, i_max
):
    # P * i_max == |R|: the postmen split a path, each step on a new edge
    spec = _path_spec(postmen * i_max, postmen, i_max)
    walks = [[(v, v + 1) for v in range(p * i_max, (p + 1) * i_max)] for p in range(postmen)]
    compiled = compile_general(spec, encoding if postmen == 1 else "auto")
    bits = encode_route(compiled, walks, strict=True)
    assert compiled.constraint_values(bits)["required"] == 0.0
    assert compiled.decode(bits).is_valid


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


@pytest.mark.parametrize("pipeline", ["general", "pairing"])
def test_decode_rejects_an_assignment_of_the_wrong_length(pipeline):
    if pipeline == "general":
        compiled = compile_general(small_path_spec(i_max=2))
    else:
        compiled = compile_pairing(figure_example_graph())
    n = len(compiled.registry)
    for x in ([0] * (n - 1), [1] * (n + 1)):
        with pytest.raises(LengthMismatch):
            compiled.decode(x)


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
        x = encode_route(compiled, [walk])
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


# --- the ground state is the route optimum ---------------------------------------------

def _turn_specs() -> list[tuple[ProblemSpec, object]]:
    """60 seeded 3-vertex specs with turn bonuses, each with a covering walk
    and at most 22 variables, paired with the walk oracle's route.  The last
    30 draw their bonuses from 10-59, above every arc weight (1-9)."""
    rng = np.random.default_rng(31)
    cases = []
    while len(cases) < 60:
        g = random_mixed_graph(rng, 3, int(rng.integers(2, 4)), windy=True, directed_frac=0.3)
        if g is None:
            continue
        arcs = g.arcs()
        turns = sorted({(a.tail, a.head, b.head) for a in arcs for b in arcs if a.head == b.tail})
        low, high = (10, 60) if len(cases) >= 30 else (1, 4)
        picks = rng.choice(len(turns), size=min(len(turns), int(rng.integers(1, 4))),
                           replace=False)
        spec = ProblemSpec(
            graph=g, start=int(rng.integers(0, 3)) if rng.random() < 0.5 else None,
            i_max=int(rng.integers(3, 5)),
            turn_penalties=tuple(TurnPenalty(*turns[i], float(rng.integers(low, high)))
                                 for i in sorted(picks)),
        )
        try:
            if len(compile_general(spec).registry) <= 22:
                cases.append((spec, exact_walk_oracle(spec)))
        except (InfeasibleEndpoints, NoValidSolution):
            continue
    return cases


def test_ground_state_with_turn_bonuses_is_the_walk_optimum():
    # a turn bonus costs the same in the QUBO as in the route: once, unscaled
    for k, (spec, oracle) in enumerate(_turn_specs()):
        compiled = compile_general(spec)
        report = brute_force(compiled.qubo(default_penalties(spec)))
        solution = compiled.decode(report.best_assignment)
        assert solution.is_valid, f"spec {k}: the ground state decodes invalid"
        optimum = oracle.objective_weight + oracle.turn_extra
        assert solution.objective_weight + solution.turn_extra == optimum, f"spec {k}"
        assert report.best_energy == optimum, f"spec {k}"


def _service_only_spec() -> ProblemSpec:
    """Service mode, where the optimum 2-0-1-3-0 is four service steps of six."""
    g = Graph.build(range(4), undirected=[(0, 1, 4), (0, 2, 9, 8), (0, 3, 2)],
                    directed=[(1, 3, 4)])
    return ProblemSpec(graph=g, service=ServiceMode(), i_max=6)


def test_service_mode_compiles_the_terminal_encoding():
    spec = _service_only_spec()
    compiled = compile_general(spec)
    assert compiled.encoding == ENC_TERMINAL
    with pytest.raises(SpecError):
        compile_general(spec, ENC_REPETITION)
    oracle = exact_walk_oracle(spec)
    assert oracle.objective_weight == 18.0
    walk = [(s.frm, s.to, s.mode, s.kind) for s in oracle.walks[0].steps]
    solution = compiled.decode(encode_route(compiled, [walk]))
    assert solution.is_valid and solution.objective_weight == 18.0


def test_penalty_families_are_the_families_the_compilers_emit():
    # every --p-* flag scales a constraint that a compiled problem can carry
    cycle = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    path = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    specs = [
        ProblemSpec(graph=cycle, service=ServiceMode(), i_max=3,
                    hierarchy=((EdgeRef("d", 1, 2), EdgeRef("d", 0, 1)),),
                    turn_penalties=(TurnPenalty(0, 1, 2, 3.0),)),
        ProblemSpec(graph=path, start=1, postmen=Postmen(2, (4, 4)),
                    forbid_edge_collisions=True, i_max=2),
    ]
    emitted = set(compile_pairing(figure_example_graph()).constraints)
    for spec in specs:
        emitted |= set(compile_general(spec).constraints)
    assert emitted == set(PENALTY_FAMILIES)


# --- extension constraints (smoke; the acceptance suite sweeps these) ------------------

def test_turn_bonus_added_to_energy():
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    spec = ProblemSpec(graph=g, turn_penalties=(TurnPenalty(0, 1, 2, 5.0),), i_max=3)
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    x = encode_route(compiled, [[(0, 1), (1, 2), (2, 0)]])
    solution = compiled.decode(x)
    assert solution.is_valid
    assert solution.turn_extra == 5.0
    pen = default_penalties(spec)
    assert compiled.qubo(pen).energy(x) == solution.objective_weight + solution.turn_extra


def test_hierarchy_orders_service_steps():
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    first, second = EdgeRef("d", 1, 2), EdgeRef("d", 0, 1)
    spec = ProblemSpec(
        graph=g, service=ServiceMode(), hierarchy=((first, second),), i_max=3
    )
    compiled = compile_general(spec, encoding=ENC_TERMINAL)
    ordered = encode_route(compiled, 
        [[(1, 2, "service"), (2, 0, "service"), (0, 1, "service")]]
    )
    assert compiled.constraint_values(ordered)["hierarchy"] == 0.0
    reversed_x = encode_route(compiled, 
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
    apart = encode_route(compiled, [[(1, 0)], [(1, 2)]])
    assert compiled.constraint_values(apart)["collision"] == 0.0
    together = encode_route(compiled, [[(1, 0)], [(1, 0)]])
    assert compiled.constraint_values(together)["collision"] > 0.0
    assert not compiled.decode(together).validity.collisions_ok


def test_two_postman_decode_weighs_an_empty_walk_as_float_zero():
    g = Graph.build(range(2), undirected=[(0, 1, 2)])
    spec = ProblemSpec(graph=g, start=0, postmen=Postmen(count=2), i_max=2)
    compiled = compile_general(spec)
    solution = compiled.decode(encode_route(compiled, [[(0, 1), (1, 0)], []]))
    assert solution.is_valid
    weights = [walk.weight for walk in solution.walks]
    assert weights == [4.0, 0.0]
    assert [type(w) for w in weights] == [float, float]


def test_capacity_constraint_and_slack():
    g = Graph.build(range(3), undirected=[(0, 1, 2), (1, 2, 3)])
    spec = ProblemSpec(graph=g, postmen=Postmen(count=1, capacities=(6,)), i_max=2)
    compiled = compile_general(spec)
    x = encode_route(compiled, [[(0, 1), (1, 2)]])
    assert compiled.constraint_values(x)["capacity"] == 0.0
    solution = compiled.decode(x)
    assert solution.validity.capacity_ok


def test_service_required_exactly_once():
    g = Graph.build(range(3), undirected=[(0, 1, 2), (1, 2, 3)])
    spec = ProblemSpec(graph=g, service=ServiceMode(), i_max=3)
    compiled = compile_general(spec, encoding=ENC_TERMINAL)
    once = encode_route(compiled, [[(0, 1, "service"), (1, 2, "service")]])
    assert compiled.constraint_values(once)["required"] == 0.0
    twice = encode_route(compiled, 
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


def test_spec_rejects_a_turn_onto_a_missing_arc():
    # parse_spec rejects such a file first; this is the check for specs built in code
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(SpecError, match=r"turn tuple references missing arcs: TurnPenalty"):
        ProblemSpec(graph=g, turn_penalties=(TurnPenalty(1, 2, 0, 1.0),))


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
    # u(0,1) and d(1,0) give coexisting arcs (1,0,'u') and (1,0,'d'): arc-index
    # order and label order differ within a step
    twins = Graph.build(range(3), undirected=[(0, 1, 2, 1.5), (1, 2, 1)],
                        directed=[(1, 0, 3), (2, 0, 1)])

    def coexisting(i_max: int, **service) -> ProblemSpec:
        return ProblemSpec(
            graph=twins, start=0, i_max=i_max, turn_penalties=(TurnPenalty(0, 1, 0, 1.25),),
            required_edges=frozenset([EdgeRef("u", 0, 1), EdgeRef("d", 1, 0),
                                      EdgeRef("d", 2, 0)]),
            **service,
        )

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
        "coexisting_repetition": (coexisting(5), ENC_REPETITION),
        "coexisting_terminal": (coexisting(
            6, hierarchy=((EdgeRef("u", 0, 1), EdgeRef("d", 2, 0)),),
            service=ServiceMode(service_overrides=((1, 0, "d", 2.5),),
                                traverse_overrides=((0, 1, "u", 0.5),)),
        ), ENC_TERMINAL),
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
    "repetition": {"registry": "4038135bc0cc14d4", "objective": "34ff7228a0098e3b",
                   "one_edge": "bb657ae46c76bbe3", "adjacency": "7d118be853cc2945",
                   "required": "9e20f0c814aa2ad9"},
    "terminal": {"registry": "120b9d06f176b5c9", "objective": "e804b7246b1bc3c7",
                 "one_edge": "63a117ca4223e4b5", "adjacency": "ec29ed487dd8b3c6",
                 "required": "9eb4fbf2b0f50bd4"},
    "rest": {"registry": "d213edb2c9a1d582", "objective": "45992780476f3151",
             "one_edge": "fdc5e31dfe7367d5", "adjacency": "e2bff746afafa2b1",
             "required": "12df6e6f75f4c081", "capacity": "59c550a4c92b8f3d"},
    "service_hierarchy": {"registry": "dec00cf3a91f2515", "objective": "a277a92a517a806f",
                          "one_edge": "8c4970014b02e266", "adjacency": "78b0f02110eb9861",
                          "required": "a54d216bb93310a8", "hierarchy": "fd599668a3457920"},
    "turns": {"registry": "ac88e15e3bd825bf", "objective": "5bb3e6962bb29a68",
              "one_edge": "815fdc14db70dc9c", "adjacency": "480125469e3f945b",
              "required": "10581d54925adc1c"},
    "team": {"registry": "2f9cfb034b8d06e5", "objective": "c0cd1c8a6ce962f6",
             "one_edge": "a0b84e6e18ab65c8", "adjacency": "9819b1298bc10a68",
             "required": "e5837642810ceebb", "collision": "61d62f34fa05dbcc",
             "capacity": "0bb8882d86362f63"},
    "coexisting_repetition": {"registry": "5f24e89489aaa760", "objective": "5abe602c33078fe5",
                              "one_edge": "527b965cf74b9850", "adjacency": "3170e9b32a02712c",
                              "required": "c7befd9e0ef1557f"},
    "coexisting_terminal": {"registry": "0067b578672f8732", "objective": "b203a96ff4c1ba36",
                            "one_edge": "e72634878b00ed0f", "adjacency": "d26020acc8c0a3d3",
                            "required": "c63c0f8d27f8877c", "hierarchy": "fb13dcb6bc961f46"},
}


@pytest.mark.parametrize("name", sorted(PINNED_FORMS))
def test_compiled_forms_are_pinned(name):
    spec, encoding = _pinned_specs()[name]
    assert _form_hashes(compile_general(spec, encoding)) == PINNED_FORMS[name]


def _build_outcome(build, spec: ProblemSpec, encoding: str):
    """Everything one build exposes: its encoding, registry and form texts,
    the default-penalty QUBO text and its decodes of seeded states; or the
    error it raises."""
    try:
        compiled = build(spec, encoding)
    except (SpecError, InfeasibleEndpoints) as exc:
        return type(exc), str(exc)
    rng = np.random.default_rng(31)
    states = [(rng.random(len(compiled.registry)) < density).astype(int).tolist()
              for density in (0.1, 0.3, 0.6) for _ in range(5)]
    return (compiled.encoding, format_registry_text(compiled.registry), _form_hashes(compiled),
            format_qubo_text(compiled.qubo(default_penalties(spec))),
            [repr(compiled.decode(x)) for x in states])


def test_the_constructor_builds_what_compile_general_returns():
    built = 0
    specs = [spec for spec, _ in [*_table_specs(), *_pinned_specs().values()]]
    for spec in specs:
        for encoding in ("auto", ENC_REPETITION, ENC_TERMINAL, ENC_REST):
            outcome = _build_outcome(CompiledGeneral, spec, encoding)
            assert outcome == _build_outcome(compile_general, spec, encoding)
            built += isinstance(outcome[0], str)
    assert built >= 2 * len(specs)  # auto and at least one explicit encoding each


def test_compiled_general_carries_its_default_penalties():
    for spec, encoding in [*_table_specs(), *_pinned_specs().values()]:
        try:
            compiled = compile_general(spec, encoding)
        except InfeasibleEndpoints:
            continue
        assert compiled.penalties == default_penalties(spec)
        assert (format_qubo_text(compiled.qubo())
                == format_qubo_text(compiled.qubo(default_penalties(spec))))


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
    valid = encode_route(compiled, _pinned_route(name, spec))
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
    "repetition": "732f0c715390262a",
    "terminal": "b4cd336b941e628c",
    "rest": "84ff30297e131e6a",
    "service_hierarchy": "1c2c7cf902008782",
    "turns": "9916e3665134a796",
    "team": "f4a098e856721f8e",
    "coexisting_repetition": "d60f2665a7389c88",
    "coexisting_terminal": "9f10bf2114815f27",
}


@pytest.mark.parametrize("name", sorted(PINNED_DECODES))
def test_decodes_are_pinned(name):
    assert _decode_hash(name) == PINNED_DECODES[name]


def _encode_cases() -> dict[str, tuple[ProblemSpec, str, list]]:
    """Each pinned spec's valid route, plus two walks that overflow a register."""
    specs = _pinned_specs()
    cases = {name: (spec, enc, _pinned_route(name, spec)) for name, (spec, enc) in specs.items()}
    # postman 0 walks weight 9 over its capacity of 7: its capacity register reads 0
    team, _ = specs["team"]
    cases["team_over_capacity"] = (team, "auto", [[(0, 1), (1, 2), (2, 3), (3, 2)], [(0, 3)]])
    # three postmen cross the one edge twelve times: 11 extra visits, the most
    # that the edge's shared register (3 * 4 - 1 = 11, four bits) must hold
    trio = ProblemSpec(graph=Graph.build(range(2), undirected=[(0, 1, 1)]), start=0, i_max=4,
                       postmen=Postmen(3))
    cases["slack_overflow"] = (trio, "auto", [[(0, 1), (1, 0), (0, 1), (1, 0)]] * 3)
    return cases


# sha256 prefixes of encode_route's bits for each case above
PINNED_ENCODES = {
    "repetition": "b028d7d98fcbbc09",
    "terminal": "901e36453d529d67",
    "rest": "f8256b2c99745e5e",
    "service_hierarchy": "50f5c337ff0f933f",
    "turns": "81a51d7006790736",
    "team": "ba4a7ada85c177de",
    "coexisting_repetition": "19272fd2241a9f45",
    "coexisting_terminal": "79ad00ed4a845d69",
    "team_over_capacity": "7ea2eae1fad72239",
    "slack_overflow": "294e90b1be1ef7f4",
}


@pytest.mark.parametrize("name", sorted(PINNED_ENCODES))
def test_encoded_routes_are_pinned(name):
    spec, encoding, walks = _encode_cases()[name]
    bits = encode_route(compile_general(spec, encoding), walks)
    text = "".join(map(str, bits))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED_ENCODES[name]


def test_extra_visits_fill_the_postmen_slack_registers_in_order():
    spec, encoding, walks = _encode_cases()["slack_overflow"]
    compiled = compile_general(spec, encoding)
    bits = encode_route(compiled, walks)
    assert compiled.constraint_values(bits)["required"] == 0.0
    assert compiled.decode(bits).is_valid


# --- penalised exports pinned byte for byte ---------------------------------------

def _export_hash(compiled, pen) -> str:
    text = format_qubo_text(compiled.qubo(pen)) + format_registry_text(compiled.registry)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned_pairing():
    # K6 with fractional weights: all six vertices odd, fifteen pair variables
    g = Graph.build(
        range(6), undirected=[(a, b, 0.1 * (a + 1) + 0.7 * b) for a, b in
                              itertools.combinations(range(6), 2)],
    )
    return compile_pairing(g)


# sha256 prefixes of format_qubo_text(qubo(pen)) + format_registry_text(registry)
# per spec above, the pairing graph and a 10-vertex, 16-edge mixed windy
# graph, at the default penalties and at
# PenaltyConfig.uniform(3.0).scaled(["required", "capacity", "pairing"], 2.5)
# .scaled(["adjacency"], 0.7)
PINNED_EXPORTS = {
    "repetition": ("0f265462f671296c", "21bbc293bb258306"),
    "terminal": ("e6c1ad89d75c3ed6", "bcbea47a03f415e2"),
    "rest": ("c57e49a8714e1af1", "f80f03508471f1e0"),
    "service_hierarchy": ("73330c195bf66231", "5113877c4aa152ce"),
    "turns": ("2542fa6c039efab6", "7ef2943d3c54d360"),
    "team": ("f531009e68ea6241", "20a737fee67323eb"),
    "coexisting_repetition": ("f99cbba7f60f6a82", "ea063af21ee08895"),
    "coexisting_terminal": ("00e551a2a1eb3e90", "7b70356277d17995"),
    "pairing": ("90738074f83cdc14", "e7e27256aa4246bd"),
    "mixed_10_16": ("27984375805895e6", "a6485688b21d852b"),
}


def test_qubo_exports_are_pinned():
    odd = PenaltyConfig.uniform(3.0).scaled(["required", "capacity", "pairing"], 2.5)
    odd = odd.scaled(["adjacency"], 0.7)
    got = {}
    for name, (spec, encoding) in _pinned_specs().items():
        compiled = compile_general(spec, encoding)
        got[name] = (_export_hash(compiled, default_penalties(spec)),
                     _export_hash(compiled, odd))
    pairing = _pinned_pairing()
    got["pairing"] = (_export_hash(pairing, None), _export_hash(pairing, odd))
    # 1,024 variables: register names of one to four digits
    graph = random_mixed_graph(np.random.default_rng(4), 10, 16, windy=True, directed_frac=0.3)
    spec = ProblemSpec(graph=graph)
    compiled = compile_general(spec)
    got["mixed_10_16"] = (_export_hash(compiled, default_penalties(spec)),
                          _export_hash(compiled, odd))
    assert got == PINNED_EXPORTS
