"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  The random suites are generated from fixed seeds, so every run
exercises the same instances.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from postqubo import (
    EdgeRef,
    EdgeStep,
    Graph,
    NoValidSolution,
    PenaltyConfig,
    Postmen,
    ProblemSpec,
    RequiredSlack,
    RestVar,
    ServiceMode,
    TurnPenalty,
    brute_force,
    decode_pairing,
    default_pairing_penalty,
    default_penalties,
    exact_pairing_oracle,
    exact_walk_oracle,
    make_sampler,
    shortest_paths,
    solve_with_retune,
)
from postqubo.cli import main as cli_main
from postqubo.general import (
    ENC_REPETITION,
    ENC_TERMINAL,
    TERMINAL,
    CompiledGeneral,
    compile_general,
)
from postqubo.pairing import compile_pairing
from postqubo.qubo import MODE_PLAIN, MODE_TRAVERSE, Qubo
from postqubo.solvers import CompiledInstance
from conftest import (
    add_linear,
    add_offset,
    add_quadratic,
    encode_route,
    enumerate_all_energies,
    random_graph_with_odd_count,
    random_mixed_graph,
)

PAIRING_SEED = 91001
GENERAL_SEED = 91002


# --------------------------------------------------------------------------
# suite fixtures
# --------------------------------------------------------------------------

@dataclass
class PairingInstance:
    graph: Graph
    penalty: float
    qubo: Qubo
    registry: object
    oracle_added: float


@dataclass
class GeneralInstance:
    spec: ProblemSpec
    compiled: CompiledGeneral
    pen: PenaltyConfig
    qubo: Qubo
    oracle_weight: float
    tag: tuple


@pytest.fixture(scope="session")
def pairing_suite() -> list[PairingInstance]:
    rng = np.random.default_rng(PAIRING_SEED)
    sizes = [4] * 25 + [6] * 18 + [8] * 7
    instances = []
    for d in sizes:
        g = random_graph_with_odd_count(rng, d)
        p = default_pairing_penalty(g)
        compiled = compile_pairing(g, p)
        qubo, registry = compiled.qubo(), compiled.registry
        _, added = exact_pairing_oracle(g)
        instances.append(PairingInstance(g, p, qubo, registry, added))
    return instances


VARIANT_MENU = [
    ("closed", False, False),
    ("open", False, False),
    ("start", False, False),
    ("stop", False, False),
    ("closed", True, False),
    ("open", True, False),
    ("open", False, True),
    ("closed", False, True),
    ("start", True, True),
    ("stop", True, False),
]


@pytest.fixture(scope="session")
def general_suite() -> list[GeneralInstance]:
    rng = np.random.default_rng(GENERAL_SEED)
    instances: list[GeneralInstance] = []
    slot = 0
    while len(instances) < 30:
        endpoint_mode, rural, windy = VARIANT_MENU[slot % len(VARIANT_MENU)]
        made = None
        for _ in range(400):
            n_v = int(rng.integers(3, 5))
            n_e = int(rng.integers(max(2, n_v - 1), 6))
            g = random_mixed_graph(
                rng, n_v, n_e, windy=windy,
                directed_frac=float(rng.choice([0.0, 0.4, 0.7])),
            )
            if g is None:
                continue
            if windy and not any(not e.symmetric for e in g.undirected):
                continue
            refs = list(g.edge_refs())
            required = None
            if rural:
                if len(refs) < 2:
                    continue
                count = int(rng.integers(1, len(refs)))
                chosen = rng.choice(len(refs), size=count, replace=False)
                required = frozenset(refs[i] for i in chosen)
            vs = sorted(g.vertices)
            start = stop = None
            if endpoint_mode == "closed":
                start = stop = int(rng.choice(vs))
            elif endpoint_mode == "start":
                start = int(rng.choice(vs))
            elif endpoint_mode == "stop":
                stop = int(rng.choice(vs))
            i_max = int(rng.integers(3, 7))
            try:
                spec = ProblemSpec(
                    graph=g, start=start, stop=stop,
                    required_edges=required, i_max=i_max,
                )
                oracle = exact_walk_oracle(spec, node_limit=500_000)
                compiled = compile_general(spec)
            except Exception:
                continue
            if len(compiled.registry) > 24:
                continue
            pen = default_penalties(spec)
            made = GeneralInstance(
                spec, compiled, pen, compiled.qubo(pen),
                oracle.objective_weight, (endpoint_mode, rural, windy),
            )
            break
        assert made is not None, "generator failed to build an instance"
        instances.append(made)
        slot += 1
    return instances


@pytest.fixture(scope="session")
def ground_cache() -> dict:
    """Brute-force reports shared between criteria 2/3 and 8."""
    return {}


def ground_report(cache: dict, key: str, qubo: Qubo):
    if key not in cache:
        cache[key] = brute_force(qubo)
    return cache[key]


# --------------------------------------------------------------------------
# criterion 1: worked single-variable example, end to end
# --------------------------------------------------------------------------

def test_criterion_01_single_variable_golden():
    started = time.perf_counter()
    g = Graph.build(
        range(6),
        undirected=[(3, 2, 5), (2, 1, 1), (1, 0, 1), (0, 5, 2), (5, 4, 5),
                    (4, 2, 5), (5, 2, 4)],
    )
    compiled = compile_pairing(g, p=10.0)
    qubo, registry = compiled.qubo(), compiled.registry
    assert len(registry) == 1
    assert qubo.energy([0]) == 10.0
    assert qubo.energy([1]) == 9.0
    report = brute_force(qubo)
    pairing = decode_pairing(report.best_assignment, registry)
    assert pairing.pairs == frozenset({(3, 5)})
    from postqubo import augment_and_route

    solution = augment_and_route(g, pairing)
    assert solution.objective_weight == 32.0
    walk = solution.single_walk()
    assert walk.closed
    covered = {(min(s.frm, s.to), max(s.frm, s.to)) for s in walk.steps}
    assert covered == {(e.a, e.b) for e in g.undirected}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - golden single-variable instance, {elapsed:.3f}s")


# --------------------------------------------------------------------------
# criterion 2: pairing oracle equivalence on 50 instances
# --------------------------------------------------------------------------

def test_criterion_02_pairing_oracle_equivalence(pairing_suite, ground_cache):
    started = time.perf_counter()
    exact = 0
    for k, inst in enumerate(pairing_suite):
        report = ground_report(ground_cache, f"pair{k}", inst.qubo)
        pairing = decode_pairing(report.best_assignment, inst.registry)
        sp = shortest_paths(inst.graph)
        added = sum(sp.distance(a, b) for a, b in pairing.pairs)
        assert added == inst.oracle_added, f"instance {k}: {added} != {inst.oracle_added}"
        exact += 1
    elapsed = time.perf_counter() - started
    assert exact == 50
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2: PASS - 50/50 pairing optima match the oracle, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 3: general ground states equal the walk oracle on 30 specs
# --------------------------------------------------------------------------

def test_criterion_03_general_ground_truth(general_suite, ground_cache):
    started = time.perf_counter()
    tags = set()
    for k, inst in enumerate(general_suite):
        report = ground_report(ground_cache, f"gen{k}", inst.qubo)
        solution = inst.compiled.decode(report.best_assignment)
        assert solution.is_valid, f"instance {k} ground state decodes invalid"
        assert solution.objective_weight == inst.oracle_weight, (
            f"instance {k}: decoded {solution.objective_weight} != oracle {inst.oracle_weight}"
        )
        assert report.best_energy == solution.objective_weight
        tags.add(inst.tag)
    elapsed = time.perf_counter() - started
    assert len(general_suite) == 30
    # the suite really walks through closed/open/endpoint/rural/windy mixes
    assert {t[0] for t in tags} == {"closed", "open", "start", "stop"}
    assert any(t[1] for t in tags) and any(t[2] for t in tags)
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 3: PASS - 30/30 ground states equal the oracle, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 4: zero penalty <=> decoded validity, exhaustively
# --------------------------------------------------------------------------

def _independent_validity_table(compiled: CompiledGeneral) -> np.ndarray:
    """Boolean table over all assignments, built from the registry labels and
    walk rules only (no reuse of the compiler's constraint polynomials)."""
    spec = compiled.spec
    labels = compiled.registry.labels
    n = len(labels)
    edge_labels = [
        (i, lab) for i, lab in enumerate(labels) if isinstance(lab, EdgeStep)
    ]
    slack_labels = [
        (i, lab) for i, lab in enumerate(labels) if isinstance(lab, RequiredSlack)
    ]
    terminal = any(lab.to == TERMINAL for _, lab in edge_labels)
    ok = np.ones(1 << n, dtype=bool)

    # exactly one move per step
    steps = sorted({lab.step for _, lab in edge_labels})
    for step in steps:
        q = Qubo(n)
        for i, lab in edge_labels:
            if lab.step == step:
                add_linear(q, i, 1.0)
        ok &= enumerate_all_energies(q) == 1.0

    # consecutive moves must chain (or repeat the very same arc variable)
    def allowed(a: EdgeStep, b: EdgeStep) -> bool:
        if b.frm == a.to:
            return True
        if terminal:
            return False
        return (a.frm, a.to, a.kind, a.mode) == (b.frm, b.to, b.kind, b.mode) and \
            a.mode in (MODE_PLAIN, MODE_TRAVERSE)

    q = Qubo(n)
    for (i, la), (j, lb) in itertools.product(edge_labels, edge_labels):
        if lb.step == la.step + 1 and not allowed(la, lb):
            add_quadratic(q, i, j, 1.0)
    ok &= enumerate_all_energies(q) == 0.0

    # every required edge: visits - 1 - slack register == 0
    for ref in spec.resolved_required():
        q = Qubo(n)
        for i, lab in edge_labels:
            lab_ref = (
                EdgeRef("u", min(lab.frm, lab.to), max(lab.frm, lab.to))
                if lab.kind == "u"
                else EdgeRef("d", lab.frm, lab.to)
            )
            if lab.kind != "t" and lab_ref == ref:
                add_linear(q, i, 1.0)
        for i, lab in slack_labels:
            if EdgeRef(lab.kind, lab.frm, lab.to) == ref:
                add_linear(q, i, -float(2**lab.bit))
        add_offset(q, -1.0)
        ok &= enumerate_all_energies(q) == 0.0
    return ok


def test_criterion_04_zero_penalty_iff_validity(general_suite):
    checked_pairs = 0
    for k, inst in enumerate(general_suite):
        compiled = inst.compiled
        n = len(compiled.registry)
        hard = Qubo(n)
        for c in compiled.constraints.values():
            hard.add_scaled(c, 1.0)
        sums = enumerate_all_energies(hard)
        valid_table = _independent_validity_table(compiled)
        agree = (np.abs(sums) < 1e-9) == valid_table
        assert agree.all(), f"instance {k}: {int((~agree).sum())} counterexamples"
        checked_pairs += len(sums)
        # tie the algebra back to the decoder itself
        zero_idx = np.flatnonzero(np.abs(sums) < 1e-9)
        sample = zero_idx if len(zero_idx) <= 400 else zero_idx[:400]
        for idx in sample:
            x = [(int(idx) >> j) & 1 for j in range(n)]
            assert compiled.decode(x).is_valid
        rng = np.random.default_rng(9000 + k)
        for idx in rng.integers(0, 1 << n, size=150):
            x = [(int(idx) >> j) & 1 for j in range(n)]
            assert compiled.decode(x).is_valid == bool(valid_table[int(idx)])
    print(f"\nACCEPTANCE 4: PASS - equivalence over {checked_pairs} assignments, 0 counterexamples")


# --------------------------------------------------------------------------
# criterion 5: extension constraint unit suites
# --------------------------------------------------------------------------

def _family_value(compiled: CompiledGeneral, family: str, x) -> float:
    value = compiled.constraints[family].energy(x)
    # cross-check: energy at unit penalties minus objective is the family sum
    pen = PenaltyConfig.uniform(1.0)
    total = compiled.qubo(pen).energy(x) - compiled.objective.energy(x)
    families = sum(c.energy(x) for c in compiled.constraints.values())
    assert total == pytest.approx(families, abs=1e-9)
    return value


def test_criterion_05_extension_constraint_suites():
    cases = 0

    # turning: the objective exceeds the route weight exactly when the taxed
    # pair is consecutive
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    spec = ProblemSpec(graph=g, i_max=4, turn_penalties=(TurnPenalty(0, 1, 2, 3.0),))
    compiled = compile_general(spec, encoding=ENC_REPETITION)
    violating = [
        [(0, 1), (1, 2), (2, 0)],
        [(0, 1), (1, 2)],
        [(2, 0), (0, 1), (1, 2)],
        [(0, 1), (1, 2), (2, 0), (0, 1)],
        [(1, 2), (2, 0), (0, 1), (1, 2)],
    ]
    satisfying = [
        [(1, 2), (2, 0), (0, 1)],
        [(2, 0), (0, 1)],
        [(1, 2), (2, 0)],
        [(0, 1)],
        [(1, 2)],
    ]

    def turn_cost(walk) -> float:
        x = encode_route(compiled, [walk])
        return compiled.objective.energy(x) - compiled.decode(x).objective_weight

    for walk in violating:
        assert turn_cost(walk) > 0.0
        cases += 1
    for walk in satisfying:
        assert turn_cost(walk) == 0.0
        cases += 1

    # service/traversal: required edges serviced exactly once
    g = Graph.build(range(3), undirected=[(0, 1, 2), (1, 2, 3)])
    spec = ProblemSpec(graph=g, service=ServiceMode(), i_max=3)
    compiled = compile_general(spec, encoding=ENC_TERMINAL)
    violating_s = [
        [(0, 1, "traverse"), (1, 2, "traverse")],          # nothing serviced
        [(0, 1, "service"), (1, 2, "traverse")],           # one of two
        [(0, 1, "service"), (1, 0, "service"), (0, 1, "service")],  # double service
        [(1, 2, "service"), (2, 1, "traverse")],
        [(0, 1, "traverse"), (1, 2, "service")],
    ]
    satisfying_s = [
        [(0, 1, "service"), (1, 2, "service")],
        [(2, 1, "service"), (1, 0, "service")],
        [(0, 1, "service"), (1, 2, "service"), (2, 1, "traverse")],
        [(1, 0, "service"), (0, 1, "traverse"), (1, 2, "service")],
        [(1, 2, "service"), (2, 1, "traverse"), (1, 0, "service")],
    ]
    for walk in violating_s:
        assert _family_value(compiled, "required", encode_route(compiled, [walk])) > 0.0
        cases += 1
    for walk in satisfying_s:
        assert _family_value(compiled, "required", encode_route(compiled, [walk])) == 0.0
        cases += 1

    # hierarchy: the first edge must be serviced before the second
    g = Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    first, second = EdgeRef("d", 1, 2), EdgeRef("d", 0, 1)
    spec = ProblemSpec(graph=g, service=ServiceMode(), hierarchy=((first, second),), i_max=4)
    compiled = compile_general(spec, encoding=ENC_TERMINAL)
    sv = "service"
    # the terminal encoding ends a walk no earlier than step 3, one per required edge
    violating_h = [
        [(0, 1, sv), (1, 2, sv), (2, 0, sv)],
        [(0, 1, sv), (1, 2, sv), (2, 0, "traverse")],
        [(2, 0, sv), (0, 1, sv), (1, 2, sv)],
        [(0, 1, sv), (1, 2, sv), (2, 0, "traverse"), (0, 1, "traverse")],
        [(2, 0, "traverse"), (0, 1, sv), (1, 2, sv), (2, 0, sv)],
    ]
    satisfying_h = [
        [(1, 2, sv), (2, 0, sv), (0, 1, sv)],
        [(1, 2, sv), (2, 0, "traverse"), (0, 1, sv)],
        [(1, 2, sv), (2, 0, sv), (0, 1, "traverse")],
        [(0, 1, "traverse"), (1, 2, sv), (2, 0, sv), (0, 1, sv)],
        [(2, 0, sv), (0, 1, "traverse"), (1, 2, "traverse")],
    ]
    for walk in violating_h:
        assert _family_value(compiled, "hierarchy", encode_route(compiled, [walk])) > 0.0
        cases += 1
    for walk in satisfying_h:
        assert _family_value(compiled, "hierarchy", encode_route(compiled, [walk])) == 0.0
        cases += 1

    # k-postman rest: rest is absorbing, one action per step
    g = Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])
    spec = ProblemSpec(graph=g, postmen=Postmen(count=2), i_max=2)
    compiled = compile_general(spec)

    def rest_bits(walks, tamper=None):
        x = encode_route(compiled, walks)
        if tamper:
            for label, value in tamper:
                x[compiled.registry.index_of(label)] = value
        return x

    rest_sum = lambda x: (
        compiled.constraints["one_edge"].energy(x)
        + compiled.constraints["adjacency"].energy(x)
    )
    violating_r = [
        # resting and moving on the same step
        rest_bits([[(0, 1)], [(1, 2)]], tamper=[(RestVar(0, 0), 1)]),
        # resuming movement after a rest
        rest_bits([[], []], tamper=[
            (RestVar(0, 0), 0),
            (EdgeStep(1, 0, 1, "plain", 0, "u"), 1), (RestVar(1, 0), 0),
        ]),
        rest_bits([[(0, 1)], []], tamper=[(RestVar(1, 1), 0)]),  # idle step 1
        rest_bits([[], [(1, 0)]], tamper=[(RestVar(0, 0), 0)]),
        rest_bits([[(0, 1), (1, 2)], [(1, 0)]], tamper=[(RestVar(1, 0), 1)]),
    ]
    satisfying_r = [
        encode_route(compiled, [[(0, 1), (1, 2)], [(1, 0)]]),
        encode_route(compiled, [[(0, 1)], [(1, 2), (2, 1)]]),
        encode_route(compiled, [[], [(1, 0), (0, 1)]]),
        encode_route(compiled, [[(1, 0)], [(1, 2)]]),
        encode_route(compiled, [[], []]),
    ]
    for x in violating_r:
        assert rest_sum(x) > 0.0
        _family_value(compiled, "one_edge", x)
        cases += 1
    for x in satisfying_r:
        assert rest_sum(x) == 0.0
        cases += 1

    # collisions: two postmen on the same arc at the same step
    spec = ProblemSpec(
        graph=g, postmen=Postmen(count=2), forbid_edge_collisions=True, i_max=2
    )
    compiled = compile_general(spec)
    violating_c = [
        [[(0, 1)], [(0, 1)]],
        [[(0, 1), (1, 2)], [(0, 1)]],
        [[(1, 2)], [(1, 2)]],
        [[(1, 0)], [(1, 0)]],
        [[(0, 1), (1, 2)], [(0, 1), (1, 2)]],
    ]
    satisfying_c = [
        [[(0, 1)], [(1, 0)]],
        [[(0, 1)], [(1, 2)]],
        [[(0, 1), (1, 2)], [(1, 0)]],
        [[(0, 1)], []],
        [[(1, 0), (0, 1)], [(1, 2), (2, 1)]],
    ]
    for walks in violating_c:
        assert _family_value(compiled, "collision", encode_route(compiled, walks)) > 0.0
        cases += 1
    for walks in satisfying_c:
        assert _family_value(compiled, "collision", encode_route(compiled, walks)) == 0.0
        cases += 1

    # capacity: walk weight must fit under the cap, slack makes up the rest
    g = Graph.build(range(3), undirected=[(0, 1, 2), (1, 2, 3)])
    spec = ProblemSpec(graph=g, postmen=Postmen(count=1, capacities=(5,)), i_max=3)
    compiled = compile_general(spec)
    violating_k = [
        [[(0, 1), (1, 2), (2, 1)]],              # weight 8 > 5
        [[(1, 2), (2, 1), (1, 2)]],              # weight 9
        [[(2, 1), (1, 2), (2, 1)]],
        [[(1, 2), (2, 1), (1, 0)]],              # weight 8
        [[(0, 1), (1, 0), (0, 1)]],              # weight 6
    ]
    satisfying_k = [
        [[(0, 1), (1, 2)]],                       # weight 5, slack 0
        [[(0, 1)]],                               # weight 2, slack 3
        [[(1, 2)]],
        [[(0, 1), (1, 0)]],                       # weight 4, slack 1
        [[(2, 1)]],
    ]
    for walks in violating_k:
        assert _family_value(compiled, "capacity", encode_route(compiled, walks)) > 0.0
        cases += 1
    for walks in satisfying_k:
        assert _family_value(compiled, "capacity", encode_route(compiled, walks)) == 0.0
        cases += 1

    assert cases >= 60
    print(f"\nACCEPTANCE 5: PASS - {cases} hand-built assignments, 0 counterexamples")


# --------------------------------------------------------------------------
# criterion 6: repetition and terminal encodings agree
# --------------------------------------------------------------------------

def test_criterion_06_encoding_agreement():
    rng = np.random.default_rng(91006)
    agreements = 0
    while agreements < 10:
        g = random_mixed_graph(
            rng, 3, 3, windy=bool(rng.integers(0, 2)),
            directed_frac=float(rng.choice([0.0, 0.5])),
        )
        if g is None:
            continue
        spec = ProblemSpec(graph=g, i_max=int(rng.integers(3, 5)))
        try:
            exact_walk_oracle(spec)
        except NoValidSolution:
            continue
        pen = default_penalties(spec)
        energies = {}
        for encoding in (ENC_REPETITION, ENC_TERMINAL):
            compiled = compile_general(spec, encoding=encoding)
            if len(compiled.registry) > 24:
                break
            report = brute_force(compiled.qubo(pen))
            assert compiled.decode(report.best_assignment).is_valid
            energies[encoding] = report.best_energy
        else:
            assert energies[ENC_REPETITION] == energies[ENC_TERMINAL]
            agreements += 1
    print("\nACCEPTANCE 6: PASS - 10/10 instances, optimal legal energies equal")


# --------------------------------------------------------------------------
# criterion 7: penalty monotonicity
# --------------------------------------------------------------------------

def test_criterion_07_penalty_monotonicity(general_suite):
    rng = np.random.default_rng(91007)
    triples = 0
    while triples < 100:
        inst = general_suite[triples % len(general_suite)]
        compiled = inst.compiled
        n = len(compiled.registry)
        if triples % 3 == 0:
            # roughly a third of the assignments are valid encodes
            oracle = exact_walk_oracle(inst.spec)
            steps = [(s.frm, s.to) for s in oracle.single_walk().steps]
            if not steps and compiled.encoding == ENC_REPETITION:
                triples += 1
                continue
            x = encode_route(compiled, [steps])
        else:
            x = [int(b) for b in rng.integers(0, 2, n)]
        pen = inst.pen
        doubled = pen.scaled(list(compiled.constraints), 2.0)
        gap = compiled.qubo(doubled).energy(x) - compiled.qubo(pen).energy(x)
        expected = sum(
            (doubled.value(f) - pen.value(f)) * c.energy(x)
            for f, c in compiled.constraints.items()
        )
        assert abs(gap - expected) <= 1e-9
        valid = compiled.decode(x).is_valid
        if valid:
            assert gap == 0.0
        else:
            assert gap > 0.0
        triples += 1
    print("\nACCEPTANCE 7: PASS - 100 monotonicity triples, exact gaps")


# --------------------------------------------------------------------------
# criterion 8: heuristic regression floor at documented defaults
# --------------------------------------------------------------------------

def test_criterion_08_heuristic_regression_floor(pairing_suite, general_suite, ground_cache):
    qubos = [(f"pair{k}", inst.qubo) for k, inst in enumerate(pairing_suite)]
    qubos += [(f"gen{k}", inst.qubo) for k, inst in enumerate(general_suite)]
    rates = {}
    for solver in ("sa+greedy", "tabu+greedy"):
        hits = 0
        total = 0
        for key, qubo in qubos:
            ground = ground_report(ground_cache, key, qubo).best_energy
            for seed in range(10):
                sampler = make_sampler(solver, seed=seed)
                if sampler(qubo).best_energy == ground:
                    hits += 1
                total += 1
        rates[solver] = hits / total
        assert rates[solver] >= 0.90, f"{solver}: {rates[solver]:.3f} < 0.90"
    print(
        "\nACCEPTANCE 8: PASS - ground-state rates "
        + ", ".join(f"{s}={r:.3f}" for s, r in rates.items())
    )


# --------------------------------------------------------------------------
# criterion 9: retune recovers from a deliberately weak penalty
# --------------------------------------------------------------------------

def test_criterion_09_retune_behavior():
    rng = np.random.default_rng(91009)
    recovered = 0
    for k in range(20):
        d = 4 if k % 2 == 0 else 6
        g = random_graph_with_odd_count(rng, d, max_weight=8)
        pen = PenaltyConfig.uniform(0.1 * g.max_weight)

        def builder(p: PenaltyConfig) -> CompiledInstance:
            compiled = compile_pairing(g, p.p_pairing)
            return CompiledInstance(
                compiled.qubo(), compiled.decode, compiled.constraint_values
            )

        try:
            report, solution = solve_with_retune(builder, pen, brute_force, max_retunes=5)
        except NoValidSolution:
            continue
        assert solution.is_valid
        check = compile_pairing(g, 1.0)
        assert check.constraint_values(report.best_assignment)["pairing"] == 0.0
        recovered += 1
    assert recovered >= 18
    print(f"\nACCEPTANCE 9: PASS - {recovered}/20 instances valid within 5 retunes")


# --------------------------------------------------------------------------
# criterion 10: bench reruns are byte identical
# --------------------------------------------------------------------------

def test_criterion_10_bench_determinism(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "fig.json").write_text(json.dumps({
        "vertices": [0, 1, 2, 3, 4, 5],
        "undirected": [[3, 2, 5], [2, 1, 1], [1, 0, 1], [0, 5, 2], [5, 4, 5],
                       [4, 2, 5], [5, 2, 4]],
    }))
    (suite / "walk.json").write_text(json.dumps({
        "graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 2]]},
        "start": 0, "i_max": 4,
    }))
    assert cli_main([
        "oracle", str(suite),
    ]) == 0
    args = ["bench", str(suite), "--solver", "sa+greedy,tabu+greedy",
            "--seeds", "0,1,2", "--reads", "25", "--sweeps", "80"]
    assert cli_main(args + ["--out", str(tmp_path / "one.csv")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "two.csv")]) == 0
    one = (tmp_path / "one.csv").read_bytes()
    two = (tmp_path / "two.csv").read_bytes()
    assert one == two
    print("\nACCEPTANCE 10: PASS - bench reruns byte-identical")
