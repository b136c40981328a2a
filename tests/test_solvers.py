import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from postqubo import (
    Graph,
    NotPerfectPairing,
    NoValidSolution,
    Pairing,
    PairVar,
    PenaltyConfig,
    ProblemSpec,
    Qubo,
    ServiceMode,
    SpecError,
    TooLarge,
    brute_force,
    decode_pairing,
    default_pairing_penalty,
    greedy_descent,
    greedy_post,
    make_sampler,
    simulated_annealing,
    solve_with_retune,
    tabu_search,
)
from postqubo import solvers
from postqubo.errors import QuboError
from postqubo.pairing import compile_pairing
from postqubo.solvers import CompiledInstance
from conftest import (
    add_linear,
    add_offset,
    add_quadratic,
    bits_from_index,
    enumerate_all_energies,
    naive_energy,
    random_graph_with_odd_count,
)


def paper_instance() -> Qubo:
    q = Qubo(1)
    add_linear(q, 0, 9.0)
    square = Qubo(1)
    square.add_square_penalty([0], [-1.0], 1.0)
    q.add_scaled(square, 10.0)
    return q


def random_qubo(rng, n) -> Qubo:
    q = Qubo(n)
    add_offset(q, float(rng.integers(-3, 4)))
    for i in range(n):
        add_linear(q, i, float(rng.integers(-9, 10)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                add_quadratic(q, i, j, float(rng.integers(-9, 10)))
    return q


# --- exhaustive enumeration -----------------------------------------------------

def test_enumerate_energies_matches_naive(rng):
    for _ in range(20):
        n = int(rng.integers(1, 10))
        q = random_qubo(rng, n)
        table = enumerate_all_energies(q)
        for idx in range(1 << n):
            assert table[idx] == pytest.approx(naive_energy(q, bits_from_index(idx, n)))


# --- brute force ------------------------------------------------------------------

def test_brute_force_paper_instance():
    report = brute_force(paper_instance())
    assert report.best_energy == 9.0
    assert list(report.best_assignment) == [1]


def test_brute_force_tie_breaks_lexicographically():
    report = brute_force(Qubo(3))
    assert report.best_energy == 0.0
    assert list(report.best_assignment) == [0, 0, 0]
    # [0, 1] and [1, 0] tie at -1; the lowest index (x_0 = 1) would give [1, 0]
    q = Qubo(2)
    add_linear(q, 0, -1.0)
    add_linear(q, 1, -1.0)
    add_quadratic(q, 0, 1, 1.0)
    report = brute_force(q)
    assert report.best_energy == -1.0
    assert list(report.best_assignment) == [0, 1]


def assert_matches_reverse_reenumeration(q: Qubo) -> None:
    n = q.n
    report = brute_force(q)
    best = float("inf")
    best_bits = None
    # independent second pass in reverse enumeration order
    for idx in range((1 << n) - 1, -1, -1):
        x = bits_from_index(idx, n)
        e = naive_energy(q, x)
        if e < best or (e == best and tuple(x) <= tuple(best_bits)):
            best, best_bits = e, tuple(x)
    assert report.best_energy == pytest.approx(best)
    assert tuple(report.best_assignment) == best_bits


def test_brute_force_matches_reverse_reenumeration(rng):
    for _ in range(5):
        assert_matches_reverse_reenumeration(random_qubo(rng, 12))


def test_brute_force_size_cap():
    with pytest.raises(TooLarge):
        brute_force(Qubo(29))


# --- block boundaries -------------------------------------------------------------------

@pytest.fixture(params=[1, 2, 3, 4])
def small_blocks(request, monkeypatch):
    """Enumerate in blocks of 2^1 to 2^4 assignments, so small QUBOs span many blocks."""
    monkeypatch.setattr(solvers, "_BLOCK_BITS", request.param)
    return request.param


def test_blocked_energies_match_naive(rng, small_blocks):
    for n in range(11):
        q = random_qubo(rng, n)
        table = enumerate_all_energies(q)
        assert [float(e) for e in table] == [
            naive_energy(q, bits_from_index(idx, n)) for idx in range(1 << n)
        ]


def test_blocked_brute_force_matches_reverse_reenumeration(rng, small_blocks):
    for n in range(11):
        assert_matches_reverse_reenumeration(random_qubo(rng, n))


def test_blocked_edge_cases(small_blocks):
    empty = Qubo(0)
    add_offset(empty, 2.5)
    assert list(enumerate_all_energies(empty)) == [2.5]
    report = brute_force(empty)
    assert (report.best_energy, list(report.best_assignment)) == (2.5, [])
    assert list(enumerate_all_energies(paper_instance())) == [10.0, 9.0]
    assert list(brute_force(paper_instance()).best_assignment) == [1]
    for n in (1, 2, 5, 10):
        assert not enumerate_all_energies(Qubo(n)).any()
        report = brute_force(Qubo(n))
        assert report.best_energy == 0.0 and not report.best_assignment.any()
        assert report.samples_evaluated == 1 << n


def test_blocked_ties_in_different_blocks(small_blocks):
    # minima (1,0,0,0) and (0,0,0,1) tie at -1: index 1 and index 8, in
    # different blocks unless a block holds all four bits; the tuple rule
    # picks (0,0,0,1), whose block is visited last
    q = Qubo(4)
    add_linear(q, 0, -1.0)
    add_linear(q, 1, 1.0)
    add_linear(q, 2, 1.0)
    add_linear(q, 3, -1.0)
    add_quadratic(q, 0, 3, 2.0)
    report = brute_force(q)
    assert report.best_energy == -1.0
    assert list(report.best_assignment) == [0, 0, 0, 1]
    assert_matches_reverse_reenumeration(q)


def test_size_cap_is_checked_before_allocating():
    q = Qubo(29)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            brute_force(q)
        with pytest.raises(TooLarge):
            enumerate_all_energies(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_brute_force_memory_is_bounded(rng):
    # the 2^24-entry energy table alone would take 128 MB
    q = random_qubo(rng, 24)
    tracemalloc.start()
    try:
        report = brute_force(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.samples_evaluated == 1 << 24
    assert peak <= 8 << 20


# --- exhaustive layer pinned byte for byte ---------------------------------------------

def _pinned_qubo(n: int, integer: bool, density: float) -> Qubo:
    """Seeded QUBO with integer or normal coefficients and the given coupling density."""
    rng = np.random.default_rng(1000 * n + 10 * integer + int(10 * density))

    def coefficient() -> float:
        return float(rng.integers(-9, 10)) if integer else float(rng.normal())

    q = Qubo(n)
    add_offset(q, coefficient())
    for i in range(n):
        add_linear(q, i, coefficient())
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                add_quadratic(q, i, j, coefficient())
    return q


# sha256 prefixes over each size's four QUBOs (integer and normal coefficients,
# sparse and dense): the energy table's bytes, brute force's assignment and energy
PINNED_EXHAUSTIVE = {
    0: "76c92c68784b4eb8",
    1: "e03a0202d66f2f86",
    5: "a10180c6053453de",
    13: "0587c7784d7b761b",
    14: "a675b346af92f072",
    15: "b9e5b0d87ccd5b3a",
    17: "b5092c4172fa746d",
    20: "29160a2532bc47e5",
    22: "81047e3f7408e62a",
}


@pytest.mark.parametrize("n", sorted(PINNED_EXHAUSTIVE))
def test_exhaustive_layer_is_pinned(n):
    lines = []
    for integer in (True, False):
        for density in (0.2, 0.9):
            q = _pinned_qubo(n, integer, density)
            table = enumerate_all_energies(q)
            report = brute_force(q)
            bits = "".join(str(int(b)) for b in report.best_assignment)
            lines.append(f"{hashlib.sha256(table.tobytes()).hexdigest()} {bits} {report.best_energy!r}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == PINNED_EXHAUSTIVE[n]


# --- greedy descent -----------------------------------------------------------------

def test_greedy_single_variable_always_optimal():
    for seed in range(5):
        report = greedy_descent(paper_instance(), starts=1, seed=seed)
        assert report.best_energy == 9.0


def test_greedy_post_from_zero_reaches_paper_optimum():
    q = paper_instance()
    start = brute_force(Qubo(1))  # assignment [0]
    report = greedy_post(q, start)
    assert report.best_energy == 9.0
    assert list(report.best_assignment) == [1]


def assert_single_flip_optimal(q: Qubo, x) -> None:
    x = list(x)
    for flip in range(q.n):
        flipped = list(x)
        flipped[flip] = 1 - flipped[flip]
        assert q.energy(flipped) - q.energy(x) > -1e-9


def test_greedy_output_is_single_flip_optimal(rng):
    for _ in range(10):
        q = random_qubo(rng, int(rng.integers(2, 10)))
        report = greedy_descent(q, starts=8, seed=int(rng.integers(0, 100)))
        assert_single_flip_optimal(q, report.best_assignment)


def test_greedy_never_worse_than_start(rng):
    for _ in range(10):
        q = random_qubo(rng, 8)
        x0 = [int(b) for b in rng.integers(0, 2, 8)]
        seeded = brute_force(Qubo(8))
        seeded = seeded.__class__(**{**seeded.__dict__, "best_assignment": np.array(x0, dtype=np.uint8)})
        out = greedy_post(q, seeded)
        assert out.best_energy <= q.energy(x0) + 1e-9


# --- simulated annealing -----------------------------------------------------------

def test_sa_single_variable():
    report = simulated_annealing(paper_instance(), sweeps=20, reads=1, seed=0)
    assert report.best_energy == 9.0


def test_sa_cold_schedule_is_locally_optimal(rng):
    q = random_qubo(rng, 8)
    report = simulated_annealing(
        q, sweeps=60, beta_schedule=(50.0, 60.0), reads=4, seed=2
    )
    assert_single_flip_optimal(q, report.best_assignment)


def test_sa_reaches_ground_on_pairing_instances(rng):
    # one hundred seeded runs on a six-odd-vertex pairing instance
    g = random_graph_with_odd_count(rng, 6)
    q = compile_pairing(g, p=default_pairing_penalty(g)).qubo()
    ground = brute_force(q).best_energy
    hits = sum(
        simulated_annealing(q, seed=s).best_energy == ground for s in range(100)
    )
    assert hits >= 95


def test_sa_is_bit_reproducible(rng):
    q = random_qubo(rng, 10)
    a = simulated_annealing(q, sweeps=50, reads=8, seed=7)
    b = simulated_annealing(q, sweeps=50, reads=8, seed=7)
    assert a.best_energy == b.best_energy
    assert (a.best_assignment == b.best_assignment).all()


# --- tabu search ----------------------------------------------------------------------

def test_tabu_single_variable():
    report = tabu_search(paper_instance(), seed=0)
    assert report.best_energy == 9.0


def test_tabu_with_huge_tenure_still_descends(rng):
    q = random_qubo(rng, 6)
    report = tabu_search(q, tenure=50, iterations=300, seed=1)
    assert_single_flip_optimal(q, report.best_assignment)


def test_tabu_tenure_past_the_run_is_the_run_length(rng):
    q = random_qubo(rng, 6)
    report = tabu_search(q, tenure=40, iterations=40, seed=2)
    for tenure in (41, 2**63, 10**20):
        longer = tabu_search(q, tenure=tenure, iterations=40, seed=2)
        assert np.array_equal(longer.best_assignment, report.best_assignment)
        assert longer.best_energy == report.best_energy


def test_tabu_reaches_ground_on_pairing_instances(rng):
    g = random_graph_with_odd_count(rng, 6)
    q = compile_pairing(g, p=default_pairing_penalty(g)).qubo()
    ground = brute_force(q).best_energy
    hits = sum(tabu_search(q, seed=s).best_energy == ground for s in range(100))
    assert hits >= 95


def test_tabu_is_bit_reproducible(rng):
    q = random_qubo(rng, 10)
    a = tabu_search(q, iterations=200, seed=9)
    b = tabu_search(q, iterations=200, seed=9)
    assert a.best_energy == b.best_energy
    assert (a.best_assignment == b.best_assignment).all()


# --- greedy post-processing --------------------------------------------------------------

def test_greedy_post_fixed_point_on_local_optimum(rng):
    q = random_qubo(rng, 8)
    first = greedy_descent(q, starts=4, seed=3)
    second = greedy_post(q, first)
    assert second.best_energy == first.best_energy
    assert (second.best_assignment == first.best_assignment).all()


def test_greedy_post_never_hurts_sa(rng):
    for seed in range(6):
        q = random_qubo(rng, 10)
        sa = simulated_annealing(q, sweeps=10, beta_schedule=(0.05, 0.1), reads=2, seed=seed)
        post = greedy_post(q, sa)
        assert post.best_energy <= sa.best_energy + 1e-9
        assert post.solver_name == "sa+greedy"


def test_greedy_post_repairs_one_flip(rng):
    for _ in range(10):
        q = random_qubo(rng, 8)
        ground = brute_force(q)
        x = list(ground.best_assignment)
        flip = int(rng.integers(0, 8))
        x[flip] = 1 - x[flip]
        damaged = ground.__class__(
            **{**ground.__dict__, "best_assignment": np.array(x, dtype=np.uint8)}
        )
        repaired = greedy_post(q, damaged)
        assert repaired.best_energy == ground.best_energy


# --- report invariants ---------------------------------------------------------------------

def test_best_energy_is_fresh_evaluation(rng):
    q = random_qubo(rng, 9)
    for report in (
        brute_force(q),
        greedy_descent(q, starts=4, seed=1),
        simulated_annealing(q, sweeps=40, reads=4, seed=1),
        tabu_search(q, iterations=150, seed=1),
    ):
        assert report.best_energy == pytest.approx(q.energy(report.best_assignment), abs=0)


# --- retune loop ------------------------------------------------------------------------------

def pairing_builder(g):
    def build(pen: PenaltyConfig) -> CompiledInstance:
        compiled = compile_pairing(g, pen.p_pairing)
        return CompiledInstance(compiled.qubo(), compiled.decode, compiled.constraint_values)

    return build


def test_retune_not_needed_with_good_penalty(rng):
    g = random_graph_with_odd_count(rng, 4)
    pen = PenaltyConfig.uniform(default_pairing_penalty(g))
    report, solution = solve_with_retune(pairing_builder(g), pen, brute_force)
    assert report.retunes == 0
    assert solution.is_valid


def test_retune_recovers_from_tiny_penalty(rng):
    # the documented failure mode: dropping a pair saves more than it costs
    for _ in range(5):
        g = random_graph_with_odd_count(rng, 4)
        pen = PenaltyConfig.uniform(0.1 * g.max_weight)
        report, solution = solve_with_retune(pairing_builder(g), pen, brute_force)
        assert solution.is_valid
        x = report.best_assignment
        compiled = compile_pairing(g, 1.0)
        assert compiled.constraint_values(x)["pairing"] == 0.0


def test_retune_gives_up_after_budget():
    g = random_graph_with_odd_count(np.random.default_rng(3), 4)
    pen = PenaltyConfig.uniform(1e-4)
    with pytest.raises(NoValidSolution):
        solve_with_retune(pairing_builder(g), pen, brute_force, max_retunes=0)


def test_make_sampler_names():
    q = paper_instance()
    for name in ("brute", "greedy", "sa", "tabu", "sa+greedy", "tabu+greedy"):
        sampler = make_sampler(name, seed=1, sweeps=20, reads=2, iterations=50)
        assert sampler(q).best_energy == 9.0
    with pytest.raises(ValueError):
        make_sampler("quantum")


@pytest.mark.parametrize("sample", [
    brute_force, greedy_descent, simulated_annealing, tabu_search,
    lambda q: greedy_post(q, simulated_annealing(q)),
], ids=["brute", "greedy", "sa", "tabu", "greedy_post"])
def test_a_qubo_without_variables_is_solved_at_its_offset(sample):
    q = Qubo(0)
    add_offset(q, 2.5)
    report = sample(q)
    assert report.best_assignment.shape == (0,)
    assert report.best_energy == 2.5


def test_each_sampler_call_runs_its_own_stream():
    g = random_graph_with_odd_count(np.random.default_rng(8), 6)
    q = compile_pairing(g, default_pairing_penalty(g)).qubo()
    step = 0x9E3779B97F4A7C15
    seed = 2**64 - 5  # call 1's seed wraps around 2^64
    sampler = make_sampler("tabu", seed=seed, iterations=40)
    first, second = sampler(q), sampler(q)
    for report, k in ((first, 0), (second, 1)):
        alone = tabu_search(q, iterations=40, seed=(seed + k * step) % 2**64)
        assert np.array_equal(report.best_assignment, alone.best_assignment)
    assert not np.array_equal(first.best_assignment, second.best_assignment)
    replay = make_sampler("tabu", seed=seed, iterations=40)(q)
    assert np.array_equal(replay.best_assignment, first.best_assignment)


@pytest.mark.parametrize("sample", [
    lambda q: simulated_annealing(q, beta_schedule=(0.0, 1.0)),
    lambda q: simulated_annealing(q, beta_schedule=(-1.0, 1.0)),
    lambda q: simulated_annealing(q, beta_schedule=(0.1, float("inf"))),
    lambda q: simulated_annealing(q, beta_schedule=(float("nan"), 1.0)),
    lambda q: tabu_search(q, iterations=0),
    lambda q: tabu_search(q, iterations=-3),
])
def test_samplers_reject_bad_schedules(sample):
    with pytest.raises(ValueError):
        sample(paper_instance())


def _path_graph() -> Graph:
    return Graph.build(range(3), undirected=[(0, 1, 1), (1, 2, 1)])


API_ARGUMENT_ERRORS = {
    "greedy-no-starts": (lambda: greedy_descent(paper_instance(), starts=0),
                         ValueError, "at least one start"),
    "greedy-post-other-length": (
        lambda: greedy_post(paper_instance(), brute_force(Qubo(2))), ValueError, "length 2 != 1"),
    "sa-no-reads": (lambda: simulated_annealing(paper_instance(), reads=0),
                    ValueError, "reads and sweeps"),
    "sa-no-sweeps": (lambda: simulated_annealing(paper_instance(), sweeps=0),
                     ValueError, "reads and sweeps"),
    "tabu-no-tenure": (lambda: tabu_search(paper_instance(), tenure=0), ValueError, "tenure"),
    "negative-retunes": (
        lambda: solve_with_retune(pairing_builder(_path_graph()), PenaltyConfig.uniform(1.0),
                                  brute_force, max_retunes=-1),
        ValueError, "max_retunes"),
    "zero-pairing-penalty": (lambda: compile_pairing(_path_graph(), p=0), ValueError, "positive"),
    "overlapping-pairs": (lambda: Pairing(frozenset({(0, 1), (1, 2)})),
                          NotPerfectPairing, "not disjoint"),
    "pair-of-one-vertex": (lambda: PairVar(1, 1), QuboError, "two distinct vertices"),
    "negative-variable-count": (lambda: Qubo(-1), QuboError, "non-negative"),
    "unknown-stop": (lambda: ProblemSpec(graph=_path_graph(), stop=7),
                     SpecError, "stop vertex 7 not in graph"),
    "service-override-on-missing-arc": (
        lambda: ProblemSpec(graph=_path_graph(),
                            service=ServiceMode(service_overrides=((0, 2, "u", 1.0),))),
        SpecError, "missing arc"),
    "weight-of-missing-arc": (
        lambda: ProblemSpec(graph=_path_graph()).weight(0, (0, 2, "u"), "plain"),
        SpecError, "no arc 0->2 of kind u"),
}


@pytest.mark.parametrize("case", list(API_ARGUMENT_ERRORS))
def test_documented_argument_errors(case):
    call, error, fragment = API_ARGUMENT_ERRORS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
