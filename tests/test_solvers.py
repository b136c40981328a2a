import numpy as np
import pytest

from postqubo import (
    NoValidSolution,
    PenaltyConfig,
    Qubo,
    TooLarge,
    brute_force,
    decode_pairing,
    default_pairing_penalty,
    enumerate_all_energies,
    greedy_descent,
    greedy_post,
    make_sampler,
    simulated_annealing,
    solve_with_retune,
    tabu_search,
)
from postqubo.pairing import compile_pairing
from postqubo.solvers import CompiledInstance
from conftest import bits_from_index, naive_energy, random_graph_with_odd_count


def paper_instance() -> Qubo:
    q = Qubo(1)
    q.add_linear(0, 9.0)
    q.add_square_penalty([(0, -1.0)], constant=1.0, scale=10.0)
    return q


def random_qubo(rng, n) -> Qubo:
    q = Qubo(n)
    q.add_offset(float(rng.integers(-3, 4)))
    for i in range(n):
        q.add_linear(i, float(rng.integers(-9, 10)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                q.add_quadratic(i, j, float(rng.integers(-9, 10)))
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
    q.add_linear(0, -1.0)
    q.add_linear(1, -1.0)
    q.add_quadratic(0, 1, 1.0)
    report = brute_force(q)
    assert report.best_energy == -1.0
    assert list(report.best_assignment) == [0, 1]


def test_brute_force_matches_reverse_reenumeration(rng):
    for _ in range(5):
        n = 12
        q = random_qubo(rng, n)
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


def test_brute_force_size_cap():
    with pytest.raises(TooLarge):
        brute_force(Qubo(29))


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
