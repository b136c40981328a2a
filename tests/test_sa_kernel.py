"""The streamed simulated-annealing kernel and the shared flip update against
the earlier straightforward implementations, kept here as references."""

import collections
import hashlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postqubo import (
    InfeasibleEndpoints,
    ProblemSpec,
    Qubo,
    default_penalties,
    greedy_descent,
    greedy_post,
    make_sampler,
    simulated_annealing,
    tabu_search,
)
from postqubo import solvers
from postqubo.general import compile_general
from postqubo.pairing import compile_pairing, default_pairing_penalty
from postqubo.solvers import (
    _EPS,
    _acceptance_thresholds,
    _finish,
    _row_energies,
    _word_floors,
)
from conftest import (
    add_linear,
    add_offset,
    add_quadratic,
    random_graph_with_odd_count,
    random_mixed_graph,
)


def reference_simulated_annealing(
    q, sweeps=1000, beta_schedule=(0.1, 10.0), reads=1000, seed=0, events=None
):
    """Annealing one variable at a time, with every draw taken up front from
    one default_rng(seed mod 2^64) stream: the (reads, n) initial uniforms,
    then raw 64-bit words, each split low half first into two 32-bit draws in
    (sweep, read, variable) order.  A draw's top 23 bits k give
    v = 1 - k / 2^23 in (0, 1] and the float32 threshold -log(v)/beta.
    A list passed as `events` receives (sweep, variable, read, energy, state)
    for every accepted flip."""
    beta_min, beta_max = beta_schedule
    t0 = time.perf_counter()
    n = q.n
    lin = q.as_arrays()[0].astype(np.float32)
    sym = q.dense_symmetric().astype(np.float32)
    betas = np.geomspace(beta_min, beta_max, sweeps).astype(np.float32)
    gen = np.random.default_rng(seed % 2**64)
    inits = gen.random((reads, n))
    total = sweeps * reads * n
    words = gen.bit_generator.random_raw((total + 1) // 2)
    draws = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()[:total]
    v = (1.0 - (draws >> 9) * 2.0**-23).astype(np.float32).reshape(sweeps, reads, n)
    # accept d with probability exp(-beta * max(d, 0)): d < -log(v)/beta
    thresholds = -np.log(v) / betas[:, None, None]
    x = (inits < 0.5).astype(np.float32)
    deltas = (1.0 - 2.0 * x) * (lin + x @ sym)
    current = _row_energies(q, x.astype(np.float64))
    best_energy = float(current.min())
    best_state = x[int(np.argmin(current))].copy()
    for s in range(sweeps):
        for i in range(n):
            rows = np.flatnonzero(deltas[:, i] < thresholds[s, :, i])
            if not len(rows):
                continue
            sign = 1.0 - 2.0 * x[rows, i]
            x[rows, i] = 1.0 - x[rows, i]
            old = deltas[rows, i].copy()
            deltas[rows, :] += (1.0 - 2.0 * x[rows, :]) * sym[i, :] * sign[:, None]
            deltas[rows, i] = -old
            current[rows] += old
            if events is not None:
                events += [(s, i, int(r), float(current[r]), x[r].astype(np.uint8)) for r in rows]
            floor = float(current[rows].min())
            if floor < best_energy:
                best_energy = floor
                best_state = x[rows[int(np.argmin(current[rows]))]].copy()
    return _finish(q, best_state, reads * sweeps * n, t0, "sa", seed)


def reference_descend(q, states):
    """Steepest single-flip descent, with 0/1 states updated in place."""
    lin = q.as_arrays()[0]
    sym = q.dense_symmetric()
    x = states.astype(np.float64)
    deltas = (1.0 - 2.0 * x) * (lin + x @ sym)
    flips = 0
    while True:
        best_col = np.argmin(deltas, axis=1)
        best_val = deltas[np.arange(len(x)), best_col]
        rows = np.flatnonzero(best_val < -_EPS)
        if not len(rows):
            return x, flips
        cols = best_col[rows]
        flips += len(rows)
        sign = 1.0 - 2.0 * x[rows, cols]
        x[rows, cols] = 1.0 - x[rows, cols]
        old = deltas[rows, cols].copy()
        deltas[rows, :] += (1.0 - 2.0 * x[rows, :]) * sym[cols, :] * sign[:, None]
        deltas[rows, cols] = -old


def reference_tabu(q, seed, tenure=None, iterations=None):
    """Tabu search, one 0/1 row, with a masked argmin over every variable at
    each iteration; tenure and iteration count default as in `tabu_search`."""
    n = q.n
    if tenure is None:
        tenure = max(10, n // 10)
    if iterations is None:
        iterations = 1000 + 10 * n
    lin = q.as_arrays()[0]
    sym = q.dense_symmetric()
    x = (np.random.default_rng(seed).random(n) < 0.5).astype(np.float64)
    deltas = (1.0 - 2.0 * x) * (lin + x @ sym)
    current = float(q.energy(x))
    best_state, best_energy = x.copy(), current
    tabu_until = np.zeros(n, dtype=np.int64)
    for it in range(iterations):
        candidate = deltas.copy()
        blocked = (tabu_until > it) & ~(current + deltas < best_energy - _EPS)
        if blocked.all():
            blocked[:] = False
        candidate[blocked] = np.inf
        j = int(np.argmin(candidate))
        sign = 1.0 - 2.0 * x[j]
        x[j] = 1.0 - x[j]
        old = deltas[j]
        deltas += (1.0 - 2.0 * x) * sym[j, :] * sign
        deltas[j] = -old
        current += old
        tabu_until[j] = it + 1 + tenure
        if current < best_energy:
            best_energy, best_state = current, x.copy()
    return best_state


@st.composite
def random_qubos(draw, max_n):
    """Random QUBOs with integer or real coefficients: n, coupling density and
    coefficients drawn."""
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coefficient(bound):
        return float(rng.uniform(-bound, bound) if real else rng.integers(-bound, bound + 1))

    q = Qubo(n)
    add_offset(q, coefficient(3))
    for i in range(n):
        add_linear(q, i, coefficient(9))
        for j in range(i + 1, n):
            if rng.random() < density:
                add_quadratic(q, i, j, coefficient(9))
    return q


def same_report(a, b) -> bool:
    return (
        a.best_energy == b.best_energy
        and a.samples_evaluated == b.samples_evaluated
        and np.array_equal(a.best_assignment, b.best_assignment)
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    # up to 40 variables and few reads, so the best state often shows up late
    q=random_qubos(max_n=40),
    reads=st.integers(1, 12),
    sweeps=st.integers(1, 100),  # crosses sweep-block boundaries, full and partial
    seed=st.integers(0, 2**63 - 1),
    beta_min=st.floats(0.01, 2.0),
    ratio=st.floats(1.1, 200.0),
)
def test_sa_matches_reference_bit_for_bit(q, reads, sweeps, seed, beta_min, ratio):
    schedule = (beta_min, beta_min * ratio)
    new = simulated_annealing(q, sweeps=sweeps, beta_schedule=schedule, reads=reads, seed=seed)
    ref = reference_simulated_annealing(
        q, sweeps=sweeps, beta_schedule=schedule, reads=reads, seed=seed
    )
    assert same_report(new, ref)


def test_sa_breaks_best_state_ties_like_the_reference():
    """Coefficients in -2..2 and many reads: several reads often first reach
    the lowest energy in the same sweep, and the event-driven sweep meets them
    out of (variable, read) order."""
    for case in range(40):
        rng = np.random.default_rng(case)
        n = int(rng.integers(6, 14))
        q = Qubo(n)
        for i in range(n):
            add_linear(q, i, float(rng.integers(-2, 3)))
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    add_quadratic(q, i, j, float(rng.integers(-2, 3)))
        args = dict(sweeps=int(rng.integers(1, 6)), beta_schedule=(0.1, 1.0),
                    reads=int(rng.integers(20, 200)), seed=case)
        assert same_report(simulated_annealing(q, **args), reference_simulated_annealing(q, **args))


def test_sa_matches_reference_with_hundreds_of_live_reads(monkeypatch):
    """A 28-variable pairing QUBO at 250 reads and the default beta range:
    the hot sweeps flip and re-test hundreds of reads at once, which the
    few-read cases above never reach."""
    g = random_graph_with_odd_count(np.random.default_rng(5), 8)
    q = compile_pairing(g, default_pairing_penalty(g)).qubo()
    assert q.n == 28
    live = []
    flip = solvers._flip

    def counted(spins, deltas, signed, rows, cols):
        live.append(len(rows))
        return flip(spins, deltas, signed, rows, cols)

    monkeypatch.setattr(solvers, "_flip", counted)
    args = dict(sweeps=300, reads=250, seed=7)
    assert same_report(simulated_annealing(q, **args), reference_simulated_annealing(q, **args))
    assert max(live) >= 200


def test_sa_keeps_the_first_state_to_reach_the_lowest_energy():
    """x = 0 and x = (1, 0, 0, 0) both have the lowest energy, 0, and no
    initial state has it.  Some read first reaches it in sweep 0; later
    sweeps reach it again, at positions earlier in (variable, read) order and
    in another state.  Those ties come from a later sweep, so the first state
    stays the report."""
    q = Qubo(4)
    for i, c in enumerate([0.0, 2.0, 1.0, 2.0]):
        add_linear(q, i, c)
    add_quadratic(q, 0, 2, 2.0)
    add_quadratic(q, 0, 3, 2.0)
    args = dict(sweeps=9, beta_schedule=(0.5, 3.0), reads=5, seed=1)
    events = []
    ref = reference_simulated_annealing(q, **args, events=events)
    lowest = [e for e in events if e[3] == ref.best_energy]
    sweep, var, read, _, state = lowest[0]
    assert sweep == 0 and ref.best_energy == 0.0
    assert any(
        s > sweep and (v, r) < (var, read) and not np.array_equal(x, state)
        for s, v, r, _, x in lowest
    )
    report = simulated_annealing(q, **args)
    assert same_report(report, ref)
    assert np.array_equal(report.best_assignment, state)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=random_qubos(max_n=16), seed=st.integers(0, 2**32 - 1))
def test_greedy_and_tabu_match_references_bit_for_bit(q, seed):
    starts = (np.random.default_rng(seed).random((8, q.n)) < 0.5).astype(np.float64)
    final, flips = reference_descend(q, starts)
    report = greedy_descent(q, starts=8, seed=seed)
    best = int(np.argmin(_row_energies(q, final)))
    assert report.samples_evaluated == 8 + flips
    assert np.array_equal(report.best_assignment, final[best].astype(np.uint8))

    polished = greedy_post(q, report)
    again, _ = reference_descend(q, final[best : best + 1])
    assert np.array_equal(polished.best_assignment, again[0].astype(np.uint8))

    tabu = tabu_search(q, seed=seed)
    assert np.array_equal(tabu.best_assignment, reference_tabu(q, seed).astype(np.uint8))


def test_tabu_matches_reference_on_compiled_general_qubos(monkeypatch):
    """Compiled general QUBOs revisit states, so tabu's cycle stop ends some
    runs early; the reports stay those of the full run.  Moves are counted
    on the recency deque."""
    moves = []

    class CountingDeque(collections.deque):
        def append(self, v):
            moves[-1] += 1
            super().append(v)

    monkeypatch.setattr(solvers, "deque", CountingDeque)
    rng = np.random.default_rng(5)
    full = []
    while len(moves) < 24:
        g = random_mixed_graph(rng, int(rng.integers(3, 6)), int(rng.integers(3, 7)),
                               windy=bool(rng.integers(2)), directed_frac=0.3)
        if g is None:
            continue
        spec = ProblemSpec(graph=g, start=int(rng.integers(0, 3)), i_max=int(rng.integers(3, 7)))
        try:
            q = compile_general(spec).qubo(default_penalties(spec))
        except InfeasibleEndpoints:
            continue
        seed = int(rng.integers(2**32))
        moves.append(0)
        report = tabu_search(q, seed=seed)
        iterations = 1000 + 10 * q.n
        best = reference_tabu(q, seed)
        assert same_report(report, _finish(q, best, iterations * q.n, 0.0, "tabu", seed))
        full.append(iterations)
    assert 0 < sum(m < f for m, f in zip(moves, full)) < len(moves)


def small_integer_or_real_qubo(rng, n):
    """Coefficients in -2..2, so argmin ties and the aspiration boundary
    occur, or real ones in (-2, 2); random coupling density."""
    real = bool(rng.integers(2))
    density = float(rng.choice([0.05, 0.2, 0.5, 1.0]))

    def coefficient():
        return float(rng.uniform(-2, 2) if real else rng.integers(-2, 3))

    q = Qubo(n)
    add_offset(q, coefficient())
    for i in range(n):
        add_linear(q, i, coefficient())
        for j in range(i + 1, n):
            if rng.random() < density:
                add_quadratic(q, i, j, coefficient())
    return q


def test_tabu_matches_reference_up_to_ninety_variables():
    """Sizes up to those the general-compiler QUBOs reach, tenure from 1 to
    n + 5 and short runs as well as default ones."""
    for case in range(60):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 91))
        q = small_integer_or_real_qubo(rng, n)
        tenure = int(rng.integers(1, n + 6))
        iterations = int(rng.integers(1, 120)) if case % 4 else None
        seed = int(rng.integers(2**32))
        report = tabu_search(q, tenure=tenure, iterations=iterations, seed=seed)
        best = reference_tabu(q, seed, tenure, iterations)
        samples = (iterations or 1000 + 10 * n) * n
        assert same_report(report, _finish(q, best, samples, 0.0, "tabu", seed))


def test_tabu_falls_back_to_the_best_move_when_all_are_tabu():
    """tenure >= n: once every variable has moved within the tenure and no
    move beats the best energy, every move is tabu and the plain best one
    is taken."""
    for n in (1, 2, 5, 12):
        for seed in range(5):
            q = small_integer_or_real_qubo(np.random.default_rng(100 + 10 * n + seed), n)
            report = tabu_search(q, tenure=n + 3, iterations=80, seed=seed)
            best = reference_tabu(q, seed, n + 3, 80)
            assert same_report(report, _finish(q, best, 80 * n, 0.0, "tabu", seed))
    # here, flipping variable 0 instead of the best move whenever all are
    # tabu changes the reported state
    q = Qubo(5)
    add_offset(q, 2.0)
    for i, c in enumerate([1.0, -1.0, -2.0, 1.0]):
        add_linear(q, i, c)
    couplings = [(0, 1, -1), (0, 2, 1), (0, 3, -1), (0, 4, -1), (1, 2, 1), (2, 4, 1), (3, 4, -1)]
    for i, j, c in couplings:
        add_quadratic(q, i, j, float(c))
    report = tabu_search(q, tenure=6, iterations=8, seed=96)
    assert same_report(report, _finish(q, reference_tabu(q, 96, 6, 8), 40, 0.0, "tabu", 96))


def test_extreme_bits_give_finite_thresholds_without_warning():
    # only the top 23 bits count: 0x1FF is all-zero there, 0x80000000 is v = 1/2
    bits = np.array([[[0, 0x1FF, 0x80000000, 0xFFFFFFFF]]], dtype=np.uint32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thresholds = _acceptance_thresholds(bits, np.array([0.5], dtype=np.float32))
    assert thresholds.dtype == np.float32
    assert thresholds[0, 0, 0] == 0.0 and thresholds[0, 0, 1] == 0.0  # only downhill moves
    assert np.all(np.isfinite(thresholds))
    assert np.allclose(thresholds[0, 0, 2:], [np.log(2) / 0.5, 23 * np.log(2) / 0.5], rtol=1e-6)


@pytest.mark.parametrize("block", [1, 2, 16, 1000])
def test_sa_reports_do_not_depend_on_the_sweep_block(monkeypatch, block):
    """Odd reads * n and sweep counts that leave a partial last block; the
    word budget is set to `block` sweeps, or below one sweep for block 1,
    and a block of 1000 holds every sweep at once."""
    rng = np.random.default_rng(17)
    cases = []
    for n, reads, sweeps in ((7, 5, 37), (9, 3, 5), (12, 4, 33)):
        q = Qubo(n)
        for i in range(n):
            add_linear(q, i, float(rng.integers(-4, 5)))
            for j in range(i + 1, n):
                add_quadratic(q, i, j, float(rng.integers(-4, 5)))
        cases.append((q, dict(sweeps=sweeps, beta_schedule=(0.2, 3.0), reads=reads, seed=n)))
    monkeypatch.setattr(solvers, "_SWEEP_BLOCK", max(block, 16))
    for q, args in cases:
        size = args["reads"] * q.n
        monkeypatch.setattr(solvers, "_WORD_BUDGET", block * size if block > 1 else size - 1)
        assert same_report(simulated_annealing(q, **args), reference_simulated_annealing(q, **args))


def test_sa_default_memory_is_bounded_by_the_sweep_block():
    g = random_graph_with_odd_count(np.random.default_rng(5), 8)
    q = compile_pairing(g, default_pairing_penalty(g)).qubo()
    assert q.n == 28
    tracemalloc.start()
    try:
        simulated_annealing(q, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # drawing every threshold up front peaked above 300 MB here
    assert peak < 40e6


def test_sa_memory_at_a_million_proposals_per_sweep_is_bounded_by_the_word_budget():
    """At reads * n = 2^20 a block is one sweep of 4 MB of words; sixteen
    sweeps held at once took 64 MB.  Every flip costs 10 at a beta near 1,
    so about 50 proposals a sweep pass and the sweeps stay cheap."""
    n, reads = 64, 1 << 14
    q = Qubo(n)
    for i in range(n):
        add_linear(q, i, 10.0)
    tracemalloc.start()
    try:
        report = simulated_annealing(q, sweeps=20, beta_schedule=(1.0, 1.1), reads=reads, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.best_energy == 0.0
    assert peak < 48e6


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
def test_sa_seeds_above_int64_get_their_own_streams(seed):
    q = Qubo(32)  # flat: the best state stays read 0's initial draw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulated_annealing(q, sweeps=2, reads=3, seed=seed)
    read_0 = np.random.default_rng(seed % 2**64).random((3, 32))[0]
    assert np.array_equal(report.best_assignment, (read_0 < 0.5).astype(np.uint8))
    seed_zero = simulated_annealing(q, sweeps=2, reads=3, seed=0)
    assert not np.array_equal(report.best_assignment, seed_zero.best_assignment)


@pytest.mark.parametrize(
    "beta", [0.1, 1.0, 10.0, *np.exp(np.random.default_rng(23).uniform(-7.0, 7.0, 3)).tolist()]
)
def test_no_word_draws_a_threshold_above_the_all_ones_word(beta):
    """Annealing stops once no flip energy change is below the all-ones word's
    threshold, which is exact only if float32 log gives no other top-23-bit
    value a larger one; all 2^23 of them are checked."""
    betas = np.array([beta], dtype=np.float32)
    bits = np.arange(1 << 23, dtype=np.uint32).reshape(1, 1, -1)
    bits <<= 9
    ceiling = _acceptance_thresholds(np.full((1, 1, 1), 0xFFFFFFFF, np.uint32), betas).item()
    assert _acceptance_thresholds(bits, betas).max() == ceiling


@pytest.mark.parametrize(
    "beta",
    [*solvers._BETA_RANGE, 0.1, 1.0, 10.0,
     *np.exp(np.random.default_rng(29).uniform(-7.0, 7.0, 3)).tolist()],
)
def test_no_word_below_its_floor_draws_a_threshold_above_low(beta):
    """A sweep before the block's first flip converts only the words at or
    above its floor, which is exact only if no word below the floor draws a
    threshold above the smallest flip energy change; all 2^23 top-23-bit
    values are checked at changes equal to, just below and just above
    threshold values, and between them."""
    betas = np.array([beta], dtype=np.float32)
    words = np.arange(1 << 23, dtype=np.uint32) << 9
    thresholds = _acceptance_thresholds(words.reshape(1, 1, -1).copy(), betas).ravel()
    highest = np.maximum.accumulate(thresholds)  # highest[k]: the largest of words 0..k
    lows = [np.float32(1e-45), np.float32(1e-30), np.float32(0.5), np.float32(7.0)]
    for k in (1, 2, 3, 1000, 1 << 20, 1 << 21, 2_000_000, 1 << 22, (1 << 23) - 2):
        t = thresholds[k]
        lows += [np.nextafter(t, np.float32(0)), t, np.nextafter(t, np.float32(np.inf)),
                 np.float32((np.float64(t) + np.float64(thresholds[k + 1])) / 2)]
    for low in (low for low in lows if low > 0):
        below = int(np.searchsorted(words, _word_floors(low, betas)[0]))  # words under the floor
        assert below == 0 or highest[below - 1] <= low
        # and the floor lets through at most a few hundred words that cannot pass
        assert words.size - below - np.count_nonzero(thresholds > low) <= 1 << 10


@pytest.mark.parametrize("schedule", [(1e-50, 1.0), (0.1, 1e39)])
def test_sa_rejects_betas_that_float32_cannot_hold(schedule):
    """Below about 4.7e-38 the largest threshold, 23 ln 2 / beta, overflows
    float32; above about 3.4e38 the beta itself does."""
    q = odd_delta_qubo(np.random.default_rng(3), 6, 1.0)
    with pytest.raises(ValueError, match="beta_min"):
        simulated_annealing(q, sweeps=4, beta_schedule=schedule, reads=2)


@pytest.mark.parametrize("schedule", [(5e-38, 1.0), (0.1, 3.4e38)])
def test_sa_runs_at_the_ends_of_the_float32_beta_range(schedule):
    q = odd_delta_qubo(np.random.default_rng(3), 6, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulated_annealing(q, sweeps=40, beta_schedule=schedule, reads=3, seed=1)
    assert np.isfinite(report.best_energy)


def odd_delta_qubo(rng, n, unit):
    """Odd multiples of `unit` as linear terms and even ones as couplings:
    every flip energy change is an odd multiple of `unit`, never zero, so a
    local minimum rejects every proposal once no threshold reaches `unit`."""
    q = Qubo(n)
    for i in range(n):
        add_linear(q, i, unit * float(2 * rng.integers(-3, 3) + 1))
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                add_quadratic(q, i, j, unit * float(2 * rng.integers(-3, 4)))
    return q


class CountedStream:
    """A default_rng stand-in that records the size of every raw-word draw
    (annealing draws once per block it runs) and passes the rest through."""

    def __init__(self, seed, draws):
        self.gen = np.random.Generator(np.random.PCG64(seed))
        self.bit_generator = self
        self.draws = draws

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def random_raw(self, size):
        self.draws.append(size)
        return self.gen.bit_generator.random_raw(size)


@pytest.fixture
def blocks_drawn(monkeypatch):
    """The 64-bit words drawn by each block an annealing call runs."""
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountedStream(seed, draws))
    return draws


def test_sa_stops_at_the_first_frozen_block_with_the_reference_report(blocks_drawn):
    """With changes of at least 200, above the 159 that any sweep at beta >=
    0.1 can accept, a read is frozen as soon as it reaches a local minimum:
    the run ends after one block.  Smaller units freeze in later blocks.
    The reference runs every sweep."""
    for case in range(24):
        rng = np.random.default_rng(case)
        unit = (200.0, 137.5, 23.7, 6.0)[case % 4]
        q = odd_delta_qubo(rng, int(rng.integers(2, 21)), unit)
        args = dict(sweeps=int(rng.integers(200, 400)), reads=int(rng.integers(1, 60)), seed=case)
        blocks_drawn.clear()
        report = simulated_annealing(q, **args)
        run = len(blocks_drawn)
        per_block = 2 * blocks_drawn[0] // (args["reads"] * q.n)  # sweeps in a full block
        assert same_report(report, reference_simulated_annealing(q, **args))
        assert run < -(-args["sweeps"] // per_block)
        if unit == 200.0:
            assert run <= 1


def test_sa_keeps_annealing_a_read_that_a_warmer_sweep_can_move():
    """x = (0, 0) is a local minimum (both flips cost 10) and (1, 1) the
    ground state at -20.  A read that starts at (0, 0) is not frozen: sweeps
    at beta near 0.1 accept a flip of 10 about one time in three, and the
    read then falls to (1, 1)."""
    q = Qubo(2)
    add_linear(q, 0, 10.0)
    add_linear(q, 1, 10.0)
    add_quadratic(q, 0, 1, -40.0)
    trapped = 0
    for seed in range(12):
        trapped += bool(np.random.default_rng(seed).random(2).min() >= 0.5)  # x = (0, 0)
        args = dict(sweeps=200, reads=1, seed=seed)
        report = simulated_annealing(q, **args)
        assert same_report(report, reference_simulated_annealing(q, **args))
        assert report.best_energy == -20.0
    assert trapped


# reports of the kernel before it stopped at a frozen block, when it ran all
# 63 blocks: (odd vertices, graph seed, annealing seed) -> (energy, bits)
PAIRING_REPORTS_AT_THE_DEFAULTS = {
    (6, 5, 3): (19.0, "000011000000100"),
    (8, 5, 3): (19.0, "0000001100000000001000000100"),
    (10, 5, 3): (32.0, "001000000000001000000001000000000101000000000"),
    (12, 9, 1): (18.0, "000010000000000100000000001000000001000010000000000000000000000001"),
}


@pytest.mark.parametrize("case", list(PAIRING_REPORTS_AT_THE_DEFAULTS))
def test_pairing_reports_at_the_defaults_are_pinned(case, blocks_drawn):
    odd, graph_seed, seed = case
    g = random_graph_with_odd_count(np.random.default_rng(graph_seed), odd)
    q = compile_pairing(g, default_pairing_penalty(g)).qubo()
    report = simulated_annealing(q, seed=seed)
    energy, bits = PAIRING_REPORTS_AT_THE_DEFAULTS[case]
    assert report.best_energy == energy
    assert "".join(map(str, report.best_assignment)) == bits
    assert report.samples_evaluated == 1000 * 1000 * q.n  # skipped proposals count
    assert len(blocks_drawn) < 63  # blocks hold at most 16 sweeps: frozen before the last


def general_pin_qubo(seed: int, vertices: int, edges: int, windy: bool, endpoints: str,
                     i_max) -> Qubo:
    """A mixed spec from `random_mixed_graph` at this seed, compiled under
    `auto` at the default penalties."""
    g = random_mixed_graph(np.random.default_rng(seed), vertices, edges,
                           windy=windy, directed_frac=0.3)
    first, last = min(g.vertices), max(g.vertices)
    start, stop = {"closed": (first, first), "start": (first, None), "stop": (None, last),
                   "open": (None, None)}[endpoints]
    kwargs = {} if i_max is None else {"i_max": i_max}
    spec = ProblemSpec(graph=g, start=start, stop=stop, **kwargs)
    return compile_general(spec).qubo(default_penalties(spec))


# equal penalties give these QUBOs zero-delta plateaus, which the random
# QUBOs above rarely reach; the last two are the 105- and 189-variable specs
# of `random_mixed_graph` seeds 1 and 2 at their default step budget.
# (seed, vertices, edges, windy, endpoints, i_max) -> sha256 prefixes of the
# `sa+greedy` report at 100 reads x 200 sweeps and the default `tabu+greedy`
# report: energy, bits and samples evaluated
GENERAL_REPORTS = {
    (3, 3, 3, True, "closed", 3): ("d0f8400371240bbe", "83f8f9d7d6fb8739"),
    (4, 4, 5, False, "closed", 4): ("7120a6a786f80c4e", "d1521683143379b6"),
    (4, 5, 6, False, "start", 5): ("5ecd139d1a524a83", "6b625697d40cc59a"),
    (5, 4, 5, True, "open", 4): ("1c1c2d6116f09bda", "520e5024cd9139d9"),
    (6, 4, 5, False, "stop", 4): ("4b0403811742f94c", "a9dc33915c87da58"),
    (7, 3, 3, True, "open", 5): ("d5239ccfbe99fb7e", "2abed9dff5a5c6f0"),
    (1, 4, 5, True, "open", None): ("e88af126c42478f7", "d874fc65c899f4d2"),
    (2, 5, 7, True, "open", None): ("a476de2f1e9219fa", "acab49bc3aecf823"),
}


@pytest.mark.parametrize("case", list(GENERAL_REPORTS))
def test_general_reports_of_sa_and_tabu_are_pinned(case):
    q = general_pin_qubo(*case)
    seed = case[0]
    digests = []
    for sampler in (make_sampler("sa+greedy", seed=seed, reads=100, sweeps=200),
                    make_sampler("tabu+greedy", seed=seed)):
        report = sampler(q)
        bits = "".join(map(str, report.best_assignment))
        line = f"{report.best_energy!r} {bits} {report.samples_evaluated}"
        digests.append(hashlib.sha256(line.encode()).hexdigest()[:16])
    assert tuple(digests) == GENERAL_REPORTS[case]
