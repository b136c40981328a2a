"""Classical binary-quadratic samplers and the penalty-retune loop.

All stochastic solvers are bit-reproducible for a fixed (seed, parameters)
pair.  Greedy descent and annealing share one batch flip update (`_flip`);
tabu search keeps the local field lin + x @ sym, adds or subtracts one
coupling row in place per move, and rebuilds its flip energy changes from it
with one product, the same values bit for bit.
An annealing call draws from one stream, default_rng(seed mod 2^64): every
read's initial state, then raw 32-bit words in (sweep, read, variable)
order, one block of floor(_WORD_BUDGET / (reads * n)) sweeps at a time, at
least 1 and at most `_SWEEP_BLOCK`; their top 23 bits become acceptance
thresholds in place.  Only one block is alive at a time, so its words take
O(max(reads * n, _WORD_BUDGET)) memory.  Let low be the smallest flip energy
change at a block's start.  When low > 0, until the block's first accepted
flip each sweep compares its raw words with a floor below which no word's
threshold exceeds low; only the words at or above it are converted, and a
sweep where none passes is never converted.  From the first sweep with an
accepted proposal the rest of the block is converted.  All reads run
together and each sweep is event-driven: one comparison tests every read's
n proposals, and work is done only where a proposal is accepted, so each
read follows exactly the chain of a one-variable-at-a-time sweep.  One event
step flips every live read at its next accepted variable: the flipped
entries are read and written at flat positions, each read's signed coupling
row s_c * sym[c] is one gather from the stacked table [sym; -sym], and the
rows just updated are re-tested against the sweep's thresholds at their
later variables only.  A sweep with no accepted proposal costs one
comparison.  Before each block, if no read has a flip energy change below
the largest threshold any remaining sweep can draw, every later proposal is
a rejection fixed in advance and the call ends there; `samples_evaluated`
still counts reads * sweeps * n.  The result is the first state in (sweep,
variable, read) order that reaches the lowest energy seen.  A `make_sampler`
closure moves to a new seed on each call, so a retune does not replay the
stream of the attempt it follows.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NoValidSolution, TooLarge
from .qubo import PenaltyConfig, Qubo
from .routes import RouteSolution

BRUTE_FORCE_MAX_VARS = 28
_EPS = 1e-12


@dataclass(frozen=True)
class SolveReport:
    best_energy: float
    best_assignment: np.ndarray
    samples_evaluated: int
    wall_time: float
    solver_name: str
    seed: int
    retunes: int = 0


def _finish(q: Qubo, x: np.ndarray, samples: int, t0: float, name: str, seed: int) -> SolveReport:
    x = np.asarray(x, dtype=np.uint8)
    # reported energy is always a fresh evaluation of the assignment
    return SolveReport(
        best_energy=q.energy(x),
        best_assignment=x,
        samples_evaluated=samples,
        wall_time=time.perf_counter() - t0,
        solver_name=name,
        seed=seed,
    )


# --- exhaustive enumeration -------------------------------------------------

_BLOCK_BITS = 14  # low variables per enumerated block: 2^14 energies, 128 KB


def _energy_blocks(q: Qubo) -> Iterator[tuple[int, np.ndarray]]:
    """Check the cap, then return a generator of (h, block) pairs covering
    all 2^n assignments once: block[l] is the energy of index (h << L) + l,
    with L = min(n, _BLOCK_BITS) low bits and bit j of an index as x_j.

    The low table is a doubling fill: entry h + r (r < h = 2^i) is
    (entry r + lin_i) + cross_i[r], where cross_i[r] adds x_i's couplings
    to the set bits of r in increasing order.  Every other block is made
    from its parent by the same rule, one high bit at a time, so each entry
    is bit-identical to a doubling fill over all n variables.  A block is
    valid until the next one is drawn; memory is O((n - L) * 2^L).
    """
    n = q.n
    if n > BRUTE_FORCE_MAX_VARS:
        raise TooLarge(f"{n} variables > enumeration cap {BRUTE_FORCE_MAX_VARS}")
    low = min(n, _BLOCK_BITS)
    linear, qi, qj, qv = q.as_arrays()
    linear = linear.tolist()
    cols: list[dict[int, float]] = [{} for _ in range(n)]
    for i, j, v in zip(qi.tolist(), qj.tolist(), qv.tolist()):
        cols[j][i] = v  # i < j by construction
    path = np.empty((n - low + 1, 1 << low))  # one block per depth of the search
    scratch = np.empty(1 << low)
    cross = np.empty((n - low, 1 << low))  # each high variable's low-bit couplings
    block = path[0]
    block[0] = q.offset
    for i in range(n):
        row = scratch if i < low else cross[i - low]
        row[0] = 0.0
        for j in range(min(i, low)):
            hj = 1 << j
            c = cols[i].get(j)
            if c is None:
                row[hj : 2 * hj] = row[:hj]
            else:
                np.add(row[:hj], c, out=row[hj : 2 * hj])
        if i < low:
            h = 1 << i
            np.add(block[:h], linear[i], out=block[h : 2 * h])
            block[h : 2 * h] += scratch[:h]
    lin = linear[low:]
    high = [{j - low: c for j, c in cols[i].items() if j >= low} for i in range(low, n)]
    return _block_tree(0, (), path, scratch, cross, lin, high)


def _block_tree(h, on, path, scratch, cross, lin, high):
    """Yield block h (high bits `on`, ascending) from path[len(on)], then,
    depth first, every block that adds one high bit t above them."""
    depth = len(on)
    yield h, path[depth]
    for t in range(on[-1] + 1 if on else 0, len(lin)):
        couplings = cross[t]
        for b in on:
            c = high[t].get(b)
            if c is not None:
                couplings = np.add(couplings, c, out=scratch)
        child = path[depth + 1]
        np.add(path[depth], lin[t], out=child)
        child += couplings
        yield from _block_tree(h | 1 << t, on + (t,), path, scratch, cross, lin, high)


def bits_of(index: int, n: int) -> np.ndarray:
    return np.array([(index >> j) & 1 for j in range(n)], dtype=np.uint8)


def _first_tied(tied: np.ndarray) -> int:
    """Index of the tie with the lexicographically smallest bit tuple
    (x_0, x_1, ...): keep the ties with x_j = 0 whenever there are any."""
    index = 0
    for j in range(tied.size.bit_length() - 1):
        if tied[0::2].any():
            tied = tied[0::2]
        else:
            tied = tied[1::2]
            index |= 1 << j
    return index


def brute_force(q: Qubo) -> SolveReport:
    """Global minimum over all assignments; ties break to the
    lexicographically smallest bit tuple (x_0, x_1, ...).

    Blocks are enumerated one at a time, so memory stays O(n * 2^14)."""
    t0 = time.perf_counter()
    n = q.n
    best = None
    for h, block in _energy_blocks(q):
        least = block.min()
        if best is None or least <= best[0]:
            key = (least, bits_of(h * block.size + _first_tied(block == least), n).tolist())
            if best is None or key < best:
                best = key
    return _finish(q, best[1], 1 << n, t0, "brute", 0)


# --- local search -----------------------------------------------------------

def _row_energies(q: Qubo, states: np.ndarray) -> np.ndarray:
    lin, _, _, _ = q.as_arrays()
    sym = q.dense_symmetric()
    return q.offset + states @ lin + 0.5 * np.einsum("bi,bi->b", states @ sym, states)


def _flip(
    spins: np.ndarray, deltas: np.ndarray, signed: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flip spins[rows, cols] of s = 1 - 2x, one variable in each of distinct
    rows of a batch, keeping `deltas` the single-flip energy changes.
    `signed` stacks the couplings over their negation, [sym; -sym], so row
    c + n * (s_c < 0) is s_c * sym[c].  Return the change each flip made and
    a copy of the rows' new deltas, except that at each flipped column the
    copy still holds the change the flip made.  Every product is +-1 times a
    coupling, so the update is exact."""
    n = spins.shape[1]
    at = rows * n + cols
    old = deltas.take(at)
    sign = spins.take(at)
    spins.put(at, -sign)
    coupling = signed.take(cols + n * (sign < 0), axis=0)
    coupling *= spins.take(rows, axis=0)
    block = deltas.take(rows, axis=0)
    block += coupling
    deltas[rows] = block
    deltas.put(at, -old)
    return old, block


def _descend(q: Qubo, states: np.ndarray) -> tuple[np.ndarray, int]:
    """Steepest single-flip descent on each row until no move improves."""
    lin, _, _, _ = q.as_arrays()
    sym = q.dense_symmetric()
    signed = np.concatenate([sym, -sym])
    x = states.astype(np.float64)
    spins = 1.0 - 2.0 * x
    deltas = spins * (lin + x @ sym)
    flips = 0
    while True:
        rows = np.flatnonzero(deltas.min(axis=1) < -_EPS)
        if not len(rows):
            return (1.0 - spins) / 2.0, flips
        _flip(spins, deltas, signed, rows, np.argmin(deltas[rows], axis=1))
        flips += len(rows)


def greedy_descent(q: Qubo, starts: int = 64, seed: int = 0) -> SolveReport:
    """Steepest descent from `starts` random states; best local optimum wins."""
    if starts < 1:
        raise ValueError("need at least one start")
    t0 = time.perf_counter()
    if q.n == 0:
        return _finish(q, np.zeros(0), 1, t0, "greedy", seed)
    rng = np.random.default_rng(seed)
    states = (rng.random((starts, q.n)) < 0.5).astype(np.float64)
    final, flips = _descend(q, states)
    energies = _row_energies(q, final)
    best_row = int(np.argmin(energies))
    return _finish(q, final[best_row], starts + flips, t0, "greedy", seed)


def greedy_post(q: Qubo, report: SolveReport) -> SolveReport:
    """Descend from a previous report's best assignment; never worse."""
    t0 = time.perf_counter()
    start = np.asarray(report.best_assignment, dtype=np.float64).reshape(1, -1)
    if start.shape[1] != q.n:
        raise ValueError(f"assignment length {start.shape[1]} != {q.n}")
    if q.n == 0:
        return replace(report, solver_name=report.solver_name + "+greedy")
    final, flips = _descend(q, start)
    out = _finish(
        q,
        final[0],
        report.samples_evaluated + flips,
        t0,
        report.solver_name + "+greedy",
        report.seed,
    )
    return replace(
        out,
        retunes=report.retunes,
        wall_time=report.wall_time + out.wall_time,
    )


_SWEEP_BLOCK = 16  # the most sweeps of acceptance thresholds held in memory at once
_WORD_BUDGET = 1 << 18  # random words per block (1 MB): fewer sweeps at large reads * n

# the betas float32 holds with every threshold finite: a threshold is at most
# 23 ln 2 / beta, just under 16 / beta
_BETA_RANGE = (16 / float(np.finfo(np.float32).max), float(np.finfo(np.float32).max))


def _acceptance_thresholds(bits: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Turn uint32 random bits, shaped (sweeps, reads, n) with one beta per
    sweep, into acceptance thresholds in place; return them as a float32 view.

    The top 23 bits become the mantissa of f = 1.m in [1, 2), and v = 2 - f
    is exact and lies in (0, 1].  Accepting delta d with probability
    exp(-beta * max(d, 0)) is then the test d < -log(v)/beta, and no
    threshold is infinite, NaN or warns."""
    bits >>= 9
    bits |= 0x3F800000
    v = bits.view(np.float32)
    np.subtract(np.float32(2.0), v, out=v)
    np.log(v, out=v)
    np.divide(v, -betas[:, None, None], out=v)
    return v


def _word_floors(low: float, betas: np.ndarray) -> np.ndarray:
    """For low > 0, the smallest uint32 word per beta whose threshold can
    exceed low; every word below it draws a threshold <= low.

    A word with top 23 bits k has the threshold -log(1 - k / 2^23) / beta,
    above low only when k > 2^23 * -expm1(-beta * low).  float32's log and
    division are off by a few ulps, and by up to half the least subnormal
    below 2^-126, so the bound is taken at (low - 2^-149) * (1 - 2^-12) in
    float64 and rounded down."""
    bound = max((float(low) - 2**-149) * (1 - 2**-12), 0.0)
    k = np.floor(-np.expm1(betas.astype(np.float64) * -bound) * 2**23)
    return np.minimum(k.astype(np.uint64) << 9, 0xFFFFFFFF).astype(np.uint32)


def simulated_annealing(
    q: Qubo,
    sweeps: int = 1000,
    beta_schedule: tuple[float, float] = (0.1, 10.0),
    reads: int = 1000,
    seed: int = 0,
) -> SolveReport:
    """Metropolis sweeps over a geometric inverse-temperature ramp.

    Each read is an independent restart; all reads share one random stream.
    Uphill flips are accepted with probability exp(-beta * delta).  The run
    ends early, with the same report, once no read can accept any later
    proposal; the skipped proposals count as evaluated rejections.
    """
    beta_min, beta_max = beta_schedule
    lo, hi = _BETA_RANGE
    if not lo <= beta_min < beta_max <= hi:
        raise ValueError(f"need betas with {lo:.4g} <= beta_min < beta_max <= {hi:.4g}")
    if reads < 1 or sweeps < 1:
        raise ValueError("reads and sweeps must be >= 1")
    t0 = time.perf_counter()
    n = q.n
    if n == 0:
        return _finish(q, np.zeros(0), reads, t0, "sa", seed)
    lin, _, _, _ = q.as_arrays()
    # float32 state: exact for integer-valued instances, and the winning
    # assignment is re-evaluated in float64 at the end either way
    lin = lin.astype(np.float32)
    sym = q.dense_symmetric().astype(np.float32)
    betas = np.geomspace(beta_min, beta_max, sweeps).astype(np.float32)
    # the largest threshold each sweep can draw (all 23 top bits set, the
    # smallest v), then the largest over that sweep and every later one
    ceilings = _acceptance_thresholds(np.full((sweeps, 1, 1), 0xFFFFFFFF, np.uint32), betas)
    ceilings = np.maximum.accumulate(ceilings.ravel()[::-1])[::-1]

    gen = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    x = (gen.random((reads, n)) < 0.5).astype(np.float32)
    spins = 1.0 - 2.0 * x
    deltas = spins * (lin + x @ sym)
    current = _row_energies(q, x.astype(np.float64))
    best_row = int(np.argmin(current))
    # the best state is the first in (sweep, variable, read) order at the
    # lowest energy seen: events are met out of that order, so compare keys
    best_key = (float(current[best_row]), -1, 0, best_row)
    best_spins = spins[best_row].copy()

    signed = np.concatenate([sym, -sym])
    later = np.triu(np.ones((n, n), dtype=bool), 1)  # later[c, k]: k follows c in a sweep
    starts = np.arange(reads) * n  # where row i starts in a flattened (rows, n) array
    size = reads * n
    per_block = max(1, min(_SWEEP_BLOCK, _WORD_BUDGET // size))
    for first in range(0, sweeps, per_block):
        # the smallest flip energy change; fmin skips NaN, as `<` does below
        low = np.fmin.reduce(deltas, axis=None)
        if not low < ceilings[first]:
            break  # frozen: no later proposal can pass, so the rest are rejections
        count = min(per_block, sweeps - first)
        # one block of raw bits in (sweep, read, variable) order; the block
        # before it is no longer referenced, so only one is alive at a time
        words = gen.bit_generator.random_raw((count * size + 1) // 2)
        bits = words.view(np.uint32)[: count * size].reshape(count, reads, n)
        thresholds = bits.view(np.float32)  # each sweep's rows once converted
        quiet = low > 0  # until a flip, only a word at or above its floor can pass
        if quiet:
            floors = _word_floors(low, betas[first : first + count])
        else:
            _acceptance_thresholds(bits, betas[first : first + count])
        for s in range(count):
            sweep = first + s
            if quiet:
                hits = np.flatnonzero(bits[s] >= floors[s])
                if len(hits):  # test the words at or above the floor exactly
                    exact = _acceptance_thresholds(bits[s].take(hits)[None, None], betas[[sweep]])
                    hits = hits[deltas.take(hits) < exact[0, 0]]
                if not len(hits):
                    continue  # a quiet sweep stays raw words
                quiet = False
                _acceptance_thresholds(bits[s:], betas[sweep : first + count])
            else:
                hits = np.flatnonzero(deltas < thresholds[s])
                if not len(hits):
                    continue
            # each accepting read flips at its first accepted variable, then
            # re-tests only the later ones
            thr = thresholds[s]
            rows, cols = np.divmod(hits, n)
            lead = np.ones(len(hits), dtype=bool)
            np.not_equal(rows[1:], rows[:-1], out=lead[1:])
            rows, cols = rows[lead], cols[lead]
            while True:
                old, block = _flip(spins, deltas, signed, rows, cols)
                energies = current.take(rows)
                energies += old
                current.put(rows, energies)
                least = energies.min()
                # a tie met in a sweep after the best key's can never win
                if least < best_key[0] or least == best_key[0] and sweep <= best_key[1]:
                    ties = np.flatnonzero(energies == least)
                    k = ties[np.lexsort((rows[ties], cols[ties]))[0]]
                    key = (float(least), sweep, int(cols[k]), int(rows[k]))
                    if key < best_key:
                        best_key = key
                        best_spins = spins[rows[k]].copy()
                accept = block < thr.take(rows, axis=0)
                accept &= later.take(cols, axis=0)
                cols = accept.argmax(axis=1)
                more = accept.take(starts[: len(rows)] + cols)
                rows = rows[more]
                if not len(rows):
                    break
                cols = cols[more]
        words = bits = thresholds = thr = None
    return _finish(q, (1.0 - best_spins) / 2.0, reads * sweeps * n, t0, "sa", seed)


def tabu_search(
    q: Qubo,
    tenure: int | None = None,
    iterations: int | None = None,
    seed: int = 0,
) -> SolveReport:
    """Best-improvement single flips with a recency tabu and aspiration.

    Recently flipped variables stay tabu for `tenure` iterations unless the
    move would beat the incumbent best; when every move is tabu, the best
    one is taken.  The run is deterministic, so it stops at its first exact
    cycle: the rest would replay moves that found nothing better.
    """
    if iterations is not None and iterations < 1:
        raise ValueError("iterations must be >= 1")
    t0 = time.perf_counter()
    n = q.n
    if n == 0:
        return _finish(q, np.zeros(0), 1, t0, "tabu", seed)
    if tenure is None:
        tenure = max(10, n // 10)
    if tenure < 1:
        raise ValueError("tenure must be >= 1")
    if iterations is None:
        iterations = 1000 + 10 * n
    tenure = min(tenure, iterations)  # a longer tabu ends after the run either way
    lin, _, _, _ = q.as_arrays()
    sym = q.dense_symmetric()
    rows = list(sym)  # one view per row, so a move does not index sym
    rng = np.random.default_rng(seed)
    x = (rng.random(n) < 0.5).astype(np.float64)
    spins = 1.0 - 2.0 * x
    signs = spins.tolist()  # a list mirror of spins: each move reads its old spin here
    # the local field: deltas = spins * field, and a flip of j adds sym[j] to
    # the field in place when its spin was +1 and subtracts it when -1 (zero
    # diagonal); h - c = h + (-c) and s * (h + c) = s * h + s * c exactly for
    # s = +-1, so this is the batch `_flip` update bit for bit
    field = lin + x @ sym
    deltas = spins * field
    free = np.empty(n)  # deltas + barrier
    current = float(q.energy(x))
    best_spins = spins.copy()
    best_energy = current
    tabu_until = [0] * n
    barrier = np.zeros(n)  # inf exactly while a variable is tabu
    recent: deque[int] = deque(maxlen=tenure + 1)  # the variables flipped last
    # Brent's cycle check.  The next move depends only on spins, field,
    # current, best_energy and `recent` (the tabu timers and barrier follow
    # from it), so when that state recurs the run has entered a cycle; as
    # best_energy did not fall in between, no later move can improve on it.
    saved: tuple = (None, None)
    power = lam = 1
    for it in range(iterations):
        if it > tenure:
            v = recent[0]  # flipped at iteration it - 1 - tenure
            if tabu_until[v] == it:  # not flipped again since: its tabu ends now
                barrier[v] = 0.0
        j = int(deltas.argmin())
        old = deltas.item(j)
        # current + d < best - eps is monotone in d: if the best move is tabu
        # and misses aspiration, every tabu move misses it, so take the best
        # move that is not tabu, or the best move when all are tabu
        if tabu_until[j] > it and not current + old < best_energy - _EPS:
            k = int(np.add(deltas, barrier, out=free).argmin())
            if tabu_until[k] <= it:
                j, old = k, deltas.item(k)
        sign = signs[j]
        (np.add if sign > 0 else np.subtract)(field, rows[j], out=field)
        spins[j] = signs[j] = -sign
        np.multiply(spins, field, out=deltas)
        deltas[j] = -old
        current += old
        tabu_until[j] = it + 1 + tenure
        barrier[j] = np.inf
        recent.append(j)
        if current < best_energy:
            best_energy = current
            best_spins = spins.copy()
        if ((current, best_energy) == saved[:2] and recent == saved[2]
                and np.array_equal(spins, saved[3]) and field.tobytes() == saved[4]):
            break
        if lam == power:
            saved = (current, best_energy, recent.copy(), spins.copy(), field.tobytes())
            power, lam = 2 * power, 0
        lam += 1
    return _finish(q, (1.0 - best_spins) / 2.0, iterations * n, t0, "tabu", seed)


# --- retune loop -------------------------------------------------------------

Sampler = Callable[[Qubo], SolveReport]


@dataclass
class CompiledInstance:
    """What the retune loop needs from a compiled problem."""

    qubo: Qubo
    decode: Callable[[Sequence[int]], RouteSolution]
    constraint_values: Callable[[Sequence[int]], dict[str, float]]


def solve_with_retune(
    builder: Callable[[PenaltyConfig], CompiledInstance],
    pen: PenaltyConfig,
    sampler: Sampler,
    max_retunes: int = 5,
) -> tuple[SolveReport, RouteSolution]:
    """Solve, decode, validate; double the violated penalty families and
    retry until the decode is valid or the retune budget runs out."""
    if max_retunes < 0:
        raise ValueError("max_retunes must be >= 0")
    retunes = 0
    while True:
        instance = builder(pen)
        report = sampler(instance.qubo)
        solution = instance.decode(report.best_assignment)
        if solution.is_valid:
            return replace(report, retunes=retunes), solution
        values = instance.constraint_values(report.best_assignment)
        violated = sorted(fam for fam, v in values.items() if v > 1e-9)
        if retunes >= max_retunes or not violated:
            raise NoValidSolution(
                f"no valid decode after {retunes} retunes; "
                f"violated families: {violated or 'none'}"
            )
        pen = pen.scaled(violated, 2.0)
        retunes += 1


# --- named sampler construction ----------------------------------------------

SOLVER_NAMES = ("brute", "greedy", "sa", "tabu", "sa+greedy", "tabu+greedy")
_SEED_STEP = 0x9E3779B97F4A7C15  # 2^64 / golden ratio: the seed step per sampler call


def make_sampler(
    name: str,
    seed: int = 0,
    starts: int = 64,
    sweeps: int = 1000,
    reads: int = 1000,
    beta_schedule: tuple[float, float] = (0.1, 10.0),
    tenure: int | None = None,
    iterations: int | None = None,
) -> Sampler:
    """Sampler closure for a solver name like 'sa+greedy'.

    The closure counts its calls: call k runs at seed
    (seed + k * _SEED_STEP) mod 2^64, so a retune does not replay the stream
    of the attempt before it, and call 0 runs at `seed` itself.
    """
    if name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {name!r}; pick one of {SOLVER_NAMES}")
    base, _, post = name.partition("+")
    calls = 0

    def run(q: Qubo) -> SolveReport:
        nonlocal calls
        seed_k = (seed + calls * _SEED_STEP) & 0xFFFFFFFFFFFFFFFF
        calls += 1
        if base == "brute":
            report = brute_force(q)
        elif base == "greedy":
            report = greedy_descent(q, starts=starts, seed=seed_k)
        elif base == "sa":
            report = simulated_annealing(
                q, sweeps=sweeps, beta_schedule=beta_schedule, reads=reads, seed=seed_k
            )
        else:
            report = tabu_search(q, tenure=tenure, iterations=iterations, seed=seed_k)
        if post == "greedy":
            report = greedy_post(q, report)
        return report

    return run
