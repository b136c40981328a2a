"""Classical binary-quadratic samplers and the penalty-retune loop.

All stochastic solvers are bit-reproducible for a fixed (seed, parameters)
pair, and greedy, tabu and annealing share one flip update (`_flip`).
Annealing read r draws its initial state and then its float32 acceptance
uniforms, in (sweep, variable) order, from its own Philox stream keyed
(seed mod 2^64, r).  The uniforms are drawn `_SWEEP_BLOCK` sweeps at a time,
so memory is O(reads * n * _SWEEP_BLOCK).  All reads run together and each
sweep is event-driven: one comparison tests every read's n proposals, and
work is done only where a proposal is accepted, so each read follows exactly
the chain of a one-variable-at-a-time sweep.  The result is the first state
in (sweep, variable, read) order that reaches the lowest energy seen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

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

def enumerate_all_energies(q: Qubo) -> np.ndarray:
    """Energies of all 2^n assignments; entry p has bit j of p as x_j.

    Incremental doubling fill: O(2^n) work and memory, exact for
    integer-valued coefficients.
    """
    n = q.n
    if n > BRUTE_FORCE_MAX_VARS:
        raise TooLarge(f"{n} variables > enumeration cap {BRUTE_FORCE_MAX_VARS}")
    energies = np.empty(1 << n)
    energies[0] = q.offset
    if n == 0:
        return energies
    cols: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), v in q.quadratic.items():
        cols[j].append((i, v))  # i < j by construction
    cross = np.empty(1 << (n - 1)) if n > 1 else np.empty(1)
    for i in range(n):
        h = 1 << i
        col = dict(cols[i])
        cross[0] = 0.0
        for j in range(i):
            hj = 1 << j
            c = col.get(j)
            if c is None:
                cross[hj : 2 * hj] = cross[:hj]
            else:
                np.add(cross[:hj], c, out=cross[hj : 2 * hj])
        np.add(energies[:h], q.linear.get(i, 0.0), out=energies[h : 2 * h])
        energies[h : 2 * h] += cross[:h]
    return energies


def bits_of(index: int, n: int) -> np.ndarray:
    return np.array([(index >> j) & 1 for j in range(n)], dtype=np.uint8)


def brute_force(q: Qubo) -> SolveReport:
    """Global minimum over all assignments; ties break to the
    lexicographically smallest bit tuple (x_0, x_1, ...)."""
    t0 = time.perf_counter()
    n = q.n
    energies = enumerate_all_energies(q)
    tied = energies == energies.min()
    index = 0
    # bit j of an index is x_j: keep the ties with x_j = 0 whenever there are any
    for j in range(n):
        if tied[0::2].any():
            tied = tied[0::2]
        else:
            tied = tied[1::2]
            index |= 1 << j
    return _finish(q, bits_of(index, n), 1 << n, t0, "brute", 0)


# --- local search -----------------------------------------------------------

def _row_energies(q: Qubo, states: np.ndarray) -> np.ndarray:
    lin, _, _, _ = q.as_arrays()
    sym = q.dense_symmetric()
    return q.offset + states @ lin + 0.5 * np.einsum("bi,bi->b", states @ sym, states)


def _flip(spins: np.ndarray, deltas: np.ndarray, sym: np.ndarray, at: tuple) -> np.ndarray:
    """Flip spins[at] of s = 1 - 2x, keeping `deltas` the single-flip energy
    changes; return the change each flip made.  `at` is (col,) for one state or
    (rows, cols) for distinct rows of a batch.  Every product is +-1 times a
    coupling, so the update is exact."""
    *rows, cols = at
    rows = tuple(rows)
    old = deltas[at]
    sign = spins[at]
    spins[at] = -sign
    deltas[rows] += spins[rows] * sym[cols] * sign[..., None]
    deltas[at] = -old
    return old


def _descend(q: Qubo, states: np.ndarray) -> tuple[np.ndarray, int]:
    """Steepest single-flip descent on each row until no move improves."""
    lin, _, _, _ = q.as_arrays()
    sym = q.dense_symmetric()
    x = states.astype(np.float64)
    spins = 1.0 - 2.0 * x
    deltas = spins * (lin + x @ sym)
    flips = 0
    while True:
        rows = np.flatnonzero(deltas.min(axis=1) < -_EPS)
        if not len(rows):
            return (1.0 - spins) / 2.0, flips
        _flip(spins, deltas, sym, (rows, np.argmin(deltas[rows], axis=1)))
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


_SWEEP_BLOCK = 32  # sweeps of acceptance thresholds held in memory at once


def _acceptance_thresholds(u: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Turn float32 uniforms u in [0, 1), shaped (..., sweeps, n), into the
    thresholds -log(1 - u)/beta in place.  Accepting delta d with probability
    exp(-beta * max(d, 0)) is the test d < threshold; 1 - u is exact in
    float32 and never 0, so no threshold is NaN or warns."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    np.divide(u, -betas[:, None], out=u)
    return u


def simulated_annealing(
    q: Qubo,
    sweeps: int = 1000,
    beta_schedule: tuple[float, float] = (0.1, 10.0),
    reads: int = 1000,
    seed: int = 0,
) -> SolveReport:
    """Metropolis sweeps over a geometric inverse-temperature ramp.

    Each read is an independent restart with its own RNG stream; uphill
    flips are accepted with probability exp(-beta * delta).
    """
    beta_min, beta_max = beta_schedule
    if not 0 < beta_min < beta_max < np.inf:
        raise ValueError("need finite betas with 0 < beta_min < beta_max")
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

    # a uint64 key: every seed mod 2^64 gets its own streams
    key = seed & 0xFFFFFFFFFFFFFFFF
    gens = [
        np.random.Generator(np.random.Philox(key=np.array([key, r], dtype=np.uint64)))
        for r in range(reads)
    ]
    x = (np.stack([gen.random(n) for gen in gens]) < 0.5).astype(np.float32)
    spins = 1.0 - 2.0 * x
    deltas = spins * (lin + x @ sym)
    current = _row_energies(q, x.astype(np.float64))
    best_row = int(np.argmin(current))
    # the best state is the first in (sweep, variable, read) order at the
    # lowest energy seen: events are met out of that order, so compare keys
    best_key = (float(current[best_row]), -1, 0, best_row)
    best_spins = spins[best_row].copy()

    block = min(_SWEEP_BLOCK, sweeps)
    buf = np.empty(reads * block * n, dtype=np.float32)
    for first in range(0, sweeps, block):
        count = min(block, sweeps - first)
        # per read, the stream continues exactly where the last block ended
        thresholds = buf[: reads * count * n].reshape(reads, count, n)
        for gen, out in zip(gens, thresholds):
            gen.random(out=out, dtype=np.float32)
        _acceptance_thresholds(thresholds, betas[first : first + count])
        for s in range(count):
            # test the whole sweep at once; each accepting read flips at its
            # first accepted variable, then re-tests only the later ones
            thr = thresholds[:, s]
            accept = deltas < thr
            rows = np.flatnonzero(accept.any(axis=1))
            cols = accept[rows].argmax(axis=1)
            while len(rows):
                current[rows] += _flip(spins, deltas, sym, (rows, cols))
                energies = current[rows]
                low = energies.min()
                if low <= best_key[0]:
                    ties = np.flatnonzero(energies == low)
                    k = ties[np.lexsort((rows[ties], cols[ties]))[0]]
                    key = (float(low), first + s, int(cols[k]), int(rows[k]))
                    if key < best_key:
                        best_key = key
                        best_spins = spins[rows[k]].copy()
                accept = (deltas[rows] < thr[rows]) & (np.arange(n) > cols[:, None])
                more = accept.any(axis=1)
                rows, cols = rows[more], accept[more].argmax(axis=1)
    return _finish(q, (1.0 - best_spins) / 2.0, reads * sweeps * n, t0, "sa", seed)


def tabu_search(
    q: Qubo,
    tenure: int | None = None,
    iterations: int | None = None,
    seed: int = 0,
) -> SolveReport:
    """Best-improvement single flips with a recency tabu and aspiration.

    Recently flipped variables stay tabu for `tenure` iterations unless the
    move would beat the incumbent best.
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
    lin, _, _, _ = q.as_arrays()
    sym = q.dense_symmetric()
    rng = np.random.default_rng(seed)
    x = (rng.random(n) < 0.5).astype(np.float64)
    spins = 1.0 - 2.0 * x
    deltas = spins * (lin + x @ sym)
    current = float(q.energy(x))
    best_spins = spins.copy()
    best_energy = current
    tabu_until = np.zeros(n, dtype=np.int64)
    for it in range(iterations):
        candidate = deltas.copy()
        tabu = tabu_until > it
        aspiration = current + deltas < best_energy - _EPS
        blocked = tabu & ~aspiration
        if blocked.all():
            blocked[:] = False  # everything tabu: fall back to the plain best move
        candidate[blocked] = np.inf
        j = int(np.argmin(candidate))
        current += _flip(spins, deltas, sym, (j,))
        tabu_until[j] = it + 1 + tenure
        if current < best_energy:
            best_energy = current
            best_spins = spins.copy()
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
    retry until the decode is valid or the retune budget runs out.

    Turn bonuses are objective terms, not validity constraints, so they are
    never retuned.
    """
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
        violated = sorted(
            fam for fam, v in values.items() if fam != "turn" and v > 1e-9
        )
        if retunes >= max_retunes or not violated:
            raise NoValidSolution(
                f"no valid decode after {retunes} retunes; "
                f"violated families: {violated or 'none'}"
            )
        pen = pen.scaled(violated, 2.0)
        retunes += 1


# --- named sampler construction ----------------------------------------------

SOLVER_NAMES = ("brute", "greedy", "sa", "tabu", "sa+greedy", "tabu+greedy")


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
    """Sampler closure for a solver name like 'sa+greedy'."""
    if name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {name!r}; pick one of {SOLVER_NAMES}")
    base, _, post = name.partition("+")

    def run(q: Qubo) -> SolveReport:
        if base == "brute":
            report = brute_force(q)
        elif base == "greedy":
            report = greedy_descent(q, starts=starts, seed=seed)
        elif base == "sa":
            report = simulated_annealing(
                q, sweeps=sweeps, beta_schedule=beta_schedule, reads=reads, seed=seed
            )
        else:
            report = tabu_search(q, tenure=tenure, iterations=iterations, seed=seed)
        if post == "greedy":
            report = greedy_post(q, report)
        return report

    return run
