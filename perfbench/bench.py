"""Measurement core: run a workload's rounds through the `postqubo` command
line (untraced) or through the traced composition, check every output, and
turn the records into metrics.

A run is one process and one workload.  It measures a fixed number of whole
rounds, so every run sees the same mix of shapes, then runs the same
instances again until the requested seconds have passed.  Reference optima,
oracle agreement, hashing and output parsing all happen outside the timed
sections.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import instances
import reference
from tracing import FAMILIES, TracedPipeline, Tracer, VAR_KINDS, terms_of

from postqubo import cli, compile_general, default_penalties, euler_shortcut
from postqubo import exact_pairing_oracle, exact_walk_oracle
from postqubo.errors import PostquboError
from postqubo.pairing import compile_pairing, default_pairing_penalty
from postqubo.serialization import parse_graph, parse_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORK = HERE / "_work"
SETUP_SPAWNS = 9
TOL = 1e-9

OUTPUT_SUFFIX = {"solve": ".route.json", "export": ".qubo.txt", "oracle": ".oracle.json"}
FAIL_REASONS = ("exit1", "no_valid_solution", "exit3", "invalid_decode", "validate_reject")


class BenchmarkError(Exception):
    """An output check failed: the run is not correct."""


@dataclass
class Record:
    """Outcome of one instance's command sequence."""

    name: str
    latency: float  # seconds; at the reference speed once measured
    codes: list[str] = field(default_factory=list)  # per command "rc:validate rc:sha256"
    weights: list[tuple[float, bool]] = field(default_factory=list)  # (weight, valid) per route
    reason: str | None = None  # first failure of the sequence
    timed: bool = True  # counts toward the time and size metrics
    walls: list[float] = field(default_factory=list)  # wall seconds per execution
    samples: list[float] = field(default_factory=list)  # the same at the reference speed
    qubo_vars: int = 0
    qubo_terms: int = 0


def argv_for(op, path: Path, out: Path) -> list[str]:
    if op.kind == "export":
        return ["export-qubo", str(path), "--out", str(out), "--force-qubo"]
    if op.kind == "oracle":
        return ["oracle", str(path), "--out", str(out)]
    argv = ["solve", str(path), "--out", str(out), "--solver", op.solver, "--seed", str(op.seed)]
    if op.reads != 1000 or op.sweeps != 1000:
        argv += ["--reads", str(op.reads), "--sweeps", str(op.sweeps)]
    return argv + (["--force-qubo"] if op.force else [])


def call_cli(argv: list[str]) -> int:
    """`postqubo ARGV` in process, its messages discarded; returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except Exception:  # an uncaught error exits 1 from the command line
            return 1


def output_path(op, path: Path, out: Path) -> Path:
    return out / (path.stem + OUTPUT_SUFFIX[op.kind])


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


# --- reference optima ------------------------------------------------------------

def prepare(inst, check_oracle: bool) -> None:
    """Reference optimum for route-producing instances, and its agreement with
    postqubo's exact oracles (untimed; once per instance)."""
    if inst.checked:
        return
    inst.checked = True
    if all(op.kind == "export" for op in inst.ops):
        return
    if inst.is_graph:
        inst.optimum = reference.pairing_optimum(inst.doc)
        if check_oracle:
            g = parse_graph(inst.doc).graph
            _, added = exact_pairing_oracle(g)
            found = sum(e.w_ab for e in g.undirected) + added
            if abs(found - inst.optimum) > TOL:
                raise BenchmarkError(f"{inst.name}: reference {inst.optimum} != pairing oracle {found}")
        return
    inst.optimum = reference.walk_optimum(inst.doc)
    if check_oracle:
        try:
            spec = parse_spec(inst.doc).spec
        except PostquboError:
            return  # postqubo rejects the file; the run counts that as exit 1
        found = exact_walk_oracle(spec).objective_weight
        if abs(found - inst.optimum) > TOL:
            raise BenchmarkError(f"{inst.name}: reference {inst.optimum} != walk oracle {found}")


def ground_energy(inst) -> float | None:
    """Ground energy of the instance's QUBO: the pairing's added weight, or the
    optimal walk weight for the general encoding."""
    if inst.optimum is None:
        return None
    if inst.is_graph:
        return inst.optimum - sum(e[2] for e in inst.doc["undirected"])
    return inst.optimum


def qubo_size(inst, op) -> tuple[int, int]:
    """Variables and terms of the QUBO a solve compiles (0 when the Euler
    shortcut answers or the file is rejected)."""
    try:
        if inst.is_graph:
            g = parse_graph(inst.doc).graph
            q = compile_pairing(g, default_pairing_penalty(g)).qubo()
        else:
            spec = parse_spec(inst.doc).spec
            if not op.force and euler_shortcut(spec) is not None:
                return 0, 0
            q = compile_general(spec).qubo(default_penalties(spec))
    except PostquboError:
        return 0, 0
    return q.n, terms_of(q)


def read_qubo_size(path: Path) -> tuple[int, int]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        return int(header[1]), sum(1 for _ in fh)


# --- one instance ------------------------------------------------------------------

def run_instance(inst, path: Path, out: Path, pipeline: TracedPipeline | None) -> Record:
    """Run the command sequence (timed), then read and check its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    runs = []
    t0 = time.perf_counter()
    for k, op in enumerate(inst.ops):
        dest = out / str(k)
        if pipeline is None:
            rc = call_cli(argv_for(op, path, dest))
        else:
            rc = getattr(pipeline, op.kind)(op, path, dest)
        vrc = None
        if op.kind == "solve" and rc == 0:
            route = output_path(op, path, dest)
            if pipeline is None:
                vrc = call_cli(["validate", str(route), "--instance", str(path)])
            else:
                vrc = pipeline.validate(route, path)
        runs.append((op, dest, rc, vrc))
    rec = Record(inst.name, time.perf_counter() - t0, timed=inst.timed)
    for op, dest, rc, vrc in runs:
        check_output(inst, rec, op, output_path(op, path, dest), rc, vrc)
    return rec


def check_output(inst, rec: Record, op, out_file: Path, rc: int, vrc) -> None:
    rec.codes.append(f"{rc}:{vrc}:{digest(out_file)}")
    reason = None
    if rc == 1:
        reason = "exit1"
    elif rc == 3:
        reason = "exit3"
    elif rc == 2:
        reason = "invalid_decode" if out_file.exists() else "no_valid_solution"
    elif vrc not in (None, 0):
        reason = "validate_reject"
    rec.reason = rec.reason or reason
    if op.kind == "export" and rc == 0:
        n, terms = read_qubo_size(out_file)
        rec.qubo_vars += n
        rec.qubo_terms += terms
    if op.kind == "solve" and rc != 1:
        n, terms = qubo_size(inst, op)
        rec.qubo_vars += n
        rec.qubo_terms += terms
    if op.kind in ("solve", "oracle") and out_file.exists():
        route = json.loads(out_file.read_text())
        check_route(inst, route, op.kind)
        rec.weights.append((float(route["weight"]), bool(route["valid"])))


def check_route(inst, route: dict, kind: str) -> None:
    """Stop the run on an oracle that misses the reference optimum, or on a
    route that decode calls valid with a weight below it."""
    weight = float(route["weight"])
    if kind == "oracle" and abs(weight - inst.optimum) > TOL:
        raise BenchmarkError(f"{inst.name}: oracle weight {weight} != reference {inst.optimum}")
    if route["valid"] and weight < inst.optimum - TOL:
        raise BenchmarkError(
            f"{inst.name}: route called valid with weight {weight} below the optimum {inst.optimum}")


# --- host speed ----------------------------------------------------------------------
# On a shared host the CPU runs up to twice as slow while co-tenants load it,
# in phases that last from a fraction of a second to many seconds; CPU time
# slows as much as wall time, so timing CPU time instead does not help.  So a
# run times a fixed kernel that calls no postqubo code (a calibration point:
# the mean of CAL_SAMPLES kernel runs) before every instance and set-up spawn
# it times, and once more after the last.  Each timed stretch is scaled by
# CAL_REF_S over the mean of the two points that bracket it, so a slow phase
# slows both the stretch and its bracket.  The time metrics are then seconds
# at the host speed at which the kernel takes CAL_REF_S; raw wall times go to
# the result file as well.

CAL_REF_S = 0.008
CAL_SAMPLES = 3
_CAL_MATRIX = np.random.default_rng(0).random((64, 64))
_CAL_RNG = np.random.default_rng(1)


def calibration_time() -> float:
    """Wall time of the calibration kernel: interpreter, small-matrix and
    large-array work, about CAL_REF_S in all."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    x = _CAL_MATRIX
    for _ in range(30):
        x = np.tanh(x @ _CAL_MATRIX * 1e-2)
    _CAL_RNG.random(1_000_000).sum()
    return time.perf_counter() - t0


class Calibration:
    """Calibration points taken between timed stretches."""

    def __init__(self):
        self.points: list[float] = []

    def point(self) -> int:
        """Take a calibration point; returns its index."""
        self.points.append(statistics.fmean(calibration_time() for _ in range(CAL_SAMPLES)))
        return len(self.points) - 1

    def scale(self, wall: float, before: int) -> float:
        """Wall seconds of the stretch after point `before`, at the reference speed.
        Needs the next point taken."""
        return wall * CAL_REF_S / statistics.fmean(self.points[before:before + 2])

    def host_factor(self) -> float:
        """Mean speed of the run against the reference speed (reported only)."""
        return CAL_REF_S / statistics.fmean(self.points)


# --- runs ----------------------------------------------------------------------------

class Run:
    """One workload and seed: instance files, rounds, records, hashes."""

    def __init__(self, workload: str, seed: int, rounds=None, work: Path | None = None):
        self.workload = workload
        self.seed = seed
        self.make_round, self.first_rounds = (rounds, 1) if rounds else instances.WORKLOADS[workload]
        self.work = work or WORK / f"{workload}-{seed}"
        self.rounds: list[list] = []
        self.hashes: dict[str, list[str]] = {}
        self.calibration = Calibration()

    def round(self, r: int) -> list:
        while len(self.rounds) <= r:
            batch = self.make_round(self.seed, len(self.rounds))
            for inst in batch:
                path = self.path(inst)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(inst.doc))
            self.rounds.append(batch)
        return self.rounds[r]

    def path(self, inst) -> Path:
        return self.work / "in" / f"{inst.name}.json"

    def optima(self) -> dict[str, float | None]:
        return {i.name: i.optimum for batch in self.rounds for i in batch}

    def execute(self, inst, tag: str, pipeline=None) -> Record:
        prepare(inst, check_oracle=not any(op.kind == "oracle" for op in inst.ops))
        if pipeline is not None:
            pipeline.t.instance = inst.name
            with pipeline.t.span("instance"):
                rec = run_instance(inst, self.path(inst), self.work / tag / inst.name, pipeline)
        else:
            rec = run_instance(inst, self.path(inst), self.work / tag / inst.name, None)
        self.remember(inst.name, rec.codes, tag)
        return rec

    def remember(self, name: str, codes: list[str], tag: str) -> None:
        known = self.hashes.setdefault(name, codes)
        if known != codes:
            raise BenchmarkError(f"{name}: outputs differ between runs ({tag}): {known} != {codes}")

    def measure(self, seconds: float, tag: str = "cli", pipeline=None,
                rounds: int | None = None, repeat: bool = True) -> tuple[list[Record], int]:
        """Run `rounds` rounds (the workload's count by default), stopping
        early once the next round is expected to end after `seconds`; then,
        with `repeat`, run the same instances again in turn while the next
        execution is expected to end within `seconds`.  Every execution is
        scaled to the reference speed (see host speed); an instance's latency
        is the mean over its executions, and `samples` keeps each one."""
        start = time.perf_counter()
        records: dict[str, Record] = {}
        cost: dict[str, float] = {}  # wall seconds of an execution with its checks
        stretches: list[tuple[str, float, int]] = []  # (instance, wall, point before)

        def once(inst) -> None:
            t0 = time.perf_counter()
            before = self.calibration.point()
            rec = self.execute(inst, tag, pipeline)
            records.setdefault(inst.name, rec)
            stretches.append((inst.name, rec.latency, before))
            cost[inst.name] = time.perf_counter() - t0

        r = 0
        while r < (rounds or self.first_rounds):
            if pipeline is not None:
                pipeline.keep = r == 0
            for inst in self.round(r):
                once(inst)
            r += 1
            if (time.perf_counter() - start) * (r + 1) / r > seconds:
                break
        done = [i for batch in self.rounds[:r] for i in batch]
        k = 0
        while repeat and time.perf_counter() - start + cost[done[k % len(done)].name] <= seconds:
            once(done[k % len(done)])
            k += 1
        self.calibration.point()
        for name, wall, before in stretches:
            rec = records[name]
            rec.walls.append(wall)
            rec.samples.append(self.calibration.scale(wall, before))
        for rec in records.values():
            rec.latency = statistics.fmean(rec.samples)
        return list(records.values()), r


# --- metrics -------------------------------------------------------------------------

def setup_seconds(calibration: Calibration) -> tuple[float, list[float]]:
    """Median, at the reference speed, of the wall time of a fresh interpreter
    importing postqubo and its CLI; returns it and the raw wall times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls, before = [], []
    for _ in range(SETUP_SPAWNS):
        before.append(calibration.point())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import postqubo, postqubo.cli"],
                       cwd=ROOT, env=env, check=True)
        walls.append(time.perf_counter() - t0)
    calibration.point()
    return statistics.median(map(calibration.scale, walls, before)), walls


def quality(runs: list[Record], optima: dict[str, float | None]) -> dict:
    """Failure counts, optimal share and mean relative gap (with their bases)."""
    failures = {reason: sum(r.reason == reason for r in runs) for reason in FAIL_REASONS}
    gaps, optimal, rated = [], 0, 0
    for r in runs:
        opt = optima[r.name]
        if opt is None:
            continue
        rated += 1
        valid = [w for w, ok in r.weights if ok]
        if r.weights and len(valid) == len(r.weights) and all(abs(w - opt) <= TOL for w in valid):
            optimal += 1
        gaps += [(w - opt) / opt for w in valid]
    return {
        "failures": failures,
        "fail_rate": sum(failures.values()) / len(runs),
        "optimal_rate": optimal / rated if rated else None,
        "optimal_base": rated,
        "gap_rel_mean": float(np.mean(gaps)) if gaps else None,
        "gap_base": len(gaps),
    }


def rate(records: list[Record]) -> float:
    """Timed instances per second of their latencies."""
    timed = [r.latency for r in records if r.timed]
    return len(timed) / sum(timed)


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    """Metrics over the timed instances; the latency percentiles take every
    execution as a sample."""
    timed = [r for r in records if r.timed]
    lat = [t for r in timed for t in r.samples]
    return {
        "setup_s": setup_s,
        "instances_per_s": rate(records),
        "latency_s_p50": float(np.percentile(lat, 50)),
        "latency_s_p90": float(np.percentile(lat, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "qubo_vars": float(np.mean([r.qubo_vars for r in timed])),
        "qubo_terms": float(np.mean([r.qubo_terms for r in timed])),
    }


def sampler_peaks(pipeline: TracedPipeline) -> dict[str, float]:
    """Peak traced allocation of each sampler on the first round's QUBOs,
    measured after the timed pass so tracemalloc does not slow it."""
    peaks: dict[str, float] = {}
    for label, sampler, q in pipeline.kept.values():
        tracemalloc.start()
        sampler(q)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        peaks[label] = max(peaks.get(label, 0.0), peak)
    return peaks


SOLVER_LABELS = ("sa-greedy", "tabu-greedy", "brute")


def per_layer(tracer: Tracer, peaks: dict[str, float], count: int, overhead: float) -> dict:
    """Self time (s) and counts per instance; ratios over calls."""
    st = tracer.self_times()
    c = tracer.counts
    m: dict[str, float] = {}
    for label in SOLVER_LABELS:
        m[f"solvers.sample_s.{label}"] = st.get(f"solvers.sample.{label}", 0.0) / count
        m[f"solvers.sample_peak_mb.{label}"] = peaks.get(label, 0.0)
    m["solvers.sample_calls"] = c["solvers.sample_calls"] / count
    m["solvers.samples_evaluated"] = c["solvers.samples_evaluated"] / count
    m["solvers.ground_hit_ratio"] = (
        c["solvers.ground_hits"] / c["solvers.ground_calls"] if c["solvers.ground_calls"] else 0.0)
    m["solvers.retune_s"] = st.get("solvers.retune", 0.0) / count
    m["solvers.retune_attempts"] = c["solvers.retune_attempts"] / count
    m["solvers.retune_no_valid"] = c["solvers.retune_no_valid"] / count
    m["solvers.retune_useful_ratio"] = (
        c["solvers.retune_valid"] / c["solvers.retune_attempts"]
        if c["solvers.retune_attempts"] else 0.0)
    for name in ("general.compile", "general.assemble", "general.decode", "general.check",
                 "qubo.format", "pairing.compile", "pairing.decode", "pairing.oracle",
                 "oracle.walk", "oracle.shortcut", "serialization.load",
                 "serialization.write", "serialization.validate"):
        m[f"{name}_s"] = st.get(name, 0.0) / count
    for kind in VAR_KINDS.values():
        m[f"general.vars.{kind}"] = c[f"general.vars.{kind}"] / count
    for fam in FAMILIES:
        m[f"general.terms.{fam}"] = c[f"general.terms.{fam}"] / count
    for name in ("general.assemble_calls", "qubo.bytes", "qubo.terms",
                 "oracle.shortcut_hits", "serialization.validate_reject"):
        m[name] = c[name] / count
    m["trace.overhead_ratio"] = overhead
    return m


# --- environment and output ------------------------------------------------------------

def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "postqubo").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.exists() else None
    return ref


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_fingerprint": source_fingerprint(),
        "workload_seed": seed,
    }


def check_against_earlier_runs(run: Run) -> None:
    """Outputs must hash the same as in earlier runs of this code and seed."""
    path = OUT / "hashes" / f"{run.workload}-{run.seed}-{source_fingerprint()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    earlier = json.loads(path.read_text()) if path.exists() else {}
    for name, codes in earlier.items():
        if name in run.hashes:
            run.remember(name, codes, "earlier run")
    path.write_text(json.dumps({**earlier, **run.hashes}, indent=1, sort_keys=True))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(payload: dict, lines: list[str], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({k: payload[k] for k in ("correct", "attempted", "failed", "metrics")}))


def metric_block(values: dict[str, float], declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_untraced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setup_s, setup_walls = setup_seconds(run.calibration)
    records, rounds = run.measure(seconds)
    check_against_earlier_runs(run)
    optima = run.optima()
    q = quality(records, optima)
    values = end_to_end(records, setup_s)
    timed = [t for r in records if r.timed for t in r.samples]
    cal = run.calibration
    spec = load_spec()
    lines = [f"{run.workload} seed {run.seed}: {len(records)} instances in {rounds} rounds"]
    for m in spec["end_to_end"]:
        lines.append(f"  {m['name']:<18} {values[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    lines.append(f"  latency samples: {len(timed)} executions of timed instances, "
                 f"{sum(t > values['latency_s_p90'] for t in timed)} beyond p90")
    lines.append(f"  host factor {cal.host_factor():.4g}: mean calibration point "
                 f"{statistics.fmean(cal.points) * 1e3:.4g} ms over {len(cal.points)} points "
                 f"against {CAL_REF_S * 1e3:.4g} ms; median unscaled setup "
                 f"{statistics.median(setup_walls):.4g} s")
    for key, better, base in (("fail_rate", "lower", len(records)),
                              ("optimal_rate", "higher", q["optimal_base"]),
                              ("gap_rel_mean", "lower", q["gap_base"])):
        shown = "n/a" if q[key] is None else f"{q[key]:.6g}"
        lines.append(f"  {key:<18} {shown} ratio ({better} is better, base {base})")
    for reason, n in q["failures"].items():
        lines.append(f"  failures.{reason:<24} {n} of {len(records)} instances")
    payload = {
        "correct": True,
        "attempted": len(records),
        "failed": sum(q["failures"].values()),
        "metrics": metric_block(values, spec["end_to_end"]),
        "quality": q,
        "environment": environment(run.seed),
        "host": {"factor": cal.host_factor(), "calibration_points_s": cal.points,
                 "setup_wall_s": setup_walls},
        "instances": [{"name": r.name, "latency_s": r.latency, "samples_s": r.samples,
                       "wall_s": r.walls, "timed": r.timed, "qubo_vars": r.qubo_vars,
                       "qubo_terms": r.qubo_terms, "failure": r.reason,
                       "optimum": optima[r.name], "routes": r.weights} for r in records],
    }
    return payload, lines


def run_traced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """Untraced rounds for the baseline rate, then the same rounds traced,
    each instance timed once on both sides."""
    plain, rounds = run.measure(seconds / 2, repeat=False)
    tracer = Tracer()
    ground = {i.name: ground_energy(i) for batch in run.rounds for i in batch}
    pipeline = TracedPipeline(tracer, ground)
    traced, _ = run.measure(float("inf"), tag="traced", pipeline=pipeline, rounds=rounds,
                            repeat=False)
    check_against_earlier_runs(run)
    overhead = rate(traced) / rate(plain)
    values = per_layer(tracer, sampler_peaks(pipeline), len(traced), overhead)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(OUT / f"spans-{run.workload}-{run.seed}.jsonl")
    spec = load_spec()
    lines = [f"{run.workload} seed {run.seed} traced: {len(traced)} instances, "
             f"{rate(plain):.4g} untraced vs {rate(traced):.4g} traced instances/s"]
    lines += [f"  {m['name']:<36} {values[m['name']]:.6g} {m['unit']}" for m in spec["per_layer"]]
    q = quality(traced, run.optima())
    payload = {
        "correct": True,
        "attempted": len(traced),
        "failed": sum(q["failures"].values()),
        "metrics": metric_block(values, spec["per_layer"]),
        "environment": environment(run.seed),
    }
    return payload, lines


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if workload not in instances.WORKLOADS:
        print(f"unknown workload {workload!r}; pick one of {sorted(instances.WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = Run(workload, seed)
    shutil.rmtree(run.work, ignore_errors=True)
    try:
        payload, lines = (run_traced if trace else run_untraced)(run, seconds)
    except BenchmarkError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    emit(payload, lines, OUT / f"result-{workload}-{seed}-trace{int(trace)}.json")
    return 0
