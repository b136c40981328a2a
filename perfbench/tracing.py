"""Traced run: the workload's command sequence composed from postqubo's
public functions, with one span around each call into a layer.

Each function below mirrors one `postqubo` command and writes the same
output file the command writes, so the traced and untraced runs can be
checked against each other byte for byte.  Spans live in memory and are
written out as JSONL when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from postqubo import (
    CapacitySlack,
    EdgeStep,
    PenaltyConfig,
    RequiredSlack,
    RestVar,
    augment_and_route,
    compile_general,
    default_penalties,
    euler_shortcut,
    exact_pairing_oracle,
    exact_walk_oracle,
    format_qubo_text,
    format_registry_text,
    make_sampler,
    odd_degree_vertices,
    solve_with_retune,
)
from postqubo.errors import (
    NoValidSolution,
    PostquboError,
    SearchBudgetExceeded,
    TooLarge,
    TooManyOddVertices,
)
from postqubo.pairing import compile_pairing, default_pairing_penalty, euler_route
from postqubo.serialization import (
    GraphDocument,
    dump_json,
    load_instance,
    revalidate_route,
    route_from_json,
    route_to_json,
)
from postqubo.solvers import CompiledInstance

VAR_KINDS = {
    EdgeStep: "edge_step",
    RequiredSlack: "required_slack",
    RestVar: "rest",
    CapacitySlack: "capacity_slack",
}
FAMILIES = ("objective", "one_edge", "adjacency", "required", "turn", "hierarchy",
            "collision", "capacity")


def terms_of(q) -> int:
    return len(q.linear) + len(q.quadratic)


class Tracer:
    """Spans (name, start, end, parent, instance) plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
               self.instance]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")


def exit_code(exc: PostquboError) -> int:
    """The exit code `postqubo` maps this error to."""
    if isinstance(exc, NoValidSolution):
        return 2
    if isinstance(exc, (TooLarge, TooManyOddVertices, SearchBudgetExceeded)):
        return 3
    return 1


class TracedPipeline:
    """solve / validate / export-qubo / oracle, one span per layer call.

    `ground` maps an instance name to the reference ground energy of its QUBO,
    for the sampler hit ratio.  While `keep` is set, the first QUBO each sampler
    sees is kept so its peak memory can be measured after the timed pass.
    """

    def __init__(self, tracer: Tracer, ground: dict[str, float]) -> None:
        self.t = tracer
        self.ground = ground
        self.keep = False
        self.kept: dict[str, tuple] = {}

    def _load(self, path: Path):
        with self.t.span("serialization.load"):
            return load_instance(path)

    def _write_route(self, solution, doc, pipeline, solver, seed, energy, retunes, path):
        with self.t.span("serialization.write"):
            dump_json(route_to_json(solution, doc, pipeline, solver, seed, energy, retunes), path)

    def _sampler(self, op):
        base = make_sampler(op.solver, seed=op.seed, sweeps=op.sweeps, reads=op.reads)
        label = op.solver.replace("+", "-")

        def run(q):
            with self.t.span(f"solvers.sample.{label}"):
                report = base(q)
            self.t.counts["solvers.sample_calls"] += 1
            self.t.counts["solvers.samples_evaluated"] += report.samples_evaluated
            ground = self.ground.get(self.t.instance)
            if ground is not None:
                self.t.counts["solvers.ground_calls"] += 1
                self.t.counts["solvers.ground_hits"] += abs(report.best_energy - ground) < 1e-6
            if self.keep:
                self.kept.setdefault(f"{self.t.instance}/{label}", (label, base, q))
            return report

        return run

    def _traced(self, name, fn, count_valid=False):
        def run(x):
            with self.t.span(name):
                out = fn(x)
            if count_valid and out.is_valid:
                self.t.counts["solvers.retune_valid"] += 1
            return out

        return run

    def _record_compile(self, compiled) -> None:
        for label in compiled.registry.labels:
            self.t.counts[f"general.vars.{VAR_KINDS[type(label)]}"] += 1
        self.t.counts["general.terms.objective"] += terms_of(compiled.objective)
        for fam, form in compiled.constraints.items():
            self.t.counts[f"general.terms.{fam}"] += terms_of(form)

    def _assemble(self, compiled, pen):
        with self.t.span("general.assemble"):
            q = compiled.qubo(pen)
        self.t.counts["general.assemble_calls"] += 1
        self.t.counts["qubo.terms"] += terms_of(q)
        return q

    def solve(self, op, path: Path, out: Path) -> int:
        """Mirror of `postqubo solve PATH --out OUT` (route and report files)."""
        try:
            instance = self._load(path)
            if isinstance(instance, GraphDocument):
                doc, pipeline = instance, "pairing"
                solution, meta = self._solve_pairing(op, instance.graph)
            else:
                doc, pipeline = instance.graph_doc, "general"
                solution, meta = self._solve_general(op, instance.spec)
        except PostquboError as exc:
            if isinstance(exc, NoValidSolution):
                self.t.counts["solvers.retune_no_valid"] += 1
            return exit_code(exc)
        out.mkdir(parents=True, exist_ok=True)
        stem = path.stem
        solver, energy, retunes, report = meta
        self._write_route(solution, doc, pipeline, solver, op.seed, energy, retunes,
                          out / f"{stem}.route.json")
        with self.t.span("serialization.write"):
            dump_json({"solver": solver, "seed": op.seed, "best_energy": energy,
                       "samples_evaluated": report.samples_evaluated if report else 0,
                       "wall_time": report.wall_time if report else 0.0,
                       "retunes": retunes}, out / f"{stem}.report.json")
        return 0 if solution.is_valid else 2

    def _retune(self, builder, pen, op):
        with self.t.span("solvers.retune"):
            report, solution = solve_with_retune(builder, pen, self._sampler(op), 5)
        return solution, (op.solver, report.best_energy, report.retunes, report)

    def _solve_pairing(self, op, g):
        if not odd_degree_vertices(g) and not op.force:
            with self.t.span("oracle.shortcut"):
                solution = euler_route(g)
            self.t.counts["oracle.shortcut_hits"] += 1
            return solution, ("euler-shortcut", None, 0, None)
        pen = replace(PenaltyConfig.for_max_weight(g.max_weight), p_pairing=default_pairing_penalty(g))

        def builder(p):
            self.t.counts["solvers.retune_attempts"] += 1
            with self.t.span("pairing.compile"):
                compiled = compile_pairing(g, p.p_pairing)
                q = compiled.qubo()
            return CompiledInstance(q, self._traced("pairing.decode", compiled.decode, True),
                                    compiled.constraint_values)

        return self._retune(builder, pen, op)

    def _solve_general(self, op, spec):
        if not op.force:
            with self.t.span("oracle.shortcut"):
                shortcut = euler_shortcut(spec)
            if shortcut is not None:
                self.t.counts["oracle.shortcut_hits"] += 1
                return shortcut, ("euler-shortcut", None, 0, None)
        pen = default_penalties(spec)
        with self.t.span("general.compile"):
            compiled = compile_general(spec)
        self._record_compile(compiled)

        def builder(p):
            self.t.counts["solvers.retune_attempts"] += 1
            q = self._assemble(compiled, p)
            return CompiledInstance(q, self._traced("general.decode", compiled.decode, True),
                                    self._traced("general.check", compiled.constraint_values))

        return self._retune(builder, pen, op)

    def validate(self, route_path: Path, path: Path) -> int:
        """Mirror of `postqubo validate ROUTE --instance PATH`."""
        try:
            instance = self._load(path)
            doc = instance if isinstance(instance, GraphDocument) else instance.graph_doc
            with self.t.span("serialization.validate"):
                with open(route_path, "r", encoding="utf-8") as fh:
                    problems = revalidate_route(instance, route_from_json(json.load(fh), doc))
        except PostquboError as exc:
            return exit_code(exc)
        if problems:
            self.t.counts["serialization.validate_reject"] += 1
            return 2
        return 0

    def export(self, op, path: Path, out: Path) -> int:
        """Mirror of `postqubo export-qubo PATH --out OUT --force-qubo` for specs."""
        try:
            spec = self._load(path).spec
            with self.t.span("general.compile"):
                compiled = compile_general(spec)
            self._record_compile(compiled)
            q = self._assemble(compiled, default_penalties(spec))
        except PostquboError as exc:
            return exit_code(exc)
        out.mkdir(parents=True, exist_ok=True)
        with self.t.span("qubo.format"):
            text = format_qubo_text(q)
            (out / f"{path.stem}.qubo.txt").write_text(text)
            (out / f"{path.stem}.registry.txt").write_text(format_registry_text(compiled.registry))
        self.t.counts["qubo.bytes"] += len(text.encode())
        return 0

    def oracle(self, op, path: Path, out: Path) -> int:
        """Mirror of `postqubo oracle PATH --out OUT`."""
        try:
            instance = self._load(path)
            if isinstance(instance, GraphDocument):
                with self.t.span("pairing.oracle"):
                    pairing, _ = exact_pairing_oracle(instance.graph)
                    solution = augment_and_route(instance.graph, pairing)
                doc, pipeline = instance, "pairing"
            else:
                with self.t.span("oracle.walk"):
                    solution = exact_walk_oracle(instance.spec, node_limit=2_000_000)
                doc, pipeline = instance.graph_doc, "general"
        except PostquboError as exc:
            return exit_code(exc)
        out.mkdir(parents=True, exist_ok=True)
        self._write_route(solution, doc, pipeline, "oracle", 0, None, 0,
                          out / f"{path.stem}.oracle.json")
        return 0
