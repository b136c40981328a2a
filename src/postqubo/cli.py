"""Batch front-end: solve instances, export QUBOs, run oracles and benches.

Exit codes: 0 success / valid route; 1 input error; 2 no valid solution,
export refusal, or failed validation; 3 oracle budget or size limits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import zlib
from dataclasses import replace
from pathlib import Path

from .errors import (
    InfeasibleEndpoints,
    InputError,
    NoOddVertices,
    NoValidSolution,
    PostquboError,
    SearchBudgetExceeded,
    SpecError,
    TooLarge,
    TooManyOddVertices,
    UnsupportedCombination,
)
from .general import compile_general, default_penalties
from .graphs import Graph, odd_degree_vertices
from .oracle import euler_shortcut, exact_walk_oracle
from .pairing import (
    _augment_and_route,
    compile_pairing,
    euler_route,
    exact_pairing_oracle,
)
from .problem import ProblemSpec
from .qubo import (
    PENALTY_FAMILIES,
    CompiledProblem,
    PenaltyConfig,
    format_qubo_text,
    format_registry_text,
)
from .routes import RouteSolution
from .serialization import (
    GraphDocument,
    SpecDocument,
    dump_json,
    load_instance,
    render_dot,
    revalidate_route,
    route_from_json,
    route_to_json,
)
from .solvers import CompiledInstance, SOLVER_NAMES, make_sampler, solve_with_retune

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_SOLUTION = 2
EXIT_ORACLE_LIMIT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postqubo",
        description="Compile postman-problem variants to QUBOs, solve, and decode routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_compile_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--i-max", type=int, default=None, dest="i_max")
        for family in PENALTY_FAMILIES:
            p.add_argument(
                f"--p-{family.replace('_', '-')}",
                type=float,
                default=None,
                dest=f"p_{family}",
                help=f"penalty multiplier for the {family} constraint",
            )

    def add_sampler_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-retunes", type=int, default=5, dest="max_retunes")
        p.add_argument("--reads", type=int, default=1000)
        p.add_argument("--sweeps", type=int, default=1000)
        p.add_argument("--starts", type=int, default=64)
        p.add_argument("--tenure", type=int, default=None)
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--beta-min", type=float, default=0.1, dest="beta_min")
        p.add_argument("--beta-max", type=float, default=10.0, dest="beta_max")

    def add_common(p: argparse.ArgumentParser, solver: bool = True) -> None:
        p.add_argument("input", type=Path, help="graph or spec JSON file")
        p.add_argument("--pipeline", choices=("auto", "pairing", "general"), default="auto")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        add_compile_flags(p)
        p.add_argument("--force-qubo", action="store_true", dest="force_qubo")
        if solver:
            p.add_argument("--solver", default="sa+greedy")
            p.add_argument("--seed", type=int, default=0)
            add_sampler_flags(p)

    p_solve = sub.add_parser("solve", help="solve one instance and write the route")
    add_common(p_solve)
    p_solve.add_argument("--dot", action="store_true", help="also write a DOT overlay")

    p_export = sub.add_parser("export-qubo", help="write the QUBO text and registry")
    add_common(p_export, solver=False)

    p_oracle = sub.add_parser("oracle", help="exact ground truth for small instances")
    p_oracle.add_argument("input", type=Path, help="instance file or suite directory")
    p_oracle.add_argument("--out", type=Path, default=None, help="output directory")
    p_oracle.add_argument("--node-limit", type=int, default=2_000_000, dest="node_limit")

    p_validate = sub.add_parser("validate", help="re-check a route file")
    p_validate.add_argument("input", type=Path, help="route JSON file")
    p_validate.add_argument("--instance", type=Path, required=True, help="original instance")

    p_bench = sub.add_parser("bench", help="run a suite and emit a CSV")
    p_bench.add_argument("input", type=Path, help="suite directory")
    p_bench.add_argument("--solver", default="sa+greedy", help="comma-separated solver list")
    p_bench.add_argument("--seeds", default="0", help="comma-separated seed list")
    p_bench.add_argument("--out", type=Path, default=None, help="CSV path")
    p_bench.add_argument("--timings", action="store_true", help="include wall_time column")
    add_compile_flags(p_bench)
    add_sampler_flags(p_bench)
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Reject bad arguments before any work; derive `penalties` and `seeds`."""
    args.penalties = {
        f"p_{family}": getattr(args, f"p_{family}")
        for family in PENALTY_FAMILIES
        if getattr(args, f"p_{family}", None) is not None
    }
    if args.command == "bench":
        try:
            args.seeds = tuple(int(s) for s in args.seeds.split(",") if s != "")
        except ValueError:
            raise InputError(f"--seeds must be comma-separated integers: {args.seeds!r}") from None
    if hasattr(args, "reads"):
        # sampler arguments, checked before any work is done
        for name in _solver_names(args):
            if name not in SOLVER_NAMES:
                raise InputError(f"unknown solver {name!r}")
        if hasattr(args, "seed") and args.seed < 0:
            raise InputError("--seed must be >= 0")
        for name in ("reads", "sweeps", "starts", "tenure", "iterations"):
            value = getattr(args, name)
            if value is not None and value < 1:
                raise InputError(f"--{name} must be >= 1")
        if args.max_retunes < 0:
            raise InputError("--max-retunes must be >= 0")
        if not 0 < args.beta_min < args.beta_max < math.inf:
            raise InputError("need finite betas with 0 < --beta-min < --beta-max")
    if getattr(args, "node_limit", 1) < 1:
        raise InputError("--node-limit must be >= 1")


def _solver_names(args: argparse.Namespace) -> list[str]:
    """`solve` takes one solver name, `bench` a comma-separated list."""
    if args.command != "bench":
        return [args.solver]
    return [s.strip() for s in args.solver.split(",") if s.strip()]


def _problem_of(instance, args: argparse.Namespace):
    """(pipeline, graph or spec to compile, graph document) for an instance."""
    pipeline = args.pipeline
    if pipeline == "auto":
        pipeline = "pairing" if isinstance(instance, GraphDocument) else "general"
    if pipeline == "pairing":
        if isinstance(instance, SpecDocument):
            raise InputError("the pairing pipeline takes a graph file, not a spec")
        return pipeline, instance.graph, instance
    if isinstance(instance, SpecDocument):
        spec, doc = instance.spec, instance.graph_doc
    else:
        spec, doc = ProblemSpec(graph=instance.graph), instance
    if args.i_max is not None:
        spec = replace(spec, i_max=args.i_max)
    return pipeline, spec, doc


def _compile(problem, args: argparse.Namespace) -> tuple[CompiledProblem, PenaltyConfig]:
    """Compile a graph or spec; its penalties are the defaults under the --p-* flags."""
    graph = isinstance(problem, Graph)
    pen = PenaltyConfig.for_max_weight(problem.max_weight) if graph else default_penalties(problem)
    pen = replace(pen, **args.penalties)
    if not graph:
        return compile_general(problem), pen
    compiled = compile_pairing(problem, args.penalties.get("p_pairing"))
    return compiled, replace(pen, p_pairing=compiled.penalty)


def _solve_one(
    instance, args: argparse.Namespace, solver: str, seed: int
) -> tuple[RouteSolution, dict, GraphDocument]:
    """Shared solve path; returns (solution, report dict, graph doc)."""
    pipeline, problem, doc = _problem_of(instance, args)
    sampler = make_sampler(
        solver,
        seed=seed,
        starts=args.starts,
        sweeps=args.sweeps,
        reads=args.reads,
        beta_schedule=(args.beta_min, args.beta_max),
        tenure=args.tenure,
        iterations=args.iterations,
    )
    if not args.force_qubo:
        if isinstance(problem, Graph):
            shortcut = None if odd_degree_vertices(problem) else euler_route(problem)
        else:
            shortcut = euler_shortcut(problem)
        if shortcut is not None:
            meta = {"pipeline": pipeline, "solver": "euler-shortcut", "seed": seed,
                    "energy": None, "retunes": 0, "report": None}
            return shortcut, meta, doc
    compiled, pen = _compile(problem, args)

    def builder(p: PenaltyConfig) -> CompiledInstance:
        return CompiledInstance(compiled.qubo(p), compiled.decode, compiled.constraint_values)

    report, solution = solve_with_retune(builder, pen, sampler, args.max_retunes)
    meta = {"pipeline": pipeline, "solver": solver, "seed": seed,
            "energy": report.best_energy, "retunes": report.retunes, "report": report}
    return solution, meta, doc


def _summary_text(solution: RouteSolution, meta: dict) -> str:
    lines = [
        f"pipeline: {meta['pipeline']}",
        f"solver:   {meta['solver']} (seed {meta['seed']})",
        f"energy:   {meta['energy']}",
        f"retunes:  {meta['retunes']}",
        f"weight:   {solution.objective_weight!r}",
        f"turns:    {solution.turn_extra!r}",
        f"valid:    {solution.is_valid}",
    ]
    if not solution.is_valid:
        lines.append("failures: " + ", ".join(solution.validity.failures()))
    for p, walk in enumerate(solution.walks):
        path = " ".join(f"{s.frm}->{s.to}[{s.mode[0]}]" for s in walk.steps)
        lines.append(f"walk {p} (weight {walk.weight!r}): {path}")
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.input)
    solution, meta, doc = _solve_one(instance, args, args.solver, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.input.stem
    route = route_to_json(
        solution, doc, meta["pipeline"], meta["solver"], meta["seed"],
        meta["energy"], meta["retunes"],
    )
    dump_json(route, args.out / f"{stem}.route.json")
    report = meta["report"]
    report_obj = {
        "solver": meta["solver"],
        "seed": meta["seed"],
        "best_energy": meta["energy"],
        "samples_evaluated": report.samples_evaluated if report else 0,
        "wall_time": report.wall_time if report else 0.0,
        "retunes": meta["retunes"],
    }
    dump_json(report_obj, args.out / f"{stem}.report.json")
    (args.out / f"{stem}.summary.txt").write_text(_summary_text(solution, meta))
    if args.dot:
        (args.out / f"{stem}.route.dot").write_text(render_dot(doc, solution))
    print(f"route weight {solution.objective_weight!r}, valid={solution.is_valid}")
    return EXIT_OK if solution.is_valid else EXIT_NO_SOLUTION


def cmd_export_qubo(args: argparse.Namespace) -> int:
    instance = load_instance(args.input)
    _, problem, _ = _problem_of(instance, args)
    if isinstance(problem, Graph):
        if not odd_degree_vertices(problem):
            print(
                "ShortcutApplies: graph is already Eulerian; there is no pairing "
                "QUBO to export",
                file=sys.stderr,
            )
            return EXIT_NO_SOLUTION
    elif not args.force_qubo and euler_shortcut(problem) is not None:
        print(
            "ShortcutApplies: the required edges admit a direct Euler circuit; "
            "re-run with --force-qubo to export anyway",
            file=sys.stderr,
        )
        return EXIT_NO_SOLUTION
    compiled, pen = _compile(problem, args)
    qubo = compiled.qubo(pen)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.input.stem
    (args.out / f"{stem}.qubo.txt").write_text(format_qubo_text(qubo))
    (args.out / f"{stem}.registry.txt").write_text(format_registry_text(compiled.registry))
    print(f"wrote {qubo.n}-variable QUBO")
    return EXIT_OK


def _suite(directory: Path) -> list[Path]:
    """A suite's instance files: its JSON files that are not command outputs."""
    return sorted(
        p
        for p in directory.glob("*.json")
        if not p.name.endswith((".oracle.json", ".route.json", ".report.json"))
    )


def _oracle_route(instance, node_limit: int) -> tuple[RouteSolution, GraphDocument, str]:
    if isinstance(instance, GraphDocument):
        pairing, _added = exact_pairing_oracle(instance.graph)  # checks the graph
        return _augment_and_route(instance.graph, pairing), instance, "pairing"
    solution = exact_walk_oracle(instance.spec, node_limit=node_limit)
    return solution, instance.graph_doc, "general"


def cmd_oracle(args: argparse.Namespace) -> int:
    paths = _suite(args.input) if args.input.is_dir() else [args.input]
    if not paths:
        print("no instances found", file=sys.stderr)
        return EXIT_INPUT
    limited = False
    for path in paths:
        instance = load_instance(path)
        out_dir = args.out if args.out is not None else path.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            solution, doc, pipeline = _oracle_route(instance, args.node_limit)
        except (TooLarge, TooManyOddVertices, SearchBudgetExceeded) as exc:
            print(f"{path.name}: {exc}", file=sys.stderr)
            limited = True
            continue
        route = route_to_json(solution, doc, pipeline, "oracle", 0, None, 0)
        dump_json(route, out_dir / (path.stem + ".oracle.json"))
        print(f"{path.name}: optimum weight {solution.objective_weight!r}")
    return EXIT_ORACLE_LIMIT if limited else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    doc = instance if isinstance(instance, GraphDocument) else instance.graph_doc
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            route_obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read route: {exc}") from exc
    solution = route_from_json(route_obj, doc)
    problems = revalidate_route(instance, solution)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_NO_SOLUTION
    print("route is valid")
    return EXIT_OK


def _bench_rows(args: argparse.Namespace) -> list[tuple[Path, str, int, float | None]]:
    """(instance, solver, seed, oracle weight) rows; every oracle file is read first."""
    suite = _suite(args.input)
    if not suite:
        raise InputError(f"no instances in {args.input}")
    rows = []
    for path in suite:
        oracle_path = path.with_name(path.stem + ".oracle.json")
        oracle_weight = None
        if oracle_path.exists():
            try:
                with open(oracle_path, "r", encoding="utf-8") as fh:
                    oracle_weight = float(json.load(fh)["weight"])
            except (OSError, ValueError, TypeError, KeyError) as exc:
                raise InputError(f"cannot read the weight in {oracle_path}: {exc!r}") from exc
        rows += [(path, solver, seed, oracle_weight)
                 for solver in _solver_names(args) for seed in args.seeds]
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    out_path = args.out if args.out is not None else args.input / "bench.csv"
    header = ["instance", "solver", "seed", "valid", "energy", "weight", "gap_vs_oracle"]
    if args.timings:
        header.append("wall_time")
    rows = []
    successes = 0
    # bench always solves the QUBO of the pipeline its file implies
    args.pipeline, args.force_qubo = "auto", True
    for path, solver, seed, oracle_weight in _bench_rows(args):
        row = {"instance": path.stem, "solver": solver, "seed": seed,
               "valid": "false", "energy": "", "weight": "", "gap_vs_oracle": ""}
        try:
            instance = load_instance(path)
            # per-instance seed stream so suite composition does not couple runs
            row_seed = (seed + zlib.crc32(path.stem.encode())) % (1 << 32)
            solution, meta, _doc = _solve_one(instance, args, solver, row_seed)
            row["valid"] = "true" if solution.is_valid else "false"
            row["energy"] = repr(meta["energy"]) if meta["energy"] is not None else ""
            row["weight"] = repr(solution.objective_weight)
            if oracle_weight is not None:
                row["gap_vs_oracle"] = repr(solution.objective_weight - oracle_weight)
            if args.timings:
                row["wall_time"] = (
                    f"{meta['report'].wall_time:.3f}" if meta["report"] else "0.000"
                )
            successes += 1
        except PostquboError as exc:
            print(f"{path.name} [{solver} seed {seed}]: {exc}", file=sys.stderr)
            if args.timings:
                row["wall_time"] = ""
        rows.append(row)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK if successes else EXIT_INPUT


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": cmd_solve,
        "export-qubo": cmd_export_qubo,
        "oracle": cmd_oracle,
        "validate": cmd_validate,
        "bench": cmd_bench,
    }
    try:
        _check_args(args)
        return handlers[args.command](args)
    except NoValidSolution as exc:
        print(f"no valid solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (TooLarge, TooManyOddVertices, SearchBudgetExceeded) as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return EXIT_ORACLE_LIMIT
    except (InputError, SpecError, UnsupportedCombination, InfeasibleEndpoints, NoOddVertices) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PostquboError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
