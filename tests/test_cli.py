import json

import pytest

from postqubo.cli import _build_parser, main
from postqubo.pairing import compile_pairing
from postqubo.qubo import PENALTY_FAMILIES

FIG_GRAPH = {
    "vertices": [0, 1, 2, 3, 4, 5],
    "undirected": [[3, 2, 5], [2, 1, 1], [1, 0, 1], [0, 5, 2], [5, 4, 5], [4, 2, 5], [5, 2, 4]],
}


@pytest.fixture
def fig_graph_file(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(json.dumps(FIG_GRAPH))
    return path


def run(*args) -> int:
    return main([str(a) for a in args])


def test_solve_pairing_brute(fig_graph_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run("solve", fig_graph_file, "--pipeline", "pairing", "--solver", "brute",
               "--out", out)
    assert code == 0
    route = json.loads((out / "fig.route.json").read_text())
    assert route["weight"] == 32.0
    assert route["valid"] is True
    assert route["pipeline"] == "pairing"
    assert (out / "fig.summary.txt").exists()
    assert (out / "fig.report.json").exists()


def test_solve_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ definitely not json")
    out = tmp_path / "out"
    code = run("solve", bad, "--out", out)
    assert code == 1
    assert not out.exists() or not list(out.iterdir())
    assert "input error" in capsys.readouterr().err


def test_solve_infeasible_endpoints_exits_one(tmp_path, capsys):
    spec = {
        "graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 1]]},
        "start": 0, "stop": 2, "i_max": 1,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = run("solve", path, "--out", tmp_path / "out")
    assert code == 1
    assert "step" in capsys.readouterr().err


def test_solve_unknown_spec_key_exits_one(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"graph": FIG_GRAPH, "wat": 1}))
    assert run("solve", path, "--out", tmp_path / "out") == 1


def test_export_qubo_figure_instance(fig_graph_file, tmp_path):
    out = tmp_path / "out"
    code = run("export-qubo", fig_graph_file, "--pipeline", "pairing",
               "--p-pairing", "10", "--out", out)
    assert code == 0
    text = (out / "fig.qubo.txt").read_text()
    # merged single-variable form: energies E(0)=10 and E(1)=9
    assert text == "n 1 offset 10.0\n0 0 -1.0\n"
    assert (out / "fig.registry.txt").read_text() == "0 x[3,5]\n"
    # re-running produces identical bytes
    code = run("export-qubo", fig_graph_file, "--pipeline", "pairing",
               "--p-pairing", "10", "--out", tmp_path / "out2")
    assert (tmp_path / "out2" / "fig.qubo.txt").read_text() == text


def test_export_qubo_refuses_shortcut_unless_forced(tmp_path, capsys):
    spec = {
        "graph": {"vertices": [0, 1, 2],
                  "undirected": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]},
        "i_max": 3,
    }
    path = tmp_path / "even.json"
    path.write_text(json.dumps(spec))
    code = run("export-qubo", path, "--out", tmp_path / "out")
    assert code == 2
    assert "ShortcutApplies" in capsys.readouterr().err
    assert not (tmp_path / "out" / "even.qubo.txt").exists()
    code = run("export-qubo", path, "--force-qubo", "--out", tmp_path / "out")
    assert code == 0
    assert (tmp_path / "out" / "even.qubo.txt").exists()


def test_export_relabeled_graph_same_energies(tmp_path):
    relabeled = {
        "vertices": ["v5", "v4", "v3", "v2", "v1", "v0"],
        "undirected": [["v2", "v3", 5], ["v3", "v4", 1], ["v4", "v5", 1],
                       ["v5", "v0", 2], ["v0", "v1", 5], ["v1", "v3", 5], ["v0", "v3", 4]],
    }
    p1 = tmp_path / "a.json"
    p1.write_text(json.dumps(FIG_GRAPH))
    p2 = tmp_path / "b.json"
    p2.write_text(json.dumps(relabeled))
    for name in ("a", "b"):
        run("export-qubo", tmp_path / f"{name}.json", "--pipeline", "pairing",
            "--p-pairing", "10", "--out", tmp_path / name)
    qa = (tmp_path / "a" / "a.qubo.txt").read_text()
    qb = (tmp_path / "b" / "b.qubo.txt").read_text()
    # identical energies: same single-variable polynomial either way
    assert qa.splitlines()[1:] == qb.splitlines()[1:]


def test_oracle_single_directed_cycle(tmp_path):
    spec = {"graph": {"vertices": [0, 1, 2],
                      "directed": [[0, 1, 1], [1, 2, 2], [2, 0, 3]]}, "i_max": 3}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(spec))
    assert run("oracle", path) == 0
    oracle = json.loads((tmp_path / "cycle.oracle.json").read_text())
    assert oracle["weight"] == 6.0
    moves = [(s["from"], s["to"]) for s in oracle["walks"][0]]
    assert sorted(moves) == [(0, 1), (1, 2), (2, 0)]


def test_oracle_suite_directory_stable(tmp_path, fig_graph_file, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in ("zz", "aa"):
        (suite / f"{name}.json").write_text(json.dumps(FIG_GRAPH))
    assert run("oracle", suite) == 0
    out = capsys.readouterr().out
    assert out.index("aa.json") < out.index("zz.json")
    assert (suite / "aa.oracle.json").exists()
    assert (suite / "zz.oracle.json").exists()


def test_oracle_too_large_exits_three(tmp_path, rng, capsys):
    from conftest import random_graph_with_odd_count

    g = random_graph_with_odd_count(rng, 14)
    obj = {
        "vertices": sorted(g.vertices),
        "undirected": [[e.a, e.b, e.w_ab] for e in g.undirected],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    assert run("oracle", path) == 3


def test_validate_roundtrip(fig_graph_file, tmp_path):
    out = tmp_path / "out"
    assert run("solve", fig_graph_file, "--pipeline", "pairing", "--solver", "brute",
               "--out", out) == 0
    assert run("validate", out / "fig.route.json", "--instance", fig_graph_file) == 0


def test_validate_detects_tampering(fig_graph_file, tmp_path, capsys):
    out = tmp_path / "out"
    run("solve", fig_graph_file, "--pipeline", "pairing", "--solver", "brute", "--out", out)
    route = json.loads((out / "fig.route.json").read_text())
    route["weight"] = 1.0
    (out / "tampered.json").write_text(json.dumps(route))
    assert run("validate", out / "tampered.json", "--instance", fig_graph_file) == 2


def test_bench_rerun_is_byte_identical(tmp_path, fig_graph_file):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "fig.json").write_text(json.dumps(FIG_GRAPH))
    (suite / "tri.json").write_text(json.dumps({
        "graph": {"vertices": [0, 1, 2],
                  "undirected": [[0, 1, 1], [1, 2, 2], [0, 2, 2]]},
        "start": 0, "stop": 0, "i_max": 3,
    }))
    args = ["bench", suite, "--solver", "sa+greedy,tabu+greedy", "--seeds", "0,1",
            "--reads", "20", "--sweeps", "60"]
    assert run(*args, "--out", tmp_path / "one.csv") == 0
    assert run(*args, "--out", tmp_path / "two.csv") == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    header = (tmp_path / "one.csv").read_text().splitlines()[0]
    assert header == "instance,solver,seed,valid,energy,weight,gap_vs_oracle"


def test_bench_gap_against_oracle_files(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "fig.json").write_text(json.dumps(FIG_GRAPH))
    assert run("oracle", suite) == 0
    assert run("bench", suite, "--solver", "brute", "--out", tmp_path / "b.csv") == 0
    rows = (tmp_path / "b.csv").read_text().splitlines()
    assert rows[1].endswith(",0.0")  # brute hits the oracle weight exactly


def test_bench_empty_suite_exits_one(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run("bench", empty) == 1


def test_bench_timings_column_is_optional(tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "fig.json").write_text(json.dumps(FIG_GRAPH))
    assert run("bench", suite, "--solver", "brute", "--timings",
               "--out", tmp_path / "t.csv") == 0
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header.endswith(",wall_time")


def test_solve_writes_dot_overlay(fig_graph_file, tmp_path):
    out = tmp_path / "out"
    assert run("solve", fig_graph_file, "--pipeline", "pairing", "--solver", "brute",
               "--out", out, "--dot") == 0
    dot = (out / "fig.route.dot").read_text()
    assert dot.startswith("digraph route {")
    assert "color=red" in dot


def test_solve_general_spec_with_solver_flags(tmp_path):
    spec = {
        "graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 2]]},
        "start": 0, "i_max": 4,
    }
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(spec))
    code = run("solve", path, "--solver", "tabu+greedy", "--seed", "3",
               "--iterations", "400", "--out", tmp_path / "out")
    assert code == 0
    route = json.loads((tmp_path / "out" / "walk.route.json").read_text())
    assert route["valid"] is True
    assert route["weight"] == 3.0  # open walk 0-1-2 covers both edges


def solve_and_validate(tmp_path, spec: dict, *flags) -> tuple[dict, int]:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", path, "--solver", "brute", "--out", out, *flags) == 0
    route_path = out / "spec.route.json"
    return json.loads(route_path.read_text()), run("validate", route_path, "--instance", path)


def test_validate_accepts_undirected_edge_walked_high_to_low(tmp_path):
    spec = {
        "graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]},
        "start": 0, "stop": 0, "i_max": 4,
    }
    route, code = solve_and_validate(tmp_path, spec, "--force-qubo")
    assert route["valid"] is True and route["weight"] == 3.0
    assert any(s["from"] > s["to"] for s in route["walks"][0])
    assert code == 0


def test_validate_uses_the_arc_kind_written_in_the_route(tmp_path):
    # an undirected and a directed edge join 0 -> 1; only the cheap one is used
    spec = {
        "graph": {"vertices": [0, 1], "undirected": [[0, 1, 1]], "directed": [[0, 1, 5]]},
        "required": [[0, 1, "u"]], "start": 0, "stop": 0, "i_max": 4,
    }
    route, code = solve_and_validate(tmp_path, spec)
    assert route["valid"] is True and route["weight"] == 2.0
    assert [s["kind"] for s in route["walks"][0]] == ["u", "u"]
    assert code == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--solver", "annealer"), "unknown solver"),
        (("--reads", "0"), "--reads"),
        (("--sweeps", "0"), "--sweeps"),
        (("--tenure", "0"), "--tenure"),
        (("--max-retunes", "-1"), "--max-retunes"),
        (("--beta-min", "2", "--beta-max", "2"), "--beta-min"),
        (("--seed", "-5"), "--seed"),
    ],
)
def test_solve_rejects_bad_sampler_arguments(fig_graph_file, tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    code = run("solve", fig_graph_file, "--out", out, *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err
    assert not out.exists()


TRIANGLE_SPEC = {
    "graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]},
    "start": 0, "stop": 0, "i_max": 4,
}


@pytest.mark.parametrize(
    "flags, message",
    [
        (("solve", "--beta-min", "0"), "--beta-min"),
        (("solve", "--beta-min", "-1"), "--beta-min"),
        (("solve", "--beta-max", "inf"), "--beta-max"),
        (("solve", "--p-one-edge", "nan"), "p_one_edge"),
        (("solve", "--solver", "tabu+greedy", "--iterations", "0"), "--iterations"),
        (("solve", "--solver", "tabu+greedy", "--iterations", "-3"), "--iterations"),
        (("oracle", "--node-limit", "0"), "--node-limit"),
        (("oracle", "--node-limit", "-5"), "--node-limit"),
    ],
)
def test_bad_numeric_arguments_are_input_errors(tmp_path, capsys, flags, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TRIANGLE_SPEC))
    command, *rest = flags
    out = tmp_path / "out"
    if command == "solve":
        rest = ["--force-qubo", "--reads", "20", "--sweeps", "50", *rest]
    assert run(command, path, "--out", out, *rest) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_pairing_retunes_reuse_one_compile(fig_graph_file, tmp_path, capsys, monkeypatch):
    import postqubo.cli as cli

    calls = []

    def counting_compile(g, p):
        calls.append(p)
        return compile_pairing(g, p)

    monkeypatch.setattr(cli, "compile_pairing", counting_compile)
    code = run("solve", fig_graph_file, "--solver", "brute", "--p-pairing", "0.001",
               "--out", tmp_path / "out")
    assert code == 2
    assert "after 5 retunes" in capsys.readouterr().err
    assert calls == [0.001]


def test_validate_checks_the_turn_bonus(tmp_path, capsys):
    spec = {
        "graph": {"vertices": [0, 1, 2], "directed": [[0, 1, 1], [1, 2, 1], [2, 0, 1]]},
        "turn_penalties": [[[0, 1], [1, 2], 3.0]], "start": 0, "i_max": 3,
    }
    route, code = solve_and_validate(tmp_path, spec)
    assert route["turn_extra"] == 3.0 and code == 0
    route["turn_extra"] = 123.0
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(route))
    capsys.readouterr()
    assert run("validate", tampered, "--instance", tmp_path / "spec.json") == 2
    assert "turn_extra" in capsys.readouterr().err


def test_bench_rejects_non_integer_seeds(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "fig.json").write_text(json.dumps(FIG_GRAPH))
    out = tmp_path / "b.csv"
    assert run("bench", suite, "--seeds", "a", "--out", out) == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


def test_pairing_solve_computes_shortest_paths_once(fig_graph_file, tmp_path, monkeypatch):
    import postqubo.graphs as graphs
    import postqubo.pairing as pairing

    calls = []
    real = graphs.shortest_paths

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "shortest_paths", counting)
    monkeypatch.setattr(pairing, "shortest_paths", counting, raising=False)
    assert run("solve", fig_graph_file, "--solver", "brute", "--out", tmp_path / "out") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("force_qubo", [(), ("--force-qubo",)])
def test_pairing_solve_checks_its_input_once(fig_graph_file, tmp_path, monkeypatch, force_qubo):
    import postqubo.pairing as pairing

    calls = []
    real = pairing._check_pairing_input

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(pairing, "_check_pairing_input", counting)
    assert run("solve", fig_graph_file, "--solver", "brute", *force_qubo,
               "--out", tmp_path / "out") == 0
    assert len(calls) == 1


def test_pairing_oracle_checks_its_input_once(fig_graph_file, tmp_path, monkeypatch):
    import postqubo.pairing as pairing

    calls = []
    real = pairing._check_pairing_input

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(pairing, "_check_pairing_input", counting)
    assert run("oracle", fig_graph_file, "--out", tmp_path / "out") == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "out" / "fig.oracle.json").read_text())["weight"] == 32.0


def test_oracle_keeps_lighter_capacitated_walk_with_turn_bonus(tmp_path, capsys):
    # the optimum 0-4-1-5-6 weighs 5 and pays the turn bonus; the bonus-free
    # walk through 2 weighs 6 and breaks the capacity
    spec = {
        "graph": {"vertices": [0, 1, 2, 3, 4, 5, 6],
                  "undirected": [[0, 2, 2], [2, 1, 1], [0, 4, 1], [4, 1, 1], [1, 5, 1],
                                 [5, 6, 2]]},
        "start": 0, "required": [[5, 6, "u"]], "turn_penalties": [[[0, 4], [4, 1], 10]],
        "postmen": {"count": 1, "capacities": [5]}, "i_max": 4,
    }
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(spec))
    assert run("oracle", path) == 0
    oracle = json.loads((tmp_path / "cap.oracle.json").read_text())
    assert (oracle["weight"], oracle["turn_extra"], oracle["valid"]) == (5.0, 10.0, True)
    assert [(s["from"], s["to"]) for s in oracle["walks"][0]] == [(0, 4), (4, 1), (1, 5), (5, 6)]
    assert run("validate", path.with_name("cap.oracle.json"), "--instance", path) == 0


def test_solve_and_bench_share_flag_defaults():
    solve = vars(_build_parser().parse_args(["solve", "x"]))
    bench = vars(_build_parser().parse_args(["bench", "x"]))
    shared = set(solve) & set(bench) - {"command", "input", "out"}
    assert shared == {"solver", "i_max", "max_retunes", "reads", "sweeps", "starts", "tenure",
                      "iterations", "beta_min", "beta_max",
                      *(f"p_{family}" for family in PENALTY_FAMILIES)}
    assert {k: solve[k] for k in shared} == {k: bench[k] for k in shared}


TRIANGLE = {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 1], [2, 0, 1]]}
MALFORMED_NUMBERS = {
    "edge-weight-string": {"vertices": [0, 1], "undirected": [[0, 1, "x"]]},
    "edge-weight-null": {"vertices": [0, 1], "undirected": [[0, 1, None]]},
    "vertices-not-a-list": {"vertices": 5},
    "postman-count-string": {"graph": TRIANGLE, "postmen": {"count": "two"}},
    "capacity-string": {"graph": TRIANGLE, "postmen": {"count": 2, "capacities": ["big", 3]}},
    "nan-turn-bonus": {"graph": TRIANGLE, "turn_penalties": [[[0, 1], [1, 2], float("nan")]]},
    "infinite-service-weight": {
        "graph": TRIANGLE, "service": {"service_weights": [[0, 1, float("inf")]]},
    },
    "oracle-file-without-weight": None,
}


@pytest.mark.parametrize("case", list(MALFORMED_NUMBERS))
def test_malformed_numbers_are_input_errors(case, tmp_path, capsys):
    if MALFORMED_NUMBERS[case] is None:
        (tmp_path / "fig.json").write_text(json.dumps(FIG_GRAPH))
        (tmp_path / "fig.oracle.json").write_text(json.dumps({"walks": []}))
        argv, written = ("bench", tmp_path, "--solver", "brute"), tmp_path / "bench.csv"
    else:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(MALFORMED_NUMBERS[case]))
        written = tmp_path / "out"
        argv = ("export-qubo", path, "--force-qubo", "--out", written)
    assert run(*argv) == 1
    assert "input error:" in capsys.readouterr().err
    assert not written.exists()


MALFORMED_FIELDS = {
    "edge-list-not-a-list": {"vertices": [0, 1], "undirected": 5},
    "service-weights-not-a-list": {"graph": TRIANGLE, "service": {"service_weights": 5}},
    "hierarchy-not-a-list": {"graph": TRIANGLE, "hierarchy": 5},
    "turn-penalties-not-a-list": {"graph": TRIANGLE, "turn_penalties": 5},
    "postman-weights-not-a-list": {"graph": TRIANGLE, "postmen": {"count": 1, "weights": 5}},
    "postman-weight-table-not-a-list": {"graph": TRIANGLE, "postmen": {"count": 1, "weights": [5]}},
    "fractional-step-budget": {"graph": TRIANGLE, "i_max": 2.7},
    "fractional-postman-count": {"graph": TRIANGLE, "postmen": {"count": 1.9}},
    "boolean-step-budget": {"graph": TRIANGLE, "i_max": True},
    "boolean-postman-count": {"graph": TRIANGLE, "postmen": {"count": True}},
    "string-step-budget": {"graph": TRIANGLE, "i_max": "3"},
}


def export_qubo(spec, tmp_path, name="case"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / f"{name}-out"
    return run("export-qubo", path, "--force-qubo", "--out", out), out


@pytest.mark.parametrize("case", list(MALFORMED_FIELDS))
def test_malformed_spec_fields_are_input_errors(case, tmp_path, capsys):
    code, out = export_qubo(MALFORMED_FIELDS[case], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert not out.exists()


def test_integral_floats_are_counts(tmp_path):
    written = []
    for name, i_max, count in (("ints", 2, 1), ("floats", 2.0, 1.0)):
        spec = {"graph": TRIANGLE, "i_max": i_max, "postmen": {"count": count}}
        code, out = export_qubo(spec, tmp_path, name)
        assert code == 0
        written.append({p.name.removeprefix(name): p.read_bytes() for p in out.iterdir()})
    assert written[0] and written[0] == written[1]
