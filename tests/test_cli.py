import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from postqubo import cli
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


@pytest.mark.parametrize("command", [["solve"], ["solve", "--force-qubo"],
                                     ["export-qubo", "--force-qubo"]])
def test_edgeless_spec_is_an_input_error(command, tmp_path, capsys):
    # no edges: the default step budget is 0, so there is nothing to compile
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"graph": {"vertices": [0, 1], "undirected": []}}))
    code = run(command[0], path, *command[1:], "--out", tmp_path / "out")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "i_max is 0" in err


@pytest.mark.parametrize("command", [["solve"], ["solve", "--force-qubo"], ["oracle"],
                                     ["export-qubo"], ["export-qubo", "--force-qubo"]])
def test_edgeless_graph_file_is_an_input_error(command, tmp_path, capsys):
    # a graph file asks for a closed walk over its edges; the empty walk fails validate
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": ["a"]}))
    code = run(command[0], path, *command[1:], "--out", tmp_path / "out")
    assert code == 1
    assert "the graph has no edges to walk" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_oracle_on_edgeless_spec_answers_or_finds_no_walk(tmp_path, capsys):
    # the default step budget is 0: the empty walk ends at the stop only
    # when no start pins the walk elsewhere
    graph = {"vertices": [0, 1], "undirected": []}
    (tmp_path / "free.json").write_text(json.dumps({"graph": graph, "stop": 1}))
    (tmp_path / "pinned.json").write_text(json.dumps({"graph": graph, "start": 0, "stop": 1}))
    assert run("oracle", tmp_path / "free.json") == 0
    assert json.loads((tmp_path / "free.oracle.json").read_text())["walks"] == [[]]
    assert run("oracle", tmp_path / "pinned.json") == 2
    assert "no covering walk fits" in capsys.readouterr().err


def test_oracle_eulerian_graph_is_its_euler_circuit(tmp_path, capsys):
    path = tmp_path / "even.json"
    path.write_text(json.dumps(TRIANGLE))
    assert run("oracle", path) == 0
    assert "even.json: optimum weight 3.0" in capsys.readouterr().out
    oracle = json.loads((tmp_path / "even.oracle.json").read_text())
    assert (oracle["weight"], oracle["valid"]) == (3.0, True)
    assert sorted((s["from"], s["to"]) for s in oracle["walks"][0]) == [(0, 1), (1, 2), (2, 0)]
    assert run("validate", tmp_path / "even.oracle.json", "--instance", path) == 0
    assert run("solve", path, "--out", tmp_path / "out") == 0
    assert json.loads((tmp_path / "out" / "even.route.json").read_text())["weight"] == 3.0


def test_oracle_suite_goes_past_an_eulerian_graph(tmp_path, capsys):
    (tmp_path / "a_even.json").write_text(json.dumps(TRIANGLE))
    (tmp_path / "b_fig.json").write_text(json.dumps(FIG_GRAPH))
    assert run("oracle", tmp_path) == 0
    out = capsys.readouterr().out
    assert "a_even.json: optimum weight 3.0" in out
    assert "b_fig.json: optimum weight 32.0" in out
    assert json.loads((tmp_path / "a_even.oracle.json").read_text())["weight"] == 3.0
    assert json.loads((tmp_path / "b_fig.oracle.json").read_text())["weight"] == 32.0


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


def test_oracle_suite_skips_an_infeasible_spec(tmp_path, capsys):
    no_walk = {"graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]},
               "i_max": 2}
    path_graph = {"vertices": [0, 1, 2, 3], "undirected": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]}
    (tmp_path / "a.json").write_text(json.dumps(no_walk))
    (tmp_path / "b.json").write_text(json.dumps(path_graph))
    assert run("oracle", tmp_path) == 2
    captured = capsys.readouterr()
    assert "a.json: no covering walk" in captured.err
    assert "b.json: optimum weight" in captured.out
    assert not (tmp_path / "a.oracle.json").exists()
    assert json.loads((tmp_path / "b.oracle.json").read_text())["valid"] is True
    assert run("oracle", tmp_path / "a.json") == 2
    # a file with no covering walk outranks one that hits a limit
    star = {"vertices": list(range(15)), "undirected": [[0, k, 1] for k in range(1, 15)]}
    (tmp_path / "c.json").write_text(json.dumps(star))
    assert run("oracle", tmp_path / "c.json") == 3
    (tmp_path / "b.oracle.json").unlink()
    assert run("oracle", tmp_path) == 2
    assert (tmp_path / "b.oracle.json").exists()
    assert run("oracle", tmp_path / "b.json") == 0


def test_oracle_suite_names_each_file_it_cannot_read_or_model(tmp_path, capsys):
    path_graph = {"vertices": [0, 1, 2, 3], "undirected": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]}
    team = {"graph": path_graph, "postmen": {"count": 2}}
    (tmp_path / "a_team.json").write_text(json.dumps(team))
    (tmp_path / "b_malformed.json").write_text("{not json")
    (tmp_path / "c_path.json").write_text(json.dumps({"graph": path_graph}))
    assert run("oracle", tmp_path) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.err.splitlines()] == [
        "a_team.json", "b_malformed.json"]
    assert "c_path.json: optimum weight 3.0" in captured.out
    assert [p.name for p in sorted(tmp_path.glob("*.oracle.json"))] == ["c_path.oracle.json"]


def test_validate_roundtrip(fig_graph_file, tmp_path):
    out = tmp_path / "out"
    assert run("solve", fig_graph_file, "--pipeline", "pairing", "--solver", "brute",
               "--out", out) == 0
    assert run("validate", out / "fig.route.json", "--instance", fig_graph_file) == 0


def test_validate_checks_a_general_route_on_a_graph_file_as_solve_did(tmp_path, capsys):
    # the general pipeline may end an open walk; a pairing route must be closed
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps({"vertices": [0, 1, 2, 3],
                                 "undirected": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]}))
    out = tmp_path / "out"
    assert run("solve", graph, "--pipeline", "general", "--reads", 50, "--sweeps", 100,
               "--out", out) == 0
    route = json.loads((out / "path.route.json").read_text())
    assert route["valid"] is True and route["pipeline"] == "general"
    assert route["walks"][0][0]["from"] != route["walks"][0][-1]["to"]
    assert run("validate", out / "path.route.json", "--instance", graph) == 0
    route["pipeline"] = "pairing"
    (out / "pairing.json").write_text(json.dumps(route))
    capsys.readouterr()
    assert run("validate", out / "pairing.json", "--instance", graph) == 2
    assert "walk is not closed" in capsys.readouterr().err


def test_pairing_route_with_fractional_weights_validates(tmp_path):
    # the stated weight is the steps summed in walk order, as validate sums them
    # (the edges plus the added path weight came out 8163852.9692 != 8163852.969199998)
    graph = tmp_path / "g9.json"
    graph.write_text(json.dumps({"vertices": list(range(9)), "undirected": [
        [1, 6, 972449.3444], [2, 5, 651994.1385], [5, 8, 139834.5696], [2, 6, 103649.6297],
        [6, 7, 220575.2743], [3, 5, 946902.0443], [0, 4, 372574.5058], [6, 8, 429531.0415],
        [0, 5, 908376.6201], [3, 8, 382927.4245], [0, 7, 594083.9656], [3, 7, 492427.8619]]}))
    out = tmp_path / "out"
    assert run("solve", graph, "--solver", "brute", "--out", out) == 0
    assert run("validate", out / "g9.route.json", "--instance", graph) == 0


def test_oracle_turn_bonus_is_the_stated_bonus(tmp_path):
    # weight + bonus - weight gave 0.2999999523162842 at these weights
    spec = tmp_path / "turn.json"
    spec.write_text(json.dumps({
        "graph": {"vertices": [0, 1, 2],
                  "directed": [[0, 1, 123456789.1], [1, 2, 234567891.2], [2, 0, 345678912.3]]},
        "turn_penalties": [[[0, 1], [1, 2], 0.3]], "start": 0, "i_max": 3}))
    assert run("oracle", spec) == 0
    assert json.loads((tmp_path / "turn.oracle.json").read_text())["turn_extra"] == 0.3
    assert run("validate", tmp_path / "turn.oracle.json", "--instance", spec) == 0


def test_solve_finds_the_service_optimum_of_service_steps_only(tmp_path):
    # the optimum 2-0-1-3-0 services every edge in four of the six steps
    spec = tmp_path / "svc.json"
    spec.write_text(json.dumps({
        "graph": {"vertices": [0, 1, 2, 3], "undirected": [[0, 1, 4], [0, 2, 9, 8], [0, 3, 2]],
                  "directed": [[1, 3, 4]]},
        "service": {}, "i_max": 6}))
    out = tmp_path / "out"
    assert run("solve", spec, "--out", out) == 0
    assert json.loads((out / "svc.route.json").read_text())["weight"] == 18.0
    assert run("oracle", spec, "--out", out) == 0
    assert json.loads((out / "svc.oracle.json").read_text())["weight"] == 18.0


OVERFLOW_GRAPH = {"vertices": [0, 1, 2, 3],
                  "undirected": [[0, 1, 1e308], [1, 2, 1e308], [2, 3, 1], [3, 0, 1], [0, 2, 1]]}
OVERFLOW_SPEC = {"graph": {"vertices": [0, 1, 2], "directed": [[0, 1, 1e308], [1, 2, 1e308],
                                                               [2, 0, 1]]}}


@pytest.mark.parametrize("doc, command", [
    (OVERFLOW_GRAPH, ("oracle",)),
    (OVERFLOW_GRAPH, ("solve", "--solver", "brute")),
    (OVERFLOW_SPEC, ("oracle",)),
])
def test_a_route_whose_weight_overflows_is_an_input_error(tmp_path, capsys, doc, command):
    # two weights of 1e308 sum to inf: no route may call that weight valid
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(*command[:1], path, *command[1:], "--out", out) == 1
    assert "not finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.glob("*.json"))


def test_oracle_makes_no_output_directory_for_instances_it_rejects(tmp_path, capsys):
    # like solve and export-qubo: a rejected instance leaves no empty --out behind
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "graph.json").write_text(json.dumps(OVERFLOW_GRAPH))
    (suite / "spec.json").write_text(json.dumps(OVERFLOW_SPEC))
    for target in (suite / "graph.json", suite):
        out = tmp_path / "out"
        assert run("oracle", target, "--out", out) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


def test_validate_detects_tampering(fig_graph_file, tmp_path, capsys):
    out = tmp_path / "out"
    run("solve", fig_graph_file, "--pipeline", "pairing", "--solver", "brute", "--out", out)
    route = json.loads((out / "fig.route.json").read_text())
    route["weight"] = 1.0
    (out / "tampered.json").write_text(json.dumps(route))
    assert run("validate", out / "tampered.json", "--instance", fig_graph_file) == 2


@pytest.mark.parametrize("walks, message", [
    (lambda walk: [walk, walk], "expected 1 walks, found 2"),
    (lambda walk: [], "expected 1 walks, found 0"),
    (lambda walk: [[]], "empty walk"),
])
def test_validate_checks_a_graph_files_walk_count_and_empty_walk(
        fig_graph_file, tmp_path, capsys, walks, message):
    out = tmp_path / "out"
    run("solve", fig_graph_file, "--pipeline", "pairing", "--solver", "brute", "--out", out)
    route = json.loads((out / "fig.route.json").read_text())
    route["walks"] = walks(route["walks"][0])
    (out / "broken.json").write_text(json.dumps(route))
    capsys.readouterr()
    assert run("validate", out / "broken.json", "--instance", fig_graph_file) == 2
    assert capsys.readouterr().err == message + "\n"


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


def test_dot_labels_escape_quotes_and_backslashes(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"vertices": ['a"b', "c\\", "d"],
                                "undirected": [['a"b', "c\\", 1], ["c\\", "d", 1],
                                               ["d", 'a"b', 1]]}))
    out = tmp_path / "out"
    assert run("solve", path, "--out", out, "--dot") == 0
    dot = (out / "odd.route.dot").read_text()
    # every quoted string is a DOT string: quotes and backslashes escaped
    labels = re.findall(r'label="((?:[^"\\]|\\.)*)"', dot)
    assert len(labels) == dot.count("label=")
    assert {'a\\"b', "c\\\\", "d"} <= set(labels)


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


ZERO_DISTANCE_GRAPH = {"vertices": [0, 1, 2, 3], "undirected": [[0, 1, 0], [1, 2, 0], [2, 3, 0]]}


def test_zero_distance_pairing_graph_solves_and_exports(tmp_path, capsys):
    route, code = solve_and_validate(tmp_path, ZERO_DISTANCE_GRAPH)
    assert route["weight"] == 0.0 and route["valid"] is True
    assert code == 0
    assert run("export-qubo", tmp_path / "spec.json", "--out", tmp_path / "qubo") == 0


ROUTE_BREAKS = {
    "walks-not-a-list": ("walks", 5),
    "walk-not-a-list": ("walks", [5]),
    "weight-string": ("weight", "abc"),
    "weight-null": ("weight", None),
    "validity-unknown-flag": ("validity", {"foo": True}),
    "validity-not-an-object": ("validity", 5),
    "validity-flag-not-a-bool": ("validity", {"contiguous": "yes"}),
    "turn-extra-string": ("turn_extra", "x"),
}


@pytest.mark.parametrize("case", list(ROUTE_BREAKS))
def test_validate_rejects_malformed_route_fields(case, tmp_path, capsys):
    route, code = solve_and_validate(tmp_path, TRIANGLE)
    assert code == 0
    key, value = ROUTE_BREAKS[case]
    route[key] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(route))
    capsys.readouterr()
    assert run("validate", broken, "--instance", tmp_path / "spec.json") == 1
    assert capsys.readouterr().err.startswith("input error:")


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


@pytest.mark.parametrize("command", ["solve", "export-qubo", "bench"])
@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_bad_penalty_multipliers_are_rejected_before_any_work(
    fig_graph_file, tmp_path, capsys, command, value
):
    out = tmp_path / "out" / ("rows.csv" if command == "bench" else "")
    target = fig_graph_file.parent if command == "bench" else fig_graph_file
    code = run(command, target, "--out", out, "--p-pairing", value)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "--p-pairing" in err
    assert not (tmp_path / "out").exists()


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
        # float32 annealing overflows past these
        (("solve", "--beta-min", "1e-50"), "--beta-min"),
        (("solve", "--beta-max", "1e39"), "--beta-max"),
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

    def counting_compile(g, p=None):
        calls.append(p)
        return compile_pairing(g, p)

    monkeypatch.setattr(cli, "compile_pairing", counting_compile)
    code = run("solve", fig_graph_file, "--solver", "brute", "--p-pairing", "0.001",
               "--out", tmp_path / "out")
    assert code == 2
    assert "after 5 retunes" in capsys.readouterr().err
    assert calls == [None]  # compiled once at its default; --p-pairing sets the penalty


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


@pytest.mark.parametrize("field", ["weight", "turn_extra"])
def test_validate_rejects_a_stated_nan(tmp_path, capsys, field):
    spec = {
        "graph": {"vertices": [0, 1, 2], "directed": [[0, 1, 1], [1, 2, 1], [2, 0, 1]]},
        "turn_penalties": [[[0, 1], [1, 2], 3.0]], "start": 0, "i_max": 3,
    }
    route, code = solve_and_validate(tmp_path, spec)
    assert code == 0
    route[field] = float("nan")
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(route))
    capsys.readouterr()
    assert run("validate", tampered, "--instance", tmp_path / "spec.json") == 2
    assert f"stated {field} nan" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--seeds", "a"), ("--seeds", ""), ("--seeds", ","), ("--solver", ","),
], ids=["seeds-a", "seeds-empty", "seeds-comma", "solver-comma"])
def test_bench_rejects_non_integer_seeds(tmp_path, capsys, flag, value):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "fig.json").write_text(json.dumps(FIG_GRAPH))
    out = tmp_path / "b.csv"
    assert run("bench", suite, flag, value, "--out", out) == 1
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
    "edge-weight-numeric-string": {"vertices": [0, 1], "undirected": [[0, 1, "3"]]},
    "edge-weight-bool": {"vertices": [0, 1], "undirected": [[0, 1, True]]},
    "directed-weight-numeric-string": {"vertices": [0, 1], "directed": [[0, 1, "3"], [1, 0, 1]]},
    "turn-bonus-numeric-string": {"graph": TRIANGLE, "turn_penalties": [[[0, 1], [1, 2], "2"]]},
    "service-weight-numeric-string": {
        "graph": TRIANGLE, "service": {"service_weights": [[0, 1, "2"]]},
    },
    "traverse-weight-numeric-string": {
        "graph": TRIANGLE, "service": {"traverse_weights": [[0, 1, "2"]]},
    },
    "postman-weight-numeric-string": {
        "graph": TRIANGLE, "postmen": {"count": 1, "weights": [[[0, 1, "2"]]]},
    },
    "capacity-bool": {"graph": TRIANGLE, "postmen": {"count": 2, "capacities": [True, 9]}},
    "oracle-file-without-weight": {"walks": []},
    "oracle-weight-numeric-string": {"weight": "2"},
    "oracle-weight-bool": {"weight": True},
}


@pytest.mark.parametrize("case", list(MALFORMED_NUMBERS))
def test_malformed_numbers_are_input_errors(case, tmp_path, capsys):
    if case.startswith("oracle-"):
        (tmp_path / "fig.json").write_text(json.dumps(FIG_GRAPH))
        (tmp_path / "fig.oracle.json").write_text(json.dumps(MALFORMED_NUMBERS[case]))
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
    "capacities-not-a-list": {"graph": TRIANGLE, "postmen": {"count": 2, "capacities": "99"}},
    "collision-flag-string": {
        "graph": TRIANGLE, "postmen": {"count": 2}, "forbid_edge_collisions": "no",
    },
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


PATH_GRAPH = {"vertices": [0, 1, 2, 3], "undirected": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]}
U01, U12 = [0, 1, "u"], [1, 2, "u"]
MALFORMED_INSTANCES = {
    "graph-self-loop": (
        {"vertices": [0, 1], "undirected": [[0, 0, 1], [0, 1, 1]]}, "invalid graph"),
    "graph-self-loop-on-a-label": (
        {"vertices": ["x", "y", "z"], "undirected": [["x", "y", 1], ["z", "z", 1]]},
        "invalid graph: self-loop on vertex 'z'"),
    "graph-without-vertices": ({"undirected": [[0, 1, 1]]}, "missing keys ['vertices']"),
    "graph-duplicate-labels": (
        {"vertices": [0, 1, 0], "undirected": [[0, 1, 1]]}, "duplicate vertex labels"),
    "graph-two-field-directed-entry": (
        {"vertices": [0, 1], "directed": [[0, 1]]}, "directed entry needs"),
    "graph-top-level-list": ([TRIANGLE], "expected a JSON object"),
    "required-not-a-list": ({"graph": TRIANGLE, "required": 5}, "spec.required must be"),
    "required-kind-x": ({"graph": TRIANGLE, "required": [[0, 1, "x"]]}, "required edge must be"),
    "turn-three-numbers": (
        {"graph": TRIANGLE, "turn_penalties": [[0, 1, 2]]}, "turn entry needs"),
    "turn-onto-missing-arc": (
        {"graph": PATH_GRAPH, "turn_penalties": [[[0, 1], [1, 3], 1]]},
        "turn tuple references missing arcs"),
    "turn-onto-missing-arc-by-label": (
        {"graph": {"vertices": ["x", "y", "z"], "undirected": [["x", "y", 1], ["y", "z", 1]]},
         "turn_penalties": [[["y", "z"], ["z", "x"], 1]]},
        "turn tuple references missing arcs: [['y', 'z'], ['z', 'x'], 1]"),
    "hierarchy-one-edge-entry": (
        {"graph": TRIANGLE, "service": True, "hierarchy": [[U01]]}, "hierarchy entry needs"),
    "service-weight-on-missing-arc": (
        {"graph": TRIANGLE, "service": {"service_weights": [[0, 2, 1, "d"]]}},
        "no arc 0->2 of kind 'd'"),
    "service-weight-two-fields": (
        {"graph": TRIANGLE, "service": {"service_weights": [[0, 1]]}},
        "service weight entry needs"),
    "no-postmen": ({"graph": TRIANGLE, "postmen": {"count": 0}}, "postman count must be >= 1"),
    "one-capacity-two-postmen": (
        {"graph": TRIANGLE, "postmen": {"count": 2, "capacities": [9]}},
        "need one capacity per postman"),
    "fractional-capacity": (
        {"graph": TRIANGLE, "postmen": {"count": 1, "capacities": [2.5]}},
        "capacities must be positive integers"),
    "one-weight-table-two-postmen": (
        {"graph": TRIANGLE, "postmen": {"count": 2, "weights": [[]]}},
        "need one weight table per postman"),
    "hierarchy-on-non-required-edge": (
        {"graph": TRIANGLE, "required": [U01], "service": True, "hierarchy": [[U01, U12]]},
        "hierarchy pairs must reference required edges"),
    "hierarchy-on-one-edge-twice": (
        {"graph": TRIANGLE, "service": True, "hierarchy": [[U01, U01]]},
        "relates an edge to itself"),
    "collisions-with-service": (
        {"graph": TRIANGLE, "service": True, "forbid_edge_collisions": True},
        "do not combine with service mode"),
}


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("case", list(MALFORMED_INSTANCES))
def test_malformed_instances_exit_one_and_write_nothing(case, command, tmp_path, capsys):
    doc, fragment = MALFORMED_INSTANCES[case]
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(command, path, "--out", out) == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_integral_floats_are_counts(tmp_path):
    written = []
    for name, i_max, count in (("ints", 2, 1), ("floats", 2.0, 1.0)):
        spec = {"graph": TRIANGLE, "i_max": i_max, "postmen": {"count": count}}
        code, out = export_qubo(spec, tmp_path, name)
        assert code == 0
        written.append({p.name.removeprefix(name): p.read_bytes() for p in out.iterdir()})
    assert written[0] and written[0] == written[1]


def test_even_graph_forced_is_an_input_error_in_solve_and_export(tmp_path, capsys):
    """A graph with no odd-degree vertices has no pairing QUBO: forcing one
    is an input error in both commands; unforced, `solve` takes its Euler
    circuit and `export-qubo` refuses with exit 2."""
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE))
    for command in ("solve", "export-qubo"):
        out = tmp_path / f"{command}-out"
        assert run(command, path, "--force-qubo", "--out", out) == 1
        assert capsys.readouterr().err == (
            "input error: graph has no odd-degree vertices to pair\n"
        )
        assert not out.exists()
    assert run("solve", path, "--out", tmp_path / "solved") == 0
    assert run("export-qubo", path, "--out", tmp_path / "refused") == 2
    assert capsys.readouterr().err.startswith("ShortcutApplies: graph is already Eulerian")


def test_main_builds_one_parser_and_each_call_gets_its_defaults(monkeypatch):
    seen = []

    def record(args):
        seen.append(vars(args).copy())
        return 0

    monkeypatch.setattr(cli, "cmd_solve", record)
    assert main(["solve", "x", "--seed", "5", "--reads", "3", "--p-pairing", "2"]) == 0
    parser = _build_parser()
    assert main(["solve", "x"]) == 0
    assert _build_parser() is parser
    first, second = seen
    assert (first["seed"], first["reads"], first["penalties"]) == (5, 3, {"p_pairing": 2.0})
    assert (second["seed"], second["reads"], second["penalties"]) == (0, 1000, {})
    fresh = vars(_build_parser.__wrapped__().parse_args(["solve", "x"]))
    assert {k: second[k] for k in fresh} == fresh


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["bench", "--help"]])
def test_help_text_is_the_fresh_parsers(argv, capsys):
    printed = []
    for parse in (main, main, _build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        assert exit_info.value.code == 0
        printed.append(capsys.readouterr().out)
    assert printed[0].startswith("usage: postqubo")
    assert printed[0] == printed[1] == printed[2]


@pytest.mark.parametrize("spec, flags", [
    # a capacity of 1e200: its slack register's squared weights overflow
    ({"graph": TRIANGLE, "postmen": {"count": 1, "capacities": [1e200]}}, ()),
    # twice the one-edge multiplier overflows in the penalised couplings
    ({"graph": TRIANGLE}, ("--p-one-edge", "1e308")),
    # each family's coupling is finite, their sum is not
    ({"graph": TRIANGLE, "required": [[0, 1, "u"]], "i_max": 1},
     ("--p-one-edge", "5e307", "--p-required", "5e307")),
])
def test_a_qubo_that_overflows_is_an_error_and_writes_nothing(tmp_path, capsys, spec, flags):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for command in ("export-qubo", "solve"):
        out = tmp_path / command
        assert run(command, path, "--force-qubo", *flags, "--out", out) == 1
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()


TWO_TRIANGLES = {"vertices": [0, 1, 2, 3, 4, 5],
                 "undirected": [[0, 1, 1], [1, 2, 1], [2, 0, 1], [3, 4, 1], [4, 5, 1], [5, 3, 1]]}
WINDY_TRIANGLE = {"vertices": [0, 1, 2], "undirected": [[0, 1, 1, 2], [1, 2, 1], [2, 0, 1]]}


@pytest.mark.parametrize("graph, message", [
    (TWO_TRIANGLES, "pairing pipeline needs a connected graph"),
    (WINDY_TRIANGLE, "edge [0,1] has w_ab=1.0 != w_ba=2.0"),
], ids=["two-triangles", "windy-triangle"])
def test_an_even_graph_the_pairing_pipeline_rejects_has_no_shortcut(
        tmp_path, capsys, graph, message):
    # every degree is even, but no Euler circuit answers the graph file: each
    # command rejects it as the pairing pipeline does, and export-qubo says no
    # "already Eulerian"
    path = tmp_path / "even.json"
    path.write_text(json.dumps(graph))
    for command in ("export-qubo", "solve", "oracle"):
        out = tmp_path / f"{command}-out"
        assert run(command, path, "--out", out) == 1
        err = capsys.readouterr().err
        assert message in err and "ShortcutApplies" not in err
        assert not out.exists()


PATH_SPEC = {"graph": {"vertices": [0, 1, 2, 3],
                       "undirected": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]},
             "start": 0}


def test_export_qubo_i_max_flag_sets_a_specs_step_budget(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps(PATH_SPEC))
    assert run("export-qubo", path, "--out", tmp_path / "default") == 0
    assert run("export-qubo", path, "--i-max", "3", "--out", tmp_path / "three") == 0
    assert capsys.readouterr().out == "wrote 29-variable QUBO\nwrote 6-variable QUBO\n"
    for name, n in (("default", 29), ("three", 6)):
        text = (tmp_path / name / "path.qubo.txt").read_text()
        assert text.startswith(f"n {n} ")


def test_pairing_pipeline_on_a_spec_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps(PATH_SPEC))
    assert run("solve", path, "--pipeline", "pairing", "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        "input error: the pairing pipeline takes a graph file, not a spec\n")
    assert not (tmp_path / "out").exists()


def test_oracle_on_a_directory_without_instances_exits_one(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run("oracle", empty) == 1
    assert capsys.readouterr().err == "no instances found\n"


def test_validate_a_route_that_is_not_json_exits_one(fig_graph_file, tmp_path, capsys):
    route = tmp_path / "route.json"
    route.write_text("{ not a route")
    assert run("validate", route, "--instance", fig_graph_file) == 1
    assert capsys.readouterr().err.startswith("input error: cannot read route:")


@pytest.mark.parametrize("timings", [False, True])
def test_bench_keeps_a_row_for_an_instance_it_rejects(tmp_path, capsys, timings):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "path.json").write_text(json.dumps(PATH_SPEC))
    # one step cannot get from 0 to 2
    (suite / "infeasible.json").write_text(json.dumps({
        "graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 1]]},
        "start": 0, "stop": 2, "i_max": 1,
    }))
    flags = ["--timings"] if timings else []
    out = tmp_path / "bench.csv"
    assert run("bench", suite, "--reads", "20", "--sweeps", "50", *flags, "--out", out) == 0
    assert capsys.readouterr().err == (
        "infeasible.json [sa+greedy seed 0]: no arc can appear at step 0 given start=0, stop=2\n")
    header, rejected, solved = out.read_text().splitlines()
    assert header.endswith(",wall_time") == timings
    assert rejected == "infeasible,sa+greedy,0,false,,," + ("," if timings else "")
    assert solved.startswith("path,sa+greedy,0,true,3.0,3.0,")


def test_the_package_defaults_to_one_blas_thread_unless_one_is_chosen():
    code = ("import os, postqubo; print(*(os.environ[v] for v in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = src
    for chosen, expected in [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3 1 1")]:
        done = subprocess.run([sys.executable, "-c", code], env={**env, **chosen},
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == expected.split()
