"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_selftest.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import instances  # noqa: E402
from instances import Instance, Op  # noqa: E402


def tiny_round(seed: int, r: int) -> list[Instance]:
    rng = np.random.default_rng([seed, r])
    graph = instances.pairing_graph(rng, 4)
    tri = instances.triangle_spec(rng)
    return [
        Instance(f"t{r}-pair", graph, (Op("solve", "sa+greedy", 1, reads=5, sweeps=10),)),
        Instance(f"t{r}-tri", tri, (Op("solve", "tabu+greedy", 2), Op("oracle"))),
        Instance(f"t{r}-exp", tri, (Op("export"),)),
    ]


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path / "out")
    monkeypatch.setattr(bench, "SETUP_SPAWNS", 1)
    return bench.Run("tiny", 7, rounds=tiny_round, work=tmp_path / "work")


def printed_metrics(payload: dict, lines: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        bench.emit(payload, lines, bench.OUT / "result.json")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit(tiny):
    spec = bench.load_spec()
    untraced = printed_metrics(*bench.run_untraced(tiny, 0))
    traced = printed_metrics(*bench.run_traced(bench.Run("tiny", 7, tiny_round, tiny.work), 0))
    for result, declared in ((untraced, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_reference_check_catches_a_tampered_weight(tiny):
    inst = tiny.round(0)[0]
    bench.prepare(inst, check_oracle=True)
    out = tiny.work / "tamper"
    bench.run_instance(inst, tiny.path(inst), out, None)
    route_file = bench.output_path(inst.ops[0], tiny.path(inst), out / "0")
    route = json.loads(route_file.read_text())
    assert route["valid"] and route["weight"] >= inst.optimum
    route["weight"] = inst.optimum - 1
    route_file.write_text(json.dumps(route))
    rec = bench.Record(inst.name, 0.0)
    with pytest.raises(bench.BenchmarkError, match="below the optimum"):
        bench.check_output(inst, rec, inst.ops[0], route_file, 0, 0)


def test_determinism_hash_is_stable(tiny, tmp_path):
    first = [tiny.execute(inst, "cli").codes for inst in tiny.round(0)]
    again = [tiny.execute(inst, "cli").codes for inst in tiny.round(0)]
    assert first == again
    assert all(code.split(":")[-1] != "-" for codes in first for code in codes[:1])
    pipeline = bench.TracedPipeline(bench.Tracer(), {})
    traced = [tiny.execute(inst, "traced", pipeline).codes for inst in tiny.round(0)]
    assert traced == first
    with pytest.raises(bench.BenchmarkError, match="outputs differ"):
        tiny.remember(tiny.round(0)[0].name, ["0:0:different"], "tampered")


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairing-sa", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_untimed_instances_stay_out_of_the_time_metrics():
    timed = [bench.Record(f"t{k}", 0.1 * (k + 1), samples=[0.1 * (k + 1)]) for k in range(3)]
    probe = bench.Record("probe", 0.001, timed=False, samples=[0.001], qubo_vars=50,
                         qubo_terms=500)
    assert bench.end_to_end(timed + [probe], 0.2) == bench.end_to_end(timed, 0.2)
    assert bench.end_to_end(timed, 0.2)["instances_per_s"] == pytest.approx(3 / 0.6)
    assert bench.end_to_end(timed, 0.2)["latency_s_p50"] == pytest.approx(0.2)


def test_each_stretch_is_scaled_by_its_bracketing_points():
    cal = bench.Calibration()
    cal.points = [bench.CAL_REF_S, 3 * bench.CAL_REF_S, bench.CAL_REF_S]
    assert cal.scale(1.0, 0) == pytest.approx(0.5)
    assert cal.scale(1.0, 1) == pytest.approx(0.5)
    assert cal.host_factor() == pytest.approx(3 / 5)
