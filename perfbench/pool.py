"""Latency percentiles pooled over a set of untraced runs.

    python3 perfbench/pool.py --workload pairing-sa --seeds 1 2 3 4 5 6 7 8 9 10

Reads the result file `run.py --trace 0` writes for each seed
(`_out/result-<workload>-<seed>-trace0.json` in this directory), pools every
execution of every timed instance (seconds at the reference host speed), and
prints p50 and p90 with the number of samples beyond p90.  One run of
`pairing-sa` holds too few executions for a p90 with ten samples beyond it; a
set of ten runs holds enough.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "_out"


def pooled_latencies(workload: str, seeds: list[int]) -> list[float]:
    samples = []
    for seed in seeds:
        result = json.loads((OUT / f"result-{workload}-{seed}-trace0.json").read_text())
        samples += [t for i in result["instances"] if i["timed"] for t in i["samples_s"]]
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    try:
        lat = pooled_latencies(args.workload, args.seeds)
    except FileNotFoundError as exc:
        print(f"missing result file {exc.filename}; run the seed untraced first", file=sys.stderr)
        return 1
    p50, p90 = np.percentile(lat, [50, 90])
    beyond = sum(t > p90 for t in lat)
    print(f"{args.workload}: {len(lat)} executions of timed instances from {len(args.seeds)} runs")
    print(f"  latency_s_p50 {p50:.6g} s")
    print(f"  latency_s_p90 {p90:.6g} s ({beyond} samples beyond it)")
    if beyond < 10:
        print("  fewer than ten samples lie beyond p90; pool more runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
