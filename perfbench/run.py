"""postqubo benchmark entry point.

    python3 perfbench/run.py --workload pairing-sa --seed 1 --seconds 20 --trace 0

Runs one workload in this process, one thread, against the package source in
../src, and prints the result as one JSON object on the last line of
standard output.  --workload all runs every workload, each in a fresh process.  --trace 0 gives the end-to-end metrics (command line,
untraced); --trace 1 gives the per-layer metrics from the traced run.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload == "all":
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        failed = 0
        for w in spec["workloads"]:
            argv = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            failed += subprocess.run(argv).returncode != 0
        return 1 if failed else 0

    if not (SRC / "postqubo" / "__init__.py").is_file():
        print(f"no postqubo source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one BLAS thread: the benchmark measures a single-threaded process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import postqubo

    if Path(postqubo.__file__).resolve().parent != SRC / "postqubo":
        print(f"imported postqubo from {postqubo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
