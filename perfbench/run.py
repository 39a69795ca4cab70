#!/usr/bin/env python3
"""holoplane benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. One workload runs in this process and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}, the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. `--workload all` runs every workload, each in its own process.
The exit code is 0 only if every job passed its output check.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One thread for numpy's BLAS/OpenMP pools: the runs are single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", default="all", choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, workloads):
    status = 0
    for name in workloads:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from inputs import WORKLOADS  # imports numpy: after the thread limits

    args = parse_args(argv, WORKLOADS)
    if not (SRC / "holoplane" / "__init__.py").is_file():
        print(f"error: holoplane sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    sys.path.insert(0, str(SRC))
    import bench

    correct, attempted, failed, metrics = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name:<36} {value:.6g} {unit}")
    if "valid_node_frac" in metrics:
        nan_frac = 1.0 - metrics["valid_node_frac"][0]
        print(f"{args.workload}  {'nan_node_frac':<36} {nan_frac:.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
