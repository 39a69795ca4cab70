"""Paired A/B runs of the benchmark: a parent revision against the working tree.

    python3 tools/ab.py PARENT_REV --workload W [W ...] --seeds A-B --seconds S --out BENCH_N.json
    python3 tools/ab.py PARENT_REV --workload W [W ...] --seeds A-B --cold --out COLD.json

stages two trees in one new temporary directory, at paths of equal length:
`parent`, the files of PARENT_REV as `git archive` gives them, and `change`,
a copy of the working tree. Each seed from A to B makes one pair. In pair
i, both sides run `perfbench/run.py --workload W --seed S --seconds S` for
every workload asked for, one process at a time; odd pairs run the parent
first, even pairs the change, so neither side always runs first.

With `--cold`, each side instead runs one cold job per pair and workload
(`run_cold`): a fresh interpreter sets the thread limits of
`perfbench/run.py`, imports the benchmark's modules and with them the
package's CLI, runs the workload's commands once on the seed's input
(`perfbench/inputs.py`) into a temporary directory, as a harness job does,
and checks the files. Its metrics are those of `COLD_METRICS`: the job's
wall seconds and the minor page faults of the process and of its reaped
children (the split child of a `reconstruct`), each counted from the job's
start to its end, so the interpreter's own start is in none of them.
`--seconds` is not read.

The output holds every run and, per workload and end-to-end metric of
`BENCHMARK.json`, a summary: the parent and change medians, the parent's
interquartile range (numpy's default, linear, quartiles), the pairs in which
the change is better (a tie counts for neither side) and `worse_frac`, the
change median's relative worsening (negative when it is better; ±inf, or 0
when equal, over a parent median of 0). The exit code is 1 when a
metric's `worse_frac` is over its `BENCHMARK.json` bound (a cold metric has
none) or a run failed an operation or its output check, else 0.
"""

import argparse
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "out", ".perfbench_out")
# A cold run's metrics, summarised as the end-to-end ones; they have no bound.
COLD_METRICS = dict.fromkeys(("cold_wall_s", "cold_minflt", "cold_minflt_children"),
                             {"better": "lower"})
# argv: tree, workload, seed. Prints the job's metrics as one JSON line.
COLD_JOB = """\
import json, os, resource, sys, tempfile, time
tree = sys.argv[1]
sys.path[:0] = [os.path.join(tree, "perfbench"), os.path.join(tree, "src")]
import run
for var in run.THREAD_VARS:
    os.environ[var] = "1"
import bench
from check import check_job
from inputs import WORKLOADS, make_inputs
inputs = make_inputs(WORKLOADS[sys.argv[2]], int(sys.argv[3]))

def faults():
    return [resource.getrusage(who).ru_minflt
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]

with tempfile.TemporaryDirectory() as out:
    before, start = faults(), time.perf_counter()
    bench.run_commands(inputs, out)
    wall, after = time.perf_counter() - start, faults()
    check_job(inputs, out)
print(json.dumps({"cold_wall_s": wall, "cold_minflt": after[0] - before[0],
                  "cold_minflt_children": after[1] - before[1]}))
"""


def parse_seeds(text):
    """'A-B' as the seeds A to B, both included."""
    first, last = map(int, text.split("-"))
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(first, last + 1)


def stage(rev, workdir):
    """Extract `rev` into workdir/parent and copy the working tree into
    workdir/change; return both paths."""
    parent, change = workdir / "parent", workdir / "change"
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(parent, filter="data")
    shutil.copytree(ROOT, change, ignore=IGNORE)
    return parent, change


def run_once(tree, workload, seed, seconds):
    """One `perfbench/run.py` process in `tree`; its JSON line as a record.
    A process that ends without one is a failed run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    return {"correct": result["correct"] and proc.returncode == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_cold(tree, workload, seed):
    """One cold job (`COLD_JOB`) of `workload` on `seed`'s input in `tree`,
    as a record. A job that fails its commands or its check is a failed
    run."""
    proc = subprocess.run([sys.executable, "-c", COLD_JOB, str(tree), workload, str(seed)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": json.loads(proc.stdout.splitlines()[-1])}


def summarize(runs, metrics):
    """Per workload and metric (name to its `BENCHMARK.json` entry), the
    summary fields of the runs, paired by their `pair` number."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {side: {r["pair"]: r["metrics"] for r in runs
                        if r["workload"] == workload and r["side"] == side}
                 for side in ("parent", "change")}
        pairs = sorted(sides["parent"].keys() & sides["change"].keys())
        summary[workload] = {}
        for name, entry in metrics.items():
            sign = 1.0 if entry["better"] == "lower" else -1.0
            parent = [sides["parent"][p][name] for p in pairs]
            change = [sides["change"][p][name] for p in pairs]
            low, _, high = statistics.quantiles(parent, n=4, method="inclusive")
            parent_median = statistics.median(parent)
            change_median = statistics.median(change)
            worse = sign * (change_median - parent_median)
            summary[workload][name] = {
                "parent_median": parent_median,
                "change_median": change_median,
                # a count whose parent median is 0, such as a serial job's
                # child faults, worsens by inf if at all
                "worse_frac": (round(worse / parent_median, 5) if parent_median else
                               math.copysign(math.inf, worse) if worse else 0.0),
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "pairs": len(pairs),
                "parent_iqr": high - low,
            }
    return summary


def problems(runs, summary, metrics):
    """Each run that failed and each metric worse than its bound, as text.
    A metric without a bound is reported, never a problem."""
    found = [f"{r['workload']} seed {r['seed']} {r['side']}: {r['failed']} of "
             f"{r['attempted']} operations failed, output check "
             f"{'passed' if r['correct'] else 'failed'}"
             for r in runs if r["failed"] or not r["correct"]]
    for workload, rows in summary.items():
        found += [f"{workload} {name}: worse by {row['worse_frac']:.2%}, bound "
                  f"{metrics[name]['bound']:.0%}"
                  for name, row in rows.items()
                  if row["worse_frac"] > metrics[name].get("bound", math.inf)]
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B")
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--cold", action="store_true",
                        help="one cold job per side, pair and workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = COLD_METRICS if args.cold else {m["name"]: m for m in bench["end_to_end"]}
    shown = "cold_wall_s" if args.cold else "job_s_p50"  # the metric printed per run
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent_rev], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()

    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = dict(zip(("parent", "change"), stage(rev, Path(tmp))))
        for pair, seed in enumerate(args.seeds, 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                for workload in args.workload:
                    record = (run_cold(trees[side], workload, seed) if args.cold else
                              run_once(trees[side], workload, seed, args.seconds))
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "side": side, **record})
                    value = record["metrics"].get(shown, float("nan"))
                    print(f"pair {pair} seed {seed} {side:<6} {workload:<16} "
                          f"{shown} {value:.6g}", flush=True)

    summary = summarize(runs, metrics)
    job = ("one cold job (tools/ab.py --cold) of W on seed S's input" if args.cold else
           f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}")
    args.out.write_text(json.dumps({
        "parent": rev,
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                   f"numpy {importlib.metadata.version('numpy')}",
        "protocol": f"{job} for W in {', '.join(args.workload)}, in alternating "
                    f"parent/change pairs (odd pairs parent first, even pairs change first), "
                    f"each side in its own tree at paths of equal length; seeds "
                    f"{args.seeds.start}-{args.seeds.stop - 1}.",
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    for workload, rows in summary.items():
        for name, row in rows.items():
            print(f"{workload:<16} {name:<16} parent {row['parent_median']:.6g} "
                  f"(IQR {row['parent_iqr']:.3g})  change {row['change_median']:.6g}  "
                  f"worse {row['worse_frac']:+.2%}  change wins {row['change_wins']}"
                  f"/{row['pairs']}")
    found = problems(runs, summary, metrics)
    for line in found:
        print(f"error: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
