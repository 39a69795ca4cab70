"""Paired A/B runs of the benchmark: a parent revision against the working tree.

    python3 tools/ab.py PARENT_REV --workload W [W ...] --seeds A-B --seconds S --out BENCH_N.json

stages two trees in one new temporary directory, at paths of equal length:
`parent`, the files of PARENT_REV as `git archive` gives them, and `change`,
a copy of the working tree. Each seed from A to B makes one pair. In pair
i, both sides run `perfbench/run.py --workload W --seed S --seconds S` for
every workload asked for, one process at a time; odd pairs run the parent
first, even pairs the change, so neither side always runs first.

The output holds every run and, per workload and end-to-end metric of
`BENCHMARK.json`, a summary: the parent and change medians, the parent's
interquartile range (numpy's default, linear, quartiles), the pairs in which
the change is better (a tie counts for neither side) and `worse_frac`, the
change median's relative worsening (negative when it is better). The exit
code is 1 when a metric's `worse_frac` is over its `BENCHMARK.json` bound
or a run failed an operation or its output check, else 0.
"""

import argparse
import importlib.metadata
import io
import json
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
            summary[workload][name] = {
                "parent_median": parent_median,
                "change_median": change_median,
                "worse_frac": round(sign * (change_median - parent_median) / parent_median, 5),
                "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                "pairs": len(pairs),
                "parent_iqr": high - low,
            }
    return summary


def problems(runs, summary, metrics):
    """Each run that failed and each metric worse than its bound, as text."""
    found = [f"{r['workload']} seed {r['seed']} {r['side']}: {r['failed']} of "
             f"{r['attempted']} operations failed, output check "
             f"{'passed' if r['correct'] else 'failed'}"
             for r in runs if r["failed"] or not r["correct"]]
    for workload, rows in summary.items():
        found += [f"{workload} {name}: worse by {row['worse_frac']:.2%}, bound "
                  f"{metrics[name]['bound']:.0%}"
                  for name, row in rows.items() if row["worse_frac"] > metrics[name]["bound"]]
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B")
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent_rev], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()

    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = dict(zip(("parent", "change"), stage(rev, Path(tmp))))
        for pair, seed in enumerate(args.seeds, 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                for workload in args.workload:
                    record = run_once(trees[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "side": side, **record})
                    job = record["metrics"].get("job_s_p50", float("nan"))
                    print(f"pair {pair} seed {seed} {side:<6} {workload:<16} "
                          f"job_s_p50 {job:.6g}", flush=True)

    summary = summarize(runs, metrics)
    args.out.write_text(json.dumps({
        "parent": rev,
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                   f"numpy {importlib.metadata.version('numpy')}",
        "protocol": f"python3 perfbench/run.py --workload W --seed S --seconds "
                    f"{args.seconds:g} for W in {', '.join(args.workload)}, in alternating "
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
