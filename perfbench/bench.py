"""One benchmark run: a single workload in this process.

A run is a closed loop with one caller. It first times set-up in fresh
interpreters, then runs one warm-up job, then runs jobs back to back for
the requested time. A job is what a user does with one input: for each of
the workload's CLI subcommands, parse the config text and call
`holoplane.cli.run_<command>` on a fresh output directory. Every job's files
are checked; a job that raises or fails its check counts as failed.

Untraced (`trace=False`) the run reports the end-to-end metrics. Traced,
half the time runs untraced and half with the `spans.Tracer` installed,
and the run reports per-layer self times and counts per job, plus the
tracing overhead.

Times are normalised to the machine's speed, which on a shared machine
changes by tens of percent from one second to the next: every timed call
is bracketed by calibration passes (a fixed workload), and its wall time
is scaled by CALIBRATION_S over their mean time (README.md).
"""

import contextlib
import io
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from check import check_job
from holoplane import cli, config
from inputs import REFERENCE_SEED, WORKLOADS, make_inputs
from spans import Tracer

SRC = Path(cli.__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parents[1] / ".perfbench_out"

SETUP_REPS = 9  # fresh interpreters per run; setup_s is their median
MIN_JOBS = 3  # timed jobs per loop, even when the time is up

# Reported times are seconds on a machine where one calibration pass takes
# this long (about its median on the 2-core machine the baseline ran on).
CALIBRATION_S = 0.05
CALIBRATION_PASSES = 2  # passes right before and right after each timed call
_CAL_FLOATS = np.linspace(-1.0, 1.0, 5001) * np.pi
_CAL_COORDS = np.linspace(-20.0, 20.0, 100)
# Chunks small enough that the pass adds nothing to the peak RSS.
_CAL_PHASES = np.linspace(0.0, 100.0, 50_000).reshape(5, -1)

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import holoplane; "
               "holoplane.parse_config(sys.stdin.read())")


def calibration_pass():
    """Fixed work in the jobs' mix, one part per kind of hot spot: float
    formatting (writers), scalar complex math (H0 series), small numpy calls
    (per-node lookup) and numpy vector arithmetic (batched kernels).
    Returns its wall time."""
    start = perf_counter()
    ",".join(f"{v:.10g}" for v in _CAL_FLOATS)
    series = 0j
    for m in range(1, 20_000):
        series += math.log(m) * complex(1.0, m) / m
    y = np.array([100.0, 1.0, 2.0])
    for i in range(1500):
        uv = np.array([np.dot(y, y), float(i % 40 - 20)])
        np.clip(np.searchsorted(_CAL_COORDS, uv[1]) - 1, 0, 98)
        np.any(np.abs(uv) > 1e9)
    for chunk in _CAL_PHASES:
        np.abs(np.exp(1j * chunk)).max()
    return perf_counter() - start


def timed(fn):
    """Run fn(); return (wall seconds, normalised seconds)."""
    passes = [calibration_pass() for _ in range(CALIBRATION_PASSES)]
    start = perf_counter()
    fn()
    wall = perf_counter() - start
    passes += [calibration_pass() for _ in range(CALIBRATION_PASSES)]
    return wall, wall * CALIBRATION_S / statistics.mean(passes)


def measure_setup(text, reps=SETUP_REPS):
    """(wall, normalised) times of fresh interpreters importing holoplane
    and parsing `text`. One unmeasured start first compiles the bytecode."""
    def start_interpreter():
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                       input=text, text=True, check=True)

    start_interpreter()
    return [timed(start_interpreter) for _ in range(reps)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_commands(inputs, outdir):
    """Run the workload's CLI subcommands on `inputs`, writing to `outdir`.
    Each command parses the config text, as the CLI does."""
    # Module attributes are looked up per call so tracer wrappers apply.
    with contextlib.redirect_stdout(io.StringIO()):
        for command in inputs.workload.commands:
            cfg = config.parse_config(inputs.text)
            getattr(cli, f"run_{command}")(cfg, outdir)


class Runner:
    """Runs and checks jobs, counting attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def job(self, inputs):
        """Run one job and check it. Returns ((wall s, normalised s),
        peak RSS in MB before the check, accuracy), or None if the job
        failed."""
        self.attempted += 1
        try:
            with tempfile.TemporaryDirectory(dir=OUT, prefix="job-") as outdir:
                times = timed(lambda: run_commands(inputs, outdir))
                rss = peak_rss_mb()
                accuracy = check_job(inputs, outdir)
        except Exception:
            self.failed += 1
            print(f"job {self.attempted} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        return times, rss, accuracy

    def loop(self, inputs, seconds, tracer=None):
        """Closed loop for `seconds` (at least MIN_JOBS jobs). Returns
        {job id: (wall s, normalised s)} for the jobs that passed."""
        times = {}
        deadline = perf_counter() + seconds
        started = 0
        while started < MIN_JOBS or perf_counter() < deadline:
            started += 1
            if tracer is not None:
                tracer.job = self.attempted + 1
            result = self.job(inputs)
            if result is not None:
                times[self.attempted] = result[0]
        return times


def _median(times, column):
    return statistics.median(t[column] for t in times)


def run(workload_name, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics)
    with metrics as {name: (value, unit)}."""
    workload = WORKLOADS[workload_name]
    timed_inputs = make_inputs(workload, seed)
    reference = make_inputs(workload, REFERENCE_SEED)
    OUT.mkdir(exist_ok=True)
    metrics = {}
    runner = Runner()
    if not trace:
        setup = measure_setup(timed_inputs.text)
    warm = runner.job(reference)

    if not trace:
        times = list(runner.loop(timed_inputs, seconds).values())
        if warm is not None and times:
            p50 = _median(times, 1)
            metrics["setup_s"] = (_median(setup, 1), "s")
            metrics["job_s_p50"] = (p50, "s")
            metrics["nodes_per_s"] = (workload.nodes / p50, "nodes/s")
            metrics["peak_rss_mb"] = (warm[1], "MB")
            for name, value in warm[2].items():
                metrics[name] = (value, "ratio")
        print(f"# {workload_name}: {len(times)} timed jobs; median wall time "
              f"{_median(times, 0) if times else float('nan'):.4g} s")
    else:
        untraced = runner.loop(timed_inputs, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.loop(timed_inputs, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"spans-{workload_name}-seed{seed}.json")
        if untraced and traced:
            metrics.update(layer_metrics(tracer, traced))
            overhead = (_median(traced.values(), 1)
                        / _median(untraced.values(), 1) - 1)
            metrics["trace.overhead_frac"] = (overhead, "ratio")
        print(f"# {workload_name}: {len(untraced)} untraced and {len(traced)} "
              "traced jobs; per-layer values are medians over traced jobs")

    correct = runner.failed == 0
    return correct, runner.attempted, runner.failed, metrics


def layer_metrics(tracer, times):
    """Medians over the traced jobs of their layer self times, normalised
    like their job times, and of their counts. `times` maps job id to
    (wall s, normalised s)."""
    per_job = tracer.per_job(list(times))
    for job, (wall, norm) in times.items():
        for k in per_job[job]:
            if k.endswith(".s"):
                per_job[job][k] *= norm / wall
    names = list(per_job[next(iter(times))])
    values = {k: statistics.median(per_job[j][k] for j in times) for k in names}
    nodes = values["recon.reconstruct_grid.nodes"]
    valid = values.pop("recon.reconstruct_grid.valid_nodes")
    values["recon.valid_node_ratio"] = valid / nodes
    return {k: (v, _unit(k)) for k, v in values.items()}


def _unit(metric):
    suffix = metric.rsplit(".", 1)[1]
    return {"s": "s", "bytes": "B", "valid_node_ratio": "ratio"}.get(suffix, "count")
