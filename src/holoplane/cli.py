"""Batch front-end.

Subcommands: simulate, reconstruct, sweep, rates, reproduce-paper.
All outputs are deterministic CSV/PGM files for a fixed config and seed.
"""

import argparse
import contextlib
import ctypes
import itertools
import os
import pickle
import sys
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig, _parse_number, parse_config
from .errors import (ConfigError, DegenerateDeterminantError, ExceptionalDirectionError,
                     HoloplaneError)
from .fields import far_field
from .geometry import grid_points, node_blocks, point_on_plane
from .hologram import (add_noise, hologram_to_csv, hologram_to_pgm, intensity_lookup,
                       sample_hologram)
from .metrics import Scores, slope_estimate
from .recon import (DET_FLOOR, BoundedOffset, SqrtScaled, recon_to_csv, reconstruct_grid,
                    reconstruct_points)

RATE_S_LADDER = (50.0, 100.0, 200.0, 400.0, 800.0)
# Node blocks from which `run_reconstruct` splits its pass over two
# processes (`_forked`), measured on a 2-core machine (README).
SPLIT_MIN_BLOCKS = 4
# The files a reconstruct stages in its output directory, each name after a
# prefix of its own call (`run_reconstruct`): the two it moves into place,
# then the split child's part files and result (`_forked`).
STAGED = ("recon.csv", "profile.csv", "recon.csv2", "profile.csv2", "result.pickle")
_STAGE_COUNT = itertools.count()
# glibc's malloc, pinned for the process: requests from MMAP_THRESHOLD bytes
# are mmapped, and free memory at the heap top is handed back from
# TRIM_THRESHOLD bytes. By default both thresholds start low (128 kB) and
# rise with the largest mmapped block freed so far, so a run's page faults
# depend on what the process allocated before it. A reconstruct pass
# allocates at most 258 kB at a time (a recon.csv chunk's slot array), the
# n = 400 hologram's values 1.28 MB once, and the writer's working set is
# about 1.1 MB a chunk (tracemalloc, a 667-row d = 2 chunk). Measured on a
# 2-core x86-64 machine, warm d = 2, n = 4000 reconstructs took 951 minor
# faults a run by default, 276 with these values but a 1 MiB trim
# threshold, and 0-1 from 2 MiB. 8 MiB is twice the mmap threshold, the
# pair glibc's own rule sets.
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 8 << 20
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt's parameter numbers in glibc
# The reference experiment's parameter sweeps, in run order.
REFERENCE_SWEEPS = {
    "s": (5, 10, 100, 200),
    "kappa": (1, 4, 16),
    "x0_2": (0, 2.5, 5),
    "c": (0.1, 1, 10, 20),
}


def _pin_heap():
    """Set glibc's thresholds to MMAP_THRESHOLD and TRIM_THRESHOLD; where
    the C library has no `mallopt` (macOS, Windows) leave malloc as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: Windows takes no None
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_pin_heap()


def _load_config(path):
    if path is None:
        return ExperimentConfig()
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return parse_config(text)


def _sampled_hologram(cfg):
    holo = sample_hologram(cfg.radiation_field(), cfg.wave_params(), cfg.grid_spec())
    return add_noise(holo, cfg.noise_level, cfg.noise_seed)


def run_simulate(cfg, outdir):
    """Sample the hologram and write hologram.csv / hologram.pgm."""
    os.makedirs(outdir, exist_ok=True)
    holo = _sampled_hologram(cfg)
    hologram_to_csv(holo, os.path.join(outdir, "hologram.csv"))
    hologram_to_pgm(holo, os.path.join(outdir, "hologram.pgm"))
    return holo


def _block_records(cfg):
    """Sample `cfg`'s hologram if the run reads one, and return the function
    from node blocks of `cfg`'s grid (`node_blocks`) to their records: a
    generator of one `reconstruct_grid` call per block, in the given order,
    each made when the caller asks for it."""
    # Noisy data can only be consumed through the sampled hologram.
    sampled = cfg.mode == "bilinear" or cfg.noise_level > 0
    holo = _sampled_hologram(cfg) if sampled else None
    field, params, spec = cfg.radiation_field(), cfg.wave_params(), cfg.grid_spec()
    strategy = cfg.zeta_strategy()
    return lambda blocks: (
        reconstruct_grid(field, params, spec, strategy, refine2d=cfg.refine2d,
                         hologram=holo, flag_eps=cfg.eps, rows=rows)
        for rows in blocks)


def _reconstruct(cfg):
    """The records of the node blocks of `cfg`'s grid, in node order, one
    `reconstruct_grid` call per block, each made when the caller asks for
    it. A sampled hologram is sampled once, before the first block."""
    yield from _block_records(cfg)(node_blocks(cfg.grid_spec().size))


def compute_metrics(cfg, records, regions=Scores.REGIONS):
    """Reconstruction error and intensity discrepancy on `regions` (G, D and
    G\\D), folded over `records`, which cover `cfg`'s grid in node order: the
    node-block records of `_reconstruct`, or one whole-grid record."""
    scores = Scores(cfg.grid_spec(), cfg.region_halfwidth)
    for record in records:
        scores.add(record)
    return scores.ratios(regions)


def run_reconstruct(cfg, outdir):
    """Full-grid reconstruction; writes recon.csv, profile.csv, metrics.csv.

    One pass over the node blocks (`_block_records`), through one `write`:
    `recon_to_csv` writes each block's rows as it takes the block, with the
    profile (`_write_profile`) as an excerpt of them, and `Scores.add` adds
    the block to the metric sums and max |zeta|. A grid of
    SPLIT_MIN_BLOCKS node blocks or more, in a process allowed two CPUs or
    more, makes the pass in two processes (`_forked`): a child writes the
    second half of the blocks to part files of its own and returns its
    `Scores`, empty at the fork; this process writes the first half,
    merges the child's `Scores` after its own (`Scores.merge`) and appends
    each part file after its header line, so the files and metric bits
    are the serial pass's. A run that fails leaves no file: the pass
    writes under hidden staged names in `outdir`, the names of `STAGED`
    after the prefix `.reconstruct-<pid>-<count>-` of this call, and
    recon.csv and profile.csv are moved into place once every metric has
    its value, so an empty D or G\\D fails after the pass, at
    `Scores.ratios`; the staged names left are removed as the run ends.
    Returns the metrics and max |zeta|."""
    os.makedirs(outdir, exist_ok=True)
    spec = cfg.grid_spec()
    scores = Scores(spec, cfg.region_halfwidth)
    records, blocks = _block_records(cfg), node_blocks(spec.size)
    stage = os.path.join(outdir, f".reconstruct-{os.getpid()}-{next(_STAGE_COUNT)}-")
    path, xpath, *parts, result_path = (stage + name for name in STAGED)

    def write(blocks, path, profile_path):
        # map keeps no reference to a block it is done with, so the
        # writer lets each block go before the next one is made
        recon_to_csv(map(scores.add, records(blocks)), path,
                     excerpt=_write_profile(spec, profile_path, blocks[0].start))
        return scores

    try:
        # a platform without sched_getaffinity (macOS, Windows) runs serially
        if (len(blocks) >= SPLIT_MIN_BLOCKS and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            half = len(blocks) // 2
            scores.merge(_forked(lambda: write(blocks[:half], path, xpath),
                                 lambda: write(blocks[half:], *parts), result_path))
            for dst, part in zip((path, xpath), parts):
                with open(part, "rb") as src, open(dst, "r+b") as out:
                    offset, size = len(src.readline()), os.fstat(src.fileno()).st_size
                    out.seek(0, os.SEEK_END)
                    while offset < size:
                        offset += os.sendfile(out.fileno(), src.fileno(), offset, size - offset)
        else:
            write(blocks, path, xpath)
        metrics = scores.ratios()
        for name in STAGED[:2]:
            os.replace(stage + name, os.path.join(outdir, name))
    finally:
        for name in STAGED:
            with contextlib.suppress(FileNotFoundError):
                os.remove(stage + name)
    lines = [f"{metric},{region},{value:.6g}" for (metric, region), value in metrics.items()]
    _write_lines(os.path.join(outdir, "metrics.csv"), ["metric,region,value", *lines])
    print(*lines, f"max_zeta,,{scores.max_zeta:.6g}", sep="\n")
    return metrics, float(scores.max_zeta)


def _write_lines(path, lines):
    """Write the strings `lines` to `path`, each ended by a newline."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _forked(first, second, result_path):
    """Run `first()` here and `second()` in a forked child, at once, and
    return the value of `second()`: the child pickles it, or the exception
    `second()` raised, to `result_path`, and that exception is raised
    again here. The child is killed if `first()` raises, and reaped on
    every path; one that exits without a result raises ChildProcessError."""
    pid = os.fork()
    if pid == 0:  # the child: it leaves only through os._exit
        code = 1
        try:
            try:
                result = second()
            except BaseException as exc:  # raised again by this process's parent
                result = exc
            with open(result_path, "wb") as fh:
                pickle.dump(result, fh)
            code = 0
        finally:
            os._exit(code)
    try:
        first()
    except BaseException:
        import signal  # here alone: importing numpy does not load it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise ChildProcessError(f"the process of the second half of the grid exited "
                                f"with {status} and sent no result")
    with open(result_path, "rb") as fh:
        result = pickle.load(fh)
    if isinstance(result, BaseException):
        raise result
    return result


def _write_profile(spec, path, first):
    """The central vertical profile as the `write_csv` excerpt to `path` of
    a recon.csv part whose first row is node `first`: columns x{d} to
    im_psi1rec, at the row of `GridSpec.shape` with smallest |first
    in-plane coordinate| (ties -> smaller index); in d=2 the whole line."""
    row = int(np.argmin(np.abs(spec.coords))) if spec.frame.dim == 3 else 0
    names = (f"x{spec.frame.dim}", "re_psi1", "im_psi1", "re_psi1rec", "im_psi1rec")
    return path, names, slice(row * spec.n - first, (row + 1) * spec.n - first)


def _sweep_config(cfg, param, value):
    if param == "s":
        return replace(cfg, s=float(value))
    if param == "kappa":
        return cfg.with_kappa(float(value))
    c0, x0 = cfg.sources[0]
    if param == "c":
        first = (complex(value), x0)
    elif param == "x0_2":
        first = (c0, (x0[0], float(value), *x0[2:]))
    else:
        raise ValueError(f"unknown sweep parameter {param!r}")
    return replace(cfg, sources=(first, *cfg.sources[1:]))


def run_sweep(cfg, param, values, outdir, known=None):
    """E on G of a full reconstruction per value (`compute_metrics` on G
    alone, so D or G\\D may be empty); writes sweep.csv. Each built config
    is checked before the first run, and runs unless it is a key of
    `known`, a map from config to E on G that each run adds to."""
    configs = [_sweep_config(cfg, param, value) for value in values]
    os.makedirs(outdir, exist_ok=True)
    known = {} if known is None else known
    for sub in configs:
        if sub not in known:
            known[sub] = compute_metrics(sub, _reconstruct(sub), ("G",))[("E", "G")]
    rows = [(value, known[sub]) for value, sub in zip(values, configs)]
    lines = [f"{param},{value:.6g},{e_g:.6g}" for value, e_g in rows]
    _write_lines(os.path.join(outdir, "sweep.csv"), ["param,value,E_G", *lines])
    for line in lines:
        print(line)
    return rows


def _probe_theta(cfg):
    """Direction of the grid node nearest in-plane coordinates (10, 10)
    (d=3) or 10 (d=2) on the base-config grid: the nearest axis value on
    each axis (ties: the smaller), as the squared distance sums the axes."""
    spec = cfg.grid_spec()
    i = np.argmin(np.abs(spec.coords - 10.0))
    node = np.ravel_multi_index((i,) * len(spec.shape), spec.shape)
    x = grid_points(spec, slice(node, node + 1))[0]
    return x / np.linalg.norm(x)


def _probe(cfg):
    """What every rates study of `cfg` reads: the plane points of the probe
    direction (`_probe_theta`) at the distances of `RATE_S_LADDER`, the
    intensity there, the intensity lookup and the exact far field."""
    theta = _probe_theta(cfg)
    field, params, frame = cfg.radiation_field(), cfg.wave_params(), cfg.frame()
    x = np.array([point_on_plane(theta, replace(frame, s=s)) for s in RATE_S_LADDER])
    lookup = intensity_lookup(field, params)
    return x, lookup(x)[0], lookup, far_field(field, params.kappa, theta)


def probe_errors(cfg, probe, strategy, refine2d=False):
    """|f11 - f1| at the probe direction over `RATE_S_LADDER`, on the
    `_probe` of `cfg`, with the forward model read exactly: one study of
    `run_rates`.  Raises where the offset or the determinant fails."""
    x, i_x, lookup, f1 = probe
    # The planes differ only in s, which the kernel does not read.
    zeta, D, est, _, mn = reconstruct_points(
        x, i_x, lookup, cfg.wave_params(), cfg.frame(), strategy, refine2d)
    if np.isnan(zeta).any():
        raise ExceptionalDirectionError(
            f"|kappa*theta_par - k_par| = {float(mn[0])!r} "
            f"< eps = {float(strategy.eps)!r}")
    if np.any(np.abs(D) <= DET_FLOOR):
        raise DegenerateDeterminantError(
            f"|D| = {float(np.abs(D).min())!r} <= {DET_FLOOR!r}")
    return list(zip(RATE_S_LADDER, np.abs(est - f1).tolist()))


def run_rates(cfg, outdir):
    """Convergence-rate study: error vs s for each offset strategy, every
    study on one `_probe`."""
    os.makedirs(outdir, exist_ok=True)
    bounded = BoundedOffset(cfg.alpha, cfg.eps)
    studies = [("sqrt", SqrtScaled(-abs(cfg.alpha)), False),
               ("bounded", bounded, False)]
    if cfg.dim == 2:
        # The refinement's improved order is stated for bounded offsets,
        # so the refined study reuses the bounded strategy.
        studies.append(("bounded_refined", bounded, True))
    probe = _probe(cfg)
    # Every study runs before rates.csv is opened, so a failing one writes
    # no file.
    table = {}
    for name, strategy, refined in studies:
        rows = probe_errors(cfg, probe, strategy, refined)
        for s, err in rows:
            if err == 0:  # as on a zero field: log(error) is undefined
                raise HoloplaneError(
                    f"{name} probe error is 0 at s = {s:g}: no convergence rate")
        table[name] = (rows, slope_estimate(rows))
    _write_lines(os.path.join(outdir, "rates.csv"), ["strategy,s,error", *(
        f"{name},{s:.6g},{err:.6g}" for name, (rows, _) in table.items() for s, err in rows)])
    for name, (_, slope) in table.items():
        print(f"{name}: slope = {slope:.3f}")
    return table


def run_reproduce(cfg, outdir):
    """Reference-experiment reproduction with tolerance checks.

    Runs the hologram synthesis, the full reconstruction and the four
    parameter sweeps of `REFERENCE_SWEEPS`, then compares each number with
    its expected value.  Returns 0 iff everything is in tolerance. The
    sweeps share `run_sweep`'s `known`, so each distinct config runs once.
    """
    os.makedirs(outdir, exist_ok=True)
    run_simulate(cfg, outdir)
    metrics, max_zeta = run_reconstruct(cfg, outdir)
    known = {cfg: metrics[("E", "G")]}
    e_s, e_kappa, e_x0, e_c = (
        [e for _, e in run_sweep(cfg, p, v, os.path.join(outdir, f"sweep_{p}"), known)]
        for p, v in REFERENCE_SWEEPS.items())
    v_s, v_kappa, v_x0, _ = REFERENCE_SWEEPS.values()
    e_g, e_d, e_gd = (metrics[("E", region)] for region in ("G", "D", "G\\D"))
    dis = {region: metrics[("E_dis", region)] for region in ("G", "D", "G\\D")}

    def pct(e):
        return f"{100 * e:.2f}%"

    # (name, value text, ok), in the order of summary.txt
    checks = [
        ("E(G) ~ 11.7%", pct(e_g), abs(e_g - 0.117) <= 0.015),
        ("E(D) ~ 29.7%", pct(e_d), abs(e_d - 0.297) <= 0.04),
        ("E(G\\D) ~ 10.2%", pct(e_gd), abs(e_gd - 0.102) <= 0.015),
        *[(f"E_dis({region}) ~ {x:.1e}", f"{dis[region]:.2e}",
           x / 2 <= dis[region] <= x * 2)
          for region, x in (("G", 7.2e-3), ("D", 6.7e-3), ("G\\D", 7.2e-3))],
        ("E_dis(G) < 0.02 while E(G) > 0.09", f"{dis['G']:.2e} / {100 * e_g:.1f}%",
         dis["G"] < 0.02 and e_g > 0.09),
        ("max|zeta| < 15", f"{max_zeta:.3f}", max_zeta < 15),
        *[(f"E(s={v})", pct(e), abs(e - x) <= 0.025)
          for v, e, x in zip(v_s, e_s, (0.25, 0.16, 0.117, 0.108))],
        ("E decreasing in s", str([f"{e:.3f}" for e in e_s]),
         all(a > b for a, b in zip(e_s, e_s[1:]))),
        *[(f"E(kappa={v})", pct(e), abs(e - x) <= 0.02)
          for v, e, x in zip(v_kappa, e_kappa, (0.098, 0.117, 0.130))],
        (f"E(x0_2={v_x0[0]}) <= 0.5%", f"{100 * e_x0[0]:.3f}%", e_x0[0] <= 0.005),
        (f"E(x0_2={v_x0[1]})", pct(e_x0[1]), abs(e_x0[1] - 0.117) <= 0.015),
        (f"E(x0_2={v_x0[2]})", pct(e_x0[2]), abs(e_x0[2] - 0.222) <= 0.03),
        ("E(c sweep) in [9.7%, 13.8%], spread <= 1pt", str([pct(e) for e in e_c]),
         all(0.097 <= e <= 0.138 for e in e_c) and max(e_c) - min(e_c) <= 0.01),
    ]
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}: {value}"
             for name, value, ok in checks]
    _write_lines(os.path.join(outdir, "summary.txt"), lines)
    print("\n".join(lines))
    ok = all(ok for _, _, ok in checks)
    print("ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="holoplane",
        description="Two-point holographic reconstruction on a measurement plane.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="sample the hologram")
    sub.add_parser("reconstruct", help="reconstruct the field on the grid")
    sweep = sub.add_parser("sweep", help="parameter sweep of the G-error")
    sweep.add_argument("--param", required=True, choices=["s", "c", "kappa", "x0_2"])
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values")
    sub.add_parser("rates", help="convergence-rate study over an s-ladder")
    sub.add_parser("reproduce-paper",
                   help="run the full reference experiment with checks")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (HoloplaneError, OSError) as exc:  # OSError: an unreadable --config or --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args):
    cfg = _load_config(args.config)
    if args.command == "sweep":
        values = [_parse_number(v, None) for v in args.values.split(",")]
        run_sweep(cfg, args.param, values, args.out)
        return 0
    if args.command == "reproduce-paper":
        return run_reproduce(cfg, args.out)
    runs = {"simulate": run_simulate, "reconstruct": run_reconstruct, "rates": run_rates}
    runs[args.command](cfg, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
