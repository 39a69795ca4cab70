"""Batch front-end.

Subcommands: simulate, reconstruct, sweep, rates, reproduce-paper.
All outputs are deterministic CSV/PGM files for a fixed config and seed.
"""

import argparse
import contextlib
import os
import pickle
import sys
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig, _parse_number, parse_config
from .errors import (ConfigError, DegenerateDeterminantError, ExceptionalDirectionError,
                     HoloplaneError)
from .fields import far_field
from .geometry import node_blocks, point_on_plane
from .hologram import (add_noise, hologram_to_csv, hologram_to_pgm, intensity_lookup,
                       sample_hologram)
from .metrics import Scores, l2_ratio, l2_sums, l2_terms, slope_estimate
from .recon import (DET_FLOOR, BoundedOffset, SqrtScaled, recon_to_csv, reconstruct_grid,
                    reconstruct_points)

RATE_S_LADDER = (50.0, 100.0, 200.0, 400.0, 800.0)
# Node blocks from which `run_reconstruct` splits its pass over two
# processes (`_split_pass`), measured on a 2-core machine (README).
SPLIT_MIN_BLOCKS = 4
# The reference experiment's parameter sweeps, in run order.
REFERENCE_SWEEPS = {
    "s": (5, 10, 100, 200),
    "kappa": (1, 4, 16),
    "x0_2": (0, 2.5, 5),
    "c": (0.1, 1, 10, 20),
}


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


def compute_metrics(cfg, records):
    """Reconstruction error and intensity discrepancy on G, D, G\\D, folded
    over `records`, which cover `cfg`'s grid in node order: the node-block
    records of `_reconstruct`, or one whole-grid record."""
    scores = Scores(cfg.grid_spec(), cfg.region_halfwidth)
    for record in records:
        scores.add(record)
    return scores.ratios()


def run_reconstruct(cfg, outdir):
    """Full-grid reconstruction; writes recon.csv, profile.csv, metrics.csv.

    One pass over the node blocks (`_block_records`): `recon_to_csv` writes
    each block's rows as it takes the block, with the profile
    (`_write_profile`) as an excerpt of them, and `Scores.add` adds the
    block to the metric sums and max |zeta|. A grid of SPLIT_MIN_BLOCKS
    node blocks or more, in a process allowed two CPUs or more, makes the
    pass in two processes (`_split_pass`), with the same files and metric
    bits. A run that fails leaves no file: the empty-region check runs
    before the pass, and recon.csv and profile.csv are written under
    temporary names and moved into place once every metric has its value.
    Returns the metrics and max |zeta|."""
    os.makedirs(outdir, exist_ok=True)
    spec = cfg.grid_spec()
    scores = Scores(spec, cfg.region_halfwidth)
    names = ("recon.csv", "profile.csv")
    staged = [os.path.join(outdir, f".{name}.part") for name in names]
    records, blocks = _block_records(cfg), node_blocks(spec.size)
    excerpt = _write_profile(spec, staged[1])
    try:
        # a platform without sched_getaffinity (macOS, Windows) runs serially
        if (len(blocks) >= SPLIT_MIN_BLOCKS and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            _split_pass(records, blocks, scores, staged[0], excerpt)
        else:
            # map keeps no reference to a block it is done with, so the
            # writer lets each block go before the next one is made
            recon_to_csv(map(scores.add, records(blocks)), staged[0], excerpt=excerpt)
        metrics = scores.ratios()
        for path, name in zip(staged, names):
            os.replace(path, os.path.join(outdir, name))
    finally:
        for path in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    with open(os.path.join(outdir, "metrics.csv"), "w", newline="") as fh:
        fh.write("metric,region,value\n")
        for (metric, region), value in metrics.items():
            fh.write(f"{metric},{region},{value:.6g}\n")
            print(f"{metric},{region},{value:.6g}")
    print(f"max_zeta,,{scores.max_zeta:.6g}")
    return metrics, float(scores.max_zeta)


def _split_pass(records, blocks, scores, path, excerpt):
    """`run_reconstruct`'s pass over `records(blocks)` in two processes,
    with the files and `scores` of the serial pass. A forked child takes
    the second half of `blocks`: it writes their rows to part files of its
    own (`path` and the excerpt's path with `2` appended), the excerpt's
    rows shifted by minus its first node, and sends back each record's
    `Scores.block_sums` and max |zeta|, pickled, over a pipe. This process
    takes the first half, merges the child's sums after its own, in block
    order, and appends each part file after its header line. A failure in
    either half raises here, and the child is reaped on every path."""
    half = len(blocks) // 2
    first = blocks[half].start
    xpath, names, rows = excerpt
    parts = [f"{path}2", f"{xpath}2"]
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: it leaves only through os._exit
        code = 1
        try:
            os.close(read)
            sums = []

            def tally(record):
                sums.append(([scores.block_sums(b) for b in record.blocks()],
                             record.max_zeta))
                return record

            try:
                recon_to_csv(map(tally, records(blocks[half:])), parts[0], excerpt=(
                    parts[1], names, slice(rows.start - first, rows.stop - first)))
                result = sums
            except BaseException as exc:  # raised again by this process's parent
                result = exc
            with os.fdopen(write, "wb") as fh:
                pickle.dump(result, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as fh:
            try:
                recon_to_csv(map(scores.add, records(blocks[:half])), path, excerpt=excerpt)
                data = fh.read()  # before the reaping: the child may wait on the pipe
            except BaseException:
                import signal  # here alone: importing numpy does not load it
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise ChildProcessError(f"the process of the second half of the grid exited "
                                    f"with {status} and sent no result")
        result = pickle.loads(data)
        if isinstance(result, BaseException):
            raise result
        for block_sums, max_zeta in result:
            scores.merge(block_sums, max_zeta)
        for dst, part in zip((path, xpath), parts):
            with open(part, "rb") as src, open(dst, "r+b") as out:
                offset, size = len(src.readline()), os.fstat(src.fileno()).st_size
                out.seek(0, os.SEEK_END)
                while offset < size:
                    offset += os.sendfile(out.fileno(), src.fileno(), offset, size - offset)
    finally:
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


def _write_profile(spec, path):
    """The central vertical profile as the `write_csv` excerpt of recon.csv
    to `path`: columns x{d} to im_psi1rec, at the row of `GridSpec.shape`
    with smallest |first in-plane coordinate| (ties -> smaller index); in
    d=2 the whole line."""
    row = int(np.argmin(np.abs(spec.coords))) if spec.frame.dim == 3 else 0
    names = (f"x{spec.frame.dim}", "re_psi1", "im_psi1", "re_psi1rec", "im_psi1rec")
    return path, names, slice(row * spec.n, (row + 1) * spec.n)


def _sweep_config(cfg, param, value):
    if param == "s":
        return replace(cfg, s=float(value))
    if param == "c":
        c0, x0 = cfg.sources[0]
        sources = ((complex(value), x0),) + cfg.sources[1:]
        return replace(cfg, sources=sources)
    if param == "kappa":
        return cfg.with_kappa(float(value))
    if param == "x0_2":
        c0, x0 = cfg.sources[0]
        x0 = list(x0)
        x0[1] = float(value)
        sources = ((c0, tuple(x0)),) + cfg.sources[1:]
        return replace(cfg, sources=sources)
    raise ValueError(f"unknown sweep parameter {param!r}")


def run_sweep(cfg, param, values, outdir):
    """One full reconstruction per value, a pass over its node blocks that
    adds up the sums of E on G; writes sweep.csv with E on G. It scores no
    region but G, so it runs where D or G\\D is empty. Every swept config
    is built, and so checked, before the first run."""
    configs = [_sweep_config(cfg, param, value) for value in values]
    os.makedirs(outdir, exist_ok=True)
    rows = []
    for value, sub in zip(values, configs):
        sums = np.zeros(2)
        for block in _reconstruct(sub):
            sums += l2_sums(l2_terms(block.psi1_rec, block.psi1), None)
        rows.append((value, l2_ratio(sums)))
    with open(os.path.join(outdir, "sweep.csv"), "w", newline="") as fh:
        fh.write("param,value,E_G\n")
        for value, e_g in rows:
            fh.write(f"{param},{value:.6g},{e_g:.6g}\n")
            print(f"{param},{value:.6g},{e_g:.6g}")
    return rows


def _probe_theta(cfg):
    """Direction of the grid node nearest in-plane coordinates (10, 10)
    (d=3) or 10 (d=2) on the base-config grid: the nearest axis value on
    each axis (ties: the smaller), as the squared distance sums the axes."""
    spec = cfg.grid_spec()
    uv = spec.coords[[np.argmin(np.abs(spec.coords - 10.0))] * len(spec.shape)]
    x = spec.frame.s * spec.frame.omega + uv @ spec.frame.basis
    return x / np.linalg.norm(x)


def probe_errors(cfg, strategy, refine2d=False):
    """|f11 - f1| at the probe direction over `RATE_S_LADDER`, with the
    forward model read exactly.  Raises where the offset or the determinant
    fails."""
    theta = _probe_theta(cfg)
    field = cfg.radiation_field()
    params = cfg.wave_params()
    x = np.array([point_on_plane(theta, cfg.frame(s)) for s in RATE_S_LADDER])
    lookup = intensity_lookup(field, params)
    # The planes differ only in s, which the kernel does not read.
    zeta, D, est, _, mn = reconstruct_points(
        x, lookup(x)[0], lookup, params, cfg.frame(), strategy, refine2d)
    if np.isnan(zeta).any():
        raise ExceptionalDirectionError(
            f"|kappa*theta_par - k_par| = {float(mn[0])!r} "
            f"< eps = {float(strategy.eps)!r}")
    if np.any(np.abs(D) <= DET_FLOOR):
        raise DegenerateDeterminantError(
            f"|D| = {float(np.abs(D).min())!r} <= {DET_FLOOR!r}")
    err = np.abs(est - far_field(field, params.kappa, theta))
    return list(zip(RATE_S_LADDER, err.tolist()))


def run_rates(cfg, outdir):
    """Convergence-rate study: error vs s for each offset strategy."""
    os.makedirs(outdir, exist_ok=True)
    bounded = BoundedOffset(cfg.alpha, cfg.eps)
    studies = [("sqrt", SqrtScaled(-abs(cfg.alpha)), False),
               ("bounded", bounded, False)]
    if cfg.dim == 2:
        # The refinement's improved order is stated for bounded offsets,
        # so the refined study reuses the bounded strategy.
        studies.append(("bounded_refined", bounded, True))
    # Every study runs before rates.csv is opened, so a failing one writes
    # no file.
    table = {}
    for name, strategy, refined in studies:
        rows = probe_errors(cfg, strategy, refine2d=refined)
        for s, err in rows:
            if err == 0:  # as on a zero field: log(error) is undefined
                raise HoloplaneError(
                    f"{name} probe error is 0 at s = {s:g}: no convergence rate")
        table[name] = (rows, slope_estimate(rows))
    with open(os.path.join(outdir, "rates.csv"), "w", newline="") as fh:
        fh.write("strategy,s,error\n")
        for name, (rows, slope) in table.items():
            for s, err in rows:
                fh.write(f"{name},{s:.6g},{err:.6g}\n")
            print(f"{name}: slope = {slope:.3f}")
    return table


def run_reproduce(cfg, outdir):
    """Reference-experiment reproduction with tolerance checks.

    Runs the hologram synthesis, the full reconstruction and the four
    parameter sweeps of `REFERENCE_SWEEPS`, then compares each number with
    its expected value.  Returns 0 iff everything is in tolerance.
    """
    os.makedirs(outdir, exist_ok=True)
    run_simulate(cfg, outdir)
    metrics, max_zeta = run_reconstruct(cfg, outdir)
    e_s, e_kappa, e_x0, e_c = (
        [e for _, e in run_sweep(cfg, p, v, os.path.join(outdir, f"sweep_{p}"))]
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
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
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
    outdir = args.out
    if args.command == "simulate":
        run_simulate(cfg, outdir)
        return 0
    if args.command == "reconstruct":
        run_reconstruct(cfg, outdir)
        return 0
    if args.command == "sweep":
        values = [_parse_number(v, None) for v in args.values.split(",")]
        run_sweep(cfg, args.param, values, outdir)
        return 0
    if args.command == "rates":
        run_rates(cfg, outdir)
        return 0
    if args.command == "reproduce-paper":
        return run_reproduce(cfg, outdir)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
