"""Exact symmetries of the reconstruction, which need no oracle.

Permuting two ambient axes of every input vector permutes the problem, and
the CLI's files and stdout keep every byte. Rotating or reflecting every
input vector by one orthogonal Q, the in-plane basis included, leaves each
node's psi1_rec and D as they are, up to rounding: the kernel reads the
vectors only through norms and dot products. Multiplying every wave number
by lam and dividing every length by it leaves every metric as it is, up to
rounding: each phase is a wave number times a length."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holoplane.cli import _reconstruct, compute_metrics, main
from holoplane.config import parse_config
from holoplane.fields import PointSource, RadiationField, WaveParams
from holoplane.geometry import PlaneFrame, grid_points
from holoplane.hologram import intensity_lookup
from holoplane.recon import reconstruct_points

# Every vector of each config is written with axes 1 and 2 swapped in its
# pair. The wave vector is axis-aligned: with k = (3.2, 2.4, 0) the sum
# order of x @ k changes with the swap, and recon.csv differs in last digits.
PERMUTED = {
    "3d": ("n = 100\nk = 4, 0, 0\nomega = 1, 0, 0\n"
           "source = 1, 0, 0, 2.5, 0\nsource = 0.5, -0.3, 1, -3, 1.5\n",
           "n = 100\nk = 0, 4, 0\nomega = 0, 1, 0\n"
           "source = 1, 0, 2.5, 0, 0\nsource = 0.5, -0.3, -3, 1, 1.5\n"),
    "2d": ("dim = 2\nn = 400\nk = 4, 0\nomega = 1, 0\n"
           "source = 1, 0, 0, 2.5\nsource = 0.5, -0.3, 1, -3\n",
           "dim = 2\nn = 400\nk = 0, 4\nomega = 0, 1\n"
           "source = 1, 0, 2.5, 0\nsource = 0.5, -0.3, -3, 1\n"),
}


@pytest.mark.parametrize("case", sorted(PERMUTED))
def test_axis_permutation_keeps_every_byte(tmp_path, capsys, case):
    outputs = []
    for name, config in zip(("base", "swapped"), PERMUTED[case]):
        path = tmp_path / f"{name}.cfg"
        path.write_text(config)
        out = tmp_path / name
        assert main(["--config", str(path), "--out", str(out), "reconstruct"]) == 0
        outputs.append((capsys.readouterr().out,
                        {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert sorted(outputs[0][1]) == ["metrics.csv", "profile.csv", "recon.csv"]
    assert outputs[0] == outputs[1]


# Two sources off the axis; k along omega puts the sqrt offset's singular
# direction on the centre node (odd n), and the bounded offset's exceptional
# set, NaN nodes, around it.
ROTATED = {
    3: "n = 61\nsource = 1, 0, 0, 2.5, 0\nsource = 0.5, -0.3, 1, -3, 1.5\n",
    2: "dim = 2\nn = 401\nsource = 1, 0, 0, 2.5\nsource = 0.5, -0.3, 1, -3\n",
}
# Largest relative change measured over 20 random Q per case was 1.7e-12.
RTOL = 1e-11


def _run(cfg, q=None):
    """reconstruct_points on every node of `cfg`'s grid, each input vector
    of the problem, the frame's normal and basis included, rotated by `q`."""
    frame, params, field = cfg.frame(), cfg.wave_params(), cfg.radiation_field()
    x = grid_points(cfg.grid_spec())
    if q is not None:
        frame = PlaneFrame(omega=q @ frame.omega, s=frame.s, basis=frame.basis @ q.T)
        params = WaveParams(params.kappa, q @ params.k)
        field = RadiationField(field.dim, tuple(
            PointSource(src.c, q @ src.x0) for src in field.sources))
        x = x @ q.T
    lookup = intensity_lookup(field, params)
    _, D, _, psi1_rec, mismatch = reconstruct_points(
        x, lookup(x)[0], lookup, params, frame, cfg.zeta_strategy())
    return D, psi1_rec, mismatch


@pytest.mark.parametrize("strategy", ["sqrt", "bounded", "hybrid"])
@pytest.mark.parametrize("dim", [3, 2])
@pytest.mark.parametrize("det", [1, -1], ids=["rotation", "reflection"])
@settings(max_examples=10)
@given(entries=st.lists(st.floats(-1, 1), min_size=9, max_size=9))
def test_orthogonal_map_keeps_psi1_rec_and_D(dim, strategy, det, entries):
    # q: the Q factor of a well-conditioned draw, its first column's sign
    # set to give det q = det
    a = np.reshape(entries, (3, 3))[:dim, :dim]
    assume(abs(np.linalg.det(a)) > 0.1)
    q = np.linalg.qr(a)[0]
    if np.linalg.det(q) * det < 0:
        q[:, 0] *= -1
    cfg = parse_config(ROTATED[dim] + f"strategy = {strategy}\n")
    D, psi1_rec, mismatch = _run(cfg)
    D_q, psi1_rec_q, _ = _run(cfg, q)
    # The bounded offset's cap |m| >= eps may fall either way at a node whose
    # |m| lies within rounding of eps: |m| is a norm of terms of size kappa,
    # so rounding moves it by about 1e-15 kappa, and nodes within 1e-12
    # kappa of eps are left out (on these grids, none).
    keep = np.abs(mismatch - cfg.eps) > 1e-12 * cfg.kappa
    nan = np.isnan(psi1_rec)
    assert (np.isnan(psi1_rec_q) == nan)[keep].all()
    assert nan.any() == (strategy == "bounded")
    ok = keep & ~nan
    assert (np.abs(psi1_rec_q - psi1_rec) <= RTOL * np.abs(psi1_rec))[ok].all()
    # an exceptional node's offset is 0 on both sides, and so is its D
    assert (np.abs(D_q - D) <= RTOL * np.abs(D))[keep].all()


# Grids with no node on the boundary of D and none whose |m| lies within
# 4e-4 kappa of eps, so no region or offset choice can flip by rounding.
SCALED = {
    3: "n = 100\nsource = 1, 0, 0, 2.5, 0\nsource = 0.5, -0.3, 1, -3, 1.5\n",
    2: "dim = 2\nn = 400\nsource = 1, 0, 0, 2.5\nsource = 0.5, -0.3, 1, -3\n",
}


def _scaled(cfg, lam):
    """`cfg` with kappa, k and eps times `lam`, and s, h, region_halfwidth
    and each x0 over it; in d = 3 each c over it too, so the field
    c e^{i kappa r} / r at a scaled point is the field at the point. In
    d = 2 the field is c H0(kappa r), and c stays."""
    return replace(cfg, kappa=cfg.kappa * lam, k=tuple(lam * v for v in cfg.k),
                   eps=cfg.eps * lam, s=cfg.s / lam, h=cfg.h / lam,
                   region_halfwidth=cfg.region_halfwidth / lam,
                   sources=tuple((c / lam if cfg.dim == 3 else c, tuple(v / lam for v in x0))
                                 for c, x0 in cfg.sources))


def _metrics(cfg):
    return compute_metrics(cfg, _reconstruct(cfg))


@pytest.mark.parametrize("strategy", ["sqrt", "hybrid"])
@pytest.mark.parametrize("dim", [3, 2])
@settings(max_examples=10)
@given(lam=st.floats(0.5, 3))
def test_scaling_keeps_every_metric(dim, strategy, lam):
    cfg = parse_config(SCALED[dim] + f"strategy = {strategy}\n")
    base = _metrics(cfg)
    scaled = _metrics(_scaled(cfg, lam))
    assert scaled.keys() == base.keys()
    # Largest relative change measured over lam in [0.5, 3] was 7.6e-13.
    for key, value in base.items():
        assert abs(scaled[key] - value) <= RTOL * value, key


@pytest.mark.parametrize("strategy", ["sqrt", "hybrid"])
@pytest.mark.parametrize("lam", [2.0, 0.5])
def test_power_of_two_scaling_keeps_every_metric_bit_for_bit_in_3d(strategy, lam):
    # a power of two scales every length, wave number and |x| factor exactly
    cfg = parse_config(SCALED[3] + f"strategy = {strategy}\n")
    assert _metrics(_scaled(cfg, lam)) == _metrics(cfg)
