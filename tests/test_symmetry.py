"""Exact symmetries of the reconstruction, which need no oracle.

Permuting two ambient axes of every input vector permutes the problem, and
the CLI's files and stdout keep every byte. Rotating or reflecting every
input vector by one orthogonal Q, the in-plane basis included, leaves each
node's psi1_rec and D as they are, up to rounding: the kernel reads the
vectors only through norms and dot products."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holoplane.cli import main
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
