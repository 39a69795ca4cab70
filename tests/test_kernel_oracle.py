"""Exactness oracle for the two-point kernel.

Take the radiation field psi1(y) = f e^{i kappa |y|} |y|^{-(d-1)/2} with a
constant f, and give the kernel the linearized intensity
I = 1 + 2 Re(conj(psi0) psi1), without the |psi1|^2 term. Then
a(x) = |x|^{(d-1)/2} (I(x) - 1) = f conj(e_x) + conj(f) e_x with
e_x = e^{i((k, x) - kappa |x|)}, and the estimator
(e_y a(x) - e_x a(y)) / D returns f exactly whenever
D = e_y conj(e_x) - e_x conj(e_y) = 2i sin((k, zeta) + kappa (|x| - |y|)).
So over a whole grid the offsets, D, the phase factors and the estimator
must reproduce f to rounding error.
"""

import numpy as np
import pytest

from holoplane.config import parse_config
from holoplane.fields import plane_wave
from holoplane.geometry import grid_points
from holoplane.recon import reconstruct_points

F = 0.3 - 0.7j


def linearized_intensity(params, dim):
    half = (dim - 1) / 2.0

    def intensity(y):
        r = np.linalg.norm(y, axis=1)
        psi1 = F * np.exp(1j * params.kappa * r) * r ** -half
        return 1.0 + 2.0 * np.real(np.conj(plane_wave(y, params)) * psi1)

    return intensity


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("strategy", ["sqrt", "bounded", "hybrid"])
def test_constant_far_field_is_recovered_exactly(dim, strategy):
    cfg = parse_config(f"dim = {dim}\nstrategy = {strategy}\n")
    params = cfg.wave_params()
    x = grid_points(cfg.grid_spec())
    intensity = linearized_intensity(params, dim)

    def lookup(y):
        return intensity(y), np.ones(len(y), dtype=bool)

    _, D, f11, _, _ = reconstruct_points(x, intensity(x), lookup, params, cfg.frame(),
                                         cfg.zeta_strategy())
    valid = np.isfinite(f11)
    assert valid.mean() > 0.8  # bounded leaves out the exceptional set
    assert np.abs(D[valid]).min() > 0.9
    assert np.abs(f11[valid] - F).max() <= 1e-12
