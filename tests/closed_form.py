"""The two-point estimator written out in closed form with numpy.

It is the reference the kernel (`recon.reconstruct_points`) is checked
against, so it shares none of the kernel's private formulas: the phase
factors, the determinant D = e_y conj(e_x) - e_x conj(e_y), the estimator
and the d=2 refinement are each restated here from the paper's algebra.
Only the forward model `hologram.intensity` is shared.
"""

import numpy as np

from holoplane.hologram import intensity


def two_point_f11(field, params, x, y, refine2d=False):
    """f11 = (e_y a(x) - e_x a(y)) / D at the plane points x and offset
    points y (one point or (m, d) batches), with a = |x|^{(d-1)/2} (I - 1)
    from the forward model and e_x = e^{i((k, x) - kappa |x|)}.
    `refine2d` applies f - (e_y - e_x) |f|^2 / (D |x|^{(d-1)/2})."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half = (params.dim - 1) / 2.0
    r_x = np.linalg.norm(x, axis=-1)
    r_y = np.linalg.norm(y, axis=-1)
    a_x = r_x ** half * (intensity(field, params, x) - 1.0)
    a_y = r_y ** half * (intensity(field, params, y) - 1.0)
    e_x = np.exp(1j * (x @ params.k - params.kappa * r_x))
    e_y = np.exp(1j * (y @ params.k - params.kappa * r_y))
    D = e_y * np.conj(e_x) - e_x * np.conj(e_y)
    f = (e_y * a_x - e_x * a_y) / D
    if refine2d:
        f = f - (e_y - e_x) * np.abs(f) ** 2 / (D * r_x ** half)
    return f
