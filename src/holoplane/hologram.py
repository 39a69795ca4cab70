"""Intensity synthesis on the measurement plane.

The hologram is I = |psi0 + psi1|^2 sampled on the grid patch; the
normalized scattered signal is a(x, k) = |x|^{(d-1)/2} (I(x) - 1).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import OutOfPatchError, SingularEvaluationError
from .fields import eval_radiation, plane_wave
from .geometry import grid_coords, grid_points


@dataclass(frozen=True)
class Hologram:
    spec: object  # GridSpec
    params: object  # WaveParams
    values: np.ndarray  # row-major grid order, nonnegative

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.spec.size,):
            raise ValueError("values length must match grid size")
        if np.any(values < 0):
            raise ValueError("intensity values must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def intensity(field, params, x):
    """I(x) = |psi0(x) + psi1(x)|^2 at a point or an (m, d) array."""
    total = plane_wave(x, params) + eval_radiation(field, params.kappa, x)
    return np.abs(total) ** 2


def scattered_signal(field, params, x):
    """a(x, k) = |x|^{(d-1)/2} (I(x) - 1)."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    if np.any(r <= 0):
        raise ValueError("|x| must be positive")
    d = params.dim
    return r ** ((d - 1) / 2.0) * (intensity(field, params, x) - 1.0)


def sample_hologram(field, params, spec):
    """Evaluate the intensity at every grid node, row-major order."""
    pts = grid_points(spec)
    try:
        values = intensity(field, params, pts)
    except SingularEvaluationError:
        # Re-run pointwise to name the offending node.
        for idx, p in enumerate(pts):
            try:
                intensity(field, params, p)
            except SingularEvaluationError as exc:
                raise SingularEvaluationError(
                    f"grid node {idx} at {p} coincides with a source"
                ) from exc
        raise
    return Hologram(spec=spec, params=params, values=values)


def bilinear_lookup(holo, y):
    """Interpolate the sampled hologram at plane points `y`, one point or an
    (m, d) batch, bilinearly in the in-plane coordinates (linearly for d=2).

    Returns (values, inside); points off the grid patch are False in
    `inside` and NaN in `values`.
    """
    spec = holo.spec
    frame = spec.frame
    y = np.asarray(y, dtype=float)
    uv = (y - frame.s * frame.omega) @ frame.basis[list(spec.axes)].T
    h = spec.half_width
    inside = ~np.any(np.abs(uv) > h * (1 + 1e-12), axis=-1)
    uv = np.clip(uv, -h, h)
    coords = spec.coords
    i = np.clip(np.searchsorted(coords, uv) - 1, 0, spec.n - 2)
    t = (uv - coords[i]) / (coords[i + 1] - coords[i])
    grid = holo.values.reshape((spec.n,) * uv.shape[-1])
    value = 0.0
    for corner in itertools.product((0, 1), repeat=uv.shape[-1]):
        corner = corner[::-1]  # first in-plane axis varies fastest
        weight = 1.0
        for a, c in enumerate(corner):
            weight = weight * (t[..., a] if c else 1 - t[..., a])
        node = tuple(i[..., a] + c for a, c in enumerate(corner))
        value = value + weight * grid[node]
    return np.where(inside, value, np.nan), inside


def intensity_at(data, y, mode="analytic", field=None, params=None):
    """Intensity at an arbitrary plane point `y`.

    `analytic` mode evaluates the forward model exactly (requires `field`
    and `params`); `bilinear` mode interpolates the sampled hologram, with
    `y` restricted to the grid patch.
    """
    y = np.asarray(y, dtype=float)
    if mode == "analytic":
        if field is None or params is None:
            raise ValueError("analytic mode needs the forward model")
        return float(intensity(field, params, y))
    if mode != "bilinear":
        raise ValueError(f"unknown lookup mode {mode!r}")
    value, inside = bilinear_lookup(data, y)
    if not inside:
        h = data.spec.half_width
        raise OutOfPatchError(f"point {y} outside the grid patch [-{h}, {h}]")
    return float(value)


def add_noise(holo, relative_level, seed):
    """Multiplicative uniform noise: values * (1 + level * u), u ~ U[-1, 1]
    from a seeded generator; clamped at zero."""
    if relative_level < 0:
        raise ValueError("relative_level must be nonnegative")
    if relative_level == 0:
        return holo
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=holo.values.shape)
    noisy = np.maximum(holo.values * (1.0 + relative_level * u), 0.0)
    return Hologram(spec=holo.spec, params=holo.params, values=noisy)


def hologram_to_csv(holo, path):
    """Write the sampled intensity as CSV (d=3: i,j,x2,x3,I; d=2: i,x2,I)."""
    spec = holo.spec
    uv = grid_coords(spec)
    with open(path, "w", newline="") as fh:
        if spec.frame.dim == 3:
            fh.write("i,j,x2,x3,I\n")
            for idx, val in enumerate(holo.values):
                i, j = divmod(idx, spec.n)
                fh.write(f"{i},{j},{uv[idx, 0]:.10g},{uv[idx, 1]:.10g},{val:.10g}\n")
        else:
            fh.write("i,x2,I\n")
            for idx, val in enumerate(holo.values):
                fh.write(f"{idx},{uv[idx, 0]:.10g},{val:.10g}\n")


def hologram_to_pgm(holo, path):
    """Write a binary P5 8-bit PGM, intensity linearly scaled min->0, max->255."""
    spec = holo.spec
    vals = holo.values
    lo, hi = float(vals.min()), float(vals.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.round((vals - lo) * scale).astype(np.uint8)
    if spec.frame.dim == 3:
        w = h = spec.n
    else:
        w, h = spec.n, 1
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
