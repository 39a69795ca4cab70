"""Intensity synthesis on the measurement plane.

The hologram is I = |psi0 + psi1|^2 sampled on the grid patch. Sampling,
noise and both writers walk the grid's node blocks (`node_blocks`), as the
reconstruction does, so a sampled run holds only the hologram's values,
and its noisy copy, whole.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .csvrows import grid_columns, write_csv
from .errors import OutOfPatchError
from .fields import eval_radiation, plane_wave
from .geometry import grid_points, node_blocks


@dataclass(frozen=True)
class Hologram:
    spec: object  # GridSpec
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


def sample_hologram(field, params, spec):
    """Evaluate the intensity at every grid node, row-major order, a node
    block at a time on the block's points, as `recon` evaluates them."""
    values = np.empty(spec.size)
    for b in node_blocks(spec.size):
        values[b] = intensity(field, params, grid_points(spec, b))
    return Hologram(spec=spec, values=values)


def bilinear_lookup(holo, y):
    """Interpolate the sampled hologram at plane points `y`, one point or an
    (m, d) batch, bilinearly in the in-plane coordinates (linearly for d=2).

    Returns (values, inside); points off the grid patch are False in
    `inside` and NaN in `values`.
    """
    spec = holo.spec
    frame = spec.frame
    y = np.asarray(y, dtype=float)
    uv = (y - frame.s * frame.omega) @ frame.basis.T
    h = spec.half_width
    inside = ~np.any(np.abs(uv) > h * (1 + 1e-12), axis=-1)
    uv = np.clip(uv, -h, h)
    coords = spec.coords
    # The coordinates are equally spaced, so the cell is found by arithmetic.
    step = 2 * h / (spec.n - 1)
    i = np.clip(np.floor((uv + h) / step).astype(int), 0, spec.n - 2)
    t = (uv - coords[i]) / (coords[i + 1] - coords[i])
    grid = holo.values.reshape(spec.shape)
    value = 0.0
    for corner in itertools.product((0, 1), repeat=uv.shape[-1]):
        corner = corner[::-1]  # first in-plane axis varies fastest
        weight = 1.0
        for a, c in enumerate(corner):
            weight = weight * (t[..., a] if c else 1 - t[..., a])
        node = tuple(i[..., a] + c for a, c in enumerate(corner))
        value = value + weight * grid[node]
    return np.where(inside, value, np.nan), inside


def intensity_lookup(field, params, hologram=None):
    """How the intensity is read at plane points: returns a function mapping
    one point or an (m, d) batch `y` to (values, inside).

    A sampled `hologram` is read bilinearly, see `bilinear_lookup`.  Without
    one the forward model (`field`, `params`) is evaluated exactly, and
    `inside` is True for every point.
    """
    if hologram is not None:
        return lambda y: bilinear_lookup(hologram, y)
    if field is None or params is None:
        raise ValueError("the intensity needs a sampled hologram or the forward model")
    return lambda y: (intensity(field, params, y), True)


def intensity_at(data, y, field=None, params=None):
    """Intensity at an arbitrary plane point `y`, read as `intensity_lookup`
    says: bilinearly from the hologram `data`, where `y` must lie on its
    patch, or, with `data` None, from the forward model."""
    y = np.asarray(y, dtype=float)
    value, inside = intensity_lookup(field, params, data)(y)
    if not inside:
        h = data.spec.half_width
        raise OutOfPatchError(f"point {y} outside the grid patch [-{h}, {h}]")
    return float(value)


def add_noise(holo, relative_level, seed):
    """Multiplicative uniform noise: values * (1 + level * u), u ~ U[-1, 1]
    from one seeded generator; clamped at zero. Each node block draws its
    u in turn, so the nodes get the draws of one whole-grid call."""
    if relative_level < 0:
        raise ValueError("relative_level must be nonnegative")
    if relative_level == 0:
        return holo
    rng = np.random.default_rng(seed)
    noisy = np.empty(holo.spec.size)
    for b in node_blocks(holo.spec.size):
        u = rng.uniform(-1.0, 1.0, size=b.stop - b.start)
        noisy[b] = np.maximum(holo.values[b] * (1.0 + relative_level * u), 0.0)
    return Hologram(spec=holo.spec, values=noisy)


def hologram_to_csv(holo, path):
    """Write the sampled intensity as CSV (d=3: i,j,x2,x3,I; d=2: i,x2,I),
    a node block at a time."""
    write_csv(path, ({**grid_columns(holo.spec, b), "I": holo.values[b]}
                     for b in node_blocks(holo.spec.size)))


def hologram_to_pgm(holo, path):
    """Write a binary P5 8-bit PGM, intensity linearly scaled min->0, max->255
    over the whole grid, the pixels a node block at a time."""
    spec = holo.spec
    vals = holo.values
    lo, hi = float(vals.min()), float(vals.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    h, w = ((1,) + spec.shape)[-2:]  # an image row per first-axis value
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        for b in node_blocks(spec.size):
            fh.write(np.round((vals[b] - lo) * scale).astype(np.uint8).tobytes())
