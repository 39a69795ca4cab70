"""Measurement-plane geometry.

A measurement hyperplane is the set {x : (x, omega) = s} with unit normal
omega and distance s > 0 from the origin.  Directions theta in the open
half-sphere (theta, omega) > 0 are mapped to plane points by
x = s * theta / (theta, omega).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfHalfspaceError

_UNIT_TOL = 1e-9

# Grid nodes per block. The kernel, the metrics and the CSV rows of a run
# take the grid NODE_BLOCK nodes at a time (`node_blocks`), so the run holds
# no grid-sized array. Whole-grid temporaries also fragment the heap: at
# 1.6e5 nodes the peak memory moved by 5 MB with the allocation history,
# while small blocks reuse the same heap memory.
NODE_BLOCK = 4096


def _as_unit(v, name="vector"):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise DomainError(f"{name} must be nonzero", name)
    if abs(n - 1.0) > _UNIT_TOL:
        raise DomainError(f"{name} must be a unit vector (|{name}| = {float(n)!r})", name)
    return v / n


@dataclass(frozen=True)
class PlaneFrame:
    """Hyperplane with unit normal `omega` at distance `s`, plus an
    orthonormal basis of the parallel hyperplane through the origin."""

    omega: np.ndarray
    s: float
    basis: np.ndarray  # shape (d-1, d), rows orthonormal, orthogonal to omega

    @property
    def dim(self):
        return self.omega.shape[0]


def _project_out(v, rows):
    """v minus its components along the orthonormal `rows`, one at a time."""
    for r in rows:
        v = v - np.dot(v, r) * r
    return v


def make_frame(omega, s):
    """Build a frame for the plane with normal `omega` and distance `s`.

    The in-plane basis is obtained by Gram-Schmidt over the standard basis
    vectors in index order, skipping near-degenerate candidates, so the
    result is deterministic across runs and platforms.  A candidate that
    keeps less than half its length is projected a second time.  One pass
    leaves it off-orthogonal by about the rounding error of the rows before
    it divided by its residual: for omega within 1e-4 of an axis, the second
    basis row came out 1.6e-8 off omega.
    """
    omega = _as_unit(omega, "omega")
    s = float(s)
    if s <= 0:
        raise DomainError("plane distance s must be positive", "s")
    d = omega.shape[0]
    if d < 2:
        raise DomainError("dimension must be at least 2", "omega")

    rows = [omega]
    for i in range(d):
        if len(rows) == d:
            break
        cand = np.zeros(d)
        cand[i] = 1.0
        cand = _project_out(cand, rows)
        n = np.linalg.norm(cand)
        if n < 1e-6:
            continue
        if n < 0.5:
            cand = _project_out(cand, rows)
            n = np.linalg.norm(cand)
        rows.append(cand / n)
    basis = np.array(rows[1:])
    basis.setflags(write=False)
    omega.setflags(write=False)
    return PlaneFrame(omega=omega, s=s, basis=basis)


def row_norm(x, origin=None):
    """Euclidean norm along the last axis of `x`, or of `x - origin`.

    The squared components are summed in index order, as
    `np.linalg.norm(x - origin, axis=-1)` sums them, so the result has its
    bits at a fraction of its cost, and `x - origin` is not built.
    """
    parts = [x[..., k] if origin is None else x[..., k] - origin[k]
             for k in range(x.shape[-1])]
    s = parts[0] * parts[0]
    for p in parts[1:]:
        s += p * p
    return np.sqrt(s)


def point_on_plane(theta, frame):
    """Map a direction in the open half-sphere to its plane point
    x = s * theta / (theta, omega)."""
    theta = _as_unit(theta, "theta")
    c = np.dot(theta, frame.omega)
    if c <= 1e-9:
        raise OutOfHalfspaceError(
            f"(theta, omega) = {float(c)!r} <= 0: direction does not meet the plane"
        )
    return frame.s * theta / c


@dataclass(frozen=True)
class GridSpec:
    """Square (d=3) or linear (d=2) patch of grid nodes on the plane.

    In-plane coordinates run over `n` equally spaced values from -h to +h,
    endpoints included.
    """

    frame: PlaneFrame
    half_width: float
    n: int

    def __post_init__(self):
        if self.half_width <= 0:
            raise DomainError("half_width must be positive", "half_width")
        if self.n < 2:
            raise DomainError("grid needs at least 2 points per axis", "n")

    @property
    def coords(self):
        return np.linspace(-self.half_width, self.half_width, self.n)

    @property
    def shape(self):
        """Nodes per in-plane axis, (n,) or (n, n). Every per-node array
        numbers the nodes in C order over it: in d=3 rows vary slowest."""
        return (self.n,) * (self.frame.dim - 1)

    @property
    def size(self):
        return int(np.prod(self.shape))

    def node_axes(self, rows=slice(None)):
        """Per-axis indices into `coords` of the contiguous node range
        `rows`, one index array per axis of `shape`."""
        return np.unravel_index(np.arange(*rows.indices(self.size)), self.shape)


def node_blocks(stop, start=0):
    """The grid's node blocks, NODE_BLOCK consecutive nodes each from node 0
    on, cut to the nodes start..stop-1: slices, in order. A range split at
    these bounds gives every stage the blocks of a whole-grid run."""
    bounds = [start, *range(start - start % NODE_BLOCK + NODE_BLOCK, stop, NODE_BLOCK), stop]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def grid_coords(spec, rows=slice(None)):
    """In-plane coordinates of the grid nodes of the contiguous node range
    `rows` (default: all), shape (nodes, d-1), in node order."""
    return spec.coords[np.stack(spec.node_axes(rows), axis=-1)]


def grid_points(spec, rows=slice(None)):
    """Ambient coordinates of the grid nodes of the contiguous node range
    `rows` (default: all), shape (nodes, d), in node order."""
    uv = grid_coords(spec, rows)
    frame = spec.frame
    return frame.s * frame.omega + uv @ frame.basis
