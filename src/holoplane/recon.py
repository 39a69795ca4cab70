"""Two-point recovery of the far-field pattern from plane intensity data.

For each plane point x with direction theta = x/|x| a second point
y = x + zeta is chosen with zeta parallel to the plane.  The pair of
normalized signals a = |x|^{(d-1)/2} (I - 1) at x and y determines the
far-field value f11(theta) through a 2x2 linear system whose determinant is
D = 2i sin((k, zeta) + kappa |x| - kappa |y|).

Two offset choices are implemented:
  * bounded: zeta = -alpha (kappa theta_par - k_par) / |...|^2, which makes
    the leading phase exactly alpha but fails on the exceptional direction
    set where kappa theta_par is close to k_par;
  * sqrt-scaled: |zeta| grows like sqrt(|x|) and the step beta solves a
    quadratic so the second-order phase equals alpha; valid everywhere on
    the half-sphere.  On the singular direction kappa theta_par = k_par,
    where any direction would do, it runs along the frame's first in-plane
    basis vector.

Each formula (mismatch, offsets, beta, D, phase factor, estimator,
refinement) is written once, as a private function that takes one point or
an (m, d) batch.  `reconstruct_points` chains them over a batch of plane
points; the grid (`reconstruct_grid`) and the `rates` probe both run it.
The caller gives the kernel the intensity at its own points, and the kernel
reads only the offset points y through a lookup.

The grid is reconstructed a node block at a time (`geometry.node_blocks`),
and `reconstruct_grid` takes the node range to reconstruct, so a caller can
consume one block's record before the next one exists, as `cli` does. A
record of several blocks splits itself into them (`ReconGridResult.blocks`),
so every stage after the kernel sees one block at a time. A block forms
psi0, psi1 and the true intensity |psi0 + psi1|^2 at its nodes once; the
record carries them for scoring, and without a hologram the kernel reads
that intensity at the nodes. The record does not keep the block's points;
`grid_points(record.spec, record.rows)` forms them.
The public point helpers (`zeta_bounded`, `zeta_sqrt`, `beta_solve`,
`determinant`) wrap the offset and determinant formulas and raise on the
failures a batch only records.
"""

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .errors import DomainError, ExceptionalDirectionError, InfeasibleParametersError
from .csvrows import grid_columns, write_csv
from .fields import eval_radiation, plane_wave
from .geometry import grid_points, node_blocks, row_norm
from .hologram import intensity_lookup

DET_FLOOR = 1e-6

# Below this relative size kappa*theta_par - k_par is treated as exactly
# singular and the sqrt-scaled offset uses the frame's first basis vector.
_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class BoundedOffset:
    """Fixed-phase offset, valid outside the exceptional set."""

    alpha: float
    eps: float

    def __post_init__(self):
        if self.alpha == 0 or math.sin(self.alpha) == 0:
            raise DomainError("alpha must have sin(alpha) != 0", "alpha")
        if self.eps <= 0:
            raise DomainError("eps must be positive", "eps")


@dataclass(frozen=True)
class SqrtScaled:
    """Offset with |zeta| = O(sqrt(|x|)), valid on the whole half-sphere."""

    alpha: float

    def __post_init__(self):
        if self.alpha >= 0 or math.sin(self.alpha) == 0:
            raise DomainError("alpha must be negative with sin(alpha) != 0", "alpha")


@dataclass(frozen=True)
class HybridStrategy:
    """Bounded offset outside the exceptional set, sqrt-scaled inside."""

    bounded: BoundedOffset
    sqrt: SqrtScaled


def _mismatch(theta, params, frame):
    """theta_par, m = kappa theta_par - k_par and |m|."""
    theta = np.asarray(theta, dtype=float)
    theta_par = theta - (theta @ frame.omega)[..., None] * frame.omega
    k_par = params.k - (params.k @ frame.omega) * frame.omega
    m = params.kappa * theta_par - k_par
    return theta_par, m, row_norm(m)


def _bounded_offset(m, mn, alpha, eps):
    """zeta = -alpha m / |m|^2 where |m| >= eps (zero elsewhere), and that mask."""
    ok = mn >= eps
    zeta = -alpha * m / np.where(ok, mn * mn, 1.0)[..., None]
    return np.where(ok[..., None], zeta, 0.0), ok


def _beta(alpha, kappa, r, mn, t2):
    """Stable root of beta |m| + (kappa / 2r) beta^2 (t2 - 1) = alpha, with
    t2 = (theta_par, zeta_hat)^2; NaN where the quadratic has no real root."""
    disc = mn * mn + (2.0 * kappa / r) * (t2 - 1.0) * alpha
    with np.errstate(invalid="ignore"):
        return 2.0 * alpha / (mn + np.sqrt(disc))


def _sqrt_offset(theta_par, m, mn, r, kappa, alpha, frame):
    """zeta = beta zeta_hat with zeta_hat = -m/|m|, or the frame's first
    in-plane basis vector on the singular direction, where m has no direction."""
    sing = mn < _SINGULAR_TOL * kappa
    zeta_hat = np.where(
        sing[..., None], frame.basis[0], -m / np.where(sing, 1.0, mn)[..., None]
    )
    t2 = np.einsum("...i,...i->...", theta_par, zeta_hat) ** 2
    return _beta(alpha, kappa, r, mn, t2)[..., None] * zeta_hat


def _offsets(strategy, x, r, params, frame):
    """Offsets for `strategy` at the points x with |x| = r, their validity
    mask (invalid rows are zero) and |kappa theta_par - k_par|.  The
    direction arrays die here, before the caller reads the offset points."""
    theta_par, m, mn = _mismatch(x / r[..., None], params, frame)

    def sqrt_offset(s):
        return _sqrt_offset(theta_par, m, mn, r, params.kappa, s.alpha, frame)

    if isinstance(strategy, HybridStrategy):
        b = strategy.bounded
        zeta, ok = _bounded_offset(m, mn, b.alpha, b.eps)
        zeta = np.where(ok[..., None], zeta, sqrt_offset(strategy.sqrt))
        return zeta, np.ones_like(ok), mn
    if isinstance(strategy, BoundedOffset):
        return (*_bounded_offset(m, mn, strategy.alpha, strategy.eps), mn)
    if isinstance(strategy, SqrtScaled):
        return sqrt_offset(strategy), np.ones_like(mn, dtype=bool), mn
    raise TypeError(f"unknown strategy {strategy!r}")


def _determinant(zeta, r, ry, params):
    """D = 2i sin((k, zeta) + kappa (|x| - |y|)), given |x| and |y|."""
    return 2j * np.sin(zeta @ params.k + params.kappa * (r - ry))


def _phase_factor(x, r, params):
    # e^{i((k, x) - kappa |x|)}, the coefficient of f1 conjugate in the
    # linearized intensity.
    return np.exp(1j * ((x @ params.k) - params.kappa * r))


def _refine(f, e_x, e_y, D, rh):
    """Remove the self-interference term (e_y - e_x) |f11|^2 / (D |x|^{(d-1)/2})."""
    return f - (e_y - e_x) * np.abs(f) ** 2 / (D * rh)


def _estimate(a_x, a_y, e_x, e_y, D):
    """f11 = (e_y a(x) - e_x a(y)) / D."""
    return (e_y * a_x - e_x * a_y) / D


def zeta_bounded(theta, params, frame, alpha, eps):
    """Offset zeta = -alpha (kappa theta_par - k_par)/|...|^2.

    Guarantees (k - kappa theta, zeta) = alpha exactly and |zeta| <= |alpha|/eps.
    Raises ExceptionalDirectionError when |kappa theta_par - k_par| < eps.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    _, m, mn = _mismatch(theta, params, frame)
    zeta, ok = _bounded_offset(m, mn, alpha, eps)
    if not ok:
        raise ExceptionalDirectionError(
            f"|kappa*theta_par - k_par| = {float(mn)!r} < eps = {float(eps)!r}"
        )
    return zeta


def beta_solve(alpha, kappa, r, theta_par, k_par, zeta_hat):
    """Step size beta solving
    beta |k_par - kappa theta_par| + (kappa / 2r) beta^2 ((theta_par, zeta_hat)^2 - 1) = alpha
    via the stable quadratic-root form."""
    if alpha >= 0:
        raise ValueError("alpha must be negative")
    theta_par = np.asarray(theta_par, dtype=float)
    mn = np.linalg.norm(np.asarray(k_par, dtype=float) - kappa * theta_par)
    t2 = float(np.dot(theta_par, np.asarray(zeta_hat, dtype=float))) ** 2
    beta = _beta(alpha, kappa, r, mn, t2)
    if np.isnan(beta):
        raise InfeasibleParametersError(
            "negative discriminant in the step-size quadratic"
        )
    return beta


def zeta_sqrt(theta, params, frame, alpha, r):
    """Sqrt-scaled offset, defined for every direction in the half-sphere.

    Away from the singular direction the offset points along
    kappa theta_par - k_par; on it the frame's first in-plane basis vector
    is used (the direction there is arbitrary).
    """
    if alpha >= 0:
        raise ValueError("alpha must be negative")
    theta_par, m, mn = _mismatch(theta, params, frame)
    zeta = _sqrt_offset(theta_par, m, mn, r, params.kappa, alpha, frame)
    if np.isnan(zeta).any():
        raise InfeasibleParametersError(
            "negative discriminant in the step-size quadratic"
        )
    return zeta


def determinant(x, zeta, params):
    """D = 2i sin((k, zeta) + kappa |x| - kappa |x + zeta|); purely imaginary,
    |D| <= 2."""
    x = np.asarray(x, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    return _determinant(zeta, row_norm(x), row_norm(x + zeta), params)


def determinant_phase_expansion(x, zeta, params):
    """Second-order model of the determinant phase:
    (k - kappa theta, zeta) + (kappa / 2|x|) ((theta, zeta)^2 - |zeta|^2).
    Diagnostic only; the reconstruction uses the exact phase."""
    x = np.asarray(x, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    r = np.linalg.norm(x)
    theta = x / r
    tz = float(np.dot(theta, zeta))
    lead = float(np.dot(params.k - params.kappa * theta, zeta))
    return lead + (params.kappa / (2.0 * r)) * (tz * tz - float(zeta @ zeta))


@dataclass
class ReconGridResult:
    """Per-node reconstruction of the m consecutive grid nodes `rows`, in
    node order: one block of a streamed run, or the whole grid."""

    spec: object
    rows: slice  # the node range, start and stop set
    psi0: np.ndarray  # complex (m,), the reference wave
    psi1: np.ndarray  # complex (m,), the true field the run is scored against
    intensity: np.ndarray  # (m,), the true intensity |psi0 + psi1|^2
    zeta: np.ndarray  # (m, d)
    D: np.ndarray  # complex (m,)
    f11: np.ndarray  # complex (m,)
    psi1_rec: np.ndarray  # complex (m,)
    flag_exceptional: np.ndarray  # bool (m,)

    def blocks(self):
        """The record's node blocks (`node_blocks`), in order, as records of
        views of its arrays; [self] when it is one block."""
        bounds = node_blocks(self.rows.stop, self.rows.start)
        if len(bounds) == 1:
            return [self]
        arrays = {name: a for name, a in vars(self).items() if isinstance(a, np.ndarray)}
        start = self.rows.start
        return [replace(self, rows=b, **{name: a[b.start - start:b.stop - start]
                                         for name, a in arrays.items()})
                for b in bounds]

    @property
    def max_zeta(self):
        # fmax skips the NaN rows of nodes that have no offset.
        return float(np.fmax.reduce([np.fmax.reduce(row_norm(b.zeta))
                                     for b in self.blocks()]))


def reconstruct_points(x, i_x, lookup, params, frame, strategy, refine2d=False):
    """Run the two-point estimator at each plane point of the (m, d) batch `x`.

    `i_x` is the intensity at the points `x`.  `lookup` reads the
    intensity at the offset points y = x + zeta: it maps plane points to
    (intensity, inside), as built by `hologram.intensity_lookup`.  Only the
    normal and the in-plane basis of `frame` are read, so the points may lie
    on different parallel planes.  Returns (zeta, D, f11, psi1_rec,
    mismatch), with mismatch = |kappa theta_par - k_par|.  Points without
    an offset, or whose offset point is outside the data, are NaN in zeta,
    f11 and psi1_rec; a tiny D is left to the caller.
    """
    r = row_norm(x)
    zeta, valid, mn = _offsets(strategy, x, r, params, frame)
    y = x + zeta
    ry = row_norm(y)
    D = _determinant(zeta, r, ry, params)

    i_y, inside_y = lookup(y)
    valid &= inside_y
    half = (frame.dim - 1) / 2.0
    rh = r ** half
    a_x = rh * (i_x - 1.0)
    a_y = ry ** half * (i_y - 1.0)
    e_x = _phase_factor(x, r, params)
    e_y = _phase_factor(y, ry, params)

    with np.errstate(divide="ignore", invalid="ignore"):
        f11_vals = _estimate(a_x, a_y, e_x, e_y, D)
        if refine2d:
            # Derived for d=2, where it improves the error order, but the
            # same algebra applies in any dimension.
            f11_vals = _refine(f11_vals, e_x, e_y, D, rh)
    f11_vals = np.where(valid, f11_vals, np.nan + 0j)
    psi1_rec = np.exp(1j * params.kappa * r) * r ** (-half) * f11_vals
    return np.where(valid[:, None], zeta, np.nan), D, f11_vals, psi1_rec, mn


def reconstruct_grid(
    field,
    params,
    spec,
    strategy,
    refine2d=False,
    hologram=None,
    flag_eps=0.1,
    rows=slice(None),
):
    """Run `reconstruct_points` at the grid nodes of the contiguous node
    range `rows` (default: every node), a node block at a time.

    The intensity at a node is `hologram`'s own sample when a hologram
    sampled on `spec` is given, and the true |psi0 + psi1|^2 of (`field`,
    `params`) otherwise; at the offset points it is read as
    `hologram.intensity_lookup` says.  Per-point failures (exceptional
    direction, offset leaving the patch, tiny determinant) are recorded in
    flags / NaN results; the grid run never aborts.  A range of more than
    one block is returned as one record, each block's arrays copied into
    it as the block is made.
    """
    lookup = intensity_lookup(field, params, hologram)
    start, stop, _ = rows.indices(spec.size)
    if stop <= start:
        raise ValueError(f"node range {start}:{stop} holds no node")
    out = None
    for b in node_blocks(stop, start):
        pts = grid_points(spec, b)
        psi0 = plane_wave(pts, params)
        psi1 = eval_radiation(field, params.kappa, pts)
        intensity = np.abs(psi0 + psi1) ** 2
        i_x = intensity if hologram is None else hologram.values[b]
        zeta, D, f11_vals, psi1_rec, mn = reconstruct_points(
            pts, i_x, lookup, params, spec.frame, strategy, refine2d)
        block = ReconGridResult(spec, b, psi0, psi1, intensity, zeta, D, f11_vals, psi1_rec,
                                flag_exceptional=mn < flag_eps)
        if b.stop - b.start == stop - start:
            return block
        arrays = {name: a for name, a in vars(block).items() if isinstance(a, np.ndarray)}
        if out is None:
            out = {name: np.empty((stop - start,) + a.shape[1:], a.dtype)
                   for name, a in arrays.items()}
        for name, a in arrays.items():
            out[name][b.start - start:b.stop - start] = a
    return ReconGridResult(spec, slice(start, stop), **out)


def recon_to_csv(blocks, path, excerpt=None):
    """Write the records `blocks`, consecutive node ranges from node 0 on in
    node order (such as the node blocks of a run, or one whole-grid
    record), as one CSV table, a block's rows as that block comes; and the
    `write_csv` `excerpt` of that table, if given, in the same pass.

    d=3 header: i,j,x2,x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec,
    re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD.
    d=2 drops j and x3.
    """
    # map and chain, unlike a generator, let go of each record they are done with
    write_csv(path, map(_csv_columns, chain.from_iterable(map(ReconGridResult.blocks,
                                                              blocks))), excerpt)


def _csv_columns(r):
    """The `recon_to_csv` columns of the one-block record `r`."""
    abs_d = np.abs(r.D)
    return {
        **grid_columns(r.spec, r.rows),
        "re_psi1": r.psi1.real, "im_psi1": r.psi1.imag,
        "re_psi1rec": r.psi1_rec.real, "im_psi1rec": r.psi1_rec.imag,
        "re_f11": r.f11.real, "im_f11": r.f11.imag,
        "abs_D": abs_d,
        "zeta_norm": row_norm(r.zeta),
        "flag_exceptional": r.flag_exceptional,
        "flag_smallD": abs_d <= DET_FLOOR,
    }
