"""Two-point recovery of the far-field pattern from plane intensity data.

For each plane point x with direction theta = x/|x| a second point
y = x + zeta is chosen with zeta parallel to the plane.  The pair of
normalized signals (a(x), a(y)) determines the far-field value f11(theta)
through a 2x2 linear system whose determinant is
D = 2i sin((k, zeta) + kappa |x| - kappa |y|).

Two offset choices are implemented:
  * bounded: zeta = -alpha (kappa theta_par - k_par) / |...|^2, which makes
    the leading phase exactly alpha but fails on the exceptional direction
    set where kappa theta_par is close to k_par;
  * sqrt-scaled: |zeta| grows like sqrt(|x|) and the step beta solves a
    quadratic so the second-order phase equals alpha; valid everywhere on
    the half-sphere.

Each formula (mismatch, offsets, beta, D, phase factor, estimator,
refinement) is written once, as a private function that takes one point or
an (m, d) batch.  `reconstruct_grid` calls them on the whole grid; the
public point helpers (`zeta_bounded`, `zeta_sqrt`, `beta_solve`,
`determinant`, `f11`, `f11_refined_2d`) wrap them and raise on the
failures the grid only records.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDeterminantError,
    ExceptionalDirectionError,
    InfeasibleParametersError,
)
from .geometry import decompose, grid_points
from .hologram import bilinear_lookup, intensity

DET_FLOOR = 1e-6

# Below this relative size kappa*theta_par - k_par is treated as exactly
# singular and the sqrt-scaled offset uses the fallback axis.
_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class BoundedOffset:
    """Fixed-phase offset, valid outside the exceptional set."""

    alpha: float
    eps: float

    def __post_init__(self):
        if self.alpha == 0 or math.sin(self.alpha) == 0:
            raise ValueError("alpha must have sin(alpha) != 0")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class SqrtScaled:
    """Offset with |zeta| = O(sqrt(|x|)), valid on the whole half-sphere."""

    alpha: float
    fallback_axis: int = 0

    def __post_init__(self):
        if self.alpha >= 0 or math.sin(self.alpha) == 0:
            raise ValueError("alpha must be negative with sin(alpha) != 0")


@dataclass(frozen=True)
class HybridStrategy:
    """Bounded offset outside the exceptional set, sqrt-scaled inside."""

    bounded: BoundedOffset
    sqrt: SqrtScaled


def _mismatch(theta, params, frame):
    """theta_par, m = kappa theta_par - k_par and |m|."""
    theta = np.asarray(theta, dtype=float)
    theta_par = theta - (theta @ frame.omega)[..., None] * frame.omega
    m = params.kappa * theta_par - decompose(params.k, frame).par
    return theta_par, m, np.linalg.norm(m, axis=-1)


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


def _sqrt_offset(theta_par, m, mn, r, kappa, alpha, fallback):
    """zeta = beta zeta_hat with zeta_hat = -m/|m|, or the `fallback` basis
    vector on the singular direction, where m has no direction."""
    sing = mn < _SINGULAR_TOL * kappa
    zeta_hat = np.where(
        sing[..., None], fallback, -m / np.where(sing, 1.0, mn)[..., None]
    )
    t2 = np.einsum("...i,...i->...", theta_par, zeta_hat) ** 2
    return _beta(alpha, kappa, r, mn, t2)[..., None] * zeta_hat


def _offsets(strategy, theta_par, m, mn, r, params, frame):
    """Offsets for `strategy` and their validity mask; invalid rows are zero."""
    if isinstance(strategy, HybridStrategy):
        zeta, ok = _bounded_offset(m, mn, strategy.bounded.alpha, strategy.bounded.eps)
        sqrt_zeta, _ = _offsets(strategy.sqrt, theta_par, m, mn, r, params, frame)
        return np.where(ok[..., None], zeta, sqrt_zeta), np.ones_like(ok)
    if isinstance(strategy, BoundedOffset):
        return _bounded_offset(m, mn, strategy.alpha, strategy.eps)
    if isinstance(strategy, SqrtScaled):
        zeta = _sqrt_offset(theta_par, m, mn, r, params.kappa, strategy.alpha,
                            frame.basis[strategy.fallback_axis])
        return zeta, np.ones_like(mn, dtype=bool)
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


def _pair(x, y, params):
    """|x|, D and the phase factors e_x, e_y of the point pair (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    ry = np.linalg.norm(y, axis=-1)
    D = _determinant(y - x, r, ry, params)
    return r, D, _phase_factor(x, r, params), _phase_factor(y, ry, params)


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
            f"|kappa*theta_par - k_par| = {mn!r} < eps = {eps!r}"
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


def zeta_sqrt(theta, params, frame, alpha, r, fallback_axis=0):
    """Sqrt-scaled offset, defined for every direction in the half-sphere.

    Away from the singular direction the offset points along
    kappa theta_par - k_par; on it the frame basis vector `fallback_axis`
    is used (the direction there is arbitrary).
    """
    if alpha >= 0:
        raise ValueError("alpha must be negative")
    theta_par, m, mn = _mismatch(theta, params, frame)
    zeta = _sqrt_offset(theta_par, m, mn, r, params.kappa, alpha,
                        frame.basis[fallback_axis])
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
    r = np.linalg.norm(x, axis=-1)
    return _determinant(zeta, r, np.linalg.norm(x + zeta, axis=-1), params)


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


def f11(a_x, a_y, x, y, params, det_floor=DET_FLOOR):
    """Two-point far-field estimator
    f11 = (e^{i((k,y) - kappa|y|)} a(x) - e^{i((k,x) - kappa|x|)} a(y)) / D."""
    _, D, e_x, e_y = _pair(x, y, params)
    if abs(D) <= det_floor:
        raise DegenerateDeterminantError(f"|D| = {abs(D)!r} <= {det_floor!r}")
    return _estimate(a_x, a_y, e_x, e_y, D)


def f11_refined_2d(f11_value, x, y, params):
    """Second-order d=2 correction removing the leading self-interference
    term |f11|^2 / sqrt(|x|) from the estimator."""
    if params.dim != 2:
        raise ValueError("refinement applies to d=2 only")
    r, D, e_x, e_y = _pair(x, y, params)
    if D == 0:
        raise DegenerateDeterminantError("D = 0")
    return _refine(f11_value, e_x, e_y, D, math.sqrt(r))


@dataclass
class ReconGridResult:
    """Per-grid-point reconstruction, row-major grid order."""

    spec: object
    points: np.ndarray  # (m, d)
    theta: np.ndarray  # (m, d)
    zeta: np.ndarray  # (m, d)
    D: np.ndarray  # complex (m,)
    f11: np.ndarray  # complex (m,)
    psi1_rec: np.ndarray  # complex (m,)
    flag_exceptional: np.ndarray  # bool (m,)
    flag_small_d: np.ndarray  # bool (m,)

    @property
    def max_zeta(self):
        # fmax skips the NaN rows of nodes that have no offset.
        return float(np.fmax.reduce(np.linalg.norm(self.zeta, axis=1)))

    def __len__(self):
        return self.points.shape[0]


def reconstruct_grid(
    field,
    params,
    spec,
    strategy,
    mode="analytic",
    refine2d=False,
    hologram=None,
    flag_eps=0.1,
    det_floor=DET_FLOOR,
):
    """Run the two-point estimator at every grid node.

    `mode` selects how the intensity at the offset point y = x + zeta is
    obtained: `analytic` evaluates the forward model, `bilinear`
    interpolates the sampled hologram (which must then be supplied).
    Per-point failures (exceptional direction, offset leaving the patch,
    tiny determinant) are recorded in flags / NaN results; the grid run
    never aborts.
    """
    if mode == "bilinear" and hologram is None:
        raise ValueError("bilinear mode needs a sampled hologram")
    if mode not in ("analytic", "bilinear"):
        raise ValueError(f"unknown lookup mode {mode!r}")
    pts = grid_points(spec)
    r = np.linalg.norm(pts, axis=1)
    theta = pts / r[:, None]
    theta_par, m, mn = _mismatch(theta, params, spec.frame)
    zeta, valid = _offsets(strategy, theta_par, m, mn, r, params, spec.frame)
    y = pts + zeta
    ry = np.linalg.norm(y, axis=1)
    D = _determinant(zeta, r, ry, params)

    if mode == "analytic":
        i_x = intensity(field, params, pts)
        i_y = intensity(field, params, y)
    else:
        i_x = hologram.values
        i_y, inside = bilinear_lookup(hologram, y)
        valid &= inside
    half = (spec.frame.dim - 1) / 2.0
    rh = r ** half
    a_x = rh * (i_x - 1.0)
    a_y = ry ** half * (i_y - 1.0)
    e_x = _phase_factor(pts, r, params)
    e_y = _phase_factor(y, ry, params)

    with np.errstate(divide="ignore", invalid="ignore"):
        f11_vals = _estimate(a_x, a_y, e_x, e_y, D)
        if refine2d:
            # Derived for d=2, where it improves the error order, but the
            # same algebra applies in any dimension.
            f11_vals = _refine(f11_vals, e_x, e_y, D, rh)
    f11_vals = np.where(valid, f11_vals, np.nan + 0j)
    psi1_rec = np.exp(1j * params.kappa * r) * r ** (-half) * f11_vals

    return ReconGridResult(
        spec=spec,
        points=pts,
        theta=theta,
        zeta=np.where(valid[:, None], zeta, np.nan),
        D=D,
        f11=f11_vals,
        psi1_rec=psi1_rec,
        flag_exceptional=mn < flag_eps,
        flag_small_d=np.abs(D) <= det_floor,
    )


def recon_to_csv(result, psi1_exact, path):
    """Write per-point results as CSV.

    d=3 header: i,j,x2,x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec,
    re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD.
    d=2 drops j and x3.
    """
    from .geometry import grid_coords

    spec = result.spec
    uv = grid_coords(spec)
    zn = np.linalg.norm(result.zeta, axis=1)
    with open(path, "w", newline="") as fh:
        if spec.frame.dim == 3:
            fh.write(
                "i,j,x2,x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec,"
                "re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD\n"
            )
        else:
            fh.write(
                "i,x2,re_psi1,im_psi1,re_psi1rec,im_psi1rec,"
                "re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD\n"
            )
        for idx in range(len(result)):
            rec = result.psi1_rec[idx]
            f = result.f11[idx]
            ex = psi1_exact[idx]
            tail = (
                f"{ex.real:.10g},{ex.imag:.10g},{rec.real:.10g},{rec.imag:.10g},"
                f"{f.real:.10g},{f.imag:.10g},{abs(result.D[idx]):.10g},"
                f"{zn[idx]:.10g},{int(result.flag_exceptional[idx])},"
                f"{int(result.flag_small_d[idx])}\n"
            )
            if spec.frame.dim == 3:
                i, j = divmod(idx, spec.n)
                fh.write(f"{i},{j},{uv[idx, 0]:.10g},{uv[idx, 1]:.10g},{tail}")
            else:
                fh.write(f"{idx},{uv[idx, 0]:.10g},{tail}")
