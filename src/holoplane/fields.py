"""Forward models: the reference plane wave and outgoing point-source
superpositions, with their exact far-field patterns.

In d=3 a unit point source at x0 is e^{i kappa |x - x0|} / |x - x0|; in d=2
it is H0^(1)(kappa |x - x0|).  Their far-field patterns follow from the
asymptotic psi1(x) ~ e^{i kappa |x|} |x|^{-(d-1)/2} f1(x/|x|).
"""

import math
from dataclasses import dataclass

import numpy as np

from .bessel import hankel0_first_kind
from .errors import DomainError, SingularEvaluationError
from .geometry import row_norm

_SOURCE_TOL = 1e-12


@dataclass(frozen=True)
class WaveParams:
    """Wavenumber kappa and incident wave vector k with |k| = kappa."""

    kappa: float
    k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        k.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "kappa", float(self.kappa))
        if self.kappa <= 0:
            raise DomainError("kappa must be positive", "kappa")
        if abs(np.linalg.norm(k) - self.kappa) > 1e-9 * self.kappa:
            raise DomainError("|k| must equal kappa", "kappa", "k")

    @property
    def dim(self):
        return self.k.shape[0]


@dataclass(frozen=True)
class PointSource:
    c: complex
    x0: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "c", complex(self.c))


@dataclass(frozen=True)
class RadiationField:
    """Finite superposition of outgoing point sources in d=2 or d=3."""

    dim: int
    sources: tuple

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise DomainError("only d=2 and d=3 are supported", "dim")
        sources = tuple(self.sources)
        if not sources:
            raise DomainError("at least one source is required", "sources")
        for i, a in enumerate(sources):
            if a.x0.shape != (self.dim,):
                raise DomainError("source location dimension mismatch", "dim", "sources")
            for b in sources[:i]:
                if np.linalg.norm(a.x0 - b.x0) < _SOURCE_TOL:
                    raise DomainError("source points must be distinct", "sources")
        object.__setattr__(self, "sources", sources)


def plane_wave(x, params):
    """Reference beam e^{i (k, x)}; unit modulus."""
    x = np.asarray(x, dtype=float)
    return np.exp(1j * (x @ params.k))


def eval_radiation(field, kappa, x):
    """Evaluate the point-source superposition at `x` (a point or an
    (m, d) array of points).  A point on a source raises, naming the first
    such point by its coordinates."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    dist = [row_norm(pts, src.x0) for src in field.sources]
    # fmin skips NaN points; the index is built only when a point hits.
    if any(np.fmin.reduce(r, initial=np.inf) < _SOURCE_TOL for r in dist):
        hit = np.flatnonzero(np.any([r < _SOURCE_TOL for r in dist], axis=0))
        p = tuple(float(v) for v in pts[hit[0]])
        raise SingularEvaluationError(
            f"evaluation point at {p} coincides with a source")
    # Every product and quotient has a named operand. On an array of 256 KiB
    # or more numpy reuses an unnamed temporary in place, which takes another
    # complex-multiply loop with other last bits, so a point's value would
    # depend on how many points are evaluated with it.
    total = np.zeros(pts.shape[0], dtype=complex)
    for src, r in zip(field.sources, dist):
        if field.dim == 3:
            wave = np.exp(1j * kappa * r)
            wave_c = src.c * wave
            total += wave_c / r
        else:
            h0 = hankel0_first_kind(kappa * r)
            total += src.c * h0
    return total[0] if single else total


def far_field(field, kappa, theta):
    """Exact far-field pattern of the superposition in direction `theta`
    (unit vector, or an (m, d) array of unit vectors).

    d=3: sum c_j e^{-i kappa (theta, x0_j)};
    d=2: the same sum times sqrt(2/(pi kappa)) e^{-i pi/4}.
    """
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    dirs = theta[None, :] if single else theta
    total = np.zeros(dirs.shape[0], dtype=complex)
    for src in field.sources:
        total += src.c * np.exp(-1j * kappa * (dirs @ src.x0))
    if field.dim == 2:
        total *= math.sqrt(2.0 / (math.pi * kappa)) * np.exp(-0.25j * math.pi)
    return total[0] if single else total


def far_field_numeric_oracle(field, kappa, theta, r):
    """Finite-radius far-field quotient r^{(d-1)/2} e^{-i kappa r} psi1(r theta).

    Converges to far_field(theta) at rate O(1/r); used as an independent
    check of the closed forms.
    """
    theta = np.asarray(theta, dtype=float)
    psi = eval_radiation(field, kappa, r * theta)
    return r ** ((field.dim - 1) / 2.0) * np.exp(-1j * kappa * r) * psi
