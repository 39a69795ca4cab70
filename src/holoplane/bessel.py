"""Hankel function of the first kind, order zero.

Two branches: the ascending power series of J0 and Y0 for moderate
arguments, and the large-argument asymptotic (amplitude/phase) expansion.
Both are accurate to better than 1e-7 absolute over their ranges and agree
near the switch point.

Both branches are numpy code over the whole argument array. The series is
one in-place recurrence in which an element stops where a term-by-term
loop over it alone would stop, and then adds only signed zeros. The
asymptotic series is summed by Horner's rule in 1 / z^2 over a fixed 24
terms, within 1e-15 (relative) of the same terms summed in order
(`_asymptotic`). Either way an element's value does not depend on the
other elements. Scalars go through the same code as one-element arrays.
"""

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606

# Switch between the power series and the asymptotic expansion.  Below this
# the series converges quickly with modest cancellation; above it each
# asymptotic term is at most 0.62 times the one before, and the tail after
# the last one is far below 1e-7.
Z_SWITCH = 18.0

_SERIES_TERMS = 200
_ASYMPTOTIC_TERMS = 24


def _series(z):
    """Ascending series for a 1-d array z: J0 + i*Y0 with
    J0(z) = sum (-1)^m q^m / (m!)^2,        q = z^2/4,
    Y0(z) = (2/pi) [(ln(z/2) + gamma) J0 + sum (-1)^{m+1} H_m q^m / (m!)^2].
    One recurrence over all of z: an element stops once |term| < 1e-18
    (1 + |J0|), after adding that term, and from then on adds signed zeros.
    """
    q = 0.25 * z * z
    term = np.ones_like(z)
    j0 = np.ones_like(z)
    ysum = np.zeros_like(z)
    harmonic = 0.0
    for m in range(1, _SERIES_TERMS):
        term *= -q / (m * m)
        harmonic += 1.0 / m
        j0 += term
        ysum -= term * harmonic
        done = np.abs(term) < 1e-18 * (1.0 + np.abs(j0))
        if np.count_nonzero(done) == z.size:
            break
        # neither sum is ever -0, so adding a signed zero changes no bit
        term[done] = 0.0
    y0 = (2.0 / math.pi) * ((np.log(0.5 * z) + EULER_GAMMA) * j0 + ysum)
    out = np.empty(z.shape, dtype=complex)
    out.real = j0
    out.imag = y0
    return out


def _asymptotic_coefficients():
    """i^m a_m for m < _ASYMPTOTIC_TERMS, a_m = prod_{j<=m} (-(2j-1)^2) / (8j)."""
    coef = []
    a = 1.0
    for m in range(_ASYMPTOTIC_TERMS):
        if m > 0:
            a *= -((2 * m - 1) ** 2) / (8.0 * m)
        coef.append((1j ** m) * a)
    return np.array(coef)


_COEF = _asymptotic_coefficients()
# The nonzero part of each i^m a_m, for Horner's rule in u = 1 / z^2:
# the real parts of the even terms and the imaginary parts of the odd
# ones, highest power of u first.
_EVEN = _COEF.real[0::2][::-1]
_ODD = _COEF.imag[1::2][::-1]


def _asymptotic(z):
    """Large-argument form for a 1-d array z > Z_SWITCH:
    sqrt(2/(pi z)) e^{i(z - pi/4)} sum_{m < _ASYMPTOTIC_TERMS} i^m a_m / z^m.

    The even terms are real and the odd ones imaginary, so with w = 1 / z
    and u = w^2 the sum is P(u) + i w Q(u), where P and Q are polynomials
    of degree 11; each is evaluated by Horner's rule over all of its
    coefficients, whatever z is. Every element's bits depend on its own z
    alone, and it lies within 1e-15 (relative) of the 24 complex terms
    summed in order.
    """
    w = 1.0 / z
    u = w * w
    re = np.zeros_like(z)
    im = np.zeros_like(z)
    for even, odd in zip(_EVEN, _ODD):
        re *= u
        re += even
        im *= u
        im += odd
    s = np.empty(z.shape, dtype=complex)
    s.real = re
    s.imag = im * w
    amp = np.sqrt(2.0 / (math.pi * z))
    return amp * np.exp(1j * (z - 0.25 * math.pi)) * s


def hankel0_first_kind(z):
    """H0^(1)(z) = J0(z) + i Y0(z) for real z > 0.

    Accepts scalars or arrays of any shape (the result has the same shape);
    absolute accuracy better than 1e-7 for z in (0, 1e4].
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0):
        raise ValueError("argument of H0^(1) must be positive")
    flat = z_arr.ravel()
    series = flat <= Z_SWITCH
    if not series.any():
        out = _asymptotic(flat)
    elif series.all():
        out = _series(flat)
    else:
        out = np.empty(flat.shape, dtype=complex)
        out[series] = _series(flat[series])
        out[~series] = _asymptotic(flat[~series])
    out = out.reshape(z_arr.shape)
    if z_arr.ndim == 0:
        return complex(out.reshape(())[()])
    return out
