"""Hankel function of the first kind, order zero.

Two branches: the ascending power series of J0 and Y0 for moderate
arguments, and the large-argument asymptotic (amplitude/phase) expansion.
Both are accurate to better than 1e-7 absolute over their ranges and agree
near the switch point.

Both branches are numpy code over the whole argument array. The series is
one in-place recurrence in which an element stops where a term-by-term
loop over it alone would stop, and then adds only signed zeros; the
asymptotic terms are tabulated per argument and summed in order. Either
way an element's value does not depend on the other elements. Scalars go
through the same code as one-element arrays.
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
    """i^m a_m for m < _ASYMPTOTIC_TERMS, a_m = prod_{j<=m} (-(2j-1)^2) / (8j),
    as a column."""
    coef = []
    a = 1.0
    for m in range(_ASYMPTOTIC_TERMS):
        if m > 0:
            a *= -((2 * m - 1) ** 2) / (8.0 * m)
        coef.append((1j ** m) * a)
    return np.array(coef)[:, None]


_COEF = _asymptotic_coefficients()
_PARTS = _COEF.real + _COEF.imag  # the nonzero part: real for even m, else imaginary
_POWERS = np.arange(_ASYMPTOTIC_TERMS)[:, None]
# Arguments per asymptotic term table, which holds _ASYMPTOTIC_TERMS
# values per argument: bounds its memory on long argument arrays.
_BLOCK = 1024
# Terms below this magnitude cannot change a bit of the sum (`_asymptotic`).
_NEGLIGIBLE = 1e-30


def _asymptotic(z):
    """Large-argument form for a 1-d array z > Z_SWITCH:
    sqrt(2/(pi z)) e^{i(z - pi/4)} sum_{m < _ASYMPTOTIC_TERMS} i^m a_m / z^m.

    The terms are tabulated, one column per argument, as the reals 1 / z^m
    times the nonzero part of i^m a_m, and the even ones are summed in order
    into the real part, the odd ones into the imaginary part. That is the
    in-order complex sum bit for bit: numpy divides a + bi by a real c as
    ((a + b 0) (1 / c), (b - a 0) (1 / c)), and the zero parts add nothing.

    A block of arguments sums only the terms that are at least _NEGLIGIBLE
    at its smallest non-NaN z; the rest add nothing. For z > Z_SWITCH each term is
    at most 0.64 times the one before, so every later term is smaller
    still. The even terms add to the real part, which is about 1, and the
    odd ones to the imaginary part, which is about -1/(8z). For z <= 1e4
    half an ulp of either part is at least about 8e-22, and for larger z
    the terms fall faster than the parts do. So in the in-order sum a term
    below 1e-30 rounds away and leaves every bit as the full sum has it.
    From z = 1.25e29 on no odd term is left, and the imaginary part is +0.
    """
    s = np.zeros(z.shape, dtype=complex)
    for start in range(0, z.size, _BLOCK):
        block = z[start:start + _BLOCK]
        # fmin skips NaN arguments, so they do not cut the finite ones' sum. An
        # inf z^m (z > 1e13.4) is of a term that is dropped, or would round away.
        with np.errstate(over="ignore"):
            size = np.abs(_COEF[:, 0]) / np.fmin.reduce(block) ** _POWERS[:, 0]
            used = np.count_nonzero(size >= _NEGLIGIBLE)
            terms = 1.0 / block ** _POWERS[:used]
        terms *= _PARTS[:used]
        for part, rows in ((s.real, terms[0::2]), (s.imag, terms[1::2])):
            if len(rows):
                part[start:start + _BLOCK] = np.add.accumulate(rows, axis=0)[-1]
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
    out = np.empty(flat.shape, dtype=complex)
    series = flat <= Z_SWITCH
    for branch, mask in ((_series, series), (_asymptotic, ~series)):
        if mask.any():
            out[mask] = branch(flat[mask])
    out = out.reshape(z_arr.shape)
    if z_arr.ndim == 0:
        return complex(out.reshape(())[()])
    return out
