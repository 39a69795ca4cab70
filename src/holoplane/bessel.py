"""Hankel function of the first kind, order zero.

Two branches: the ascending power series of J0 and Y0 for moderate
arguments, and the large-argument asymptotic (amplitude/phase) expansion.
Both are accurate to better than 1e-7 absolute over their ranges and agree
near the switch point.

Both branches are numpy code over the whole argument array. The series is
one in-place recurrence in which an element stops where a term-by-term
loop over it alone would stop, and then adds only signed zeros; the
asymptotic terms are tabulated per argument and summed in order, each
part (real and imaginary) in place. In a block of arguments each part
sums only the terms that can change a bit of it, by a cut of its own: a
dropped term is under half an ulp of its part's partial sum at every
argument of the block, so it would round away (`_asymptotic`). Either
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
_SIZES = np.abs(_PARTS[:, 0])
_POWERS = np.arange(_ASYMPTOTIC_TERMS)[:, None]
# Arguments per asymptotic term table, which holds _ASYMPTOTIC_TERMS
# values per argument: bounds its memory on long argument arrays.
_BLOCK = 1024
# A term below this times the least magnitude of its part's partial sums
# rounds away when added to them; so does one below it in the real part,
# whose partial sums lie in [0.5, 1] (`_asymptotic`).
_HALF_ULP = 2.0 ** -55


def _asymptotic(z):
    """Large-argument form for a 1-d array z > Z_SWITCH:
    sqrt(2/(pi z)) e^{i(z - pi/4)} sum_{m < _ASYMPTOTIC_TERMS} i^m a_m / z^m.

    The terms are tabulated, one column per argument, as the reals 1 / z^m
    times the nonzero part of i^m a_m, and the even ones are summed in order
    into the real part, the odd ones into the imaginary part: each part is
    its first row, to which each later row is added in place. That is the
    in-order complex sum bit for bit: numpy divides a + bi by a real c as
    ((a + b 0) (1 / c), (b - a 0) (1 / c)), and the zero parts add nothing.

    A block of arguments sums, in each part, only the terms that can change
    a bit of it, and tabulates only the rows that either part sums; the
    rest would add nothing. Each part has its own cut, taken from the
    block's smallest and largest non-NaN z, z_min and z_max. A term
    |a_m| / z^m is largest at z_min, and for z > Z_SWITCH each term is at
    most 0.64 times the one before, so every later term of its part is
    smaller still. Adding x to a partial sum p leaves p as it is when |x|
    is under half the spacing of the doubles just below |p|: that holds
    for |x| < 2^-55 when |p| lies in [0.5, 1], and for |x| < 2^-55 |p|
    whatever p is. Every partial sum of the real part lies in [0.5, 1],
    and the imaginary part's have magnitude at least 0.1247 / z. So an
    even term below 2^-55 at z_min, and an odd term below
    2^-55 * 0.124 / z_max at z_min, is under half a spacing of its partial
    sum at every z of the block: it rounds away, and so does every later
    term of its part, and the sum keeps every bit of the full one. The
    first odd term, 0.125 / z, is never dropped. A block of NaN alone
    keeps no term.
    """
    s = np.zeros(z.shape, dtype=complex)
    for start in range(0, z.size, _BLOCK):
        block = z[start:start + _BLOCK]
        # fmin and fmax skip NaN arguments, so they do not cut the finite ones'
        # sum. An inf z^m (z > 1e13.4) is of a term that is dropped, or would
        # round away.
        with np.errstate(over="ignore"):
            size = _SIZES / np.fmin.reduce(block) ** _POWERS[:, 0]
            even = np.count_nonzero(size[0::2] >= _HALF_ULP)
            odd = np.count_nonzero(size[1::2] >= _HALF_ULP * 0.124 / np.fmax.reduce(block))
            used = max(2 * even - 1, 2 * odd)
            terms = 1.0 / block ** _POWERS[:used]
        terms *= _PARTS[:used]
        for part, rows in ((s.real, terms[0:2 * even:2]), (s.imag, terms[1:2 * odd:2])):
            if len(rows):
                for row in rows[1:]:
                    rows[0] += row
                part[start:start + _BLOCK] = rows[0]
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
