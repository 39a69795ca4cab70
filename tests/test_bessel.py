import numpy as np
import pytest
from scipy.special import hankel1

from holoplane import bessel
from holoplane.bessel import hankel0_first_kind


def test_value_at_one():
    # J0(1) and Y0(1) to the digits of standard tables
    h = hankel0_first_kind(1.0)
    assert h.real == pytest.approx(0.7651976866, abs=1e-9)
    assert h.imag == pytest.approx(0.0882569642, abs=1e-9)


def test_value_at_ten():
    h = hankel0_first_kind(10.0)
    assert h.real == pytest.approx(-0.2459357645, abs=1e-9)
    assert h.imag == pytest.approx(0.0556711673, abs=1e-9)


def test_asymptotic_modulus():
    # |H0(z)| sqrt(pi z / 2) -> 1
    for z in (1e2, 1e3, 1e5):
        assert abs(hankel0_first_kind(z)) * np.sqrt(np.pi * z / 2) == pytest.approx(
            1.0, abs=1e-3
        )


def test_nonpositive_argument_rejected():
    with pytest.raises(ValueError):
        hankel0_first_kind(0.0)
    with pytest.raises(ValueError):
        hankel0_first_kind(-1.0)


def test_matches_scipy_over_wide_range():
    z = np.logspace(-3, 4, 2000)
    ours = hankel0_first_kind(z)
    ref = hankel1(0, z)
    assert np.max(np.abs(ours - ref)) < 1e-7


def test_branches_agree_near_switchover():
    # the series and asymptotic regimes must join smoothly
    for z in np.linspace(16.0, 20.0, 41):
        assert abs(hankel0_first_kind(float(z)) - hankel1(0, z)) < 1e-8


def test_array_input_matches_scalar():
    z = np.array([0.5, 3.0, 30.0])
    vec = hankel0_first_kind(z)
    scal = np.array([hankel0_first_kind(float(v)) for v in z])
    np.testing.assert_allclose(vec, scal, rtol=0, atol=0)


def test_array_straddling_switch_matches_scalar_calls():
    # both branches in one call, in mixed order; each element must come out
    # exactly as it does on its own
    from holoplane.bessel import Z_SWITCH

    z = np.concatenate([np.linspace(0.01, 2 * Z_SWITCH, 301), [Z_SWITCH]])
    z = np.random.default_rng(4).permutation(z)
    assert (z <= Z_SWITCH).any() and (z > Z_SWITCH).any()
    vec = hankel0_first_kind(z)
    scal = np.array([hankel0_first_kind(float(v)) for v in z])
    np.testing.assert_allclose(vec, scal, rtol=0, atol=0)


def test_2d_input_keeps_shape():
    z = np.array([[0.5, 3.0, 18.0], [18.5, 30.0, 420.0]])
    out = hankel0_first_kind(z)
    assert out.shape == z.shape
    np.testing.assert_array_equal(out.ravel(), hankel0_first_kind(z.ravel()))


def test_matches_scipy_on_plane_distances():
    # kappa |x - x0| for kappa = 4 and plane points at s = 100, |u| <= 20
    z = np.linspace(400.0, 440.0, 4001)
    assert np.max(np.abs(hankel0_first_kind(z) - hankel1(0, z))) < 1e-7


@pytest.mark.parametrize("bad", [0.0, -2.0])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_nonpositive_element_in_array_rejected(bad, where):
    z = np.linspace(1.0, 40.0, 7)
    z[where] = bad
    with pytest.raises(ValueError):
        hankel0_first_kind(z)
    with pytest.raises(ValueError):
        hankel0_first_kind(z.reshape(7, 1))


def _series_reference(z):
    """The ascending series summed term by term for one float z."""
    q = 0.25 * z * z
    j0, ysum, term, harmonic = 1.0, 0.0, 1.0, 0.0
    for m in range(1, 200):
        term *= -q / (m * m)
        harmonic += 1.0 / m
        j0 += term
        ysum -= term * harmonic
        if abs(term) < 1e-18 * (1.0 + abs(j0)):
            break
    y0 = (2.0 / np.pi) * ((np.log(0.5 * z) + 0.5772156649015328606) * j0 + ysum)
    return complex(j0, y0)


def _asymptotic_reference(z):
    """The asymptotic expansion for one float z, truncated before the first
    term that is larger than the one before."""
    s, a, best = 0j, 1.0, np.inf
    for m in range(24):
        if m > 0:
            a *= -((2 * m - 1) ** 2) / (8.0 * m)
        term = (1j ** m) * a / z ** m
        if abs(term) > best:
            break
        best = abs(term)
        s += term
    return np.sqrt(2.0 / (np.pi * z)) * np.exp(1j * (z - 0.25 * np.pi)) * s


# numpy's log and pow may round differently from the libm calls of the
# one-element loops; everything else is the same arithmetic
_ROUNDING = 16 * np.finfo(float).eps


# the first five zeros of J0
_J0_ZEROS = [2.4048255576957724, 5.520078110286311, 8.653727912911013,
             11.791534439014281, 14.930917708487787]


def test_matches_term_by_term_reference():
    from holoplane.bessel import Z_SWITCH

    z = np.concatenate([np.logspace(-3, 4, 700), _J0_ZEROS,
                        np.geomspace(1e-300, 18, 200)])
    got = hankel0_first_kind(z)
    ref = np.array([_series_reference(v) if v <= Z_SWITCH else _asymptotic_reference(v)
                    for v in z])
    np.testing.assert_allclose(got, ref, rtol=_ROUNDING, atol=0)
    # J0 takes no log or pow: the series gives the loop's bits, stop for stop
    series = z <= Z_SWITCH
    assert got.real[series].tobytes() == ref.real[series].tobytes()


# i^m a_m and the powers m of 1 / z^m, for m < 24, as columns
_COEF = bessel._COEF[:, None]
_POWERS = np.arange(24)[:, None]


def _complex_formula(z):
    """H0 for z > Z_SWITCH from all 24 complex terms i^m a_m / z^m, summed in
    order by `np.add.accumulate` per argument (NaN arguments give NaN).

    The power table is made 1000 arguments at a time: from about 5500
    arguments on numpy computes `z ** 2` of the table by np.square, whose
    bits differ from pow's for about 5 % of them."""
    parts = []
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, z.size, 1000):
            block = z[start:start + 1000]
            full = np.add.accumulate(_COEF / block ** _POWERS, axis=0)[-1]
            parts.append(np.sqrt(2.0 / (np.pi * block))
                         * np.exp(1j * (block - 0.25 * np.pi)) * full)
    return np.concatenate(parts)


def _assert_same_bits(got, expected):
    finite = np.isfinite(expected)
    assert got[finite].tobytes() == expected[finite].tobytes()
    assert np.isnan(got[~finite]).all()


# Horner's rule sums the asymptotic series in another order than the
# in-order sum of its terms; this bounds the difference, relative to |H0|
_HORNER_TOL = 1e-15


def _assert_elementwise_and_close(got, z, every=1):
    """Each finite element of `got` = H0(z) has the bits of the one-argument
    call on its z (of every `every`-th element), each NaN argument gives
    NaN, and `got` lies within _HORNER_TOL |H0| of `_complex_formula`."""
    finite = np.isfinite(z)
    assert np.isnan(got[~finite]).all()
    with np.errstate(invalid="ignore"):
        alone = np.array([bessel._asymptotic(np.array([v]))[0] for v in z[finite][::every]])
    assert got[finite][::every].tobytes() == alone.tobytes()
    expected = _complex_formula(z[finite])
    assert np.all(np.abs(got[finite] - expected) <= _HORNER_TOL * np.abs(got[finite]))


def test_truncated_asymptotic_sum_has_the_bits_of_the_full_sum():
    # every one of the 24 terms, for arguments in sorted and in shuffled
    # order, with NaN arguments (the offsets of invalid nodes) mixed into
    # the shuffled ones: a NaN must not change the finite ones' values
    z = np.logspace(np.log10(18.0001), 4, 3001)
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(np.concatenate([z, np.full(40, np.nan)]))
    z = np.concatenate([z, shuffled])
    with np.errstate(invalid="ignore"):  # the NaN arguments
        got = bessel._asymptotic(z)
    _assert_elementwise_and_close(got, z)


def test_one_argument_calls_have_the_bits_of_the_complex_sum():
    z = np.random.default_rng(11).uniform(18.0, 25.0, 5000)
    got = np.array([hankel0_first_kind(float(v)) for v in z])
    _assert_elementwise_and_close(got, z)
    _assert_same_bits(hankel0_first_kind(z), got)


def test_long_array_has_the_bits_of_the_complex_sum():
    # 10**5 arguments: from 2**15 on numpy reuses a temporary in place, so
    # an element of the long array is checked against its one-argument call
    # (one in 20 of them, to keep the test short)
    z = np.random.default_rng(12).uniform(18.0, 30.0, 10**5)
    _assert_elementwise_and_close(hankel0_first_kind(z), z, every=20)


def test_nan_arguments_keep_the_bits_of_the_others():
    z = np.random.default_rng(13).uniform(18.0, 400.0, 5000)
    z[::7] = np.nan
    z[2048:3072] = np.nan  # a long run of NaN
    with np.errstate(invalid="ignore"):
        got = bessel._asymptotic(z)
    _assert_elementwise_and_close(got, z)


def test_first_term_only_has_the_bits_of_the_complex_sum():
    # from about z = 1e13 on only the first term of each part is summed: 1,
    # and the odd -0.125 / z, which the cut never drops
    z = np.concatenate([np.logspace(29.1, 300, 500), [1.26e29, 1e200, 3e29]])
    expected = _complex_formula(z)
    _assert_same_bits(hankel0_first_kind(z), expected)
    assert all(bessel._asymptotic(np.array([v])).tobytes() == e.tobytes()
               for v, e in zip(z[-3:], expected[-3:]))


@pytest.mark.parametrize("low, high", [
    (380.0, 505.0),  # kappa |x - x0| of the planar workload
    (1e4, 1e8),  # arguments over four decades
])
def test_cut_ranges_have_the_bits_of_the_complex_sum(low, high):
    z = np.random.default_rng(14).permutation(np.geomspace(low, high, 3000))
    _assert_elementwise_and_close(hankel0_first_kind(z), z)


def test_block_of_near_switch_and_huge_arguments_has_the_bits_of_the_complex_sum():
    # arguments near the switch and over six decades above it, mixed
    rng = np.random.default_rng(15)
    z = rng.permutation(np.concatenate([rng.uniform(18.4, 18.6, 50),
                                        np.geomspace(1e6, 1e12, 950)]))
    _assert_elementwise_and_close(bessel._asymptotic(z), z)


def test_block_of_nan_alone_gives_nan():
    with np.errstate(invalid="ignore"):
        assert np.isnan(bessel._asymptotic(np.full(1024, np.nan))).all()
        assert np.isnan(bessel._asymptotic(np.array([np.nan]))).all()


def test_relative_error_against_scipy_above_switch():
    # the asymptotic branch read at most 5.4e-13 |H0| (at z = 8614) before
    # its series was summed by Horner's rule, and reads the same after
    from holoplane.bessel import Z_SWITCH

    z = np.concatenate([np.geomspace(Z_SWITCH, 1e4, 20001), np.linspace(Z_SWITCH, 1e4, 20001)])
    z = z[z > Z_SWITCH]
    ref = hankel1(0, z)
    assert np.max(np.abs(hankel0_first_kind(z) - ref) / np.abs(ref)) < 1e-12
