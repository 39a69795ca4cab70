import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoplane.bessel import hankel0_first_kind
from holoplane.errors import SingularEvaluationError
from holoplane.fields import (
    PointSource,
    RadiationField,
    WaveParams,
    eval_radiation,
    far_field,
    far_field_numeric_oracle,
    plane_wave,
)
from holoplane.metrics import slope_estimate


def params3(kappa=4.0):
    return WaveParams(kappa=kappa, k=np.array([kappa, 0.0, 0.0]))


def source_field(dim, c, x0):
    return RadiationField(dim, (PointSource(c=c, x0=np.array(x0, dtype=float)),))


class TestWaveParams:
    def test_mismatched_norm_rejected(self):
        with pytest.raises(ValueError):
            WaveParams(kappa=4.0, k=np.array([3.0, 0.0, 0.0]))

    def test_dim(self):
        assert params3().dim == 3
        assert WaveParams(kappa=1.0, k=np.array([1.0, 0.0])).dim == 2


class TestPlaneWave:
    def test_origin(self):
        assert plane_wave(np.zeros(3), params3()) == pytest.approx(1.0)

    def test_half_period(self):
        x = np.array([np.pi / 4, 0.0, 0.0])
        assert plane_wave(x, params3()) == pytest.approx(-1.0)

    def test_general_phase(self):
        x = np.array([100.0, 7.0, -3.0])
        assert plane_wave(x, params3()) == pytest.approx(np.exp(400j))

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=3))
    def test_unit_modulus(self, x):
        assert abs(plane_wave(np.array(x), params3())) == pytest.approx(1.0)


class TestEvalRadiation:
    def test_point_source_3d(self):
        f = source_field(3, 1.0 + 0j, (0.0, 0.0, 0.0))
        v = eval_radiation(f, 4.0, np.array([100.0, 0.0, 0.0]))
        assert v == pytest.approx(np.exp(400j) / 100.0)

    def test_two_source_symmetry(self):
        f = RadiationField(
            3,
            (
                PointSource(1.0 + 0j, np.array([0.0, 1.0, 0.0])),
                PointSource(1.0 + 0j, np.array([0.0, -1.0, 0.0])),
            ),
        )
        single = source_field(3, 1.0 + 0j, (0.0, 1.0, 0.0))
        x = np.array([50.0, 0.0, 3.0])  # on the x2 = 0 mirror plane
        assert eval_radiation(f, 4.0, x) == pytest.approx(
            2.0 * eval_radiation(single, 4.0, x)
        )

    def test_point_source_2d_is_hankel(self):
        f = source_field(2, 1.0 + 0j, (0.0, 0.0))
        v = eval_radiation(f, 1.0, np.array([1.0, 0.0]))
        assert v == pytest.approx(hankel0_first_kind(1.0))
        assert v.real == pytest.approx(0.7651977, abs=1e-6)
        assert v.imag == pytest.approx(0.0882570, abs=1e-6)

    def test_singular_evaluation_rejected(self):
        f = source_field(3, 1.0 + 0j, (0.0, 2.5, 0.0))
        with pytest.raises(SingularEvaluationError):
            eval_radiation(f, 4.0, np.array([0.0, 2.5, 0.0]))

    def test_singular_message_names_first_point(self):
        # point 1 is on the second source, point 3 on the first
        f = RadiationField(3, (PointSource(c=1.0 + 0j, x0=np.array([0.0, 2.5, 0.0])),
                               PointSource(c=1.0 + 0j, x0=np.array([0.0, -1.0, 0.5]))))
        pts = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.5],
                        [2.0, 0.0, 0.0], [0.0, 2.5, 0.0]])
        with pytest.raises(SingularEvaluationError, match=(
                r"^evaluation point at \(0\.0, -1\.0, 0\.5\) coincides with a source$")):
            eval_radiation(f, 4.0, pts)

    def test_singular_message_skips_nan_points(self):
        # a point without coordinates does not hide a later one within the
        # tolerance of a source
        f = source_field(3, 1.0 + 0j, (0.0, 2.5, 0.0))
        pts = np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.5, 1e-13]])
        with pytest.raises(SingularEvaluationError, match=(
                r"^evaluation point at \(0\.0, 2\.5, 1e-13\) coincides with a source$")):
            eval_radiation(f, 4.0, pts)

    def test_array_matches_pointwise(self):
        f = source_field(3, 2.0 - 1j, (0.0, 2.5, 0.0))
        pts = np.array([[100.0, 1.0, 2.0], [80.0, -3.0, 5.0]])
        batch = eval_radiation(f, 4.0, pts)
        for row, p in zip(batch, pts):
            assert row == pytest.approx(eval_radiation(f, 4.0, p))

    @pytest.mark.parametrize("dim", [3, 2])
    def test_value_independent_of_batch_length(self, dim):
        # 2e4 points make arrays past numpy's 256 KiB temporary-reuse
        # threshold; 4096-point blocks stay below it. An amplitude with both
        # parts nonzero is where the in-place multiply loop changes bits.
        f = RadiationField(dim, (PointSource(0.7 - 0.2j, np.r_[0.0, 2.5, 0.0][:dim]),
                                 PointSource(1.3 + 0.4j, np.r_[1.0, -1.0, 2.0][:dim])))
        rng = np.random.default_rng(11)
        pts = rng.uniform(-20.0, 20.0, (20_000, dim))
        pts[:, 0] = 100.0
        whole = eval_radiation(f, 4.0, pts)
        blocks = [eval_radiation(f, 4.0, pts[s:s + 4096]) for s in range(0, len(pts), 4096)]
        np.testing.assert_array_equal(whole, np.concatenate(blocks))

    @pytest.mark.parametrize("dim, sources, message", [
        (4, (PointSource(1.0 + 0j, np.zeros(4)),), "only d=2 and d=3 are supported"),
        (1, (PointSource(1.0 + 0j, np.zeros(1)),), "only d=2 and d=3 are supported"),
        (3, (), "at least one source is required"),
    ])
    def test_dimension_and_sources_checked(self, dim, sources, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RadiationField(dim, sources)

    def test_duplicate_sources_rejected(self):
        with pytest.raises(ValueError):
            RadiationField(
                3,
                (
                    PointSource(1.0 + 0j, np.zeros(3)),
                    PointSource(2.0 + 0j, np.zeros(3)),
                ),
            )


class TestFarField:
    def test_centered_source_is_constant_one(self):
        f = source_field(3, 1.0 + 0j, (0.0, 0.0, 0.0))
        for theta in ([1.0, 0, 0], [0, 1.0, 0], [0.6, 0.8, 0.0]):
            assert far_field(f, 4.0, np.array(theta)) == pytest.approx(1.0)

    def test_orthogonal_direction(self):
        f = source_field(3, 1.0 + 0j, (0.0, 2.5, 0.0))
        assert far_field(f, 4.0, np.array([1.0, 0, 0])) == pytest.approx(1.0)

    def test_aligned_direction(self):
        f = source_field(3, 1.0 + 0j, (0.0, 2.5, 0.0))
        assert far_field(f, 4.0, np.array([0.0, 1.0, 0])) == pytest.approx(
            np.exp(-10j)
        )

    def test_2d_normalization(self):
        f = source_field(2, 1.0 + 0j, (0.0, 0.0))
        expected = np.sqrt(2.0 / (np.pi * 4.0)) * np.exp(-1j * np.pi / 4)
        assert far_field(f, 4.0, np.array([1.0, 0.0])) == pytest.approx(expected)


class TestFarFieldOracle:
    def test_centered_3d_exact_at_finite_radius(self):
        f = source_field(3, 1.0 + 0j, (0.0, 0.0, 0.0))
        theta = np.array([1.0, 0.0, 0.0])
        for r in (10.0, 1e3, 1e6):
            assert far_field_numeric_oracle(f, 4.0, theta, r) == pytest.approx(1.0)

    def test_offset_3d_converges(self):
        f = source_field(3, 1.0 + 0j, (0.0, 2.5, 0.0))
        theta = np.array([1.0, 0.0, 0.0])
        # leading remainder is kappa |x0|^2 / (2 r) = 1.25e-5 at r = 1e6
        assert abs(far_field_numeric_oracle(f, 4.0, theta, 1e6) - 1.0) < 1.3e-5

    def test_2d_converges_to_closed_form(self):
        f = source_field(2, 1.0 + 0j, (0.0, 0.0))
        theta = np.array([1.0, 0.0])
        expected = np.sqrt(2.0 / (4.0 * np.pi)) * np.exp(-1j * np.pi / 4)
        assert abs(far_field_numeric_oracle(f, 4.0, theta, 1e6) - expected) < 1e-5

    @pytest.mark.parametrize(
        "dim,x0", [(3, (0.0, 2.5, 0.0)), (2, (0.0, 2.5))]
    )
    def test_first_order_convergence(self, dim, x0):
        f = source_field(dim, 1.0 + 0j, x0)
        theta = np.zeros(dim)
        theta[0] = 1.0
        exact = far_field(f, 4.0, theta)
        rows = [
            (r, abs(far_field_numeric_oracle(f, 4.0, theta, r) - exact))
            for r in (1e3, 1e4, 1e5)
        ]
        assert slope_estimate(rows) <= -0.9


@given(
    st.floats(1.0, 8.0),
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.floats(10, 200),
    st.floats(-0.5, 0.5),
)
@settings(max_examples=100)
def test_radiation_scaling_in_amplitude(kappa, a, b, r, t):
    """eval_radiation is linear in the source amplitude."""
    x0 = np.array([0.0, a, b])
    x = r * np.array([1.0, t, -t]) / np.linalg.norm([1.0, t, -t])
    if np.linalg.norm(x - x0) < 1e-3:
        return
    f1 = RadiationField(3, (PointSource(1.0 + 0j, x0),))
    f2 = RadiationField(3, (PointSource(3.0 - 2j, x0),))
    v1 = eval_radiation(f1, kappa, x)
    v2 = eval_radiation(f2, kappa, x)
    assert v2 == pytest.approx((3.0 - 2j) * v1)
