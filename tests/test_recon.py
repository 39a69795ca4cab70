import numpy as np
import pytest

from holoplane.errors import (
    DegenerateDeterminantError,
    ExceptionalDirectionError,
)
from holoplane.fields import (
    PointSource,
    RadiationField,
    WaveParams,
    eval_radiation,
    far_field,
    plane_wave,
)
from holoplane.geometry import GridSpec, make_frame, point_on_plane
from holoplane.hologram import scattered_signal
from holoplane.metrics import rel_l2, slope_estimate
from holoplane.recon import (
    BoundedOffset,
    HybridStrategy,
    SqrtScaled,
    beta_solve,
    determinant,
    determinant_phase_expansion,
    f11,
    f11_refined_2d,
    recon_to_csv,
    reconstruct_grid,
    zeta_bounded,
    zeta_sqrt,
)

E1 = np.array([1.0, 0.0, 0.0])


def preset_field(dim=3):
    x0 = np.zeros(dim)
    x0[1] = 2.5
    return RadiationField(dim, (PointSource(1.0 + 0j, x0),))


def small_spec(n, dim=3):
    return GridSpec(frame=make_frame(np.eye(dim)[0], 100.0), half_width=20.0, n=n)


def params_d(d, kappa=4.0):
    k = np.zeros(d)
    k[0] = kappa
    return WaveParams(kappa=kappa, k=k)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_admissible_theta(rng, frame, k, kappa, eps, dim=3):
    """Unit directions in the open half-sphere, outside the exceptional set."""
    while True:
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if np.dot(v, frame.omega) < 0.05:
            continue
        par = v - np.dot(v, frame.omega) * frame.omega
        k_par = k - np.dot(k, frame.omega) * frame.omega
        if np.linalg.norm(k_par - kappa * par) >= eps:
            return v


class TestZetaBounded:
    def test_example_offset(self):
        frame = make_frame(E1, 100.0)
        theta = unit([np.sqrt(0.99), 0.1, 0.0])
        # scale so the in-plane part is exactly (0, 0.1, 0)
        theta = np.array([np.sqrt(1 - 0.1**2), 0.1, 0.0])
        p = params_d(3)
        zeta = zeta_bounded(theta, p, frame, -0.5, 0.1)
        np.testing.assert_allclose(zeta, [0.0, 1.25, 0.0], atol=1e-12)
        assert np.dot(p.k - p.kappa * theta, zeta) == pytest.approx(-0.5)

    def test_singular_direction_rejected(self):
        frame = make_frame(E1, 100.0)
        with pytest.raises(ExceptionalDirectionError):
            zeta_bounded(E1, params_d(3), frame, -0.5, 0.1)

    def test_phase_exactness_and_bound(self):
        rng = np.random.default_rng(7)
        frame = make_frame(E1, 100.0)
        p = params_d(3)
        for _ in range(1000):
            theta = random_admissible_theta(rng, frame, p.k, p.kappa, 0.1)
            alpha = rng.uniform(-2.0, 2.0)
            if abs(alpha) < 1e-3:
                continue
            zeta = zeta_bounded(theta, p, frame, alpha, 0.1)
            assert abs(np.dot(p.k - p.kappa * theta, zeta) - alpha) <= 1e-10
            assert np.linalg.norm(zeta) <= abs(alpha) / 0.1 + 1e-12
            assert abs(np.dot(zeta, frame.omega)) <= 1e-9


class TestBetaSolve:
    def test_singular_direction_value(self):
        beta = beta_solve(
            -0.5, 4.0, 100.0, np.zeros(3), np.zeros(3), np.array([0.0, 1.0, 0.0])
        )
        assert beta == pytest.approx(-5.0)
        # the magnitude bound is attained in this limit
        assert abs(beta) == pytest.approx(np.sqrt(2 * 0.5 * 100.0 / 4.0))

    def test_far_plane_limit(self):
        beta = beta_solve(
            -0.5,
            4.0,
            1e12,
            np.array([0.0, 0.1, 0.0]),
            np.zeros(3),
            np.array([0.0, -1.0, 0.0]),
        )
        assert beta == pytest.approx(-0.5 / 0.4, abs=1e-6)

    def test_quadratic_identity(self):
        rng = np.random.default_rng(11)
        frame = make_frame(E1, 1.0)
        for _ in range(1000):
            alpha = -rng.uniform(0.05, 2.0)
            kappa = rng.uniform(0.5, 8.0)
            r = rng.uniform(10.0, 1e4)
            tpar = np.array([0.0, rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)])
            kpar = np.array([0.0, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)])
            ang = rng.uniform(0, 2 * np.pi)
            zhat = np.array([0.0, np.cos(ang), np.sin(ang)])
            beta = beta_solve(alpha, kappa, r, tpar, kpar, zhat)
            mn = np.linalg.norm(kpar - kappa * tpar)
            t2 = np.dot(tpar, zhat) ** 2
            residual = beta * mn + (kappa / (2 * r)) * beta**2 * (t2 - 1) - alpha
            assert abs(residual) <= 1e-10
            assert abs(beta) <= np.sqrt(2 * alpha * r / (kappa * (t2 - 1))) + 1e-9


class TestZetaSqrt:
    def test_singular_direction_uses_fallback(self):
        frame = make_frame(E1, 100.0)
        zeta = zeta_sqrt(E1, params_d(3), frame, -0.5, 100.0, fallback_axis=0)
        np.testing.assert_allclose(np.abs(zeta), [0.0, 5.0, 0.0], atol=1e-12)
        assert np.linalg.norm(zeta) == pytest.approx(5.0)

    def test_matches_bounded_far_from_plane(self):
        frame = make_frame(E1, 100.0)
        p = params_d(3)
        theta = unit([1.0, 0.3, -0.2])
        zb = zeta_bounded(theta, p, frame, -0.5, 0.1)
        zs = zeta_sqrt(theta, p, frame, -0.5, 1e9, fallback_axis=0)
        np.testing.assert_allclose(zs, zb, atol=1e-6)

    def test_planarity(self):
        rng = np.random.default_rng(3)
        omega = unit([2.0, 1.0, 2.0])
        frame = make_frame(omega, 50.0)
        kappa = 4.0
        p = WaveParams(kappa=kappa, k=kappa * omega)
        for _ in range(200):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            if np.dot(v, omega) < 0.05:
                continue
            zeta = zeta_sqrt(v, p, frame, -0.5, rng.uniform(20, 500))
            assert abs(np.dot(zeta, omega)) <= 1e-9


class TestDeterminant:
    def test_zero_offset(self):
        assert determinant(100 * E1, np.zeros(3), params_d(3)) == 0.0

    def test_bounded_and_imaginary(self):
        rng = np.random.default_rng(5)
        p = params_d(3)
        for _ in range(2000):
            x = rng.uniform(10, 200) * unit(rng.normal(size=3))
            zeta = rng.uniform(-5, 5, size=3)
            D = determinant(x, zeta, p)
            assert abs(D) <= 2.0 + 1e-15
            assert abs(D.real) <= 1e-12

    def test_singular_direction_phase_near_alpha(self):
        frame = make_frame(E1, 100.0)
        p = params_d(3)
        x = 100.0 * E1
        zeta = zeta_sqrt(E1, p, frame, -0.5, 100.0)
        phase = np.dot(p.k, zeta) + p.kappa * (
            np.linalg.norm(x) - np.linalg.norm(x + zeta)
        )
        assert abs(phase - (-0.5)) <= 3.0 / np.sqrt(100.0)


class TestPhaseExpansion:
    def test_zero_offset(self):
        assert determinant_phase_expansion(100 * E1, np.zeros(3), params_d(3)) == 0.0

    def test_bounded_offset_near_alpha(self):
        frame = make_frame(E1, 100.0)
        p = params_d(3)
        theta = unit([1.0, 0.25, -0.15])
        zeta = zeta_bounded(theta, p, frame, -0.5, 0.1)
        x = point_on_plane(theta, frame)
        val = determinant_phase_expansion(x, zeta, p)
        assert abs(val - (-0.5)) <= 10.0 / np.linalg.norm(x)

    def test_remainder_bound(self):
        rng = np.random.default_rng(13)
        p = params_d(3)
        for _ in range(2000):
            r = rng.uniform(20, 500)
            x = r * unit(rng.normal(size=3))
            zeta = rng.uniform(-1, 1, size=3)
            zeta *= rng.uniform(0, 0.1) * r / max(np.linalg.norm(zeta), 1e-12)
            exact = np.dot(p.k, zeta) + p.kappa * (
                np.linalg.norm(x) - np.linalg.norm(x + zeta)
            )
            model = determinant_phase_expansion(x, zeta, p)
            bound = 2 * p.kappa * np.linalg.norm(zeta) ** 3 / r**2
            assert abs(exact - model) <= bound + 1e-12


def constant_farfield_signal(pt, f1c, p):
    """Scattered signal of the algebra fixture psi = e^{i k r} r^{-(d-1)/2} f1c
    (a constant "far field" with no remainder terms)."""
    r = np.linalg.norm(pt)
    half = (p.dim - 1) / 2.0
    psi = np.exp(1j * p.kappa * r) * r ** (-half) * f1c
    i_val = abs(plane_wave(pt, p) + psi) ** 2
    return r**half * (i_val - 1.0)


class TestF11:
    def test_zero_signal(self):
        p = params_d(3)
        frame = make_frame(E1, 100.0)
        theta = unit([1.0, 0.2, 0.0])
        x = point_on_plane(theta, frame)
        zeta = zeta_bounded(theta, p, frame, -0.5, 0.1)
        assert f11(0.0, 0.0, x, x + zeta, p) == 0.0

    def test_degenerate_determinant_rejected(self):
        p = params_d(3)
        x = 100.0 * E1
        with pytest.raises(DegenerateDeterminantError):
            f11(1.0, 1.0, x, x, p)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_constant_farfield_residual(self, dim):
        p = params_d(dim)
        f1c = 0.8 + 0.6j
        half = (dim - 1) / 2.0
        theta = unit([1.0, 0.25, -0.15][:dim])
        rows = []
        for s in (50.0, 100.0, 200.0, 400.0, 800.0):
            frame = make_frame(np.eye(dim)[0], s)
            x = point_on_plane(theta, frame)
            zeta = zeta_bounded(theta, p, frame, -0.5, 0.1)
            y = x + zeta
            est = f11(
                constant_farfield_signal(x, f1c, p),
                constant_farfield_signal(y, f1c, p),
                x,
                y,
                p,
            )
            D = determinant(x, zeta, p)
            resid = abs(est - f1c)
            bound = (2.0 / abs(D)) * abs(f1c) ** 2 * max(
                np.linalg.norm(x), np.linalg.norm(y)
            ) ** (-half)
            assert resid <= 1.3 * bound
            rows.append((s, resid))
        assert slope_estimate(rows) <= -half + 0.2

    def test_matches_exact_farfield_on_preset(self):
        # a direction well away from the singular one
        p = params_d(3)
        field = RadiationField(3, (PointSource(1.0 + 0j, np.array([0.0, 2.5, 0.0])),))
        frame = make_frame(E1, 100.0)
        theta = unit([100.0, 10.0, 10.0])
        x = point_on_plane(theta, frame)
        zeta = zeta_bounded(theta, p, frame, -0.5, 0.1)
        y = x + zeta

        def sig(pt):
            r = np.linalg.norm(pt)
            i_val = abs(plane_wave(pt, p) + eval_radiation(field, p.kappa, pt)) ** 2
            return r * (i_val - 1.0)

        est = f11(sig(x), sig(y), x, y, p)
        exact = far_field(field, p.kappa, theta)
        assert abs(est - exact) < 0.1 * abs(exact)


class TestF11Refined:
    def test_zero_input(self):
        p = params_d(2)
        x = np.array([100.0, 0.0])
        y = np.array([100.0, 1.0])
        assert f11_refined_2d(0.0, x, y, p) == 0.0

    def test_correction_magnitude_bound(self):
        p = params_d(2)
        frame = make_frame(np.array([1.0, 0.0]), 100.0)
        theta = unit([1.0, 0.3])
        x = point_on_plane(theta, frame)
        zeta = zeta_bounded(theta, p, frame, -0.5, 0.1)
        y = x + zeta
        val = 0.7 - 0.4j
        refined = f11_refined_2d(val, x, y, p)
        D = determinant(x, zeta, p)
        bound = 2 * abs(val) ** 2 / (abs(D) * np.sqrt(np.linalg.norm(x)))
        assert abs(refined - val) <= bound + 1e-12

    def test_improves_2d_point_source(self):
        p = params_d(2)
        field = RadiationField(2, (PointSource(3.0 + 0j, np.array([0.0, 0.5])),))
        theta = unit([1.0, 0.1])
        exact = far_field(field, p.kappa, theta)
        frame = make_frame(np.array([1.0, 0.0]), 800.0)
        x = point_on_plane(theta, frame)
        zeta = zeta_bounded(theta, p, frame, -0.5, 0.1)
        y = x + zeta

        def sig(pt):
            r = np.linalg.norm(pt)
            i_val = abs(plane_wave(pt, p) + eval_radiation(field, p.kappa, pt)) ** 2
            return np.sqrt(r) * (i_val - 1.0)

        base = f11(sig(x), sig(y), x, y, p)
        refined = f11_refined_2d(base, x, y, p)
        assert abs(refined - exact) < abs(base - exact)


class TestReconstructGrid:
    def test_zero_field_reconstructs_to_zero(self):
        p = params_d(3)
        field = RadiationField(3, (PointSource(0.0 + 0j, np.array([0.0, 2.5, 0.0])),))
        spec = GridSpec(frame=make_frame(E1, 100.0), half_width=20.0, n=12)
        res = reconstruct_grid(field, p, spec, SqrtScaled(alpha=-0.5))
        np.testing.assert_allclose(res.f11, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.psi1_rec, 0.0, atol=1e-12)

    def test_preset_error_level(self, preset_run):
        cfg, result, psi1 = preset_run
        assert rel_l2(result.psi1_rec, psi1) == pytest.approx(0.116273, abs=1e-4)

    def test_preset_max_offset(self, preset_run):
        _, result, _ = preset_run
        assert result.max_zeta == pytest.approx(4.722484, abs=1e-4)
        assert result.max_zeta < 15.0

    def test_preset_flags(self, preset_run):
        _, result, _ = preset_run
        assert int(result.flag_exceptional.sum()) == 120
        assert int(result.flag_small_d.sum()) == 0

    def test_offsets_stay_in_plane(self, preset_run):
        cfg, result, _ = preset_run
        omega = np.array(cfg.omega, dtype=float)
        assert np.max(np.abs(result.zeta @ omega)) <= 1e-9

    def test_field_relation_exact(self, preset_run):
        _, result, _ = preset_run
        r = np.linalg.norm(result.points, axis=1)
        expected = np.exp(1j * 4.0 * r) / r * result.f11
        np.testing.assert_allclose(result.psi1_rec, expected, rtol=1e-12)

    def test_bounded_strategy_marks_exceptional_nodes(self):
        res = reconstruct_grid(
            preset_field(), params_d(3), small_spec(20), BoundedOffset(alpha=-0.5, eps=0.1)
        )
        inside = res.flag_exceptional
        assert inside.any()
        # inside the exceptional set the bounded offset is undefined
        assert np.all(np.isnan(res.f11[inside].real))
        assert np.all(np.isfinite(res.f11[~inside].real))

    def test_max_zeta_skips_nodes_without_offset(self):
        res = reconstruct_grid(
            preset_field(), params_d(3), small_spec(20), BoundedOffset(alpha=-0.5, eps=0.1)
        )
        norms = np.linalg.norm(res.zeta, axis=1)
        assert np.isnan(norms).any()
        assert np.isfinite(res.max_zeta)
        assert res.max_zeta == norms[np.isfinite(norms)].max()

    def test_hybrid_combines_bounded_and_sqrt(self):
        field, p, spec = preset_field(), params_d(3), small_spec(20)
        bounded = BoundedOffset(alpha=-0.5, eps=0.1)
        sqrt = SqrtScaled(alpha=-0.5)
        hyb = reconstruct_grid(field, p, spec, HybridStrategy(bounded, sqrt))
        res_b = reconstruct_grid(field, p, spec, bounded)
        res_s = reconstruct_grid(field, p, spec, sqrt)
        inside = hyb.flag_exceptional  # |m| < eps, as flag_eps == eps
        assert inside.any() and (~inside).any()
        np.testing.assert_array_equal(hyb.zeta[~inside], res_b.zeta[~inside])
        np.testing.assert_array_equal(hyb.zeta[inside], res_s.zeta[inside])
        assert np.all(np.isfinite(hyb.f11))

    def test_csv_export(self, preset_run, tmp_path):
        _, result, psi1 = preset_run
        path = tmp_path / "recon.csv"
        recon_to_csv(result, psi1, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "i,j,x2,x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec,"
            "re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD"
        )
        assert len(lines) == 1 + 10000


class TestGridMatchesPointHelpers:
    """The grid and the public point helpers share each formula."""

    def test_sampled_preset_nodes(self, preset_run):
        cfg, result, _ = preset_run
        field, p, frame = cfg.radiation_field(), cfg.wave_params(), cfg.frame()
        nodes = list(range(0, len(result), 997))
        nodes += list(np.flatnonzero(result.flag_exceptional)[::17])
        assert result.flag_exceptional[nodes].any()
        for i in nodes:
            x = result.points[i]
            r = np.linalg.norm(x)
            zeta = zeta_sqrt(result.theta[i], p, frame, cfg.alpha, r, cfg.fallback_axis)
            np.testing.assert_allclose(zeta, result.zeta[i], rtol=1e-12, atol=1e-12)
            D = determinant(x, zeta, p)
            assert D == pytest.approx(result.D[i], rel=1e-12)
            y = x + zeta
            est = f11(scattered_signal(field, p, x), scattered_signal(field, p, y), x, y, p)
            assert est == pytest.approx(result.f11[i], rel=1e-9, abs=1e-12)

    def test_singular_center_node_of_odd_grid(self):
        p = params_d(3)
        spec = small_spec(21)
        res = reconstruct_grid(preset_field(), p, spec, SqrtScaled(alpha=-0.5))
        center = 10 * 21 + 10
        np.testing.assert_array_equal(res.points[center], 100.0 * E1)
        expected = zeta_sqrt(E1, p, spec.frame, -0.5, 100.0)
        np.testing.assert_allclose(res.zeta[center], expected, rtol=0, atol=1e-12)
        assert np.isfinite(res.f11[center])

    def test_refined_2d_nodes(self):
        field, p, spec = preset_field(2), params_d(2), small_spec(41, dim=2)
        strategy = BoundedOffset(alpha=-0.5, eps=0.1)
        res = reconstruct_grid(field, p, spec, strategy, refine2d=True)
        for i in np.flatnonzero(~res.flag_exceptional)[::5]:
            x = res.points[i]
            y = x + res.zeta[i]
            est = f11(scattered_signal(field, p, x), scattered_signal(field, p, y), x, y, p)
            refined = f11_refined_2d(est, x, y, p)
            assert refined == pytest.approx(res.f11[i], rel=1e-9, abs=1e-12)
