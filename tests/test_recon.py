import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holoplane import geometry, recon
from holoplane.errors import ExceptionalDirectionError, InfeasibleParametersError
from holoplane.fields import (
    PointSource,
    RadiationField,
    WaveParams,
    far_field,
    plane_wave,
)
from holoplane.geometry import GridSpec, grid_coords, grid_points, make_frame, point_on_plane
from holoplane.hologram import intensity_lookup, sample_hologram
from holoplane.metrics import rel_l2, slope_estimate
from holoplane.recon import (
    DET_FLOOR,
    BoundedOffset,
    HybridStrategy,
    SqrtScaled,
    beta_solve,
    determinant,
    determinant_phase_expansion,
    recon_to_csv,
    reconstruct_grid,
    reconstruct_points,
    zeta_bounded,
    zeta_sqrt,
)

from closed_form import two_point_f11

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
        # |kappa theta_par - k_par| is 0.4 exactly: eps = 0.4 still admits it
        np.testing.assert_array_equal(zeta_bounded(theta, p, frame, -0.5, 0.4), zeta)

    def test_singular_direction_rejected(self):
        frame = make_frame(E1, 100.0)
        with pytest.raises(ExceptionalDirectionError, match=r"= 0\.0 < eps = 0\.1$"):
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

    def test_no_real_root_raises(self):
        # On the singular direction |m| = 0, so the discriminant is
        # (2 kappa / r)(t2 - 1) alpha, negative once a non-unit zeta_hat
        # makes t2 > 1.
        k_par = np.array([0.0, 2.4, 0.0])
        theta_par = k_par / 4.0
        zeta_hat = np.array([0.0, 2.0, 0.0])  # t2 = 1.44
        with pytest.raises(InfeasibleParametersError, match="negative discriminant"):
            beta_solve(-0.5, 4.0, 100.0, theta_par, k_par, zeta_hat)


class TestZetaSqrt:
    def test_singular_direction_uses_fallback(self):
        frame = make_frame(E1, 100.0)
        zeta = zeta_sqrt(E1, params_d(3), frame, -0.5, 100.0)
        np.testing.assert_allclose(np.abs(zeta), [0.0, 5.0, 0.0], atol=1e-12)
        assert np.linalg.norm(zeta) == pytest.approx(5.0)

    def test_matches_bounded_far_from_plane(self):
        frame = make_frame(E1, 100.0)
        p = params_d(3)
        theta = unit([1.0, 0.3, -0.2])
        zb = zeta_bounded(theta, p, frame, -0.5, 0.1)
        zs = zeta_sqrt(theta, p, frame, -0.5, 1e9)
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


class TestInputChecks:
    """The offset and step-size routines reject bad parameters with a text
    that names the parameter."""

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_bounded_offset_eps(self, eps):
        with pytest.raises(ValueError, match=r"^eps must be positive$"):
            BoundedOffset(alpha=-0.5, eps=eps)

    def test_unknown_strategy(self):
        x = np.array([[100.0, 1.0, 2.0]])
        frame = make_frame(E1, 100.0)
        with pytest.raises(TypeError, match=r"^unknown strategy 'sqrt'$"):
            reconstruct_points(x, np.ones(1), None, params_d(3), frame, "sqrt")

    def test_zeta_bounded_alpha(self):
        theta = unit([1.0, 0.3, 0.0])
        with pytest.raises(ValueError, match=r"^alpha must be nonzero$"):
            zeta_bounded(theta, params_d(3), make_frame(E1, 100.0), 0.0, 0.1)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_beta_solve_alpha(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be negative$"):
            beta_solve(alpha, 4.0, 100.0, np.zeros(3), np.zeros(3),
                       np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_zeta_sqrt_alpha(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be negative$"):
            zeta_sqrt(E1, params_d(3), make_frame(E1, 100.0), alpha, 100.0)

    def test_zeta_sqrt_no_real_root(self):
        # theta_par = (0, 2, 0) is not on the unit sphere, so t2 = 4 and the
        # discriminant 64 + (8 / r) * 3 * alpha is negative for r = 0.1
        theta = np.array([1.0, 2.0, 0.0])
        with pytest.raises(InfeasibleParametersError,
                           match=r"^negative discriminant in the step-size quadratic$"):
            zeta_sqrt(theta, params_d(3), make_frame(E1, 100.0), -0.5, 0.1)


@st.composite
def open_half_sphere(draw):
    """Unit vectors with (theta, e1) > 0."""
    v = np.array([draw(st.floats(1e-3, 1.0)),
                  draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    return v / np.linalg.norm(v)


class TestZetaSqrtFeasible:
    """For alpha < 0 the step-size quadratic always has a real root: the unit
    zeta_hat gives t2 <= |theta_par|^2 < 1, so (t2 - 1) alpha > 0 and the
    discriminant is at least |m|^2.  That is why the kernel's beta is never
    NaN."""

    @given(theta=open_half_sphere(), k_dir=open_half_sphere(),
           alpha=st.floats(-10.0, -1e-6), r=st.floats(1.0, 1e6))
    def test_finite_on_open_half_sphere(self, theta, k_dir, alpha, r):
        frame = make_frame(E1, 100.0)
        p = WaveParams(kappa=4.0, k=4.0 * k_dir)
        zeta = zeta_sqrt(theta, p, frame, alpha, r)
        assert np.all(np.isfinite(zeta))
        # the singular direction, where the fallback axis is used
        assert np.all(np.isfinite(zeta_sqrt(k_dir, p, frame, alpha, r)))


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


def constant_farfield_lookup(f1c, p):
    """Intensity lookup of the algebra fixture psi = e^{i k r} r^{-(d-1)/2} f1c
    (a constant "far field" with no remainder terms): (m, d) points to
    (intensity, inside)."""
    half = (p.dim - 1) / 2.0

    def lookup(pts):
        r = np.linalg.norm(pts, axis=-1)
        psi = np.exp(1j * p.kappa * r) * r ** (-half) * f1c
        return np.abs(plane_wave(pts, p) + psi) ** 2, np.ones(len(pts), dtype=bool)

    return lookup


def bounded_point_run(x, lookup, p, frame, refine2d=False):
    """`reconstruct_points` at the one plane point x with the bounded
    offset (alpha = -0.5, eps = 0.1), reading the intensity at x and y
    through `lookup`.  Returns y = x + zeta, D and f11."""
    x = x[None]
    zeta, D, est, _, _ = reconstruct_points(
        x, lookup(x)[0], lookup, p, frame, BoundedOffset(alpha=-0.5, eps=0.1), refine2d)
    return x[0] + zeta[0], D[0], est[0]


class TestF11:
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
            y, D, est = bounded_point_run(x, constant_farfield_lookup(f1c, p), p, frame)
            np.testing.assert_allclose(y - x, zeta_bounded(theta, p, frame, -0.5, 0.1),
                                       rtol=1e-12, atol=1e-12)
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
        _, _, est = bounded_point_run(x, intensity_lookup(field, p), p, frame)
        exact = far_field(field, p.kappa, theta)
        assert abs(est - exact) < 0.1 * abs(exact)


class TestF11Refined:
    def test_correction_magnitude_bound(self):
        p = params_d(2)
        frame = make_frame(np.array([1.0, 0.0]), 100.0)
        x = point_on_plane(unit([1.0, 0.3]), frame)
        lookup = constant_farfield_lookup(0.7 - 0.4j, p)
        _, D, base = bounded_point_run(x, lookup, p, frame)
        _, _, refined = bounded_point_run(x, lookup, p, frame, refine2d=True)
        bound = 2 * abs(base) ** 2 / (abs(D) * np.sqrt(np.linalg.norm(x)))
        assert 0 < abs(refined - base) <= bound + 1e-12

    def test_improves_2d_point_source(self):
        p = params_d(2)
        field = RadiationField(2, (PointSource(3.0 + 0j, np.array([0.0, 0.5])),))
        theta = unit([1.0, 0.1])
        exact = far_field(field, p.kappa, theta)
        frame = make_frame(np.array([1.0, 0.0]), 800.0)
        x = point_on_plane(theta, frame)
        lookup = intensity_lookup(field, p)
        _, _, base = bounded_point_run(x, lookup, p, frame)
        _, _, refined = bounded_point_run(x, lookup, p, frame, refine2d=True)
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
        _, result = preset_run
        assert rel_l2(result.psi1_rec, result.psi1) == pytest.approx(0.116273, abs=1e-4)

    def test_preset_max_offset(self, preset_run):
        _, result = preset_run
        assert result.max_zeta == pytest.approx(4.722484, abs=1e-4)
        assert result.max_zeta < 15.0

    def test_preset_flags(self, preset_run):
        _, result = preset_run
        assert int(result.flag_exceptional.sum()) == 120
        assert int((np.abs(result.D) <= DET_FLOOR).sum()) == 0

    def test_offsets_stay_in_plane(self, preset_run):
        cfg, result = preset_run
        omega = np.array(cfg.omega, dtype=float)
        assert np.max(np.abs(result.zeta @ omega)) <= 1e-9

    def test_field_relation_exact(self, preset_run):
        _, result = preset_run
        r = np.linalg.norm(grid_points(result.spec), axis=1)
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
        _, result = preset_run
        path = tmp_path / "recon.csv"
        recon_to_csv([result], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "i,j,x2,x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec,"
            "re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD"
        )
        assert len(lines) == 1 + 10000


def recon_csv_reference(result):
    """recon.csv body written one f-string row at a time."""
    spec = result.spec
    uv = grid_coords(spec)
    zn = np.linalg.norm(result.zeta, axis=1)
    rows = []
    for idx in range(spec.size):
        ex, rec, f = result.psi1[idx], result.psi1_rec[idx], result.f11[idx]
        tail = (
            f"{ex.real:.10g},{ex.imag:.10g},{rec.real:.10g},{rec.imag:.10g},"
            f"{f.real:.10g},{f.imag:.10g},{abs(result.D[idx]):.10g},"
            f"{zn[idx]:.10g},{int(result.flag_exceptional[idx])},"
            f"{int(abs(result.D[idx]) <= DET_FLOOR)}\n"
        )
        if spec.frame.dim == 3:
            i, j = divmod(idx, spec.n)
            rows.append(f"{i},{j},{uv[idx, 0]:.10g},{uv[idx, 1]:.10g},{tail}")
        else:
            rows.append(f"{idx},{uv[idx, 0]:.10g},{tail}")
    return "".join(rows)


class TestCsvBytes:
    """The chunked writer gives the bytes of a per-row f-string writer."""

    def test_small_d_flag_includes_the_floor(self, monkeypatch, tmp_path):
        # recon.csv flags a node whose |D| equals DET_FLOOR exactly
        field, p, spec = preset_field(3), params_d(3), small_spec(9)
        res = reconstruct_grid(field, p, spec, SqrtScaled(-0.5))
        floor = np.abs(res.D).min()
        monkeypatch.setattr(recon, "DET_FLOOR", floor)
        path = tmp_path / "recon.csv"
        recon_to_csv([res], str(path))
        flags = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        assert "1" in flags
        assert flags == ["1" if d <= floor else "0" for d in np.abs(res.D)]

    @pytest.mark.parametrize("dim, n, header", [
        (3, 21, "i,j,x2,x3,"),
        (2, 301, "i,x2,"),
    ])
    def test_bilinear_bounded_run(self, tmp_path, chunk_budget, dim, n, header):
        steps = chunk_budget(64 * 14 * 24)
        field, p, spec = preset_field(dim), params_d(dim), small_spec(n, dim)
        holo = sample_hologram(field, p, spec)
        res = reconstruct_grid(field, p, spec, BoundedOffset(alpha=-0.5, eps=0.1),
                               hologram=holo)
        # rows past a chunk boundary, a partial last chunk, NaN rows both
        # out of the patch and in the exceptional set, and both flags
        nodes = spec.size
        nan_rows = np.isnan(res.f11)
        assert (nan_rows & ~res.flag_exceptional).any()
        assert res.flag_exceptional.any() and (np.abs(res.D) <= DET_FLOOR).any()
        path = tmp_path / "recon.csv"
        recon_to_csv([res], str(path))
        assert nodes > steps[-1] and nodes % steps[-1]
        assert path.read_text() == (
            header + "re_psi1,im_psi1,re_psi1rec,im_psi1rec,"
            "re_f11,im_f11,abs_D,zeta_norm,flag_exceptional,flag_smallD\n"
            + recon_csv_reference(res)
        )


class TestGridMatchesClosedForm:
    """The grid agrees with the public offset helpers and with the estimator
    written out in closed form (`closed_form.two_point_f11`), which shares
    no formula with the kernel."""

    def test_sampled_preset_nodes(self, preset_run):
        cfg, result = preset_run
        field, p, frame = cfg.radiation_field(), cfg.wave_params(), cfg.frame()
        points = grid_points(result.spec)
        nodes = list(range(0, result.spec.size, 997))
        nodes += list(np.flatnonzero(result.flag_exceptional)[::17])
        assert result.flag_exceptional[nodes].any()
        for i in nodes:
            x = points[i]
            r = np.linalg.norm(x)
            zeta = zeta_sqrt(x / r, p, frame, cfg.alpha, r)
            np.testing.assert_allclose(zeta, result.zeta[i], rtol=1e-12, atol=1e-12)
            D = determinant(x, zeta, p)
            assert D == pytest.approx(result.D[i], rel=1e-12)
        # the estimator at every node, on the grid's own offsets
        est = two_point_f11(field, p, points, points + result.zeta)
        np.testing.assert_allclose(est, result.f11, rtol=1e-9, atol=1e-12)

    def test_node_blocks_leave_the_grid_unchanged(self, monkeypatch):
        # a hybrid run in one block and in 37-node blocks, read bilinearly
        # from the hologram (NaN rows included) or from the forward model,
        # where the kernel forms each block's node intensity from psi1
        field, p, spec = preset_field(), params_d(3), small_spec(21)
        strategy = HybridStrategy(BoundedOffset(alpha=-0.5, eps=0.1), SqrtScaled(alpha=-0.5))
        assert spec.size <= geometry.NODE_BLOCK and spec.size % 37
        for holo in (sample_hologram(field, p, spec), None):
            monkeypatch.undo()
            whole = reconstruct_grid(field, p, spec, strategy, hologram=holo)
            assert np.isnan(whole.f11).any() == (holo is not None)
            monkeypatch.setattr(geometry, "NODE_BLOCK", 37)
            blocks = reconstruct_grid(field, p, spec, strategy, hologram=holo)
            assert blocks.max_zeta == whole.max_zeta
            for name in ("psi0", "psi1", "intensity", "zeta", "D", "f11", "psi1_rec",
                         "flag_exceptional"):
                np.testing.assert_array_equal(getattr(blocks, name), getattr(whole, name))
            np.testing.assert_array_equal(np.abs(blocks.D) <= DET_FLOOR,
                                          np.abs(whole.D) <= DET_FLOOR)

    def test_node_range_is_a_slice_of_the_grid(self):
        # a range across a block boundary, read bilinearly, is the same
        # slice of the whole-grid record; the true intensity is formed once
        field, p, spec = preset_field(), params_d(3), small_spec(101)
        strategy = SqrtScaled(alpha=-0.5)
        holo = sample_hologram(field, p, spec)
        whole = reconstruct_grid(field, p, spec, strategy, hologram=holo)
        rows = slice(geometry.NODE_BLOCK - 7, geometry.NODE_BLOCK + 30)
        part = reconstruct_grid(field, p, spec, strategy, hologram=holo, rows=rows)
        assert (part.rows, whole.rows) == (rows, slice(0, spec.size))
        for f in dataclasses.fields(part)[2:]:
            np.testing.assert_array_equal(getattr(part, f.name), getattr(whole, f.name)[rows])
        np.testing.assert_array_equal(whole.intensity, holo.values)

    def test_record_splits_into_its_node_blocks(self):
        # a range that starts 7 nodes before a block boundary: each block is
        # the record of its own node range, so a view whose offset does not
        # count from the range's first node shows
        field, p, spec = preset_field(), params_d(3), small_spec(101)
        strategy = SqrtScaled(alpha=-0.5)
        holo = sample_hologram(field, p, spec)
        rows = slice(geometry.NODE_BLOCK - 7, geometry.NODE_BLOCK + 30)
        part = reconstruct_grid(field, p, spec, strategy, hologram=holo, rows=rows)
        blocks = part.blocks()
        assert [b.rows for b in blocks] == geometry.node_blocks(rows.stop, rows.start)
        assert len(blocks) == 2
        for b in blocks:
            own = reconstruct_grid(field, p, spec, strategy, hologram=holo, rows=b.rows)
            assert len(own.blocks()) == 1 and own.blocks()[0] is own
            for f in dataclasses.fields(b)[2:]:
                np.testing.assert_array_equal(getattr(b, f.name), getattr(own, f.name))

    @pytest.mark.parametrize("rows", [slice(5, 5), slice(9, 3), slice(256, None)])
    def test_empty_node_range_rejected(self, rows):
        # the n = 16 grid has 256 nodes; a range with none makes no record
        field, p, spec = preset_field(), params_d(3), small_spec(16)
        start, stop, _ = rows.indices(spec.size)
        with pytest.raises(ValueError, match=f"^node range {start}:{stop} holds no node$"):
            reconstruct_grid(field, p, spec, SqrtScaled(alpha=-0.5), rows=rows)

    def test_singular_center_node_of_odd_grid(self):
        p = params_d(3)
        spec = small_spec(21)
        res = reconstruct_grid(preset_field(), p, spec, SqrtScaled(alpha=-0.5))
        center = 10 * 21 + 10
        np.testing.assert_array_equal(grid_points(spec)[center], 100.0 * E1)
        zeta = res.zeta[center]
        expected = zeta_sqrt(E1, p, spec.frame, -0.5, 100.0)
        np.testing.assert_allclose(zeta, expected, rtol=0, atol=1e-12)
        # where any direction would do, the offset runs along the first basis vector
        assert abs(zeta @ spec.frame.basis[0]) == pytest.approx(np.linalg.norm(zeta))
        assert np.isfinite(res.f11[center])

    def test_refined_2d_nodes(self):
        field, p, spec = preset_field(2), params_d(2), small_spec(41, dim=2)
        strategy = BoundedOffset(alpha=-0.5, eps=0.1)
        res = reconstruct_grid(field, p, spec, strategy, refine2d=True)
        ok = ~res.flag_exceptional
        x = grid_points(spec)[ok]
        refined = two_point_f11(field, p, x, x + res.zeta[ok], refine2d=True)
        np.testing.assert_allclose(refined, res.f11[ok], rtol=1e-9, atol=1e-12)
