import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoplane.errors import OutOfPatchError
from holoplane.fields import PointSource, RadiationField, WaveParams
from holoplane.geometry import GridSpec, grid_coords, grid_points, make_frame, node_blocks
from holoplane.hologram import (
    Hologram,
    add_noise,
    bilinear_lookup,
    hologram_to_csv,
    hologram_to_pgm,
    intensity,
    intensity_at,
    sample_hologram,
)


def params3():
    return WaveParams(kappa=4.0, k=np.array([4.0, 0.0, 0.0]))


def field3(c=1.0 + 0j, x0=(0.0, 2.5, 0.0)):
    return RadiationField(3, (PointSource(c=c, x0=np.array(x0)),))


def spec3(s=100.0, h=20.0, n=100):
    return GridSpec(frame=make_frame(np.array([1.0, 0.0, 0.0]), s), half_width=h, n=n)


def reference_d(dim, n, omega=None):
    """The reference experiment's field, wave and grid in `dim` dimensions,
    n nodes per patch side, on the plane with normal `omega` (default e1)."""
    x0 = np.zeros(dim)
    x0[1] = 2.5
    k = np.zeros(dim)
    k[0] = 4.0
    field = RadiationField(dim, (PointSource(c=1.0 + 0j, x0=x0),))
    omega = np.eye(dim)[0] if omega is None else np.array(omega)
    spec = GridSpec(frame=make_frame(omega, 100.0), half_width=20.0, n=n)
    return field, WaveParams(4.0, k), spec


def sampled_d(dim, n):
    """The reference hologram in `dim` dimensions, n nodes per patch side."""
    return sample_hologram(*reference_d(dim, n))


class TestIntensity:
    def test_no_scatterer_is_unity(self):
        f = field3(c=0.0 + 0j)
        assert intensity(f, params3(), np.array([100.0, 3.0, -7.0])) == pytest.approx(
            1.0
        )

    def test_forward_axis_alignment(self):
        # source at the origin: the two phases line up on the axis
        f = field3(c=1.0 + 0j, x0=(0.0, 0.0, 0.0))
        v = intensity(f, params3(), np.array([100.0, 0.0, 0.0]))
        assert v == pytest.approx(1.0201)

    @given(st.floats(-15, 15), st.floats(-15, 15))
    @settings(max_examples=100)
    def test_nonnegative(self, u, v):
        f = field3()
        x = np.array([100.0, u, v])
        assert intensity(f, params3(), x) >= 0.0


class TestSampleHologram:
    def test_no_scatterer_all_ones(self):
        holo = sample_hologram(field3(c=0.0 + 0j), params3(), spec3(n=2))
        np.testing.assert_allclose(holo.values, 1.0)

    def test_preset_positive(self):
        holo = sample_hologram(field3(), params3(), spec3())
        assert holo.values.shape == (10000,)
        assert holo.values.min() > 0.0

    def test_deterministic(self):
        a = sample_hologram(field3(), params3(), spec3(n=25))
        b = sample_hologram(field3(), params3(), spec3(n=25))
        np.testing.assert_array_equal(a.values, b.values)

    def test_values_are_immutable(self):
        holo = sample_hologram(field3(), params3(), spec3(n=4))
        with pytest.raises(ValueError):
            holo.values[0] = 2.0
        with pytest.raises(ValueError, match="values length must match grid size"):
            Hologram(holo.spec, holo.values[:-1])
        with pytest.raises(ValueError, match="intensity values must be nonnegative"):
            Hologram(holo.spec, holo.values - 2.0)


class TestIntensityAt:
    def test_modes_agree_at_nodes(self):
        f, p, spec = field3(), params3(), spec3(n=20)
        holo = sample_hologram(f, p, spec)
        pts = grid_points(spec)
        for idx in (0, 57, 399):
            ana = intensity_at(None, pts[idx], field=f, params=p)
            bil = intensity_at(holo, pts[idx])
            assert bil == pytest.approx(ana, abs=1e-12)

    def test_bilinear_on_constant_data(self):
        spec = spec3(n=10)
        holo = Hologram(spec=spec, values=np.full(100, 1.7))
        y = grid_points(spec)[0] + np.array([0.0, 1.3, 2.9])
        assert intensity_at(holo, y) == pytest.approx(1.7)

    def test_bilinear_exact_on_linear_data(self):
        spec = spec3(n=10)
        uv = grid_coords(spec)
        vals = 2.0 + 0.02 * uv[:, 0] - 0.0125 * uv[:, 1]
        holo = Hologram(spec=spec, values=vals)
        y = np.array([100.0, 3.7, -11.2])
        assert intensity_at(holo, y) == pytest.approx(
            2.0 + 0.02 * 3.7 - 0.0125 * (-11.2)
        )

    def test_outside_patch_rejected(self):
        spec = spec3(n=10)
        holo = Hologram(spec=spec, values=np.ones(100))
        with pytest.raises(OutOfPatchError):
            intensity_at(holo, np.array([100.0, 25.0, 0.0]))

    def test_analytic_needs_field(self):
        with pytest.raises(
                ValueError,
                match="^the intensity needs a sampled hologram or the forward model$"):
            intensity_at(None, np.array([100.0, 0.0, 0.0]), params=params3())

    def test_hologram_is_read_when_given(self):
        # the sample, not the forward model, decides the value
        spec = spec3(n=10)
        holo = Hologram(spec=spec, values=np.full(100, 1.7))
        y = grid_points(spec)[3]
        assert intensity_at(holo, y, field=field3(), params=params3()) == 1.7

    @pytest.mark.parametrize("dim", [2, 3])
    def test_point_lookup_matches_batch(self, dim):
        p = WaveParams(kappa=4.0, k=4.0 * np.eye(dim)[0])
        x0 = np.zeros(dim)
        x0[1] = 2.5
        f = RadiationField(dim, (PointSource(c=1.0 + 0j, x0=x0),))
        spec = GridSpec(frame=make_frame(np.eye(dim)[0], 100.0), half_width=20.0, n=30)
        holo = sample_hologram(f, p, spec)
        rng = np.random.default_rng(1)
        uv = rng.uniform(-24.0, 24.0, size=(200, dim - 1))
        ys = 100.0 * np.eye(dim)[0] + uv @ spec.frame.basis
        values, inside = bilinear_lookup(holo, ys)
        assert inside.any() and (~inside).any()
        np.testing.assert_array_equal(inside, np.all(np.abs(uv) <= 20.0, axis=1))
        assert np.all(np.isnan(values[~inside]))
        for y, value, ok in zip(ys, values, inside):
            if ok:
                assert intensity_at(holo, y) == value
            else:
                with pytest.raises(OutOfPatchError):
                    intensity_at(holo, y)


    @staticmethod
    def searchsorted_lookup(holo, y):
        """Bilinear lookup with the cell found by `np.searchsorted`."""
        spec = holo.spec
        uv = (y - spec.frame.s * spec.frame.omega) @ spec.frame.basis.T
        inside = ~np.any(np.abs(uv) > spec.half_width * (1 + 1e-12), axis=-1)
        uv = np.clip(uv, -spec.half_width, spec.half_width)
        c = spec.coords
        i = np.clip(np.searchsorted(c, uv) - 1, 0, spec.n - 2)
        t = (uv - c[i]) / (c[i + 1] - c[i])
        grid = holo.values.reshape((spec.n,) * uv.shape[-1])
        if uv.shape[-1] == 1:
            value = (1 - t[:, 0]) * grid[i[:, 0]] + t[:, 0] * grid[i[:, 0] + 1]
        else:
            (i0, i1), (t0, t1) = i.T, t.T
            value = ((1 - t0) * (1 - t1) * grid[i0, i1] + t0 * (1 - t1) * grid[i0 + 1, i1]
                     + (1 - t0) * t1 * grid[i0, i1 + 1] + t0 * t1 * grid[i0 + 1, i1 + 1])
        return np.where(inside, value, np.nan)

    @pytest.mark.parametrize("dim, n", [(2, 30), (2, 301), (3, 30), (3, 37)])
    def test_arithmetic_cell_matches_searchsorted(self, dim, n):
        p = WaveParams(kappa=4.0, k=4.0 * np.eye(dim)[0])
        x0 = np.zeros(dim)
        x0[1] = 2.5
        f = RadiationField(dim, (PointSource(c=1.0 + 0j, x0=x0),))
        spec = GridSpec(frame=make_frame(np.eye(dim)[0], 100.0), half_width=20.0, n=n)
        holo = sample_hologram(f, p, spec)

        def plane(uv):
            return 100.0 * np.eye(dim)[0] + uv @ spec.frame.basis

        rng = np.random.default_rng(7)
        # exact nodes, and points on the patch edges
        edge = rng.uniform(-20.0, 20.0, size=(50, dim - 1))
        edge[:25, 0] = rng.choice([-20.0, 20.0], size=25)
        edge[25:, -1] = rng.choice([-20.0, 20.0], size=25)
        exact = np.concatenate([grid_points(spec), plane(edge)])
        values, inside = bilinear_lookup(holo, exact)
        assert inside.all()
        np.testing.assert_array_equal(values, self.searchsorted_lookup(holo, exact))
        np.testing.assert_array_equal(values[:spec.size], holo.values)
        ys = plane(rng.uniform(-21.0, 21.0, size=(2000, dim - 1)))
        values, inside = bilinear_lookup(holo, ys)
        assert (~inside).any()
        # the same corner products summed in the same order, first axis
        # fastest, so the same bits
        np.testing.assert_array_equal(values, self.searchsorted_lookup(holo, ys))


class TestAddNoise:
    def test_zero_level_is_identity(self):
        holo = sample_hologram(field3(), params3(), spec3(n=8))
        noisy = add_noise(holo, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.values, holo.values)

    def test_seed_reproducible(self):
        holo = sample_hologram(field3(), params3(), spec3(n=8))
        a = add_noise(holo, 0.05, seed=42)
        b = add_noise(holo, 0.05, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_level_bounds_relative_change(self):
        holo = sample_hologram(field3(), params3(), spec3(n=8))
        noisy = add_noise(holo, 0.01, seed=0)
        rel = np.abs(noisy.values - holo.values) / holo.values
        assert np.max(rel) <= 0.01 + 1e-12
        with pytest.raises(ValueError, match="relative_level must be nonnegative"):
            add_noise(holo, -0.01, seed=0)


class TestExport:
    def test_csv_layout(self, tmp_path):
        holo = sample_hologram(field3(), params3(), spec3(n=3))
        path = tmp_path / "holo.csv"
        hologram_to_csv(holo, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,x2,x3,I"
        assert len(lines) == 1 + 9
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"]
        assert float(first[2]) == -20.0

    @pytest.mark.parametrize("dim, n", [(3, 23), (2, 301)])
    def test_csv_bytes_match_per_row_writer(self, tmp_path, chunk_budget, dim, n):
        steps = chunk_budget(64 * 5 * 24)
        holo = add_noise(sampled_d(dim, n), 0.01, 2)
        spec = holo.spec
        uv = grid_coords(spec)
        if dim == 3:
            expected = "i,j,x2,x3,I\n" + "".join(
                f"{i},{j},{uv[idx, 0]:.10g},{uv[idx, 1]:.10g},{val:.10g}\n"
                for idx, val in enumerate(holo.values)
                for i, j in [divmod(idx, n)]
            )
        else:
            expected = "i,x2,I\n" + "".join(
                f"{idx},{uv[idx, 0]:.10g},{val:.10g}\n"
                for idx, val in enumerate(holo.values)
            )
        path = tmp_path / "holo.csv"
        hologram_to_csv(holo, str(path))
        assert holo.values.size > steps[-1] and holo.values.size % steps[-1]
        assert path.read_text() == expected

    @pytest.mark.parametrize("dim", [3, 2])
    def test_pgm_layout(self, tmp_path, dim):
        n = 3
        holo = sampled_d(dim, n)
        path = tmp_path / "holo.pgm"
        hologram_to_pgm(holo, str(path))
        blob = path.read_bytes()
        # a d=2 line of n nodes is an n x 1 image
        header = f"P5\n{n} {n if dim == 3 else 1}\n255\n".encode("ascii")
        assert blob.startswith(header)
        pixels = blob[len(header):]
        assert len(pixels) == n ** (dim - 1)
        assert min(pixels) == 0 and max(pixels) == 255

    def test_export_deterministic(self, tmp_path):
        holo = sample_hologram(field3(), params3(), spec3(n=5))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        hologram_to_pgm(holo, str(p1))
        hologram_to_pgm(holo, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestBlockWalk:
    """Sampling, noise and the PGM writer walk the node blocks, and give the
    bits of the whole-grid formulas written out here."""

    @pytest.fixture(scope="class", params=[(3, 101, None), (3, 101, (0.8, 0.6, 0.0)),
                                           (2, 9001, None)],
                    ids=["3d-n101", "3d-tilted-n101", "2d-n9001"])
    def case(self, request):
        field, params, spec = reference_d(*request.param)
        assert len(node_blocks(spec.size)) == 3
        return field, params, spec

    def test_sample_hologram_matches_whole_grid(self, case):
        field, params, spec = case
        whole = intensity(field, params, grid_points(spec))
        assert sample_hologram(field, params, spec).values.tobytes() == whole.tobytes()

    def test_add_noise_matches_whole_grid(self, case):
        holo = sample_hologram(*case)
        v, level, seed = holo.values, 0.01, 5
        whole = np.maximum(
            v * (1 + level * np.random.default_rng(seed).uniform(-1, 1, v.shape)), 0)
        assert add_noise(holo, level, seed).values.tobytes() == whole.tobytes()

    def test_pgm_matches_whole_grid(self, case, tmp_path):
        holo = sample_hologram(*case)
        v = holo.values
        lo, hi = float(v.min()), float(v.max())
        image = np.round((v - lo) * (255.0 / (hi - lo))).astype(np.uint8)
        h, w = ((1,) + holo.spec.shape)[-2:]
        path = tmp_path / "holo.pgm"
        hologram_to_pgm(holo, str(path))
        assert path.read_bytes() == f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes()
