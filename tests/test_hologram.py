import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoplane.errors import OutOfPatchError
from holoplane.fields import PointSource, RadiationField, WaveParams
from holoplane.geometry import GridSpec, grid_coords, grid_points, make_frame
from holoplane.hologram import (
    Hologram,
    add_noise,
    bilinear_lookup,
    hologram_to_csv,
    hologram_to_pgm,
    intensity,
    intensity_at,
    sample_hologram,
    scattered_signal,
)


def params3():
    return WaveParams(kappa=4.0, k=np.array([4.0, 0.0, 0.0]))


def field3(c=1.0 + 0j, x0=(0.0, 2.5, 0.0)):
    return RadiationField(3, (PointSource(c=c, x0=np.array(x0)),))


def spec3(s=100.0, h=20.0, n=100):
    return GridSpec(frame=make_frame(np.array([1.0, 0.0, 0.0]), s), half_width=h, n=n)


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


class TestScatteredSignal:
    def test_forward_axis_value(self):
        f = field3(c=1.0 + 0j, x0=(0.0, 0.0, 0.0))
        a = scattered_signal(f, params3(), np.array([100.0, 0.0, 0.0]))
        assert a == pytest.approx(2.01)

    @given(st.floats(-18, 18), st.floats(-18, 18))
    @settings(max_examples=100)
    def test_definition_identity(self, u, v):
        f = field3()
        x = np.array([100.0, u, v])
        a = scattered_signal(f, params3(), x)
        r = np.linalg.norm(x)
        assert a == pytest.approx(r * (intensity(f, params3(), x) - 1.0), abs=1e-12)

    def test_bounded_on_preset_patch(self):
        f = field3()
        pts = grid_points(spec3())
        a = scattered_signal(f, params3(), pts)
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(a)) < 10.0


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


class TestIntensityAt:
    def test_modes_agree_at_nodes(self):
        f, p, spec = field3(), params3(), spec3(n=20)
        holo = sample_hologram(f, p, spec)
        pts = grid_points(spec)
        for idx in (0, 57, 399):
            ana = intensity_at(holo, pts[idx], mode="analytic", field=f, params=p)
            bil = intensity_at(holo, pts[idx], mode="bilinear")
            assert bil == pytest.approx(ana, abs=1e-12)

    def test_bilinear_on_constant_data(self):
        spec = spec3(n=10)
        holo = Hologram(spec=spec, params=params3(), values=np.full(100, 1.7))
        y = grid_points(spec)[0] + np.array([0.0, 1.3, 2.9])
        assert intensity_at(holo, y, mode="bilinear") == pytest.approx(1.7)

    def test_bilinear_exact_on_linear_data(self):
        spec = spec3(n=10)
        uv = grid_coords(spec)
        vals = 2.0 + 0.02 * uv[:, 0] - 0.0125 * uv[:, 1]
        holo = Hologram(spec=spec, params=params3(), values=vals)
        y = np.array([100.0, 3.7, -11.2])
        assert intensity_at(holo, y, mode="bilinear") == pytest.approx(
            2.0 + 0.02 * 3.7 - 0.0125 * (-11.2)
        )

    def test_outside_patch_rejected(self):
        spec = spec3(n=10)
        holo = Hologram(spec=spec, params=params3(), values=np.ones(100))
        with pytest.raises(OutOfPatchError):
            intensity_at(holo, np.array([100.0, 25.0, 0.0]), mode="bilinear")

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
                assert intensity_at(holo, y, mode="bilinear") == value
            else:
                with pytest.raises(OutOfPatchError):
                    intensity_at(holo, y, mode="bilinear")


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

    def test_pgm_layout(self, tmp_path):
        holo = sample_hologram(field3(), params3(), spec3(n=3))
        path = tmp_path / "holo.pgm"
        hologram_to_pgm(holo, str(path))
        blob = path.read_bytes()
        assert blob.startswith(b"P5")
        # last 9 bytes are the pixel payload
        pixels = blob[-9:]
        assert min(pixels) == 0 and max(pixels) == 255

    def test_export_deterministic(self, tmp_path):
        holo = sample_hologram(field3(), params3(), spec3(n=5))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        hologram_to_pgm(holo, str(p1))
        hologram_to_pgm(holo, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
