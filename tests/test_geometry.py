import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoplane.errors import OutOfHalfspaceError
from holoplane.geometry import (
    GridSpec,
    grid_coords,
    grid_points,
    make_frame,
    point_on_plane,
    row_norm,
)

SQ2 = np.sqrt(2.0)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@st.composite
def half_sphere_directions(draw, dim=3):
    """Unit vectors with a strictly positive first component."""
    comps = [draw(st.floats(-1, 1)) for _ in range(dim)]
    v = np.array(comps)
    n = np.linalg.norm(v)
    if n < 1e-3 or abs(v[0]) / n < 1e-2:
        v = np.zeros(dim)
        v[0] = 1.0
        return v
    v = v / n
    if v[0] < 0:
        v = -v
    return v


class TestMakeFrame:
    def test_axis_aligned_omega(self):
        fr = make_frame(np.array([1.0, 0.0, 0.0]), 100.0)
        assert fr.s == 100.0
        np.testing.assert_allclose(fr.basis, [[0, 1, 0], [0, 0, 1]])

    def test_third_axis_omega(self):
        fr = make_frame(np.array([0.0, 0.0, 1.0]), 1.0)
        np.testing.assert_allclose(fr.basis, [[1, 0, 0], [0, 1, 0]])

    def test_diagonal_omega(self):
        fr = make_frame(unit([1.0, 1.0, 0.0]), 5.0)
        np.testing.assert_allclose(
            fr.basis, [[1 / SQ2, -1 / SQ2, 0], [0, 0, 1]], atol=1e-12
        )

    def test_zero_omega_rejected(self):
        with pytest.raises(ValueError):
            make_frame(np.zeros(3), 1.0)

    def test_one_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"^dimension must be at least 2$"):
            make_frame(np.array([1.0]), 1.0)

    def test_near_unit_omega_normalised(self):
        # |omega| is off 1 by 5e-10, inside the unit tolerance: omega is
        # divided by its norm, which gives 1 exactly
        fr = make_frame(np.array([1 + 5e-10, 0.0, 0.0]), 100.0)
        assert fr.omega.tolist() == [1.0, 0.0, 0.0]

    @given(half_sphere_directions())
    # near the first axis one Gram-Schmidt pass leaves (omega, b2) = 1.6e-8
    @example(np.array([0.999999998, 6.10351561e-05, 9.99999998e-10]))
    def test_frame_is_orthonormal(self, omega):
        fr = make_frame(omega, 1.0)
        rows = np.vstack([fr.omega, fr.basis])
        np.testing.assert_allclose(rows @ rows.T, np.eye(3), atol=1e-9)


class TestPointOnPlane:
    def test_normal_direction(self):
        fr = make_frame(np.array([1.0, 0.0, 0.0]), 100.0)
        np.testing.assert_allclose(
            point_on_plane(np.array([1.0, 0, 0]), fr), [100, 0, 0]
        )

    def test_oblique_direction(self):
        fr = make_frame(np.array([1.0, 0.0, 0.0]), 100.0)
        np.testing.assert_allclose(
            point_on_plane(unit([1.0, 1.0, 0.0]), fr), [100, 100, 0], atol=1e-9
        )

    def test_tangent_direction_rejected(self):
        fr = make_frame(np.array([1.0, 0.0, 0.0]), 100.0)
        with pytest.raises(OutOfHalfspaceError, match=r"^\(theta, omega\) = 0\.0 <= 0"):
            point_on_plane(np.array([0.0, 1.0, 0.0]), fr)

    @given(half_sphere_directions(), st.floats(0.1, 1e3))
    @settings(max_examples=200)
    def test_lands_on_plane_along_theta(self, theta, s):
        fr = make_frame(np.array([1.0, 0.0, 0.0]), s)
        if np.dot(theta, fr.omega) <= 1e-3:
            return
        x = point_on_plane(theta, fr)
        assert abs(np.dot(x, fr.omega) - s) <= 1e-9 * np.linalg.norm(x) + 1e-9
        np.testing.assert_allclose(x / np.linalg.norm(x), theta, atol=1e-12)


class TestGrid:
    def test_two_by_two_corners(self):
        fr = make_frame(np.array([1.0, 0.0, 0.0]), 100.0)
        spec = GridSpec(frame=fr, half_width=20.0, n=2)
        uv = grid_coords(spec)
        assert sorted(map(tuple, uv)) == [
            (-20, -20),
            (-20, 20),
            (20, -20),
            (20, 20),
        ]

    def test_preset_size(self):
        fr = make_frame(np.array([1.0, 0.0, 0.0]), 100.0)
        spec = GridSpec(frame=fr, half_width=20.0, n=100)
        assert spec.size == 10000
        assert grid_points(spec).shape == (10000, 3)

    def test_2d_three_nodes(self):
        fr = make_frame(np.array([1.0, 0.0]), 10.0)
        spec = GridSpec(frame=fr, half_width=1.0, n=3)
        np.testing.assert_allclose(grid_coords(spec)[:, 0], [-1, 0, 1])

    @pytest.mark.parametrize("dim, rows", [
        (3, slice(3, 17)),  # starts in row 0, stops in row 2
        (3, slice(12, 13)),
        (3, slice(None)),
        (2, slice(2, 5)),
    ])
    def test_node_axes_match_divmod(self, dim, rows):
        spec = GridSpec(frame=make_frame(np.eye(dim)[0], 100.0), half_width=20.0, n=7)
        row, col = np.divmod(np.arange(spec.size)[rows], spec.n)
        want = (row, col) if dim == 3 else (col,)
        got = spec.node_axes(rows)
        assert spec.shape == (7,) * (dim - 1) and len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grid_coords_match_meshgrid(self, dim):
        spec = GridSpec(frame=make_frame(np.eye(dim)[0], 100.0), half_width=20.0, n=6)
        mesh = np.meshgrid(*[spec.coords] * (dim - 1), indexing="ij")
        np.testing.assert_array_equal(grid_coords(spec),
                                      np.stack([m.ravel() for m in mesh], axis=-1))

    def test_deterministic(self):
        fr = make_frame(np.array([1.0, 0.0, 0.0]), 100.0)
        spec = GridSpec(frame=fr, half_width=20.0, n=17)
        np.testing.assert_array_equal(grid_points(spec), grid_points(spec))

    def test_nodes_lie_on_plane(self):
        omega = unit([2.0, 1.0, -1.0])
        fr = make_frame(omega, 37.5)
        spec = GridSpec(frame=fr, half_width=5.0, n=9)
        pts = grid_points(spec)
        np.testing.assert_allclose(pts @ omega, 37.5, atol=1e-9)


class TestRowNorm:
    """`row_norm` has the bits of `np.linalg.norm(x, axis=-1)`."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_linalg_norm(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((3000, d)) * 10.0 ** rng.integers(-150, 151, (3000, d))
        x[::11, d - 1] = np.nan
        x[1::13, 0] = -np.inf
        x[:4] = [[1e150] * d, [-1e-150] * d, [0.0] * d, [1e155] * d]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            expected = np.linalg.norm(x, axis=-1)
            got = row_norm(x)
            shifted = np.linalg.norm(x - x[7], axis=-1)
            got_shifted = row_norm(x, x[7])
        assert got.tobytes() == expected.tobytes()
        assert got_shifted.tobytes() == shifted.tobytes()

    def test_one_point(self):
        v = np.array([3.0, -4.0, 12.0])
        assert row_norm(v) == np.linalg.norm(v, axis=-1) == 13.0
