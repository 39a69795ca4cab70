import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoplane.cli import _reconstruct, compute_metrics
from holoplane.config import parse_config
from holoplane.errors import UndefinedDenominatorError
from holoplane.geometry import (NODE_BLOCK, GridSpec, grid_coords, grid_points, make_frame,
                                node_blocks)
from holoplane.metrics import (Scores, box_axis, discrepancy, in_box, l2_ratio, l2_sums,
                               l2_terms, rel_l2, slope_estimate)


def spec3(n=10, h=20.0):
    return GridSpec(
        frame=make_frame(np.array([1.0, 0.0, 0.0]), 100.0), half_width=h, n=n
    )


class TestRegionMasks:
    """D is the box of `box_axis`, and `in_box` gives its nodes of a node
    range; G\\D is the rest of the grid."""

    def test_partition_counts(self):
        # 10 axis values per axis lie in |u| < 2; the n = 100 grid spans
        # three node blocks, whose memberships join into the whole grid's
        spec = spec3(n=100)
        axis = box_axis(spec, 2.0)
        inside = in_box(spec, axis)
        assert inside.shape == (10000,)
        assert inside.sum() == axis.sum() ** 2 == 100
        blocks = node_blocks(spec.size)
        assert len(blocks) == 3
        np.testing.assert_array_equal(
            np.concatenate([in_box(spec, axis, b) for b in blocks]), inside)

    def test_central_box_membership(self):
        # the n = 5 grid has nodes on the box's edge |u_i| = b, outside D
        for spec, b in ((spec3(n=100), 2.0), (spec3(n=5, h=2.0), 1.0)):
            inside = np.all(np.abs(grid_coords(spec)) < b, axis=1)
            np.testing.assert_array_equal(in_box(spec, box_axis(spec, b)), inside)
        assert inside.sum() == 1
        with pytest.raises(ValueError, match="box half-width must be positive"):
            box_axis(spec, 0)


class TestRelL2:
    def test_identical_inputs(self):
        u = np.array([1 + 1j, 2.0, -3.0])
        assert rel_l2(u, u) == 0.0

    def test_doubling(self):
        u = np.array([1 + 1j, 2.0, -3.0])
        assert rel_l2(2 * u, u) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedDenominatorError):
            rel_l2(np.ones(3), np.zeros(3))

    def test_masked_zero_reference_rejected(self):
        u1 = np.array([0.0, 0.0, 5.0])
        sums = l2_sums(l2_terms(np.ones(3), u1), np.array([True, True, False]))
        with pytest.raises(UndefinedDenominatorError):
            l2_ratio(sums)

    @given(
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, a, b, lam):
        u1 = np.array(a)
        u2 = np.array(b)
        if np.linalg.norm(u1) < 1e-6:
            return
        assert rel_l2(lam * u2, lam * u1) == pytest.approx(
            rel_l2(u2, u1), rel=1e-12
        )

    def test_mask_partition_identity(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=100) + 1j * rng.normal(size=100)
        mask = rng.random(100) < 0.4
        total = np.sum(np.abs(u) ** 2)
        split = np.sum(np.abs(u[mask]) ** 2) + np.sum(np.abs(u[~mask]) ** 2)
        assert split == pytest.approx(total, rel=1e-12)


    def test_sums_every_node_block(self):
        # two full blocks and a partial one that alone holds the error
        n = 2 * NODE_BLOCK + 5
        rng = np.random.default_rng(1)
        u1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        u2 = u1.copy()
        u2[-3:] += 1.0
        assert rel_l2(u2, u1) == pytest.approx(
            np.sqrt(3) / np.linalg.norm(u1), rel=1e-12)


class TestDiscrepancy:
    """`discrepancy` gives the E_dis terms of a block record, which
    `Scores` sums like those of E."""

    def test_exact_reconstruction_gives_zero(self):
        cfg = parse_config("n = 12\n")
        (record,) = _reconstruct(cfg)
        num, den = discrepancy(dataclasses.replace(record, psi1_rec=record.psi1))
        assert not num.any()
        assert den.all()

    def test_zero_field_rejected(self):
        # psi1 = 0, so I - 1 vanishes at every node
        cfg = parse_config("n = 6\nsource = 0, 0, 0, 2.5, 0\n")
        records = list(_reconstruct(cfg))
        assert not any(discrepancy(r)[1].any() for r in records)
        with pytest.raises(UndefinedDenominatorError):
            compute_metrics(cfg, records)


class TestSlopeEstimate:
    def test_inverse_law(self):
        rows = [(s, 3.0 / s) for s in (10, 20, 40, 80)]
        assert slope_estimate(rows) == pytest.approx(-1.0)

    def test_inverse_sqrt_law(self):
        rows = [(s, 3.0 / np.sqrt(s)) for s in (10, 20, 40, 80)]
        assert slope_estimate(rows) == pytest.approx(-0.5)

    def test_constant(self):
        rows = [(s, 2.0) for s in (10, 20, 40)]
        assert slope_estimate(rows) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            slope_estimate([(1, 1.0), (2, 0.5)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            slope_estimate([(1, 1.0), (2, 0.5), (3, 0.0)])

    def test_duplicate_scales_rejected(self):
        with pytest.raises(ValueError):
            slope_estimate([(1, 1.0), (1, 0.5), (3, 0.2)])

    @pytest.mark.parametrize("rows", [
        [(1, 1.0), (2, np.nan), (3, 0.2)],
        [(1, 1.0), (2, np.inf), (3, 0.2)],
        [(1, 1.0), (np.nan, 0.5), (3, 0.2)],
        [(1, 1.0), (np.inf, 0.5), (3, 0.2)],
    ])
    def test_nonfinite_rejected(self, rows):
        # a NaN or inf sample has no log-log line: no NaN slope, no LAPACK error
        with pytest.raises(ValueError, match="^scales and errors must be finite$"):
            slope_estimate(rows)

    @given(st.floats(1e-3, 1e3), st.lists(st.floats(1.05, 4.0), min_size=2, max_size=7),
           st.lists(st.floats(-12.0, 2.0), min_size=8, max_size=8))
    @settings(max_examples=300)
    def test_matches_polyfit(self, s0, ratios, decades):
        # a ladder of 3-8 distinct scales, errors over 14 decades; np.polyfit
        # is the reference. The absolute part of the tolerance covers slopes
        # near 0, where both fits keep only rounding noise of size eps * |y|.
        s = s0 * np.cumprod([1.0] + ratios)
        e = 10.0 ** np.array(decades[:len(s)])
        want = np.polyfit(np.log(s), np.log(e), 1)[0]
        scale = (1.0 + np.abs(np.log(e)).max()) / np.ptp(np.log(s))
        assert slope_estimate(zip(s, e)) == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


def test_compute_metrics_matches_whole_grid_formula(preset_run):
    # the preset grid ends in a partial node block
    cfg, result = preset_run
    assert result.spec.size % NODE_BLOCK
    metrics = compute_metrics(cfg, _reconstruct(cfg))
    psi0 = np.exp(1j * (grid_points(result.spec) @ cfg.wave_params().k))
    i_true = np.abs(psi0 + result.psi1) ** 2 - 1
    i_rec = np.abs(psi0 + result.psi1_rec) ** 2 - 1
    inside = in_box(result.spec, box_axis(result.spec, cfg.region_halfwidth))
    for name, mask in (("G", slice(None)), ("D", inside), ("G\\D", ~inside)):
        for metric, u2, u1 in (("E", result.psi1_rec, result.psi1),
                               ("E_dis", i_rec, i_true)):
            expected = np.linalg.norm((u2 - u1)[mask]) / np.linalg.norm(u1[mask])
            assert metrics[(metric, name)] == pytest.approx(expected, rel=1e-12)


def test_scores_fold_returns_each_record(preset_run):
    # the fold over a run's node blocks passes each block on, and its
    # max |zeta| is the whole-grid record's
    cfg, result = preset_run
    scores = Scores(cfg.grid_spec(), cfg.region_halfwidth)
    assert np.isnan(scores.max_zeta)
    assert all(scores.add(b) is b for b in _reconstruct(cfg))
    assert scores.max_zeta == result.max_zeta


def test_merge_of_split_folds_matches_serial_fold(preset_config):
    # a fold cut at any node-block bound and joined by `merge`, its second
    # half through a pickle round trip as from a split pass's child, has
    # the bits of the serial fold; a half whose nodes all have no offset
    # leaves max |zeta| alone
    cfg = preset_config
    records = list(_reconstruct(cfg))
    assert len(records) == 3

    def fold(records):
        scores = Scores(cfg.grid_spec(), cfg.region_halfwidth)
        for record in records:
            scores.add(record)
        return scores

    def bits(scores):
        return [(key, repr(value)) for key, value in scores.ratios().items()], repr(
            scores.max_zeta)

    serial = bits(fold(records))
    for cut in range(1, len(records)):
        scores = fold(records[:cut])
        scores.merge(pickle.loads(pickle.dumps(fold(records[cut:]))))
        assert bits(scores) == serial
    no_offset = fold(dataclasses.replace(r, zeta=np.full_like(r.zeta, np.nan))
                     for r in records)
    assert np.isnan(no_offset.max_zeta)
    scores.merge(no_offset)
    assert repr(scores.max_zeta) == serial[1]


@pytest.mark.parametrize("config, empty", [
    ("n = 2\n", "D"),  # both nodes per axis at |u| = 20
    ("n = 16\nh = 1\nregion_halfwidth = 4\n", "G\\D"),  # every node in the box
])
def test_empty_region_raises_where_it_is_read(config, empty):
    # the fold runs on any grid; only reading an empty region's ratio fails,
    # and before any reference is read
    cfg = parse_config(config)
    g_alone = compute_metrics(cfg, _reconstruct(cfg), ("G",))
    assert list(g_alone) == [("E", "G"), ("E_dis", "G")]
    other = ({"D", "G\\D"} - {empty}).pop()
    assert list(compute_metrics(cfg, _reconstruct(cfg), ("G", other))) == [
        key for key in Scores.KEYS if key[1] != empty]
    for regions in (Scores.REGIONS, (empty,)):
        with pytest.raises(UndefinedDenominatorError,
                           match=rf"^region {re.escape(empty)} holds no grid node$"):
            compute_metrics(cfg, _reconstruct(cfg), regions)
    zero = dataclasses.replace(cfg, sources=((0j, cfg.sources[0][1]),))
    with pytest.raises(UndefinedDenominatorError, match="holds no grid node"):
        compute_metrics(zero, _reconstruct(zero))


def test_g_alone_has_the_bits_of_every_region(preset_config):
    cfg = preset_config
    every = compute_metrics(cfg, _reconstruct(cfg))
    g_alone = compute_metrics(cfg, _reconstruct(cfg), ("G",))
    assert {key: repr(value) for key, value in g_alone.items()} == {
        key: repr(every[key]) for key in g_alone}
