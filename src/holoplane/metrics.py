"""Error measures: relative discrete L2 distance, the scores E and E_dis of
a reconstruction on the regions G, D and G\\D, and log-log slope fits.

The L2 distance is summed over the grid NODE_BLOCK nodes at a time
(`geometry.node_blocks`): `l2_terms` gives the squared terms of one block,
`l2_sums` their two sums over a region's nodes of the block, and `l2_ratio`
turns the running totals into the relative distance. `rel_l2` and
`Scores`, the one fold that scores a reconstruction, add up the same
blocks in the same order, so E on G has the same bits from both. D is kept
as its per-axis box (`box_axis`), and `in_box` gives its membership of a
block of nodes.
"""

import numpy as np

from .errors import UndefinedDenominatorError
from .geometry import node_blocks


def box_axis(spec, box_half_width):
    """Which axis values of `spec.coords` lie in the central box |u| < b:
    D is empty when none does, and G\\D when all do."""
    b = float(box_half_width)
    if b <= 0:
        raise ValueError("box half-width must be positive")
    return np.abs(spec.coords) < b


def in_box(spec, axis, rows=slice(None)):
    """Which nodes of the range `rows` have every coordinate in the box `axis`."""
    return np.logical_and.reduce([axis[a] for a in spec.node_axes(rows)])


def l2_terms(u2, u1):
    """|u2 - u1|^2 and |u1|^2 at each node of a block."""
    return np.abs(u2 - u1) ** 2, np.abs(u1) ** 2


def l2_sums(terms, mask):
    """[sum |u2 - u1|^2, sum |u1|^2] of the `l2_terms` of a block over the
    nodes `mask` selects (all of them for None)."""
    return np.array([np.sum(t if mask is None else t[mask]) for t in terms])


def l2_ratio(sums):
    """|| u2 - u1 ||_2 / || u1 ||_2 from the totals of `l2_sums` over the
    blocks of a region."""
    num, den = sums
    denom = np.sqrt(den)
    if denom == 0:
        raise UndefinedDenominatorError("reference function vanishes on the region")
    return float(np.sqrt(num) / denom)


def rel_l2(u2, u1):
    """|| u2 - u1 ||_2 / || u1 ||_2 over all nodes (uniform weights), summed
    a block of nodes at a time."""
    u2 = np.asarray(u2)
    u1 = np.asarray(u1)
    sums = np.zeros(2)
    for b in node_blocks(len(u1)):
        sums += l2_sums(l2_terms(u2[b], u1[b]), None)
    return l2_ratio(sums)


def discrepancy(b):
    """The E_dis `l2_terms` of the one-block record `b`: the reconstructed
    intensity |psi0 + psi1_rec|^2 - 1 against the true I - 1."""
    return l2_terms(np.abs(b.psi0 + b.psi1_rec) ** 2 - 1.0, b.intensity - 1.0)


class Scores:
    """Running sums of the reconstruction error E and the intensity
    discrepancy E_dis on G, D and G\\D, and max |zeta|, over records that
    cover the grid `spec` in node order.

    Each block's `l2_terms` of both measures are added, as `l2_sums`, to
    every region's totals, in the block order of `rel_l2`. G holds every
    node, so its sums take the whole block (mask None), and D's block mask
    comes from `in_box`. Whether D or G\\D holds no node depends on the
    grid alone, so it is checked up front."""

    REGIONS = ("G", "D", "G\\D")

    def __init__(self, spec, box_half_width):
        self.spec = spec
        self.axis = box_axis(spec, box_half_width)
        for name, occupied in (("D", self.axis.any()), ("G\\D", not self.axis.all())):
            if not occupied:
                raise UndefinedDenominatorError(f"region {name} holds no grid node")
        self.sums = {(metric, name): np.zeros(2)
                     for name in self.REGIONS for metric in ("E", "E_dis")}
        self.max_zeta = np.nan

    def add(self, record):
        """Add the sums of a record's node blocks (one block for a record
        of `cli._reconstruct`), and return the record."""
        self.merge(map(self.block_sums, record.blocks()), record.max_zeta)
        return record

    def block_sums(self, b):
        """The `l2_sums` of the one-block record `b`, by (metric, region)."""
        terms = {"E": l2_terms(b.psi1_rec, b.psi1), "E_dis": discrepancy(b)}
        inside = in_box(self.spec, self.axis, b.rows)
        return {(metric, name): l2_sums(t, selected)
                for name, selected in zip(self.REGIONS, (None, inside, ~inside))
                for metric, t in terms.items()}

    def merge(self, block_sums, max_zeta):
        """Add `block_sums`, the `block_sums` of consecutive node blocks in
        block order, to the totals, and fold in `max_zeta`, their max |zeta|.
        Sums added a block at a time in block order have the bits of a
        serial pass, wherever they were made."""
        for sums in block_sums:
            for key, s in sums.items():
                self.sums[key] += s
        # fmax skips a record whose nodes all have no offset
        self.max_zeta = np.fmax(self.max_zeta, max_zeta)

    def ratios(self):
        """{(metric, region): value}; raises where a reference vanishes."""
        return {key: l2_ratio(sums) for key, sums in self.sums.items()}


def slope_estimate(samples):
    """Least-squares slope of log(error) vs log(scale).

    `samples` is a sequence of (scale, error) pairs, all positive, at
    least three distinct scales.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    s = np.array([p[0] for p in samples], dtype=float)
    e = np.array([p[1] for p in samples], dtype=float)
    if np.any(s <= 0) or np.any(e <= 0):
        raise ValueError("scales and errors must be positive")
    if len(np.unique(s)) < len(s):
        raise ValueError("scales must be distinct")
    slope, _ = np.polyfit(np.log(s), np.log(e), 1)
    return float(slope)
