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
    """The sums of the reconstruction error E and the intensity discrepancy
    E_dis on G, D and G\\D, and max |zeta|, over records that cover the
    grid `spec` in node order.

    Each node block's `l2_terms` of both measures give its `l2_sums` over
    every region, kept per block in the order the blocks were added; G
    holds every node, so its sums take the whole block (mask None), and
    D's block mask comes from `in_box`. `ratios` totals the blocks in that
    order, the block order of `rel_l2`, so a pass split at a block bound
    and joined by `merge` has the bits of a serial one. `ratios` checks
    that each region it reads holds a node, so G alone may be read anywhere."""

    REGIONS = ("G", "D", "G\\D")
    KEYS = [(metric, name) for name in REGIONS for metric in ("E", "E_dis")]

    def __init__(self, spec, box_half_width):
        self.spec = spec
        self.axis = box_axis(spec, box_half_width)
        self.blocks = []  # per node block, the `l2_sums` of each of KEYS
        self.max_zeta = np.nan

    def add(self, record):
        """Add the sums of a record's node blocks (one block for a record
        of `cli._reconstruct`) and its max |zeta|, and return the record."""
        for b in record.blocks():
            terms = l2_terms(b.psi1_rec, b.psi1), discrepancy(b)
            inside = in_box(self.spec, self.axis, b.rows)
            self.blocks.append(np.array([l2_sums(t, selected)
                                         for selected in (None, inside, ~inside)
                                         for t in terms]))
        # fmax skips a record whose nodes all have no offset
        self.max_zeta = np.fmax(self.max_zeta, record.max_zeta)
        return record

    def merge(self, other):
        """Add `other`, the `Scores` of the node blocks that follow this
        one's, after this one's blocks, and fold in its max |zeta|."""
        self.blocks += other.blocks
        self.max_zeta = np.fmax(self.max_zeta, other.max_zeta)

    def ratios(self, regions=REGIONS):
        """{(metric, region): value}; raises where one of `regions` holds no
        grid node, or else where a reference vanishes."""
        for name, empty in (("D", not self.axis.any()), ("G\\D", self.axis.all())):
            if empty and name in regions:
                raise UndefinedDenominatorError(f"region {name} holds no grid node")
        sums = sum(self.blocks, np.zeros((len(self.KEYS), 2)))
        return {key: l2_ratio(s) for key, s in zip(self.KEYS, sums) if key[1] in regions}


def slope_estimate(samples):
    """Least-squares slope of log(error) vs log(scale).

    `samples` is a sequence of (scale, error) pairs, all positive and
    finite, at least three distinct scales. The slope is in closed form,
    sum x (y - mean y) / sum x^2 over the centred x = log(scale) - its
    mean and y = log(error), so no LAPACK routine runs.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    s = np.array([p[0] for p in samples], dtype=float)
    e = np.array([p[1] for p in samples], dtype=float)
    if not (np.isfinite(s).all() and np.isfinite(e).all()):
        raise ValueError("scales and errors must be finite")
    if np.any(s <= 0) or np.any(e <= 0):
        raise ValueError("scales and errors must be positive")
    # a set, not np.unique: np.unique imports numpy.ma on its first call
    if len(set(s.tolist())) < len(s):
        raise ValueError("scales must be distinct")
    x = np.log(s)
    x -= x.mean()
    y = np.log(e)
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))
