"""Error measures: relative discrete L2 distance, intensity discrepancy,
rectangular regions, and log-log slope fits.

The L2 distance is summed over the grid NODE_BLOCK nodes at a time
(`geometry.node_blocks`): `l2_terms` gives the squared terms of one block,
`l2_sums` their two sums over a region's nodes of the block, and `l2_ratio`
turns the running totals into the relative distance. Any caller that adds
up the same blocks in the same order, as `rel_l2` and `cli.compute_metrics`
do, gets the same bits. D is kept as its per-axis box (`box_axis`), and
`in_box` gives its membership of a block of nodes.
"""

import numpy as np

from .errors import UndefinedDenominatorError
from .fields import eval_radiation, plane_wave
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


def region_masks(spec, box_half_width):
    """Boolean masks over the grid nodes, in node order: {"G": all nodes,
    "D": central box |u_i| < b, "G\\D": complement}."""
    center = in_box(spec, box_axis(spec, box_half_width))
    return {"G": np.ones(spec.size, dtype=bool), "D": center, "G\\D": ~center}


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


def rel_l2(u2, u1, mask=None):
    """|| u2 - u1 ||_2 / || u1 ||_2 over the masked nodes (uniform weights),
    summed a block of nodes at a time."""
    u2 = np.asarray(u2)
    u1 = np.asarray(u1)
    sums = np.zeros(2)
    for b in node_blocks(len(u1)):
        sums += l2_sums(l2_terms(u2[b], u1[b]), None if mask is None else mask[b])
    return l2_ratio(sums)


def discrepancy(field, params, points, psi1_rec, mask=None):
    """Relative L2 mismatch of reconstructed vs measured intensity, both
    shifted by -1: rel_l2(|psi0 + psi1_rec|^2 - 1, I - 1)."""
    psi0 = plane_wave(points, params)
    psi1 = eval_radiation(field, params.kappa, points)
    return rel_l2(shifted_intensity(psi0, psi1_rec), shifted_intensity(psi0, psi1), mask)


def shifted_intensity(psi0, psi1):
    """I - 1 with I = |psi0 + psi1|^2, the reference wave psi0 plus the
    scattered field psi1 at the same points."""
    return np.abs(psi0 + psi1) ** 2 - 1.0


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
