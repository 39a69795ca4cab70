"""Seeded benchmark inputs: workload definitions and config-text generation.

Every input is `key = value` config text, the same text a user would put
in a `--config` file. The program sees only that text; the output checks
use the `Inputs` fields, which hold the exact values written into it.
"""

from dataclasses import dataclass

import numpy as np

# Reference-experiment geometry, written explicitly into every input so the
# checks do not depend on the package's defaults.
KAPPA = 4.0
PLANE_S = 100.0
HALF_WIDTH = 20.0
BOX_HALF_WIDTH = 2.0
SOURCE_RADIUS = 5.0
AMPLITUDE_RANGE = (0.5, 1.0)

# The accuracy metrics come from this input, whatever the run's seed: see
# README.md for why they are not drawn from the run seed.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    n: int
    commands: tuple  # holoplane CLI subcommands run, in order, by one job
    noise_level: float = 0.0

    @property
    def nodes(self):
        return self.n ** (self.dim - 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recon-3d-n400", 3, 400, ("reconstruct",)),
        Workload("noisy-3d-n100", 3, 100, ("simulate", "reconstruct"),
                 noise_level=0.01),
        Workload("planar-2d-n4000", 2, 4000, ("reconstruct", "rates")),
    )
}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    seed: int
    sources: tuple  # ((c, x0), ...) exactly as written in `text`
    text: str


def _num(v):
    # The value the program parses back from the text.
    return float(f"{v:.6f}")


def _fmt(values):
    return ", ".join(f"{v:.6f}" for v in values)


def make_inputs(workload, seed):
    """Two point sources with |x0| <= 5 and 0.5 <= |c| <= 1, plus a noise
    seed, all drawn from `seed`. The same seed gives byte-identical text."""
    rng = np.random.default_rng(seed)
    d = workload.dim
    sources = []
    for _ in range(2):
        while True:
            x0 = rng.uniform(-SOURCE_RADIUS, SOURCE_RADIUS, d)
            if np.linalg.norm(x0) <= SOURCE_RADIUS:
                break
        c = rng.uniform(*AMPLITUDE_RANGE) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        sources.append((complex(_num(c.real), _num(c.imag)),
                        tuple(_num(v) for v in x0)))
    e1 = (1.0,) + (0.0,) * (d - 1)
    lines = [
        f"# holoplane benchmark input: {workload.name}, seed {seed}",
        f"dim = {d}",
        f"kappa = {KAPPA:g}",
        f"k = {_fmt(KAPPA * np.array(e1))}",
        f"omega = {_fmt(e1)}",
        f"s = {PLANE_S:g}",
        f"h = {HALF_WIDTH:g}",
        f"n = {workload.n}",
        f"region_halfwidth = {BOX_HALF_WIDTH:g}",
    ]
    for c, x0 in sources:
        lines.append(f"source = {_fmt((c.real, c.imag) + x0)}")
    if workload.noise_level > 0:
        lines.append(f"noise_level = {workload.noise_level:g}")
        lines.append(f"noise_seed = {int(rng.integers(2**31))}")
    return Inputs(workload, seed, tuple(sources), "\n".join(lines) + "\n")
