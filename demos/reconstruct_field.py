"""Recover the scattered field from intensity-only data.

The two-point estimator reads the hologram at x and at a nearby shifted
point y = x + zeta (zeta chosen per direction), solves a 2x2 linear system
in closed form, and returns the far-field value f11 from which the field
itself is rebuilt.  No phase is ever measured.

Running this prints the relative L2 errors on the full patch G, on the
central box D (where the estimator is ill-conditioned), and on G \\ D,
plus the intensity discrepancy -- which stays small even where the field
error is large, a reminder that a good intensity fit does not certify a
good field.
"""

import numpy as np

from holoplane import (
    ExperimentConfig,
    discrepancy,
    reconstruct_grid,
    region_masks,
    rel_l2,
)

cfg = ExperimentConfig()
field = cfg.radiation_field()
params = cfg.wave_params()
spec = cfg.grid_spec()

# the result carries the true field psi1 at the nodes it is scored against
result = reconstruct_grid(field, params, spec, cfg.zeta_strategy())

masks = region_masks(spec, cfg.region_halfwidth)
print("region   field error   intensity discrepancy")
for name in ("G", "D", "G\\D"):
    e = rel_l2(result.psi1_rec, result.psi1, masks[name])
    e_dis = discrepancy(field, params, result.points, result.psi1_rec, masks[name])
    print("%-6s   %6.2f %%      %.2e" % (name, 100 * e, e_dis))

print()
print("max |zeta| over the patch : %.3f" % result.max_zeta)
print("nodes flagged near the singular direction :",
      int(result.flag_exceptional.sum()))

# pointwise worst case, excluding the flagged central neighborhood
err = np.abs(result.psi1_rec - result.psi1)
ok = ~result.flag_exceptional
print("worst pointwise error away from the center : %.2e"
      % err[ok].max())
