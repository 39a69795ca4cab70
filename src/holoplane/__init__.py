"""Two-point holographic reconstruction of Helmholtz radiation fields on a
measurement plane from intensity-only data."""

from .bessel import hankel0_first_kind
from .config import ExperimentConfig, parse_config
from .errors import (
    ConfigError,
    DegenerateDeterminantError,
    ExceptionalDirectionError,
    HoloplaneError,
    InfeasibleParametersError,
    OutOfHalfspaceError,
    OutOfPatchError,
    SingularEvaluationError,
    UndefinedDenominatorError,
)
from .fields import (
    PointSource,
    RadiationField,
    WaveParams,
    eval_radiation,
    far_field,
    far_field_numeric_oracle,
    plane_wave,
)
from .geometry import (
    DirectionDecomp,
    GridSpec,
    PlaneFrame,
    decompose,
    expansion_oracles,
    grid_coords,
    grid_points,
    in_cap_delta,
    in_exceptional_set,
    make_frame,
    point_on_plane,
)
from .hologram import (
    Hologram,
    add_noise,
    hologram_to_csv,
    hologram_to_pgm,
    intensity,
    intensity_at,
    sample_hologram,
    scattered_signal,
)
from .metrics import discrepancy, region_masks, rel_l2, slope_estimate
from .recon import (
    BoundedOffset,
    HybridStrategy,
    ReconGridResult,
    SqrtScaled,
    beta_solve,
    determinant,
    determinant_phase_expansion,
    f11,
    f11_refined_2d,
    reconstruct_grid,
    zeta_bounded,
    zeta_sqrt,
)

__version__ = "0.1.0"
