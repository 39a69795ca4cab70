import pytest
from hypothesis import settings

# property tests run heavy numpy code; wall-clock deadlines only cause flakes
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

from holoplane.config import ExperimentConfig
from holoplane.fields import eval_radiation
from holoplane.geometry import grid_points
from holoplane.recon import reconstruct_grid


@pytest.fixture(scope="session")
def preset_config():
    """Default experiment: d=3, kappa=4, unit source at (0, 2.5, 0),
    plane at s=100, 100x100 patch of half-width 20."""
    return ExperimentConfig()


@pytest.fixture(scope="session")
def preset_run(preset_config):
    """Full-grid reconstruction for the default experiment, shared across
    tests because it is by far the most expensive fixture."""
    cfg = preset_config
    spec = cfg.grid_spec()
    result = reconstruct_grid(
        cfg.radiation_field(), cfg.wave_params(), spec, cfg.zeta_strategy()
    )
    psi1 = eval_radiation(cfg.radiation_field(), cfg.kappa, grid_points(spec))
    return cfg, result, psi1
