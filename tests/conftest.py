import pytest
from hypothesis import settings

# property tests run heavy numpy code; wall-clock deadlines only cause flakes
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")

from holoplane import csvrows
from holoplane.config import ExperimentConfig
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
    result = reconstruct_grid(
        cfg.radiation_field(), cfg.wave_params(), cfg.grid_spec(), cfg.zeta_strategy()
    )
    return cfg, result


@pytest.fixture
def chunk_budget(monkeypatch):
    """Set the CSV writer's chunk budget, in slot bytes. Returns the list of
    the rows per chunk the writer works out from then on, so its last entry
    is that of the last file written."""
    steps = []
    chunk_rows = csvrows._chunk_rows

    def record(words):
        steps.append(chunk_rows(words))
        return steps[-1]

    def set_budget(nbytes):
        monkeypatch.setattr(csvrows, "CHUNK_BYTES", nbytes)
        monkeypatch.setattr(csvrows, "_chunk_rows", record)
        return steps

    return set_budget
