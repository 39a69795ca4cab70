"""The stages after the kernel stream the grid in blocks.

Once `reconstruct_grid` has returned, its record is the only grid-sized
memory of a `reconstruct` run: the metrics, the CSV writer and `max_zeta`
work on NODE_BLOCK nodes or on CHUNK_BYTES of CSV slots at a time.
tracemalloc sees numpy's buffers, so the traced peak of each stage is what
it allocates.
Any one whole-grid float or index array would take more than 12 % of the
record at this size.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from holoplane.cli import _reconstruct, compute_metrics
from holoplane.config import parse_config
from holoplane.recon import recon_to_csv

BOUND = 0.12


@pytest.fixture(scope="module")
def run300():
    cfg = parse_config("n = 300\n")
    result = _reconstruct(cfg)
    record = sum(np.asarray(getattr(result, f.name)).nbytes
                 for f in dataclasses.fields(result) if f.name != "spec")
    assert record > 9.5 * 2**20
    return cfg, result, record


def traced_peak(stage):
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compute_metrics_peak(run300):
    cfg, result, record = run300
    assert traced_peak(lambda: compute_metrics(cfg, result)) < BOUND * record


def test_recon_to_csv_peak(run300, tmp_path):
    _, result, record = run300
    path = str(tmp_path / "recon.csv")
    recon_to_csv(result, path)  # the writer's lookup tables are built once
    assert traced_peak(lambda: recon_to_csv(result, path)) < BOUND * record


def test_max_zeta_peak(run300):
    _, result, record = run300
    assert traced_peak(lambda: result.max_zeta) < BOUND * record
