"""The stages after the kernel stream the grid in blocks.

The metrics, the CSV writer and `max_zeta` work on the node blocks of
`geometry.node_blocks` (`ReconGridResult.blocks`) or on CHUNK_BYTES of CSV
slots at a time, whether they are given one whole-grid `ReconGridResult`
record or the node-block records of a `reconstruct` run, so their traced
peaks are held against the size of the record. That size is counted over
the fields the record held before it carried psi0 and the true intensity,
and with the (m, d) node points and the small-|D| flag it held then, so
the bounds stay as strict as they were. Any one whole-grid float or index
array would take more than 12 % of the record at this size.
`cli.run_reconstruct` consumes each block's record before the next one
is made, so the traced peak of a whole run does not grow
with the grid. A sampled run (`simulate`, or `reconstruct` with noise or
`mode = bilinear`) holds the hologram's values whole, for the bilinear
lookup, and samples it, adds its noise and writes its image a node block
at a time, so its traced peak grows with the grid only by those values.
A whole-grid `reconstruct_grid` holds little more than the record it
returns, which does not keep the node points.
tracemalloc sees numpy's buffers, so a traced peak is what a stage
allocates.
"""

import tracemalloc

import numpy as np
import pytest

from holoplane.cli import _reconstruct, compute_metrics, run_reconstruct, run_simulate
from holoplane.config import parse_config
from holoplane.recon import recon_to_csv, reconstruct_grid

BOUND = 0.12
# The per-node fields the bounds are held against, with 8 d bytes a node
# for the points and 1 for the small-|D| flag, which the record held until
# the recon.csv writer formed it from D.
RECORD_FIELDS = ("psi1", "zeta", "D", "f11", "psi1_rec", "flag_exceptional")
# Every field of a whole-grid record.
KEPT_FIELDS = ("psi0", "intensity") + RECORD_FIELDS
# Peak growth allowed from n = 100 to n = 300, against a peak of 1.2 MB:
# the profile and the axis tables grow with n, by 23 kB; one whole-grid
# float array at n = 300 takes 720 kB.
MARGIN = 64 * 2**10
# The growth of a sampled run's hologram values from n = 100 to n = 300.
HOLOGRAM_GROWTH = 8 * (300**2 - 100**2)


def field_bytes(records, names):
    return sum(getattr(r, name).nbytes for r in records for name in names)


def record_bytes(records):
    dropped = sum((8 * r.spec.frame.dim + 1) * (r.rows.stop - r.rows.start) for r in records)
    return field_bytes(records, RECORD_FIELDS) + dropped


@pytest.fixture(scope="module")
def run300():
    cfg = parse_config("n = 300\n")
    result = reconstruct_grid(cfg.radiation_field(), cfg.wave_params(), cfg.grid_spec(),
                              cfg.zeta_strategy(), flag_eps=cfg.eps)
    record = record_bytes([result])
    assert record > 9.5 * 2**20
    return cfg, result, record


@pytest.fixture(scope="module")
def blocks300(run300):
    cfg, _, record = run300
    blocks = list(_reconstruct(cfg))
    assert record_bytes(blocks) == record
    return cfg, blocks, record


def traced_peak(stage):
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reconstruct_grid_peak_is_the_record(run300):
    # the fixture's run is the warm-up; past the record, the run holds one
    # node block's temporaries
    cfg, result, _ = run300
    args = (cfg.radiation_field(), cfg.wave_params(), cfg.grid_spec(), cfg.zeta_strategy())
    peak = traced_peak(lambda: reconstruct_grid(*args, flag_eps=cfg.eps))
    # with the small-|D| flag's byte a node, as the record held it
    assert peak < field_bytes([result], KEPT_FIELDS) + result.spec.size + 2 * 2**20


def test_compute_metrics_peak(run300):
    cfg, result, record = run300
    assert traced_peak(lambda: compute_metrics(cfg, [result])) < BOUND * record


def test_recon_to_csv_peak(run300, tmp_path):
    _, result, record = run300
    path = str(tmp_path / "recon.csv")
    recon_to_csv([result], path)  # the writer's lookup tables are built once
    assert traced_peak(lambda: recon_to_csv([result], path)) < BOUND * record


def test_max_zeta_peak(run300):
    _, result, record = run300
    assert traced_peak(lambda: result.max_zeta) < BOUND * record


def test_block_stream_peaks(blocks300, tmp_path):
    cfg, blocks, record = blocks300
    path = str(tmp_path / "recon.csv")
    recon_to_csv(blocks, path)
    assert traced_peak(lambda: compute_metrics(cfg, blocks)) < BOUND * record
    assert traced_peak(lambda: recon_to_csv(blocks, path)) < BOUND * record
    assert traced_peak(lambda: max(b.max_zeta for b in blocks)) < BOUND * record


def test_whole_record_and_block_stream_agree(run300, blocks300, tmp_path):
    cfg, result, _ = run300
    _, blocks, _ = blocks300
    assert compute_metrics(cfg, [result]) == compute_metrics(cfg, blocks)
    assert result.max_zeta == np.fmax.reduce([b.max_zeta for b in blocks])
    recon_to_csv([result], str(tmp_path / "whole.csv"))
    recon_to_csv(blocks, str(tmp_path / "blocks.csv"))
    assert (tmp_path / "whole.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()


def test_run_reconstruct_peak_does_not_grow_with_the_grid(tmp_path, capsys):
    def peak(n):
        cfg = parse_config(f"n = {n}\n")
        return traced_peak(lambda: run_reconstruct(cfg, str(tmp_path / str(n))))

    peak(16)  # the writer's lookup tables are built once
    assert peak(300) <= peak(100) + MARGIN


@pytest.mark.parametrize("run, text", [
    (run_simulate, ""),
    (run_reconstruct, "noise_level = 0.01\n"),
    (run_reconstruct, "mode = bilinear\n"),
], ids=["simulate", "noisy-reconstruct", "bilinear-reconstruct"])
def test_sampled_run_peak_grows_only_by_the_hologram(tmp_path, capsys, run, text):
    def peak(n):
        cfg = parse_config(f"{text}n = {n}\n")
        return traced_peak(lambda: run(cfg, str(tmp_path / str(n))))

    peak(16)  # the writer's lookup tables are built once
    assert peak(300) <= peak(100) + HOLOGRAM_GROWTH + MARGIN
