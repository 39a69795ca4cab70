"""Tests of the benchmark's own parts: seeded inputs, output checks and the
tracer. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses

import pytest

from bench import run_commands
from check import CheckError, check_job
from holoplane import cli
from inputs import WORKLOADS, make_inputs
from spans import Layer, LayerMissingError, Tracer

# Small grids with each workload's commands, dimension and noise.
SMALL_N = {"recon-3d-n400": 16, "noisy-3d-n100": 16, "planar-2d-n4000": 64}


def small_inputs(name, seed=3):
    workload = dataclasses.replace(WORKLOADS[name], n=SMALL_N[name])
    return make_inputs(workload, seed)


def test_same_seed_gives_same_text():
    for workload in WORKLOADS.values():
        assert make_inputs(workload, 7).text == make_inputs(workload, 7).text
        assert make_inputs(workload, 7).text != make_inputs(workload, 8).text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_program_output(name, tmp_path):
    inputs = small_inputs(name)
    run_commands(inputs, tmp_path)
    acc = check_job(inputs, tmp_path)
    assert 0 < acc["rel_err_G"] < 1
    assert 0 < acc["valid_node_frac"] <= 1


def _edit_row(lines, row, column, value):
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)


CORRUPTIONS = {
    "row dropped": lambda lines: lines.pop(),
    "header renamed": lambda lines: lines.__setitem__(0, lines[0].replace("re_psi1,", "psi1,")),
    "exact field wrong": lambda lines: _edit_row(lines, 5, 4, "0.5"),
    "reconstruction wrong": lambda lines: _edit_row(lines, 5, 6, "0.5"),
    "not a number": lambda lines: _edit_row(lines, 5, 2, "x"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_recon_csv_fails_check(corruption, tmp_path):
    inputs = small_inputs("recon-3d-n400")
    run_commands(inputs, tmp_path)
    path = tmp_path / "recon.csv"
    lines = path.read_text().splitlines()
    CORRUPTIONS[corruption](lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError):
        check_job(inputs, tmp_path)


def test_tracer_fails_loudly_on_missing_layer():
    with pytest.raises(LayerMissingError):
        Tracer([Layer("recon", "no_such_function")]).install()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_tracer_uninstalls(name, tmp_path):
    inputs = small_inputs(name)
    original = cli.run_reconstruct
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run_reconstruct is not original
        for job in (1, 2):
            tracer.job = job
            run_commands(inputs, tmp_path / str(job))
    finally:
        tracer.uninstall()
    assert cli.run_reconstruct is original
    per_job = tracer.per_job([1, 2])
    counts = [{k: v for k, v in per_job[j].items() if not k.endswith(".s")}
              for j in (1, 2)]
    assert counts[0] == counts[1]
    assert counts[0]["recon.reconstruct_grid.nodes"] == inputs.workload.nodes
    assert all(v >= -1e-9 for v in per_job[1].values())
