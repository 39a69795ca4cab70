"""`tools/snapshot.py`, the byte-identity tool: the files of one run, and
the refusals of `main`. A whole snapshot is not part of the suite."""

import importlib.util
from pathlib import Path

import holoplane

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(holoplane.__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("snapshot", ROOT / "tools" / "snapshot.py")
snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(snapshot)


def test_run_records_config_outputs_streams_and_exit(tmp_path):
    rundir = tmp_path / "n16" / "reconstruct"
    assert snapshot.run(SRC, rundir, snapshot.SMALL, ["reconstruct"]) == 0
    assert sorted(p.name for p in rundir.iterdir()) == [
        "config.txt", "exit", "out", "stderr", "stdout"]
    assert (rundir / "config.txt").read_text() == snapshot.SMALL
    assert sorted(p.name for p in (rundir / "out").iterdir()) == [
        "metrics.csv", "profile.csv", "recon.csv"]
    assert (rundir / "exit").read_text() == "0\n"
    assert (rundir / "stderr").read_bytes() == b""
    # stdout is metrics.csv's rows, then max |zeta|
    stdout = (rundir / "stdout").read_text().splitlines()
    assert stdout[:-1] == (rundir / "out" / "metrics.csv").read_text().splitlines()[1:]
    assert stdout[-1].startswith("max_zeta,,")


def test_main_refuses_an_existing_out(tmp_path, capsys):
    assert snapshot.main([str(SRC), str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path.resolve()} exists\n"
    assert list(tmp_path.iterdir()) == []


def test_main_refuses_a_src_without_the_package(tmp_path, capsys):
    out = tmp_path / "snap"
    assert snapshot.main([str(tmp_path), str(out)]) == 2
    assert capsys.readouterr().err == f"error: no holoplane package under {tmp_path.resolve()}\n"
    assert not out.exists()
