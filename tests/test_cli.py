import os
import pickle
import platform
import subprocess
import sys

import numpy as np
import pytest

from holoplane import cli, csvrows, fields, geometry
from holoplane.cli import RATE_S_LADDER, _probe_theta, _reconstruct, main, probe_errors
from holoplane.config import parse_config
from holoplane.errors import DegenerateDeterminantError
from holoplane.fields import far_field
from holoplane.geometry import grid_coords, grid_points, make_frame, point_on_plane
from holoplane.recon import BoundedOffset, SqrtScaled, zeta_bounded, zeta_sqrt

from closed_form import two_point_f11

SMALL = "n = 16\n"


def joined(cfg, *names):
    """Whole-grid arrays `names` of the node-block records of `cfg`."""
    blocks = list(_reconstruct(cfg))
    return [np.concatenate([getattr(b, name) for b in blocks]) for name in names]


def run(tmp_path, args, config=SMALL):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg_path), "--out", str(out)] + args)
    return rc, out


class TestSimulate:
    def test_writes_hologram_files(self, tmp_path):
        rc, out = run(tmp_path, ["simulate"])
        assert rc == 0
        lines = (out / "hologram.csv").read_text().splitlines()
        assert lines[0] == "i,j,x2,x3,I"
        assert len(lines) == 1 + 16 * 16
        assert (out / "hologram.pgm").read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_zero_amplitude_gives_uniform_pgm(self, tmp_path):
        rc, out = run(tmp_path, ["simulate"], config=SMALL + "source = 0,0,0,2.5,0\n")
        assert rc == 0
        payload = (out / "hologram.pgm").read_bytes()[-16 * 16 :]
        assert set(payload) == {0}

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        _, out1 = run(tmp_path / "a", ["simulate"])
        _, out2 = run(tmp_path / "b", ["simulate"])
        assert (out1 / "hologram.csv").read_bytes() == (
            out2 / "hologram.csv"
        ).read_bytes()
        assert (out1 / "hologram.pgm").read_bytes() == (
            out2 / "hologram.pgm"
        ).read_bytes()


class TestReconstruct:
    def test_writes_tables_and_metrics(self, tmp_path, capsys):
        rc, out = run(tmp_path, ["reconstruct"])
        assert rc == 0
        recon = (out / "recon.csv").read_text().splitlines()
        assert len(recon) == 1 + 16 * 16
        profile = (out / "profile.csv").read_text().splitlines()
        assert profile[0] == "x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec"
        assert len(profile) == 1 + 16
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "metric,region,value"
        rows = dict()
        for line in metrics[1:]:
            metric, region, value = line.split(",")
            rows[(metric, region)] = float(value)
        assert set(m for m, _ in rows) == {"E", "E_dis"}
        assert set(r for _, r in rows) == {"G", "D", "G\\D"}
        captured = capsys.readouterr()
        assert "E,G," in captured.out
        assert "max_zeta" in captured.out

    def test_zero_field_fails_cleanly(self, tmp_path, capsys):
        # the metric ratios fail after the whole pass: the staged recon.csv
        # and profile.csv are removed, not moved into place
        rc, out = run(tmp_path, ["reconstruct"], config=SMALL + "source = 0,0,0,2.5,0\n")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: reference function vanishes on the region\n"
        assert list(out.iterdir()) == []

    def test_failure_mid_pass_leaves_no_file(self, tmp_path, capsys):
        # node 5100 of the 101 x 101 grid, in the second node block, lies on
        # the source: the first block's rows are already written
        rc, out = run(tmp_path, ["reconstruct"], config="n = 101\nsource = 1, 0, 100, 0, 0\n")
        assert 4096 <= 50 * 101 + 50 < 2 * 4096
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: evaluation point at (100.0, 0.0, 0.0) coincides with a source\n")
        assert list(out.iterdir()) == []

    def test_failure_after_the_profile_leaves_no_file(self, tmp_path, capsys):
        # node 90 * 101 + 50, in the third node block, lies on the source:
        # the profile's nodes 5050-5150, in the second block, are written
        rc, out = run(tmp_path, ["reconstruct"], config="n = 101\nsource = 1, 0, 100, 16, 0\n")
        assert 2 * 4096 <= 90 * 101 + 50 and 5150 < 2 * 4096
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: evaluation point at (100.0, 16.0, 0.0) coincides with a source\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config", [
        "n = 101\nk = 3.2, 2.4, 0\n",
        "dim = 2\nn = 9001\nnoise_level = 0.01\n",
    ])
    def test_outputs_independent_of_node_block(self, tmp_path, monkeypatch, config):
        # block boundaries move the metric sums, not recon.csv, profile.csv
        # or hologram.csv; with k off the plane normal, psi0 differs from
        # node to node
        outs, counts = [], []
        size = parse_config(config).grid_spec().size
        for block in (4096, 1000):
            monkeypatch.setattr(geometry, "NODE_BLOCK", block)
            counts.append(len(geometry.node_blocks(size)))
            for command in ("simulate", "reconstruct"):
                assert run(tmp_path / str(block), [command], config=config)[0] == 0
            outs.append(tmp_path / str(block) / "out")
        assert counts[0] != counts[1]
        for name in ("recon.csv", "profile.csv", "hologram.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_noisy_reconstruction_runs(self, tmp_path):
        rc, out = run(
            tmp_path,
            ["reconstruct"],
            config=SMALL + "noise_level = 0.01\nnoise_seed = 3\n",
        )
        assert rc == 0
        assert (out / "metrics.csv").exists()


class TestProfileBytes:
    """profile.csv, the excerpt of recon.csv's slot words, matches a
    per-row f-string writer, on a bilinear bounded run with NaN rows."""

    BILINEAR = "mode = bilinear\nstrategy = bounded\n"

    def check(self, tmp_path, config, coords, header, steps):
        rc, out = run(tmp_path, ["reconstruct"], config=config)
        assert rc == 0
        cfg = parse_config(config)
        spec = cfg.grid_spec()
        psi1, psi1_rec = joined(cfg, "psi1", "psi1_rec")
        rows = coords(spec)
        # recon.csv is the only file written by chunks, steps[-1] rows at the
        # budget: the profile's nodes cross the bounds of its chunks and of
        # the node blocks, and in d = 3 start and end inside chunks
        lo, hi = rows[0][1], rows[-1][1] + 1
        blocks = list(geometry.node_blocks(spec.size))
        cuts = {b.start + k for b in blocks
                for k in csvrows._chunks(b.stop - b.start, steps[-1])}
        assert any(lo < c < hi for c in cuts) and any(lo < b.start < hi for b in blocks)
        assert spec.frame.dim == 2 or not {lo, hi} & cuts
        expected = header
        for c, idx in rows:
            ex, rec = psi1[idx], psi1_rec[idx]
            expected += (f"{c:.10g},{ex.real:.10g},{ex.imag:.10g},"
                         f"{rec.real:.10g},{rec.imag:.10g}\n")
        assert "nan" in expected
        assert (out / "profile.csv").read_text() == expected

    def test_3d(self, tmp_path, chunk_budget, monkeypatch):
        # the profile's 21 nodes 210-230 of a 21 x 21 grid, in node blocks
        # of 220 and in recon.csv chunks of about 4 rows (4 rows of 30 words)
        monkeypatch.setattr(geometry, "NODE_BLOCK", 220)
        steps = chunk_budget(4 * 30 * 8)

        def column(spec):
            i0 = min(range(spec.n), key=lambda i: abs(spec.coords[i]))
            return [(spec.coords[j], i0 * spec.n + j) for j in range(spec.n)]

        self.check(tmp_path, self.BILINEAR + "n = 21\n", column,
                   "x3,re_psi1,im_psi1,re_psi1rec,im_psi1rec\n", steps)

    def test_2d(self, tmp_path, chunk_budget, monkeypatch):
        # the 301 nodes in node blocks of 128 and in recon.csv chunks of
        # 64 rows (of 32 words)
        monkeypatch.setattr(geometry, "NODE_BLOCK", 128)
        steps = chunk_budget(64 * 32 * 8)

        def line(spec):
            uv = grid_coords(spec)
            return [(u, idx) for idx, u in enumerate(uv[:, 0])]

        self.check(tmp_path, self.BILINEAR + "dim = 2\nn = 301\n", line,
                   "x2,re_psi1,im_psi1,re_psi1rec,im_psi1rec\n", steps)


class TestSplit:
    """A `reconstruct` of SPLIT_MIN_BLOCKS node blocks or more makes its
    pass in two processes (`cli._split_pass`), with the bytes and metric
    bits of the serial pass. Small node blocks force the split on small
    grids, and a stub affinity of two CPUs makes it independent of the
    machine. The profile of the 21 x 21 grid is nodes 210-230: blocks of
    60 cut the grid at node 240 (8 blocks, the excerpt in the first half),
    of 110 at node 220 (5 blocks, across the cut), of 50 at node 200
    (9 blocks, in the second half); blocks of 64 cut the 301-node d = 2
    line, all of it the profile, at node 128. Blocks of 8 give the
    101 x 101 grid 1276 blocks, whose child `Scores` pickles to more than
    64 KiB, the default size of a Linux pipe buffer."""

    @staticmethod
    def split(monkeypatch, block, cpus=(0, 1)):
        """Force the split at `block` nodes a block; return the list that
        gets an entry per fork of this process."""
        forks = []
        fork = os.fork
        monkeypatch.setattr(geometry, "NODE_BLOCK", block)
        monkeypatch.setattr(cli, "SPLIT_MIN_BLOCKS", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @staticmethod
    def outputs(tmp_path, config, capsys):
        out = tmp_path / "out"
        metrics, max_zeta = cli.run_reconstruct(parse_config(config), str(out))
        files = {name: (out / name).read_bytes()
                 for name in ("recon.csv", "profile.csv", "metrics.csv")}
        assert sorted(os.listdir(out)) == sorted(files)
        bits = [(key, repr(value)) for key, value in metrics.items()], repr(max_zeta)
        return files, bits, capsys.readouterr().out

    @pytest.mark.parametrize("config, block", [
        ("n = 21\n", 60),
        ("n = 21\n", 110),
        ("n = 21\n", 50),
        ("n = 21\nnoise_level = 0.01\n", 110),
        ("n = 21\nmode = bilinear\n", 50),
        ("dim = 2\nn = 301\nnoise_level = 0.01\n", 64),
        ("n = 101\n", 8),
    ], ids=["3d-excerpt-first-half", "3d-excerpt-across", "3d-excerpt-second-half",
            "3d-noisy", "3d-bilinear", "2d-noisy", "3d-result-over-64-kib"])
    def test_matches_serial_run(self, tmp_path, monkeypatch, capsys, config, block):
        monkeypatch.setattr(geometry, "NODE_BLOCK", block)
        monkeypatch.setattr(cli, "SPLIT_MIN_BLOCKS", 10**9)
        serial = self.outputs(tmp_path / "serial", config, capsys)
        forks = self.split(monkeypatch, block)
        split = self.outputs(tmp_path / "split", config, capsys)
        assert forks == [1]
        assert split == serial
        lines = split[2].splitlines()
        assert len(lines) == len(set(lines)) == 7  # six metrics and max_zeta

    @pytest.mark.parametrize("block", [1000, 9200], ids=["second-half", "first-half"])
    def test_failure_in_either_half_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                                   block):
        # the source-on-node case of test_failure_after_the_profile_leaves_no_file:
        # node 9140 fails, in the child's half at a cut at node 5000 (11
        # blocks), in this process's at a cut at node 9200 (2 blocks)
        forks = self.split(monkeypatch, block)
        rc, out = run(tmp_path, ["reconstruct"], config="n = 101\nsource = 1, 0, 100, 16, 0\n")
        assert forks == [1]
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: evaluation point at (100.0, 16.0, 0.0) coincides with a source\n")
        assert list(out.iterdir()) == []
        assert not list(tmp_path.rglob("*.part*"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_without_result_fails_loudly(self, tmp_path, monkeypatch, capsys):
        # the child exits before it sends its result; this process never
        # calls pickle.dump
        self.split(monkeypatch, 100)
        monkeypatch.setattr(pickle, "dump", lambda *args: os._exit(3))
        rc, out = run(tmp_path, ["reconstruct"], config="n = 21\n")
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: the process of the second half of the grid exited with 3 "
            "and sent no result\n")
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_cpu_runs_serially(self, tmp_path, monkeypatch, capsys):
        # so does a platform without sched_getaffinity (macOS, Windows)
        monkeypatch.setattr(geometry, "NODE_BLOCK", 50)
        monkeypatch.setattr(cli, "SPLIT_MIN_BLOCKS", 10**9)
        serial = self.outputs(tmp_path / "serial", "n = 21\n", capsys)
        forks = self.split(monkeypatch, 50, cpus=(0,))
        assert self.outputs(tmp_path / "one-cpu", "n = 21\n", capsys) == serial
        monkeypatch.delattr(os, "sched_getaffinity")
        assert self.outputs(tmp_path / "no-affinity", "n = 21\n", capsys) == serial
        assert forks == []

    def test_fork_with_blas_threads(self, tmp_path):
        # a fresh interpreter with BLAS and OpenMP threads left to their
        # defaults writes the same bytes split and serial
        script = ("import os, sys\n"
                  "from holoplane import cli, geometry\n"
                  "geometry.NODE_BLOCK = 1000\n"
                  "cli.SPLIT_MIN_BLOCKS = int(sys.argv[1])\n"
                  "forks, fork = [], os.fork\n"
                  "os.fork = lambda: forks.append(1) or fork()\n"
                  "code = cli.main(sys.argv[2:])\n"
                  "print(f'forks {len(forks)}')\n"
                  "sys.exit(code)\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n = 101\nk = 3.2, 2.4, 0\n")
        outs = []
        for threshold, forks in ((2, 1), (10**9, 0)):
            out = tmp_path / str(threshold)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(threshold), "--config", str(cfg_path),
                 "--out", str(out), "reconstruct"],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == f"forks {forks}"
            outs.append((proc.stdout.splitlines()[:-1],
                         {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert outs[0] == outs[1]
        assert sorted(outs[0][1]) == ["metrics.csv", "profile.csv", "recon.csv"]


class TestStaging:
    """`run_reconstruct` stages its files under hidden names in the output
    directory itself (`cli.STAGED`): a run that fails, serial or split,
    leaves an earlier run's files as they were and no staged name."""

    FILES = ["metrics.csv", "profile.csv", "recon.csv"]

    @pytest.mark.parametrize("config, block", [
        ("n = 101\nsource = 1, 0, 100, 16, 0\n", None),
        ("n = 21\nsource = 0, 0, 0, 2.5, 0\n", None),
        ("n = 101\nsource = 1, 0, 100, 16, 0\n", 1000),
        ("n = 101\nsource = 1, 0, 100, 16, 0\n", 9200),
        ("n = 21\nsource = 0, 0, 0, 2.5, 0\n", 60),
    ], ids=["serial-mid-pass", "serial-after-pass", "split-second-half",
            "split-first-half", "split-after-pass"])
    def test_failure_keeps_an_earlier_run(self, tmp_path, monkeypatch, capsys, config, block):
        # the mid-pass failures are those of TestSplit's failure test; a
        # zero field fails at the metric ratios, after every staged file,
        # the child's part files and result included, is written
        rc, out = run(tmp_path, ["reconstruct"], config="n = 21\n")
        assert rc == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(earlier) == self.FILES
        if block is None:
            monkeypatch.setattr(cli, "SPLIT_MIN_BLOCKS", 10**9)
            forks = []
        else:
            forks = TestSplit.split(monkeypatch, block)
        capsys.readouterr()
        assert run(tmp_path, ["reconstruct"], config=config)[0] == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert forks == ([] if block is None else [1])
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_files_have_the_mode_of_a_plain_open(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        rc, out = run(tmp_path, ["reconstruct"])
        assert rc == 0
        assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} == dict.fromkeys(
            self.FILES, 0o666 & ~umask)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
class TestHeap:
    """Importing `holoplane.cli` pins glibc's mmap and trim thresholds
    (`cli._pin_heap`), so the heap a run's CSV writer works in stays mapped
    from chunk to chunk and from run to run. With glibc's defaults, each
    run in a fresh process faulted its working set back in: about 950 minor
    faults a run at d = 2, n = 4000, and 1250 on the noisy n = 100 grid."""

    SCRIPT = ("import contextlib, io, resource, sys\n"
              "from holoplane import cli\n"
              "from holoplane.config import parse_config\n"
              "cfg = parse_config(sys.argv[1])\n"
              "faults = []\n"
              "for _ in range(4):\n"
              "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        cli.run_reconstruct(cfg, sys.argv[2])\n"
              "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
              "print(*faults)\n")

    @pytest.mark.parametrize("config", ["dim = 2\nn = 4000\n", "n = 100\nnoise_level = 0.01\n"],
                             ids=["2d-n4000", "3d-noisy-n100"])
    def test_warm_runs_take_few_page_faults(self, tmp_path, config):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, config, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults = [int(word) for word in proc.stdout.split()]
        assert len(faults) == 4
        assert max(faults[1:]) <= 50, faults


class TestSweep:
    def test_sweep_table(self, tmp_path):
        rc, out = run(tmp_path, ["sweep", "--param", "s", "--values", "50,100"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,E_G"
        assert len(lines) == 3
        vals = [float(line.split(",")[2]) for line in lines[1:]]
        assert vals[0] > vals[1]  # error shrinks as the plane recedes

    def test_unknown_param_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, ["sweep", "--param", "bogus", "--values", "1"])

    def test_unknown_param_in_library_call(self, tmp_path):
        # the CLI's --param choices stop this before run_sweep
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"^unknown sweep parameter 'foo'$"):
            cli.run_sweep(parse_config(SMALL), "foo", [1], str(out))
        assert not out.exists()

    @pytest.mark.parametrize("param, values, message", [
        ("s", "50,abc", "malformed number 'abc'"),
        ("s", "nan", "number 'nan' is not finite"),
        ("s", "inf", "number 'inf' is not finite"),
        ("kappa", "4,0.01", "eps must lie in (0, 2*kappa)"),
    ])
    def test_bad_value_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                              param, values, message):
        calls = []
        reconstruct = cli._reconstruct
        monkeypatch.setattr(cli, "_reconstruct",
                            lambda cfg: calls.append(cfg) or reconstruct(cfg))
        rc, out = run(tmp_path, ["sweep", "--param", param, "--values", values])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not (out / "sweep.csv").exists()


class TestSourceOnPoint:
    # grid node 4, and the rates probe point at s = 100, is (100, 0, 0)
    CONFIG = "n = 3\nsource = 1, 0, 100, 0, 0\n"

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "rates"])
    def test_names_the_node(self, tmp_path, capsys, command):
        rc, _ = run(tmp_path, [command], config=self.CONFIG)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: evaluation point at (100.0, 0.0, 0.0) coincides with a source\n")


class TestForwardModelPasses:
    """An analytic reconstruct evaluates the forward model on each node
    once, for psi1 and the node intensity, and on each offset point once."""

    @staticmethod
    def count_points(monkeypatch):
        # patch every holoplane binding of eval_radiation, as the perfbench
        # layer counter does
        counts = []
        original = fields.eval_radiation

        def counted(field, kappa, x):
            counts.append(1 if np.ndim(x) == 1 else np.shape(x)[0])
            return original(field, kappa, x)

        for name, module in list(sys.modules.items()):
            if name == "holoplane" or name.startswith("holoplane."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return counts

    @pytest.mark.parametrize("config", ["n = 16\n", "dim = 2\nn = 41\n"])
    def test_two_points_per_node(self, monkeypatch, config):
        cfg = parse_config(config)
        counts = self.count_points(monkeypatch)
        (psi1,) = joined(cfg, "psi1")
        assert sum(counts) == 2 * cfg.grid_spec().size
        monkeypatch.undo()
        np.testing.assert_array_equal(psi1, fields.eval_radiation(
            cfg.radiation_field(), cfg.kappa, grid_points(cfg.grid_spec())))


class TestEmptyRegion:
    @pytest.mark.parametrize("config, region", [
        ("n = 2\n", "D"),  # both nodes per axis at |u| = 20
        ("n = 16\nregion_halfwidth = 50\n", "G\\D"),
    ])
    def test_names_the_empty_region(self, tmp_path, capsys, config, region):
        rc, out = run(tmp_path, ["reconstruct"], config=config)
        assert rc == 2
        assert capsys.readouterr().err == f"error: region {region} holds no grid node\n"
        for name in ("recon.csv", "profile.csv", "metrics.csv"):
            assert not (out / name).exists()

    def test_sweep_scores_g_alone(self, tmp_path, capsys):
        # every node of the half-width 1 grid lies in the box |u| < 4: the
        # region check belongs to scoring on D and G\D, which sweep skips
        config = "n = 16\nh = 1\nregion_halfwidth = 4\n"
        rc, out = run(tmp_path / "sweep", ["sweep", "--param", "s", "--values", "100,200"],
                      config=config)
        assert rc == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
        rc, _ = run(tmp_path / "reconstruct", ["reconstruct"], config=config)
        assert rc == 2
        assert capsys.readouterr().err == "error: region G\\D holds no grid node\n"


class TestReproduce:
    SUMMARY = """\
PASS  E(G) ~ 11.7%: 11.16%
PASS  E(D) ~ 29.7%: 33.01%
PASS  E(G\\D) ~ 10.2%: 10.43%
PASS  E_dis(G) ~ 7.2e-03: 7.21e-03
PASS  E_dis(D) ~ 6.7e-03: 6.42e-03
PASS  E_dis(G\\D) ~ 7.2e-03: 7.24e-03
PASS  E_dis(G) < 0.02 while E(G) > 0.09: 7.21e-03 / 11.2%
PASS  max|zeta| < 15: 3.459
PASS  E(s=5): 24.64%
PASS  E(s=10): 17.00%
PASS  E(s=100): 11.16%
PASS  E(s=200): 10.27%
PASS  E decreasing in s: ['0.246', '0.170', '0.112', '0.103']
PASS  E(kappa=1): 9.31%
PASS  E(kappa=4): 11.16%
PASS  E(kappa=16): 13.14%
FAIL  E(x0_2=0) <= 0.5%: 0.508%
PASS  E(x0_2=2.5): 11.16%
PASS  E(x0_2=5): 21.37%
FAIL  E(c sweep) in [9.7%, 13.8%], spread <= 1pt: ['11.14%', '11.16%', '12.33%', '15.21%']
"""

    def test_summary_and_exit_code(self, tmp_path, capsys):
        # The two FAILs are the standing criterion-2 misses (see README).
        rc, out = run(tmp_path, ["reproduce-paper"])
        assert rc == 1
        assert (out / "summary.txt").read_text() == self.SUMMARY
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[-1] == "SOME CHECKS FAILED"
        assert stdout[-21:-1] == self.SUMMARY.splitlines()
        for param, lines in {"s": 5, "kappa": 4, "x0_2": 4, "c": 5}.items():
            rows = (out / f"sweep_{param}" / "sweep.csv").read_text().splitlines()
            assert len(rows) == lines

    @pytest.mark.parametrize("config, runs", [
        # s = 100, kappa = 4, x0_2 = 2.5 and c = 1 each give the base config
        (SMALL, 11),
        # no sweep value gives the base config
        (SMALL + "s = 60\nkappa = 3\nsource = 0.5, 0, 0, 1, 0\n", 15),
        # with_kappa(4) moves the last bit of this k, so kappa = 4 runs apart
        (SMALL + "k = 2, 3.4641016151377544, 0\n", 12),
    ])
    def test_each_distinct_config_runs_once(self, tmp_path, monkeypatch, config, runs):
        made = []
        block_records = cli._block_records
        monkeypatch.setattr(cli, "_block_records",
                            lambda cfg: made.append(cfg) or block_records(cfg))
        rc, out = run(tmp_path / "reproduce", ["reproduce-paper"], config=config)
        assert rc == 1
        assert len(made) == len(set(made)) == runs
        cfg = parse_config(config)
        assert (cfg.with_kappa(cfg.kappa) == cfg) == (runs != 12)
        # each sweep.csv is the standalone sweep's, byte for byte
        for param, values in cli.REFERENCE_SWEEPS.items():
            alone = tmp_path / f"sweep_{param}"
            cli.run_sweep(cfg, param, values, str(alone))
            assert ((out / f"sweep_{param}" / "sweep.csv").read_bytes()
                    == (alone / "sweep.csv").read_bytes())


class TestRates:
    def test_rates_table_and_slopes(self, tmp_path, capsys):
        rc, out = run(tmp_path, ["rates"])
        assert rc == 0
        lines = (out / "rates.csv").read_text().splitlines()
        assert lines[0] == "strategy,s,error"
        strategies = {line.split(",")[0] for line in lines[1:]}
        assert strategies == {"sqrt", "bounded"}
        assert "slope" in capsys.readouterr().out

    def test_2d_adds_refined_study(self, tmp_path):
        rc, out = run(tmp_path, ["rates"], config="dim = 2\nn = 16\n")
        assert rc == 0
        lines = (out / "rates.csv").read_text().splitlines()
        strategies = {line.split(",")[0] for line in lines[1:]}
        assert strategies == {"sqrt", "bounded", "bounded_refined"}

    @pytest.mark.parametrize("config", ["source = 0, 0, 0, 2.5, 0\n",
                                        "dim = 2\nsource = 0, 0, 0, 0.5\n"])
    def test_zero_field_fails_cleanly(self, tmp_path, capsys, config):
        # every probe error is exactly 0, so no slope can be fitted
        rc, out = run(tmp_path, ["rates"], config=SMALL + config)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: sqrt probe error is 0 at s = 50: no convergence rate\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config", ["", "dim = 2\n"])
    def test_slopes_need_no_lapack(self, tmp_path, capsys, monkeypatch, config):
        # the slopes are fitted in closed form, so a run with numpy's
        # least-squares routines broken writes the bytes of an unbroken one
        cfg = parse_config(config)
        want = cli.run_rates(cfg, str(tmp_path / "plain"))
        printed = capsys.readouterr().out

        def lapack(*args, **kwargs):
            raise AssertionError("least-squares routine called")

        monkeypatch.setattr(np.linalg, "lstsq", lapack)
        monkeypatch.setattr(np, "polyfit", lapack)
        got = cli.run_rates(cfg, str(tmp_path / "patched"))
        assert [slope for _, slope in got.values()] == [slope for _, slope in want.values()]
        assert capsys.readouterr().out == printed
        assert ((tmp_path / "patched" / "rates.csv").read_bytes()
                == (tmp_path / "plain" / "rates.csv").read_bytes())

    def test_rates_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma costs a fresh process about 10 ms and 1.2 MB to import;
        # nothing on the rates path needs it
        script = ("import sys\n"
                  "from holoplane import cli\n"
                  "from holoplane.config import parse_config\n"
                  "cli.run_rates(parse_config('dim = 2\\n'), sys.argv[1])\n"
                  "print('numpy.ma' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.splitlines()[-1] == "False"


def scalar_probe(cfg, strategy_name, refine2d=False):
    """The rates probe one s at a time through the offset helpers and the
    closed-form estimator; the reference for the batched `probe_errors`."""
    theta = _probe_theta(cfg)
    field, params = cfg.radiation_field(), cfg.wave_params()
    f1 = far_field(field, params.kappa, theta)
    rows = []
    for s in RATE_S_LADDER:
        frame = make_frame(np.array(cfg.omega), s)
        x = point_on_plane(theta, frame)
        if strategy_name == "bounded":
            zeta = zeta_bounded(theta, params, frame, cfg.alpha, cfg.eps)
        else:
            zeta = zeta_sqrt(theta, params, frame, -abs(cfg.alpha),
                             float(np.linalg.norm(x)))
        est = two_point_f11(field, params, x, x + zeta, refine2d)
        rows.append((s, abs(est - f1)))
    return rows


class TestProbe:
    @pytest.mark.parametrize("config, name, refine2d", [
        ("", "sqrt", False),
        ("", "bounded", False),
        ("dim = 2\n", "sqrt", False),
        ("dim = 2\n", "bounded", False),
        ("dim = 2\n", "bounded", True),
        ("strategy = bounded\nalpha = 0.7\n", "sqrt", False),
        ("strategy = bounded\nalpha = 0.7\n", "bounded", False),
        ("k = 3.2, 2.4, 0\n", "sqrt", False),
    ])
    def test_batch_matches_scalar_chain(self, config, name, refine2d):
        cfg = parse_config(config)
        if name == "bounded":
            strategy = BoundedOffset(cfg.alpha, cfg.eps)
        else:
            strategy = SqrtScaled(-abs(cfg.alpha))
        got = probe_errors(cfg, cli._probe(cfg), strategy, refine2d=refine2d)
        want = scalar_probe(cfg, name, refine2d)
        assert [s for s, _ in got] == list(RATE_S_LADDER)
        # Batched and 1-d norms round differently, hence not bit-equal.
        np.testing.assert_allclose([e for _, e in got], [e for _, e in want],
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("config", [
        "n = 37\n", "n = 40\n", "omega = 0.8, 0.6, 0\nn = 41\n", "dim = 2\nn = 40\n"])
    def test_probe_is_the_nearest_node(self, config):
        # the reference searches the whole grid for the node nearest (10, 10)
        cfg = parse_config(config)
        spec = cfg.grid_spec()
        x = grid_points(spec)[np.argmin(np.linalg.norm(grid_coords(spec) - 10.0, axis=1))]
        np.testing.assert_array_equal(_probe_theta(cfg), x / np.linalg.norm(x))

    def test_rates_table_matches_scalar_chain(self, tmp_path):
        config = "dim = 2\nstrategy = bounded\nalpha = 0.7\n"
        rc, out = run(tmp_path, ["rates"], config=config)
        assert rc == 0
        cfg = parse_config(config)
        want = [(name, s, err)
                for name, strategy, refine2d in [("sqrt", "sqrt", False),
                                                 ("bounded", "bounded", False),
                                                 ("bounded_refined", "bounded", True)]
                for s, err in scalar_probe(cfg, strategy, refine2d)]
        rows = [line.split(",") for line in
                (out / "rates.csv").read_text().splitlines()[1:]]
        assert [(name, float(s)) for name, s, _ in rows] == [(n, s) for n, s, _ in want]
        np.testing.assert_allclose([float(e) for _, _, e in rows],
                                   [e for _, _, e in want], rtol=1e-5)

    def test_rates_run_makes_one_probe(self, tmp_path, monkeypatch):
        made = []
        probe_theta = cli._probe_theta
        monkeypatch.setattr(cli, "_probe_theta", lambda cfg: made.append(cfg) or probe_theta(cfg))
        rc, out = run(tmp_path, ["rates"], config="dim = 2\nn = 40\n")
        assert rc == 0 and len(made) == 1
        assert len((out / "rates.csv").read_text().splitlines()) == 1 + 3 * len(RATE_S_LADDER)

    @pytest.mark.parametrize("config, studies", [(SMALL, 2), ("dim = 2\nn = 40\n", 3)])
    def test_rates_run_calls_probe_errors_per_study(self, tmp_path, monkeypatch, config,
                                                     studies):
        calls = []
        for name in ("_probe_theta", "probe_errors"):
            monkeypatch.setattr(cli, name, lambda *args, _f=getattr(cli, name), _name=name:
                                calls.append(_name) or _f(*args))
        rc, _ = run(tmp_path, ["rates"], config=config)
        assert rc == 0
        assert calls == ["_probe_theta"] + ["probe_errors"] * studies

    @pytest.mark.parametrize("config", [
        "", "dim = 2\n", "dim = 2\nstrategy = bounded\nalpha = 0.7\n",
        "omega = 0.8, 0.6, 0\nn = 41\n"])
    def test_rates_has_the_bits_of_separate_probes(self, tmp_path, config):
        cfg = parse_config(config)
        table = cli.run_rates(cfg, str(tmp_path))
        bounded = BoundedOffset(cfg.alpha, cfg.eps)
        studies = {"sqrt": (SqrtScaled(-abs(cfg.alpha)), False),
                   "bounded": (bounded, False), "bounded_refined": (bounded, True)}
        assert list(table) == list(studies)[:5 - cfg.dim]
        lines = ["strategy,s,error"]
        for name, (rows, _) in table.items():
            strategy, refine2d = studies[name]
            alone = probe_errors(cfg, cli._probe(cfg), strategy, refine2d=refine2d)
            assert np.array(rows).tobytes() == np.array(alone).tobytes()
            lines += [f"{name},{s:.6g},{err:.6g}" for s, err in alone]
        assert (tmp_path / "rates.csv").read_text() == "\n".join(lines) + "\n"
        # the probe's planes are the measurement plane moved to each s
        theta = _probe_theta(cfg)
        want = [point_on_plane(theta, make_frame(np.array(cfg.omega), s))
                for s in RATE_S_LADDER]
        assert cli._probe(cfg)[0].tobytes() == np.array(want).tobytes()

    def test_exceptional_probe_exits_2_after_sqrt_rows(self, tmp_path, capsys):
        rc, out = run(tmp_path, ["rates"], config="strategy = bounded\neps = 1\n")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: |kappa*theta_par - k_par| = 0.554563628672334 < eps = 1.0\n"
        # the bounded study fails, and rates.csv is opened only after all ran
        assert not (out / "rates.csv").exists()

    def test_determinant_at_the_floor_raises(self, monkeypatch):
        # |D| = DET_FLOOR exactly counts as degenerate
        kernel = cli.reconstruct_points

        def at_floor(*args):
            zeta, D, *rest = kernel(*args)
            return (zeta, np.full_like(D, 1j * cli.DET_FLOOR), *rest)

        monkeypatch.setattr(cli, "reconstruct_points", at_floor)
        cfg = parse_config("")
        with pytest.raises(DegenerateDeterminantError, match=r"^\|D\| = 1e-06 <= 1e-06$"):
            probe_errors(cfg, cli._probe(cfg), SqrtScaled(-0.5))

    def test_small_determinant_raises(self, monkeypatch):
        monkeypatch.setattr(cli, "DET_FLOOR", 2.0)  # |D| <= 2 always
        cfg = parse_config("")
        with pytest.raises(DegenerateDeterminantError, match=r"^\|D\| = [0-9.e-]+ <= 2\.0$"):
            probe_errors(cfg, cli._probe(cfg), SqrtScaled(-0.5))


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self, tmp_path):
        # `python -m holoplane.cli` without --config runs the default
        # config, which an empty config file also gives
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        out = tmp_path / "module"
        proc = subprocess.run(
            [sys.executable, "-m", "holoplane.cli", "--out", str(out), "simulate"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, lib = run(tmp_path / "lib", ["simulate"], config="")
        assert rc == 0
        files = {p.name: p.read_bytes() for p in sorted(lib.iterdir())}
        assert sorted(files) == ["hologram.csv", "hologram.pgm"]
        assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == files

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("bogus = 1\n")
        rc = main(["--config", str(cfg_path), "simulate"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-file"])
    def test_unreadable_path_fails_cleanly(self, tmp_path, capsys, case):
        cfg_path, out = tmp_path / "exp.cfg", tmp_path / "out"
        if case == "directory":
            cfg_path.mkdir()
        elif case == "not-utf8":
            cfg_path.write_bytes(b"\xff\xfen = 16\n")
        elif case == "out-is-file":
            cfg_path.write_text(SMALL)
            out.write_text("")
        rc = main(["--config", str(cfg_path), "--out", str(out), "rates"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        # no output directory is made, and a file in its place is left alone
        assert out.read_text() == "" if case == "out-is-file" else not out.exists()

    @pytest.mark.parametrize("line", ["n = inf", "n = nan", "s = nan", "h = inf"])
    def test_non_finite_number_fails_cleanly(self, tmp_path, capsys, line):
        rc, out = run(tmp_path, ["reconstruct"], config=line + "\n")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1:")
        assert "Traceback" not in err
        assert not out.exists()
