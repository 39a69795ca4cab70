import pytest

from holoplane.cli import main

SMALL = "n = 16\n"


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
        rc, _ = run(tmp_path, ["reconstruct"], config=SMALL + "source = 0,0,0,2.5,0\n")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_noisy_reconstruction_runs(self, tmp_path):
        rc, out = run(
            tmp_path,
            ["reconstruct"],
            config=SMALL + "noise_level = 0.01\nnoise_seed = 3\n",
        )
        assert rc == 0
        assert (out / "metrics.csv").exists()


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


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("bogus = 1\n")
        rc = main(["--config", str(cfg_path), "simulate"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
