from dataclasses import replace

import numpy as np
import pytest

from holoplane.cli import main
from holoplane.config import ExperimentConfig, parse_config
from holoplane.errors import ConfigError
from holoplane.cli import compute_metrics
from holoplane.metrics import box_axis, in_box


class TestDefaults:
    def test_empty_input_is_reference_experiment(self):
        cfg = parse_config("")
        assert cfg.dim == 3
        assert cfg.kappa == 4.0
        assert cfg.k == (4.0, 0.0, 0.0)
        assert cfg.s == 100.0
        assert cfg.sources == ((1.0 + 0j, (0.0, 2.5, 0.0)),)
        assert cfg.h == 20.0 and cfg.n == 100
        assert cfg.strategy == "sqrt" and cfg.alpha == -0.5
        assert cfg.mode == "analytic"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# a comment\n  \ns = 50  # trailing comment\n")
        assert cfg.s == 50.0

    def test_2d_defaults(self):
        cfg = parse_config("dim = 2")
        assert cfg.k == (4.0, 0.0)
        assert cfg.sources == ((1.0 + 0j, (0.0, 2.5)),)


class TestValidation:
    def test_k_kappa_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config("kappa = 4\nk = 3,0,0")

    def test_kappa_alone_rescales_k(self):
        cfg = parse_config("kappa = 8")
        assert cfg.k == (8.0, 0.0, 0.0)

    def test_positive_alpha_rejected_for_sqrt(self):
        with pytest.raises(ConfigError):
            parse_config("alpha = 0.5")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("s = 100\nbogus = 1")
        assert exc.value.line == 2

    def test_malformed_number_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("h = twenty")
        assert exc.value.line == 1

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just some text")

    def test_integer_keys_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("n = 10.5")

    @pytest.mark.parametrize("line", ["n = inf", "n = nan", "s = nan", "h = inf",
                                      "kappa = -inf"])
    def test_non_finite_number_reports_line(self, line):
        with pytest.raises(ConfigError) as exc:
            parse_config("dim = 3\n" + line)
        assert exc.value.line == 2
        assert "not finite" in str(exc.value)


# One config per rule that a domain object owns, with the text of its error
# (the last row is the parser's boolean rule). In each text the last line
# breaks the rule.
DOMAIN_RULES = [
    ("kappa = -1", "kappa must be positive"),
    ("kappa = 4\nk = 3, 0, 0", r"\|k\| must equal kappa"),
    ("s = -1", "plane distance s must be positive"),
    ("h = 0", "half_width must be positive"),
    ("n = 1", "at least 2 points"),
    ("source = 1, 0, 0, 2.5", "source location dimension mismatch"),
    ("alpha = 0.5", "alpha must be negative"),
    ("strategy = bounded\nalpha = 0", r"sin\(alpha\) != 0"),
    ("strategy = hybrid\nalpha = 0.5", "alpha must be negative"),
    ("omega = 2, 0, 0", r"unit vector \(\|omega\| = 2\.0\)$"),
    ("omega = 0, 0, 0", "omega must be nonzero"),
    ("source = 1, 0, 0, 2.5, 0\nsource = 1, 0, 0, 2.5, 0", "distinct"),
    ("noise_level = 0.01\nnoise_seed = -1", "noise_seed must be nonnegative"),
    ("dim = 4", "dim must be 2 or 3"),
    ("k = 4, 0, 0, 0", "k and omega must have `dim` components"),
    ("strategy = foo", "unknown strategy 'foo'"),
    ("mode = cubic", "unknown lookup mode 'cubic'"),
    ("noise_level = -0.1", "noise_level must be nonnegative"),
    ("region_halfwidth = 0", "region_halfwidth must be positive"),
    ("refine2d = maybe", "^line 1: refine2d must be a boolean$"),
]


class TestConstruction:
    """Every instance is checked, however it is made."""

    @pytest.mark.parametrize("text, message", DOMAIN_RULES)
    def test_domain_rule_is_config_error(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize("text, message", DOMAIN_RULES)
    def test_domain_rule_exits_2_with_one_line(self, tmp_path, capsys, text,
                                               message):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text + "\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg_path), "--out", str(out), "reconstruct"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {text.count(chr(10)) + 1}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, line", [
        ("n = 5\nh = 3\nomega = 2, 0, 0", 3),
        ("omega = 2, 0, 0\nn = 50", 1),
        ("h = 0\nomega = 0.6, 0.8, 0", 1),
        ("kappa = 4\nk = 3, 0, 0\nmode = analytic", 2),
        ("k = 4, 0\nn = 50", 1),
        ("dim = 2\nn = 50\nk = 4, 0, 0", 3),
        ("source = 1, 0, 0, 2.5, 0\nn = 5\nsource = 1, 0, 0, 2.5, 0", 3),
        ("kappa = 0.04\nn = 50", 1),
        # a later line sets another field of the same domain object
        ("omega = 2, 0, 0\ns = 50", 1),
        ("alpha = 0.5\neps = 0.2", 1),
        ("h = -1\nn = 5", 1),
        ("kappa = -1\nk = 4, 0, 0", 1),
        ("n = 1\nh = 3", 1),
    ])
    def test_domain_rule_names_the_last_line_of_its_keys(self, text, line):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")

    # A config built without text names no line.
    def test_direct_instance_checked(self):
        with pytest.raises(ConfigError, match="^grid needs at least 2 points") as exc:
            ExperimentConfig(n=1)
        assert exc.value.line is None

    def test_replaced_instance_checked(self):
        with pytest.raises(ConfigError, match="^plane distance s") as exc:
            replace(ExperimentConfig(), s=-1)
        assert exc.value.line is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, build", [
        ("dim", lambda x: {"dim": x}),
        ("kappa", lambda x: {"kappa": x}),
        ("k", lambda x: {"k": (4.0, x, 0.0)}),
        ("omega", lambda x: {"omega": (1.0, 0.0, x)}),
        ("s", lambda x: {"s": x}),
        ("source 1 c", lambda x: {"sources": ((complex(1.0, x), (0.0, 2.5, 0.0)),)}),
        ("source 2 x0", lambda x: {"sources": ((1.0 + 0j, (0.0, 2.5, 0.0)),
                                               (1.0 + 0j, (x, 0.0, 0.0)))}),
        ("h", lambda x: {"h": x}),
        ("n", lambda x: {"n": x}),
        ("alpha", lambda x: {"alpha": x}),
        ("eps", lambda x: {"eps": x}),
        ("noise_level", lambda x: {"noise_level": x}),
        ("noise_seed", lambda x: {"noise_seed": x}),
        ("region_halfwidth", lambda x: {"region_halfwidth": x}),
    ])
    def test_non_finite_field_rejected(self, field, build, value):
        # NaN fails no comparison-based rule, so each field needs the check
        with pytest.raises(ConfigError, match=f"^{field} must be finite$"):
            replace(ExperimentConfig(), **build(value))

    def test_only_final_state_checked(self):
        # the default eps = 0.1 is >= 2 kappa here; only the final
        # (kappa, eps) pair counts
        cfg = parse_config("kappa = 0.04\neps = 0.01")
        assert (cfg.kappa, cfg.eps) == (0.04, 0.01)
        np.testing.assert_allclose(cfg.k, (0.04, 0.0, 0.0))


class TestSources:
    def test_source_lines_replace_default(self):
        cfg = parse_config("source = 2, -1, 0, 1, 0\nsource = 1, 0, 0, -1, 0")
        assert cfg.sources == (
            (2.0 - 1.0j, (0.0, 1.0, 0.0)),
            (1.0 + 0.0j, (0.0, -1.0, 0.0)),
        )

    def test_short_source_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("source = 1, 0")

    @pytest.mark.parametrize("line, message", [
        # two numbers give no location; three give a location of one
        # coordinate, which the dimension rule refuses
        ("source = 1, 0", r"^line 1: source needs re_c, im_c, x0\.\.\.$"),
        ("source = 1, 0, 2.5", r"^line 1: source location dimension mismatch$"),
    ])
    def test_source_arity_boundary(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(line)

    def test_non_finite_source_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("source = 1, 0, 0, 2.5, 0\nsource = 1, 0, nan, 1, 0")
        assert exc.value.line == 2


class TestDerivedObjects:
    def test_wave_params(self):
        p = ExperimentConfig().wave_params()
        assert p.kappa == 4.0
        np.testing.assert_allclose(p.k, [4.0, 0.0, 0.0])

    def test_grid_spec(self):
        spec = ExperimentConfig().grid_spec()
        assert spec.n == 100
        assert spec.half_width == 20.0
        assert spec.frame.s == 100.0

    def test_with_kappa_keeps_direction(self):
        cfg = ExperimentConfig().with_kappa(16.0)
        assert cfg.kappa == 16.0
        np.testing.assert_allclose(cfg.k, (16.0, 0.0, 0.0))

    def test_strategy_objects(self):
        assert type(ExperimentConfig().zeta_strategy()).__name__ == "SqrtScaled"
        cfg = parse_config("strategy = bounded")
        assert type(cfg.zeta_strategy()).__name__ == "BoundedOffset"

    def test_refine_flag_parses(self):
        assert parse_config("refine2d = true").refine2d
        assert not parse_config("refine2d = false").refine2d

    def test_objects_are_built_once(self):
        cfg = parse_config("dim = 2\nn = 40\n")
        assert cfg.grid_spec().frame is cfg.frame()
        for name in ("wave_params", "frame", "grid_spec", "radiation_field"):
            assert getattr(cfg, name)() is getattr(cfg, name)()

    def test_replace_builds_fresh_objects(self):
        cfg = parse_config("dim = 2\nn = 40\n")
        moved = replace(cfg, s=50.0, kappa=2.0, k=(2.0, 0.0))
        assert moved.frame() is not cfg.frame() and moved.frame().s == 50.0
        assert moved.grid_spec().frame is moved.frame()
        assert moved.wave_params().kappa == 2.0 and cfg.wave_params().kappa == 4.0
        same = replace(cfg)
        assert same == cfg
        for name in ("wave_params", "frame", "grid_spec", "radiation_field"):
            assert getattr(same, name)() is not getattr(cfg, name)()

    def test_equality_hash_and_repr_read_the_fields_alone(self):
        a, b = parse_config("s = 50\n"), ExperimentConfig(s=50.0)
        assert a.frame() is not b.frame()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_frame" not in repr(a)
        assert {a: 1}[b] == 1
        assert a != replace(a, s=60.0)


class TestReferenceBox:
    """The default central box D is the one the reference error levels
    imply.  Over a split of G into D and G\\D, the error E obeys
    E(G)^2 = w E(D)^2 + (1 - w) E(G\\D)^2 with w = |psi1|^2_D / |psi1|^2_G,
    whatever the reconstruction; so the reference values
    (E(G), E(D), E(G\\D)) = (0.117, 0.297, 0.102), each rounded to the
    third digit, fix w, and with it the size of D on the reference grid."""

    REFERENCE = (0.117, 0.297, 0.102)

    @staticmethod
    def _share(e_g, e_d, e_gd):
        return (e_g**2 - e_gd**2) / (e_d**2 - e_gd**2)

    def _forced_interval(self):
        # w grows with E(G) and falls with E(D) and E(G\D): the extremes
        # sit at opposite corners of the rounding box
        g, d, gd = self.REFERENCE
        r = 0.0005
        return self._share(g - r, d + r, gd + r), self._share(g + r, d - r, gd - r)

    @staticmethod
    def _field_share(psi1, mask):
        return np.sum(np.abs(psi1[mask]) ** 2) / np.sum(np.abs(psi1) ** 2)

    def test_default_box_holds_forced_share(self, preset_run):
        _, result = preset_run
        d = in_box(result.spec, box_axis(result.spec, ExperimentConfig().region_halfwidth))
        lo, hi = self._forced_interval()  # about [0.039, 0.045]
        assert lo <= self._field_share(result.psi1, d) <= hi

    def test_split_identity(self, preset_run):
        cfg, result = preset_run
        psi1 = result.psi1
        d = in_box(result.spec, box_axis(result.spec, cfg.region_halfwidth))
        w = self._field_share(psi1, d)
        e = {k: value for (metric, k), value in compute_metrics(cfg, [result]).items()
             if metric == "E"}
        assert e["G"] ** 2 == pytest.approx(
            w * e["D"] ** 2 + (1 - w) * e["G\\D"] ** 2, rel=1e-12
        )
