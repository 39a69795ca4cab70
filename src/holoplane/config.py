"""Line-oriented `key = value` experiment configuration.

An empty config reproduces the reference desk-scale experiment:
kappa = 4, k = (4, 0, 0), plane normal e1 at distance s = 100, a unit
point source at (0, 2.5, 0), a 100x100 grid with half-width 20, and the
sqrt-scaled offset with alpha = -1/2. Errors are reported on the whole
patch G, on the central box D = {|u_i| < 4} around the singular
direction, and on G \\ D.

Vectors are comma-separated; `#` starts a comment; a `source` line is
`re_c, im_c, x0_1, ..., x0_d` and may repeat to add sources.

Construction validates: an `ExperimentConfig`, however it is made, raises
`ConfigError` on any input out of its domain.  Each rule is written once,
in the type that enforces it; the config builds its domain objects to run
their checks, keeps them for its accessors, and checks here only what no
domain object owns.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DomainError
from .fields import PointSource, RadiationField, WaveParams
from .geometry import GridSpec, make_frame
from .recon import BoundedOffset, HybridStrategy, SqrtScaled

@dataclass(frozen=True)
class ExperimentConfig:
    dim: int = 3
    kappa: float = 4.0
    k: tuple = (4.0, 0.0, 0.0)
    omega: tuple = (1.0, 0.0, 0.0)
    s: float = 100.0
    sources: tuple = ((complex(1.0), (0.0, 2.5, 0.0)),)
    h: float = 20.0
    n: int = 100
    strategy: str = "sqrt"  # sqrt | bounded | hybrid
    alpha: float = -0.5
    eps: float = 0.1
    mode: str = "analytic"
    refine2d: bool = False
    noise_level: float = 0.0
    noise_seed: int = 0
    region_halfwidth: float = 4.0

    def __post_init__(self):
        # Every comparison with NaN is false, so no rule below would see one.
        numbers = [(key, key, getattr(self, key)) for key, kind in _KEY_TYPES.items()
                   if kind is not str]
        for i, (c, x0) in enumerate(self.sources, start=1):
            numbers += [(f"source {i} c", "sources", c), (f"source {i} x0", "sources", x0)]
        for name, key, value in numbers:
            if not np.all(np.isfinite(value)):
                raise ConfigError(f"{name} must be finite", key)
        if self.dim not in (2, 3):
            raise ConfigError("dim must be 2 or 3", "dim")
        if len(self.k) != self.dim or len(self.omega) != self.dim:
            raise ConfigError("k and omega must have `dim` components", "dim", "k", "omega")
        if self.strategy not in ("sqrt", "bounded", "hybrid"):
            raise ConfigError(f"unknown strategy {self.strategy!r}", "strategy")
        try:
            params = WaveParams(kappa=self.kappa, k=np.array(self.k, dtype=float))
            frame = make_frame(np.array(self.omega, dtype=float), self.s)
            spec = GridSpec(frame=frame, half_width=self.h, n=self.n)
            field = RadiationField(dim=self.dim, sources=tuple(
                PointSource(c=c, x0=np.array(x0, dtype=float)) for c, x0 in self.sources))
            self.zeta_strategy()
        except DomainError as exc:
            # the grid's half_width is the key h
            keys = ("h" if key == "half_width" else key for key in exc.keys)
            raise ConfigError(str(exc), *keys) from exc
        # kept for the accessors below, past the frozen dataclass's __setattr__;
        # not fields, so equality, hash and repr do not read them
        for name, value in (("_wave_params", params), ("_frame", frame),
                            ("_grid_spec", spec), ("_radiation_field", field)):
            object.__setattr__(self, name, value)
        if not 0 < self.eps < 2 * self.kappa:
            raise ConfigError("eps must lie in (0, 2*kappa)", "eps", "kappa")
        if self.mode not in ("analytic", "bilinear"):
            raise ConfigError(f"unknown lookup mode {self.mode!r}", "mode")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be nonnegative", "noise_level")
        if self.noise_seed < 0:
            raise ConfigError("noise_seed must be nonnegative", "noise_seed")
        if self.region_halfwidth <= 0:
            raise ConfigError("region_halfwidth must be positive", "region_halfwidth")

    # --- derived objects -------------------------------------------------
    # The domain objects are immutable (their arrays are read-only), so each
    # call returns the one that construction built and checked.

    def wave_params(self):
        return self._wave_params

    def frame(self):
        return self._frame

    def radiation_field(self):
        return self._radiation_field

    def grid_spec(self):
        return self._grid_spec

    def zeta_strategy(self):
        if self.strategy == "bounded":
            return BoundedOffset(alpha=self.alpha, eps=self.eps)
        if self.strategy == "sqrt":
            return SqrtScaled(alpha=self.alpha)
        return HybridStrategy(
            bounded=BoundedOffset(alpha=self.alpha, eps=self.eps),
            sqrt=SqrtScaled(alpha=self.alpha),
        )

    def with_kappa(self, kappa):
        """Rescale kappa, keeping k collinear."""
        return replace(self, kappa=float(kappa), k=_rescaled(self.k, kappa))


# The type of each config-file key, read off the dataclass; `source` lines
# build `sources`.
_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "sources"}


def _rescaled(k, kappa):
    k = np.array(k, dtype=float)
    return tuple(k * (kappa / np.linalg.norm(k)))


def _parse_number(text, line_no):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"malformed number {text!r}", line=line_no) from None
    if not math.isfinite(value):
        raise ConfigError(f"number {text.strip()!r} is not finite",
                          line=line_no)
    return value


def _parse_vector(text, line_no):
    return tuple(_parse_number(p, line_no) for p in text.split(","))


# Defaults that differ in d=2 from the reference (d=3) experiment.
_DIM2_DEFAULTS = {
    "k": (4.0, 0.0),
    "omega": (1.0, 0.0),
    "sources": ((complex(1.0), (0.0, 2.5)),),
}


def parse_config(text):
    """Parse config text; unset keys default to the reference experiment.
    An error names its line; a rule's, the last that set a key the rule reads."""
    entries = {}
    sources = []
    lines = {}  # the last line that set each field
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        lines["sources" if key == "source" else key] = line_no
        if key == "source":
            parts = _parse_vector(value, line_no)
            if len(parts) < 3:
                raise ConfigError("source needs re_c, im_c, x0...", line=line_no)
            sources.append((complex(parts[0], parts[1]), tuple(parts[2:])))
            continue
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r}", line=line_no)
        if kind is bool:
            if value.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"{key} must be a boolean", line=line_no)
            entries[key] = value.lower() in ("true", "1")
        elif kind is tuple:
            entries[key] = _parse_vector(value, line_no)
        elif kind is str:
            entries[key] = value
        else:
            num = _parse_number(value, line_no)
            if kind is int:
                if num != int(num):
                    raise ConfigError(f"{key} must be an integer", line=line_no)
                num = int(num)
            entries[key] = num

    if sources:
        entries["sources"] = tuple(sources)
    defaults = _DIM2_DEFAULTS if entries.get("dim") == 2 else {}
    if "kappa" in entries and "k" not in entries:
        # keep k collinear with the default when only the wavenumber is set
        entries["k"] = _rescaled(defaults.get("k", ExperimentConfig.k),
                                 entries["kappa"])
    try:
        return ExperimentConfig(**{**defaults, **entries})
    except ConfigError as exc:
        line = max((lines[key] for key in exc.keys if key in lines), default=None)
        raise ConfigError(str(exc), line=line) from None
