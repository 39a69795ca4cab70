"""Line-oriented `key = value` experiment configuration.

An empty config reproduces the reference desk-scale experiment:
kappa = 4, k = (4, 0, 0), plane normal e1 at distance s = 100, a unit
point source at (0, 2.5, 0), a 100x100 grid with half-width 20, and the
sqrt-scaled offset with alpha = -1/2.

Vectors are comma-separated; `#` starts a comment; a `source` line is
`re_c, im_c, x0_1, ..., x0_d` and may repeat to add sources.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .fields import PointSource, RadiationField, WaveParams
from .geometry import GridSpec, make_frame
from .recon import BoundedOffset, HybridStrategy, SqrtScaled

_SCALAR_KEYS = {
    "dim": int,
    "kappa": float,
    "s": float,
    "h": float,
    "n": int,
    "alpha": float,
    "eps": float,
    "fallback_axis": int,
    "noise_level": float,
    "noise_seed": int,
    "region_halfwidth": float,
}
_VECTOR_KEYS = {"k", "omega"}
_STRING_KEYS = {"strategy", "mode"}
_BOOL_KEYS = {"refine2d"}


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
    fallback_axis: int = 0
    mode: str = "analytic"
    refine2d: bool = False
    noise_level: float = 0.0
    noise_seed: int = 0
    region_halfwidth: float = 2.0

    def validate(self):
        if self.dim not in (2, 3):
            raise ConfigError("dim must be 2 or 3")
        if len(self.k) != self.dim or len(self.omega) != self.dim:
            raise ConfigError("k and omega must have `dim` components")
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if abs(np.linalg.norm(self.k) - self.kappa) > 1e-9 * self.kappa:
            raise ConfigError("|k| must equal kappa")
        if self.s <= 0 or self.h <= 0:
            raise ConfigError("s and h must be positive")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        for c, x0 in self.sources:
            if len(x0) != self.dim:
                raise ConfigError("source location must have `dim` components")
        if self.strategy not in ("sqrt", "bounded", "hybrid"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.strategy in ("sqrt", "hybrid"):
            if self.alpha >= 0 or math.sin(self.alpha) == 0:
                raise ConfigError("sqrt strategy needs alpha < 0, sin(alpha) != 0")
        else:
            if self.alpha == 0 or math.sin(self.alpha) == 0:
                raise ConfigError("bounded strategy needs alpha != 0, sin(alpha) != 0")
        if not 0 < self.eps < 2 * self.kappa:
            raise ConfigError("eps must lie in (0, 2*kappa)")
        if not 0 <= self.fallback_axis < self.dim - 1:
            raise ConfigError("fallback_axis out of range")
        if self.mode not in ("analytic", "bilinear"):
            raise ConfigError(f"unknown lookup mode {self.mode!r}")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be nonnegative")
        if self.region_halfwidth <= 0:
            raise ConfigError("region_halfwidth must be positive")
        return self

    # --- derived objects -------------------------------------------------

    def wave_params(self):
        return WaveParams(kappa=self.kappa, k=np.array(self.k, dtype=float))

    def frame(self, s=None):
        return make_frame(np.array(self.omega, dtype=float),
                          self.s if s is None else s)

    def radiation_field(self):
        srcs = tuple(PointSource(c=c, x0=np.array(x0, dtype=float))
                     for c, x0 in self.sources)
        return RadiationField(dim=self.dim, sources=srcs)

    def grid_spec(self, s=None):
        return GridSpec(frame=self.frame(s), half_width=self.h, n=self.n)

    def zeta_strategy(self):
        if self.strategy == "bounded":
            return BoundedOffset(alpha=self.alpha, eps=self.eps)
        if self.strategy == "sqrt":
            return SqrtScaled(alpha=self.alpha, fallback_axis=self.fallback_axis)
        return HybridStrategy(
            bounded=BoundedOffset(alpha=self.alpha, eps=self.eps),
            sqrt=SqrtScaled(alpha=self.alpha, fallback_axis=self.fallback_axis),
        )

    def with_kappa(self, kappa):
        """Rescale kappa, keeping k collinear."""
        k = np.array(self.k, dtype=float)
        k = tuple(k * (kappa / np.linalg.norm(k)))
        return replace(self, kappa=float(kappa), k=k)


def _parse_number(text, line_no):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"malformed number {text!r}", line=line_no) from None


def _parse_vector(text, line_no):
    return tuple(_parse_number(p, line_no) for p in text.split(","))


def _default_for_dim(dim):
    if dim == 3:
        return ExperimentConfig()
    return ExperimentConfig(
        dim=2, k=(4.0, 0.0), omega=(1.0, 0.0),
        sources=((complex(1.0), (0.0, 2.5)),),
    )


def parse_config(text):
    """Parse config text; unset keys default to the reference experiment."""
    entries = {}
    sources = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "source":
            parts = _parse_vector(value, line_no)
            if len(parts) < 3:
                raise ConfigError("source needs re_c, im_c, x0...", line=line_no)
            sources.append((complex(parts[0], parts[1]), tuple(parts[2:])))
        elif key in _SCALAR_KEYS:
            num = _parse_number(value, line_no)
            if _SCALAR_KEYS[key] is int:
                if num != int(num):
                    raise ConfigError(f"{key} must be an integer", line=line_no)
                num = int(num)
            entries[key] = num
        elif key in _VECTOR_KEYS:
            entries[key] = _parse_vector(value, line_no)
        elif key in _STRING_KEYS:
            entries[key] = value
        elif key in _BOOL_KEYS:
            if value.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"{key} must be a boolean", line=line_no)
            entries[key] = value.lower() in ("true", "1")
        else:
            raise ConfigError(f"unknown key {key!r}", line=line_no)

    dim = entries.get("dim", 3)
    base = _default_for_dim(dim)
    if sources:
        entries["sources"] = tuple(sources)
    if "kappa" in entries and "k" not in entries:
        # keep k collinear with the default when only the wavenumber is set
        base = base.with_kappa(entries["kappa"])
    cfg = replace(base, **{k: v for k, v in entries.items() if k != "dim"})
    cfg = replace(cfg, dim=dim)
    return cfg.validate()
