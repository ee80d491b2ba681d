"""Experiment configuration: defaults, file parsing, CLI precedence.

Configs are flat ``key = value`` text files; command-line overrides beat
file values, which beat defaults.  The resolved config is echoed into every
report so outputs are self-describing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from mfvdm.errors import ConfigError

__all__ = ["ExperimentConfig", "load_config_file", "resolve_config"]

_MANIFOLDS = ("sphere", "torus", "external")
_WEIGHT_MODES = ("unit", "gaussian")
_BASELINES = ("dm", "vdm")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment run."""

    manifold: str = "sphere"
    n: int = 10000
    kappa_build: int = 150
    kappa_search: int = 50
    p: float = 1.0
    seed: int = 0
    k_max: int = 50
    m_k: int = 50
    t: int = 1
    t_fft: int = 1024
    weight_mode: str = "unit"
    sigma: float = 1.0
    baselines: tuple = ()
    out_dir: str = "out"
    workers: int = 1
    radius_major: float = 1.0
    radius_minor: float = 0.2
    area_uniform: bool = True
    graph_path: str = ""
    spectrum_ks: tuple = (1, 2, 5)
    spectrum_m: int = 30

    def validate(self) -> None:
        """Raise ConfigError on any invalid field or combination."""
        if self.manifold not in _MANIFOLDS:
            raise ConfigError(f"manifold must be one of {_MANIFOLDS}. "
                              f"Got {self.manifold!r}.")
        if self.manifold == "external" and not self.graph_path:
            raise ConfigError("manifold 'external' requires graph_path.")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2. Got {self.n}.")
        if not 1 <= self.kappa_build < self.n:
            raise ConfigError(f"kappa_build must satisfy 1 <= kappa_build < "
                              f"n={self.n}. Got {self.kappa_build}.")
        if not 1 <= self.kappa_search < self.n:
            raise ConfigError(f"kappa_search must satisfy 1 <= kappa_search "
                              f"< n={self.n}. Got {self.kappa_search}.")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must lie in [0, 1]. Got {self.p}.")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1. Got {self.k_max}.")
        if self.m_k < 1:
            raise ConfigError(f"m_k must be >= 1. Got {self.m_k}.")
        if self.t < 1:
            raise ConfigError(f"t must be >= 1. Got {self.t}.")
        if (self.t_fft < 4 * self.k_max
                or self.t_fft & (self.t_fft - 1)):
            raise ConfigError(f"t_fft must be a power of two >= 4*k_max="
                              f"{4 * self.k_max}. Got {self.t_fft}.")
        if self.weight_mode not in _WEIGHT_MODES:
            raise ConfigError(f"weight_mode must be one of {_WEIGHT_MODES}. "
                              f"Got {self.weight_mode!r}.")
        if self.weight_mode == "gaussian" and self.sigma <= 0.0:
            raise ConfigError(f"sigma must be > 0. Got {self.sigma}.")
        for b in self.baselines:
            if b not in _BASELINES:
                raise ConfigError(f"Unknown baseline {b!r}; expected "
                                  f"{_BASELINES}.")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1. Got {self.workers}.")
        if not self.radius_major > self.radius_minor > 0.0:
            raise ConfigError("Torus radii must satisfy R > r > 0. Got "
                              f"R={self.radius_major}, "
                              f"r={self.radius_minor}.")
        if any(k < 1 for k in self.spectrum_ks):
            raise ConfigError(f"spectrum_ks must all be >= 1. "
                              f"Got {self.spectrum_ks}.")
        if self.spectrum_m < 1:
            raise ConfigError(f"spectrum_m must be >= 1. "
                              f"Got {self.spectrum_m}.")

    def echo_items(self) -> list:
        """(key, value-string) pairs in declaration order, for reports."""
        items = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                text = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            items.append((f.name, text))
        return items


def _parse_value(name: str, text: str):
    """Coerce a raw string to the declared field type."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    if name not in fields:
        raise ConfigError(f"Unknown config key {name!r}.")
    default = getattr(ExperimentConfig, name)
    text = text.strip()
    try:
        if isinstance(default, bool):
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, tuple):
            # Empty parts are skipped: "dm," and "dm" are the same list.
            parts = tuple(part.strip() for part in text.split(",")
                          if part.strip())
            if name in ("spectrum_ks",):
                return tuple(int(part) for part in parts)
            return parts
        return text
    except ValueError as exc:
        raise ConfigError(f"Bad value for {name!r}: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file into typed values."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"Cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'. "
                              f"Got {raw.strip()!r}.")
        name, text = line.split("=", 1)
        name = name.strip()
        values[name] = _parse_value(name, text)
    return values


def resolve_config(file_values: dict | None = None,
                   overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults <- config file <- explicit overrides, then validate."""
    merged = {}
    merged.update(file_values or {})
    merged.update({k: v for k, v in (overrides or {}).items()
                   if v is not None})
    unknown = set(merged) - {f.name for f in
                             dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"Unknown config keys: {sorted(unknown)}.")
    config = ExperimentConfig(**merged)
    config.validate()
    return config
