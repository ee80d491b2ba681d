"""Experiment configuration: defaults, file parsing, CLI precedence.

Configs are flat ``key = value`` text files; command-line overrides beat
file values, which beat defaults.  Every value, from a file line, a flag or
Python, is parsed by ``_parse_value`` (anything but a string as the text
of its config line) and checked by ``ExperimentConfig.validate`` when the
``ExperimentConfig`` is made.
The resolved config is echoed into every report so outputs are
self-describing.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from mfvdm.errors import ConfigError

__all__ = ["ExperimentConfig", "load_config_file", "resolve_config"]

_MANIFOLDS = ("sphere", "torus", "external")
_BASELINES = ("dm", "vdm")
# The default thread budget: every CPU this process may run on.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment run."""

    manifold: str = "sphere"
    n: int = 10000
    kappa_build: int = 150
    kappa_search: int = 50
    p: tuple = (1.0,)
    seed: int = 0
    k_max: int = 50
    m_k: int = 50
    t: int = 1
    baselines: tuple = ()
    out_dir: str = "out"
    workers: int = _CPUS
    graph_path: str = ""
    spectrum_ks: tuple = (1, 2, 5)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            object.__setattr__(self, f.name, _parse_value(
                f.name, value if isinstance(value, str) else _text(value)))
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError on any invalid field or combination."""
        if self.manifold not in _MANIFOLDS:
            raise ConfigError(f"manifold must be one of {_MANIFOLDS}. "
                              f"Got {self.manifold!r}.")
        if self.manifold == "external" and not self.graph_path:
            raise ConfigError("manifold 'external' requires graph_path.")
        if self.manifold != "external" and self.graph_path:
            raise ConfigError(f"graph_path is for manifold 'external'. "
                              f"Got manifold {self.manifold!r}.")
        # An external graph is not rewired, so it has no other p.
        if self.graph_path and self.p != (1.0,):
            raise ConfigError(f"graph_path takes p = 1 only. Got {self.p}.")
        # An external graph brings its own node count, and n and kappa_build
        # go unused; kappa_search is checked against the graph once read.
        if self.manifold != "external":
            if self.n < 2:
                raise ConfigError(f"n must be >= 2. Got {self.n}.")
            if not 1 <= self.kappa_build < self.n:
                raise ConfigError(f"kappa_build must satisfy 1 <= "
                                  f"kappa_build < n={self.n}. "
                                  f"Got {self.kappa_build}.")
            if not 1 <= self.kappa_search < self.n:
                raise ConfigError(f"kappa_search must satisfy 1 <= "
                                  f"kappa_search < n={self.n}. "
                                  f"Got {self.kappa_search}.")
        if not self.p or not all(0.0 <= p <= 1.0 for p in self.p):
            raise ConfigError(f"p must be one or more values in [0, 1]. "
                              f"Got {self.p}.")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1. Got {self.k_max}.")
        if self.m_k < 1:
            raise ConfigError(f"m_k must be >= 1. Got {self.m_k}.")
        if self.t < 1:
            raise ConfigError(f"t must be >= 1. Got {self.t}.")
        for b in self.baselines:
            if b not in _BASELINES:
                raise ConfigError(f"Unknown baseline {b!r}; expected "
                                  f"{_BASELINES}.")
        # A repeated method or frequency would run, and echo, twice.
        for name in ("baselines", "spectrum_ks"):
            items = getattr(self, name)
            if len(set(items)) < len(items):
                raise ConfigError(f"{name} names an item twice. "
                                  f"Got {_text(items)}.")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1. Got {self.workers}.")
        if not self.spectrum_ks or any(k < 1 for k in self.spectrum_ks):
            raise ConfigError(f"spectrum_ks must be one or more k >= 1. "
                              f"Got {self.spectrum_ks}.")

    def echo_items(self) -> list:
        """(key, value-string) pairs in declaration order, for reports."""
        return [(f.name, _text(getattr(self, f.name)))
                for f in dataclasses.fields(self)]


def _text(value) -> str:
    """A value as the text of its config line: a tuple's items joined by
    commas, anything else ``str``."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


# The item type of each comma-list field; other lists hold strings.
_LIST_ITEMS = {"p": float, "spectrum_ks": int}


def _parse_value(name: str, text: str):
    """Coerce a raw string to the declared field type."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    if name not in fields:
        raise ConfigError(f"Unknown config key {name!r}.")
    default = getattr(ExperimentConfig, name)
    text = text.strip()
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, tuple):
            # Empty parts are skipped: "dm," and "dm" are the same list.
            parts = (part.strip() for part in text.split(",")
                     if part.strip())
            return tuple(map(_LIST_ITEMS.get(name, str), parts))
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


def _level(values: dict | None) -> dict:
    """One level's set values; a level that names a graph file and no
    manifold means the external manifold."""
    values = {k: v for k, v in (values or {}).items() if v is not None}
    if values.get("graph_path") and "manifold" not in values:
        values["manifold"] = "external"
    return values


def resolve_config(file_values: dict | None = None,
                   overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults <- config file <- explicit overrides into a parsed,
    validated ``ExperimentConfig``."""
    merged = {**_level(file_values), **_level(overrides)}
    unknown = set(merged) - {f.name for f in
                             dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"Unknown config keys: {sorted(unknown)}.")
    return ExperimentConfig(**merged)
