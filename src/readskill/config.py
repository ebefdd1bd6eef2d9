"""Run configuration: plain ``key = value`` files plus command-line
overrides, with every tunable owning a documented default."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .classify import CV_FOLDS, N_TREES, PLANS
from .corpus import text_lines
from .dsp import VadConfig
from .errors import ConfigError
from .featurize import FeatureConfig
from .lexical import KMEANS_RESTARTS
from .pauses import MIN_PAUSE_S, SyllableConfig


@dataclass
class RunConfig:
    """All run-level settings. Field defaults are the toolkit defaults."""

    corpus_root: str = "."
    out_dir: str = "out"
    seed: int = 0
    plan: str = "one_stage"  # comma-separated plan ids for evaluate
    folds: int = CV_FOLDS
    tau: float = 0.5
    n_trees: int = N_TREES
    group_by: str = ""  # metadata field for group-disjoint folds, e.g. child_id
    min_pause_s: float = MIN_PAUSE_S
    spdyn_ratio_scope: str = "interval"  # or "audio"
    vad: VadConfig = field(default_factory=VadConfig)  # keys vad_<field>
    syllable: SyllableConfig = field(default_factory=SyllableConfig)  # keys syll_<field>
    kmeans_restarts: int = KMEANS_RESTARTS
    cluster_k_min: int = 2
    cluster_k_max: int = 6

    def validate(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must lie in [0, 1], got {self.tau}")
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be positive, got {self.n_trees}")
        if self.spdyn_ratio_scope not in ("interval", "audio"):
            raise ConfigError(
                f"spdyn_ratio_scope must be interval or audio, got {self.spdyn_ratio_scope!r}"
            )
        if not 2 <= self.cluster_k_min <= self.cluster_k_max:
            raise ConfigError(
                f"cluster K range [{self.cluster_k_min}, {self.cluster_k_max}] is invalid"
            )
        for name in self.plan_ids():
            if name not in PLANS:
                raise ConfigError(
                    f"unknown plan {name!r}; choose from {sorted(PLANS)}"
                )

    def plan_ids(self) -> list[str]:
        return [p.strip() for p in self.plan.split(",") if p.strip()]

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            vad=self.vad,
            syllable=self.syllable,
            min_pause_s=self.min_pause_s,
            ratio_scope=self.spdyn_ratio_scope,
        )

    def dump(self) -> str:
        lines = [f"{key} = {getattr(*_owner(self, key))}" for key in _KEYS]
        return "\n".join(lines) + "\n"


# Nested settings objects and the prefix of their flat keys.
_PREFIXES = {"vad": "vad_", "syllable": "syll_"}


def _flat_keys() -> dict[str, tuple[str | None, dataclasses.Field]]:
    """Flat key -> (nested RunConfig field or None, field), in dump order."""
    keys = {}
    for f in dataclasses.fields(RunConfig):
        if f.name in _PREFIXES:
            for sub in dataclasses.fields(f.default_factory):
                keys[_PREFIXES[f.name] + sub.name] = (f.name, sub)
        else:
            keys[f.name] = (None, f)
    return keys


_KEYS = _flat_keys()


def _owner(cfg: RunConfig, key: str):
    """The object holding a flat key's value, and its attribute name."""
    section, f = _KEYS[key]
    return (cfg if section is None else getattr(cfg, section)), f.name


def _coerce(name: str, raw: str):
    f = _KEYS[name][1]
    raw = raw.strip()
    try:
        if f.type == "int":
            return int(raw)
        if f.type == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"{name} expects a {f.type}, got {raw!r}") from None
    return raw


def apply_set(cfg: RunConfig, assignment: str) -> None:
    """Apply one ``key=value`` override in place."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not key=value")
    name, raw = assignment.split("=", 1)
    name = name.strip()
    if name not in _KEYS:
        raise ConfigError(f"unknown config key {name!r}")
    setattr(*_owner(cfg, name), _coerce(name, raw))


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file and --set flags."""
    cfg = RunConfig()
    if path is not None:
        for k, line in enumerate(text_lines(path, ConfigError)):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{k + 1}: expected key = value")
            name, raw = line.split("=", 1)
            name = name.strip()
            if name not in _KEYS:
                raise ConfigError(f"{path}:{k + 1}: unknown config key {name!r}")
            setattr(*_owner(cfg, name), _coerce(name, raw))
    for assignment in overrides or []:
        apply_set(cfg, assignment)
    cfg.validate()
    return cfg
