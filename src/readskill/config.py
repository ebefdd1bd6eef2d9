"""Run configuration: plain ``key = value`` files plus command-line
overrides, with every tunable owning a documented default."""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

from .asr_align import DEFAULT_TAU
from .classify import CV_FOLDS, N_TREES, PLANS
from .corpus import METADATA_FIELDS, text_lines
from .dsp import FFT_FREQS, SAMPLE_RATE, band_bins
from .errors import ConfigError
from .featurize import FeatureConfig
from .lexical import KMEANS_RESTARTS


# Flat keys whose value must not be negative.
_NON_NEGATIVE = ("seed", "min_pause_s", "vad_median_frames", "vad_hangover_frames",
                 "vad_min_run_frames", "syll_smooth_s", "syll_height_frac",
                 "syll_prominence_frac", "syll_min_gap_s")


@dataclass
class RunConfig:
    """All run-level settings. Field defaults are the toolkit defaults."""

    corpus_root: str = "."
    out_dir: str = "out"
    seed: int = 0
    plan: str = "one_stage"  # comma-separated plan ids for evaluate
    folds: int = CV_FOLDS
    tau: float = DEFAULT_TAU
    n_trees: int = N_TREES
    group_by: str = ""  # metadata field for group-disjoint folds, e.g. child_id
    feature: FeatureConfig = field(default_factory=FeatureConfig)  # flat keys: see _PREFIXES
    kmeans_restarts: int = KMEANS_RESTARTS
    cluster_k_min: int = 2
    cluster_k_max: int = 6

    def validate(self) -> None:
        for key in _NON_NEGATIVE:
            value = getattr(*_owner(self, key))
            if value < 0:
                raise ConfigError(f"{key} must be non-negative, got {value}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must lie in [0, 1], got {self.tau}")
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be positive, got {self.n_trees}")
        if self.group_by not in ("", *METADATA_FIELDS):
            raise ConfigError(
                f"group_by must be empty or one of {METADATA_FIELDS}, got {self.group_by!r}")
        vad, syllable = self.feature.vad, self.feature.syllable
        if vad.median_frames >= 2 and vad.median_frames % 2 == 0:
            raise ConfigError(f"vad_median_frames must be odd, got {vad.median_frames}")
        if not 0.0 <= vad.floor_percentile <= 100.0:
            raise ConfigError(
                f"vad_floor_percentile must lie in [0, 100], got {vad.floor_percentile}")
        if not 0.0 < syllable.band_low_hz < syllable.band_high_hz < SAMPLE_RATE / 2:
            raise ConfigError(
                f"syllable band [{syllable.band_low_hz}, {syllable.band_high_hz}] Hz must "
                f"satisfy 0 < syll_band_low_hz < syll_band_high_hz < {SAMPLE_RATE // 2}")
        bins = band_bins(syllable.band_low_hz, syllable.band_high_hz)
        if bins.start >= bins.stop:
            raise ConfigError(
                f"syllable band [{syllable.band_low_hz}, {syllable.band_high_hz}] Hz holds no "
                f"spectrum bin centre (a multiple of {FFT_FREQS[1]:g} Hz); widen "
                f"syll_band_low_hz..syll_band_high_hz")
        if self.kmeans_restarts < 1:
            raise ConfigError(f"kmeans_restarts must be positive, got {self.kmeans_restarts}")
        if not 2 <= self.cluster_k_min <= self.cluster_k_max:
            raise ConfigError(
                f"cluster K range [{self.cluster_k_min}, {self.cluster_k_max}] is invalid"
            )
        if not self.plan_ids():
            raise ConfigError(f"plan names no plan id; choose from {sorted(PLANS)}")
        for name in self.plan_ids():
            if name not in PLANS:
                raise ConfigError(
                    f"unknown plan {name!r}; choose from {sorted(PLANS)}"
                )

    def plan_ids(self) -> list[str]:
        return [p.strip() for p in self.plan.split(",") if p.strip()]

    def dump(self) -> str:
        lines = [f"{key} = {getattr(*_owner(self, key))}" for key in _KEYS]
        return "\n".join(lines) + "\n"


# Nested settings objects and the prefix their fields add to a flat key.
_PREFIXES = {"feature": "", "vad": "vad_", "syllable": "syll_"}


def _flat_keys(cls=RunConfig, path: tuple[str, ...] = (), prefix: str = ""
               ) -> dict[str, tuple[tuple[str, ...], dataclasses.Field]]:
    """Flat key -> (attribute path to the nested object, field), in dump
    order."""
    keys = {}
    for f in dataclasses.fields(cls):
        if f.name in _PREFIXES:
            keys.update(_flat_keys(f.default_factory, path + (f.name,),
                                   prefix + _PREFIXES[f.name]))
        else:
            keys[prefix + f.name] = (path, f)
    return keys


_KEYS = _flat_keys()


def _owner(cfg: RunConfig, key: str):
    """The object holding a flat key's value, and its attribute name."""
    path, f = _KEYS[key]
    return functools.reduce(getattr, path, cfg), f.name


def _coerce(name: str, raw: str, where: str):
    f = _KEYS[name][1]
    raw = raw.strip()
    try:
        if f.type == "int":
            return int(raw)
        if f.type == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"{where}{name} must be a finite number, got {raw!r}")
            return value
    except ValueError:
        article = "an" if f.type == "int" else "a"
        raise ConfigError(f"{where}{name} expects {article} {f.type}, got {raw!r}") from None
    return raw


def apply_set(cfg: RunConfig, assignment: str, where: str = "") -> None:
    """Apply one ``key=value`` setting in place; ``where`` prefixes the
    message of a setting that is not key=value, names no key or holds a
    value of the wrong type."""
    if "=" not in assignment:
        raise ConfigError(f"{where}expected key = value, got {assignment!r}")
    name, raw = assignment.split("=", 1)
    name = name.strip()
    if name not in _KEYS:
        raise ConfigError(f"{where}unknown config key {name!r}")
    setattr(*_owner(cfg, name), _coerce(name, raw, where))


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file and --set flags."""
    cfg = RunConfig()
    if path is not None:
        for k, line in enumerate(text_lines(path, ConfigError)):
            line = line.split("#", 1)[0].strip()
            if line:
                apply_set(cfg, line, f"{path}:{k + 1}: ")
    for assignment in overrides or []:
        apply_set(cfg, assignment)
    cfg.validate()
    return cfg
