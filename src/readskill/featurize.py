"""Assembly of the 17-dimensional acoustic feature vector and the
features.csv table format.

Feature order is part of the file contract; downstream consumers resolve
features by name through FEATURE_INDEX, never by hardcoded position.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import StoryText, csv_rows, finite_float, write_rows
from .dsp import HOP_S, SAMPLE_RATE, FrameTrack, VadConfig, build_track
from .dynamics import (
    INTENSITY_DYNAMICS_FEATURES,
    SPECTRAL_DYNAMICS_FEATURES,
    intensity_dynamics,
    spectral_dynamics,
    speech_by_sentence,
)
from .errors import IntervalCountMismatch, SchemaMismatch, TooShort
from .pauses import (
    MIN_PAUSE_S,
    PAUSE_FEATURES,
    RATE_FEATURES,
    SyllableConfig,
    detect_syllables,
    extract_pauses,
    pause_features,
    syllable_rate_features,
)

FORMAT_VERSION = "features-v1"

# Each group's names are stated next to the function that computes it, in
# the order of the values it returns; extract_features joins them in this order.
FEATURE_GROUPS = {
    "pause": PAUSE_FEATURES,
    "rate": RATE_FEATURES,
    "spectral_dynamics": SPECTRAL_DYNAMICS_FEATURES,
    "intensity_dynamics": INTENSITY_DYNAMICS_FEATURES,
}
FEATURE_NAMES: tuple[str, ...] = tuple(
    name for group in FEATURE_GROUPS.values() for name in group)
FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}


@dataclass
class FeatureConfig:
    """Knobs for the full extraction pipeline."""

    min_pause_s: float = MIN_PAUSE_S
    vad: VadConfig = field(default_factory=VadConfig)
    syllable: SyllableConfig = field(default_factory=SyllableConfig)


def extract_features(samples: np.ndarray, intervals: np.ndarray,
                     story: StoryText, cfg: FeatureConfig | None = None,
                     ) -> tuple[np.ndarray, FrameTrack, np.ndarray, np.ndarray]:
    """Compute the 17 acoustic feature values of one recording's 16 kHz
    samples, in FEATURE_NAMES order, with what they were measured from:
    (values, frame track, (k, 2) array of (start, duration) pauses,
    syllable nucleus times), all times in seconds.

    A recording with no detected speech gets the all-silence policy: the
    pause group reflects one recording-length pause and every other group
    is zero. One too short to hold that pause (min_pause_s or less) raises
    TooShort, as nothing in it was measured.
    """
    cfg = cfg or FeatureConfig()
    if len(intervals) != len(story.sentences):
        raise IntervalCountMismatch(
            f"{len(intervals)} intervals vs {len(story.sentences)} story sentences"
        )

    duration = len(samples) / SAMPLE_RATE
    track = build_track(samples, cfg.vad)
    pauses = extract_pauses(track.is_speech, cfg.min_pause_s)
    speech_frames = int(track.is_speech.sum())
    if not speech_frames and not len(pauses):
        raise TooShort(f"no speech in {duration} s, too short for a "
                       f"{cfg.min_pause_s} s pause")
    peaks = (detect_syllables(samples, track.is_speech, cfg.syllable)
             if speech_frames else np.empty(0))
    sentences = speech_by_sentence(track, intervals)
    groups = (
        pause_features(pauses, intervals, duration),
        syllable_rate_features(peaks, intervals, list(story.sentence_syllables),
                               speech_frames * HOP_S),
        spectral_dynamics(track.centroid_hz, sentences),
        intensity_dynamics(track.intensity_db, sentences),
    )
    values = np.array([v for group in groups for v in group])
    return values, track, pauses, peaks


def write_features(rows, path) -> None:
    """Write a versioned feature table of (id, class or None, values) rows;
    floats round-trip exactly."""
    write_rows([[f"# {FORMAT_VERSION}"], ["id", "class", *FEATURE_NAMES],
                *([rid, label, *values.tolist()] for rid, label, values in rows)], path)


def read_features(path) -> tuple[list[str], list[str | None], np.ndarray]:
    """Read a feature table written by write_features: the ids, the
    classes (None where empty) and the (n, 17) matrix of values, 2-D even
    when the table holds no rows."""
    records = csv_rows(path)
    _, marker = next(records, (0, []))
    if marker != [f"# {FORMAT_VERSION}"]:
        raise SchemaMismatch(f"{path}: unknown format marker {','.join(marker)!r}")
    expected = ["id", "class", *FEATURE_NAMES]
    if next(records, (0, None))[1] != expected:
        raise SchemaMismatch(f"{path}: header does not match {FORMAT_VERSION}")
    ids, classes, values = [], [], []
    for k, rec in records:
        if len(rec) != len(expected):
            raise SchemaMismatch(f"{path}: row {k} for {rec[0]!r} has {len(rec)} columns")
        ids.append(rec[0])
        classes.append(rec[1] or None)
        values.append([finite_float(path, k, name, cell)
                       for name, cell in zip(FEATURE_NAMES, rec[2:])])
    return ids, classes, np.array(values).reshape(-1, len(FEATURE_NAMES))
