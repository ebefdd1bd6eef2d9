"""Pause extraction and syllable nucleus detection on top of the VAD."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import interval_index, write_rows
from .dsp import (
    FRAME_LEN,
    HOP_S,
    band_bins,
    bool_runs,
    frame_times,
    moving_average,
    power_spectrum,
    raw_frames,
)
from .errors import IntervalCountMismatch

MIN_PAUSE_S = 0.2
MIN_SPEECH_S = 0.1  # less speech than this gives an articulation rate of 0


@dataclass
class SyllableConfig:
    band_low_hz: float = 300.0
    band_high_hz: float = 2500.0
    smooth_s: float = 0.150
    height_frac: float = 0.1
    prominence_frac: float = 0.05
    min_gap_s: float = 0.1


def extract_pauses(is_speech: np.ndarray, min_pause_s: float = MIN_PAUSE_S) -> np.ndarray:
    """Maximal non-speech runs strictly longer than min_pause_s, as a
    (k, 2) array of (start, duration) rows in seconds.

    Leading and trailing silence count. Durations are whole frame hops.
    """
    min_frames = int(round(min_pause_s / HOP_S))
    pauses = [(a * HOP_S, (b - a) * HOP_S)
              for a, b, val in bool_runs(~np.asarray(is_speech, dtype=bool))
              if val and b - a > min_frames]
    return np.array(pauses).reshape(-1, 2)


PAUSE_FEATURES = (
    "pause_mean", "pause_std", "pause_min", "pause_max",
    "pause_freq", "pauses_per_interval",
)


def pause_features(pauses: np.ndarray, intervals: np.ndarray,
                   total_duration: float) -> tuple[float, ...]:
    """Aggregate the durations of (start, duration) pause rows into the
    PAUSE_FEATURES values; a recording without pauses maps to all zeros.
    pauses_per_interval assigns each pause to the interval holding its
    midpoint and averages the per-interval counts."""
    if not len(pauses):
        return (0.0,) * len(PAUSE_FEATURES)
    starts, durations = pauses.T
    per_interval = np.bincount(interval_index(starts + durations / 2.0, intervals),
                               minlength=len(intervals))
    return (
        float(durations.mean()),
        float(durations.std()),
        float(durations.min()),
        float(durations.max()),
        len(pauses) / total_duration,
        float(per_interval.mean()),
    )


def _find_peaks(x: np.ndarray) -> np.ndarray:
    """Indices of ``scipy.signal.find_peaks(x)[0]``: every run of equal
    samples with a lower sample on each side, by its middle sample (the
    left one of two)."""
    if len(x) < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(x[1:] != x[:-1]) + 1  # runs that start inside x
    first, after = starts[:-1], starts[1:]  # runs that also end inside x
    peak = (x[first - 1] < x[first]) & (x[after] < x[first])
    return (first[peak] + after[peak] - 1) // 2


def _peak_prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """``scipy.signal.peak_prominences(x, peaks)[0]``: each peak's height
    over the higher of its two bases. A base is the lowest sample between
    the peak and the nearest strictly higher sample on that side, or the
    end of x.

    Level k of ``highs`` and ``lows`` holds the max and min of every window
    of 2**k samples. Each side widens its reach by the largest such windows
    that hold no higher sample, and takes their mins on the way."""
    height = x[peaks]
    highs, lows = [x], [x]
    while 2 ** len(highs) <= len(x):
        w = 2 ** (len(highs) - 1)
        highs.append(np.maximum(highs[-1][:-w], highs[-1][w:]))
        lows.append(np.minimum(lows[-1][:-w], lows[-1][w:]))
    bases = []
    for direction in (-1, 1):
        reach, base = peaks.copy(), height.copy()
        for k in reversed(range(len(highs))):
            w = 2 ** k
            start = reach - w if direction < 0 else reach + 1
            ok = (start >= 0) & (start + w <= len(x))
            start = np.where(ok, start, 0)
            ok &= highs[k][start] <= height
            base = np.where(ok, np.minimum(base, lows[k][start]), base)
            reach = np.where(ok, reach + direction * w, reach)
        bases.append(base)
    return height - np.maximum(*bases)


def detect_syllables(samples: np.ndarray, is_speech: np.ndarray,
                     cfg: SyllableConfig | None = None) -> np.ndarray:
    """Times in seconds of the syllable nuclei, each the center of its peak
    frame: energy peaks in the 300..2500 Hz band.

    A frame's band energy is its unwindowed spectrum's power summed over
    the bins whose centre lies in the band; by Parseval that is, up to a
    constant factor, the energy of the frame's in-band part. The thresholds
    are fractions of the envelope maximum, so the factor drops out. This
    10 ms-hop envelope is smoothed over 150 ms. Local maxima survive when
    they fall on a speech frame, reach 10% of the global envelope maximum,
    have at least 5% prominence, and sit at least 100 ms away from any
    stronger kept peak.
    """
    cfg = cfg or SyllableConfig()
    x = np.asarray(samples, dtype=np.float64)
    if x.size < FRAME_LEN:
        return np.empty(0)
    frames = raw_frames(x)
    n = min(len(frames), len(is_speech))
    band = band_bins(cfg.band_low_hz, cfg.band_high_hz)
    env = power_spectrum(frames[:n])[:, band].sum(axis=1)
    smooth_frames = max(1, int(round(cfg.smooth_s / HOP_S)))
    env = moving_average(env, smooth_frames)

    peak_idx = _find_peaks(env)
    top = float(env.max(initial=0.0))
    prom = _peak_prominences(env, peak_idx)
    speech = np.asarray(is_speech, dtype=bool)[:n]
    ok = speech[peak_idx] & (env[peak_idx] >= cfg.height_frac * top) \
        & (prom >= cfg.prominence_frac * top)
    kept = _keep_apart(env, peak_idx[ok], int(round(cfg.min_gap_s / HOP_S)))
    return frame_times(n)[kept]


def _keep_apart(env: np.ndarray, candidates: np.ndarray, min_gap: int) -> np.ndarray:
    """Mask over the frames of ``env`` of the candidate frames kept when,
    strongest first with ties to the earlier frame, each one is kept only
    if no kept frame lies closer than min_gap frames."""
    free = np.ones(len(env), dtype=bool)
    kept = np.zeros(len(env), dtype=bool)
    for c in candidates[np.lexsort((candidates, -env[candidates]))]:
        if free[c]:
            kept[c] = True
            free[max(0, c - min_gap + 1):c + min_gap] = False
    return kept


RATE_FEATURES = (
    "rel_syll_mean", "rel_syll_std", "rel_syll_cv", "articulation_rate",
)


def syllable_rate_features(peaks: np.ndarray, intervals: np.ndarray,
                           expected_counts: list[int],
                           speech_duration: float) -> tuple[float, ...]:
    """Relate the detected nucleus times to the expected per-sentence
    syllable counts: the RATE_FEATURES values.

    rel = detected / expected per interval; cv is std/mean (0 when the mean
    is 0). The articulation rate divides the total peak count by the speech
    time and is 0 when almost no speech was found.
    """
    if len(intervals) != len(expected_counts):
        raise IntervalCountMismatch(
            f"{len(intervals)} intervals vs {len(expected_counts)} expected counts"
        )
    if any(c < 1 for c in expected_counts):
        raise ValueError("expected syllable counts must be >= 1")
    detected = np.bincount(interval_index(peaks, intervals), minlength=len(intervals))
    rel = detected / np.asarray(expected_counts, dtype=np.float64)
    mean = float(rel.mean())
    std = float(rel.std())
    cv = std / mean if mean > 0.0 else 0.0
    ar = len(peaks) / speech_duration if speech_duration >= MIN_SPEECH_S else 0.0
    return mean, std, cv, float(ar)


def dump_events(pauses: np.ndarray, peaks: np.ndarray, path) -> None:
    """Write (start, duration) pause rows and syllable nucleus times as a
    flat event list."""
    events = [("pause", start, duration) for start, duration in pauses.tolist()]
    events += [("syllable", time, None) for time in peaks.tolist()]
    events.sort(key=lambda e: (e[1], e[0]))
    write_rows([("kind", "time", "duration"), *events], path)
