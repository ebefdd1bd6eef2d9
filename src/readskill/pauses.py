"""Pause extraction and syllable nucleus detection on top of the VAD."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .corpus import VideoInterval, interval_index
from .dsp import (
    FRAME_LEN,
    HOP_S,
    SAMPLE_RATE,
    bool_runs,
    frame_energy,
    frame_times,
    moving_average,
    raw_frames,
)
from .errors import IntervalCountMismatch

MIN_PAUSE_S = 0.2
MIN_SPEECH_S = 0.1  # less speech than this gives an articulation rate of 0


@dataclass(frozen=True)
class Pause:
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def midpoint(self) -> float:
        return self.start + self.duration / 2.0


@dataclass(frozen=True)
class SyllablePeak:
    """One detected syllable nucleus; time is the peak frame's center."""

    time: float
    strength: float


@dataclass(frozen=True)
class PauseFeatures:
    pause_mean: float
    pause_std: float
    pause_min: float
    pause_max: float
    pause_freq: float
    pauses_per_interval: float


@dataclass(frozen=True)
class SyllableRateFeatures:
    rel_syll_mean: float
    rel_syll_std: float
    rel_syll_cv: float
    articulation_rate: float


@dataclass
class SyllableConfig:
    band_low_hz: float = 300.0
    band_high_hz: float = 2500.0
    smooth_s: float = 0.150
    height_frac: float = 0.1
    prominence_frac: float = 0.05
    min_gap_s: float = 0.1


def extract_pauses(is_speech: np.ndarray, min_pause_s: float = MIN_PAUSE_S) -> list[Pause]:
    """Maximal non-speech runs strictly longer than min_pause_s.

    Leading and trailing silence count. Durations are whole frame hops.
    """
    min_frames = int(round(min_pause_s / HOP_S))
    pauses = []
    for a, b, val in bool_runs(~np.asarray(is_speech, dtype=bool)):
        if val and b - a > min_frames:
            pauses.append(Pause(start=a * HOP_S, duration=(b - a) * HOP_S))
    return pauses


def pause_features(pauses: list[Pause], intervals: list[VideoInterval],
                   total_duration: float) -> PauseFeatures:
    """Aggregate pause durations; a recording without pauses maps to all
    zeros. pauses_per_interval assigns each pause to the interval holding
    its midpoint and averages the per-interval counts."""
    if not pauses:
        return PauseFeatures(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    durations = np.array([p.duration for p in pauses])
    per_interval = np.bincount(interval_index([p.midpoint for p in pauses], intervals),
                               minlength=len(intervals))
    return PauseFeatures(
        pause_mean=float(durations.mean()),
        pause_std=float(durations.std()),
        pause_min=float(durations.min()),
        pause_max=float(durations.max()),
        pause_freq=len(pauses) / total_duration,
        pauses_per_interval=float(per_interval.mean()),
    )


@functools.lru_cache(maxsize=8)
def _band_sos(band_low_hz: float, band_high_hz: float) -> np.ndarray:
    """4th-order Butterworth band-pass sections, designed once per band.

    The array is shared by every caller, so it is read-only; sosfiltfilt
    needs a writable one and gets a copy."""
    from scipy import signal

    sos = signal.butter(4, [band_low_hz, band_high_hz], btype="bandpass",
                        fs=SAMPLE_RATE, output="sos")
    sos.flags.writeable = False
    return sos


def detect_syllables(samples: np.ndarray, is_speech: np.ndarray,
                     cfg: SyllableConfig | None = None) -> list[SyllablePeak]:
    """Find syllable nuclei as energy peaks in the 300..2500 Hz band.

    The band-passed signal is reduced to a 10 ms-hop energy envelope,
    smoothed over 150 ms. Local maxima survive when they fall on a speech
    frame, reach 10% of the global envelope maximum, have at least 5%
    prominence, and sit at least 100 ms away from any stronger kept peak.
    """
    from scipy import signal  # loaded on first use: ~1 s that other commands skip

    cfg = cfg or SyllableConfig()
    x = np.asarray(samples, dtype=np.float64)
    if x.size < FRAME_LEN:
        return []
    band = signal.sosfiltfilt(_band_sos(cfg.band_low_hz, cfg.band_high_hz).copy(), x)

    env = frame_energy(raw_frames(band))
    n = min(len(env), len(is_speech))
    env = env[:n]
    smooth_frames = max(1, int(round(cfg.smooth_s / HOP_S)))
    env = moving_average(env, smooth_frames)

    peak_idx, _ = signal.find_peaks(env)
    if len(peak_idx) == 0:
        return []
    top = float(env.max())
    if top <= 0.0:
        return []
    prom = signal.peak_prominences(env, peak_idx)[0]
    speech = np.asarray(is_speech, dtype=bool)[:n]
    ok = speech[peak_idx] & (env[peak_idx] >= cfg.height_frac * top) \
        & (prom >= cfg.prominence_frac * top)
    candidates = peak_idx[ok]
    if len(candidates) == 0:
        return []

    # strongest first; ties go to the earlier peak
    min_gap = int(round(cfg.min_gap_s / HOP_S))
    order = sorted(range(len(candidates)), key=lambda i: (-env[candidates[i]], candidates[i]))
    kept: list[int] = []
    for i in order:
        c = candidates[i]
        if all(abs(c - k) >= min_gap for k in kept):
            kept.append(int(c))
    kept.sort()
    times = frame_times(n)
    return [SyllablePeak(time=float(times[i]), strength=float(env[i])) for i in kept]


def syllable_rate_features(peaks: list[SyllablePeak], intervals: list[VideoInterval],
                           expected_counts: list[int],
                           speech_duration: float) -> SyllableRateFeatures:
    """Relate detected nuclei to the expected per-sentence syllable counts.

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
    detected = np.bincount(interval_index([p.time for p in peaks], intervals),
                           minlength=len(intervals))
    rel = detected / np.asarray(expected_counts, dtype=np.float64)
    mean = float(rel.mean())
    std = float(rel.std())
    cv = std / mean if mean > 0.0 else 0.0
    ar = len(peaks) / speech_duration if speech_duration >= MIN_SPEECH_S else 0.0
    return SyllableRateFeatures(
        rel_syll_mean=mean,
        rel_syll_std=std,
        rel_syll_cv=cv,
        articulation_rate=float(ar),
    )


def dump_events(pauses: list[Pause], peaks: list[SyllablePeak], path) -> None:
    """Write detected pauses and syllable nuclei as a flat event list."""
    events = [("pause", p.start, p.duration) for p in pauses]
    events += [("syllable", p.time, None) for p in peaks]
    events.sort(key=lambda e: (e[1], e[0]))
    with open(path, "w") as fh:
        fh.write("kind,time,duration\n")
        for kind, time, dur in events:
            fh.write(f"{kind},{float(time)!r},{'' if dur is None else repr(float(dur))}\n")
