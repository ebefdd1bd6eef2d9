"""Spectral and intensity dynamics aggregated per sentence interval.

Both feature groups describe how lively the speech is: how widely the
spectral centroid roams across frequency bands, and how much the loudness
contour moves at slow (macro) and fast (micro) time scales.
"""
from __future__ import annotations

import numpy as np

from .corpus import interval_index
from .dsp import FrameTrack, moving_average

BAND_WIDTH_HZ = 400.0
BAND_TOP_HZ = 8000.0
MACRO_WIN_FRAMES = 31    # about 300 ms at 10 ms hop
MICRO_WIN_FRAMES = 4     # 40 ms of first differences

SPECTRAL_DYNAMICS_FEATURES = (
    "freq_distribution_ratio", "norm_mode_count", "norm_mode_variation",
)
INTENSITY_DYNAMICS_FEATURES = (
    "intensity_macro_mean", "intensity_macro_std",
    "intensity_micro_mean", "intensity_micro_std",
)


def speech_by_sentence(track: FrameTrack, intervals: np.ndarray) -> list[np.ndarray]:
    """The boolean frame mask of each interval's speech frames, in interval
    order, skipping intervals that hold none. interval_index puts every
    frame in one interval, so the masks partition the speech frames."""
    speech = track.is_speech.astype(bool)  # library callers may pass 0/1 ints
    idx = interval_index(track.times, intervals)
    masks = (speech & (idx == k) for k in range(len(intervals)))
    return [sel for sel in masks if sel.any()]


def spectral_dynamics(centroid_hz: np.ndarray, sentences: list) -> tuple[float, ...]:
    """Histogram the speech-frame centroids of each speech_by_sentence mask
    into fixed 400 Hz bands, for the SPECTRAL_DYNAMICS_FEATURES values.

    freq_distribution_ratio: mean over sentences of c1/c2 (a lone occupied
    band contributes c1 itself).
    norm_mode_count: c1 of the summed histograms over the speech frame count.
    norm_mode_variation: population std over sentences of the per-sentence
    c1 over that sentence's speech frame count.
    """
    if not sentences:
        return (0.0,) * len(SPECTRAL_DYNAMICS_FEATURES)
    n_bands = int(round(BAND_TOP_HZ / BAND_WIDTH_HZ))
    bands = np.clip((centroid_hz / BAND_WIDTH_HZ).astype(int), 0, n_bands - 1)

    ratios, norms = [], []
    total = np.zeros(n_bands, dtype=np.int64)
    for sel in sentences:
        hist = np.bincount(bands[sel], minlength=n_bands)
        c2, c1 = np.sort(hist)[-2:].tolist()
        ratios.append(c1 / c2 if c2 > 0 else float(c1))
        norms.append(c1 / int(sel.sum()))
        total += hist
    return float(np.mean(ratios)), int(total.max()) / int(total.sum()), float(np.std(norms))


def intensity_dynamics(intensity_db: np.ndarray, sentences: list) -> tuple[float, ...]:
    """Loudness dynamics of the speech-only intensity contour, split by the
    speech_by_sentence masks: the INTENSITY_DYNAMICS_FEATURES values.

    Each sentence's speech frames are mean-normalized in dB. The macro
    value per sentence is the population std of the 31-point moving
    average of that contour; macro_mean/macro_std aggregate over
    sentences. Micro values are means of absolute frame-to-frame dB
    differences over non-overlapping 4-sample windows (trailing partial
    windows are dropped); micro_mean/micro_std aggregate every window in
    the recording.
    """
    if not sentences:
        return (0.0,) * len(INTENSITY_DYNAMICS_FEATURES)

    macros, micro_windows = [], []
    for sel in sentences:
        contour = intensity_db[sel]
        contour = contour - contour.mean()
        macros.append(float(np.std(moving_average(contour, MACRO_WIN_FRAMES))))
        diffs = np.abs(np.diff(contour))
        n_complete = len(diffs) // MICRO_WIN_FRAMES
        if n_complete > 0:
            blocks = diffs[: n_complete * MICRO_WIN_FRAMES].reshape(n_complete, -1)
            micro_windows.extend(blocks.mean(axis=1).tolist())

    micro = micro_windows or [0.0]
    return (float(np.mean(macros)), float(np.std(macros)),
            float(np.mean(micro)), float(np.std(micro)))
