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


def _speech_by_interval(track: FrameTrack, intervals: np.ndarray):
    """Yield the frame mask of each interval's speech frames, skipping
    intervals that hold none."""
    speech = track.is_speech.astype(bool)
    idx = interval_index(track.times, intervals)
    for k in range(len(intervals)):
        sel = speech & (idx == k)
        if sel.any():
            yield sel


def spectral_dynamics(track: FrameTrack, intervals: np.ndarray) -> tuple[float, ...]:
    """Histogram speech-frame centroids into fixed 400 Hz bands, for the
    SPECTRAL_DYNAMICS_FEATURES values.

    freq_distribution_ratio: mean over intervals of c1/c2 (a lone occupied
    band contributes c1 itself).
    norm_mode_count: whole-recording c1 over the speech frame count.
    norm_mode_variation: population std over intervals of the per-interval
    c1 over that interval's speech frame count.
    """
    n_bands = int(round(BAND_TOP_HZ / BAND_WIDTH_HZ))
    speech = track.is_speech.astype(bool)
    if not speech.any():
        return (0.0,) * len(SPECTRAL_DYNAMICS_FEATURES)

    bands = np.clip((track.centroid_hz / BAND_WIDTH_HZ).astype(int), 0, n_bands - 1)

    ratios = []
    norms = []
    for sel in _speech_by_interval(track, intervals):
        c2, c1 = np.sort(np.bincount(bands[sel], minlength=n_bands))[-2:].tolist()
        ratios.append(c1 / c2 if c2 > 0 else float(c1))
        norms.append(c1 / int(sel.sum()))

    global_hist = np.bincount(bands[speech], minlength=n_bands)
    return (
        float(np.mean(ratios)),
        int(global_hist.max()) / int(speech.sum()),
        float(np.std(norms)),
    )


def intensity_dynamics(track: FrameTrack, intervals: np.ndarray) -> tuple[float, ...]:
    """Loudness dynamics of the speech-only intensity contour: the
    INTENSITY_DYNAMICS_FEATURES values.

    Each interval's speech frames are mean-normalized in dB. The macro
    value per interval is the population std of the 31-point moving
    average of that contour; macro_mean/macro_std aggregate over
    intervals. Micro values are means of absolute frame-to-frame dB
    differences over non-overlapping 4-sample windows (trailing partial
    windows are dropped); micro_mean/micro_std aggregate every window in
    the recording.
    """
    speech = track.is_speech.astype(bool)
    if not speech.any():
        return (0.0,) * len(INTENSITY_DYNAMICS_FEATURES)

    macros = []
    micro_windows = []
    for sel in _speech_by_interval(track, intervals):
        contour = track.intensity_db[sel]
        contour = contour - contour.mean()
        macros.append(float(np.std(moving_average(contour, MACRO_WIN_FRAMES))))
        diffs = np.abs(np.diff(contour))
        n_complete = len(diffs) // MICRO_WIN_FRAMES
        if n_complete > 0:
            blocks = diffs[: n_complete * MICRO_WIN_FRAMES].reshape(n_complete, -1)
            micro_windows.extend(blocks.mean(axis=1).tolist())

    macros_arr = np.array(macros) if macros else np.zeros(1)
    micro_arr = np.array(micro_windows) if micro_windows else np.zeros(1)
    return (
        float(macros_arr.mean()),
        float(macros_arr.std()),
        float(micro_arr.mean()),
        float(micro_arr.std()),
    )
