"""Pause extraction and syllable nucleus detection on top of the VAD."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import interval_index, write_rows
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


BAND_ORDER = 4  # Butterworth order of the syllable band-pass
# odd-extension samples at each end: scipy.signal.sosfiltfilt's default padlen
# for BAND_ORDER sections, none of which has a zero b2 or a2
_PAD = 3 * (2 * BAND_ORDER + 1)
_STATES = 2 * BAND_ORDER  # two delay registers per second-order section
_BLOCK = 64  # samples per block of the block state-space filter
# OpenBLAS splits a product of more multiply-adds than this over threads,
# which oversubscribes the cores when --jobs workers each run one
_MAX_MACS = 2 ** 18


def _butter_band_sos(band_low_hz: float, band_high_hz: float) -> np.ndarray:
    """Second-order sections of a BAND_ORDER Butterworth band-pass:
    ``scipy.signal.butter(BAND_ORDER, [low, high], "bandpass", fs=SAMPLE_RATE,
    output="sos")`` step for step, with the same bits.

    The analog prototype is moved to the band (lp2bp) and to the z-plane
    (bilinear, pre-warped), which puts BAND_ORDER zeros at +1 and as many
    at -1. As in zpk2sos, the pole pair closest to the unit circle goes into
    the last section with the two zeros nearest to it, and so on backwards;
    the gain goes into the first section."""
    wn = np.array([band_low_hz, band_high_hz], dtype=np.float64) / (SAMPLE_RATE / 2)
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    m = np.arange(-BAND_ORDER + 1, BAND_ORDER, 2, dtype=np.float64)
    p_lp = (-np.exp(1j * np.pi * m / (2 * BAND_ORDER)) * bw / 2).astype(np.complex128)
    p_bp = np.concatenate((p_lp + np.sqrt(p_lp ** 2 - wo ** 2),
                           p_lp - np.sqrt(p_lp ** 2 - wo ** 2)))
    poles = (4.0 + p_bp) / (4.0 - p_bp)
    gain = bw ** BAND_ORDER * np.real(
        np.prod(np.full(BAND_ORDER, 4.0 + 0j)) / np.prod(4.0 - p_bp))
    upper = poles[poles.imag > 0]  # one pole of each conjugate pair
    upper = upper[np.lexsort((np.abs(upper.imag), upper.real))]
    zeros = np.repeat([-1.0, 1.0], BAND_ORDER)
    sos = np.empty((BAND_ORDER, 6))
    for section in reversed(range(BAND_ORDER)):
        i = np.argmin(np.abs(1 - np.abs(upper)))
        pole, upper = upper[i], np.delete(upper, i)
        pair = []
        for _ in range(2):
            j = np.argsort(np.abs(zeros - pole))[0]
            pair.append(zeros[j])
            zeros = np.delete(zeros, j)
        sos[section, :3] = np.poly(pair)
        sos[section, 3:] = np.poly([pole, pole.conj()])
    sos[0, :3] *= gain
    return sos


def _df2t_step(sos: np.ndarray, state: np.ndarray, u: np.ndarray):
    """One sample of the transposed direct-form II cascade, as
    scipy.signal.sosfilt runs it, for each column of ``state`` (_STATES
    rows, two per section) and entry of ``u``: (next states, outputs)."""
    state = state.copy()
    y = u
    for section, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        out = b0 * y + state[2 * section]
        state[2 * section] = b1 * y - a1 * out + state[2 * section + 1]
        state[2 * section + 1] = b2 * y - a2 * out
        y = out
    return state, y


class _BandPass(NamedTuple):
    """The band-pass cascade as one linear system with _STATES states, taken
    _BLOCK samples at a time. For row vectors of block samples ``u`` and of
    block-start states ``s``, the block's output is ``(u @ inputs)[:_BLOCK]
    + s @ from_state`` and the next block's start state ``s @ step +
    (u @ inputs)[_BLOCK:]``."""

    inputs: np.ndarray      # (_BLOCK, _BLOCK + _STATES)
    from_state: np.ndarray  # (_STATES, _BLOCK)
    step: np.ndarray        # (_STATES, _STATES)


@functools.lru_cache(maxsize=8)
def _band_pass(band_low_hz: float, band_high_hz: float) -> _BandPass:
    """The band's filter, designed once per band: one block of the cascade
    run on every unit input sample and every unit start state at once.
    Every caller shares the arrays, so they are read-only."""
    sos = _butter_band_sos(band_low_hz, band_high_hz)
    unit = np.eye(_BLOCK + _STATES)  # a column per unit sample, then per unit state
    state, outputs = unit[_BLOCK:], []
    for u in unit[:_BLOCK]:
        state, y = _df2t_step(sos, state, u)
        outputs.append(y)
    response = np.vstack((*outputs, state)).T  # (unit, block output then end state)
    band_pass = _BandPass(
        inputs=np.ascontiguousarray(response[:_BLOCK]),
        from_state=np.ascontiguousarray(response[_BLOCK:, :_BLOCK]),
        step=np.ascontiguousarray(response[_BLOCK:, _BLOCK:]))
    for array in band_pass:
        array.flags.writeable = False
    return band_pass


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, in row chunks of at most _MAX_MACS multiply-adds each."""
    rows = max(1, _MAX_MACS // (a.shape[1] * b.shape[1]))
    out = np.empty((len(a), b.shape[1]))
    for i in range(0, len(a), rows):
        np.matmul(a[i:i + rows], b, out=out[i:i + rows])
    return out


def _filter(band_pass: _BandPass, u: np.ndarray) -> np.ndarray:
    """The cascade's response to ``u`` from rest.

    Each block's start state is the sum of the terms of the blocks before
    it, each carried forward by ``step``. A doubling scan builds the sums:
    after the pass with stride d, every state holds the terms of the last
    2d of them."""
    n_blocks = -(-len(u) // _BLOCK)
    blocks = np.zeros(n_blocks * _BLOCK)
    blocks[:len(u)] = u
    by_input = _matmul_rows(blocks.reshape(n_blocks, _BLOCK), band_pass.inputs)
    states = np.zeros((n_blocks, _STATES))
    states[1:] = by_input[:-1, _BLOCK:]
    stride, step = 1, band_pass.step
    while stride < n_blocks:
        states[stride:] += _matmul_rows(states[:-stride], step)
        stride, step = 2 * stride, step @ step
    y = _matmul_rows(states, band_pass.from_state)
    y += by_input[:, :_BLOCK]
    return y.ravel()[:len(u)]


def _filtfilt(band_pass: _BandPass, x: np.ndarray) -> np.ndarray:
    """Zero-phase filtering as ``scipy.signal.sosfiltfilt``: _PAD samples of
    odd extension at each end, then a forward and a backward pass.

    sosfiltfilt starts each pass in the steady state of its first sample
    v, so the pass's output is the constant response to v plus the
    response from rest to the input minus v. The cascade's zeros at +1
    make its DC gain exactly 0, so the constant response is 0, and each
    pass here runs from rest on its input minus its first sample. Only
    the last bits differ, since the blocks sum in another order."""
    ext = np.concatenate((2 * x[0] - x[_PAD:0:-1], x, 2 * x[-1] - x[-2:-(_PAD + 2):-1]))
    y = _filter(band_pass, ext - ext[0])
    y = _filter(band_pass, y[::-1] - y[-1])[::-1]
    return y[_PAD:-_PAD]


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

    The signal goes through a BAND_ORDER Butterworth band-pass, run forward
    and backward so the peaks keep their place. The band is reduced to a
    10 ms-hop energy envelope, smoothed over 150 ms. Local maxima survive when they fall on a speech
    frame, reach 10% of the global envelope maximum, have at least 5%
    prominence, and sit at least 100 ms away from any stronger kept peak.
    """
    cfg = cfg or SyllableConfig()
    x = np.asarray(samples, dtype=np.float64)
    if x.size < FRAME_LEN:
        return np.empty(0)
    band = _filtfilt(_band_pass(cfg.band_low_hz, cfg.band_high_hz), x)

    env = frame_energy(raw_frames(band))
    n = min(len(env), len(is_speech))
    env = env[:n]
    smooth_frames = max(1, int(round(cfg.smooth_s / HOP_S)))
    env = moving_average(env, smooth_frames)

    peak_idx = _find_peaks(env)
    top = float(env.max(initial=0.0))
    prom = _peak_prominences(env, peak_idx)
    speech = np.asarray(is_speech, dtype=bool)[:n]
    ok = speech[peak_idx] & (env[peak_idx] >= cfg.height_frac * top) \
        & (prom >= cfg.prominence_frac * top)
    candidates = peak_idx[ok]

    # strongest first; ties go to the earlier peak
    min_gap = int(round(cfg.min_gap_s / HOP_S))
    order = sorted(range(len(candidates)), key=lambda i: (-env[candidates[i]], candidates[i]))
    kept: list[int] = []
    for i in order:
        c = candidates[i]
        if all(abs(c - k) >= min_gap for k in kept):
            kept.append(int(c))
    kept.sort()
    return frame_times(n)[kept]


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
