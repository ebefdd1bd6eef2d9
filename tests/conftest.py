"""Shared fixtures and oracles: synthetic corpora are expensive, so the
ones several test modules read from are built once per session."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from readskill import synth
from readskill.dsp import (FRAME_LEN, HOP_S, LAG_MAX, LAG_MIN, SAMPLE_RATE, SILENCE_DBFS,
                           frame_energy, frame_times, moving_average, raw_frames)
from readskill.pauses import SyllableConfig


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Nine 8 s recordings, three per skill class, with hypotheses."""
    root = tmp_path_factory.mktemp("corpus_small")
    synth.write_corpus(root, per_class=3, duration=8.0, seed=0)
    return root


def traced_peak(fn, *args) -> int:
    """Bytes that fn(*args) holds at its peak beyond what was live before,
    under tracemalloc, which sees numpy's array buffers. A first untraced
    call keeps one-time costs, such as numpy's lazy imports, out of it."""
    fn(*args)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def harmonicity_batch_oracle(frames, intensity_db):
    """dsp._harmonicity_batch as it was before it skipped silent frames and
    split the rest into blocks: every frame in one batch, then the silent
    ones zeroed. The blocked version must match it bit for bit."""
    n = frames.shape[1]
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    spec = np.fft.rfft(frames, n=nfft, axis=1)
    ac = np.fft.irfft(np.conj(spec) * spec, axis=1)[:, :LAG_MAX + 1]
    sq = frames * frames
    csum = np.cumsum(sq, axis=1)
    total = csum[:, -1]
    taus = np.arange(LAG_MIN, LAG_MAX + 1)
    head = csum[:, n - 1 - taus]
    tail = total[:, None] - csum[:, taus - 1]
    denom = np.sqrt(head * tail)
    num = ac[:, LAG_MIN:LAG_MAX + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(denom > 0.0, num / denom, 0.0)
    h = np.clip(rho.max(axis=1), 0.0, 1.0)
    h[intensity_db < SILENCE_DBFS] = 0.0
    return h


def detect_syllables_oracle(samples, is_speech, cfg=None):
    """pauses.detect_syllables as it was when scipy.signal did its filtering
    and peak finding: the nucleus times. The numpy port must find the same
    peak frames, though the envelope's last bits may differ."""
    from scipy import signal

    cfg = cfg or SyllableConfig()
    x = np.asarray(samples, dtype=np.float64)
    if x.size < FRAME_LEN:
        return np.empty(0)
    sos = signal.butter(4, [cfg.band_low_hz, cfg.band_high_hz], btype="bandpass",
                        fs=SAMPLE_RATE, output="sos")
    band = signal.sosfiltfilt(sos, x)

    env = frame_energy(raw_frames(band))
    n = min(len(env), len(is_speech))
    env = env[:n]
    smooth_frames = max(1, int(round(cfg.smooth_s / HOP_S)))
    env = moving_average(env, smooth_frames)

    peak_idx, _ = signal.find_peaks(env)
    if len(peak_idx) == 0:
        return np.empty(0)
    top = float(env.max())
    if top <= 0.0:
        return np.empty(0)
    prom = signal.peak_prominences(env, peak_idx)[0]
    speech = np.asarray(is_speech, dtype=bool)[:n]
    ok = speech[peak_idx] & (env[peak_idx] >= cfg.height_frac * top) \
        & (prom >= cfg.prominence_frac * top)
    candidates = peak_idx[ok]
    if len(candidates) == 0:
        return np.empty(0)

    min_gap = int(round(cfg.min_gap_s / HOP_S))
    order = sorted(range(len(candidates)), key=lambda i: (-env[candidates[i]], candidates[i]))
    kept: list[int] = []
    for i in order:
        c = candidates[i]
        if all(abs(c - k) >= min_gap for k in kept):
            kept.append(int(c))
    kept.sort()
    return frame_times(n)[kept]
