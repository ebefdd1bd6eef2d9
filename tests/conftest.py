"""Shared fixtures and oracles: synthetic corpora are expensive, so the
ones several test modules read from are built once per session."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from readskill import synth
from readskill.dsp import (FFT_SIZE, FRAME_LEN, HOP, HOP_S, LAG_MAX, LAG_MIN, SAMPLE_RATE,
                           SILENCE_DBFS, frame_times, moving_average)
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


NUCLEUS_WINDOW_S = 0.05  # a detected nucleus this close to a rendered one finds it


def matched_times(truth, found, window: float = NUCLEUS_WINDOW_S) -> int:
    """Size of the largest one-to-one matching of sorted ``found`` times to
    sorted ``truth`` times at most ``window`` apart. Every truth time owns
    a window of the same width, so taking the pairs in time order is
    optimal."""
    i = j = hits = 0
    while i < len(truth) and j < len(found):
        if abs(found[j] - truth[i]) <= window:
            hits, i, j = hits + 1, i + 1, j + 1
        elif found[j] < truth[i]:
            j += 1
        else:
            i += 1
    return hits


def score_detection(true_pauses, true_nuclei, pauses, nuclei) -> dict:
    """A recording's detected (start, duration) pauses and nucleus times
    scored against the ones synth.generate rendered.

    Nuclei: the rendered and detected counts and the matched pairs within
    NUCLEUS_WINDOW_S (recall is hits / truth, precision hits / found).
    Pauses: the rendered and detected counts, the rendered pauses that a
    detected pause overlaps, and the largest start and end errors in
    seconds between each such pause and the first detected pause that
    overlaps it."""
    start_err = end_err = 0.0
    matched = 0
    for start, duration in true_pauses:
        over = [(s, d) for s, d in pauses if s < start + duration and start < s + d]
        if over:
            s, d = over[0]
            matched += 1
            start_err = max(start_err, abs(s - start))
            end_err = max(end_err, abs(s + d - start - duration))
    return {
        "nuclei": len(true_nuclei), "found": len(nuclei),
        "hits": matched_times(true_nuclei, nuclei),
        "pauses": len(true_pauses), "found_pauses": len(pauses), "matched_pauses": matched,
        "start_err": start_err, "end_err": end_err,
    }


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
    """pauses.detect_syllables written out on its own: each frame's band
    power from its own np.fft.rfft over the bins whose centre lies in the
    band, scipy.signal's find_peaks and peak_prominences, and the pairwise
    min-gap rule. The nucleus times."""
    from scipy import signal

    cfg = cfg or SyllableConfig()
    x = np.asarray(samples, dtype=np.float64)
    if x.size < FRAME_LEN:
        return np.empty(0)
    n = min((x.size - FRAME_LEN) // HOP + 1, len(is_speech))
    centres = np.arange(FFT_SIZE // 2 + 1) * (SAMPLE_RATE / FFT_SIZE)
    in_band = (centres >= cfg.band_low_hz) & (centres <= cfg.band_high_hz)
    env = np.empty(n)
    for i in range(n):
        spectrum = np.fft.rfft(x[i * HOP:i * HOP + FRAME_LEN], n=FFT_SIZE)
        env[i] = np.sum(np.abs(spectrum[in_band]) ** 2)
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
