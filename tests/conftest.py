"""Shared fixtures and oracles: synthetic corpora are expensive, so the
ones several test modules read from are built once per session."""
from __future__ import annotations

import numpy as np
import pytest

from readskill import synth
from readskill.dsp import LAG_MAX, LAG_MIN, SILENCE_DBFS


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Nine 8 s recordings, three per skill class, with hypotheses."""
    root = tmp_path_factory.mktemp("corpus_small")
    synth.write_corpus(root, per_class=3, duration=8.0, seed=0)
    return root


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
