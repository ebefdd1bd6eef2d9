"""The numpy peak finder in ``pauses`` against scipy.signal, its oracle,
and detect_syllables against an oracle built on it. scipy is a test
dependency only, so without it this module is skipped and the rest of the
suite still runs."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import detect_syllables_oracle
from readskill import pauses, synth
from readskill.dsp import build_track
from readskill.lexical import SkillClass

signal = pytest.importorskip("scipy.signal")

# Arrays drawn as runs of a few levels, so ties and plateaus are the rule,
# including plateaus at either end and arrays of one value.
runs = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=12)


def expand(run_list) -> np.ndarray:
    return np.array([float(v) for v, n in run_list for _ in range(n)])


@settings(max_examples=400, deadline=None)
@given(runs)
@example([])
@example([(1, 1)])
@example([(0, 1), (1, 1)])
@example([(0, 1), (2, 1), (1, 1)])
@example([(2, 3)])
@example([(2, 2), (1, 1)])
@example([(1, 1), (2, 2)])
@example([(0, 1), (2, 4), (1, 1), (2, 1), (0, 1)])
def test_find_peaks_and_prominences_match_scipy(run_list):
    x = expand(run_list)
    expected = signal.find_peaks(x)[0]
    peaks = pauses._find_peaks(x)
    assert peaks.dtype == expected.dtype
    np.testing.assert_array_equal(peaks, expected)
    np.testing.assert_array_equal(pauses._peak_prominences(x, peaks),
                                  signal.peak_prominences(x, expected)[0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=300))
def test_peak_prominences_match_scipy_on_real_values(values):
    x = np.array(values, dtype=np.float64)
    peaks = pauses._find_peaks(x)
    np.testing.assert_array_equal(peaks, signal.find_peaks(x)[0])
    np.testing.assert_array_equal(pauses._peak_prominences(x, peaks),
                                  signal.peak_prominences(x, peaks)[0])


@pytest.mark.parametrize("pause_style", ["class", "randomized"])
@pytest.mark.parametrize("skill", list(SkillClass))
def test_detect_syllables_finds_the_scipy_peak_frames(skill, pause_style):
    found = 0
    for k, duration in enumerate((5.0, 12.0)):
        schedule = (synth.randomized_pause_schedule(duration, 3, k)
                    if pause_style == "randomized" else None)
        profile = synth.make_profile(skill, seed=100 * int(skill) + k, pause_schedule=schedule)
        samples, _, _, _, _ = synth.generate(profile, duration)
        is_speech = build_track(samples).is_speech
        got = pauses.detect_syllables(samples, is_speech)
        expected = detect_syllables_oracle(samples, is_speech)
        assert got.tolist() == expected.tolist()
        found += len(got)
    assert found > 0


@pytest.mark.parametrize("band", [(312.5, 2500.0), (3000.0, 3001.0), (1.0, 7999.0),
                                  (2990.0, 3010.0)])
def test_detect_syllables_at_other_bands_finds_the_oracle_peak_frames(band):
    # bands whose edges fall on bin centres, between them, and one holding
    # a single bin
    cfg = pauses.SyllableConfig(band_low_hz=band[0], band_high_hz=band[1])
    profile = synth.make_profile(SkillClass.C_A, seed=9)
    samples = synth.generate(profile, 6.0)[0]
    is_speech = build_track(samples).is_speech
    got = pauses.detect_syllables(samples, is_speech, cfg)
    assert got.tolist() == detect_syllables_oracle(samples, is_speech, cfg).tolist()
    assert len(got) > 0
