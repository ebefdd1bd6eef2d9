"""The numpy band-pass and peak finder in ``pauses`` against scipy.signal,
their oracle. scipy is a test dependency only, so without it this module
is skipped and the rest of the suite still runs."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import detect_syllables_oracle
from readskill import pauses, synth
from readskill.dsp import SAMPLE_RATE, build_track
from readskill.lexical import SkillClass

signal = pytest.importorskip("scipy.signal")

DEFAULT_BAND = (pauses.SyllableConfig().band_low_hz, pauses.SyllableConfig().band_high_hz)
EXTREME_BANDS = [(1.0, 7999.0), (0.5, 50.0), (20.0, 7900.0), (3000.0, 3001.0),
                 (1.0, 2.0), (7990.0, 7999.0)]


def scipy_sos(band):
    return signal.butter(pauses.BAND_ORDER, list(band), btype="bandpass",
                         fs=SAMPLE_RATE, output="sos")


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


@pytest.mark.parametrize("band", [DEFAULT_BAND, (200.0, 2500.0), *EXTREME_BANDS])
def test_design_matches_butter(band):
    sos = pauses._butter_band_sos(*band)
    np.testing.assert_allclose(sos, scipy_sos(band), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", [400, 4_001, 80_000])
def test_band_output_matches_sosfiltfilt(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 0.3
    got = pauses._filtfilt(pauses._band_pass(*DEFAULT_BAND), x)
    expected = signal.sosfiltfilt(scipy_sos(DEFAULT_BAND), x)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(x))


def _df2t_longdouble(sos, x, zi):
    """scipy.signal.sosfilt's recursion, one sample at a time in long double."""
    sos = sos.astype(np.longdouble)
    z = zi.astype(np.longdouble)
    y = np.empty(len(x), dtype=np.longdouble)
    for n, value in enumerate(x):
        for (b0, b1, b2, _, a1, a2), state in zip(sos, z):
            out = b0 * value + state[0]
            state[0] = b1 * value - a1 * out + state[1]
            state[1] = b2 * value - a2 * out
            value = out
        y[n] = value
    return y


def _filtfilt_longdouble(sos, x):
    pad = pauses._PAD
    x = x.astype(np.longdouble)
    ext = np.concatenate((2 * x[0] - x[pad:0:-1], x, 2 * x[-1] - x[-2:-(pad + 2):-1]))
    zi = signal.sosfilt_zi(sos)
    y = _df2t_longdouble(sos, ext, zi * ext[0])
    y = _df2t_longdouble(sos, y[::-1], zi * y[-1])[::-1]
    return y[pad:-pad]


@pytest.mark.parametrize("band", EXTREME_BANDS)
def test_band_output_at_extreme_bands_is_near_a_long_double_reference(band):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(700) + 0.5
    reference = _filtfilt_longdouble(scipy_sos(band), x)
    got = pauses._filtfilt(pauses._band_pass(*band), x)
    assert float(np.max(np.abs(got - reference))) <= 1e-6 * np.max(np.abs(x))


@pytest.mark.parametrize("pause_style", ["class", "randomized"])
@pytest.mark.parametrize("skill", list(SkillClass))
def test_detect_syllables_finds_the_scipy_peak_frames(skill, pause_style):
    found = 0
    for k, duration in enumerate((5.0, 12.0)):
        schedule = (synth.randomized_pause_schedule(duration, 3, k)
                    if pause_style == "randomized" else None)
        profile = synth.make_profile(skill, seed=100 * int(skill) + k, pause_schedule=schedule)
        samples, _, _, _ = synth.generate(profile, duration)
        is_speech = build_track(samples).is_speech
        got = pauses.detect_syllables(samples, is_speech)
        expected = detect_syllables_oracle(samples, is_speech)
        assert got.tolist() == expected.tolist()
        found += len(got)
    assert found > 0
