"""Pause extraction, pause statistics, syllable-nucleus detection, and
syllable-rate features, checked against constructed signals and exact
hand-computed values."""
from __future__ import annotations

import numpy as np
import pytest

from readskill.dsp import FRAME_LEN, HOP_S, SAMPLE_RATE, build_track
from readskill.errors import IntervalCountMismatch
from readskill.pauses import (
    SyllableConfig,
    detect_syllables,
    dump_events,
    extract_pauses,
    pause_features,
    syllable_rate_features,
)


def spans(*pairs: tuple[float, float]) -> np.ndarray:
    return np.array(pairs)


def mask(bits: list[int]) -> np.ndarray:
    return np.asarray(bits, dtype=bool)


def am_tone(mod_hz: float, seconds: float, carrier_hz: float = 1000.0) -> np.ndarray:
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    env = 0.5 - 0.5 * np.cos(2.0 * np.pi * mod_hz * t)
    return env * np.sin(2.0 * np.pi * carrier_hz * t)


def test_pause_threshold_is_strict():
    # min_pause_s 0.2 at 10 ms hop means a gap must span MORE than 20 frames
    for gap, expect in [(15, 0), (20, 0), (21, 1), (25, 1)]:
        bits = [1] * 10 + [0] * gap + [1] * 10
        got = extract_pauses(mask(bits))
        assert len(got) == expect, f"gap {gap}"


def test_pause_timing_fields():
    bits = [1] * 10 + [0] * 30 + [1] * 10
    ((start, duration),) = extract_pauses(mask(bits))
    assert start == pytest.approx(10 * HOP_S)
    assert duration == pytest.approx(30 * HOP_S)
    assert start + duration / 2.0 == pytest.approx(25 * HOP_S)


def test_leading_and_trailing_silence_counted():
    bits = [0] * 30 + [1] * 10 + [0] * 30
    got = extract_pauses(mask(bits))
    assert len(got) == 2
    assert got[0, 0] == pytest.approx(0.0)
    assert got[1, 0] == pytest.approx(40 * HOP_S)


def test_alternating_frames_no_pause():
    bits = [i % 2 for i in range(100)]
    assert extract_pauses(mask(bits)).shape == (0, 2)


def test_pause_features_two_known_pauses():
    pauses = np.array([(1.0, 0.3), (4.0, 0.5)])
    ivs = spans((0.0, 2.0), (2.0, 4.0), (4.0, 6.0), (6.0, 8.0))
    mean, std, lo, hi, freq, per_interval = pause_features(pauses, ivs, total_duration=8.0)
    assert mean == pytest.approx(0.4)
    # population std of {0.3, 0.5}
    assert std == pytest.approx(0.1)
    assert lo == pytest.approx(0.3)
    assert hi == pytest.approx(0.5)
    assert freq == pytest.approx(2.0 / 8.0)
    # midpoints 1.15 and 4.25 land in intervals 0 and 2: counts (1,0,1,0)
    assert per_interval == pytest.approx(0.5)


def test_pause_features_single_pause_std_zero():
    mean, std, lo, hi, _, _ = pause_features(np.array([(0.5, 0.25)]),
                                             spans((0.0, 2.0)), total_duration=2.0)
    assert mean == pytest.approx(0.25)
    assert std == 0.0
    assert lo == hi == pytest.approx(0.25)


def test_pause_features_empty():
    feats = pause_features(np.empty((0, 2)), spans((0.0, 2.0)), total_duration=2.0)
    assert feats == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_pause_midpoint_past_last_interval_end():
    # midpoint 7.9 is past every interval end: attributed to the last one
    *_, per_interval = pause_features(np.array([(7.8, 0.2)]),
                                      spans((0.0, 4.0), (4.0, 7.85)), total_duration=8.0)
    assert per_interval == pytest.approx(0.5)


def test_detect_syllables_4hz_am():
    x = am_tone(4.0, 5.0)
    track = build_track(x)
    peaks = detect_syllables(x, np.ones(track.n_frames, dtype=bool))
    assert abs(len(peaks) - 20) <= 1


def test_detect_syllables_2hz_am():
    x = am_tone(2.0, 5.0)
    track = build_track(x)
    peaks = detect_syllables(x, np.ones(track.n_frames, dtype=bool))
    assert abs(len(peaks) - 10) <= 1


def test_detect_syllables_scale_invariant_count():
    x = am_tone(4.0, 5.0)
    track = build_track(x)
    ones = np.ones(track.n_frames, dtype=bool)
    a = detect_syllables(x, ones)
    b = detect_syllables(x * 0.05, ones)
    assert len(a) == len(b)
    assert a.tolist() == b.tolist()


def test_detect_syllables_silence():
    silence, tone = np.zeros(SAMPLE_RATE), am_tone(4.0, 2.0)
    for name, x, n in [
        ("silence", silence, build_track(silence).n_frames),
        # peaks, but none on a speech frame
        ("no speech frame", tone, build_track(tone).n_frames),
        # an empty speech mask leaves an empty envelope
        ("empty mask", tone, 0),
    ]:
        peaks = detect_syllables(x, np.zeros(n, dtype=bool))
        assert peaks.dtype == np.float64 and peaks.shape == (0,), name


def test_band_pass_is_designed_once_per_band(monkeypatch):
    from readskill import pauses

    x = am_tone(4.0, 2.0)
    ones = np.ones(build_track(x).n_frames, dtype=bool)
    pauses._band_pass.cache_clear()
    designs = []
    design = pauses._butter_band_sos

    def counting(*args, **kwargs):
        designs.append(args)
        return design(*args, **kwargs)

    monkeypatch.setattr(pauses, "_butter_band_sos", counting)
    first = detect_syllables(x, ones)
    assert len(detect_syllables(x * 0.5, ones))
    assert np.array_equal(detect_syllables(x, ones), first)
    assert len(designs) == 1
    detect_syllables(x, ones, SyllableConfig(band_low_hz=200.0))
    assert len(designs) == 2


@pytest.mark.parametrize("band", [(300.0, 2500.0), (200.0, 2500.0), (1.0, 7999.0),
                                  (0.5, 50.0), (3000.0, 3001.0), (7990.0, 7999.0)])
def test_band_pass_passes_no_dc(band):
    # the filter passes start from rest, which holds only while a zero at +1
    # makes the cascade's gain at DC exactly 0
    from readskill import pauses

    sos = pauses._butter_band_sos(*band)
    assert np.prod(sos[:, :3].sum(axis=1)) == 0.0


@pytest.mark.parametrize("n", [400, 4_001, 80_000])
@pytest.mark.parametrize("offset", [0.3, -5.0, 100.0])
def test_band_output_ignores_an_offset(n, offset):
    from readskill import pauses

    band_pass = pauses._band_pass(300.0, 2500.0)
    x = np.random.default_rng(n).standard_normal(n)
    shifted = pauses._filtfilt(band_pass, x + offset)
    assert np.max(np.abs(shifted - pauses._filtfilt(band_pass, x))) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("band,tol", [((300.0, 2500.0), 1e-13), ((0.5, 50.0), 1e-8),
                                      ((1.0, 7999.0), 1e-8)])
@pytest.mark.parametrize("n", [1, 63, 64, 1000, 4_001])
def test_band_pass_blocks_match_the_cascade_run_sample_by_sample(band, tol, n):
    from readskill import pauses

    sos = pauses._butter_band_sos(*band)
    u = np.random.default_rng(n).standard_normal(n)
    state, expected = np.zeros(pauses._STATES), np.empty(n)
    for i, sample in enumerate(u):
        state, expected[i] = pauses._df2t_step(sos, state, sample)
    got = pauses._filter(pauses._band_pass(*band), u)
    assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(u))


def test_detect_syllables_too_short_input():
    peaks = detect_syllables(np.zeros(100), np.zeros(0, dtype=bool))
    assert peaks.dtype == np.float64 and peaks.shape == (0,)


def test_detect_syllables_min_gap():
    # surviving peaks sit at least 100 ms apart
    x = am_tone(4.0, 5.0)
    track = build_track(x)
    peaks = detect_syllables(x, np.ones(track.n_frames, dtype=bool))
    times = sorted(peaks)
    for a, b in zip(times, times[1:]):
        assert b - a >= 10 * HOP_S - 1e-9


def test_syllable_rate_features_exact():
    # 8 peaks over intervals expecting (4, 6) and 2 s of speech
    peaks = np.array([0.25, 0.5, 0.75, 1.0, 2.25, 2.5, 2.75, 3.0])
    rel_mean, rel_std, rel_cv, rate = syllable_rate_features(
        peaks, spans((0.0, 2.0), (2.0, 4.0)), expected_counts=[4, 6], speech_duration=2.0)
    # per-interval relative counts: 4/4 = 1.0 and 4/6
    rels = [1.0, 4.0 / 6.0]
    mean = sum(rels) / 2.0
    std = (sum((r - mean) ** 2 for r in rels) / 2.0) ** 0.5
    assert rel_mean == pytest.approx(mean)
    assert rel_std == pytest.approx(std)
    assert rel_cv == pytest.approx(std / mean)
    assert rate == pytest.approx(8.0 / 2.0)


def test_syllable_rate_features_uniform_cv_zero():
    peaks = np.array([0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.25, 3.75])
    _, rel_std, rel_cv, rate = syllable_rate_features(
        peaks, spans((0.0, 2.0), (2.0, 4.2)), expected_counts=[4, 4], speech_duration=4.0)
    assert rel_std == 0.0
    assert rel_cv == 0.0
    assert rate == pytest.approx(2.0)


def test_syllable_rate_features_no_peaks():
    rel_mean, rel_std, rel_cv, rate = syllable_rate_features(
        np.empty(0), spans((0.0, 2.0)), expected_counts=[4], speech_duration=1.5)
    assert rel_mean == 0.0
    assert rel_std == 0.0
    assert rel_cv == 0.0
    assert rate == 0.0


def test_syllable_rate_features_short_speech_zero_rate():
    *_, rate = syllable_rate_features(np.array([0.05]), spans((0.0, 2.0)),
                                      expected_counts=[4], speech_duration=0.05)
    assert rate == 0.0


def test_syllable_rate_features_count_mismatch():
    with pytest.raises(IntervalCountMismatch):
        syllable_rate_features(np.empty(0), spans((0.0, 2.0), (2.0, 4.0)),
                               expected_counts=[4], speech_duration=1.0)


def test_syllable_rate_features_bad_expected():
    with pytest.raises(ValueError):
        syllable_rate_features(np.empty(0), spans((0.0, 2.0)), expected_counts=[0],
                               speech_duration=1.0)


def test_peak_times_on_frame_grid():
    x = am_tone(4.0, 5.0)
    track = build_track(x)
    peaks = detect_syllables(x, np.ones(track.n_frames, dtype=bool))
    half_window_s = (FRAME_LEN / SAMPLE_RATE) / 2.0
    for time in peaks:
        steps = (time - half_window_s) / HOP_S
        assert steps == pytest.approx(round(steps), abs=1e-9)


def test_am_peaks_near_envelope_maxima():
    # envelope maxima of 0.5 - 0.5 cos(2 pi 4 t) sit at t = 0.125 + k/4
    x = am_tone(4.0, 5.0)
    track = build_track(x)
    peaks = detect_syllables(x, np.ones(track.n_frames, dtype=bool))
    for time in peaks:
        nearest = round((time - 0.125) * 4.0) / 4.0 + 0.125
        assert abs(time - nearest) <= 0.05


def test_dump_events_format(tmp_path):
    path = tmp_path / "events.csv"
    dump_events(np.array([(1.0, 0.5)]), np.array([0.25]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,time,duration"
    assert lines[1] == "syllable,0.25,"
    assert lines[2] == "pause,1.0,0.5"


def test_extract_pauses_all_speech_is_empty():
    got = extract_pauses(np.ones(50, dtype=bool))
    assert got.dtype == np.float64 and got.shape == (0, 2)


def test_dump_events_without_events_writes_header_only(tmp_path):
    path = tmp_path / "events.csv"
    dump_events(extract_pauses(np.ones(50, dtype=bool)), np.empty(0), path)
    assert path.read_text() == "kind,time,duration\n"
