"""Spectral and intensity dynamics on hand-built and drawn frame tracks,
checked against direct counting and loop oracles and against the groups'
former (track, intervals) forms."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from readskill.corpus import interval_index
from readskill.dsp import HOP_S, FrameTrack, moving_average
from readskill.dynamics import (
    BAND_TOP_HZ,
    BAND_WIDTH_HZ,
    INTENSITY_DYNAMICS_FEATURES,
    MACRO_WIN_FRAMES,
    MICRO_WIN_FRAMES,
    SPECTRAL_DYNAMICS_FEATURES,
    intensity_dynamics,
    spectral_dynamics,
    speech_by_sentence,
)

CENTER_S = 0.0125


def make_track(centroids, intensity=None, speech=None) -> FrameTrack:
    centroids = np.asarray(centroids, dtype=np.float64)
    n = len(centroids)
    if intensity is None:
        intensity = np.full(n, -20.0)
    if speech is None:
        speech = np.ones(n, dtype=bool)
    intensity = np.asarray(intensity, dtype=np.float64)
    energy = 10.0 ** (intensity / 10.0)
    return FrameTrack(
        energy=energy,
        intensity_db=intensity,
        centroid_hz=centroids,
        is_speech=np.asarray(speech, dtype=bool),
    )


def spectral(track: FrameTrack, intervals: np.ndarray) -> tuple[float, ...]:
    return spectral_dynamics(track.centroid_hz, speech_by_sentence(track, intervals))


def intensity(track: FrameTrack, intervals: np.ndarray) -> tuple[float, ...]:
    return intensity_dynamics(track.intensity_db, speech_by_sentence(track, intervals))


def spans(*pairs: tuple[float, float]) -> np.ndarray:
    return np.array(pairs)


def frame_interval(n: int, k_intervals: int, duration: float) -> list[int]:
    """Interval index per frame center, mirroring the midpoint rule."""
    bounds = [duration * j / k_intervals for j in range(k_intervals + 1)]
    out = []
    for i in range(n):
        t = i * HOP_S + CENTER_S
        k = k_intervals - 1
        for j in range(k_intervals):
            if bounds[j] <= t < bounds[j + 1]:
                k = j
                break
        out.append(k)
    return out


def spectral_oracle(centroids, speech, interval_of):
    """Counter-based reimplementation of the three sp-dyn features."""
    bands = [min(int(c // 400.0), 19) for c in centroids]
    k_intervals = max(interval_of) + 1
    ratios, norms = [], []
    for k in range(k_intervals):
        sel = [b for b, s, iv in zip(bands, speech, interval_of) if s and iv == k]
        if not sel:
            continue
        counts = Counter(sel)
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        c1 = ordered[0][1]
        c2 = ordered[1][1] if len(ordered) > 1 else 0
        ratios.append(c1 / c2 if c2 > 0 else float(c1))
        norms.append(c1 / len(sel))
    all_sel = [b for b, s in zip(bands, speech) if s]
    counts = Counter(all_sel)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    g1 = ordered[0][1]
    ratio = sum(ratios) / len(ratios)
    norm_mean = sum(norms) / len(norms)
    variation = (sum((x - norm_mean) ** 2 for x in norms) / len(norms)) ** 0.5
    return ratio, g1 / len(all_sel), variation


def test_single_band_degenerate():
    track = make_track(np.full(50, 1234.0))
    ratio, mode_count, mode_variation = spectral(
        track, spans((0.0, 50 * HOP_S + 0.1)))
    assert ratio == 50.0
    assert mode_count == 1.0
    assert mode_variation == 0.0


def test_even_two_band_split_ratio_one():
    # alternate between band 2 (900 Hz) and band 5 (2100 Hz)
    cents = [900.0 if i % 2 == 0 else 2100.0 for i in range(40)]
    track = make_track(cents)
    ratio, _, _ = spectral(track, spans((0.0, 40 * HOP_S + 0.1)))
    assert ratio == pytest.approx(1.0)


def test_spectral_matches_counting_oracle():
    rng = np.random.default_rng(42)
    n, duration = 300, 300 * HOP_S + 0.05
    cents = rng.uniform(0.0, 7999.0, size=n)
    speech = rng.random(n) < 0.8
    speech[:5] = True
    track = make_track(cents, speech=speech)
    ivs = spans((0.0, duration / 3), (duration / 3, 2 * duration / 3),
                (2 * duration / 3, duration))
    interval_of = frame_interval(n, 3, duration)
    got = spectral(track, ivs)
    want = spectral_oracle(cents, speech, interval_of)
    assert got[0] == pytest.approx(want[0], abs=1e-9)
    assert got[1] == pytest.approx(want[1], abs=1e-9)
    assert got[2] == pytest.approx(want[2], abs=1e-9)


def test_band_edges_clip_to_top_band():
    track = make_track([8000.0, 7999.0, 8000.0, 8000.0])
    _, mode_count, _ = spectral(track, spans((0.0, 1.0)))
    # 8000 Hz would index band 20; it must clip into band 19 with 7999
    assert mode_count == 1.0


def test_spectral_no_speech():
    track = make_track(np.full(30, 500.0), speech=np.zeros(30, dtype=bool))
    out = spectral(track, spans((0.0, 1.0)))
    assert out == (0.0, 0.0, 0.0)


def test_spectral_skips_empty_intervals():
    # second interval holds no speech frames; its slot must not produce NaN
    n = 100
    duration = n * HOP_S
    speech = np.ones(n, dtype=bool)
    speech[40:70] = False
    track = make_track(np.full(n, 1000.0), speech=speech)
    ivs = spans((0.0, 0.4), (0.4, 0.7), (0.7, duration))
    ratio, _, mode_variation = spectral(track, ivs)
    assert np.isfinite(ratio)
    assert np.isfinite(mode_variation)


def test_intensity_constant_contour_zero():
    track = make_track(np.full(80, 1000.0), intensity=np.full(80, -15.0))
    macro_mean, _, micro_mean, _ = intensity(track, spans((0.0, 80 * HOP_S + 0.1)))
    assert macro_mean == 0.0
    assert micro_mean == 0.0


def test_intensity_offset_invariant():
    rng = np.random.default_rng(3)
    base = rng.uniform(-40.0, -10.0, size=120)
    ivs = spans((0.0, 0.6), (0.6, 120 * HOP_S + 0.05))
    a = intensity(make_track(np.full(120, 1000.0), intensity=base), ivs)
    b = intensity(make_track(np.full(120, 1000.0), intensity=base + 12.5), ivs)
    for got, want in zip(a, b):  # macro mean and std, micro mean and std
        assert got == pytest.approx(want, abs=1e-9)


def test_intensity_alternating_micro_exact():
    # contour alternates -17, -23: every first difference is 6 dB, and the
    # 31-frame smoothing flattens the wiggle so macro stays small
    n = 200
    contour = np.where(np.arange(n) % 2 == 0, -17.0, -23.0)
    track = make_track(np.full(n, 1000.0), intensity=contour)
    macro_mean, _, micro_mean, micro_std = intensity(
        track, spans((0.0, n * HOP_S + 0.1)))
    assert micro_mean == pytest.approx(6.0)
    assert micro_std == pytest.approx(0.0, abs=1e-9)
    assert macro_mean < 0.2


def test_intensity_slow_sinusoid_macro():
    # 4 s sinusoidal contour, amplitude 6 dB, one interval; the oracle
    # repeats the documented pipeline with plain loops
    n = 400
    contour = -20.0 + 6.0 * np.sin(2.0 * np.pi * np.arange(n) / n)
    track = make_track(np.full(n, 1000.0), intensity=contour)
    macro_mean, macro_std, micro_mean, micro_std = intensity(
        track, spans((0.0, n * HOP_S + 0.1)))

    centered = contour - contour.mean()
    smooth = moving_average(centered, 31)
    macro_want = float(np.std(smooth))
    diffs = np.abs(np.diff(centered))
    windows = [diffs[i: i + 4].mean() for i in range(0, len(diffs) - len(diffs) % 4, 4)]
    micro_want = float(np.mean(windows))
    micro_std_want = float(np.std(windows))
    assert macro_mean == pytest.approx(macro_want, abs=1e-6)
    assert macro_std == 0.0
    assert micro_mean == pytest.approx(micro_want, abs=1e-6)
    assert micro_std == pytest.approx(micro_std_want, abs=1e-6)
    # amplitude-6 sinusoid smoothed over 31 of 400 frames keeps most of
    # its swing: population std near 6/sqrt(2)
    assert 3.5 <= macro_mean <= 4.4


def test_intensity_random_matches_loop_oracle():
    rng = np.random.default_rng(17)
    n = 250
    duration = n * HOP_S + 0.02
    contour = rng.uniform(-45.0, -5.0, size=n)
    speech = rng.random(n) < 0.7
    speech[:3] = True
    track = make_track(np.full(n, 1000.0), intensity=contour, speech=speech)
    ivs = spans((0.0, duration / 2), (duration / 2, duration))
    macro_mean, macro_std, micro_mean, micro_std = intensity(track, ivs)

    interval_of = frame_interval(n, 2, duration)
    macros, windows = [], []
    for k in range(2):
        seg = np.array([c for c, s, iv in zip(contour, speech, interval_of)
                        if s and iv == k])
        if len(seg) == 0:
            continue
        seg = seg - seg.mean()
        macros.append(float(np.std(moving_average(seg, 31))))
        diffs = np.abs(np.diff(seg))
        for i in range(0, len(diffs) - len(diffs) % 4, 4):
            windows.append(float(diffs[i: i + 4].mean()))
    assert macro_mean == pytest.approx(np.mean(macros), abs=1e-9)
    assert macro_std == pytest.approx(np.std(macros), abs=1e-9)
    assert micro_mean == pytest.approx(np.mean(windows), abs=1e-9)
    assert micro_std == pytest.approx(np.std(windows), abs=1e-9)


def test_intensity_no_speech():
    track = make_track(np.full(30, 500.0), speech=np.zeros(30, dtype=bool))
    out = intensity(track, spans((0.0, 1.0)))
    assert out == (0.0, 0.0, 0.0, 0.0)


def test_intensity_single_frame_interval():
    # one speech frame: no diffs, no windows; values stay finite zeros
    speech = np.zeros(50, dtype=bool)
    speech[10] = True
    track = make_track(np.full(50, 500.0), speech=speech)
    macro_mean, _, micro_mean, _ = intensity(track, spans((0.0, 1.0)))
    assert macro_mean == 0.0
    assert micro_mean == 0.0


@pytest.mark.parametrize("n_speech", [5, 6, 7, 8])
def test_intensity_sentence_with_one_micro_window(n_speech):
    # 5-8 speech frames give 4-7 first differences: exactly one complete
    # 4-frame micro window, whose mean is the micro value
    speech = np.zeros(50, dtype=bool)
    speech[10:10 + n_speech] = True
    contour = np.full(50, -30.0)
    contour[10:18] = -20.0 + np.array([0.0, 3.0, -1.0, 1.0, -4.0, 2.0, 0.0, 5.0])
    track = make_track(np.full(50, 500.0), intensity=contour, speech=speech)
    _, _, micro_mean, micro_std = intensity(track, spans((0.0, 1.0)))
    assert micro_mean == pytest.approx(3.5, abs=1e-12)  # mean of |3|, |-4|, |2|, |-5|
    assert micro_std == 0.0


def _speech_by_interval(track: FrameTrack, intervals: np.ndarray):
    """Reference: the (track, intervals) split that both groups once made."""
    speech = track.is_speech.astype(bool)
    idx = interval_index(track.times, intervals)
    for k in range(len(intervals)):
        sel = speech & (idx == k)
        if sel.any():
            yield sel


def spectral_reference(track: FrameTrack, intervals: np.ndarray) -> tuple[float, ...]:
    """spectral_dynamics as a function of the track and the intervals, with
    norm_mode_count from a second, whole-recording histogram."""
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


def intensity_reference(track: FrameTrack, intervals: np.ndarray) -> tuple[float, ...]:
    """intensity_dynamics as a function of the track and the intervals."""
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


@st.composite
def tracks_and_intervals(draw):
    """A track of 0-150 frames, silent about one time in four, with 0/1
    integer is_speech about one time in three and centroids often at or past
    the 8 kHz top band; and 1-6 sorted sentence intervals, which may leave
    gaps, be empty or end before the last frame, so that sentences without
    speech are common."""
    n = draw(st.integers(0, 150))
    silent = draw(st.integers(0, 3)) == 0
    speech = draw(arrays(draw(st.sampled_from([bool, bool, np.int64])), n,
                         elements=st.integers(0, 0 if silent else 1)))
    centroids = draw(arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, 399.9, 400.0, 7999.9, 8000.0, 8400.0, 1e4]),
        st.floats(0.0, 12_000.0))))
    intensities = draw(arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([-30.0, -20.0]), st.floats(-90.0, 0.0))))
    track = FrameTrack(energy=10.0 ** (intensities / 10.0), intensity_db=intensities,
                       centroid_hz=centroids, is_speech=speech)
    k = draw(st.integers(1, 6))
    bounds = draw(arrays(np.float64, 2 * k, elements=st.floats(0.0, (n + 1) * HOP_S)))
    return track, np.sort(bounds).reshape(k, 2)


@settings(max_examples=300, deadline=None)
@given(tracks_and_intervals())
def test_groups_equal_their_track_and_interval_forms(drawn):
    track, intervals = drawn
    sentences = speech_by_sentence(track, intervals)
    assert spectral_dynamics(track.centroid_hz, sentences) == spectral_reference(
        track, intervals)
    assert intensity_dynamics(track.intensity_db, sentences) == intensity_reference(
        track, intervals)


@settings(max_examples=300, deadline=None)
@given(tracks_and_intervals())
def test_speech_by_sentence_partitions_the_speech_frames(drawn):
    track, intervals = drawn
    sentences = speech_by_sentence(track, intervals)
    speech = track.is_speech.astype(bool)
    assert all(sel.dtype == bool and sel.shape == speech.shape and sel.any()
               for sel in sentences)
    held = np.sum(sentences, axis=0) if sentences else np.zeros(track.n_frames, dtype=int)
    assert held.tolist() == speech.astype(int).tolist()  # each speech frame once
    # each mask is one interval's frames, in interval order
    idx = interval_index(track.times, intervals)
    owners = [np.unique(idx[sel]).tolist() for sel in sentences]
    assert all(len(owner) == 1 for owner in owners)
    assert [o[0] for o in owners] == sorted({int(i) for i in idx[speech]})
