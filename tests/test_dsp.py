"""Frame analysis: framing arithmetic, spectral centroid and harmonicity
against brute-force oracles, speech detection smoothing rules."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import harmonicity_batch_oracle
from readskill import synth
from readskill.dsp import (
    ENERGY_FLOOR,
    FRAME_LEN,
    HARM_BLOCK,
    HOP,
    HOP_S,
    LAG_MAX,
    LAG_MIN,
    SAMPLE_RATE,
    SILENCE_DBFS,
    VadConfig,
    _centroid_batch,
    _dilate,
    _harmonicity_batch,
    bool_runs,
    build_track,
    dump_frames,
    moving_average,
    frame_energy,
    raw_frames,
    vad,
)
from readskill.errors import TooShort
from readskill.lexical import SkillClass

CENTER_S = (FRAME_LEN / SAMPLE_RATE) / 2.0


def sine(freq: float, n: int, amp: float = 1.0) -> np.ndarray:
    return amp * np.sin(2.0 * np.pi * freq * np.arange(n) / SAMPLE_RATE)


def centroid_oracle(frame: np.ndarray) -> float:
    """Direct DFT summation over 512 bins, power weighted by bin
    frequency, restricted to (0, 8000] Hz."""
    x = np.zeros(512)
    x[: len(frame)] = frame
    num = den = 0.0
    for k in range(1, 257):
        freq = k * SAMPLE_RATE / 512
        if freq > 8000.0:
            break
        re = np.sum(x * np.cos(-2.0 * np.pi * k * np.arange(512) / 512))
        im = np.sum(x * np.sin(-2.0 * np.pi * k * np.arange(512) / 512))
        power = re * re + im * im
        num += freq * power
        den += power
    return num / den if den > 0 else 0.0


def harmonicity_oracle(frame: np.ndarray) -> float:
    """Per-lag normalized autocorrelation computed with explicit slices."""
    x = np.asarray(frame, dtype=np.float64)
    n = len(x)
    if 10.0 * np.log10(np.mean(x * x) + 1e-12) < -60.0:
        return 0.0
    best = 0.0
    for lag in range(LAG_MIN, LAG_MAX + 1):
        head, tail = x[: n - lag], x[lag:]
        den = np.sqrt(np.dot(head, head) * np.dot(tail, tail))
        if den > 0.0:
            best = max(best, float(np.dot(head, tail) / den))
    return min(best, 1.0)


def test_frame_count_one_second():
    assert raw_frames(np.zeros(16000)).shape == (98, FRAME_LEN)


def test_frame_count_exact_window():
    assert raw_frames(np.zeros(400)).shape == (1, FRAME_LEN)


def test_frame_count_too_short():
    with pytest.raises(TooShort):
        raw_frames(np.zeros(399))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=400, max_value=20000))
def test_frame_count_formula(n):
    assert len(raw_frames(np.zeros(n))) == (n - FRAME_LEN) // HOP + 1


def test_centroid_1khz_sine():
    got = _centroid_batch(sine(1000.0, 400)[None, :])[0]
    assert abs(got - 1000.0) <= SAMPLE_RATE / 512


def test_track_centroid_1khz_sine():
    track = build_track(sine(1000.0, 16000, amp=0.1))
    mid = track.centroid_hz[10:-10]
    assert np.all(np.abs(mid - 1000.0) <= SAMPLE_RATE / 512)


def test_centroid_zero_frame():
    assert _centroid_batch(np.zeros(400)[None, :])[0] == 0.0


def test_centroid_matches_dft_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        frame = rng.standard_normal(400)
        got = _centroid_batch(frame[None, :])[0]
        want = centroid_oracle(frame)
        assert abs(got - want) <= 1e-6 * abs(want)


def test_centroid_amplitude_invariant():
    rng = np.random.default_rng(8)
    frame = rng.standard_normal(400)
    a = _centroid_batch(frame[None, :])[0]
    b = _centroid_batch((frame * 37.5)[None, :])[0]
    assert abs(a - b) <= 1e-9 * abs(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**32 - 1),
       st.lists(st.integers(min_value=0, max_value=200), max_size=8))
@example(70, 0, list(range(7, 70, 7)))
@example(3, 1, [])
def test_centroid_batch_is_the_same_for_any_split(n, seed, cuts):
    frames, _ = _gated_frames(n, seed, "mixed")
    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    joined = np.concatenate([_centroid_batch(frames[a:b]) for a, b in zip(bounds, bounds[1:])])
    assert joined.tobytes() == _centroid_batch(frames).tobytes()


def frame_harmonicity(frame: np.ndarray) -> float:
    """_harmonicity_batch on one frame, gated by that frame's intensity."""
    f = np.asarray(frame, dtype=np.float64)[None, :]
    intensity_db = 10.0 * np.log10(frame_energy(f) + ENERGY_FLOOR)
    return float(_harmonicity_batch(f, intensity_db)[0])


def test_harmonicity_periodic_tone():
    assert frame_harmonicity(sine(200.0, 400, amp=0.1)) >= 0.95


def test_harmonicity_silence():
    assert frame_harmonicity(np.zeros(400)) == 0.0


def test_harmonicity_below_floor_is_zero():
    # -80 dBFS tone sits under the -60 dBFS energy gate
    assert frame_harmonicity(sine(200.0, 400, amp=1e-4)) == 0.0


def test_harmonicity_noise_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(5):
        frame = rng.standard_normal(400) * 0.1
        got = frame_harmonicity(frame)
        want = harmonicity_oracle(frame)
        assert got < 0.5
        assert abs(got - want) <= 1e-6


def test_harmonicity_amplitude_invariant():
    frame = sine(150.0, 400, amp=0.2) + 0.01 * np.random.default_rng(3).standard_normal(400)
    assert abs(frame_harmonicity(frame) - frame_harmonicity(frame * 5.0)) <= 1e-9


def test_harmonicity_in_unit_range():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = frame_harmonicity(rng.standard_normal(400))
        assert 0.0 <= h <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=1.0))
@example(0, 0, 1.0)
@example(1, 1, 1.0)
@example(1, 1, 0.0)
@example(40, 0, 0.5)  # a 40-frame spectrum is past numpy's 256 KiB elision size
def test_harmonicity_batch_on_masked_rows_is_bit_equal(n, seed, keep):
    # build_track computes harmonicity on the VAD band rows only; each row
    # must come out exactly as it does in the full batch
    rng = np.random.default_rng(seed)
    n_samples = FRAME_LEN + HOP * max(n - 1, 0)
    # per-hop gains from -100 to 0 dBFS put ~40% of the rows under the
    # silence gate; half the signal is a 90-300 Hz tone
    gain = np.repeat(10.0 ** rng.uniform(-5.0, 0.0, size=n_samples // HOP + 1), HOP)
    t = np.arange(n_samples) / SAMPLE_RATE
    tone = np.sin(2.0 * np.pi * rng.uniform(90.0, 300.0) * t)
    x = gain[:n_samples] * (rng.standard_normal(n_samples) + rng.integers(0, 2) * tone)
    frames = raw_frames(x)[:n]  # a strided view, as in build_track
    intensity_db = 10.0 * np.log10(frame_energy(frames) + 1e-12)
    mask = rng.random(n) < keep
    full = _harmonicity_batch(frames, intensity_db)
    part = _harmonicity_batch(frames[mask], intensity_db[mask])
    assert part.shape == (int(mask.sum()),)
    assert np.array_equal(part, full[mask])
    assert np.all(full[intensity_db < SILENCE_DBFS] == 0.0)


def _gated_frames(n, seed, silence):
    """n raw frames (a strided view, as in build_track) and their intensity.

    silence "none" keeps every frame above the gate, "all" puts every
    frame under it, and "mixed" draws per-hop gains from -100 to 0 dBFS;
    half the signals add a 90-300 Hz tone."""
    rng = np.random.default_rng(seed)
    n_samples = FRAME_LEN + HOP * max(n - 1, 0)
    lo, hi = {"none": (-1.0, 0.0), "mixed": (-5.0, 0.0), "all": (-6.0, -5.0)}[silence]
    gain = np.repeat(10.0 ** rng.uniform(lo, hi, size=n_samples // HOP + 1), HOP)
    t = np.arange(n_samples) / SAMPLE_RATE
    tone = np.sin(2.0 * np.pi * rng.uniform(90.0, 300.0) * t)
    x = gain[:n_samples] * (rng.standard_normal(n_samples) + rng.integers(0, 2) * tone)
    frames = raw_frames(x)[:n]
    return frames, 10.0 * np.log10(frame_energy(frames) + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["none", "mixed", "all"]), st.booleans())
@example(63, 0, "mixed", False)
@example(64, 1, "mixed", False)
@example(65, 2, "mixed", False)
@example(128, 3, "mixed", False)
@example(129, 4, "mixed", False)
@example(129, 5, "none", False)
@example(129, 6, "all", False)
@example(0, 7, "mixed", False)
@example(100, 8, "mixed", True)
def test_harmonicity_batch_matches_one_batch_oracle(n, seed, silence, nan_row):
    frames, intensity_db = _gated_frames(n, seed, silence)
    if nan_row and n:
        # a NaN intensity is not under the gate: the row is computed
        intensity_db[n // 2] = np.nan
    want = harmonicity_batch_oracle(frames, intensity_db)
    got = _harmonicity_batch(frames, intensity_db)
    assert got.dtype == want.dtype and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert not got[intensity_db < SILENCE_DBFS].any()


def test_harmonicity_batch_skips_silent_frames_and_blocks_the_rest(monkeypatch):
    frames, intensity_db = _gated_frames(5 * HARM_BLOCK + 7, 9, "mixed")
    live = ~(intensity_db < SILENCE_DBFS)
    assert 2 * HARM_BLOCK < live.sum() < len(frames)
    blocks = []
    rfft = np.fft.rfft

    def recording(a, *args, **kwargs):
        blocks.append(np.array(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording)
    got = _harmonicity_batch(frames, intensity_db)
    monkeypatch.undo()
    assert [len(b) for b in blocks] == [min(HARM_BLOCK, live.sum() - k)
                                        for k in range(0, live.sum(), HARM_BLOCK)]
    # every live frame reaches the FFT once, in order, and no silent one does
    assert np.array_equal(np.concatenate(blocks), frames[live])
    assert got.tobytes() == harmonicity_batch_oracle(frames, intensity_db).tobytes()


def _band(intensity_db, cfg):
    floor = float(np.percentile(intensity_db, cfg.floor_percentile))
    threshold = max(floor + cfg.margin_db, cfg.abs_threshold_db)
    return (intensity_db > floor + cfg.harmonicity_margin_db) & (intensity_db <= threshold)


def _exactness_signals():
    signals = {}
    for skill in SkillClass:
        profile = synth.make_profile(skill, seed=3)
        signals[skill.name] = synth.generate(profile, duration=6.0)[0]
    signals["noise"] = np.random.default_rng(4).standard_normal(48000) * 0.01
    return signals


@pytest.mark.parametrize("cfg, has_band", [
    (VadConfig(), None),
    (VadConfig(abs_threshold_db=-5.0), True),  # the absolute threshold tops the band
    # harmonicity_margin_db >= margin_db, and no absolute threshold: no band
    (VadConfig(harmonicity_margin_db=6.0, abs_threshold_db=-200.0), False),
    (VadConfig(harmonicity_margin_db=9.0, abs_threshold_db=-200.0), False),
], ids=["default", "abs_threshold", "margins_equal", "margin_above"])
def test_build_track_speech_matches_full_harmonicity_vad(cfg, has_band, tmp_path):
    band_frames = 0
    for name, x in _exactness_signals().items():
        track = build_track(x, cfg)
        full = _harmonicity_batch(raw_frames(x), track.intensity_db)
        assert np.array_equal(track.is_speech, vad(track.intensity_db, full, cfg)), name
        # the frame dump's harmonicity column is that full track
        dump_frames(track, x, tmp_path / "frames.csv")
        rows = (tmp_path / "frames.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[4]) for row in rows] == full.tolist(), name
        band_frames += int(_band(track.intensity_db, cfg).sum())
    if has_band is not None:
        assert (band_frames > 0) == has_band


def test_bool_runs_reconstructs_mask():
    rng = np.random.default_rng(5)
    mask = rng.integers(0, 2, size=50).astype(bool)
    rebuilt = np.empty_like(mask)
    prev_stop = 0
    for a, b, val in bool_runs(mask):
        assert a == prev_stop and b > a
        rebuilt[a:b] = val
        prev_stop = b
    assert prev_stop == len(mask)
    assert np.array_equal(rebuilt, mask)


def test_vad_all_silence():
    n = 80
    out = vad(np.full(n, -120.0), np.zeros(n))
    assert not out.any()


def test_vad_energy_threshold_and_hangover():
    intensity = np.concatenate([np.full(50, -80.0), np.full(50, -10.0)])
    out = vad(intensity, np.zeros(100))
    # two-frame hangover pulls the onset forward from frame 50 to 48
    assert not out[:48].any()
    assert out[48:].all()


def test_vad_single_spike_removed():
    intensity = np.full(60, -80.0)
    intensity[30] = -10.0
    assert not vad(intensity, np.zeros(60)).any()


def test_vad_harmonicity_path():
    # quiet but harmonic frames clear the floor+3 dB harmonic gate even
    # though they sit under the absolute -45 dBFS energy threshold
    intensity = np.full(100, -60.0)
    intensity[40:60] = -46.0
    harm = np.zeros(100)
    harm[40:60] = 0.9
    out = vad(intensity, harm)
    assert out[40:60].all()
    assert not out[:38].any() and not out[62:].any()


def test_vad_all_silence_stays_silent_despite_gap_rule():
    out = vad(np.full(2, -120.0), np.zeros(2))
    assert not out.any()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=10, max_size=120))
def test_vad_no_short_runs(raw):
    intensity = np.where(np.array(raw), -10.0, -80.0)
    out = vad(intensity, np.zeros(len(raw)))
    for a, b, _ in bool_runs(out):
        if a == 0 and b == len(out):
            continue
        assert b - a >= 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=6), st.integers(0, 3))
def test_dilate_matches_loop_oracle(values, radius):
    # a mask shorter than the 2 * radius + 1 window keeps its own length
    mask = np.array(values)
    want = [any(values[max(0, i - radius):i + radius + 1]) for i in range(len(values))]
    assert _dilate(mask, radius).tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-80.0, -10.0), min_size=1, max_size=6),
       st.integers(0, 3), st.sampled_from([1, 3, 5]))
def test_vad_keeps_the_frame_count(intensity, hangover, median):
    cfg = VadConfig(hangover_frames=hangover, median_frames=median)
    out = vad(np.array(intensity), np.zeros(len(intensity)), cfg)
    assert out.shape == (len(intensity),)


def test_vad_tone_boundaries_within_30ms():
    x = np.concatenate([np.zeros(16000), sine(200.0, 16000, amp=0.1), np.zeros(16000)])
    track = build_track(x)
    runs = [(a, b) for a, b, val in bool_runs(track.is_speech) if val]
    assert len(runs) == 1
    a, b = runs[0]
    start = a * HOP_S + CENTER_S
    end = (b - 1) * HOP_S + CENTER_S
    assert abs(start - 1.0) <= 0.03
    assert abs(end - 2.0) <= 0.03


def test_build_track_fields():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8000) * 0.05
    track = build_track(x)
    assert track.n_frames == (8000 - FRAME_LEN) // HOP + 1
    want_db = 10.0 * np.log10(track.energy + 1e-12)
    assert np.allclose(track.intensity_db, want_db, atol=0)
    assert np.all((track.centroid_hz >= 0) & (track.centroid_hz <= 8000))
    harmonicity = _harmonicity_batch(raw_frames(x), track.intensity_db)
    assert np.all((harmonicity >= 0) & (harmonicity <= 1))
    assert track.times[0] == CENTER_S
    assert np.isclose(track.times[1] - track.times[0], HOP_S)


def test_moving_average_window_one_is_identity():
    x = np.arange(5.0)
    assert np.array_equal(moving_average(x, 1), x)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
             min_size=1, max_size=40),
    st.integers(min_value=1, max_value=9),
)
def test_moving_average_matches_loop_oracle(values, win):
    x = np.array(values)
    got = moving_average(x, win)
    half = win // 2
    for i in range(len(x)):
        lo, hi = max(0, i - half), min(len(x), i + half + 1)
        assert got[i] == pytest.approx(np.mean(x[lo:hi]), abs=1e-9)


def test_moving_average_constant_preserved():
    x = np.full(20, 3.25)
    assert np.allclose(moving_average(x, 7), 3.25)
