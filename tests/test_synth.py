"""Synthetic corpus generator: schedule arithmetic, rendered signal
properties recovered by the analysis chain, and the corpus layout."""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from readskill import synth
from readskill.corpus import scan_corpus
from readskill.dsp import SAMPLE_RATE, build_track
from readskill.errors import TooShort
from readskill.featurize import FEATURE_INDEX, extract_features
from readskill.lexical import SkillClass
from readskill.pauses import extract_pauses

LABELS = ("C", "M", "D", "S1", "Sm", "I")


def test_generate_too_short():
    profile = synth.make_profile(SkillClass.C_A, seed=0)
    with pytest.raises(TooShort):
        synth.generate(profile, duration=4.9)


def test_generate_deterministic():
    profile = synth.make_profile(SkillClass.M_A, seed=3)
    a = synth.generate(profile, duration=6.0)
    b = synth.generate(profile, duration=6.0)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[3], b[3])


def test_generate_intervals_quarter_recording():
    profile = synth.make_profile(SkillClass.C_A, seed=0)
    _, intervals, _, _ = synth.generate(profile, duration=8.0)
    assert len(intervals) == 4
    for k, (start, end) in enumerate(intervals):
        assert start == pytest.approx(2.0 * k)
        assert end == pytest.approx(2.0 * (k + 1))


def test_default_pause_schedule_m_a_covers_three_tenths():
    for duration in (6.0, 10.0, 14.0):
        sched = synth.default_pause_schedule(SkillClass.M_A, duration, seed=0)
        assert len(sched) == 3
        assert sum(d for _, d in sched) == pytest.approx(0.3 * duration)
        for _, d in sched:
            assert d >= 0.5


def test_default_pause_schedule_other_classes():
    sched_c = synth.default_pause_schedule(SkillClass.C_A, 10.0, seed=0)
    assert len(sched_c) == 2
    assert all(d == pytest.approx(0.25) for _, d in sched_c)
    sched_i = synth.default_pause_schedule(SkillClass.I_A, 10.0, seed=0)
    assert len(sched_i) == 1


def test_default_pause_schedule_sorted_disjoint():
    for skill in SkillClass:
        sched = synth.default_pause_schedule(skill, 10.0, seed=4)
        starts = [s for s, _ in sched]
        assert starts == sorted(starts)
        for (s0, d0), (s1, _) in zip(sched, sched[1:]):
            assert s0 + d0 < s1


def test_randomized_schedule_class_independent():
    # keyed by corpus seed and index only, so every class shares it
    a = synth.randomized_pause_schedule(10.0, seed=7, index=2)
    b = synth.randomized_pause_schedule(10.0, seed=7, index=2)
    assert a == b
    c = synth.randomized_pause_schedule(10.0, seed=7, index=3)
    assert a != c
    assert 1 <= len(a) <= 3
    for _, d in a:
        assert 0.4 <= d <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=200_000), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=500))
def test_allocate_bumps_gives_each_segment_one_and_sums_to_total(lengths, extra):
    total = len(lengths) + extra
    counts = synth._allocate_bumps(lengths, total)
    assert len(counts) == len(lengths)
    assert min(counts) >= 1
    assert sum(counts) == total


def test_c_a_bump_count_recovered():
    profile = synth.make_profile(SkillClass.C_A, seed=0)
    samples, _, _, _ = synth.generate(profile, duration=10.0)
    track = build_track(samples)
    from readskill.pauses import detect_syllables
    peaks = detect_syllables(samples, track.is_speech)
    assert abs(len(peaks) - 40) <= 2


def test_m_a_pauses_detected_exactly():
    profile = synth.make_profile(SkillClass.M_A, seed=0, noise_dbfs=-200.0)
    samples, _, _, sched = synth.generate(profile, duration=10.0)
    track = build_track(samples)
    pauses = extract_pauses(track.is_speech)
    assert len(pauses) == len(sched) == 3
    for (got_start, got_duration), (start, dur) in zip(pauses, sched):
        assert got_duration == pytest.approx(dur, abs=0.03)
        assert got_start == pytest.approx(start, abs=0.03)


def test_i_a_profile_contrasts_with_c_a():
    story = synth.default_story()
    feats = {}
    for skill in (SkillClass.C_A, SkillClass.I_A):
        profile = synth.make_profile(skill, seed=0)
        samples, ivs, _, _ = synth.generate(profile, duration=10.0)
        feats[skill] = extract_features(samples, ivs, story)[0]
    c, i = feats[SkillClass.C_A], feats[SkillClass.I_A]
    # flat 4 dB modulation vs deep 15 dB: less loudness movement
    assert i[FEATURE_INDEX["intensity_macro_mean"]] < c[FEATURE_INDEX["intensity_macro_mean"]]
    # one wander band vs four: the centroid mode dominates more often
    assert i[FEATURE_INDEX["norm_mode_count"]] > c[FEATURE_INDEX["norm_mode_count"]]
    # 5.5 bumps per second vs 4.0
    assert i[FEATURE_INDEX["articulation_rate"]] > c[FEATURE_INDEX["articulation_rate"]]


def test_transcription_words_and_labels():
    profile = synth.make_profile(SkillClass.M_A, seed=11)
    tr = synth._synth_transcription(profile)
    story_words = synth.default_story().words
    assert len(tr.words) == 40
    for w, expected in zip(tr.words, story_words):
        assert w.word == expected
        assert w.label in LABELS
        if w.label in ("S1", "Sm"):
            assert w.substitution
        else:
            assert w.substitution is None


def test_transcription_label_mix_tracks_profile():
    # missed-heavy profiles mark plenty of words M; fluent ones almost none
    m_tr = synth._synth_transcription(synth.make_profile(SkillClass.M_A, seed=0))
    c_tr = synth._synth_transcription(synth.make_profile(SkillClass.C_A, seed=0))
    m_missed = sum(1 for w in m_tr.words if w.label == "M")
    c_missed = sum(1 for w in c_tr.words if w.label == "M")
    assert m_missed > c_missed


def test_hypothesis_confidences_match_labels():
    profile = synth.make_profile(SkillClass.I_A, seed=2)
    tr = synth._synth_transcription(profile)
    rows = synth.synth_hypothesis(tr, seed=2)
    n_missed = sum(1 for w in tr.words if w.label == "M")
    assert len(rows) == len(tr.words) - n_missed
    spoken = [w for w in tr.words if w.label != "M"]
    for (text, conf), w in zip(rows, spoken):
        assert 0.0 < conf < 1.0
        if w.label in ("C", "D"):
            assert text == w.word
            assert conf >= 0.7
        elif w.label == "S1":
            assert text == w.substitution
            assert conf >= 0.55
        elif w.label == "Sm":
            assert text == w.substitution
            assert conf <= 0.45
        else:
            assert conf <= 0.4


def test_write_corpus_layout(small_corpus):
    index = scan_corpus(small_corpus)
    assert len(index.ids) == 9
    assert index.ids == sorted(index.ids)
    assert index.story is not None
    for rid in index.ids:
        assert index.wav_path(rid).exists()
        assert index.intervals_path(rid).exists()
        assert index.words_path(rid).exists()
        assert index.hyp_path(rid).exists()
        assert index.labels[rid] in ("C_A", "M_A", "I_A")
        assert index.metadata[rid].get("child_id")
    per_class = {}
    for rid in index.ids:
        label = index.labels[rid]
        per_class[label] = per_class.get(label, 0) + 1
    assert per_class == {"C_A": 3, "M_A": 3, "I_A": 3}


def test_write_corpus_without_hypotheses(tmp_path):
    synth.write_corpus(tmp_path, per_class=1, duration=6.0, seed=1,
                       with_hyp=False)
    assert not list(tmp_path.glob("*.hyp.csv"))
    index = scan_corpus(tmp_path)
    assert all(not index.hyp_path(rid).exists() for rid in index.ids)


def test_write_corpus_bad_pause_style(tmp_path):
    with pytest.raises(ValueError):
        synth.write_corpus(tmp_path, pause_style="jittered")


def test_write_corpus_randomized_shares_schedules():
    # same index k across classes renders the same realized pause schedule
    # even though every other profile knob differs
    k = 1
    sched = {}
    for skill in SkillClass:
        profile = synth.make_profile(
            skill,
            seed=3 * 1_000_003 + int(skill) * 1_009 + k,
            pause_schedule=synth.randomized_pause_schedule(6.0, 3, k),
        )
        sched[skill] = synth.generate(profile, 6.0)[3]
    assert len(sched[SkillClass.C_A]) > 0
    assert np.array_equal(sched[SkillClass.C_A], sched[SkillClass.M_A])
    assert np.array_equal(sched[SkillClass.C_A], sched[SkillClass.I_A])


@st.composite
def pause_schedules(draw, min_pauses=0):
    """(duration, schedule): time-ordered pauses inside the recording, at
    least 0.08 s apart, so every pause survives the frame snap and speech
    is left between any two padded silences."""
    duration = draw(st.floats(min_value=5.0, max_value=8.0))
    schedule = []
    end = 0.2
    for _ in range(draw(st.integers(min_value=min_pauses, max_value=3))):
        start = end + draw(st.floats(min_value=0.08, max_value=1.5))
        end = start + draw(st.floats(min_value=0.05, max_value=1.0))
        if end > duration - 0.2:
            break
        schedule.append((start, end - start))
    return duration, tuple(schedule)


@settings(max_examples=40, deadline=None)
@given(pause_schedules(), st.sampled_from(list(SkillClass)))
def test_rendered_silences_are_the_returned_pauses(drawn, skill):
    # without noise, the runs of exact zeros are the returned pauses widened
    # by the render pad, and nothing else in the recording is silent
    duration, schedule = drawn
    profile = synth.make_profile(skill, seed=5, noise_dbfs=-200.0, pause_schedule=schedule)
    samples, _, _, pauses = synth.generate(profile, duration)
    assert len(pauses) == len(schedule)
    for (start, dur), (want_start, want_dur) in zip(pauses, schedule):
        assert start == pytest.approx(want_start, abs=0.005 + 1e-9)
        assert start + dur == pytest.approx(want_start + want_dur, abs=0.005 + 1e-9)
    silent = samples == 0.0
    edges = np.flatnonzero(np.diff(np.concatenate(([0], silent.astype(np.int8), [0]))))
    pad = synth.PAUSE_RENDER_PAD
    widened = [[round(start * SAMPLE_RATE) - pad, round((start + dur) * SAMPLE_RATE) + pad]
               for start, dur in pauses]
    assert edges.reshape(-1, 2).tolist() == widened
    assert not np.signbit(samples[silent]).any()  # +0.0, never -0.0


@settings(max_examples=30, deadline=None)
@given(pause_schedules(min_pauses=2), st.booleans())
def test_generate_rejects_unordered_or_overlapping_pauses(drawn, overlap):
    duration, schedule = drawn
    assume(len(schedule) >= 2)
    if overlap:
        (s0, _), (s1, d1) = schedule[:2]
        schedule = ((s0, s1 - s0 + d1 / 2),) + schedule[1:]
    else:
        schedule = schedule[::-1]
    profile = synth.make_profile(SkillClass.C_A, seed=0, pause_schedule=schedule)
    with pytest.raises(ValueError, match="pause_schedule"):
        synth.generate(profile, duration)


@pytest.mark.parametrize("schedule", [
    ((2.0, 0.5), (1.0, 0.5)),    # out of order
    ((1.0, 1.0), (1.5, 1.0)),    # overlapping
    ((1.0, 1.0), (2.04, 1.0)),   # padded silences touch: no speech between
], ids=["unordered", "overlapping", "no_speech_between"])
def test_generate_rejects_schedule_it_cannot_render(schedule):
    profile = synth.make_profile(SkillClass.M_A, seed=0, pause_schedule=schedule)
    with pytest.raises(ValueError, match="pause_schedule"):
        synth.generate(profile, 6.0)


@pytest.mark.parametrize("flag,value", [
    ("--duration", "4.9"), ("--duration", "nan"), ("--duration", "inf"),
    ("--seed", "-3"), ("--noise-dbfs", "nan"), ("--noise-dbfs", "inf"),
    ("--noise-dbfs", "60"), ("--noise-dbfs", "0"), ("--noise-dbfs", "-19.9"),
    ("--per-class", "0"), ("--per-class", "-1"),
])
def test_synthcorpus_cli_rejects_bad_numbers(tmp_path, capsys, flag, value):
    out = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exc:
        synth.main(["generate", "--out", str(out), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"synthcorpus generate: error: argument {flag}: must be")
    assert not out.exists()


def test_synthcorpus_cli(tmp_path):
    out = tmp_path / "corpus"
    rc = synth.main(["generate", "--out", str(out), "--per-class", "1",
                     "--duration", "6.0", "--seed", "2", "--profile", "M_A",
                     "--no-hyp", "--noise-dbfs", "-20"])  # the loudest accepted
    assert rc == 0
    index = scan_corpus(out)
    assert len(index.ids) == 1
    assert index.labels[index.ids[0]] == "M_A"


# sha256 of generate(...)[0].tobytes() for seed 41; randomized schedules
# use the class code as their index. Recorded with numpy 2.4 on x86-64.
RENDER_DIGESTS = {
    ("C_A", "class", 5.0): "eaa27568ebdc865657961a41cc7d700c0ca1cfd2b4bdc1b6559189989769ef23",
    ("C_A", "class", 7.3): "bcca96f24b7e24e4a80c969203714d6234eec05718b7c9709705013d8c55a100",
    ("C_A", "randomized", 5.0): "bb9d2840d64f7f12939ddbca2aa91e5d768969221b2c818aec3506838c3155e8",
    ("C_A", "randomized", 7.3): "7ef535b875aa1802ece497900d38c2ed07a25ca45f1c364c979a99312def0109",
    ("M_A", "class", 5.0): "f54b4ae08ad572c296787d1715def2f9896703b1ab469849b92d58c5ee230fa8",
    ("M_A", "class", 7.3): "86d3de1e67d21502c8da407e9947b2a7ef30852304deb079f89f6db06787c3ea",
    ("M_A", "randomized", 5.0): "1e09877f7438f4af9f2745690b8f8b2f548238c56d9c52ca0d932bc9b19fcb46",
    ("M_A", "randomized", 7.3): "027380020b70159e348092d0ca3fab346cd2e7707b43e0aafd8526841ffa9b32",
    ("I_A", "class", 5.0): "a149fa3f11164406d5ff376d867dadb36f547171aa0988ca445a7703096bae37",
    ("I_A", "class", 7.3): "75cc979dd962616c3896fbb7ed7d8ccb84a7ac4d9cca0f55f6b410f00074fd88",
    ("I_A", "randomized", 5.0): "5d52c39cea6d4e09cbbc073d228241a9a79547456d399fd865fa3fc287c0e65c",
    ("I_A", "randomized", 7.3): "067f19c6fab1fdcd18cf7e059c86bebcf27f096618c4d52129ec3cbdf4ccd378",
}


@pytest.mark.parametrize("skill,style,duration", sorted(RENDER_DIGESTS))
def test_generate_golden_bytes(skill, style, duration):
    schedule = (synth.randomized_pause_schedule(duration, 41, int(SkillClass[skill]))
                if style == "randomized" else None)
    profile = synth.make_profile(SkillClass[skill], seed=41, pause_schedule=schedule)
    samples = synth.generate(profile, duration)[0]
    digest = hashlib.sha256(samples.tobytes()).hexdigest()
    assert digest == RENDER_DIGESTS[(skill, style, duration)]


def _tree_digest(root) -> str:
    """sha256 over the sorted (file name, sha256 of its bytes) pairs."""
    h = hashlib.sha256()
    for path in sorted(Path(root).iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("kwargs,digest", [
    (dict(seed=6, pause_style="randomized"),
     "1c81c3fcd63d51f5d123fbccacbb2e266146c8d991b8af1ed8ca66f674a6554f"),
    (dict(seed=7, noise_dbfs=-200.0),
     "ece59c6d55e91bde3ec9ee42503fd62de9d492fad3388663b432b3a3821fbbbe"),
], ids=["randomized", "noise_free"])
def test_write_corpus_golden_bytes(tmp_path, kwargs, digest):
    synth.write_corpus(tmp_path, per_class=2, duration=5.0, **kwargs)
    assert len(list(tmp_path.iterdir())) == 27
    assert _tree_digest(tmp_path) == digest


def _full_length_render(profile, duration):
    """generate()'s samples as they were rendered before it skipped the
    silences: every step over all n samples, silences masked to zero
    amplitude. Same rng draws in the same order."""
    n = int(round(duration * SAMPLE_RATE))
    rng = np.random.default_rng([profile.seed, 17])
    schedule = profile.pause_schedule
    if schedule is None:
        schedule = synth.default_pause_schedule(profile.skill, duration, profile.seed)
    pad = synth.PAUSE_RENDER_PAD
    edges = [0] + [e for s0, s1 in synth._align_schedule(schedule, n)
                   for e in (s0 - pad, s1 + pad)] + [n]
    spans = list(zip(edges[::2], edges[1::2]))
    n_bumps = max(1, int(round(profile.syllable_rate_hz * duration)))
    bump_counts = synth._allocate_bumps([b - a for a, b in spans], n_bumps)
    env_db = np.full(n, -np.inf)
    for (a, b), k in zip(spans, bump_counts):
        t = np.arange(b - a) / (b - a)
        env_db[a:b] = profile.level_dbfs - profile.am_depth_db * (
            0.5 + 0.5 * np.cos(2.0 * np.pi * k * t))
    amplitude = np.zeros(n)
    voiced = np.isfinite(env_db)
    amplitude[voiced] = 10.0 ** (env_db[voiced] / 20.0)
    f0 = float(rng.uniform(220.0, 300.0))
    t = np.arange(n) / SAMPLE_RATE
    span_hz = 400.0 * profile.wander_bands
    center = synth.WANDER_BASE_HZ + span_hz / 2.0
    resonance = center + 0.4 * span_hz * np.sin(
        2.0 * np.pi * synth.WANDER_RATE_HZ * t + rng.uniform(0.0, 2.0 * np.pi))
    carrier = np.zeros(n)
    power = np.zeros(n)
    for h in range(1, int(8000.0 / f0) + 1):
        gain = np.exp(-((h * f0 - resonance) ** 2) / (2.0 * synth.RESONANCE_SIGMA_HZ ** 2))
        carrier += gain * np.cos(2.0 * np.pi * h * f0 * t + rng.uniform(0.0, 2.0 * np.pi))
        power += gain * gain
    samples = amplitude * carrier / np.maximum(np.sqrt(power / 2.0), 1e-9)
    if profile.noise_dbfs > -150.0:
        samples = samples + 10.0 ** (profile.noise_dbfs / 20.0) * rng.standard_normal(n)
    return np.clip(samples, -0.999, 0.999)


@settings(max_examples=15, deadline=None)
@given(pause_schedules(), st.sampled_from(list(SkillClass)), st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=12))
def test_generate_matches_full_length_render(drawn, skill, noisy, seed, bands):
    # equal values everywhere; with noise on, equal bytes too (without noise
    # the full-length render leaves some silent samples at -0.0). The drawn
    # wander bands move the resonance, so the carrier stops early, late or
    # never, while the reference renders every harmonic
    duration, schedule = drawn
    profile = synth.make_profile(skill, seed=seed, pause_schedule=schedule,
                                 noise_dbfs=-70.0 if noisy else -200.0,
                                 wander_bands=bands)
    got = synth.generate(profile, duration)[0]
    want = _full_length_render(profile, duration)
    assert np.array_equal(got, want)
    if noisy:
        assert got.tobytes() == want.tobytes()


def test_generate_skips_harmonics_that_cannot_change_a_bit(monkeypatch):
    # an I_A resonance wanders one band above 800 Hz, far below 8 kHz, so
    # the carrier stops before its last harmonic; np.cos runs once for the
    # envelope of the single speech span and once per evaluated harmonic
    profile = synth.make_profile(SkillClass.I_A, seed=3, pause_schedule=())
    f0 = np.random.default_rng([3, 17]).uniform(220.0, 300.0)
    cos = np.cos
    calls = []

    def counting_cos(*args, **kwargs):
        calls.append(1)
        return cos(*args, **kwargs)

    monkeypatch.setattr(synth.np, "cos", counting_cos)
    synth.generate(profile, 5.0)
    assert len(calls) - 1 < int(8000.0 / f0)
