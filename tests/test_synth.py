"""Synthetic corpus generator: schedule arithmetic, rendered signal
properties recovered by the analysis chain, and the corpus layout."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readskill import synth
from readskill.corpus import scan_corpus
from readskill.dsp import build_track
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


def test_synthcorpus_cli(tmp_path):
    out = tmp_path / "corpus"
    rc = synth.main(["generate", "--out", str(out), "--per-class", "1",
                     "--duration", "6.0", "--seed", "2", "--profile", "M_A",
                     "--no-hyp"])
    assert rc == 0
    index = scan_corpus(out)
    assert len(index.ids) == 1
    assert index.labels[index.ids[0]] == "M_A"
