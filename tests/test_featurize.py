"""Feature vector assembly: naming contract, all-silence policy, value
wiring, and the versioned CSV round trip."""
from __future__ import annotations

import numpy as np
import pytest

from readskill import synth
from readskill.corpus import StoryText
from readskill.dsp import HOP_S
from readskill.dynamics import intensity_dynamics, spectral_dynamics, speech_by_sentence
from readskill.errors import IntervalCountMismatch, SchemaMismatch
from readskill.featurize import (
    FEATURE_GROUPS,
    FEATURE_INDEX,
    FEATURE_NAMES,
    extract_features,
    read_features,
    write_features,
)
from readskill.pauses import pause_features, syllable_rate_features

SAMPLE_RATE = 16000

STORY = StoryText(
    story_id="t",
    sentences=(("one", "two"), ("three", "four")),
    sentence_syllables=(2, 2),
)


def spans(*pairs: tuple[float, float]) -> np.ndarray:
    return np.array(pairs)


def test_feature_names_contract():
    assert len(FEATURE_NAMES) == 17
    assert FEATURE_NAMES[:6] == ("pause_mean", "pause_std", "pause_min",
                                 "pause_max", "pause_freq", "pauses_per_interval")
    assert FEATURE_NAMES[6:10] == ("rel_syll_mean", "rel_syll_std",
                                   "rel_syll_cv", "articulation_rate")
    assert FEATURE_NAMES[10:13] == ("freq_distribution_ratio", "norm_mode_count",
                                    "norm_mode_variation")
    assert FEATURE_NAMES[13:] == ("intensity_macro_mean", "intensity_macro_std",
                                  "intensity_micro_mean", "intensity_micro_std")
    assert len(set(FEATURE_NAMES)) == 17


def test_feature_groups_partition_names():
    seen = []
    for group in ("pause", "rate", "spectral_dynamics", "intensity_dynamics"):
        seen.extend(FEATURE_GROUPS[group])
    assert tuple(seen) == FEATURE_NAMES


def test_feature_index_round_trip():
    for name, k in FEATURE_INDEX.items():
        assert FEATURE_NAMES[k] == name


def test_all_silence_policy():
    duration = 2.0
    v, *_ = extract_features(np.zeros(int(duration * SAMPLE_RATE)), spans((0.0, 1.0), (1.0, duration)), STORY)
    # one recording-length pause (whole hops, so a hair under 2.0 s)
    assert v[FEATURE_INDEX["pause_mean"]] == pytest.approx(duration, abs=0.05)
    assert v[FEATURE_INDEX["pause_min"]] == v[FEATURE_INDEX["pause_max"]]
    assert v[FEATURE_INDEX["pause_min"]] == v[FEATURE_INDEX["pause_mean"]]
    assert v[FEATURE_INDEX["pause_std"]] == 0.0
    assert v[FEATURE_INDEX["pause_freq"]] == pytest.approx(1.0 / duration)
    assert v[FEATURE_INDEX["pauses_per_interval"]] == pytest.approx(0.5)
    for name in ("rel_syll_mean", "rel_syll_std", "rel_syll_cv",
                 "articulation_rate", "freq_distribution_ratio",
                 "norm_mode_count", "norm_mode_variation",
                 "intensity_macro_mean", "intensity_macro_std",
                 "intensity_micro_mean", "intensity_micro_std"):
        assert v[FEATURE_INDEX[name]] == 0.0, name


def test_interval_count_mismatch():
    with pytest.raises(IntervalCountMismatch):
        extract_features(np.zeros(SAMPLE_RATE), spans((0.0, 1.0)), STORY)


def test_values_wired_to_component_outputs():
    # recompute every block from the returned products and compare positions
    profile = synth.make_profile(synth.SkillClass.M_A, seed=5)
    samples, ivs, _, _ = synth.generate(profile, duration=8.0)
    story = synth.default_story()
    v, track, pauses, peaks = extract_features(samples, ivs, story)

    pf = pause_features(pauses, ivs, 8.0)
    speech_duration = float(track.is_speech.sum()) * HOP_S
    sr = syllable_rate_features(peaks, ivs,
                                list(story.sentence_syllables), speech_duration)
    sentences = speech_by_sentence(track, ivs)
    sd = spectral_dynamics(track.centroid_hz, sentences)
    idy = intensity_dynamics(track.intensity_db, sentences)

    assert v[FEATURE_INDEX["pause_mean"]] == pf[0]
    assert v[FEATURE_INDEX["pause_std"]] == pf[1]
    assert v[FEATURE_INDEX["pause_min"]] == pf[2]
    assert v[FEATURE_INDEX["pause_max"]] == pf[3]
    assert v[FEATURE_INDEX["pause_freq"]] == pf[4]
    assert v[FEATURE_INDEX["pauses_per_interval"]] == pf[5]
    assert v[FEATURE_INDEX["rel_syll_mean"]] == sr[0]
    assert v[FEATURE_INDEX["rel_syll_std"]] == sr[1]
    assert v[FEATURE_INDEX["rel_syll_cv"]] == sr[2]
    assert v[FEATURE_INDEX["articulation_rate"]] == sr[3]
    assert v[FEATURE_INDEX["freq_distribution_ratio"]] == sd[0]
    assert v[FEATURE_INDEX["norm_mode_count"]] == sd[1]
    assert v[FEATURE_INDEX["norm_mode_variation"]] == sd[2]
    assert v[FEATURE_INDEX["intensity_macro_mean"]] == idy[0]
    assert v[FEATURE_INDEX["intensity_macro_std"]] == idy[1]
    assert v[FEATURE_INDEX["intensity_micro_mean"]] == idy[2]
    assert v[FEATURE_INDEX["intensity_micro_std"]] == idy[3]


def test_articulation_rate_tracks_bump_rate():
    # a continuous C_A rendering packs its bumps at the configured rate,
    # so the measured nuclei-per-speech-second should land nearby
    profile = synth.make_profile(synth.SkillClass.C_A, seed=1,
                                 pause_schedule=())
    samples, ivs, _, _ = synth.generate(profile, duration=8.0)
    values, _, _, peaks = extract_features(samples, ivs, synth.default_story())
    # every rendered bump is found exactly once
    assert len(peaks) == round(profile.syllable_rate_hz * 8.0)
    # speech time can only shrink below the full duration (AM troughs dip
    # under the VAD threshold), so the rate lands at or above nominal
    ar = values[FEATURE_INDEX["articulation_rate"]]
    assert profile.syllable_rate_hz <= ar <= profile.syllable_rate_hz * 1.3


def test_extract_deterministic():
    profile = synth.make_profile(synth.SkillClass.I_A, seed=9)
    samples, ivs, _, _ = synth.generate(profile, duration=8.0)
    story = synth.default_story()
    a, *_ = extract_features(samples, ivs, story)
    b, *_ = extract_features(samples, ivs, story)
    assert np.array_equal(a, b)


def test_write_read_round_trip_exact(tmp_path):
    rng = np.random.default_rng(12)
    rows = [(f"r{k:03d}", ("C_A", "M_A", "I_A", None)[k % 4],
             rng.uniform(-1000.0, 1000.0, size=17))
            for k in range(100)]
    path = tmp_path / "features.csv"
    write_features(rows, path)
    ids, classes, X = read_features(path)
    assert len(ids) == len(classes) == 100
    assert ids == [rid for rid, _, _ in rows]
    assert classes == [label for _, label, _ in rows]
    assert np.array_equal(X, np.array([values for _, _, values in rows]))


def test_read_rejects_wrong_version(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("# features-v99\nid,class\n")
    with pytest.raises(SchemaMismatch):
        read_features(path)


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("# features-v1\nid,class,bogus\n")
    with pytest.raises(SchemaMismatch):
        read_features(path)


def test_read_rejects_short_row(tmp_path):
    path = tmp_path / "features.csv"
    write_features([("a", "C_A", np.zeros(17))], path)
    with open(path, "a") as fh:
        fh.write("b,C_A,1.0,2.0\n")
    with pytest.raises(SchemaMismatch):
        read_features(path)


def test_read_header_only_is_empty(tmp_path):
    path = tmp_path / "features.csv"
    write_features([], path)
    ids, classes, X = read_features(path)
    assert ids == [] and classes == []
    assert X.shape == (0, 17)


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", ""])
def test_read_rejects_non_finite_cell(tmp_path, cell):
    path = tmp_path / "features.csv"
    write_features([("a", "C_A", np.zeros(17)), ("b", "M_A", np.ones(17))], path)
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[2 + FEATURE_INDEX["pause_freq"]] = cell
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch,
                       match=f"features.csv: row 3 has non-numeric pause_freq '{cell}'"):
        read_features(path)
