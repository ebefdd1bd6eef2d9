"""The pause and nucleus detectors scored against what synth.generate
rendered, over every class at three noise levels.

FLOORS holds each (class, noise) cell summed over SEEDS, as the detectors
scored when the table was taken: rendered nuclei, detected nuclei, hits
within NUCLEUS_WINDOW_S, rendered pauses, detected pauses, rendered pauses
a detected one overlaps, and the largest pause start and end errors in
seconds. A change to a detector may lose at most one hit and gain at most
one false nucleus in a cell, and pooled recall and precision may not fall.
Pause counts and errors may not get worse in any cell.
"""
from __future__ import annotations

import numpy as np
import pytest

from conftest import NUCLEUS_WINDOW_S, matched_times, score_detection
from readskill import synth
from readskill.dsp import SAMPLE_RATE, build_track
from readskill.lexical import SkillClass
from readskill.pauses import detect_syllables, extract_pauses

SEEDS = (0, 1, 2)
DURATION_S = 10.0
NOISES_DBFS = (-70.0, -40.0, -30.0)
COLUMNS = ("nuclei", "found", "hits", "pauses", "found_pauses", "matched_pauses",
           "start_err", "end_err")

FLOORS = {
    ("C_A", -70.0): (120, 120, 120, 6, 6, 6, 0.05, 0.04),
    ("C_A", -40.0): (120, 120, 120, 6, 6, 6, 0.06, 0.04),
    ("C_A", -30.0): (120, 120, 120, 6, 6, 6, 0.08, 0.06),
    ("M_A", -70.0): (120, 120, 119, 9, 9, 9, 0.01, 0.01),
    ("M_A", -40.0): (120, 120, 119, 9, 9, 9, 0.02, 0.0),
    ("M_A", -30.0): (120, 119, 118, 9, 9, 9, 0.05, 0.03),
    ("I_A", -70.0): (165, 165, 165, 3, 3, 3, 0.08, 0.07),
    ("I_A", -40.0): (165, 164, 164, 3, 3, 3, 0.08, 0.07),
    ("I_A", -30.0): (165, 132, 132, 3, 25, 3, 0.44, 0.26),
}


@pytest.fixture(scope="module")
def table() -> dict[tuple[str, float], dict]:
    cells = {}
    for skill in SkillClass:
        for noise in NOISES_DBFS:
            cell = dict.fromkeys(COLUMNS, 0)
            for seed in SEEDS:
                profile = synth.make_profile(skill, seed=seed, noise_dbfs=noise)
                samples, _, _, true_pauses, true_nuclei = synth.generate(profile, DURATION_S)
                track = build_track(samples)
                score = score_detection(true_pauses, true_nuclei,
                                        extract_pauses(track.is_speech),
                                        detect_syllables(samples, track.is_speech))
                for key, value in score.items():
                    cell[key] = max(cell[key], value) if key.endswith("_err") \
                        else cell[key] + value
            cells[skill.name, noise] = cell
    return cells


def test_nuclei_hold_their_floors(table):
    assert table.keys() == FLOORS.keys()
    worse = []
    for key, floor in FLOORS.items():
        got, want = table[key], dict(zip(COLUMNS, floor))
        assert got["nuclei"] == want["nuclei"], key
        if (got["hits"] < want["hits"] - 1
                or got["found"] - got["hits"] > want["found"] - want["hits"] + 1):
            worse.append((key, got["found"], got["hits"]))
    assert not worse, f"cells that lost a second nucleus or gained a second false one: {worse}"
    pooled = {key: sum(cell[key] for cell in table.values()) for key in ("nuclei", "found", "hits")}
    floor = {key: sum(f[COLUMNS.index(key)] for f in FLOORS.values())
             for key in ("nuclei", "found", "hits")}
    assert pooled["hits"] / pooled["nuclei"] >= floor["hits"] / floor["nuclei"]
    assert pooled["hits"] / pooled["found"] >= floor["hits"] / floor["found"]


def test_pauses_hold_their_floors(table):
    for key, floor in FLOORS.items():
        got, want = table[key], dict(zip(COLUMNS, floor))
        assert got["pauses"] == want["pauses"], key
        assert got["matched_pauses"] >= want["matched_pauses"], key
        assert (got["found_pauses"] - got["matched_pauses"]
                <= want["found_pauses"] - want["matched_pauses"]), key
        assert got["start_err"] <= want["start_err"] + 1e-6, key
        assert got["end_err"] <= want["end_err"] + 1e-6, key


@pytest.mark.parametrize("skill", list(SkillClass))
def test_generate_returns_one_nucleus_per_bump(skill):
    profile = synth.make_profile(skill, seed=4, noise_dbfs=-200.0)
    duration = 7.0
    samples, _, _, _, nuclei = synth.generate(profile, duration)
    assert len(nuclei) == round(profile.syllable_rate_hz * duration)
    assert np.all(np.diff(nuclei) > 0.0)
    # every nucleus lies in speech, and its bump peaks there: the rendered
    # silences are exact zeros, the speech samples are not
    at = np.round(nuclei * SAMPLE_RATE).astype(int)
    assert np.all(samples[at] != 0.0)


def test_matched_times_pairs_each_time_once():
    w = NUCLEUS_WINDOW_S
    assert matched_times([], [0.1]) == 0
    assert matched_times([1.0], [1.0 + 0.98 * w]) == 1
    assert matched_times([1.0], [1.0 + 2 * w]) == 0
    assert matched_times([1.0], [0.98, 1.02]) == 1  # one truth, two nearby detections
    assert matched_times([1.0, 1.06], [1.03]) == 1  # two truths, one detection
    # pairing the closest times first would give 1.04 to 1.079 and leave
    # 1.12 without a partner
    assert matched_times([1.0, 1.079], [1.04, 1.12]) == 2


def test_score_detection_counts_and_errors():
    score = score_detection(np.array([(1.0, 0.5), (3.0, 0.4)]), [0.5, 2.0, 2.5],
                            np.array([(0.98, 0.55), (5.0, 0.3)]), [0.52, 2.2, 2.51])
    assert score["nuclei"] == 3 and score["found"] == 3 and score["hits"] == 2
    assert score["pauses"] == 2 and score["found_pauses"] == 2 and score["matched_pauses"] == 1
    assert score["start_err"] == pytest.approx(0.02)
    assert score["end_err"] == pytest.approx(0.03)
