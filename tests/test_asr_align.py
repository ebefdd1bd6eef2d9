"""Hypothesis-to-text alignment: edit distance against a prefix-matrix
oracle, the op sequence against the pure-Python cost-to-go walk,
confidence remapping arithmetic, and nearest-centroid classing."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from readskill import synth
from readskill.asr_align import (
    AlignmentOp,
    align,
    classify_by_centroid,
    confidence_remap,
    parse_hypothesis,
)
from readskill.corpus import (
    SUBSTITUTION_LABELS,
    WORD_LABELS,
    TranscribedWord,
    Transcription,
    normalize_word,
)
from readskill.errors import EmptyCanonical, OutOfRange, SchemaMismatch
from readskill.lexical import SkillClass


def hyp(*pairs: tuple[str, float]) -> tuple[list[str], list[float]]:
    """(words, confidences), as parse_hypothesis returns them."""
    return [t for t, _ in pairs], [c for _, c in pairs]


def distance_oracle(ref: list[str], hyp_words: list[str]) -> int:
    """Classic forward prefix matrix, unit costs."""
    n, m = len(ref), len(hyp_words)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp_words[j - 1] else 1
            d[i, j] = min(d[i - 1, j - 1] + cost, d[i - 1, j] + 1, d[i, j - 1] + 1)
    return int(d[n, m])


def align_oracle(canonical: list[str], hypothesis: list[str]) -> tuple[int, list[AlignmentOp]]:
    """The pure-Python cost-to-go table and front-to-back walk that align
    replaced: one cell at a time, ties broken match/substitute, then
    delete, then insert."""
    ref = [normalize_word(w) for w in canonical]
    hyp_words = [normalize_word(w) for w in hypothesis]
    n, m = len(ref), len(hyp_words)
    togo = [[0] * (m + 1) for _ in range(n + 1)]
    togo[n] = [m - j for j in range(m + 1)]
    for i in range(n - 1, -1, -1):
        row = togo[i]
        below = togo[i + 1]
        row[m] = n - i
        for j in range(m - 1, -1, -1):
            sub = below[j + 1] + (0 if ref[i] == hyp_words[j] else 1)
            dele = below[j] + 1
            ins = row[j + 1] + 1
            row[j] = min(sub, dele, ins)

    ops = []
    i = j = 0
    while i < n or j < m:
        if i < n and j < m:
            cost = 0 if ref[i] == hyp_words[j] else 1
            if togo[i][j] == togo[i + 1][j + 1] + cost:
                ops.append(AlignmentOp("c" if cost == 0 else "s", i, j))
                i += 1
                j += 1
                continue
        if i < n and togo[i][j] == togo[i + 1][j] + 1:
            ops.append(AlignmentOp("d", i, None))
            i += 1
            continue
        ops.append(AlignmentOp("i", None, j))
        j += 1
    return togo[0][0], ops


def test_alignment_op_fields():
    op = AlignmentOp("s", 3, 4)
    assert AlignmentOp._fields == ("op", "ref_index", "hyp_index")
    assert op == ("s", 3, 4)
    assert (op.op, op.ref_index, op.hyp_index) == ("s", 3, 4)


def test_align_identical():
    words = ["the", "red", "fox"]
    dist, ops = align(words, words)
    assert dist == 0
    assert [op.op for op in ops] == ["c", "c", "c"]
    assert [op.ref_index for op in ops] == [0, 1, 2]
    assert [op.hyp_index for op in ops] == [0, 1, 2]


def test_align_mixed_fragment():
    # ref: a b c d; hyp: x b d e -> s, c, d, s ... or any 3-op path
    dist, ops = align(["a", "b", "c", "d"], ["x", "b", "d", "e"])
    assert dist == 3
    non_c = [op for op in ops if op.op != "c"]
    assert len(non_c) == 3


def test_align_empty_hypothesis_all_deletions():
    dist, ops = align(["one", "two", "three"], [])
    assert dist == 3
    assert [op.op for op in ops] == ["d", "d", "d"]


def test_align_empty_canonical_rejected():
    with pytest.raises(EmptyCanonical):
        align([], ["word"])


def test_align_case_and_punctuation_fold():
    dist, ops = align(["The", "fox!"], ["the", "FOX"])
    assert dist == 0
    assert [op.op for op in ops] == ["c", "c"]


def test_align_prefers_match_over_indel():
    # walking front to back, a zero-cost match must win over indel pairs
    dist, ops = align(["a", "a"], ["a"])
    assert dist == 1
    assert ops[0].op == "c"
    assert ops[1].op == "d"


def test_align_index_coverage():
    ref = ["w1", "w2", "w3", "w4", "w5"]
    hy = ["w1", "x", "w3", "y", "w5", "z"]
    dist, ops = align(ref, hy)
    ref_idx = [op.ref_index for op in ops if op.ref_index is not None]
    hyp_idx = [op.hyp_index for op in ops if op.hyp_index is not None]
    assert ref_idx == list(range(len(ref)))
    assert hyp_idx == list(range(len(hy)))


def test_align_distance_equals_non_match_ops():
    dist, ops = align(["a", "b", "c", "d", "e"], ["a", "q", "c", "e", "f"])
    assert dist == sum(1 for op in ops if op.op != "c")


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "ab", "ba"]), min_size=1, max_size=8),
    st.lists(st.sampled_from(["a", "b", "ab", "ba"]), min_size=0, max_size=8),
)
def test_align_matches_prefix_oracle(ref, hyp_words):
    dist, ops = align(ref, hyp_words)
    assert dist == distance_oracle(ref, hyp_words)
    assert dist == sum(1 for op in ops if op.op != "c")
    ref_idx = [op.ref_index for op in ops if op.ref_index is not None]
    hyp_idx = [op.hyp_index for op in ops if op.hyp_index is not None]
    assert ref_idx == list(range(len(ref)))
    assert hyp_idx == list(range(len(hyp_words)))


# few distinct words, two of them equal after normalization, so cost ties abound
TIE_WORDS = st.sampled_from(["a", "b", "ab", "A!", "b."])


@settings(max_examples=300, deadline=None)
@given(st.lists(TIE_WORDS, min_size=1, max_size=30),
       st.lists(TIE_WORDS, min_size=0, max_size=30))
@example(["a", "b", "a"], [])
@example(["a"], ["b", "a", "A!", "b."])
@example(["a"], [])
# hypotheses past one and two 64-bit words
@example(["a", "b", "ab"] * 10, ["b", "a", "A!", "ab"] * 20)
@example(["a", "b"] * 15, ["ab", "b.", "a"] * 50)
# insertion-heavy: two extra words around every story word
@example(["a", "b", "ab", "b."] * 5, [w for s in ["a", "b", "ab", "b."] * 5 for w in ("b", s, "a")])
# a one-word story against a long hypothesis
@example(["b."], ["a", "ab", "b", "A!"] * 40)
# no story word in the hypothesis
@example(["a", "A!", "b"] * 4, ["ab"] * 100)
# leading insertions: the first op is "i", after a delete test at j = 0
@example(["a", "b", "a"], ["b.", "ab", "ab", "a", "b", "a"])
def test_align_matches_cell_by_cell_oracle(ref, hyp_words):
    dist, ops = align(ref, hyp_words)
    assert type(dist) is int
    assert (dist, ops) == align_oracle(ref, hyp_words)


def test_align_matches_oracle_at_paper_scale():
    # a 400-word story over a small vocabulary against a recognizer-style
    # transcript of a struggling reader; substitutions are other story words
    rng = np.random.default_rng(5)
    vocab = sorted(set(synth.default_story().words))[:60]
    story = [vocab[k] for k in rng.integers(len(vocab), size=400)]
    probs = np.asarray(synth.make_profile(SkillClass.I_A, seed=5).label_probs)
    labels = rng.choice(len(WORD_LABELS), size=len(story), p=probs / probs.sum())
    transcription = Transcription(story_id="s", words=tuple(
        TranscribedWord(word=w, label=WORD_LABELS[c],
                        substitution=(vocab[rng.integers(len(vocab))]
                                      if WORD_LABELS[c] in SUBSTITUTION_LABELS else None))
        for w, c in zip(story, labels)))
    spoken = [w for w, _ in synth.synth_hypothesis(transcription, seed=5)]
    assert 200 < len(spoken) <= 400
    dist, ops = align(story, spoken)
    assert type(dist) is int
    assert (dist, ops) == align_oracle(story, spoken)


def test_align_matches_oracle_for_a_rereading_reader():
    # a 400-word story against about three times as many recognized words:
    # a reader who restarts and repeats, so insertions dominate and the
    # hypothesis spans many machine words
    rng = np.random.default_rng(11)
    vocab = sorted(set(synth.default_story().words))[:60]
    story = [vocab[k] for k in rng.integers(len(vocab), size=400)]
    spoken = []
    for w in story:
        spoken += [vocab[k] for k in rng.integers(len(vocab), size=rng.integers(5))]
        if rng.random() < 0.9:
            spoken.append(w)
    assert 1000 < len(spoken) < 1400
    dist, ops = align(story, spoken)
    assert sum(op.op == "i" for op in ops) > len(story)
    assert (dist, ops) == align_oracle(story, spoken)


def test_story_is_normalized_once(monkeypatch):
    from readskill import asr_align

    story = ["The", "red", "fox", "saw", "the", "Fox!"]
    hyps = (["the", "fox", "ran"], ["a", "red", "fox"], ["zebra"])
    want = [align_oracle(story, h) for h in hyps]
    asr_align._canonical_ids.cache_clear()
    normalized = []
    normalize = asr_align.normalize_word

    def counting(word):
        normalized.append(word)
        return normalize(word)

    monkeypatch.setattr(asr_align, "normalize_word", counting)
    # the story as cli passes it (a tuple) and as a list: one cache entry
    got = [align(tuple(story), hyps[0]), align(story, hyps[1]), align(story, hyps[2])]
    assert got == want
    assert normalized == story + [w for h in hyps for w in h]
    # hypothesis words never join the story's cached ids
    ids, ref = asr_align._canonical_ids(tuple(story))
    assert ids == {"the": 0, "red": 1, "fox": 2, "saw": 3}
    assert ref.tolist() == [0, 1, 2, 3, 0, 2]


def test_remap_all_correct():
    words = ["the", "red", "fox"]
    dist, ops = align(words, words)
    pct = confidence_remap(ops, [0.9, 0.9, 0.9])
    assert pct == (1.0, 0.0, 0.0)
    assert all(type(v) is float for v in pct)


def test_remap_mixed_thresholding():
    # c, d, s(conf .2), s(conf .9) over 4 canonical words
    ref = ["a", "b", "c", "d"]
    hy, conf = hyp(("a", 0.9), ("x", 0.2), ("y", 0.9))
    dist, ops = align(ref, hy)
    assert dist == 3
    pct_c, pct_m, pct_i = confidence_remap(ops, conf, threshold=0.5)
    assert pct_c == pytest.approx(0.5)
    assert pct_m == pytest.approx(0.25)
    assert pct_i == pytest.approx(0.25)


def test_remap_insertions_escape_denominator():
    # 4 matches plus one low-confidence insertion: pct_C stays 1.0 and the
    # insertion lands in pct_I over the canonical count
    ref = ["a", "b", "c", "d"]
    hy, conf = hyp(("a", 0.9), ("b", 0.9), ("zz", 0.1), ("c", 0.9), ("d", 0.9))
    dist, ops = align(ref, hy)
    pct_c, pct_m, pct_i = confidence_remap(ops, conf, threshold=0.5)
    assert pct_c == pytest.approx(1.0)
    assert pct_i == pytest.approx(0.25)
    assert pct_m == 0.0


def test_remap_confidence_at_threshold_counts_correct():
    ref = ["a"]
    hy, conf = hyp(("x", 0.5))
    _, ops = align(ref, hy)
    pct_c, _, pct_i = confidence_remap(ops, conf, threshold=0.5)
    assert pct_c == pytest.approx(1.0)
    assert pct_i == 0.0


def test_remap_threshold_monotone():
    rng = np.random.default_rng(0)
    ref = [f"w{k}" for k in range(12)]
    hy, conf = hyp(*[(f"w{k}" if rng.random() < 0.5 else "x", float(rng.random()))
                     for k in range(12)])
    _, ops = align(ref, hy)
    last_i = -1.0
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        pct_c, pct_m, pct_i = confidence_remap(ops, conf, threshold=tau)
        assert pct_i >= last_i
        last_i = pct_i
        assert pct_c + pct_m + pct_i == pytest.approx(
            len(ops) / 12.0)


def test_remap_threshold_out_of_range():
    ref = ["a"]
    hy, conf = hyp(("a", 0.9))
    _, ops = align(ref, hy)
    for tau in (-0.1, 1.5):
        with pytest.raises(OutOfRange):
            confidence_remap(ops, conf, threshold=tau)


def test_remap_no_canonical_ops():
    with pytest.raises(EmptyCanonical):
        confidence_remap([AlignmentOp("i", None, 0)], [0.5])


def test_parse_hypothesis_with_header(tmp_path):
    path = tmp_path / "hyp.csv"
    path.write_text("word,confidence\nthe,0.9\nfox,0.35\n")
    assert parse_hypothesis(path) == (["the", "fox"], [0.9, 0.35])


@pytest.mark.parametrize("header", ["\nword,confidence\n", "\nWORD , Confidence\n"])
def test_parse_hypothesis_skips_a_header_in_any_case(tmp_path, header):
    path = tmp_path / "hyp.csv"
    path.write_text(header + "the,0.9\nfox,0.35\n")
    assert parse_hypothesis(path) == (["the", "fox"], [0.9, 0.35])


def test_parse_hypothesis_keeps_a_first_word_spelled_word(tmp_path):
    path = tmp_path / "hyp.csv"
    path.write_text("Word,0.9\nplay,0.8\n")
    assert parse_hypothesis(path) == (["Word", "play"], [0.9, 0.8])
    path.write_text("word\nplay,0.8\n")
    with pytest.raises(SchemaMismatch, match="hyp.csv: row 0 needs word,confidence"):
        parse_hypothesis(path)


def test_parse_hypothesis_without_header(tmp_path):
    path = tmp_path / "hyp.csv"
    path.write_text("the,0.9\n\nfox,0.35\n")
    assert parse_hypothesis(path) == (["the", "fox"], [0.9, 0.35])


@pytest.mark.parametrize("cell", ["nan", "inf", "-0.1", "1.5"])
def test_parse_hypothesis_rejects_bad_confidence(tmp_path, cell):
    path = tmp_path / "r1.hyp.csv"
    path.write_text(f"word,confidence\nthe,0.9\nfox,{cell}\n")
    with pytest.raises(SchemaMismatch, match=rf"r1\.hyp\.csv: row 2 .*'{cell}'"):
        parse_hypothesis(path)


def test_parse_hypothesis_keeps_confidence_bounds(tmp_path):
    path = tmp_path / "hyp.csv"
    path.write_text("a,0\nb,1\nc,1.0\n")
    assert parse_hypothesis(path)[1] == [0.0, 1.0, 1.0]


CENTROIDS_B = np.array([
    [0.9, 0.04, 0.03, 0.03],   # CS1, SmD, M, I
    [0.5, 0.1, 0.35, 0.05],
    [0.5, 0.1, 0.05, 0.35],
])
LABELS = {0: SkillClass.C_A, 1: SkillClass.M_A, 2: SkillClass.I_A}


def test_classify_nearest_centroid():
    got = classify_by_centroid((0.92, 0.02, 0.02), CENTROIDS_B, LABELS)
    assert got == SkillClass.C_A
    got = classify_by_centroid((0.5, 0.36, 0.04), CENTROIDS_B, LABELS)
    assert got == SkillClass.M_A
    got = classify_by_centroid((0.48, 0.06, 0.37), CENTROIDS_B, LABELS)
    assert got == SkillClass.I_A


def test_classify_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pct = tuple(rng.uniform(0.0, 1.0, size=3).tolist())
        got = classify_by_centroid(pct, CENTROIDS_B, LABELS)
        proj = CENTROIDS_B[:, [0, 2, 3]]
        d2 = ((proj - np.array(pct)) ** 2).sum(axis=1)
        want = LABELS[int(np.argmin(d2))]
        # argmin takes the first minimum, matching the lower-class rule
        assert got == want


def test_classify_midpoint_tie_takes_lower_class():
    cents = np.array([
        [0.8, 0.0, 0.1, 0.1],
        [0.4, 0.0, 0.3, 0.3],
        [0.0, 0.0, 0.5, 0.5],
    ])
    # equidistant from clusters 0 and 1 in the projected space
    mid = (cents[0, [0, 2, 3]] + cents[1, [0, 2, 3]]) / 2.0
    got = classify_by_centroid(tuple(mid), cents, LABELS)
    assert got == SkillClass.C_A
    # label permutation flips which class wins the tie
    swapped = {0: SkillClass.M_A, 1: SkillClass.C_A, 2: SkillClass.I_A}
    got = classify_by_centroid(tuple(mid), cents, swapped)
    assert got == SkillClass.C_A
