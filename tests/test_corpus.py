"""Corpus loaders: WAV parsing, interval and transcription CSVs, syllable
estimates, and directory scanning."""
from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from readskill import corpus
from readskill.asr_align import parse_hypothesis
from readskill.config import load_config
from readskill.corpus import (
    StoryText,
    csv_rows,
    expected_syllables,
    load_lexicon,
    load_story,
    load_wav,
    normalize_word,
    parse_intervals,
    parse_transcription,
    scan_corpus,
    write_rows,
    write_transcription,
    write_wav,
)
from readskill.errors import (
    CoverageGap,
    EmptyIntervals,
    EmptyWord,
    MissingSubstitutionText,
    NotWav,
    Overlap,
    OutOfRange,
    ReadskillError,
    SchemaMismatch,
    UnexpectedSubstitutionText,
    UnknownLabel,
    Unsorted,
    UnsupportedEncoding,
    WordCountMismatch,
    WrongChannelCount,
    WrongSampleRate,
)


def _wav_bytes(body: bytes, audio_format=1, channels=1, rate=16000, bits=16) -> bytes:
    hdr = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    hdr += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits)
    hdr += b"data" + struct.pack("<I", len(body))
    return hdr + body


def test_load_wav_one_second(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(np.zeros(16000), path)
    samples = load_wav(path)
    assert samples.shape == (16000,) and samples.dtype == np.float64
    assert not samples.flags.writeable


def test_load_wav_all_zero(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(np.zeros(800), path)
    assert np.all(load_wav(path) == 0.0)


def test_load_wav_scaling(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(np.array([0.5, -0.5, 0.0]), path)
    got = load_wav(path)
    assert got[0] == 16384 / 32768
    assert got[1] == -16384 / 32768
    assert got[2] == 0.0


def test_load_wav_rejects_stereo(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(_wav_bytes(b"\x00\x00" * 8, channels=2))
    with pytest.raises(WrongChannelCount):
        load_wav(path)


def test_load_wav_rejects_wrong_rate(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(_wav_bytes(b"\x00\x00" * 8, rate=22050))
    with pytest.raises(WrongSampleRate):
        load_wav(path)


def test_load_wav_rejects_non_pcm16(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(_wav_bytes(b"\x00\x00" * 8, audio_format=3))
    with pytest.raises(UnsupportedEncoding):
        load_wav(path)
    path.write_bytes(_wav_bytes(b"\x00" * 8, bits=8))
    with pytest.raises(UnsupportedEncoding):
        load_wav(path)


def test_load_wav_rejects_non_riff(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(b"not audio at all")
    with pytest.raises(NotWav):
        load_wav(path)


def test_load_wav_rejects_missing_data_chunk(tmp_path):
    path = tmp_path / "a.wav"
    full = _wav_bytes(b"")
    path.write_bytes(full[:full.index(b"data")])
    with pytest.raises(NotWav):
        load_wav(path)


@pytest.mark.parametrize("fmt", [b"", b"fmt " + struct.pack("<I", 14) + bytes(14)],
                         ids=["no_fmt", "short_fmt"])
def test_load_wav_rejects_missing_or_short_fmt_chunk(tmp_path, fmt):
    path = tmp_path / "a.wav"
    body = b"WAVE" + fmt + b"data" + struct.pack("<I", 2) + b"\x00\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(NotWav, match="a.wav: missing fmt chunk"):
        load_wav(path)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-32768, max_value=32767),
                min_size=1, max_size=400))
def test_wav_round_trip_exact(tmp_path_factory, pcm):
    path = tmp_path_factory.mktemp("wav") / "rt.wav"
    samples = np.array(pcm, dtype=np.float64) / 32768.0
    write_wav(samples, path)
    assert np.array_equal(load_wav(path), samples)


def test_parse_intervals_two_rows(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("0.0,3.2\n3.2,7.5\n")
    intervals, clipped = parse_intervals(path, 7.5)
    assert len(intervals) == 2
    assert not clipped
    assert intervals[0, 0] == 0.0 and intervals[0, 1] == 3.2


def test_parse_intervals_overlap(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("0.0,3.2\n3.0,7.5\n")
    with pytest.raises(Overlap):
        parse_intervals(path, 7.5)


def test_parse_intervals_empty(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("")
    with pytest.raises(EmptyIntervals):
        parse_intervals(path, 1.0)


def test_parse_intervals_unsorted(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("0.0,2.0\n2.0,4.0\n1.0,5.0\n")
    with pytest.raises(Unsorted):
        parse_intervals(path, 5.0)


def test_parse_intervals_gap(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("0.0,2.0\n3.0,5.0\n")
    with pytest.raises(CoverageGap):
        parse_intervals(path, 5.0)


def test_parse_intervals_short_coverage(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("0.0,2.0\n")
    with pytest.raises(CoverageGap):
        parse_intervals(path, 5.0)


def test_parse_intervals_clips_last_end(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("0.0,2.0\n2.0,5.5\n")
    intervals, clipped = parse_intervals(path, 5.0)
    assert clipped
    assert intervals[-1, 1] == 5.0


def test_parse_intervals_bad_span(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("0.0,0.0\n")
    with pytest.raises(OutOfRange):
        parse_intervals(path, 1.0)


def test_parse_intervals_middle_row_past_end(tmp_path):
    path = tmp_path / "iv.csv"
    path.write_text("0.0,6.0\n6.0,7.0\n")
    with pytest.raises(OutOfRange):
        parse_intervals(path, 5.0)


@pytest.mark.parametrize("text", ["0.0,nan\n", "0.0,inf\n", "0.0,\n", "x,5.0\n"])
def test_parse_intervals_non_numeric_cell(tmp_path, text):
    path = tmp_path / "iv.csv"
    path.write_text(text)
    with pytest.raises(SchemaMismatch, match="iv.csv: row 0 has non-numeric time"):
        parse_intervals(path, 5.0)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=40)
       | st.text(alphabet="0123456789.,-e\nCMS1 word", max_size=40))
def test_csv_parsers_raise_only_typed_errors(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("csv")
    path = root / "labels.csv"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    parsers = (lambda p: parse_intervals(p, 5.0), parse_transcription,
               parse_hypothesis, lambda p: scan_corpus(p.parent))
    for parse in parsers:
        try:
            parse(path)
        except ReadskillError:
            pass


def test_parse_transcription_rows(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("tree,C\nold,S1,oll\npath,M\n")
    tr = parse_transcription(path)
    assert [(w.word, w.label, w.substitution) for w in tr.words] == [
        ("tree", "C", None), ("old", "S1", "oll"), ("path", "M", None)]


def test_parse_transcription_missing_substitution(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("old,S1\n")
    with pytest.raises(MissingSubstitutionText):
        parse_transcription(path)


def test_parse_transcription_unexpected_substitution(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("old,C,oll\n")
    with pytest.raises(UnexpectedSubstitutionText):
        parse_transcription(path)


def test_parse_transcription_unknown_label(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("old,X\n")
    with pytest.raises(UnknownLabel):
        parse_transcription(path)


def test_parse_transcription_word_count_mismatch(tmp_path):
    story = StoryText(story_id="s", sentences=(("a", "b"),), sentence_syllables=(2,))
    path = tmp_path / "w.csv"
    path.write_text("a,C\n")
    with pytest.raises(WordCountMismatch):
        parse_transcription(path, story)
    path.write_text("a,C\nb,M\n")
    assert len(parse_transcription(path, story).words) == 2


def test_write_transcription_round_trip(tmp_path):
    path = tmp_path / "w.csv"
    orig = corpus.Transcription(story_id="", words=(
        corpus.TranscribedWord("tree", "C", None),
        corpus.TranscribedWord("old", "Sm", "ol"),
    ))
    write_transcription(orig, path)
    again = parse_transcription(path)
    assert again.words == orig.words


_CELLS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)) | st.sampled_from(',"\r\n '),
                 max_size=8) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_CELLS, min_size=1, max_size=5), max_size=6))
def test_write_rows_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rows") / "t.csv"
    write_rows(rows, path)
    # csv_rows skips a row whose one cell is blank text
    kept = [row for row in rows
            if len(row) > 1 or not isinstance(row[0], str) or row[0].strip()]
    back = [cells for _, cells in csv_rows(path)]
    assert len(back) == len(kept)
    for row, cells in zip(kept, back):
        assert len(cells) == len(row)
        for value, cell in zip(row, cells):
            if isinstance(value, str):
                assert cell == value
            else:
                assert float(cell).hex() == value.hex()


def test_write_rows_quotes_only_what_needs_it(tmp_path):
    path = tmp_path / "t.csv"
    write_rows([("a b", None, 1, 0.1, -0.0), ("c,d", 'say "hi"', "x\ry", "x\ny")], path)
    assert path.read_bytes() == (b'a b,,1,0.1,-0.0\n'
                                 b'"c,d","say ""hi""","x\ry","x\ny"\n')


def test_normalize_word():
    assert normalize_word("Tree!") == "tree"
    assert normalize_word("  'Old,") == "old"
    assert normalize_word("123") == ""


@pytest.mark.parametrize("word,count", [
    ("tree", 1), ("pipal", 2), ("people", 2), ("the", 1), ("apple", 2),
    ("see", 1), ("reading", 2), ("a", 1), ("rhythm", 1),
])
def test_expected_syllables(word, count):
    assert expected_syllables(word) == count


def syllables_loop(word: str) -> int:
    """The vowel-group count as a walk over the letters, one at a time."""
    w = normalize_word(word)
    groups = 0
    in_group = False
    for ch in w:
        if ch in "aeiouy":
            if not in_group:
                groups += 1
            in_group = True
        else:
            in_group = False
    if w.endswith("e"):
        consonant_le = len(w) >= 3 and w.endswith("le") and w[-3] not in "aeiouy"
        if not consonant_le:
            groups -= 1
    return max(1, groups)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="aeiouyYEbcdlrstéüßñøAİ'-", min_size=1, max_size=12),
       st.sampled_from(["", "e", "le", "ble", "ale", "yle", "ée"]))
def test_expected_syllables_equals_the_letter_walk(stem, ending):
    word = stem + ending
    assume(normalize_word(word))
    assert expected_syllables(word) == syllables_loop(word)


def test_expected_syllables_empty_word():
    with pytest.raises(EmptyWord):
        expected_syllables("!!!")


def test_expected_syllables_lexicon_override():
    assert expected_syllables("tree", {"tree": 3}) == 3


def test_load_lexicon(tmp_path):
    path = tmp_path / "syllables.lex"
    path.write_text("# comment\ntree 1\nPeople 2\n\n")
    lex = load_lexicon(path)
    assert lex == {"tree": 1, "people": 2}


@pytest.mark.parametrize("text, message", [
    ("tree 1\nbadline\n", "lex:2: expected 'word count', got 'badline'"),
    ("tree 1 2\n", "lex:1: expected 'word count'"),
    ("# note\ntree one\n", "lex:2: syllable count 'one' is not an integer"),
    ("tree 0\n", "lex:1: syllable count '0' is below 1"),
    ("tree 1\npeople -2\n", "lex:2: syllable count '-2' is below 1"),
])
def test_load_lexicon_malformed_line(tmp_path, text, message):
    path = tmp_path / "syllables.lex"
    path.write_text(text)
    with pytest.raises(SchemaMismatch, match=message):
        load_lexicon(path)


@pytest.mark.parametrize("loader", [load_lexicon, load_story])
def test_loaders_reject_non_utf8(tmp_path, loader):
    path = tmp_path / "text"
    path.write_bytes(b"tree 1\n\ntr\xc3e 1\n")
    with pytest.raises(SchemaMismatch, match="text:3: not UTF-8 text"):
        loader(path)


def test_load_story_names_word_without_letters(tmp_path):
    path = tmp_path / "story.txt"
    path.write_text("the red fox\n\nwe 42 home\n")
    with pytest.raises(EmptyWord, match="story.txt:3: no letters in '42'"):
        load_story(path)


def test_load_story_counts(tmp_path):
    path = tmp_path / "story.txt"
    path.write_text("the red fox\nwe went home\n")
    story = load_story(path)
    assert story.sentences == (("the", "red", "fox"), ("we", "went", "home"))
    assert story.sentence_syllables == (3, 3)
    assert story.words == ("the", "red", "fox", "we", "went", "home")


# Each reader's file as written, then the readings that must give the same
# result: behind a UTF-8 byte-order mark (Excel's "CSV UTF-8" writes one),
# after a blank first line, and both.
_READERS = {
    "labels": ("labels.csv", "c_a_000,C_A\nm_a_001,M_A\n",
               lambda path: scan_corpus(path.parent).labels),
    "metadata": ("metadata.csv", "id,child_id,story_id,timestamp\nc_a_000,k1,s1,t\n",
                 lambda path: scan_corpus(path.parent).metadata),
    "intervals": ("r.intervals.csv", "0.0,2.0\n2.0,4.5\n",
                  lambda path: parse_intervals(path, 4.0)[0].tolist()),
    "words": ("r.words.csv", "Once,C\nupon,S1,apon\n", parse_transcription),
    "hyp": ("r.hyp.csv", "word,confidence\nonce,0.9\nword,0.5\n", parse_hypothesis),
    "story": ("story.txt", "Once upon a time\nthe end\n", load_story),
    "syllables.lex": ("syllables.lex", "# word syllables\nfire 1\n", load_lexicon),
    "config": ("run.conf", "seed = 7\nfolds = 3\n",
               lambda path: load_config(str(path)).dump()),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_readers_ignore_a_byte_order_mark_and_a_blank_first_line(tmp_path, reader):
    name, text, read = _READERS[reader]
    for k, body in enumerate((text, "\ufeff" + text, "\n" + text, "\ufeff\n" + text)):
        path = tmp_path / str(k) / name
        path.parent.mkdir()
        path.write_bytes(body.encode("utf-8"))
        if k == 0:
            want = read(path)
        assert read(path) == want, repr(body[:2])


def test_text_lines_count_lines_after_the_byte_order_mark(tmp_path):
    path = tmp_path / "story.txt"
    path.write_bytes(b"\xef\xbb\xbfa\n\xff\n")
    with pytest.raises(SchemaMismatch, match="story.txt:2: not UTF-8 text"):
        load_story(path)
    path.write_bytes(b"\xef\xbb\xbfa b\n")
    assert load_story(path).sentences == (("a", "b"),)


def test_scan_corpus_full_layout(small_corpus):
    index = scan_corpus(small_corpus)
    assert len(index.ids) == 9
    assert index.ids == sorted(index.ids)
    assert index.story is not None
    assert set(index.labels.values()) == {"C_A", "M_A", "I_A"}
    assert all("child_id" in meta for meta in index.metadata.values())


def test_scan_corpus_words_only_fallback(tmp_path):
    (tmp_path / "r1.words.csv").write_text("tree,C\n")
    (tmp_path / "r2.words.csv").write_text("tree,M\n")
    index = scan_corpus(tmp_path)
    assert index.ids == ["r1", "r2"]
    assert index.story is None


def _interval_of_oracle(time, intervals):
    """The per-timestamp scan that interval_index replaced."""
    for k, (start, end) in enumerate(intervals):
        if start <= time < end:
            return k
    return len(intervals) - 1


@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=8),
    picks=st.lists(st.tuples(st.integers(0, 8), st.sampled_from([-1, 0, 1])),
                   max_size=20),
    inside=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
    past=st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=5),
)
def test_interval_index_matches_scan(widths, picks, inside, past):
    rows, start = [], 0.0
    for w in widths:
        rows.append((start, start + w))
        start += w
    ivs = np.array(rows)
    end = ivs[-1, 1]
    # boundaries, their float neighbours, points inside, and times past the end
    bounds = [0.0] + ivs[:, 1].tolist()
    times = [np.nextafter(bounds[i % len(bounds)], np.inf * side) if side else
             bounds[i % len(bounds)] for i, side in picks]
    times += [u * end for u in inside] + [end + p for p in past]
    got = corpus.interval_index(times, ivs)
    assert got.tolist() == [_interval_of_oracle(t, ivs) for t in times]


def test_interval_index_empty_times():
    ivs = np.array([(0.0, 1.0)])
    assert corpus.interval_index([], ivs).tolist() == []
