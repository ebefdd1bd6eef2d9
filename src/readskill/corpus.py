"""Data model and loaders for recordings, sentence intervals, stories and
word-level reading transcriptions.

A corpus root is a flat directory holding one story shared by all of its
recordings:

    story.txt            one sentence per line
    syllables.lex        optional "word count" overrides, one per line
    <id>.wav             16 kHz mono PCM16 audio
    <id>.intervals.csv   start,end rows, one per sentence
    <id>.words.csv       word,label[,substitution] rows
    <id>.hyp.csv         optional recognizer output, word,confidence rows
    labels.csv           optional "id,class" ground-truth rows
    metadata.csv         optional "id,child_id,story_id,timestamp" rows
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CoverageGap,
    EmptyIntervals,
    EmptyWord,
    MissingSubstitutionText,
    NoModel,
    NotWav,
    OutOfRange,
    Overlap,
    SchemaMismatch,
    UnexpectedSubstitutionText,
    UnknownLabel,
    Unsorted,
    UnsupportedEncoding,
    WordCountMismatch,
    WrongChannelCount,
    WrongSampleRate,
)

SAMPLE_RATE = 16000  # the WAV format's rate, and the rate dsp analyses at
PCM_SCALE = 32768.0

# reading outcome labels: correct, missed, incomplete-then-corrected,
# substituted-once, substituted-multiple, incorrect
WORD_LABELS = ("C", "M", "D", "S1", "Sm", "I")
SUBSTITUTION_LABELS = ("S1", "Sm")

# metadata.csv columns after the id; evaluate's group_by names one of them
METADATA_FIELDS = ("child_id", "story_id", "timestamp")

VOWELS = "aeiouy"


def interval_index(times, intervals: np.ndarray) -> np.ndarray:
    """Index of the (start, end) row of ``intervals`` containing each time;
    a time that no interval contains, such as one at or past the last end,
    goes to the last one."""
    t = np.asarray(times, dtype=np.float64)[:, None]
    inside = (intervals[:, 0] <= t) & (t < intervals[:, 1])
    return np.where(inside.any(axis=1), inside.argmax(axis=1), len(intervals) - 1)


@dataclass(frozen=True)
class TranscribedWord:
    word: str
    label: str
    substitution: str | None = None


@dataclass(frozen=True)
class Transcription:
    story_id: str
    words: tuple[TranscribedWord, ...]


@dataclass(frozen=True)
class StoryText:
    story_id: str
    sentences: tuple[tuple[str, ...], ...]
    sentence_syllables: tuple[int, ...]

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(w for s in self.sentences for w in s)


def load_wav(path: str | Path) -> np.ndarray:
    """Read a RIFF/WAVE file, enforcing mono 16-bit PCM at 16 kHz, into a
    read-only float array of its samples.

    Samples are scaled by 1/32768 so the result lies in [-1, 1).
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise NotWav(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4:pos + 8])
        body = raw[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)

    if fmt is None or len(fmt) < 16:
        raise NotWav(f"{path}: missing fmt chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format != 1 or bits != 16:
        raise UnsupportedEncoding(
            f"{path}: need 16-bit PCM, got format={audio_format} bits={bits}"
        )
    if channels != 1:
        raise WrongChannelCount(f"{path}: need mono, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise WrongSampleRate(f"{path}: need {SAMPLE_RATE} Hz, got {rate}")
    if data is None:
        raise NotWav(f"{path}: missing data chunk")

    pcm = np.frombuffer(data[:len(data) - (len(data) % 2)], dtype="<i2")
    samples = pcm.astype(np.float64) / PCM_SCALE
    samples.flags.writeable = False
    return samples


def write_wav(samples: np.ndarray, path: str | Path) -> None:
    """Write float samples in [-1, 1] as mono PCM16 at 16 kHz."""
    pcm = np.clip(np.rint(np.asarray(samples) * PCM_SCALE), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE,
                                 SAMPLE_RATE * 2, 2, 16)
    hdr += b"data" + struct.pack("<I", len(body))
    Path(path).write_bytes(hdr + body)


def csv_rows(path: str | Path):
    """Yield (row, cells) for every non-blank row of a CSV file; rows are
    numbered from 0 as they stand in the file, blank ones included. A
    leading UTF-8 byte-order mark is dropped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for k, rec in enumerate(csv.reader(fh)):
                if rec and (len(rec) > 1 or rec[0].strip()):
                    yield k, rec
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaMismatch(f"{path}: not a readable CSV file ({exc})") from None


def _cell(value) -> str:
    """One CSV cell: None is empty, a number its shortest round-trip text,
    which never needs quotes, and text holding a comma, a double quote, CR
    or LF is quoted."""
    if not isinstance(value, str):
        return "" if value is None else str(value)
    if "," in value or '"' in value or "\r" in value or "\n" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def write_rows(rows, path: str | Path) -> None:
    """Write rows as the CSV table csv_rows reads back: LF line ends and
    RFC 4180 quoting. csv.writer with an LF terminator leaves a lone CR
    unquoted, which the reader then splits as a line end."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def save_json(path: str | Path, version: str, fields: dict, indent: int | None = None) -> None:
    """Write ``{"format": version, **fields}`` as the JSON object saved_json
    reads back: sorted keys and a final newline."""
    Path(path).write_text(json.dumps({"format": version, **fields}, indent=indent,
                                     sort_keys=True) + "\n", encoding="utf-8")


def _finite(text: str) -> float:
    """A JSON number or NaN/Infinity literal, if finite, as json reads it."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def typed(value, types: tuple, what: str):
    """value, if its type is one of types (so a JSON true is no number); else ValueError."""
    if type(value) not in types:
        raise ValueError(f"{what} {value!r} is a {type(value).__name__}")
    return value


@contextlib.contextmanager
def saved_json(path: str | Path, version: str, what: str):
    """Yield the JSON object that save_json wrote to path as ``version``.
    A missing file raises NoModel. A file that is not such an object, holds
    a non-finite number (NaN, Infinity, or 1e999, which overflows), or whose
    fields the block reads as the wrong type or shape (OverflowError: an
    integer past float range) raises SchemaMismatch naming the file."""
    if not Path(path).exists():
        raise NoModel(f"no {what} at {path}")
    try:
        payload = json.loads(Path(path).read_bytes(), parse_float=_finite,
                             parse_constant=_finite)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaMismatch(f"{path}: not a JSON file ({exc})") from None
    except ValueError as exc:  # a number that _finite or int() refuses
        raise SchemaMismatch(f"{path}: malformed {what} (ValueError: {exc})") from None
    if not isinstance(payload, dict):
        raise SchemaMismatch(f"{path}: not a JSON object")
    if payload.get("format") != version:
        raise SchemaMismatch(f"{path}: not a {version} {what}")
    try:
        yield payload
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise SchemaMismatch(
            f"{path}: malformed {what} ({type(exc).__name__}: {exc})") from None


def finite_float(path, k: int, what: str, cell: str) -> float:
    """The finite number a CSV cell holds; anything else raises
    SchemaMismatch naming the file, the row and the column."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaMismatch(f"{path}: row {k} has non-numeric {what} {cell!r}")
    return value


def parse_intervals(path: str | Path, duration: float) -> tuple[np.ndarray, bool]:
    """Parse start,end rows into a (k, 2) array of sentence intervals in
    seconds, one (start, end) row per sentence.

    Intervals must be sorted, non-overlapping and cover [0, duration].
    A last end that runs past the recording is clipped; the returned flag
    reports whether clipping happened.
    """
    rows = []
    for k, rec in csv_rows(path):
        if len(rec) < 2:
            raise SchemaMismatch(f"{path}: row {k} needs start,end")
        rows.append((finite_float(path, k, "time", rec[0]),
                     finite_float(path, k, "time", rec[1])))
    if not rows:
        raise EmptyIntervals(f"{path}: no intervals")

    clipped = False
    eps = 1e-9
    prev_end = 0.0
    for k, (start, end) in enumerate(rows):
        if k > 0 and start < rows[k - 1][0]:
            raise Unsorted(f"{path}: row {k} starts before row {k - 1}")
        if start < -eps or end <= start:
            raise OutOfRange(f"{path}: row {k} has bad span [{start}, {end}]")
        if start < prev_end - eps:
            raise Overlap(f"{path}: row {k} overlaps previous interval")
        if start > prev_end + eps:
            raise CoverageGap(f"{path}: gap before row {k} at {start}")
        if end > duration + eps:
            if k < len(rows) - 1:
                raise OutOfRange(f"{path}: row {k} ends past the recording")
            end, clipped = duration, True
            rows[k] = (start, end)
        prev_end = end
    if prev_end < duration - eps:
        raise CoverageGap(f"{path}: intervals end at {prev_end}, recording lasts {duration}")
    return np.array(rows), clipped


def parse_transcription(path: str | Path, story: StoryText | None = None) -> Transcription:
    """Parse word,label[,substitution] rows into a Transcription.

    When a story is given, the row count must equal the story's word count.
    """
    words = []
    for k, rec in csv_rows(path):
        word = rec[0].strip()
        label = rec[1].strip() if len(rec) > 1 else ""
        sub = rec[2].strip() if len(rec) > 2 and rec[2].strip() else None
        if label not in WORD_LABELS:
            raise UnknownLabel(f"{path}: row {k} has label {label!r}")
        if label in SUBSTITUTION_LABELS and sub is None:
            raise MissingSubstitutionText(f"{path}: row {k} ({label}) needs substitution text")
        if label not in SUBSTITUTION_LABELS and sub is not None:
            raise UnexpectedSubstitutionText(f"{path}: row {k} ({label}) must not carry text")
        words.append(TranscribedWord(word=word, label=label, substitution=sub))
    if story is not None and len(words) != len(story.words):
        raise WordCountMismatch(
            f"{path}: {len(words)} rows vs {len(story.words)} story words"
        )
    return Transcription(
        story_id=story.story_id if story is not None else "",
        words=tuple(words),
    )


def write_transcription(transcription: Transcription, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        for w in transcription.words:
            if w.substitution is not None:
                out.writerow([w.word, w.label, w.substitution])
            else:
                out.writerow([w.word, w.label])


def normalize_word(word: str) -> str:
    return "".join(filter(str.isalpha, word.lower()))


def expected_syllables(word: str, lexicon: dict[str, int] | None = None) -> int:
    """Estimate spoken syllables for one written word.

    Counts maximal contiguous vowel groups (a e i o u y), drops a word-final
    silent 'e' unless the word ends in consonant+'le', and never returns
    less than 1. A lexicon entry overrides the estimate.
    """
    w = normalize_word(word)
    if not w:
        raise EmptyWord(f"no letters in {word!r}")
    if lexicon and w in lexicon:
        return lexicon[w]

    groups = len(re.findall(f"[{VOWELS}]+", w))
    if w.endswith("e"):
        consonant_le = len(w) >= 3 and w.endswith("le") and w[-3] not in VOWELS
        if not consonant_le:
            groups -= 1
    return max(1, groups)


def text_lines(path: str | Path, error: type[Exception] = SchemaMismatch) -> list[str]:
    """Lines of a UTF-8 text file, less a leading byte-order mark; bytes
    that do not decode raise ``error`` naming the file and the line they
    sit on."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        # the decoder's offsets count from after the mark
        line = exc.object[:exc.start].count(b"\n") + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def load_lexicon(path: str | Path) -> dict[str, int]:
    """Read "word count" lines; blank lines and # comments are skipped."""
    lex = {}
    for k, line in enumerate(text_lines(path)):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SchemaMismatch(f"{path}:{k + 1}: expected 'word count', got {line!r}")
        word, count = fields
        try:
            value = int(count)
        except ValueError:
            raise SchemaMismatch(
                f"{path}:{k + 1}: syllable count {count!r} is not an integer") from None
        if value < 1:
            raise SchemaMismatch(f"{path}:{k + 1}: syllable count {count!r} is below 1")
        lex[normalize_word(word)] = value
    return lex


def load_story(path: str | Path, lexicon: dict[str, int] | None = None) -> StoryText:
    """Load a one-sentence-per-line story, named by its file stem, and
    precompute per-sentence expected syllable counts."""
    sentences, counts = [], []
    for k, line in enumerate(text_lines(path)):
        words = tuple(line.split())
        if not words:
            continue
        try:
            counts.append(sum(expected_syllables(w, lexicon) for w in words))
        except EmptyWord as exc:
            raise EmptyWord(f"{path}:{k + 1}: {exc}") from None
        sentences.append(words)
    return StoryText(
        story_id=Path(path).stem,
        sentences=tuple(sentences),
        sentence_syllables=tuple(counts),
    )


@dataclass
class CorpusIndex:
    """Directory listing of one corpus root."""

    root: Path
    story: StoryText | None
    ids: list[str]
    labels: dict[str, str]
    metadata: dict[str, dict[str, str]]

    def wav_path(self, rid: str) -> Path:
        return self.root / f"{rid}.wav"

    def intervals_path(self, rid: str) -> Path:
        return self.root / f"{rid}.intervals.csv"

    def words_path(self, rid: str) -> Path:
        return self.root / f"{rid}.words.csv"

    def hyp_path(self, rid: str) -> Path:
        return self.root / f"{rid}.hyp.csv"


def scan_corpus(root: str | Path) -> CorpusIndex:
    """Index a corpus root. Recording ids come from *.wav basenames; when a
    root holds only transcriptions (lexical-only flows) the ids fall back to
    *.words.csv basenames."""
    root = Path(root)
    lexicon = {}
    lex_path = root / "syllables.lex"
    if lex_path.exists():
        lexicon = load_lexicon(lex_path)
    story = None
    story_path = root / "story.txt"
    if story_path.exists():
        story = load_story(story_path, lexicon)

    ids = sorted(p.name[:-4] for p in root.glob("*.wav"))
    if not ids:
        ids = sorted(p.name[:-len(".words.csv")] for p in root.glob("*.words.csv"))

    labels = {}
    labels_path = root / "labels.csv"
    if labels_path.exists():
        for k, rec in csv_rows(labels_path):
            if rec[0].strip() and rec[0] != "id":
                if len(rec) < 2:
                    raise SchemaMismatch(f"{labels_path}: row {k} has no class column")
                labels[rec[0]] = rec[1].strip()

    metadata: dict[str, dict[str, str]] = {}
    meta_path = root / "metadata.csv"
    if meta_path.exists():
        for _, rec in csv_rows(meta_path):
            if rec[0].strip() and rec[0] != "id":
                metadata[rec[0]] = {name: rec[k] if len(rec) > k else ""
                                     for k, name in enumerate(METADATA_FIELDS, 1)}
    return CorpusIndex(root=root, story=story, ids=ids,
                       labels=labels, metadata=metadata)
