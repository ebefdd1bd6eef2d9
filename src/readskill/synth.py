"""Deterministic synthetic-corpus generator.

Builds recordings whose pauses, syllable rates and dynamics are known by
construction, plus matching transcriptions and recognizer hypotheses, so
detector tests have exact oracles. Carriers are harmonic complexes rather
than sines so the harmonicity-based speech detector sees realistic input.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import (
    SUBSTITUTION_LABELS,
    WORD_LABELS,
    StoryText,
    TranscribedWord,
    Transcription,
    write_rows,
    write_transcription,
    write_wav,
)
from .dsp import HOP, SAMPLE_RATE
from .errors import TooShort
from .lexical import SkillClass

MIN_DURATION_S = 5.0

# every profile's speech level; synthcorpus rejects noise louder than it
SPEECH_LEVEL_DBFS = -20.0

# Rendered silences extend this far past the scheduled span on each side.
# The speech detector's median filter and two-frame hangover shrink a
# silence run by exactly this much, so detected pauses match the schedule.
PAUSE_RENDER_PAD = 3 * HOP

# resonance wander occupies [WANDER_BASE_HZ, WANDER_BASE_HZ + 400 * bands]
WANDER_BASE_HZ = 800.0
WANDER_RATE_HZ = 0.4
RESONANCE_SIGMA_HZ = 220.0

_CONSONANTS = "bdgkmnprst"
_VOWELS = "aeiou"

_SENTENCES = (
    "the red fox ran down the long dark path home",
    "a small bird sat on top of the old tree",
    "we went to the lake to swim in the sun",
    "he read one more page then shut the big book",
)


@dataclass(frozen=True)
class ProfileSpec:
    """Everything generate() needs to render one recording class."""

    skill: SkillClass
    syllable_rate_hz: float
    am_depth_db: float
    wander_bands: int
    noise_dbfs: float
    level_dbfs: float
    label_probs: tuple[float, ...]  # over corpus.WORD_LABELS: C, M, D, S1, Sm, I
    seed: int
    # time-ordered (start, duration) pairs, with speech between them
    pause_schedule: tuple[tuple[float, float], ...] | None = None


_CLASS_DEFAULTS = {
    SkillClass.C_A: dict(
        syllable_rate_hz=4.0, am_depth_db=15.0, wander_bands=4,
        label_probs=(0.82, 0.04, 0.02, 0.06, 0.02, 0.04),
    ),
    SkillClass.M_A: dict(
        syllable_rate_hz=4.0, am_depth_db=15.0, wander_bands=4,
        label_probs=(0.38, 0.45, 0.03, 0.05, 0.03, 0.06),
    ),
    SkillClass.I_A: dict(
        syllable_rate_hz=5.5, am_depth_db=4.0, wander_bands=1,
        label_probs=(0.30, 0.06, 0.04, 0.08, 0.07, 0.45),
    ),
}


def make_profile(skill: SkillClass, seed: int = 0, **overrides) -> ProfileSpec:
    """Class-default profile; keyword overrides replace any field."""
    base = ProfileSpec(
        skill=skill,
        noise_dbfs=-70.0,
        level_dbfs=SPEECH_LEVEL_DBFS,
        seed=seed,
        **_CLASS_DEFAULTS[skill],
    )
    return replace(base, **overrides) if overrides else base


def default_pause_schedule(skill: SkillClass, duration: float,
                           seed: int) -> tuple[tuple[float, float], ...]:
    """Evenly spread pauses with seeded placement jitter.

    Missed-heavy recordings get three pauses of duration/10 each (30% of
    the recording, each at least 0.5 s for any legal duration); the other
    classes get short quarter-second breaks.
    """
    if skill == SkillClass.M_A:
        n, dur = 3, duration / 10.0
    elif skill == SkillClass.C_A:
        n, dur = max(1, int(round(duration / 5.0))), 0.25
    else:
        n, dur = max(1, int(round(duration / 10.0))), 0.25
    rng = np.random.default_rng([seed, 11])
    spacing = duration / (n + 1)
    out = []
    for k in range(n):
        center = spacing * (k + 1) + rng.uniform(-0.04, 0.04) * spacing
        out.append((center - dur / 2.0, dur))
    return tuple(out)


def randomized_pause_schedule(duration: float, seed: int,
                              index: int) -> tuple[tuple[float, float], ...]:
    """Class-independent schedule keyed only by corpus seed and recording
    index, so recordings that share an index share pauses across classes."""
    rng = np.random.default_rng([seed, 31, index])
    n = int(rng.integers(1, 4))
    spacing = duration / (n + 1)
    out = []
    for k in range(n):
        dur = float(rng.uniform(0.4, 1.0))
        center = spacing * (k + 1) + float(rng.uniform(-0.04, 0.04)) * spacing
        out.append((center - dur / 2.0, dur))
    return tuple(out)


def _align_schedule(schedule, n_samples: int) -> list[tuple[int, int]]:
    """Snap pause spans to the frame grid and keep them inside the
    recording with speech on both ends."""
    out = []
    margin = 8 * HOP + PAUSE_RENDER_PAD
    for start, dur in schedule:
        s0 = int(round(start * SAMPLE_RATE / HOP)) * HOP
        s1 = int(round((start + dur) * SAMPLE_RATE / HOP)) * HOP
        s0 = max(s0, margin)
        s1 = min(s1, n_samples - margin)
        if s1 > s0:
            out.append((s0, s1))
    return out


def _allocate_bumps(segment_lengths: list[int], total: int) -> list[int]:
    """Largest-remainder split of total over segments, at least 1 each."""
    lengths = np.asarray(segment_lengths, dtype=np.float64)
    ideal = total * lengths / lengths.sum()
    counts = np.maximum(1, np.floor(ideal).astype(int))
    order = np.argsort(-(ideal - np.floor(ideal)), kind="stable")
    k = 0
    while counts.sum() < total:
        counts[order[k % len(counts)]] += 1
        k += 1
    while counts.sum() > total:
        j = int(np.argmax(counts))
        if counts[j] <= 1:
            break
        counts[j] -= 1
    return counts.tolist()


def _absorbs(x: np.ndarray, bound: float) -> bool:
    """True when x + d rounds back to x, bit for bit, for every element of x
    and every float |d| <= bound: under round-to-nearest that holds once
    |d| <= |x| * 2**-54 and x is nonzero (-0.0 + 0.0 is +0.0)."""
    low = np.abs(x).min()
    return 0.0 < low and bound * 2.0 ** 54 <= low


def generate(profile: ProfileSpec, duration: float
             ) -> tuple[np.ndarray, np.ndarray, Transcription, np.ndarray]:
    """Render one recording's 16 kHz samples plus its (k, 2) array of
    (start, end) sentence intervals, its transcription and the (k, 2)
    array of (start, duration) pauses it rendered, in seconds: the
    schedule snapped to the frame grid, as pauses.extract_pauses lays out
    the pauses it detects.

    Only the speech samples get a carrier; each rendered silence (a pause
    widened by PAUSE_RENDER_PAD on both sides) is exactly the noise, or
    +0.0 without noise. The harmonic carrier stops at the first harmonic
    above the resonance whose gain bound is too small to change a bit of
    any carrier or power sample; later harmonics have smaller bounds. The
    phases of the skipped harmonics are still drawn, so the noise after
    them is unchanged.
    Raises ValueError when the snapped pauses are out of order, overlap, or
    leave no speech between two rendered silences.
    """
    if duration < MIN_DURATION_S:
        raise TooShort(f"duration {duration} s is under {MIN_DURATION_S} s")
    n = int(round(duration * SAMPLE_RATE))
    rng = np.random.default_rng([profile.seed, 17])

    schedule = profile.pause_schedule
    if schedule is None:
        schedule = default_pause_schedule(profile.skill, duration, profile.seed)
    silences = _align_schedule(schedule, n)

    # speech spans between rendered (padded) silences
    spans = []
    cursor = 0
    for s0, s1 in silences:
        if s0 - PAUSE_RENDER_PAD <= cursor:
            raise ValueError(
                f"pause_schedule {schedule!r} leaves no speech before the silence "
                f"at {s0 / SAMPLE_RATE:g} s; pauses must be in time order with "
                f"speech between them")
        spans.append((cursor, s0 - PAUSE_RENDER_PAD))
        cursor = s1 + PAUSE_RENDER_PAD
    spans.append((cursor, n))

    n_bumps = max(1, int(round(profile.syllable_rate_hz * duration)))
    bump_counts = _allocate_bumps([b - a for a, b in spans], n_bumps)

    # syllable-rate amplitude modulation in dB, troughs at span edges
    env_db = []
    for (a, b), k in zip(spans, bump_counts):
        t = np.arange(b - a) / (b - a)
        env_db.append(profile.level_dbfs - profile.am_depth_db * (
            0.5 + 0.5 * np.cos(2.0 * np.pi * k * t)))
    amplitude = 10.0 ** (np.concatenate(env_db) / 20.0)

    # harmonic complex with a wandering spectral resonance, rendered on
    # the speech samples only: the silences are zero under the noise
    f0 = float(rng.uniform(220.0, 300.0))
    speech = np.concatenate([np.arange(a, b) for a, b in spans])
    t = speech / SAMPLE_RATE
    span_hz = 400.0 * profile.wander_bands
    center = WANDER_BASE_HZ + span_hz / 2.0
    resonance = center + 0.4 * span_hz * np.sin(
        2.0 * np.pi * WANDER_RATE_HZ * t + rng.uniform(0.0, 2.0 * np.pi))
    top = center + abs(0.4 * span_hz)  # rounding is monotone: resonance <= top
    carrier = np.zeros(len(t))
    power = np.zeros(len(t))
    n_harmonics = int(8000.0 / f0)
    for h in range(1, n_harmonics + 1):
        if h * f0 > top:
            # bounds this gain and every later one; the factor 2 covers the
            # rounding of exp and of its argument
            bound = 2.0 * math.exp(-((h * f0 - top) ** 2) / (2.0 * RESONANCE_SIGMA_HZ ** 2))
            if _absorbs(carrier, bound) and _absorbs(power, bound * bound):
                rng.uniform(0.0, 2.0 * np.pi, size=n_harmonics - h + 1)  # skipped phases
                break
        gain = np.exp(-((h * f0 - resonance) ** 2) / (2.0 * RESONANCE_SIGMA_HZ ** 2))
        carrier += gain * np.cos(2.0 * np.pi * h * f0 * t + rng.uniform(0.0, 2.0 * np.pi))
        power += gain * gain
    rms = np.sqrt(power / 2.0)
    samples = np.zeros(n)
    samples[speech] = amplitude * carrier / np.maximum(rms, 1e-9)

    if profile.noise_dbfs > -150.0:
        samples = samples + 10.0 ** (profile.noise_dbfs / 20.0) * rng.standard_normal(n)
    samples = np.clip(samples, -0.999, 0.999)

    boundaries = [duration * k / len(_SENTENCES) for k in range(len(_SENTENCES) + 1)]
    intervals = np.column_stack((boundaries[:-1], boundaries[1:]))
    transcription = _synth_transcription(profile)

    pauses = np.array([(s0 / SAMPLE_RATE, (s1 - s0) / SAMPLE_RATE)
                       for s0, s1 in silences]).reshape(-1, 2)
    return samples, intervals, transcription, pauses


def default_story() -> StoryText:
    sentences = tuple(tuple(s.split()) for s in _SENTENCES)
    return StoryText(
        story_id="synth",
        sentences=sentences,
        sentence_syllables=tuple(len(s) for s in sentences),  # one syllable per word
    )


def _gibberish(rng: np.random.Generator) -> str:
    return "".join(
        _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
        for _ in range(2)
    )


def _synth_transcription(profile: ProfileSpec) -> Transcription:
    """Draw one outcome label per story word from the profile's label
    distribution."""
    rng = np.random.default_rng([profile.seed, 23])
    probs = np.asarray(profile.label_probs, dtype=np.float64)
    probs = probs / probs.sum()
    words = []
    for word in default_story().words:
        label = WORD_LABELS[rng.choice(len(WORD_LABELS), p=probs)]
        sub = _gibberish(rng) if label in SUBSTITUTION_LABELS else None
        words.append(TranscribedWord(word=word, label=label, substitution=sub))
    return Transcription(story_id="synth", words=tuple(words))


def synth_hypothesis(transcription: Transcription, seed: int) -> list[tuple[str, float]]:
    """Recognizer-style word,confidence rows consistent with the outcome
    labels: correct reads score high, gibberish low, missed words vanish."""
    rng = np.random.default_rng([seed, 29])
    rows = []
    for w in transcription.words:
        if w.label == "M":
            continue
        if w.label == "C" or w.label == "D":
            rows.append((w.word, float(rng.uniform(0.7, 0.99))))
        elif w.label == "S1":
            rows.append((w.substitution, float(rng.uniform(0.55, 0.95))))
        elif w.label == "Sm":
            rows.append((w.substitution, float(rng.uniform(0.15, 0.45))))
        else:
            rows.append((_gibberish(rng), float(rng.uniform(0.05, 0.4))))
    return rows


def write_corpus(out_dir, per_class: int = 3, duration: float = 10.0,
                 seed: int = 0, skills=tuple(SkillClass),
                 noise_dbfs: float = -70.0, with_hyp: bool = True,
                 pause_style: str = "class") -> list[str]:
    """Render a full corpus directory in the standard layout.

    pause_style "class" keeps each profile's own schedule; "randomized"
    swaps in class-independent schedules so pauses carry no class signal.
    """
    if pause_style not in ("class", "randomized"):
        raise ValueError(f"unknown pause_style {pause_style!r}")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    story = default_story()
    root.joinpath("story.txt").write_text(
        "\n".join(" ".join(s) for s in story.sentences) + "\n", encoding="utf-8")

    ids = []
    labels_rows = []
    meta_rows = []
    for skill in skills:
        for k in range(per_class):
            rid = f"{skill.name.lower()}_{k:03d}"
            rec_seed = seed * 1_000_003 + int(skill) * 1_009 + k
            schedule = (randomized_pause_schedule(duration, seed, k)
                        if pause_style == "randomized" else None)
            profile = make_profile(skill, seed=rec_seed, noise_dbfs=noise_dbfs,
                                   pause_schedule=schedule)
            samples, intervals, transcription, _ = generate(profile, duration)
            write_wav(samples, root / f"{rid}.wav")
            write_rows(intervals.tolist(), root / f"{rid}.intervals.csv")
            write_transcription(transcription, root / f"{rid}.words.csv")
            if with_hyp:
                write_rows(synth_hypothesis(transcription, rec_seed), root / f"{rid}.hyp.csv")
            ids.append(rid)
            labels_rows.append((rid, skill.name))
            meta_rows.append((rid, f"child{int(skill)}{k // 2}", "synth", "2026-01-01T00:00:00"))
    write_rows(labels_rows, root / "labels.csv")
    write_rows(meta_rows, root / "metadata.csv")
    return ids


def _number(kind, low=None, high=None):
    """argparse type: a finite `kind` value, at least `low` and at most
    `high` when given."""
    def parse(text: str):
        value = kind(text)
        if (not math.isfinite(value) or (low is not None and value < low)
                or (high is not None and value > high)):
            bound = ("an integer" if kind is int else "a finite number") + (
                "" if low is None else f" of at least {low:g}") + (
                "" if high is None else f" of at most {high:g}")
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid float value" message
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="synthcorpus",
        description="Render synthetic oral-reading corpora with known structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", help="write a corpus directory")
    gen.add_argument("--out", required=True, help="output corpus directory")
    gen.add_argument("--profile", default="all",
                     choices=["all"] + [c.name for c in SkillClass])
    gen.add_argument("--per-class", type=_number(int, 1), default=3)
    gen.add_argument("--duration", type=_number(float, MIN_DURATION_S), default=10.0)
    gen.add_argument("--seed", type=_number(int, 0), default=0)
    gen.add_argument("--noise-dbfs", type=_number(float, high=SPEECH_LEVEL_DBFS),
                     default=-70.0)
    gen.add_argument("--pause-style", default="class",
                     choices=["class", "randomized"])
    gen.add_argument("--no-hyp", action="store_true")
    args = parser.parse_args(argv)

    skills = tuple(SkillClass) if args.profile == "all" \
        else (SkillClass[args.profile],)
    ids = write_corpus(
        args.out,
        per_class=args.per_class,
        duration=args.duration,
        seed=args.seed,
        skills=skills,
        noise_dbfs=args.noise_dbfs,
        with_hyp=not args.no_hyp,
        pause_style=args.pause_style,
    )
    print(f"wrote {len(ids)} recordings to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
