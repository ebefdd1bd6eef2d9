"""Workload input generators, run in a child process with the checkout's
src/ on PYTHONPATH.

    python3 perfbench/gen.py audio OUT --seed N --skill C_A --per-class 63 \
        --duration 5 --pause-style class
    python3 perfbench/gen.py lexical OUT --seed N --per-class 63 --sentences 40

Audio corpora come from the public synth.write_corpus, one skill class per
call so that the benchmark can render the classes in parallel; recording
seeds depend only on (seed, class, index), so the merged shards equal one
write_corpus call over all classes. Lexical corpora are transcript-only:
a seeded story, per-reader miscue labels drawn from the class profile's
label_probs and recognizer hypotheses from synth.synth_hypothesis.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from readskill import corpus, synth
from readskill.lexical import SkillClass

WORDS_PER_SENTENCE = 10
STORY_CONSONANTS = "bdgkmnprst"
# substitution text never matches a story word: disjoint consonants
SUB_CONSONANTS = "fhlvwz"
VOWELS = "aeiou"


def _pseudo_word(rng: np.random.Generator, consonants: str) -> str:
    return "".join(consonants[rng.integers(len(consonants))] + VOWELS[rng.integers(len(VOWELS))]
                   for _ in range(int(rng.integers(1, 4))))


def write_lexical(out: Path, seed: int, per_class: int, sentences: int) -> list[str]:
    """Transcript-only corpus: story.txt, <id>.words.csv, <id>.hyp.csv and
    labels.csv, no audio."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 400])
    vocab = sorted({_pseudo_word(rng, STORY_CONSONANTS) for _ in range(300)})
    story = [[vocab[rng.integers(len(vocab))] for _ in range(WORDS_PER_SENTENCE)]
             for _ in range(sentences)]
    out.joinpath("story.txt").write_text("\n".join(" ".join(s) for s in story) + "\n")
    words = [w for s in story for w in s]

    ids, label_rows = [], []
    for skill in SkillClass:
        for k in range(per_class):
            rid = f"{skill.name.lower()}_{k:03d}"
            rec_seed = seed * 1_000_003 + int(skill) * 1_009 + k
            probs = np.asarray(synth.make_profile(skill, seed=rec_seed).label_probs)
            draw = np.random.default_rng([rec_seed, 23])
            codes = draw.choice(len(probs), size=len(words), p=probs / probs.sum())
            transcribed = []
            for word, code in zip(words, codes):
                label = corpus.WORD_LABELS[code]
                sub = (_pseudo_word(draw, SUB_CONSONANTS)
                       if label in corpus.SUBSTITUTION_LABELS else None)
                transcribed.append(corpus.TranscribedWord(word, label, sub))
            transcription = corpus.Transcription("story", tuple(transcribed))
            corpus.write_transcription(transcription, out / f"{rid}.words.csv")
            with open(out / f"{rid}.hyp.csv", "w") as fh:
                for word, conf in synth.synth_hypothesis(transcription, rec_seed):
                    fh.write(f"{word},{conf!r}\n")
            ids.append(rid)
            label_rows.append(f"{rid},{skill.name}")
    out.joinpath("labels.csv").write_text("\n".join(label_rows) + "\n")
    return ids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gen.py")
    parser.add_argument("kind", choices=["audio", "lexical"])
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--per-class", type=int, required=True)
    parser.add_argument("--skill", choices=[c.name for c in SkillClass])
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--pause-style", default="class")
    parser.add_argument("--sentences", type=int, default=40)
    args = parser.parse_args(argv)
    if args.kind == "audio":
        synth.write_corpus(args.out, per_class=args.per_class, duration=args.duration,
                           seed=args.seed, skills=(SkillClass[args.skill],),
                           pause_style=args.pause_style)
    else:
        write_lexical(Path(args.out), args.seed, args.per_class, args.sentences)
    return 0


if __name__ == "__main__":
    sys.exit(main())
