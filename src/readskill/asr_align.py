"""Recognizer-output comparison path: align a hypothesis word sequence to
the canonical text, remap the edit ops to correct/missed/incorrect
percentages with a confidence threshold, and classify by nearest miscue
cluster centroid.

The recognizer itself is out of scope; hypotheses arrive as word,confidence
CSV files.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import csv_rows, finite_float, normalize_word
from .errors import EmptyCanonical, OutOfRange, SchemaMismatch
from .lexical import VARIANT_B_DIMS, SkillClass

DEFAULT_TAU = 0.5

# variant-B centroid columns that carry the (correct, missed, incorrect) axes
_PROJECTION = tuple(VARIANT_B_DIMS.index(d) for d in ("CS1", "M", "I"))


@dataclass(frozen=True)
class HypWord:
    text: str
    confidence: float

    def __post_init__(self):
        c = self.confidence
        if not (math.isfinite(c) and 0.0 <= c <= 1.0):
            raise OutOfRange(f"confidence {c!r} for word {self.text!r}")


@dataclass(frozen=True)
class AlignmentOp:
    """One edit step. c and s carry both indices, d only the canonical
    index, i only the hypothesis index."""

    op: str  # c, s, i or d
    ref_index: int | None
    hyp_index: int | None


def parse_hypothesis(path: str | Path) -> list[HypWord]:
    """Parse word,confidence rows; a literal header row is skipped."""
    out = []
    for k, rec in csv_rows(path):
        if k == 0 and rec[0].strip().lower() == "word":
            continue
        if len(rec) < 2:
            raise SchemaMismatch(f"{path}: row {k} needs word,confidence")
        confidence = finite_float(path, k, "confidence", rec[1])
        if not 0.0 <= confidence <= 1.0:
            raise SchemaMismatch(f"{path}: row {k} has confidence {rec[1]!r} outside [0, 1]")
        out.append(HypWord(text=rec[0].strip(), confidence=confidence))
    return out


def _texts(hypothesis) -> list[str]:
    return [w.text if isinstance(w, HypWord) else str(w) for w in hypothesis]


@functools.lru_cache(maxsize=8)
def _canonical_ids(words: tuple[str, ...]) -> tuple[dict[str, int], np.ndarray]:
    """Ids of the normalized canonical words, numbered in first-seen order.

    Every hypothesis of a command is aligned to the same story, so the
    story is normalized once; callers must not change what is returned.
    """
    ids: dict[str, int] = {}
    ref = np.array([ids.setdefault(normalize_word(w), len(ids)) for w in words], dtype=np.int64)
    ref.flags.writeable = False
    return ids, ref


def align(canonical, hypothesis) -> tuple[int, list[AlignmentOp]]:
    """Word-level edit distance plus one op sequence realizing it.

    Comparison is case-insensitive after punctuation stripping. The walk
    runs front to back over a cost-to-go table, breaking cost ties in the
    order match/substitute, then delete, then insert.
    """
    story_ids, ref = _canonical_ids(tuple(_texts(canonical)))
    ids = dict(story_ids)  # normalized word -> id, shared by both sides
    hyp = np.array([ids.setdefault(normalize_word(w), len(ids)) for w in _texts(hypothesis)],
                   dtype=np.int64)
    n, m = len(ref), len(hyp)
    if n == 0:
        raise EmptyCanonical("canonical text holds no words")

    # togo[i, j] = cost of aligning ref[i:] with hyp[j:], filled bottom-up
    # one row at a time. With cand[j] the cheaper of substitute and delete
    # (and cand[m] = n - i), the insert recurrence row[j] = min(cand[j],
    # row[j + 1] + 1) unrolls to row[j] = min over k >= j of cand[k] + k - j.
    k = np.arange(m + 1)
    togo = np.empty((n + 1, m + 1), dtype=np.int64)
    togo[n] = m - k
    cand = np.empty(m + 1, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        below = togo[i + 1]
        np.minimum(below[1:] + (hyp != ref[i]), below[:m] + 1, out=cand[:m])
        cand[m] = n - i
        cand += k
        togo[i] = np.minimum.accumulate(cand[::-1])[::-1] - k

    ops = []
    i = j = 0
    while i < n or j < m:
        if i < n and j < m:
            cost = 0 if ref[i] == hyp[j] else 1
            if togo[i, j] == togo[i + 1, j + 1] + cost:
                ops.append(AlignmentOp("c" if cost == 0 else "s", i, j))
                i += 1
                j += 1
                continue
        if i < n and togo[i, j] == togo[i + 1, j] + 1:
            ops.append(AlignmentOp("d", i, None))
            i += 1
            continue
        ops.append(AlignmentOp("i", None, j))
        j += 1
    return int(togo[0, 0]), ops


@dataclass(frozen=True)
class RemapPercentages:
    """Fractions of the canonical word count. Insertions add to pct_C or
    pct_I without growing the denominator, so pct_C can pass 1."""

    pct_C: float
    pct_M: float
    pct_I: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.pct_C, self.pct_M, self.pct_I])


def confidence_remap(ops: list[AlignmentOp], hypothesis: list[HypWord],
                     threshold: float = DEFAULT_TAU) -> RemapPercentages:
    """Deletions count missed, correct ops correct; substituted and
    inserted words count correct at or above the threshold, else incorrect.
    """
    if not (0.0 <= threshold <= 1.0):
        raise OutOfRange(f"threshold {threshold} outside [0, 1]")
    n_canonical = sum(1 for op in ops if op.ref_index is not None)
    if n_canonical == 0:
        raise EmptyCanonical("ops cover no canonical words")
    n_c = n_m = n_i = 0
    for op in ops:
        if op.op == "d":
            n_m += 1
        elif op.op == "c":
            n_c += 1
        else:
            if hypothesis[op.hyp_index].confidence < threshold:
                n_i += 1
            else:
                n_c += 1
    return RemapPercentages(
        pct_C=n_c / n_canonical,
        pct_M=n_m / n_canonical,
        pct_I=n_i / n_canonical,
    )


def classify_by_centroid(percentages: RemapPercentages, centroids: np.ndarray,
                         labels: dict[int, SkillClass]) -> SkillClass:
    """Nearest centroid in (correct, missed, incorrect) coordinates; ties
    go to the lower skill class. The centroids live in the merged-variant
    space."""
    cents = np.asarray(centroids, dtype=np.float64)[:, list(_PROJECTION)]
    d2 = ((cents - percentages.as_vector()[None, :]) ** 2).sum(axis=1)
    best = None
    for cluster, dist in enumerate(d2):
        skill = labels[cluster]
        if best is None or dist < best[0] - 1e-12 or (
                abs(dist - best[0]) <= 1e-12 and skill < best[1]):
            best = (dist, skill)
    return best[1]
