"""Recognizer-output comparison path: align a hypothesis word sequence to
the canonical text, remap the edit ops to correct/missed/incorrect
percentages with a confidence threshold, and classify by nearest miscue
cluster centroid.

The recognizer itself is out of scope; hypotheses arrive as word,confidence
CSV files.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import csv_rows, finite_float, normalize_word
from .errors import EmptyCanonical, OutOfRange, SchemaMismatch
from .lexical import CMI_COLUMNS, SkillClass

DEFAULT_TAU = 0.5


class AlignmentOp(NamedTuple):
    """One edit step. c and s carry both indices, d only the canonical
    index, i only the hypothesis index."""

    op: str  # c, s, i or d
    ref_index: int | None
    hyp_index: int | None


def parse_hypothesis(path: str | Path) -> tuple[list[str], list[float]]:
    """The words and confidences of word,confidence rows; a first non-blank
    row that reads word,confidence, in any case, is a header and skipped."""
    words, confidences = [], []
    for i, (k, rec) in enumerate(csv_rows(path)):
        if i == 0 and [cell.strip().lower() for cell in rec] == ["word", "confidence"]:
            continue
        if len(rec) < 2:
            raise SchemaMismatch(f"{path}: row {k} needs word,confidence")
        confidence = finite_float(path, k, "confidence", rec[1])
        if not 0.0 <= confidence <= 1.0:
            raise SchemaMismatch(f"{path}: row {k} has confidence {rec[1]!r} outside [0, 1]")
        words.append(rec[0].strip())
        confidences.append(confidence)
    return words, confidences


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


def align(canonical: Sequence[str], hypothesis: Sequence[str]
          ) -> tuple[int, list[AlignmentOp]]:
    """Word-level edit distance between two word sequences, plus one op
    sequence realizing it.

    Comparison is case-insensitive after punctuation stripping. The walk
    runs front to back over a cost-to-go table, breaking cost ties in the
    order match/substitute, then delete, then insert.
    """
    story_ids, ref_ids = _canonical_ids(tuple(canonical))
    ids = dict(story_ids)  # normalized word -> id, shared by both sides
    hyp = [ids.setdefault(normalize_word(w), len(ids)) for w in hypothesis]
    ref = ref_ids.tolist()
    n, m = len(ref), len(hyp)
    if n == 0:
        raise EmptyCanonical("canonical text holds no words")

    # togo[i][j], the cost of aligning ref[i:] with hyp[j:], is the prefix
    # edit distance D[r][c] of the reversed sequences, with r = n - i and
    # c = m - j. Row r is kept as Myers/Hyyro delta bit vectors (Myers 1999;
    # Hyyro 2001), filled for r = 1..n from D[0][c] = c: bit c - 1 of pv/mv
    # is set where D[r][c] - D[r][c-1] is +1/-1, and bit c of ph/mh where
    # D[r][c] - D[r-1][c] is +1/-1; bit 0 of ph carries D[r][0] = r.
    mask = (1 << m) - 1
    peq: dict[int, int] = {}  # word id -> bits c - 1 of its reversed positions
    for j, w in enumerate(hyp):
        peq[w] = peq.get(w, 0) | 1 << (m - 1 - j)
    pv, mv = mask, 0
    rows = [None]
    for i in range(n - 1, -1, -1):
        eq = peq.get(ref[i], 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & mask
        mh = pv & xh
        ph = ph << 1 | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
        rows.append((pv, mv, ph, mh))
    dist = n + pv.bit_count() - mv.bit_count()  # D[n][m] = togo[0][0]

    # Each test of the walk reads deltas of row r alone. togo[i][j] minus
    # togo[i+1][j+1] is the sum of the two deltas at bit c - 1: 0 at every
    # match, 1 where a substitution lies on a cheapest path. togo[i][j]
    # minus togo[i+1][j] is bit c of ph/mh: 1 where a deletion does.
    ops = []
    i = j = 0
    while i < n:
        pv, mv, ph, mh = rows[n - i]
        c = m - j
        same = j < m and ref[i] == hyp[j]
        if same or j < m and ((pv | ph) & ~(mv | mh)) >> (c - 1) & 1:
            ops.append(AlignmentOp("c" if same else "s", i, j))
            i += 1
            j += 1
        elif ph >> c & 1:
            ops.append(AlignmentOp("d", i, None))
            i += 1
        else:
            ops.append(AlignmentOp("i", None, j))
            j += 1
    ops.extend(AlignmentOp("i", None, k) for k in range(j, m))
    return dist, ops


def confidence_remap(ops: list[AlignmentOp], confidences: list[float],
                     threshold: float = DEFAULT_TAU) -> tuple[float, float, float]:
    """(pct_C, pct_M, pct_I) as fractions of the canonical word count.

    Deletions count missed, correct ops correct; substituted and inserted
    words count correct when their confidence is at or above the
    threshold, else incorrect. Insertions add to pct_C or pct_I without
    growing the denominator, so pct_C can pass 1.
    """
    if not (0.0 <= threshold <= 1.0):
        raise OutOfRange(f"threshold {threshold} outside [0, 1]")
    n_canonical = sum(1 for op in ops if op.ref_index is not None)
    if n_canonical == 0:
        raise EmptyCanonical("ops cover no canonical words")
    n_c = n_m = n_i = 0
    for op, _, hyp_index in ops:
        if op == "d":
            n_m += 1
        elif op == "c":
            n_c += 1
        elif confidences[hyp_index] < threshold:
            n_i += 1
        else:
            n_c += 1
    return n_c / n_canonical, n_m / n_canonical, n_i / n_canonical


def classify_by_centroid(percentages: tuple[float, float, float], centroids: np.ndarray,
                         labels: dict[int, SkillClass]) -> SkillClass:
    """Nearest centroid in (correct, missed, incorrect) coordinates; ties
    go to the lower skill class. The centroids live in the merged-variant
    space."""
    cents = np.asarray(centroids, dtype=np.float64)[:, list(CMI_COLUMNS)]
    d2 = ((cents - np.array(percentages)[None, :]) ** 2).sum(axis=1)
    best = None
    for cluster, dist in enumerate(d2):
        skill = labels[cluster]
        if best is None or dist < best[0] - 1e-12 or (
                abs(dist - best[0]) <= 1e-12 and skill < best[1]):
            best = (dist, skill)
    return best[1]
