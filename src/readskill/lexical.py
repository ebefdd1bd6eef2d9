"""Miscue fraction vectors, k-means clustering, silhouette scoring and the
cluster-to-skill-class labeling rule.

Skill classes order as C_A < M_A < I_A; every tie in the toolkit breaks
toward the lower class.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Transcription, json_object
from .errors import (
    AmbiguousLabeling,
    EmptyTranscription,
    NoModel,
    SchemaMismatch,
    SingleCluster,
    TooFewPoints,
)

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300
LABEL_TIE_TOL = 1e-9  # missed fractions this close leave M_A and I_A ambiguous
CLUSTER_MODEL_VERSION = "cluster-model-v1"


class SkillClass(enum.IntEnum):
    C_A = 0
    M_A = 1
    I_A = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


SKILL_NAMES = tuple(c.name for c in SkillClass)

VARIANT_A_DIMS = ("C", "S1", "SmD", "M", "I")
VARIANT_B_DIMS = ("CS1", "SmD", "M", "I")

# variant B = variant A with C and S1 merged
MERGE_A_TO_B = np.array([
    [1, 1, 0, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
], dtype=np.float64)

# the variant-B columns of the correct, missed and incorrect axes
CMI_COLUMNS = tuple(VARIANT_B_DIMS.index(d) for d in ("CS1", "M", "I"))


@dataclass
class ClusterModel:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    seed: int
    silhouette: float | None = None
    repair_events: int = 0

    @property
    def k(self) -> int:
        return len(self.centroids)


def miscue_fractions(transcription: Transcription) -> np.ndarray:
    """Variant A fractions (C, S1, Sm+D, M, I) of word outcomes over the
    canonical word count. ``MERGE_A_TO_B`` maps them to variant B,
    (C+S1, Sm+D, M, I)."""
    if not transcription.words:
        raise EmptyTranscription("transcription has no words")
    n = len(transcription.words)
    counts = {label: 0 for label in ("C", "S1", "Sm", "D", "M", "I")}
    for w in transcription.words:
        counts[w.label] += 1
    return np.array([
        counts["C"], counts["S1"], counts["Sm"] + counts["D"],
        counts["M"], counts["I"],
    ], dtype=np.float64) / n


def _assign(points: np.ndarray, centroids: np.ndarray,
            prev: np.ndarray | None = None) -> np.ndarray:
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    idx = d2.argmin(axis=1)
    if prev is not None:
        rows = np.arange(len(points))
        sticky = d2[rows, prev] == d2[rows, idx]
        idx[sticky] = prev[sticky]
    return idx


def _init_plusplus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; when every remaining distance is zero the next
    lowest-index unused point is taken."""
    n = len(points)
    chosen = [int(rng.integers(n))]
    for _ in range(1, k):
        d2 = ((points[:, None, :] - points[chosen][None, :, :]) ** 2).sum(axis=2).min(axis=1)
        total = float(d2.sum())
        if total <= 0.0:
            nxt = next(i for i in range(n) if i not in chosen)
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
    return points[chosen].copy()


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator
           ) -> tuple[np.ndarray, np.ndarray, float, int]:
    centroids = _init_plusplus(points, k, rng)
    prev = None
    repairs = 0
    for _ in range(KMEANS_MAX_ITER):
        idx = _assign(points, centroids, prev)
        # re-seed empty clusters at the point farthest from its own centroid;
        # sole members stay put so no donor cluster is emptied in turn
        for c in range(k):
            if (idx == c).any():
                continue
            d = ((points - centroids[idx]) ** 2).sum(axis=1)
            sizes = np.bincount(idx, minlength=k)
            d[sizes[idx] <= 1] = -1.0
            far = int(np.argmax(d))
            idx[far] = c
            centroids[c] = points[far]
            repairs += 1
        if prev is not None and np.array_equal(idx, prev):
            break
        for c in range(k):
            centroids[c] = points[idx == c].mean(axis=0)
        prev = idx
    inertia = float(((points - centroids[idx]) ** 2).sum())
    return centroids, idx, inertia, repairs


def kmeans(points: np.ndarray, k: int, seed: int = 0,
           restarts: int = KMEANS_RESTARTS) -> ClusterModel:
    """Best-of-restarts Lloyd clustering with k-means++ seeding.

    Deterministic for a given seed: restart r uses the generator seeded
    with [seed, r], and the lowest-inertia restart wins with ties going to
    the earlier restart.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if k < 1 or len(points) < k:
        raise TooFewPoints(f"need at least {k} points, got {len(points)}")
    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        cents, idx, inertia, repairs = _lloyd(points, k, rng)
        if best is None or inertia < best[0]:
            best = (inertia, cents, idx, repairs)
    inertia, cents, idx, repairs = best
    return ClusterModel(centroids=cents, assignments=idx, inertia=inertia,
                        seed=seed, repair_events=repairs)


def silhouette(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette over all points with Euclidean distances.

    Each point scores (b - a) / max(a, b); members of singleton clusters
    contribute 0, as do points where both a and b are 0.
    """
    points = np.asarray(points, dtype=np.float64)
    idx = np.asarray(assignments)
    clusters = np.unique(idx)
    if len(clusters) < 2:
        raise SingleCluster("silhouette needs at least two clusters")
    n = len(points)
    # distances from 32 points at a time: each is the same sum over the same
    # squared differences, without an (n, n, d) difference tensor
    dist = np.empty((n, n))
    for a in range(0, n, 32):
        block = points[a:a + 32, None, :] - points[None, :, :]
        np.sqrt(np.square(block, out=block).sum(axis=2), out=dist[a:a + 32])
        del block  # before the next one is made
    sums = np.stack([dist[:, idx == c].sum(axis=1) for c in clusters], axis=1)
    sizes = np.array([(idx == c).sum() for c in clusters])
    own_col = np.searchsorted(clusters, idx)

    rows = np.arange(n)
    size_own = sizes[own_col]
    a = sums[rows, own_col] / np.maximum(size_own - 1, 1)  # singletons score 0 below
    means = sums / sizes
    means[rows, own_col] = np.inf  # b: the nearest other cluster
    b = means.min(axis=1)
    top = np.maximum(a, b)
    scores = np.zeros(n)
    np.divide(b - a, top, out=scores, where=(size_own > 1) & (top > 0.0))
    return float(scores.mean())


def sweep_k(points: np.ndarray, k_range: range, seed: int = 0,
            restarts: int = KMEANS_RESTARTS) -> dict[int, ClusterModel]:
    """The fit for each K, in k_range order, with its silhouette set; every
    K reuses the same master seed."""
    fits = {}
    for k in k_range:
        fits[k] = kmeans(points, k, seed=seed, restarts=restarts)
        fits[k].silhouette = silhouette(points, fits[k].assignments)
    return fits


def label_clusters(centroids: np.ndarray) -> dict[int, SkillClass]:
    """Map K=3 variant B centroids to skill classes.

    The centroid with the highest correct-or-self-corrected fraction is
    C_A; of the remaining two, the one with the larger missed fraction is
    M_A and the other is I_A.
    """
    cents = np.asarray(centroids, dtype=np.float64)
    if cents.shape != (3, len(VARIANT_B_DIMS)):
        raise ValueError(f"expected centroid shape (3, {len(VARIANT_B_DIMS)})")
    cs1, m = cents[:, CMI_COLUMNS[0]], cents[:, CMI_COLUMNS[1]]
    c_cluster = int(np.argmax(cs1))
    rest = [c for c in range(3) if c != c_cluster]
    if abs(m[rest[0]] - m[rest[1]]) <= LABEL_TIE_TOL:
        raise AmbiguousLabeling(
            f"clusters {rest[0]} and {rest[1]} tie on the missed fraction"
        )
    m_cluster = rest[0] if m[rest[0]] > m[rest[1]] else rest[1]
    i_cluster = rest[1] if m_cluster == rest[0] else rest[0]
    return {c_cluster: SkillClass.C_A, m_cluster: SkillClass.M_A,
            i_cluster: SkillClass.I_A}


def save_cluster_model(model: ClusterModel, labels: dict[int, SkillClass], path) -> None:
    """Write a labeled merged-variant (B) model."""
    payload = {
        "format": CLUSTER_MODEL_VERSION,
        "variant": "B",
        "k": model.k,
        "seed": model.seed,
        "inertia": model.inertia,
        "silhouette": model.silhouette,
        "centroids": [[float(v) for v in row] for row in model.centroids],
        "labels": {str(c): labels[c].name for c in sorted(labels)},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_cluster_model(path) -> tuple[np.ndarray, dict[int, SkillClass]]:
    """Read the centroids and cluster labels of a saved K=3 variant-B
    model; labels must name each skill class for exactly one cluster."""
    p = Path(path)
    if not p.exists():
        raise NoModel(f"no cluster model at {path}")
    payload = json_object(p)
    if payload.get("format") != CLUSTER_MODEL_VERSION:
        raise NoModel(f"{path}: unknown cluster model format")
    try:
        centroids = np.array(payload["centroids"], dtype=np.float64)
        labels = {int(c): SkillClass[name] for c, name in payload["labels"].items()}
        variant = payload["variant"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(
            f"{path}: malformed cluster model ({type(exc).__name__}: {exc})") from None
    if variant != "B":
        raise SchemaMismatch(f"{path}: variant {variant!r}, expected 'B'")
    if centroids.shape != (3, len(VARIANT_B_DIMS)):
        raise SchemaMismatch(f"{path}: centroids of shape {centroids.shape}, "
                             f"expected (3, {len(VARIANT_B_DIMS)})")
    if not np.isfinite(centroids).all():
        raise SchemaMismatch(f"{path}: non-finite centroid")
    if sorted(labels) != [0, 1, 2] or sorted(labels.values()) != list(SkillClass):
        named = ", ".join(f"{c}: {s.name}" for c, s in sorted(labels.items()))
        raise SchemaMismatch(
            f"{path}: labels {{{named}}} must give clusters 0, 1 and 2 one class each")
    return centroids, labels
