"""Miscue fractions, k-means, silhouette scoring and cluster labeling, with
brute-force oracles for the geometry."""
from __future__ import annotations

import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from readskill.corpus import TranscribedWord, Transcription
from readskill.errors import (
    AmbiguousLabeling,
    EmptyTranscription,
    NoModel,
    SingleCluster,
    TooFewPoints,
)
from readskill.lexical import (
    MERGE_A_TO_B,
    VARIANT_A_DIMS,
    VARIANT_B_DIMS,
    ClusterModel,
    SkillClass,
    kmeans,
    label_clusters,
    load_cluster_model,
    miscue_fractions,
    save_cluster_model,
    silhouette,
    sweep_k,
)


def words(*labeled: tuple[str, str]) -> Transcription:
    out = []
    for word, label in labeled:
        sub = "oops" if label in ("S1", "Sm") else None
        out.append(TranscribedWord(word=word, label=label, substitution=sub))
    return Transcription(story_id="t", words=tuple(out))


def adjusted_rand(a: list[int], b: list[int]) -> float:
    """Pair-counting ARI: together-in-both pairs against chance."""
    n = len(a)
    pairs = list(combinations(range(n), 2))
    same_a = {(i, j) for i, j in pairs if a[i] == a[j]}
    same_b = {(i, j) for i, j in pairs if b[i] == b[j]}
    index = len(same_a & same_b)
    expected = len(same_a) * len(same_b) / len(pairs)
    maximum = (len(same_a) + len(same_b)) / 2.0
    if maximum == expected:
        return 1.0
    return (index - expected) / (maximum - expected)


def silhouette_oracle(points: np.ndarray, idx: np.ndarray) -> float:
    """O(N^2) per-point loop over the definition."""
    n = len(points)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if j != i and idx[j] == idx[i]]
        if not own:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(points[i] - points[j]) for j in own])
        bs = []
        for c in np.unique(idx):
            if c == idx[i]:
                continue
            members = [j for j in range(n) if idx[j] == c]
            bs.append(np.mean([np.linalg.norm(points[i] - points[j])
                               for j in members]))
        b = min(bs)
        top = max(a, b)
        scores.append((b - a) / top if top > 0 else 0.0)
    return float(np.mean(scores))


def test_miscue_all_correct():
    tr = words(*[("w", "C")] * 10)
    vec = miscue_fractions(tr)
    assert np.allclose(vec, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_miscue_mixed_counts():
    # 8 C, 1 M, 1 I out of 10
    tr = words(*([("w", "C")] * 8 + [("w", "M"), ("w", "I")]))
    vec = miscue_fractions(tr)
    assert np.allclose(vec, [0.8, 0.0, 0.0, 0.1, 0.1])


def test_miscue_variant_a_and_merge():
    # 6 C, 2 S1, 1 Sm, 1 D over 10: A = (.6, .2, .2, 0, 0)
    tr = words(*([("w", "C")] * 6 + [("w", "S1")] * 2 + [("w", "Sm"), ("w", "D")]))
    a = miscue_fractions(tr)
    b = MERGE_A_TO_B @ a
    assert np.allclose(a, [0.6, 0.2, 0.2, 0.0, 0.0])
    assert np.allclose(b, [0.8, 0.2, 0.0, 0.0])
    assert a.shape == (len(VARIANT_A_DIMS),)
    assert b.shape == (len(VARIANT_B_DIMS),)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["C", "S1", "Sm", "D", "M", "I"]),
                         min_size=1, max_size=60), min_size=1, max_size=5))
def test_miscue_b_is_merge_of_a(readers):
    # cli merges a whole matrix of variant A rows at once; each row must
    # equal the one-row merge and the merged label counts
    a = np.array([miscue_fractions(words(*[("w", lab) for lab in labels]))
                  for labels in readers])
    b = a @ MERGE_A_TO_B.T
    for row_a, row_b, labels in zip(a, b, readers):
        assert np.array_equal(row_b, MERGE_A_TO_B @ row_a)
        merged = ["CS1" if lab in ("C", "S1") else "SmD" if lab in ("Sm", "D") else lab
                  for lab in labels]
        counts = [merged.count(d) / len(labels) for d in VARIANT_B_DIMS]
        assert np.allclose(row_b, counts, atol=1e-12)
        assert row_a.sum() == pytest.approx(1.0)
        assert row_b.sum() == pytest.approx(1.0)


def test_miscue_empty_transcription():
    with pytest.raises(EmptyTranscription):
        miscue_fractions(Transcription(story_id="t", words=()))


def separable_blobs(seed: int = 0, sizes=(20, 20, 20)) -> tuple[np.ndarray, list[int]]:
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    pts, truth = [], []
    for c, size in enumerate(sizes):
        pts.append(centers[c] + rng.standard_normal((size, 2)) * 0.3)
        truth.extend([c] * size)
    return np.vstack(pts), truth


def test_kmeans_recovers_separated_blobs():
    pts, truth = separable_blobs()
    model = kmeans(pts, 3, seed=0)
    assert adjusted_rand(truth, model.assignments.tolist()) == pytest.approx(1.0)
    # every point sits nearest its own centroid
    d2 = ((pts[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(d2.argmin(axis=1), model.assignments)


def test_kmeans_identical_points_repair():
    pts = np.zeros((6, 3))
    model = kmeans(pts, 2, seed=0, restarts=1)
    assert model.inertia == 0.0
    assert model.repair_events == 1
    assert set(np.unique(model.assignments)) == {0, 1}


def test_kmeans_too_few_points():
    with pytest.raises(TooFewPoints):
        kmeans(np.zeros((2, 2)), 3)
    with pytest.raises(TooFewPoints):
        kmeans(np.zeros((2, 2)), 0)


def test_kmeans_rejects_bad_shape():
    with pytest.raises(ValueError):
        kmeans(np.zeros(5), 2)


def test_kmeans_deterministic():
    pts, _ = separable_blobs(seed=3)
    a = kmeans(pts, 3, seed=7)
    b = kmeans(pts, 3, seed=7)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia


def test_silhouette_well_separated_pair():
    pts, _ = separable_blobs(seed=1, sizes=(15, 15, 0))
    model = kmeans(pts, 2, seed=0)
    assert silhouette(pts, model.assignments) > 0.9


def test_silhouette_matches_oracle():
    rng = np.random.default_rng(5)
    for trial in range(6):
        n = int(rng.integers(8, 40))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        pts = rng.standard_normal((n, d))
        idx = rng.integers(0, k, size=n)
        if len(np.unique(idx)) < 2:
            idx[0] = (idx[1] + 1) % k
        got = silhouette(pts, idx)
        want = silhouette_oracle(pts, idx)
        assert got == pytest.approx(want, abs=1e-12)


def silhouette_loop(points: np.ndarray, idx: np.ndarray) -> float:
    """``silhouette`` with a Python loop over the points for the scores."""
    clusters = np.unique(idx)
    n = len(points)
    dist = np.empty((n, n))
    for a in range(0, n, 32):
        block = points[a:a + 32, None, :] - points[None, :, :]
        np.sqrt(np.square(block, out=block).sum(axis=2), out=dist[a:a + 32])
    sums = np.stack([dist[:, idx == c].sum(axis=1) for c in clusters], axis=1)
    sizes = np.array([(idx == c).sum() for c in clusters])
    own_col = np.searchsorted(clusters, idx)
    scores = np.zeros(n)
    for i in range(n):
        size_own = sizes[own_col[i]]
        if size_own <= 1:
            continue
        a = sums[i, own_col[i]] / (size_own - 1)
        b = min(sums[i, c] / sizes[c] for c in range(len(clusters)) if c != own_col[i])
        top = max(a, b)
        scores[i] = (b - a) / top if top > 0.0 else 0.0
    return float(scores.mean())


@st.composite
def clusterings(draw):
    """2-6 clusters, often with singletons, over points drawn from a few
    coordinates (so duplicates are common) or from any finite floats."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(k, 40))
    d = draw(st.integers(1, 4))
    coord = st.one_of(st.sampled_from([0.0, 1.0, -2.5]),
                      st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    points = np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
    idx = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    idx[:k] = draw(st.permutations(range(k)))  # every cluster has a member
    return points, idx


@settings(max_examples=300, deadline=None)
@given(clusterings())
def test_silhouette_equals_the_per_point_loop(clustering):
    points, idx = clustering
    assert silhouette(points, idx) == silhouette_loop(points, idx)


def test_silhouette_square_corner_split():
    # unit square: splitting along an edge beats splitting along a diagonal
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    side = silhouette(pts, np.array([0, 0, 1, 1]))
    diag = silhouette(pts, np.array([0, 1, 1, 0]))
    assert side > diag
    assert side == pytest.approx(silhouette_oracle(pts, np.array([0, 0, 1, 1])),
                                 abs=1e-12)


def test_silhouette_singletons_score_zero():
    pts = np.array([[0.0], [5.0]])
    assert silhouette(pts, np.array([0, 1])) == 0.0


@pytest.mark.parametrize("d", [4, 5])
def test_silhouette_memory_stays_quadratic_in_points(d):
    # the (n, n) distances and one cluster's columns of them fit under
    # 3 * n**2 floats; an (n, n, d) difference tensor beside the distances
    # takes (d + 1) * n**2
    n = 189
    pts = np.random.default_rng(d).random((n, d))
    assert traced_peak(silhouette, pts, np.arange(n) % 3) < 3 * n * n * 8


def test_silhouette_single_cluster_error():
    with pytest.raises(SingleCluster):
        silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))


def test_sweep_k_picks_three_for_three_blobs():
    pts, _ = separable_blobs(seed=2)
    fits = sweep_k(pts, range(2, 7), seed=0)
    assert list(fits) == [2, 3, 4, 5, 6]
    assert [fit.k for fit in fits.values()] == [2, 3, 4, 5, 6]
    best_k = max(fits, key=lambda k: fits[k].silhouette)
    assert best_k == 3


def test_sweep_k_picks_two_for_two_sites():
    rng = np.random.default_rng(4)
    pts = np.vstack([
        np.zeros((12, 2)) + rng.standard_normal((12, 2)) * 0.05,
        np.full((12, 2), 8.0) + rng.standard_normal((12, 2)) * 0.05,
    ])
    fits = sweep_k(pts, range(2, 6), seed=0)
    best_k = max(fits, key=lambda k: fits[k].silhouette)
    assert best_k == 2


def test_sweep_k_single_value_range():
    pts, _ = separable_blobs(seed=6)
    fits = sweep_k(pts, range(2, 3), seed=0)
    assert len(fits) == 1 and list(fits) == [2]
    # each fit is the K-means model of that K, scored by its silhouette
    model = kmeans(pts, 2, seed=0)
    assert fits[2].assignments.tolist() == model.assignments.tolist()
    assert fits[2].silhouette == silhouette(pts, model.assignments)


def test_label_clusters_canonical():
    cents = np.array([
        [0.9, 0.05, 0.03, 0.02],   # high CS1: fluent
        [0.5, 0.1, 0.35, 0.05],    # high M: missed-heavy
        [0.5, 0.1, 0.05, 0.35],    # high I: incorrect-heavy
    ])
    got = label_clusters(cents)
    assert got == {0: SkillClass.C_A, 1: SkillClass.M_A, 2: SkillClass.I_A}


def test_label_clusters_any_permutation():
    base = np.array([
        [0.9, 0.05, 0.03, 0.02],
        [0.5, 0.1, 0.35, 0.05],
        [0.5, 0.1, 0.05, 0.35],
    ])
    want = [SkillClass.C_A, SkillClass.M_A, SkillClass.I_A]
    import itertools
    for perm in itertools.permutations(range(3)):
        got = label_clusters(base[list(perm)])
        for row, orig in enumerate(perm):
            assert got[row] == want[orig]


def test_label_clusters_missed_tie():
    cents = np.array([
        [0.9, 0.05, 0.03, 0.02],
        [0.5, 0.2, 0.2, 0.1],
        [0.4, 0.3, 0.2, 0.1],
    ])
    with pytest.raises(AmbiguousLabeling):
        label_clusters(cents)


def test_label_clusters_rejects_bad_shape():
    with pytest.raises(ValueError):
        label_clusters(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        label_clusters(np.zeros((3, 5)))


def test_save_load_cluster_model(tmp_path):
    pts, _ = separable_blobs(seed=8)
    # lift 2-D blobs into 4-D so labeling rules apply
    lifted = np.hstack([pts / 20.0 + 0.3, np.abs(pts[:, ::-1]) / 30.0])
    model = kmeans(lifted, 3, seed=0)
    model.silhouette = silhouette(lifted, model.assignments)
    labels = {0: SkillClass.C_A, 1: SkillClass.M_A, 2: SkillClass.I_A}
    path = tmp_path / "cluster_model.json"
    save_cluster_model(model, labels, path)
    cents, got_labels = load_cluster_model(path)
    assert np.allclose(cents, model.centroids)
    assert got_labels == labels
    assert json.loads(path.read_text())["variant"] == "B"


def test_load_cluster_model_missing(tmp_path):
    with pytest.raises(NoModel):
        load_cluster_model(tmp_path / "nope.json")


def test_load_cluster_model_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other-v1"}')
    with pytest.raises(NoModel):
        load_cluster_model(path)
