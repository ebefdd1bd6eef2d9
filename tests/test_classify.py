"""Random forest, staged plans and cross-validation: accuracy arithmetic,
rank-invariance of splits, tie-breaking, fold assignment, and persistence."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from readskill.classify import (
    CV_FOLDS,
    PLANS,
    RandomForestModel,
    StageModels,
    _fold_assignment,
    _gini_gain_scan,
    _Node,
    accuracy,
    confusion,
    cross_validate,
    load_model,
    predict_batch,
    predict_stage,
    save_model,
    train_forest,
    train_plan,
    write_report,
)
from readskill.errors import (
    DimensionMismatch,
    EmptyMatrix,
    NoModel,
    SchemaMismatch,
    SingleClassTraining,
    TooFewPerClass,
)
from readskill.featurize import FEATURE_INDEX, FEATURE_NAMES
from readskill.lexical import SkillClass


def gaussian_classes(seed: int, per_class: int = 21, d: int = 17,
                     spread: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Three blobs separated by 10 units in every dimension."""
    rng = np.random.default_rng(seed)
    X = np.vstack([
        c * 10.0 + rng.standard_normal((per_class, d)) * spread
        for c in range(3)
    ])
    y = np.repeat([0, 1, 2], per_class)
    return X, y


def test_accuracy_diagonal():
    assert accuracy(np.diag([5, 7, 9])) == 1.0


def test_accuracy_known_fraction():
    assert accuracy(np.array([[2, 1], [0, 3]])) == pytest.approx(5.0 / 6.0)


@pytest.mark.parametrize("n", [0, 1, 50])
def test_confusion_counts_pairs(n):
    rng = np.random.default_rng(n)
    actual, predicted = rng.integers(0, 3, size=(2, n))
    loop = np.zeros((3, 3), dtype=np.int64)
    for a, p in zip(actual, predicted):
        loop[a, p] += 1
    got = confusion(actual, predicted)
    assert got.dtype == np.int64
    assert np.array_equal(got, loop)
    assert np.array_equal(confusion([], []), np.zeros((3, 3)))


def test_accuracy_empty_matrix():
    with pytest.raises(EmptyMatrix):
        accuracy(np.zeros((3, 3)))
    with pytest.raises(EmptyMatrix):
        accuracy(np.zeros((0, 0)))


def test_forest_fits_separable_training_data():
    X, y = gaussian_classes(seed=0, d=5)
    model = train_forest(X, y, n_trees=15, seed_path=(0,))
    assert np.array_equal(predict_batch(model, X), y)


def test_forest_single_class_rejected():
    X = np.random.default_rng(1).standard_normal((10, 3))
    with pytest.raises(SingleClassTraining):
        train_forest(X, np.zeros(10, dtype=int))


def test_forest_shape_errors():
    rng = np.random.default_rng(2)
    with pytest.raises(DimensionMismatch):
        train_forest(rng.standard_normal(10), np.arange(10) % 2)
    with pytest.raises(DimensionMismatch):
        train_forest(rng.standard_normal((10, 3)), np.arange(8) % 2)


def test_forest_nonfinite_rejected():
    X = np.zeros((6, 2))
    X[3, 1] = np.nan
    with pytest.raises(ValueError):
        train_forest(X, np.arange(6) % 2)


def test_predict_batch_wrong_width():
    X, y = gaussian_classes(seed=3, d=4)
    model = train_forest(X, y, n_trees=5)
    with pytest.raises(DimensionMismatch):
        predict_batch(model, X[:, :3])


def test_identical_rows_tie_breaks_low():
    # indistinguishable inputs with balanced labels: every leaf holds equal
    # counts, so the vote falls to the lower class code
    X = np.ones((8, 3))
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    model = train_forest(X, y, n_trees=9, seed_path=(4,))
    assert predict_batch(model, np.ones((1, 3))).tolist() == [0]
    y2 = np.array([1, 2, 1, 2, 1, 2, 1, 2])
    model2 = train_forest(X, y2, n_trees=9, seed_path=(4,))
    assert predict_batch(model2, np.ones((1, 3))).tolist() == [1]


def test_forest_deterministic():
    X, y = gaussian_classes(seed=5, d=6, spread=3.0)
    probes = np.random.default_rng(6).uniform(-5.0, 25.0, size=(1000, 6))
    a = predict_batch(train_forest(X, y, n_trees=10, seed_path=(7,)), probes)
    b = predict_batch(train_forest(X, y, n_trees=10, seed_path=(7,)), probes)
    assert np.array_equal(a, b)


def test_forest_seed_changes_model():
    X, y = gaussian_classes(seed=5, d=6, spread=6.0)
    a = train_forest(X, y, n_trees=10, seed_path=(0,))
    b = train_forest(X, y, n_trees=10, seed_path=(1,))
    assert not np.array_equal(a.importances, b.importances)


def test_splits_depend_only_on_feature_ranks():
    # strictly increasing per-column maps leave every training-point
    # partition unchanged, so training-set predictions must be identical
    rng = np.random.default_rng(8)
    X = rng.uniform(-3.0, 3.0, size=(60, 4))
    y = rng.integers(0, 3, size=60)
    y[:3] = [0, 1, 2]
    transforms = (lambda v: 2.0 * v + 3.0, np.exp,
                  lambda v: v ** 3, np.arctan)
    Xt = np.column_stack([f(X[:, j]) for j, f in enumerate(transforms)])
    base = train_forest(X, y, n_trees=12, seed_path=(9,))
    trans = train_forest(Xt, y, n_trees=12, seed_path=(9,))
    assert np.array_equal(predict_batch(base, X), predict_batch(trans, Xt))


def test_importances_sum_to_one_and_rank_signal():
    rng = np.random.default_rng(10)
    n = 120
    y = np.repeat([0, 1, 2], n // 3)
    X = rng.standard_normal((n, 5))
    X[:, 2] = y * 2.0 + rng.standard_normal(n) * 0.05
    model = train_forest(X, y, n_trees=20, seed_path=(11,))
    assert (model.importances >= 0.0).all() and model.importances.sum() > 0.0
    imp = model.importances / model.importances.sum()
    assert int(imp.argmax()) == 2
    assert imp[2] > 0.5


def test_importances_flat_on_pure_noise():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((300, 6))
    y = rng.integers(0, 3, size=300)
    model = train_forest(X, y, n_trees=30, seed_path=(13,))
    imp = model.importances
    assert imp.max() <= 3.0 * imp.min()


def test_plan_table_structure():
    assert set(PLANS) == {"one_stage", "two_stage_P", "two_stage_Q"}
    one = PLANS["one_stage"]
    assert len(one.stages) == 1
    assert one.stages[0].features == FEATURE_NAMES
    assert one.stages[0].classes == (SkillClass.C_A, SkillClass.M_A, SkillClass.I_A)

    p = PLANS["two_stage_P"]
    assert len(p.stages) == 2
    assert len(p.stages[0].features) == 9
    assert p.stages[0].target == SkillClass.I_A
    assert "articulation_rate" in p.stages[0].features
    assert "pauses_per_interval" in p.stages[0].features
    assert p.stages[1].classes == (SkillClass.C_A, SkillClass.M_A)
    assert len(p.stages[1].features) == 10

    q = PLANS["two_stage_Q"]
    assert q.stages[0].target == SkillClass.M_A
    assert len(q.stages[0].features) == 17
    assert q.stages[1].classes == (SkillClass.C_A, SkillClass.I_A)
    assert "pause_freq" in q.stages[1].features
    assert len(q.stages[1].features) == 12


def test_all_plan_features_resolve():
    for plan in PLANS.values():
        for stage in plan.stages:
            for name in stage.features:
                assert name in FEATURE_NAMES
            assert [FEATURE_NAMES[i] for i in stage.columns] == list(stage.features)


@pytest.mark.parametrize("plan_id", sorted(PLANS))
def test_staged_plans_fit_separable_data(plan_id):
    X, y = gaussian_classes(seed=14)
    models = train_plan(PLANS[plan_id], X, y, seed_path=(15,), n_trees=10)
    assert np.array_equal(predict_stage(models, X), y)


def test_predict_stage_wrong_width():
    X, y = gaussian_classes(seed=16)
    models = train_plan(PLANS["one_stage"], X, y, n_trees=5)
    with pytest.raises(DimensionMismatch):
        predict_stage(models, X[:, :5])


def test_fold_assignment_stratified_balance():
    y = np.repeat([0, 1, 2], [70, 63, 56])
    fold_of = _fold_assignment(y, 7, seed=0)
    for f in range(7):
        sel = fold_of == f
        assert sel.sum() == 27
        assert (y[sel] == 0).sum() == 10
        assert (y[sel] == 1).sum() == 9
        assert (y[sel] == 2).sum() == 8


def test_fold_assignment_uneven_differs_by_at_most_one():
    y = np.repeat([0, 1, 2], [23, 17, 11])
    fold_of = _fold_assignment(y, 5, seed=3)
    for c in range(3):
        per_fold = [((fold_of == f) & (y == c)).sum() for f in range(5)]
        assert max(per_fold) - min(per_fold) <= 1


def test_fold_assignment_groups_stay_together():
    sizes = {"a": 5, "b": 4, "c": 3, "d": 3, "e": 3}
    groups = [g for g, s in sizes.items() for _ in range(s)]
    y = np.zeros(len(groups), dtype=int)
    fold_of = _fold_assignment(y, 3, seed=0, groups=groups)
    fold_by_group = {}
    for g, f in zip(groups, fold_of):
        fold_by_group.setdefault(g, set()).add(int(f))
    assert all(len(fs) == 1 for fs in fold_by_group.values())
    fold_sizes = sorted(int((fold_of == f).sum()) for f in range(3))
    assert fold_sizes == [5, 6, 7]
    # biggest group seeds the first fold
    assert fold_by_group["a"] == {0}


def test_cross_validate_separable():
    X, y = gaussian_classes(seed=18)
    report = cross_validate(PLANS["one_stage"], X, y, folds=7, seed=0,
                            n_trees=10)
    assert report.accuracy >= 0.95
    assert report.pooled_confusion.sum() == len(y)


def test_cross_validate_shuffled_labels_near_chance():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((63, 17))
    y = np.repeat([0, 1, 2], 21)
    report = cross_validate(PLANS["one_stage"], X, y, folds=7, seed=0,
                            n_trees=10)
    assert abs(report.accuracy - 1.0 / 3.0) <= 0.15


def test_cross_validate_too_few_per_class():
    X, y = gaussian_classes(seed=20, per_class=5)
    with pytest.raises(TooFewPerClass):
        cross_validate(PLANS["one_stage"], X, y, folds=7)


def test_cross_validate_pooled_is_fold_sum():
    X, y = gaussian_classes(seed=21)
    report = cross_validate(PLANS["one_stage"], X, y, folds=7, seed=1,
                            n_trees=8)
    assert len(report.fold_confusions) == 7
    assert np.array_equal(np.sum(report.fold_confusions, axis=0),
                          report.pooled_confusion)
    # actual-class row sums recover the class sizes
    assert report.pooled_confusion.sum(axis=1).tolist() == [21, 21, 21]


def test_cross_validate_importances():
    rng = np.random.default_rng(22)
    n = 63
    y = np.repeat([0, 1, 2], 21)
    X = rng.standard_normal((n, 17))
    signal_col = list(FEATURE_NAMES).index("articulation_rate")
    X[:, signal_col] = y * 3.0 + rng.standard_normal(n) * 0.1
    report = cross_validate(PLANS["one_stage"], X, y,
                            folds=7, seed=0, n_trees=10)
    assert sum(report.importances.values()) == pytest.approx(1.0, abs=1e-9)
    assert max(report.importances, key=report.importances.get) == "articulation_rate"


def test_cross_validate_deterministic():
    X, y = gaussian_classes(seed=23, spread=4.0)
    a = cross_validate(PLANS["two_stage_P"], X, y, folds=7, seed=5, n_trees=8)
    b = cross_validate(PLANS["two_stage_P"], X, y, folds=7, seed=5, n_trees=8)
    assert np.array_equal(a.pooled_confusion, b.pooled_confusion)
    assert a.importances == b.importances


def test_cross_validate_respects_groups():
    X, y = gaussian_classes(seed=24, per_class=10, spread=4.0)
    groups = [f"g{i // 5}" for i in range(len(y))]
    report = cross_validate(PLANS["one_stage"], X, y, folds=3, seed=0,
                            n_trees=5, groups=groups)
    assert report.pooled_confusion.sum() == len(y)


def test_save_load_round_trip(tmp_path):
    X, y = gaussian_classes(seed=25)
    models = train_plan(PLANS["two_stage_Q"], X, y, seed_path=(1,), n_trees=6)
    path = tmp_path / "model.json"
    save_model(models, path)
    loaded = load_model(path)
    probes = np.random.default_rng(26).uniform(-5.0, 25.0, size=(200, 17))
    assert np.array_equal(predict_stage(models, probes),
                          predict_stage(loaded, probes))
    assert loaded.plan.plan_id == "two_stage_Q"
    for orig, got in zip(models.models, loaded.models):
        assert np.allclose(orig.importances, got.importances)


def test_load_model_missing(tmp_path):
    with pytest.raises(NoModel):
        load_model(tmp_path / "none.json")


def test_load_model_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "bogus-v1"}')
    with pytest.raises(SchemaMismatch):
        load_model(path)


def _saved_payload(tmp_path):
    X, y = gaussian_classes(seed=25)
    save_model(train_plan(PLANS["one_stage"], X, y, n_trees=2), tmp_path / "model.json")
    return json.loads((tmp_path / "model.json").read_text())


def _assert_load_rejects(tmp_path, payload, literal):
    """Write payload with its "@" cell spelled as a JSON number literal that
    reads as a non-finite float, and expect load_model to refuse it."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload).replace('"@"', literal))
    with pytest.raises(SchemaMismatch, match="model.json: .*non-finite"):
        load_model(path)


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]


@pytest.mark.parametrize("literal", NON_FINITE)
def test_load_model_rejects_non_finite_threshold(tmp_path, literal):
    payload = _saved_payload(tmp_path)
    payload["stages"][0]["trees"][0]["threshold"] = "@"
    _assert_load_rejects(tmp_path, payload, literal)


@pytest.mark.parametrize("literal", NON_FINITE)
def test_load_model_rejects_non_finite_counts(tmp_path, literal):
    payload = _saved_payload(tmp_path)
    node = payload["stages"][0]["trees"][0]
    while "counts" not in node:
        node = node["left"]
    node["counts"][0] = "@"
    _assert_load_rejects(tmp_path, payload, literal)


@pytest.mark.parametrize("literal", NON_FINITE)
def test_load_model_rejects_non_finite_importance(tmp_path, literal):
    payload = _saved_payload(tmp_path)
    payload["stages"][0]["importances"][0] = "@"
    _assert_load_rejects(tmp_path, payload, literal)


def test_load_model_too_deep_tree(tmp_path, monkeypatch):
    # a tree nested deeper than the interpreter's recursion limit is a bad
    # file, not a crash; JSON parsing itself may stop first on such a file
    X, y = gaussian_classes(seed=25)
    path = tmp_path / "model.json"
    save_model(train_plan(PLANS["one_stage"], X, y, n_trees=1), path)
    payload = json.loads(path.read_text())
    leaf = {"counts": [1.0, 0.0, 0.0]}
    node = leaf
    for _ in range(5000):
        node = {"feature": 0, "threshold": 0.5, "left": node, "right": leaf}
    payload["stages"][0]["trees"] = [node]
    monkeypatch.setattr("readskill.corpus.json.loads", lambda *_, **__: payload)
    with pytest.raises(SchemaMismatch, match="malformed classifier model .RecursionError"):
        load_model(path)


def test_write_report_outputs(tmp_path):
    X, y = gaussian_classes(seed=27)
    report = cross_validate(PLANS["one_stage"], X, y, folds=7, seed=2,
                            n_trees=6)
    json_path = tmp_path / "cvreport.json"
    csv_path = tmp_path / "confusion.csv"
    write_report(report, json_path, csv_path)

    payload = json.loads(json_path.read_text())
    assert payload["format"] == "cvreport-v1"
    assert payload["plan"] == "one_stage"
    assert payload["folds"] == 7
    assert payload["class_order"] == ["C_A", "M_A", "I_A"]
    assert payload["accuracy"] == report.accuracy
    assert np.array_equal(np.array(payload["pooled_confusion"]),
                          report.pooled_confusion)
    assert len(payload["fold_confusions"]) == 7

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "actual\\predicted,C_A,M_A,I_A"
    assert len(lines) == 4
    total = sum(int(v) for row in lines[1:] for v in row.split(",")[1:])
    assert total == len(y)


def test_cv_folds_default():
    assert CV_FOLDS == 7


def _per_column_scan(X, y, feats, n_classes):
    """Oracle: the per-column split scan that the batched one replaced,
    looping over the candidate columns in ascending order. Returns
    (gain, feature, pos) or None."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    parent_gini = 1.0 - ((parent_counts / n) ** 2).sum()
    best = None
    for f in feats:
        order = np.argsort(X[:, f], kind="stable")
        xs, ys = X[order, f], y[order]
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = 1.0
        left = np.cumsum(onehot, axis=0)[:-1]
        right = onehot.sum(axis=0)[None, :] - left
        nl = np.arange(1, n, dtype=np.float64)
        nr = n - nl
        gini_l = 1.0 - (left * left).sum(axis=1) / (nl * nl)
        gini_r = 1.0 - (right * right).sum(axis=1) / (nr * nr)
        gain = parent_gini - (nl * gini_l + nr * gini_r) / n
        gain = np.where(valid, gain, -1.0)
        pos = int(np.argmax(gain))
        if best is None or float(gain[pos]) > best[0]:
            best = (float(gain[pos]), int(f), pos)
    return best


def _ranks(X):
    """Each column of X as dense ranks, the form the batched scan reads."""
    return np.column_stack([np.unique(col, return_inverse=True)[1] for col in X.T])


@st.composite
def split_rounds(draw):
    """One round of 1-6 nodes of 2-14 rows each, drawn with repeats from a
    small table with heavy ties and constant columns, each node with its
    own ascending candidate columns."""
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 6))
    n_classes = draw(st.sampled_from([2, 3]))
    cells = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    X = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                               min_size=d, max_size=d))).T
    for j in draw(st.sets(st.integers(0, d - 1))):
        X[:, j] = X[0, j]
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                               max_size=n)), dtype=np.int64)
    m = draw(st.integers(1, d))
    nodes = draw(st.lists(st.tuples(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=14),
        st.sets(st.integers(0, d - 1), min_size=m, max_size=m)),
        min_size=1, max_size=6))
    parts = [np.array(rows) for rows, _ in nodes]
    feats = np.array([sorted(f) for _, f in nodes])
    return X, y, parts, feats, n_classes


@settings(max_examples=300, deadline=None)
@given(split_rounds())
def test_batched_scan_matches_per_column_scan(round_):
    X, y, parts, feats, n_classes = round_
    sizes = np.array([len(p) for p in parts])
    gain, feature, pos, order = _gini_gain_scan(
        _ranks(X), y, np.concatenate(parts), sizes, feats, n_classes)
    assert len(gain) == len(feature) == len(pos) == len(parts)
    start = 0
    for k, rows in enumerate(parts):
        want = _per_column_scan(X[rows], y[rows], feats[k], n_classes)
        if want is None:
            assert gain[k] == -1.0
        else:
            assert (float(gain[k]), int(feature[k]), int(pos[k])) == want
            got = order[start:start + len(rows)]
            assert np.array_equal(got, rows[np.argsort(X[rows, feature[k]], kind="stable")])
        start += len(rows)


def test_root_round_scan_memory_per_entry():
    # one forest's root round at the paper's scale: 50 trees of 189
    # bootstrap rows, 5 candidate columns each
    rng = np.random.default_rng(189)
    X = np.round(rng.normal(size=(189, 17)), 2)
    y = rng.integers(0, 3, 189)
    rows = rng.integers(0, 189, 50 * 189)
    feats = np.sort([rng.choice(17, 5, replace=False) for _ in range(50)], axis=1)
    peak = traced_peak(_gini_gain_scan, _ranks(X), y, rows, np.full(50, 189), feats, 3)
    assert peak / (5 * len(rows)) < 64


def _oracle_gini_gain_scan(X, y, feats, n_classes):
    """Oracle: the one-node scan that the batched one replaced. Returns
    (gain, feature, pos, order) or None."""
    n = len(y)
    order = X[:, feats].argsort(axis=0, kind="stable")
    xs = X[order, feats]
    valid = xs[:-1] < xs[1:]
    if not valid.any():
        return None
    counts = np.bincount(y, minlength=n_classes)
    parent_gini = 1.0 - ((counts / n) ** 2).sum()
    left = (y[order][:, :, None] == np.arange(n_classes)).cumsum(axis=0)[:-1]
    right = counts - left
    nl = np.arange(1.0, n)[:, None]
    nr = n - nl
    gini_l = 1.0 - (left * left).sum(axis=2) / (nl * nl)
    gini_r = 1.0 - (right * right).sum(axis=2) / (nr * nr)
    gain = np.where(valid, parent_gini - (nl * gini_l + nr * gini_r) / n, -1.0)
    best = gain.max(axis=0)
    j = int(best.argmax())
    return float(best[j]), int(feats[j]), int(gain[:, j].argmax()), order[:, j]


def _oracle_build_tree(X, y, n_classes, m_features, rng, importance, n_total):
    """Oracle: the recursive one-tree builder that lockstep growth replaced."""
    node = _Node()
    if len(y) <= 1 or (y == y[0]).all():
        node.counts = np.zeros(n_classes)
        return node
    feats = np.sort(rng.choice(X.shape[1], size=m_features, replace=False))
    best = _oracle_gini_gain_scan(X, y, feats, n_classes)
    if best is None:
        node.counts = np.zeros(n_classes)
        return node
    gain, f, pos, order = best
    importance[f] += (len(y) / n_total) * gain
    node.feature = f
    node.threshold = (X[order[pos], f] + X[order[pos + 1], f]) / 2.0
    left_idx = order[: pos + 1]
    right_idx = order[pos + 1:]
    node.left = _oracle_build_tree(X[left_idx], y[left_idx], n_classes, m_features,
                                   rng, importance, n_total)
    node.right = _oracle_build_tree(X[right_idx], y[right_idx], n_classes, m_features,
                                    rng, importance, n_total)
    return node


def _oracle_route_counts(root, X, y, n_classes):
    """Oracle: the leaf-count walk the single leaf router replaced."""
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            node.counts = np.bincount(y[idx], minlength=n_classes).astype(np.float64)
            continue
        mask = X[idx, node.feature] < node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))


def _oracle_tree_predict(root, X):
    """Oracle: the per-tree prediction walk the single leaf router replaced."""
    out = np.empty(len(X), dtype=np.int64)
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out[idx] = int(np.argmax(node.counts))
            continue
        mask = X[idx, node.feature] < node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def _oracle_forest(X, y, n_trees, seed_path, n_classes):
    """Oracle forest: the same trees, with leaf counts from the old walk."""
    n, d = X.shape
    m_features = math.ceil(math.sqrt(d))
    trees = []
    importance_sum = np.zeros(d)
    for t in range(n_trees):
        rng = np.random.default_rng([*seed_path, t])
        boot = rng.integers(0, n, size=n)
        imp = np.zeros(d)
        root = _oracle_build_tree(X[boot], y[boot], n_classes, m_features, rng, imp, n)
        _oracle_route_counts(root, X, y, n_classes)
        importance_sum += imp
        trees.append(root)
    return RandomForestModel(trees=trees, n_classes=n_classes, n_features=d,
                             importances=importance_sum / n_trees)


def _oracle_predict_batch(model, X):
    votes = np.zeros((len(X), model.n_classes))
    for root in model.trees:
        votes[np.arange(len(X)), _oracle_tree_predict(root, X)] += 1
    return votes.argmax(axis=1)


def _oracle_columns(features):
    """Oracle: a stage's columns, looked up name by name."""
    return np.array([FEATURE_INDEX[name] for name in features])


def _oracle_train_plan(plan, X, y, seed_path, n_trees):
    """Oracle: the three-branch stage training the one stage rule replaced."""
    models = []
    for s, stage in enumerate(plan.stages):
        cols = _oracle_columns(stage.features)
        if stage.target is not None:
            Xs = X[:, cols]
            ys = (y == int(stage.target)).astype(np.int64)
            n_classes = 2
        elif len(stage.classes) == 2:
            pair = sorted(int(c) for c in stage.classes)
            keep = np.isin(y, pair)
            Xs = X[keep][:, cols]
            ys = (y[keep] == pair[1]).astype(np.int64)
            n_classes = 2
        else:
            Xs = X[:, cols]
            ys = y
            n_classes = len(stage.classes)
        if len(np.unique(ys)) < 2:  # train_forest's check, which the oracle forest skips
            raise SingleClassTraining("training labels hold fewer than two classes")
        models.append(_oracle_forest(Xs, ys, n_trees, (*seed_path, s), n_classes))
    return StageModels(plan=plan, models=models)


def _oracle_predict_stage(stage_models, X):
    """Oracle: the one-stage path and the hard-coded two-stage path."""
    plan = stage_models.plan
    if len(plan.stages) == 1:
        stage = plan.stages[0]
        cols = _oracle_columns(stage.features)
        codes = _oracle_predict_batch(stage_models.models[0], X[:, cols])
        return np.array([int(stage.classes[c]) for c in codes], dtype=np.int64)
    s1, s2 = plan.stages
    cols1 = _oracle_columns(s1.features)
    cols2 = _oracle_columns(s2.features)
    hit = _oracle_predict_batch(stage_models.models[0], X[:, cols1]) == 1
    out = np.empty(len(X), dtype=np.int64)
    out[hit] = int(s1.target)
    rest = ~hit
    if rest.any():
        pair = sorted(int(c) for c in s2.classes)
        codes = _oracle_predict_batch(stage_models.models[1], X[rest][:, cols2])
        out[rest] = np.where(codes == 1, pair[1], pair[0])
    return out


@st.composite
def tie_heavy_tables(draw):
    """Full feature tables of 2 or 3 classes whose cells take a few levels,
    so most split candidates tie; plus probe rows on the same levels. A
    staged plan trains only on all three classes, so they come up most."""
    classes = draw(st.sampled_from([(0, 1, 2)] * 5 + [(0, 1), (0, 2), (1, 2)]))
    sizes = [draw(st.integers(2, 7)) for _ in classes]
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.repeat(classes, sizes).astype(np.int64)
    X = rng.integers(0, levels, size=(len(y), len(FEATURE_NAMES))).astype(np.float64)
    probes = rng.integers(0, levels + 1, size=(40, len(FEATURE_NAMES))) - 0.5
    return X, y, probes, draw(st.integers(1, 4))


@pytest.mark.parametrize("plan_id", sorted(PLANS))
@settings(max_examples=60, deadline=None)
@given(table=tie_heavy_tables())
def test_plans_match_branching_oracle(tmp_path_factory, plan_id, table):
    X, y, probes, n_trees = table
    plan = PLANS[plan_id]
    try:
        want = _oracle_train_plan(plan, X, y, seed_path=(3,), n_trees=n_trees)
    except SingleClassTraining:
        with pytest.raises(SingleClassTraining):
            train_plan(plan, X, y, seed_path=(3,), n_trees=n_trees)
        return
    got = train_plan(plan, X, y, seed_path=(3,), n_trees=n_trees)
    assert all(isinstance(root, _Node) for m in got.models for root in m.trees)
    root = tmp_path_factory.mktemp("models")
    save_model(want, root / "want.json")
    save_model(got, root / "got.json")
    assert (root / "got.json").read_bytes() == (root / "want.json").read_bytes()

    rows = np.vstack([X, probes])
    cases = [rows, rows[:0]]
    if len(plan.stages) > 1:
        # probes that stage 0 claims in full, and probes it claims none of
        cols = _oracle_columns(plan.stages[0].features)
        hit = _oracle_predict_batch(want.models[0], rows[:, cols]) == 1
        cases += [rows[hit], rows[~hit]]
    for probe in cases:
        assert predict_stage(got, probe).tolist() == _oracle_predict_stage(want, probe).tolist()


@st.composite
def forest_tables(draw):
    """Tables of 2-40 rows and 2 or 3 classes whose cells take a few levels,
    with some constant columns, so many nodes draw only columns that cannot
    split them. The levels are integers or adjacent doubles; between
    adjacent doubles a midpoint threshold can round onto the lower value,
    so X < threshold sends that value's rows right, where growth put them
    left."""
    n_classes = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, draw(st.integers(1, 4)), size=(n, d)).astype(np.float64)
    if draw(st.booleans()):
        X = 1.0 + X * np.spacing(1.0)
    for j in draw(st.sets(st.integers(0, d - 1))):
        X[:, j] = X[0, j]
    y = rng.integers(0, n_classes, size=n)
    y[:2] = [0, n_classes - 1]
    return X, y, n_classes, draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(forest_tables(), st.integers(0, 99))
@example((np.ones((6, 3)), np.array([0, 1, 0, 1, 0, 1]), 2, 3), 0)  # no column splits
@example(((1.0 + np.arange(4).repeat(2) * np.spacing(1.0))[:, None],  # adjacent doubles
          np.array([0, 0, 1, 1, 0, 0, 1, 1]), 2, 3), 0)
def test_forest_matches_recursive_oracle(tmp_path_factory, table, seed):
    X, y, n_classes, n_trees = table
    got = train_forest(X, y, n_trees=n_trees, seed_path=(seed,), n_classes=n_classes)
    want = _oracle_forest(X, y, n_trees, (seed,), n_classes)
    assert got.importances.tobytes() == want.importances.tobytes()
    root = tmp_path_factory.mktemp("forests")
    for name, model in (("got", got), ("want", want)):
        save_model(StageModels(plan=PLANS["one_stage"], models=[model]),
                   root / f"{name}.json")
    assert (root / "got.json").read_bytes() == (root / "want.json").read_bytes()
