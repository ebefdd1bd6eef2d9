"""Random-forest classification of skill classes, staged classifier plans
and stratified cross-validation.

The forest is grown with Gini impurity, ceil(sqrt(d)) candidate features
per split, midpoint thresholds and no depth cap, so split choices depend
only on feature ranks. Tree t of a forest draws all of its randomness from
a generator seeded with (*seed_path, t), which makes every model a pure
function of the master seed. Leaf votes use the class counts of the full
training sample, routed through each tree as it grows; the bootstrap only
shapes the tree. All vote ties break toward the lower class code.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import save_json, saved_json, typed, write_rows
from .errors import (
    DimensionMismatch,
    EmptyMatrix,
    SchemaMismatch,
    SingleClassTraining,
    TooFewPerClass,
)
from .featurize import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    INTENSITY_DYNAMICS_FEATURES,
    PAUSE_FEATURES,
    RATE_FEATURES,
    SPECTRAL_DYNAMICS_FEATURES,
)
from .lexical import SKILL_NAMES, SkillClass

N_TREES = 50
CV_FOLDS = 7
MODEL_VERSION = "rf-model-v1"
REPORT_VERSION = "cvreport-v1"


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    counts: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None


@dataclass
class RandomForestModel:
    trees: list[_Node]
    n_classes: int
    n_features: int
    importances: np.ndarray  # mean impurity decrease per feature, unnormalized


def _gini_gain_scan(ranks: np.ndarray, y: np.ndarray, rows: np.ndarray,
                    sizes: np.ndarray, feats: np.ndarray, n_classes: int):
    """Best split of each of K nodes, all scored in one pass.

    ranks holds each column of X as dense ranks, so equal values share a
    rank. Node k owns the next sizes[k] >= 2 entries of rows (row indices
    into ranks and y) and scores its ascending candidate columns feats[k].
    Returns (gain, feature, pos, order): order holds each node's rows sorted
    stably by its best feature, and its split separates the first pos[k]+1
    of them from the rest. A node whose candidate columns each hold one
    value gets gain -1.0. Gains derive from integer class counts only, so
    equal partitions give bit-equal gains. Within a column ties take the
    earliest position; across columns they take the lower feature.

    The scan works in place. Per (candidate, row) entry it holds at most
    the int64 sort order, one int64 and three float64 buffers and two
    one-byte ones (classes and invalid positions): 42 bytes, plus a few
    arrays per row.
    """
    k_nodes = len(sizes)
    starts = np.cumsum(sizes) - sizes
    ends = starts + sizes - 1
    seg = np.repeat(np.arange(k_nodes), sizes)
    # one key per (candidate, row) orders by node, then by value; the stable
    # sort keeps tied rows in node order
    key = (seg * len(ranks) + ranks[rows, feats[seg].T]).astype(
        np.min_scalar_type(k_nodes * len(ranks)))                # (m, N)
    order = key.argsort(axis=1, kind="stable")
    key.sort(axis=1)
    # -1 marks positions between equal values and the last row of each node
    invalid = np.ones(key.shape, dtype=bool)
    np.greater_equal(key[:, :-1], key[:, 1:], out=invalid[:, :-1])
    invalid[:, ends] = True
    del key
    ys = y[rows].astype(np.min_scalar_type(n_classes))[order]
    counts = np.empty((k_nodes, n_classes), dtype=np.int64)
    side = np.empty(ys.shape, dtype=np.int64)                    # left, then right
    square = np.empty(ys.shape)
    # the sums of squared counts stay below 2**53, so they are exact
    sq_l = np.zeros(ys.shape)
    sq_r = np.zeros(ys.shape)
    for c in range(n_classes):
        np.add.accumulate(np.equal(ys, c, out=side), axis=1, out=side)
        through = side[0, ends]
        before = np.concatenate(([0], through[:-1]))
        counts[:, c] = through - before
        side -= before[seg]
        sq_l += np.multiply(side, side, out=square)
        np.subtract(counts[seg, c], side, out=side)
        sq_r += np.multiply(side, side, out=square)
    del side, square  # so that the per-row arrays below add nothing to the peak
    parent_gini = 1.0 - ((counts / sizes[:, None]) ** 2).sum(axis=1)
    # position i splits its node after row i; the last row of a node ends it
    n = sizes[seg]
    nl = np.arange(len(rows)) - starts[seg] + 1.0
    nr = n - nl
    # in place, sq_l and sq_r become nl * gini_l and nr * gini_r, and then
    # sq_l becomes gain = parent_gini - (nl * gini_l + nr * gini_r) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        for sq, size in ((sq_l, nl), (sq_r, nr)):
            sq /= size * size
            np.subtract(1.0, sq, out=sq)
            sq *= size
        gain = sq_l
        gain += sq_r
        gain /= n
        np.subtract(parent_gini[seg], gain, out=gain)
    # every real gain lies above -1, so a column without a valid position
    # never wins
    np.copyto(gain, -1.0, where=invalid)

    col_best = np.maximum.reduceat(gain, starts, axis=1)         # (m, K)
    col = col_best.argmax(axis=0)
    best = col_best[col, np.arange(k_nodes)]
    i = np.arange(len(rows))
    first = np.minimum.reduceat(np.where(gain[col[seg], i] == best[seg], i, len(i)), starts)
    return best, feats[np.arange(k_nodes), col], first - starts, rows[order[col[seg], i]]


def _grow_trees(X: np.ndarray, y: np.ndarray, n_classes: int, m_features: int,
                rngs: list[np.random.Generator], boots: list[np.ndarray]):
    """Grow tree t on the rows boots[t] with generator rngs[t], all trees in
    lockstep. Returns (roots, per-tree importance rows).

    Each tree keeps a stack of pending nodes and expands them in preorder,
    so each generator sees its draws in the order a recursive build makes
    them. A round pops one node from every non-empty stack and scores them
    all in one scan. A node with one row or one class is a leaf when it is
    made, and draws nothing. Each node also carries the rows of X that the
    X[:, f] < threshold tests of prediction send to it, whose classes a
    leaf counts when it is made.
    """
    n, d = X.shape
    ranks = np.column_stack([np.unique(column, return_inverse=True)[1] for column in X.T])

    def counts(reach):
        return np.bincount(y[reach], minlength=n_classes).astype(np.float64)

    roots = [_Node() for _ in boots]
    importance = np.zeros((len(boots), d))
    stacks = [[] for _ in boots]
    for root, rows, stack in zip(roots, boots, stacks):
        if (y[rows] == y[rows[0]]).all():  # one row is one class too
            root.counts = counts(np.arange(n))
        else:
            stack.append((root, rows, np.arange(n)))
    while live := [t for t, stack in enumerate(stacks) if stack]:
        nodes, parts, reaches = zip(*(stacks[t].pop() for t in live))
        feats = np.sort([rngs[t].choice(d, m_features, replace=False) for t in live],
                        axis=1)
        sizes = np.array([len(part) for part in parts])
        gain, feature, pos, order = _gini_gain_scan(
            ranks, y, np.concatenate(parts), sizes, feats, n_classes)
        split = gain > -1.0
        starts = np.cumsum(sizes) - sizes
        cut = starts + pos + 1                       # first row of the right child
        threshold = (X[order[cut - 1], feature] + X[order[cut], feature]) / 2.0
        importance[np.array(live)[split], feature[split]] += (sizes[split] / n) * gain[split]
        # a child is a leaf when its lowest and highest class code agree
        ys = y[order]
        bounds = np.column_stack((starts, cut)).ravel()
        pure = (np.minimum.reduceat(ys, bounds) == np.maximum.reduceat(ys, bounds))
        for t, node, reach, ok, f, thr, a, c, b, (leaf_l, leaf_r) in zip(
                live, nodes, reaches, split.tolist(), feature.tolist(), threshold.tolist(),
                starts.tolist(), cut.tolist(), (starts + sizes).tolist(),
                pure.reshape(-1, 2).tolist()):
            if not ok:
                node.counts = counts(reach)
                continue
            node.feature, node.threshold = f, thr
            node.left, node.right = _Node(), _Node()
            # prediction's test, not growth's partition: the midpoint of two
            # adjacent doubles rounds onto one of them
            left = X[reach, f] < thr
            for child, part, to, leaf in ((node.right, order[c:b], reach[~left], leaf_r),
                                          (node.left, order[a:c], reach[left], leaf_l)):
                if leaf:
                    child.counts = counts(to)
                else:
                    stacks[t].append((child, part, to))
    return roots, importance


def train_forest(X: np.ndarray, y: np.ndarray, n_trees: int = N_TREES,
                 seed_path: tuple[int, ...] = (0,),
                 n_classes: int | None = None) -> RandomForestModel:
    """Fit a forest of purity-grown trees on integer class codes."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
        raise DimensionMismatch("X must be (n, d) with one label per row")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    if len(np.unique(y)) < 2:
        raise SingleClassTraining("training labels hold fewer than two classes")
    n, d = X.shape
    if n_classes is None:
        n_classes = int(y.max()) + 1

    rngs = [np.random.default_rng([*seed_path, t]) for t in range(n_trees)]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    trees, importance = _grow_trees(X, y, n_classes, math.ceil(math.sqrt(d)), rngs, boots)
    return RandomForestModel(
        trees=trees,
        n_classes=n_classes,
        n_features=d,
        importances=importance.mean(axis=0),
    )


def predict_batch(model: RandomForestModel, X: np.ndarray) -> np.ndarray:
    """Majority vote over trees; ties go to the lower class code."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"expected {model.n_features} features, got shape {X.shape}"
        )
    votes = np.zeros((len(X), model.n_classes))
    pred = np.empty(len(X), dtype=np.int64)
    for root in model.trees:
        stack = [(root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                pred[idx] = node.counts.argmax()
            elif len(idx):
                left = X[idx, node.feature] < node.threshold
                stack += (node.left, idx[left]), (node.right, idx[~left])
        votes[np.arange(len(X)), pred] += 1
    return votes.argmax(axis=1)


@dataclass(frozen=True)
class Stage:
    """One forest in a plan: either a target-vs-rest filter or a final
    decision over an explicit class tuple."""

    features: tuple[str, ...]
    target: SkillClass | None = None
    classes: tuple[SkillClass, ...] = ()

    @property
    def n_codes(self) -> int:
        """Class codes of the stage's forest: rest and target, or one per class."""
        return 2 if self.target is not None else len(self.classes)

    # Resolved once per stage; every caller shares the arrays, so they are
    # read-only.
    @functools.cached_property
    def columns(self) -> np.ndarray:
        """Positions of the stage's features in a FEATURE_NAMES row."""
        return _read_only([FEATURE_INDEX[name] for name in self.features])

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """A final stage's classes as sorted class codes; its forest's code i
        stands for codes[i]."""
        return _read_only(sorted(int(c) for c in self.classes))


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class StagePlan:
    plan_id: str
    stages: tuple[Stage, ...]


def _plan_table() -> dict[str, StagePlan]:
    pause = PAUSE_FEATURES
    rate = RATE_FEATURES
    spdyn = SPECTRAL_DYNAMICS_FEATURES
    intdyn = INTENSITY_DYNAMICS_FEATURES
    return {
        "one_stage": StagePlan("one_stage", (
            Stage(features=FEATURE_NAMES,
                  classes=(SkillClass.C_A, SkillClass.M_A, SkillClass.I_A)),
        )),
        "two_stage_P": StagePlan("two_stage_P", (
            Stage(features=("articulation_rate",) + spdyn + intdyn
                  + ("pauses_per_interval",),
                  target=SkillClass.I_A),
            Stage(features=pause + rate,
                  classes=(SkillClass.C_A, SkillClass.M_A)),
        )),
        "two_stage_Q": StagePlan("two_stage_Q", (
            Stage(features=pause + rate + spdyn + intdyn,
                  target=SkillClass.M_A),
            Stage(features=spdyn + intdyn + rate + ("pause_freq",),
                  classes=(SkillClass.C_A, SkillClass.I_A)),
        )),
    }


PLANS = _plan_table()


@dataclass
class StageModels:
    plan: StagePlan
    models: list[RandomForestModel]


def train_plan(plan: StagePlan, X: np.ndarray, y: np.ndarray,
               seed_path: tuple[int, ...] = (0,), n_trees: int = N_TREES) -> StageModels:
    """Fit every stage of a plan on FEATURE_NAMES rows and class codes 0..2.

    Stage s trains with seed path (*seed_path, s). A target stage trains on
    all rows and codes target=1, rest=0. Any other stage trains only on the
    rows of its classes and codes each class by its position in
    sorted(classes).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    models = []
    for s, stage in enumerate(plan.stages):
        if stage.target is not None:
            Xs = X[:, stage.columns]
            ys = (y == int(stage.target)).astype(np.int64)
        else:
            keep = np.isin(y, stage.codes)
            Xs = X[keep][:, stage.columns]
            ys = np.searchsorted(stage.codes, y[keep])
        models.append(train_forest(Xs, ys, n_trees=n_trees,
                                   seed_path=(*seed_path, s),
                                   n_classes=stage.n_codes))
    return StageModels(plan=plan, models=models)


def predict_stage(stage_models: StageModels, X: np.ndarray) -> np.ndarray:
    """Run the staged pipeline on full feature rows, returning class codes.

    Each stage sees only the rows no earlier stage decided: a target stage
    claims the rows it codes 1, and a final stage decides all it sees.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
        raise DimensionMismatch(
            f"expected {len(FEATURE_NAMES)} columns, got shape {X.shape}"
        )
    out = np.empty(len(X), dtype=np.int64)
    rest = np.arange(len(X))
    for stage, model in zip(stage_models.plan.stages, stage_models.models):
        codes = predict_batch(model, X[rest][:, stage.columns])
        if stage.target is not None:
            out[rest[codes == 1]] = int(stage.target)
            rest = rest[codes != 1]
        else:
            out[rest] = stage.codes[codes]
    return out


def confusion(actual, predicted) -> np.ndarray:
    """Counts of (actual, predicted) class code pairs as a 3x3 matrix:
    rows actual, columns predicted."""
    n = len(SkillClass)
    pairs = n * np.asarray(actual, dtype=np.int64) + np.asarray(predicted, dtype=np.int64)
    return np.bincount(pairs, minlength=n * n).reshape(n, n)


def accuracy(confusion: np.ndarray) -> float:
    """Trace over total of a square confusion matrix."""
    c = np.asarray(confusion, dtype=np.float64)
    total = c.sum()
    if c.size == 0 or total <= 0:
        raise EmptyMatrix("confusion matrix holds no observations")
    return float(np.trace(c) / total)


@dataclass
class CVReport:
    plan_id: str
    seed: int
    folds: int
    fold_confusions: list[np.ndarray]
    pooled_confusion: np.ndarray
    accuracy: float
    importances: dict[str, float]


def _fold_assignment(y: np.ndarray, folds: int, seed: int,
                     groups: list[str] | None = None) -> np.ndarray:
    """Stratified fold ids; per-class counts differ by at most one across
    folds. With groups, whole groups land on the currently smallest fold
    (size balance only, stratification becomes best effort)."""
    n = len(y)
    fold_of = np.empty(n, dtype=np.int64)
    if groups is not None:
        members: dict[str, list[int]] = {}
        for i, g in enumerate(groups):
            members.setdefault(g, []).append(i)
        sizes = np.zeros(folds, dtype=np.int64)
        for g in sorted(members, key=lambda g: (-len(members[g]), g)):
            f = int(np.argmin(sizes))
            for i in members[g]:
                fold_of[i] = f
            sizes[f] += len(members[g])
        return fold_of
    rng = np.random.default_rng([seed, 9001])
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(len(idx))]
        for j, i in enumerate(idx):
            fold_of[i] = j % folds
    return fold_of


def _cv_fold(plan: StagePlan, X: np.ndarray, y: np.ndarray, fold_of: np.ndarray,
             seed: int, n_trees: int, f: int):
    """Train on every fold but f and test on fold f: (confusion, one
    importance vector per stage over the full feature set)."""
    test = fold_of == f
    train = ~test
    models = train_plan(plan, X[train], y[train], seed_path=(seed, f), n_trees=n_trees)
    conf = confusion(y[test], predict_stage(models, X[test]))
    vectors = []
    for stage, model in zip(plan.stages, models.models):
        vec = np.zeros(len(FEATURE_NAMES))
        vec[stage.columns] = model.importances
        vectors.append(vec)
    return conf, vectors


def cross_validate(plan: StagePlan, X: np.ndarray, y: np.ndarray,
                   folds: int = CV_FOLDS, seed: int = 0,
                   n_trees: int = N_TREES,
                   groups: list[str] | None = None,
                   map_fn=map) -> CVReport:
    """Stratified k-fold evaluation; every stage retrains per fold on that
    fold's training split only. Importances average the per-stage vectors
    over all folds and stages, expanded to the full feature set and
    normalized to sum to 1.

    Each fold is a pure function of (seed, fold), run through ``map_fn``:
    a pool's ordered map runs them in parallel with the same results.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    counts = np.bincount(y, minlength=len(SkillClass))
    present = np.flatnonzero(counts)
    if any(counts[c] < folds for c in present):
        raise TooFewPerClass(
            f"every class needs at least {folds} samples, got {counts.tolist()}"
        )
    fold_of = _fold_assignment(y, folds, seed, groups)
    work = functools.partial(_cv_fold, plan, X, y, fold_of, seed, n_trees)
    outcomes = list(map_fn(work, range(folds)))
    fold_confusions = [conf for conf, _ in outcomes]
    importance_vectors = [vec for _, vectors in outcomes for vec in vectors]

    pooled = np.sum(fold_confusions, axis=0)
    imp = np.mean(importance_vectors, axis=0)
    total = imp.sum()
    if total > 0:
        imp = imp / total
    return CVReport(
        plan_id=plan.plan_id,
        seed=seed,
        folds=folds,
        fold_confusions=fold_confusions,
        pooled_confusion=pooled,
        accuracy=accuracy(pooled),
        importances={name: float(v) for name, v in zip(FEATURE_NAMES, imp)},
    )


def write_report(report: CVReport, json_path, csv_path) -> None:
    """Emit cvreport.json and confusion.csv for one plan."""
    save_json(json_path, REPORT_VERSION, {
        "plan": report.plan_id,
        "seed": report.seed,
        "folds": report.folds,
        "class_order": list(SKILL_NAMES),
        "fold_confusions": [c.tolist() for c in report.fold_confusions],
        "pooled_confusion": report.pooled_confusion.tolist(),
        "accuracy": report.accuracy,
        "importances": report.importances,
    }, indent=2)
    write_confusion(report.pooled_confusion, SKILL_NAMES, csv_path)


def write_confusion(matrix, class_names, path) -> None:
    """Emit a confusion matrix as CSV: rows actual, columns predicted."""
    write_rows([("actual\\predicted", *class_names),
                *((name, *row) for name, row in zip(class_names, np.asarray(matrix).tolist()))],
               path)


def _node_to_dict(node: _Node):
    if node.is_leaf:
        return {"counts": [float(v) for v in node.counts]}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d, n_features: int, n_classes: int) -> _Node:
    """One saved node; a value of the wrong JSON type, a split on a column the stage
    lacks or a leaf without one count per class raises ValueError."""
    if "counts" in d:
        counts = np.array([typed(v, (int, float), "leaf count") for v in d["counts"]],
                          dtype=np.float64)
        if counts.shape != (n_classes,):
            raise ValueError(f"leaf counts of shape {counts.shape}, expected ({n_classes},)")
        return _Node(counts=counts)
    feature = typed(d["feature"], (int,), "node feature")
    threshold = float(typed(d["threshold"], (int, float), "threshold"))
    if not 0 <= feature < n_features:
        raise ValueError(f"node feature {feature} outside [0, {n_features})")
    return _Node(feature=feature, threshold=threshold,
                 left=_node_from_dict(d["left"], n_features, n_classes),
                 right=_node_from_dict(d["right"], n_features, n_classes))


def save_model(stage_models: StageModels, path) -> None:
    """Dump a fitted plan as self-describing JSON."""
    save_json(path, MODEL_VERSION, {
        "plan": stage_models.plan.plan_id,
        "feature_names": list(FEATURE_NAMES),
        "stages": [
            {
                "features": list(stage.features),
                "n_classes": model.n_classes,
                "importances": [float(v) for v in model.importances],
                "trees": [_node_to_dict(t) for t in model.trees],
            }
            for stage, model in zip(stage_models.plan.stages, stage_models.models)
        ],
    })


def load_model(path) -> StageModels:
    with saved_json(path, MODEL_VERSION, "classifier model") as payload:
        try:
            plan = PLANS[payload["plan"]]
        except (KeyError, TypeError):
            raise SchemaMismatch(f"{path}: unknown plan {payload.get('plan')!r}") from None
        stages = payload["stages"]
        if len(stages) != len(plan.stages):
            raise SchemaMismatch(f"{path}: {len(stages)} stages, plan {plan.plan_id} "
                                 f"has {len(plan.stages)}")
        models = []
        for s, (stage, stage_payload) in enumerate(zip(plan.stages, stages)):
            features = tuple(stage_payload["features"])
            n_classes = typed(stage_payload["n_classes"], (int,), "n_classes")
            if features != stage.features:
                raise SchemaMismatch(f"{path}: stage {s} features differ from plan "
                                     f"{plan.plan_id}")
            if n_classes != stage.n_codes:
                raise SchemaMismatch(f"{path}: stage {s} has {n_classes} classes, plan "
                                     f"{plan.plan_id} needs {stage.n_codes}")
            importances = np.array([typed(v, (int, float), "importance")
                                    for v in stage_payload["importances"]], dtype=np.float64)
            if len(importances) != len(features):
                raise SchemaMismatch(f"{path}: stage {s} has {len(importances)} importances "
                                     f"for {len(features)} features")
            trees = [_node_from_dict(t, len(features), n_classes) for t in stage_payload["trees"]]
            if not trees:
                raise SchemaMismatch(f"{path}: stage {s} has no trees")
            models.append(RandomForestModel(trees=trees, n_classes=n_classes,
                                            n_features=len(features), importances=importances))
        if tuple(payload["feature_names"]) != FEATURE_NAMES:
            raise SchemaMismatch(f"{path}: feature_names differ from features.csv")
        return StageModels(plan=plan, models=models)
