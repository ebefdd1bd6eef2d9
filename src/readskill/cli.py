"""Command-line front end.

Every command is a pure function of (config, input files): reruns write
byte-identical outputs, including the SVGs. Exit codes: 0 success, 1 when
some recordings failed and their errors were logged, 2 for configuration
or schema problems.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import asr_align, classify, featurize, lexical
from .config import RunConfig, load_config
from .corpus import (CorpusIndex, load_wav, parse_intervals, parse_transcription,
                     saved_json, scan_corpus, typed, write_rows)
from .dsp import SAMPLE_RATE, dump_frames
from .errors import NoModel, ReadskillError, SchemaMismatch, TooFewPoints, UnknownLabel
from .lexical import SKILL_NAMES, SkillClass
from .pauses import dump_events
from .svgplot import CLASS_COLORS, EXTRA_COLORS, line_chart, scatter_chart


def _keep_freed_heap() -> tuple[int, ...]:
    """Have glibc's malloc keep freed memory in the process. Under its
    default policy each recording's freed numpy temporaries go back to the
    kernel, and the next recording faults every page in again. Here blocks
    under 32 MiB (glibc's 64-bit ceiling) come from the heap, which is
    trimmed only once 64 MiB lie free at its top. Returns what each
    ``mallopt`` call returned: 1 on glibc, 0 on musl, which ignores them,
    and nothing where there is no ``mallopt`` (macOS, Windows). Outputs
    never depend on it. Only the CLI calls it, so importing readskill
    leaves its host's allocator alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return ()
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's <malloc.h>
    return mallopt(-3, 32 << 20), mallopt(-1, 64 << 20)


@contextlib.contextmanager
def _pool_map(jobs: int, items: int):
    """An ordered map over ``items`` work items in ``min(jobs, items)``
    processes: the builtin ``map`` when that is at most one, else the map of
    one pool kept open for the block, so the mapped function and its
    arguments must pickle."""
    processes = min(jobs, items)
    if processes <= 1:
        yield map
        return
    with multiprocessing.Pool(processes, initializer=_keep_freed_heap) as pool:
        yield pool.map


def _per_recording(work, ids, jobs: int, out_dir: Path):
    """Run ``work(rid)`` for every id through ``_pool_map``. Writes
    ``out_dir/errors.log``, one "rid: message" line for each recording that
    raised ReadskillError or OSError, sorted by (rid, message); an id that
    holds CR or LF fails without running ``work``. Returns the
    results in id order and the number of failed recordings."""
    with _pool_map(jobs, len(ids)) as map_fn:
        outcomes = list(map_fn(functools.partial(_isolated, work), ids))
    errors = sorted((rid, err) for rid, _, err in outcomes if err is not None)
    out_dir.joinpath("errors.log").write_text(
        "".join(f"{rid}: {message}\n" for rid, message in errors), encoding="utf-8")
    return [result for _, result, err in outcomes if err is None], len(errors)


def _isolated(work, rid):
    try:
        if "\r" in rid or "\n" in rid:
            rid = repr(rid)  # keeps its errors.log entry on one line
            raise SchemaMismatch("recording id holds CR or LF, which would split its "
                                 "errors.log line")
        return rid, work(rid), None
    except (ReadskillError, OSError) as exc:
        return rid, None, f"{type(exc).__name__}: {exc}"


def _featurize_one(index: CorpusIndex, fcfg, out_dir: Path, dump_fr: bool,
                   dump_ev: bool, rid: str):
    """(rid, class or None, feature values) of one recording; writes its
    dumps when asked."""
    samples = load_wav(index.wav_path(rid))
    intervals, _ = parse_intervals(index.intervals_path(rid), len(samples) / SAMPLE_RATE)
    values, track, pauses, peaks = featurize.extract_features(
        samples, intervals, index.story, fcfg)
    if dump_fr:
        dump_frames(track, samples, out_dir / f"frames_{rid}.csv")
    if dump_ev:
        dump_events(pauses, peaks, out_dir / f"events_{rid}.csv")
    return rid, index.labels.get(rid), values


def cmd_featurize(cfg: RunConfig, args) -> int:
    index = scan_corpus(cfg.corpus_root)
    if index.story is None:
        print(f"error: no story.txt under {cfg.corpus_root}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = functools.partial(_featurize_one, index, cfg.feature, out_dir,
                             args.dump_frames, args.dump_events)
    rows, failed = _per_recording(work, index.ids, args.jobs, out_dir)
    featurize.write_features(rows, out_dir / "features.csv")
    print(f"featurize: {len(rows)} ok, {failed} failed")
    return 1 if failed else 0


def _miscue_row(index: CorpusIndex, rid: str):
    """(rid, variant A fractions) of one transcription; only the fractions
    outlive the call, which keeps the peak RSS low."""
    tr = parse_transcription(index.words_path(rid), index.story)
    return rid, lexical.miscue_fractions(tr)


def cmd_cluster(cfg: RunConfig, args) -> int:
    index = scan_corpus(cfg.corpus_root)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ids = [rid for rid in index.ids if index.words_path(rid).exists()]
    work = functools.partial(_miscue_row, index)
    results, failed = _per_recording(work, ids, args.jobs, out_dir)
    need = max(cfg.cluster_k_max, 3)
    if len(results) < need:
        raise TooFewPoints(f"cluster needs at least {need} transcriptions, the larger of "
                           f"cluster_k_max = {cfg.cluster_k_max} and the model's K = 3; "
                           f"got {len(results)}")
    ids = [rid for rid, _ in results]
    points_a = np.array([a for _, a in results])
    points = {"A": points_a, "B": lexical.variant_b(points_a)}
    k_range = range(cfg.cluster_k_min, cfg.cluster_k_max + 1)
    sweeps = {variant: lexical.sweep_k(p, k_range, seed=cfg.seed,
                                       restarts=cfg.kmeans_restarts)
              for variant, p in points.items()}

    write_rows([("variant", "k", "silhouette"),
                *((variant, k, fit.silhouette)
                  for variant, sweep in sweeps.items() for k, fit in sweep.items())],
               out_dir / "silhouette.csv")

    # the model is variant B's K = 3 fit, made apart only when the sweep skips K = 3
    points_b, sweep_b = points["B"], sweeps["B"]
    model = sweep_b[3] if 3 in sweep_b else lexical.sweep_k(
        points_b, range(3, 4), seed=cfg.seed, restarts=cfg.kmeans_restarts)[3]
    labels = lexical.label_clusters(model.centroids)
    lexical.save_cluster_model(model, labels, out_dir / "cluster_model.json")

    write_rows([("id", "cluster", "skill"),
                *((rid, cluster, labels[cluster].name)
                  for rid, cluster in zip(ids, model.assignments.tolist()))],
               out_dir / "clusters.csv")

    line_chart(
        [(f"variant {variant}", [float(k) for k in sweep],
          [fit.silhouette for fit in sweep.values()], color)
         for (variant, sweep), color in zip(sweeps.items(), (EXTRA_COLORS[0], EXTRA_COLORS[3]))],
        "Mean silhouette by cluster count", "clusters", "mean silhouette",
        out_dir / "silhouette.svg")

    cs1, mis, inc = lexical.CMI_COLUMNS
    groups = []
    for cluster in range(3):
        name = labels[cluster].name
        mask = model.assignments == cluster
        groups.append((f"{name} missed", points_b[mask, cs1].tolist(),
                       points_b[mask, mis].tolist(), EXTRA_COLORS[cluster]))
        groups.append((f"{name} incorrect", points_b[mask, cs1].tolist(),
                       points_b[mask, inc].tolist(), CLASS_COLORS[name]))
    scatter_chart(groups, "Miscue mix by cluster", "correct or self-corrected fraction",
                  "missed or incorrect fraction", out_dir / "clusters.svg")
    print(f"cluster: {len(ids)} recordings, {failed} failed, chosen K=3 "
          f"silhouette {model.silhouette:.4f}")
    return 1 if failed else 0


def _labeled_matrix(cfg: RunConfig):
    """The ids, matrix and class codes of features.csv, which must hold
    rows, each with a known class."""
    path = Path(cfg.out_dir) / "features.csv"
    ids, classes, X = featurize.read_features(path)
    if not ids:
        raise SchemaMismatch(f"{path}: no feature rows")
    for rid, label in zip(ids, classes):
        if label not in SKILL_NAMES:
            raise UnknownLabel(f"{rid}: class {label!r} is not one of {SKILL_NAMES}")
    return ids, X, np.array([SkillClass[label] for label in classes], dtype=np.int64)


def cmd_train(cfg: RunConfig, args) -> int:
    _, X, y = _labeled_matrix(cfg)
    out_dir = Path(cfg.out_dir)
    for plan_id in cfg.plan_ids():
        models = classify.train_plan(classify.PLANS[plan_id], X, y,
                                     seed_path=(cfg.seed,), n_trees=cfg.n_trees)
        path = out_dir / f"model_{plan_id}.json"
        classify.save_model(models, path)
        print(f"train: wrote {path}")
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    model_path = args.model or str(
        Path(cfg.out_dir) / f"model_{cfg.plan_ids()[0]}.json")
    models = classify.load_model(model_path)
    ids, _, X = featurize.read_features(Path(cfg.out_dir) / "features.csv")
    pred = classify.predict_stage(models, X)
    out = Path(cfg.out_dir) / "predictions.csv"
    write_rows([("id", "skill"), *((rid, SkillClass(p).name)
                                   for rid, p in zip(ids, pred.tolist()))], out)
    print(f"predict: wrote {out}")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    ids, X, y = _labeled_matrix(cfg)
    groups = None
    if cfg.group_by:
        index = scan_corpus(cfg.corpus_root)
        groups = [index.metadata.get(rid, {}).get(cfg.group_by) or rid for rid in ids]
    out_dir = Path(cfg.out_dir)
    plan_ids = cfg.plan_ids()
    with _pool_map(args.jobs, cfg.folds) as map_fn:
        for plan_id in plan_ids:
            report = classify.cross_validate(
                classify.PLANS[plan_id], X, y, folds=cfg.folds, seed=cfg.seed,
                n_trees=cfg.n_trees, groups=groups, map_fn=map_fn)
            suffix = "" if len(plan_ids) == 1 else f"_{plan_id}"
            classify.write_report(report, out_dir / f"cvreport{suffix}.json",
                                  out_dir / f"confusion{suffix}.csv")
            print(f"evaluate: {plan_id} accuracy {report.accuracy:.4f} "
                  f"over {cfg.folds} folds")
    return 0


def _asr_align_one(index: CorpusIndex, centroids, labels, tau: float, rid: str):
    """(rid, miscue percentages, nearest-centroid class) of one hypothesis."""
    words, confidences = asr_align.parse_hypothesis(index.hyp_path(rid))
    _, ops = asr_align.align(index.story.words, words)
    pct = asr_align.confidence_remap(ops, confidences, tau)
    return rid, pct, asr_align.classify_by_centroid(pct, centroids, labels)


def cmd_asr_align(cfg: RunConfig, args) -> int:
    index = scan_corpus(cfg.corpus_root)
    if index.story is None:
        print(f"error: no story.txt under {cfg.corpus_root}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    centroids, labels = lexical.load_cluster_model(out_dir / "cluster_model.json")
    work = functools.partial(_asr_align_one, index, centroids, labels, cfg.tau)
    results, failed = _per_recording(work, index.ids, args.jobs, out_dir)
    write_rows([("id", "pct_C", "pct_M", "pct_I", "skill"),
                *((rid, *pct, skill.name) for rid, pct, skill in results)],
               out_dir / "asr_classes.csv")
    known = [(SkillClass[index.labels[rid]], skill) for rid, _, skill in results
             if index.labels.get(rid) in SKILL_NAMES]
    confusion = classify.confusion([a for a, _ in known], [p for _, p in known])
    classify.write_confusion(confusion, SKILL_NAMES, out_dir / "asr_confusion.csv")
    print(f"asr-align: {len(results)} ok, {failed} failed")
    return 1 if failed else 0


def cmd_report(cfg: RunConfig, args) -> int:
    out_dir = Path(cfg.out_dir)
    lines = []
    for path in sorted(out_dir.glob("cvreport*.json")):
        with saved_json(path, classify.REPORT_VERSION, "report") as payload:
            plan = payload["plan"]
            accuracy = typed(payload["accuracy"], (int, float), "accuracy")
            folds = typed(payload["folds"], (int,), "folds")
            seed = typed(payload["seed"], (int,), "seed")
            lines.append(f"plan {plan}: accuracy {accuracy:.4f} over {folds} folds (seed {seed})")
            ranked = sorted(((name, typed(value, (int, float), "importance"))
                             for name, value in payload["importances"].items()),
                            key=lambda kv: (-kv[1], kv[0]))
            lines.extend(f"  {name}: {value:.4f}" for name, value in ranked[:5])
    if not lines:
        lines.append("no evaluation reports found")
    text = "\n".join(lines) + "\n"
    out_dir.joinpath("report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_config(cfg: RunConfig, args) -> int:
    print(cfg.dump(), end="")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="readskill",
        description="Batch screening toolkit for oral-reading recordings.",
    )
    parser.add_argument("--config", help="key = value settings file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    parser.add_argument("--jobs", type=_positive_int, default=cpus,
                        help="worker processes for featurize, cluster, evaluate "
                             "and asr-align, at most one per recording or fold "
                             "(default: one per CPU this process may run on)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="extract acoustic features per recording")
    p.set_defaults(run=cmd_featurize)
    p.add_argument("--dump-frames", action="store_true",
                   help="also write per-recording frame tracks")
    p.add_argument("--dump-events", action="store_true",
                   help="also write detected pauses and syllable nuclei")
    sub.add_parser("cluster", help="cluster miscue fractions and label clusters"
                   ).set_defaults(run=cmd_cluster)
    sub.add_parser("train", help="fit the configured classifier plans"
                   ).set_defaults(run=cmd_train)
    p = sub.add_parser("predict", help="classify feature rows with a saved model")
    p.set_defaults(run=cmd_predict)
    p.add_argument("--model", help="model file (default: first configured plan)")
    sub.add_parser("evaluate", help="cross-validate the configured plans"
                   ).set_defaults(run=cmd_evaluate)
    sub.add_parser("asr-align", help="align recognizer hypotheses and classify"
                   ).set_defaults(run=cmd_asr_align)
    sub.add_parser("report", help="summarize evaluation reports"
                   ).set_defaults(run=cmd_report)
    p = sub.add_parser("config", help="show the effective configuration")
    p.set_defaults(run=cmd_config)
    p.add_argument("--dump", action="store_true",
                   help="print the same key = value lines as plain config")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
    except (ReadskillError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.run(cfg, args)
    except NoModel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReadskillError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
