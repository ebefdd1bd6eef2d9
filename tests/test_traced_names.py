"""The benchmark's traced run wraps readskill functions by name
(perfbench/tracing.py). A name that a refactor removes turns its per-layer
metric into null without failing anything, so every name is checked here,
together with the attributes and argument order its counters read."""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from readskill import asr_align, classify, corpus, dsp, pauses, synth
from readskill.featurize import FEATURE_NAMES

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, loaded from its file; it imports no readskill."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names() -> list[str]:
    tracing = _tracing()
    names = {target for table in (tracing.TIMED, tracing.STRUCTURAL)
             for targets in table.values() for target in targets}
    names.update(tracing.COUNTERS)
    names.update(n for sources in tracing.COUNTER_SOURCES.values() for n in sources)
    return sorted(names)


@pytest.mark.parametrize("target", _wrapped_names())
def test_traced_name_resolves(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(f"readskill.{module_name}")
    assert callable(getattr(module, attr, None)), target


def test_counter_inputs_keep_their_shape():
    # dsp:vad's counter reads (intensity_db, harm, cfg) and these VadConfig fields
    assert list(inspect.signature(dsp.vad).parameters)[:3] == ["intensity_db", "harm", "cfg"]
    vad_fields = {f.name for f in dataclasses.fields(dsp.VadConfig)}
    assert {"floor_percentile", "margin_db", "abs_threshold_db",
            "harmonicity_margin_db"} <= vad_fields
    # dsp:build_track's counter reads FrameTrack.n_frames
    assert isinstance(inspect.getattr_static(dsp.FrameTrack, "n_frames"), property)
    # dsp:_harmonicity_batch's harm_frames counter reads len(args[0])
    assert list(inspect.signature(dsp._harmonicity_batch).parameters)[:2] == [
        "frames", "intensity_db"]
    # classify:train_forest's counter walks model.trees through the node links
    node_fields = {f.name for f in dataclasses.fields(classify._Node)}
    assert {"left", "right"} <= node_fields and hasattr(classify._Node, "is_leaf")
    assert "trees" in {f.name for f in dataclasses.fields(classify.RandomForestModel)}
    # asr_align:align's cells counter multiplies the lengths of its first two
    # positional arguments, and cli passes them positionally
    assert list(inspect.signature(asr_align.align).parameters)[:2] == ["canonical", "hypothesis"]
    # corpus:load_wav's bytes_read counter sizes the file at args[0], and
    # classify:save_model's model_bytes counter the file at args[1]
    assert list(inspect.signature(corpus.load_wav).parameters)[:1] == ["path"]
    assert list(inspect.signature(classify.save_model).parameters)[:2] == [
        "stage_models", "path"]


def test_harmonicity_is_computed_through_the_module(monkeypatch, tmp_path):
    # dsp.harmonicity times every _harmonicity_batch call: the band-only one
    # in build_track and the full track that dump_frames writes
    calls = []
    batch = dsp._harmonicity_batch

    def counting(frames, intensity_db):
        calls.append(len(frames))
        return batch(frames, intensity_db)

    monkeypatch.setattr(dsp, "_harmonicity_batch", counting)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16000) * np.repeat(10.0 ** rng.uniform(-4, 0, 100), 160)
    track = dsp.build_track(x, dsp.VadConfig(abs_threshold_db=0.0))
    assert len(calls) == 1 and 0 < calls[0] < track.n_frames
    dsp.dump_frames(track, x, tmp_path / "frames.csv")
    assert calls == [calls[0], track.n_frames]  # the dump computes it once


def test_cv_folds_reach_train_plan_through_the_module(monkeypatch):
    # classify.cv_fold times each train_plan span nested directly in a
    # cross_validate span, so every fold must call the module's train_plan,
    # the attribute the tracer replaces
    calls = []
    train_plan = classify.train_plan

    def counting(*args, **kwargs):
        calls.append(args[0].plan_id)
        return train_plan(*args, **kwargs)

    monkeypatch.setattr(classify, "train_plan", counting)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((18, len(FEATURE_NAMES)))
    y = np.repeat([0, 1, 2], 6)
    classify.cross_validate(classify.PLANS["two_stage_P"], X, y, folds=3,
                            n_trees=2, map_fn=map)
    assert calls == ["two_stage_P"] * 3
    # and the classify.nodes counter walks _Node roots
    trees = classify.train_forest(X, y, n_trees=2).trees
    assert len(trees) == 2 and all(isinstance(t, classify._Node) for t in trees)


def _walk(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack += [node.left, node.right]


def test_gini_scans_batch_nodes_through_the_module(monkeypatch):
    # classify.gini_scan times every _gini_gain_scan call; one call scores
    # the next node of every tree, so there are fewer calls than split nodes
    rng = np.random.default_rng(1)
    X = rng.integers(0, 6, size=(40, 5)).astype(np.float64)
    y = rng.integers(0, 3, size=40)
    plain = classify.train_forest(X, y, n_trees=6, seed_path=(2,))
    calls = []
    scan = classify._gini_gain_scan

    def counting(*args):
        calls.append(len(args[3]))
        return scan(*args)

    monkeypatch.setattr(classify, "_gini_gain_scan", counting)
    model = classify.train_forest(X, y, n_trees=6, seed_path=(2,))
    splits = sum(not node.is_leaf for root in model.trees for node in _walk(root))
    assert 0 < len(calls) <= splits
    assert max(calls) > 1
    assert [classify._node_to_dict(t) for t in model.trees] == \
        [classify._node_to_dict(t) for t in plain.trees]
    assert model.importances.tobytes() == plain.importances.tobytes()


def test_peaks_counter_counts_the_dumped_nuclei(tmp_path):
    # pauses.peaks adds len(detect_syllables(...)) per call: one per nucleus,
    # so one per syllable row that --dump-events writes
    profile = synth.make_profile(synth.SkillClass.C_A, seed=2)
    samples, _, _, _, _ = synth.generate(profile, duration=5.0)
    track = dsp.build_track(samples)
    peaks = pauses.detect_syllables(samples, track.is_speech)
    path = tmp_path / "events.csv"
    pauses.dump_events(pauses.extract_pauses(track.is_speech), peaks, path)
    rows = path.read_text().splitlines()[1:]
    assert len(peaks) > 0
    assert len(peaks) == sum(row.startswith("syllable,") for row in rows)
