"""Span tracing for the benchmark's traced run.

The tracer wraps readskill functions by module attribute from outside the
package; nothing under src/ knows about it. Every call to a wrapped
function records one span (name, start, end, parent). Spans stay in memory
and are written out when the traced process ends; the benchmark reads them
back and turns them into per-layer self times and counters.

A wrapped name that a later refactor removes is reported in ``missing``,
and every metric that depends on it becomes null instead of failing the run.

This module imports no readskill code at import time, so the benchmark's
main process can use the analysis half without numpy.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from array import array

# Timed layer -> the functions whose calls it times ("module:attribute").
# Self time excludes every nested wrapped call, so a layer reports only
# its own work. Names that other modules import directly (featurize's
# build_track, cli's load_wav, ...) are rebound wherever they appear.
TIMED = {
    "corpus.load_wav": ("corpus:load_wav",),
    "corpus.parse": ("corpus:scan_corpus", "corpus:load_story",
                     "corpus:parse_intervals", "corpus:parse_transcription"),
    "dsp.build_track": ("dsp:build_track",),
    "dsp.centroid": ("dsp:_centroid_batch",),
    "dsp.harmonicity": ("dsp:_harmonicity_batch",),
    "dsp.vad": ("dsp:vad",),
    "pauses.detect_syllables": ("pauses:detect_syllables",),
    "dynamics.spectral": ("dynamics:spectral_dynamics",),
    "dynamics.intensity": ("dynamics:intensity_dynamics",),
    "featurize.extract": ("featurize:extract_features",),
    "featurize.dump": ("dsp:dump_frames", "pauses:dump_events"),
    "featurize.table_io": ("featurize:write_features", "featurize:read_features"),
    "lexical.kmeans": ("lexical:kmeans",),
    "lexical.silhouette": ("lexical:silhouette",),
    "classify.train_forest": ("classify:train_forest",),
    "classify.gini_scan": ("classify:_gini_gain_scan",),
    "classify.predict": ("classify:predict_stage",),
    "classify.model_io": ("classify:save_model", "classify:load_model"),
    "asr_align.align": ("asr_align:align",),
    "asr_align.parse": ("asr_align:parse_hypothesis",),
    "svgplot.render": ("svgplot:line_chart", "svgplot:scatter_chart"),
    "synth.generate": ("synth:generate", "synth:synth_hypothesis"),
}

# Wrapped only for structure: a CV fold is the train_plan call made inside
# cross_validate, timed inclusively because a fold is not one function.
STRUCTURAL = {
    "classify.cross_validate": ("classify:cross_validate",),
    "classify.train_plan": ("classify:train_plan",),
}

# Time spent computing counters after a call; it is a child of the caller's
# span so that no layer's self time includes it.
COUNTER_SPAN = "trace.counters"
ROOT_SPAN = "trace.main"


def _vad_band(counts, args, kwargs, result):
    """Frames the VAD reads harmonicity for: floor+margin < dB <= threshold."""
    from readskill.dsp import VadConfig
    import numpy as np

    intensity_db = args[0]
    cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or VadConfig()
    floor = float(np.percentile(intensity_db, cfg.floor_percentile))
    threshold = max(floor + cfg.margin_db, cfg.abs_threshold_db)
    band = (intensity_db > floor + cfg.harmonicity_margin_db) & (intensity_db <= threshold)
    counts["dsp.harm_band_frames"] += int(band.sum())


def _forest_shape(counts, args, kwargs, result):
    counts["classify.trees"] += len(result.trees)
    stack = list(result.trees)
    while stack:
        node = stack.pop()
        counts["classify.nodes"] += 1
        if not node.is_leaf:
            stack.append(node.left)
            stack.append(node.right)


def _add(key, value_of):
    def counter(counts, args, kwargs, result):
        counts[key] += value_of(args, result)
    return counter


# Counters computed from a wrapped call's arguments and result.
COUNTERS = {
    "corpus:load_wav": _add("corpus.bytes_read", lambda a, r: os.path.getsize(a[0])),
    "dsp:build_track": _add("dsp.frames", lambda a, r: r.n_frames),
    "dsp:_harmonicity_batch": _add("dsp.harm_frames", lambda a, r: len(a[0])),
    "dsp:vad": _vad_band,
    "pauses:detect_syllables": _add("pauses.peaks", lambda a, r: len(r)),
    "classify:train_forest": _forest_shape,
    "classify:save_model": _add("classify.model_bytes", lambda a, r: os.path.getsize(a[1])),
    "asr_align:align": _add("asr_align.cells", lambda a, r: len(a[0]) * len(a[1])),
}

# Counter -> the wrapped names it needs; null when any of them is missing.
COUNTER_SOURCES = {
    "corpus.bytes_read": ("corpus:load_wav",),
    "dsp.frames": ("dsp:build_track",),
    "dsp.harm_frames": ("dsp:_harmonicity_batch",),
    "dsp.harm_band_frames": ("dsp:vad",),
    "pauses.peaks": ("pauses:detect_syllables",),
    "classify.trees": ("classify:train_forest",),
    "classify.nodes": ("classify:train_forest",),
    "classify.model_bytes": ("classify:save_model",),
    "asr_align.cells": ("asr_align:align",),
}


class Recorder:
    """In-memory span store for one process (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {key: 0 for key in COUNTER_SOURCES}
        self.missing: list[tuple[str, str]] = []  # (layer, "module:attribute")
        self.meta: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name_id: int, parent: int, start: float, end: float) -> None:
        self.name_of.append(name_id)
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)

    def call(self, name_id: int, fn, args, kwargs, counter=None):
        """Run fn inside a span that nests under the innermost open span."""
        clock = time.perf_counter
        parent = self.stack[-1]
        i = len(self.start)
        self.add(name_id, parent, clock(), 0.0)
        self.stack.append(i)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[i] = clock()
            self.stack.pop()
        if counter is not None:
            t0 = clock()
            counter(self.counts, args, kwargs, result)
            self.add(self.name_id(COUNTER_SPAN), parent, t0, clock())
        return result

    def dump(self, path) -> None:
        """Write the header as JSON and the span arrays as raw binary."""
        header = {"names": self.names, "n": len(self.start), "counts": self.counts,
                  "missing": self.missing, "meta": self.meta}
        with open(f"{path}.bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path, "w") as fh:
            json.dump(header, fh)


def _wrapper(rec: Recorder, name: str, fn, counter):
    name_id = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name_id, fn, args, kwargs, counter)
    return traced


def install(rec: Recorder) -> None:
    """Wrap every listed function and rebind each name that refers to it."""
    replaced = {}
    for table in (TIMED, STRUCTURAL):
        for name, targets in table.items():
            for target in targets:
                module_name, attr = target.split(":")
                try:
                    module = importlib.import_module(f"readskill.{module_name}")
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    rec.missing.append((name, target))
                    continue
                replaced[id(original)] = (original, _wrapper(rec, name, original,
                                                             COUNTERS.get(target)))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "readskill" and not mod_name.startswith("readskill."):
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


def run_traced(rec: Recorder, fn, *args):
    """Call fn under the root span, so its own time is accounted too."""
    return rec.call(rec.name_id(ROOT_SPAN), fn, args, {})


# ---------------------------------------------------------------- analysis

def load_spans(path):
    """Read one dump: (header, names per span, parents, starts, ends)."""
    with open(path) as fh:
        header = json.load(fh)
    n = header["n"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(f"{path}.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return header, arrays


def _quantile(sorted_values, q):
    """Nearest-rank quantile of a non-empty sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(values):
    """Sum, p50, p90 and count of per-call times."""
    values = sorted(values)
    if not values:
        return {"s": 0.0, "p50_s": 0.0, "p90_s": 0.0, "calls": 0}
    return {"s": math.fsum(values), "p50_s": _quantile(values, 0.5),
            "p90_s": _quantile(values, 0.9), "calls": len(values)}


class SpanTotals:
    """Per-layer samples and counters merged over many traced processes."""

    def __init__(self):
        self.samples = {name: [] for name in TIMED}
        self.samples["classify.cv_fold"] = []
        self.counts = {key: 0 for key in COUNTER_SOURCES}
        self.missing: set[tuple[str, str]] = set()
        self.metas: list[dict] = []

    def add_file(self, path) -> None:
        header, (name_of, parent, start, end) = load_spans(path)
        names = header["names"]
        self.missing.update(tuple(m) for m in header["missing"])
        self.metas.append(header["meta"])
        for key, value in header["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        n = len(start)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        cv_id = names.index("classify.cross_validate") \
            if "classify.cross_validate" in names else -1
        for i in range(n):
            name = names[name_of[i]]
            samples = self.samples.get(name)
            if samples is not None:
                samples.append(end[i] - start[i] - child[i])
            elif name == "classify.train_plan" and parent[i] >= 0 \
                    and name_of[parent[i]] == cv_id:
                self.samples["classify.cv_fold"].append(end[i] - start[i])

    def metrics(self) -> dict:
        """Flat per-layer metrics; null where a wrapped name is gone."""
        gone = {name for name, _ in self.missing}
        lost = {target for _, target in self.missing}
        if "classify.cross_validate" in gone or "classify.train_plan" in gone:
            gone.add("classify.cv_fold")
        out = {}
        for name, values in self.samples.items():
            summary = summarize(values)
            for key, value in summary.items():
                out[f"{name}_{key}"] = None if name in gone else value
        for key, value in self.counts.items():
            out[key] = None if lost.intersection(COUNTER_SOURCES[key]) else value
        return out
