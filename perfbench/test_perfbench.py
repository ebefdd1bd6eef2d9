"""Tests of the benchmark itself, on tiny corpora (--smoke).

    python3 -m pytest perfbench -q

They are not part of the repository's tests/ suite, so they add nothing to
its run time.
"""
from __future__ import annotations

import dataclasses
import filecmp
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DURATION_S, WORKLOADS  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.layer_metrics()


def test_self_time_excludes_nested_spans(tmp_path):
    rec = tracing.Recorder()
    outer, inner = rec.name_id("dsp.build_track"), rec.name_id("dsp.harmonicity")
    rec.add(outer, -1, 0.0, 10.0)
    rec.add(inner, 0, 2.0, 5.0)
    rec.add(inner, 0, 6.0, 7.0)
    rec.dump(tmp_path / "spans.json")
    totals = tracing.SpanTotals()
    totals.add_file(tmp_path / "spans.json")
    metrics = totals.metrics()
    assert metrics["dsp.build_track_s"] == pytest.approx(6.0)
    assert metrics["dsp.harmonicity_s"] == pytest.approx(4.0)
    assert metrics["dsp.harmonicity_calls"] == 2
    assert metrics["dsp.harmonicity_p90_s"] == pytest.approx(3.0)


def test_removed_name_reports_null_and_does_not_crash(tmp_path):
    """Stands in for a refactor that deletes a wrapped function."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracing, shim; "
        "tracing.TIMED['dsp.vad'] = ('dsp:_no_longer_here',); "
        "sys.exit(shim.main([sys.argv[2], 'cli', 'config', '--dump']))"
    )
    spans = tmp_path / "spans.json"
    done = subprocess.run([sys.executable, "-c", script, str(BENCH), str(spans)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    totals = tracing.SpanTotals()
    totals.add_file(spans)
    metrics = totals.metrics()
    assert metrics["dsp.vad_s"] is None and metrics["dsp.vad_calls"] is None
    assert metrics["dsp.centroid_calls"] == 0
    assert totals.metas[0]["import_s"] > 0.0


def test_speed_factor_scales_to_the_reference_host():
    ref = calibrate.REFERENCE_S
    sampler = calibrate.Sampler()
    # both cores at reference speed for 10 s, then at half speed for 10 s
    sampler.samples = [(t * 0.25, t % 2, ref if t < 40 else 2 * ref) for t in range(80)]
    assert sampler.factor(0.0, 9.9) == pytest.approx(1.0)
    assert sampler.factor(10.0, 19.9) == pytest.approx(0.5)
    # a span with no sample of its own borrows the nearest ones
    assert sampler.factor(2.01, 2.02) == pytest.approx(1.0)


def test_sampler_samples_every_core():
    sampler = calibrate.Sampler()
    sampler.start()
    time.sleep(1.2)
    sampler.stop()
    assert {cpu for _, cpu, _ in sampler.samples} == set(sampler.cpus)
    assert all(b > 0 for _, _, b in sampler.samples)
    assert sampler.factor(0.0, time.perf_counter()) > 0


def test_parallel_setup_equals_one_write_corpus_call(tmp_path):
    w = dataclasses.replace(WORKLOADS["control189"], per_class=1)
    bench = run.Bench(w, 3, tmp_path / "run", deadline=time.perf_counter() + 120.0)
    bench.generate(spans=None)
    ref = tmp_path / "ref"
    subprocess.run([sys.executable, "-c",
                    f"from readskill import synth; synth.write_corpus({str(ref)!r}, "
                    f"per_class=1, duration={DURATION_S!r}, seed=3, "
                    f"pause_style={w.pause_style!r})"],
                   env=ENV, check=True, timeout=120)
    names = sorted(p.name for p in ref.iterdir())
    assert sorted(p.name for p in bench.corpus.iterdir()) == names
    match, mismatch, errors = filecmp.cmpfiles(ref, bench.corpus, names, shallow=False)
    assert not mismatch and not errors


@pytest.mark.parametrize("workload,trace", [
    ("control189", 0), ("lexical189", 0), ("control189", 1), ("lexical189", 1),
])
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    expected = run.layer_metrics() if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name][0]
        assert entry["value"] is not None, name
        if not trace:
            assert entry["value"] > 0, name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "lexical189", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
