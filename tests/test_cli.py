"""End-to-end command-line behavior: exit codes, output files, rerun
determinism and the handoff between commands."""
from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import platform
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import readskill
from conftest import harmonicity_batch_oracle
from readskill import classify, cli, dsp, lexical, synth
from readskill.cli import main
from readskill.config import load_config
from readskill.corpus import load_wav, write_wav
from readskill.errors import NoModel, SchemaMismatch


def run(*argv: str) -> int:
    return main(list(argv))


def read_rows(path) -> list[str]:
    return [ln for ln in path.read_text().splitlines()[2:] if ln]


def checkout_env(**extra: str) -> dict[str, str]:
    """The environment with ``extra`` set and the copy under test first on
    PYTHONPATH, for CLI runs in a fresh process."""
    src = str(Path(readskill.__file__).parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture(scope="module")
def featurized(small_corpus, tmp_path_factory):
    """small_corpus featurized once; several commands build on it."""
    out = tmp_path_factory.mktemp("out_featurized")
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "featurize")
    assert rc == 0
    return out


def test_featurize_all_rows(small_corpus, featurized):
    rows = read_rows(featurized / "features.csv")
    assert len(rows) == 9
    ids = [r.split(",")[0] for r in rows]
    assert ids == sorted(ids)
    assert (featurized / "errors.log").read_text() == ""


def test_featurize_rerun_is_byte_identical(small_corpus, featurized, tmp_path):
    out2 = tmp_path / "out2"
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out2}",
             "--jobs", "1", "featurize")
    assert rc == 0
    assert (out2 / "features.csv").read_bytes() == \
        (featurized / "features.csv").read_bytes()


def test_featurize_parallel_matches_serial(small_corpus, featurized, tmp_path):
    out2 = tmp_path / "out_par"
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out2}",
             "--jobs", "2", "featurize")
    assert rc == 0
    for name in ("features.csv", "errors.log"):
        assert (out2 / name).read_bytes() == (featurized / name).read_bytes(), name


def test_asr_align_parallel_matches_serial(small_corpus, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out_jobs{jobs}"
        settings = ("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}")
        assert run(*settings, "--jobs", "1", "cluster") == 0
        assert run(*settings, "--jobs", jobs, "asr-align") == 0
        outs.append(out)
    for name in ("asr_classes.csv", "asr_confusion.csv", "errors.log"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


def _fake_pool(monkeypatch) -> list[tuple]:
    """(processes, initializer) of every multiprocessing.Pool asked for from
    here on; the fake pool maps in this process and starts none."""
    asked = []

    class FakePool:
        def __init__(self, processes, initializer=None):
            asked.append((processes, initializer))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return asked


def test_jobs_start_no_more_workers_than_work_items(small_corpus, tmp_path, monkeypatch):
    asked = _fake_pool(monkeypatch)
    settings = ("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={tmp_path}",
                "--jobs", "64")
    assert run(*settings, "featurize") == 0
    assert [n for n, _ in asked] == [9]  # one per recording
    assert run(*settings, "--set", "folds=2", "--set", "n_trees=3", "evaluate") == 0
    assert [n for n, _ in asked] == [9, 2]  # one per fold


def test_jobs_default_counts_the_cpus_this_process_may_run_on(small_corpus, tmp_path,
                                                              monkeypatch):
    asked = _fake_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={tmp_path}",
               "cluster") == 0
    assert asked == []  # one CPU: the builtin map, no pool


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        run("--set", f"out_dir={tmp_path}", "--jobs", jobs, "featurize")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--jobs" in err


def test_featurize_dumps(small_corpus, tmp_path):
    out = tmp_path / "out_dump"
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "featurize", "--dump-frames", "--dump-events")
    assert rc == 0
    assert len(list(out.glob("frames_*.csv"))) == 9
    assert len(list(out.glob("events_*.csv"))) == 9
    frame_lines = next(out.glob("frames_*.csv")).read_text().splitlines()
    assert frame_lines[0] == "time,energy,intensity_db,centroid_hz,harmonicity,is_speech"


def _counting_harmonicity(monkeypatch) -> list[int]:
    """Rows of every dsp._harmonicity_batch call from here on."""
    rows = []
    batch = dsp._harmonicity_batch

    def counting(frames, intensity_db):
        rows.append(len(frames))
        return batch(frames, intensity_db)

    monkeypatch.setattr(dsp, "_harmonicity_batch", counting)
    return rows


def _vad_inputs(small_corpus):
    """Per recording id: raw frames, intensity and the VAD's band mask
    (floor + harmonicity margin < dB <= threshold) at the default config."""
    cfg = dsp.VadConfig()
    inputs = {}
    for wav in sorted(small_corpus.glob("*.wav")):
        raw = dsp.raw_frames(load_wav(wav))
        intensity_db = 10.0 * np.log10(dsp.frame_energy(raw) + dsp.ENERGY_FLOOR)
        floor = float(np.percentile(intensity_db, cfg.floor_percentile))
        threshold = max(floor + cfg.margin_db, cfg.abs_threshold_db)
        band = ((intensity_db > floor + cfg.harmonicity_margin_db)
                & (intensity_db <= threshold))
        inputs[wav.name.removesuffix(".wav")] = raw, intensity_db, band
    return inputs


def test_featurize_computes_harmonicity_on_the_band_only(small_corpus, tmp_path,
                                                          monkeypatch):
    rows = _counting_harmonicity(monkeypatch)
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={tmp_path}",
             "--jobs", "1", "featurize")
    assert rc == 0
    inputs = _vad_inputs(small_corpus).values()
    band = sum(int(b.sum()) for _, _, b in inputs)
    total = sum(len(raw) for raw, _, _ in inputs)
    assert sum(rows) == band
    assert 0 < band < total


def test_featurize_frame_dumps_match_the_full_track(small_corpus, tmp_path, monkeypatch):
    rows = _counting_harmonicity(monkeypatch)
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={tmp_path}",
             "--jobs", "1", "featurize", "--dump-frames")
    assert rc == 0
    inputs = _vad_inputs(small_corpus)
    assert sum(rows) == sum(int(b.sum()) + len(raw) for raw, _, b in inputs.values())
    for rid, (raw, intensity_db, _) in inputs.items():
        # the frame track as computed before harmonicity went band-only and
        # blocked: the one-batch full track, then vad, then dump_frames's
        # old row-by-row format
        energy = dsp.frame_energy(raw)
        centroid = dsp._centroid_batch(raw * dsp._HAMMING)
        harm = harmonicity_batch_oracle(raw, intensity_db)
        is_speech = dsp.vad(intensity_db, harm, dsp.VadConfig())
        lines = ["time,energy,intensity_db,centroid_hz,harmonicity,is_speech\n"]
        for i, t in enumerate(dsp.frame_times(len(raw))):
            lines.append(f"{float(t)!r},{float(energy[i])!r},{float(intensity_db[i])!r},"
                         f"{float(centroid[i])!r},{float(harm[i])!r},{int(is_speech[i])}\n")
        assert (tmp_path / f"frames_{rid}.csv").read_text() == "".join(lines), rid


def test_featurize_partial_failure(small_corpus, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(small_corpus, broken)
    (broken / "m_a_001.intervals.csv").unlink()
    (broken / "c_a_000.intervals.csv").write_text("0.0,2.0\n2.0,two\n")
    (broken / "i_a_002.intervals.csv").write_text("0.0,4.0\n4.0,8.0\n8.0\n")
    out = tmp_path / "out_broken"
    rc = run("--set", f"corpus_root={broken}", "--set", f"out_dir={out}",
             "--jobs", "1", "featurize")
    assert rc == 1
    rows = read_rows(out / "features.csv")
    assert len(rows) == 6
    assert {"c_a_000", "m_a_001", "i_a_002"}.isdisjoint(r.split(",")[0] for r in rows)
    log = (out / "errors.log").read_text().splitlines()
    assert len(log) == 3
    assert log[0].startswith("c_a_000: SchemaMismatch: ")
    assert "c_a_000.intervals.csv: row 1 " in log[0]
    assert log[1].startswith("i_a_002: SchemaMismatch: ")
    assert "i_a_002.intervals.csv: row 2 " in log[1]
    assert log[2].startswith("m_a_001: ")


def test_featurize_700_sample_recordings(small_corpus, tmp_path):
    # 700 samples make 2 frames, fewer than the VAD's hangover window of 5
    corpus = tmp_path / "short"
    shutil.copytree(small_corpus, corpus)
    tone = 0.3 * np.sin(2.0 * np.pi * 200.0 * np.arange(700) / 16000)
    onset = tone.copy()
    onset[:400] *= 1e-4  # only the second frame is loud
    quarter = 700 / 16000 / 4
    for rid, samples in (("c_a_000", onset), ("m_a_001", tone)):
        write_wav(samples, corpus / f"{rid}.wav")
        (corpus / f"{rid}.intervals.csv").write_text(
            "".join(f"{k * quarter!r},{(k + 1) * quarter!r}\n" for k in range(4)))
    out = tmp_path / "out_short"
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "featurize", "--dump-frames")
    assert rc == 1
    rows = {r.split(",")[0]: r.split(",")[2:] for r in read_rows(out / "features.csv")}
    # the onset is speech: its row comes from its 2 frames, both speech
    frames = (out / "frames_c_a_000.csv").read_text().splitlines()[1:]
    assert [line.rsplit(",", 1)[1] for line in frames] == ["1", "1"]
    assert any(float(v) != 0.0 for v in rows["c_a_000"])
    # the steady tone holds no speech and is too short to hold a pause, so
    # nothing in it was measured: a typed error instead of a zero row
    assert "m_a_001" not in rows and len(rows) == 8
    log = (out / "errors.log").read_text().splitlines()
    assert len(log) == 1 and log[0].startswith("m_a_001: TooShort: ")


def test_asr_align_partial_failure(small_corpus, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(small_corpus, broken)
    (broken / "c_a_001.hyp.csv").write_text("word,confidence\nthe,0.9\nred\n")
    (broken / "m_a_002.hyp.csv").write_text("the,0.9\nred,high\n")
    out = tmp_path / "out_broken"
    settings = ("--set", f"corpus_root={broken}", "--set", f"out_dir={out}",
                "--jobs", "1")
    assert run(*settings, "cluster") == 0
    assert run(*settings, "asr-align") == 1
    rows = (out / "asr_classes.csv").read_text().splitlines()[1:]
    assert len(rows) == 7
    assert {"c_a_001", "m_a_002"}.isdisjoint(r.split(",")[0] for r in rows)
    conf_lines = (out / "asr_confusion.csv").read_text().splitlines()
    assert sum(int(v) for ln in conf_lines[1:] for v in ln.split(",")[1:]) == 7
    log = (out / "errors.log").read_text().splitlines()
    assert len(log) == 2
    assert log[0].startswith("c_a_001: SchemaMismatch: ")
    assert "c_a_001.hyp.csv: row 2 " in log[0]
    assert log[1].startswith("m_a_002: SchemaMismatch: ")
    assert "m_a_002.hyp.csv: row 1 " in log[1]


def test_asr_align_bad_confidence_names_file_and_row(small_corpus, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(small_corpus, broken)
    (broken / "c_a_001.hyp.csv").write_text("word,confidence\nthe,0.9\nred,nan\n")
    (broken / "m_a_002.hyp.csv").write_text("the,0.9\nred,0.8\nfox,1.5\n")
    out = tmp_path / "out_broken"
    settings = ("--set", f"corpus_root={broken}", "--set", f"out_dir={out}",
                "--jobs", "1")
    assert run(*settings, "cluster") == 0
    assert run(*settings, "asr-align") == 1
    rows = (out / "asr_classes.csv").read_text().splitlines()[1:]
    assert {"c_a_001", "m_a_002"}.isdisjoint(r.split(",")[0] for r in rows)
    log = (out / "errors.log").read_text().splitlines()
    assert len(log) == 2
    assert log[0].startswith("c_a_001: SchemaMismatch: ")
    assert "c_a_001.hyp.csv: row 2 " in log[0] and "'nan'" in log[0]
    assert log[1].startswith("m_a_002: SchemaMismatch: ")
    assert "m_a_002.hyp.csv: row 2 " in log[1] and "'1.5'" in log[1]


def test_labels_row_without_class_exits_2(small_corpus, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(small_corpus, broken)
    with open(broken / "labels.csv", "a") as fh:
        fh.write("c_a_000\n")
    rc = run("--set", f"corpus_root={broken}", "--set",
             f"out_dir={tmp_path / 'out'}", "--jobs", "1", "featurize")
    assert rc == 2
    err = capsys.readouterr().err
    assert "labels.csv: row 9 has no class column" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["featurize", "asr-align"])
def test_featurize_without_story(tmp_path, capsys, command):
    rc = run("--set", f"corpus_root={tmp_path}", "--set",
             f"out_dir={tmp_path / 'out'}", "--jobs", "1", command)
    assert rc == 2
    assert capsys.readouterr().err == f"error: no story.txt under {tmp_path}\n"
    assert not (tmp_path / "out").exists()


def write_words_corpus(root) -> None:
    """Transcription-only corpus with three exactly repeated miscue mixes."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "story.txt").write_text(" ".join(["go"] * 10) + "\n")
    mixes = {
        "fluent": ["C"] * 9 + ["S1"],
        "missed": ["C"] * 5 + ["M"] * 4 + ["D"],
        "wrong": ["C"] * 5 + ["I"] * 4 + ["S1"],
    }
    for name, labels in mixes.items():
        for k in range(4):
            lines = []
            for lab in labels:
                if lab in ("S1", "Sm"):
                    lines.append(f"go,{lab},ba")
                else:
                    lines.append(f"go,{lab}")
            (root / f"{name}_{k}.words.csv").write_text("\n".join(lines) + "\n")


def test_cluster_outputs(tmp_path):
    corpus = tmp_path / "wcorpus"
    write_words_corpus(corpus)
    out = tmp_path / "out_cluster"
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "cluster")
    assert rc == 0

    sil_lines = (out / "silhouette.csv").read_text().splitlines()
    assert sil_lines[0] == "variant,k,silhouette"
    b_rows = [ln.split(",") for ln in sil_lines[1:] if ln.startswith("B,")]
    assert [int(r[1]) for r in b_rows] == [2, 3, 4, 5, 6]
    best_k = max(b_rows, key=lambda r: float(r[2]))[1]
    assert best_k == "3"

    model = json.loads((out / "cluster_model.json").read_text())
    assert model["format"] == "cluster-model-v1"
    assert model["variant"] == "B"
    assert model["k"] == 3
    assert sorted(model["labels"].values()) == ["C_A", "I_A", "M_A"]

    cluster_lines = (out / "clusters.csv").read_text().splitlines()
    assert cluster_lines[0] == "id,cluster,skill"
    assert len(cluster_lines) == 13
    by_skill = {}
    for ln in cluster_lines[1:]:
        rid, _, skill = ln.split(",")
        by_skill.setdefault(skill, set()).add(rid.rsplit("_", 1)[0])
    # identical mixes keep each prefix family in one skill bucket
    assert by_skill == {"C_A": {"fluent"}, "M_A": {"missed"}, "I_A": {"wrong"}}

    assert (out / "silhouette.svg").read_text().startswith("<svg")
    assert (out / "clusters.svg").read_text().startswith("<svg")


def _counting_kmeans(monkeypatch) -> list[int]:
    """K of every lexical.kmeans call from here on."""
    ks = []
    kmeans = lexical.kmeans

    def counting(points, k, **kwargs):
        ks.append(k)
        return kmeans(points, k, **kwargs)

    monkeypatch.setattr(lexical, "kmeans", counting)
    return ks


def test_cluster_fits_each_k_of_each_variant_once(tmp_path, monkeypatch):
    corpus = tmp_path / "wcorpus"
    write_words_corpus(corpus)
    ks = _counting_kmeans(monkeypatch)
    assert run("--set", f"corpus_root={corpus}", "--set", f"out_dir={tmp_path / 'out'}",
               "--jobs", "1", "cluster") == 0
    # the model is variant B's K = 3 fit from the sweep, not a refit
    assert ks == [2, 3, 4, 5, 6] * 2


def test_cluster_fits_k3_apart_when_the_range_skips_it(tmp_path, monkeypatch):
    corpus = tmp_path / "wcorpus"
    write_words_corpus(corpus)
    ks = _counting_kmeans(monkeypatch)
    out = tmp_path / "out"
    assert run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
               "--set", "cluster_k_min=4", "--set", "cluster_k_max=5",
               "--jobs", "1", "cluster") == 0
    assert ks == [4, 5, 4, 5, 3]
    rows = (out / "silhouette.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[0] for row in rows] == ["A,4", "A,5", "B,4", "B,5"]
    assert json.loads((out / "cluster_model.json").read_text())["k"] == 3


def test_cluster_rerun_byte_identical(tmp_path):
    corpus = tmp_path / "wcorpus"
    write_words_corpus(corpus)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
                 "--jobs", "1", "cluster")
        assert rc == 0
        outs.append(out)
    for fname in ("silhouette.csv", "cluster_model.json", "clusters.csv",
                  "silhouette.svg", "clusters.svg"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_cluster_too_few_recordings(tmp_path, capsys):
    corpus = tmp_path / "tiny"
    corpus.mkdir()
    (corpus / "story.txt").write_text("go go\n")
    (corpus / "a.words.csv").write_text("go,C\ngo,C\n")
    (corpus / "b.words.csv").write_text("go,M\ngo,M\n")
    # the sweep needs cluster_k_max points and the model K = 3
    for k_max, need in ((6, 6), (2, 3)):
        out = tmp_path / f"out_{k_max}"
        rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
                 "--set", f"cluster_k_max={k_max}", "--jobs", "1", "cluster")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: TooFewPoints: cluster needs at least {need} transcriptions, "
                       f"the larger of cluster_k_max = {k_max} and the model's K = 3; "
                       "got 2\n")
        assert sorted(p.name for p in out.iterdir()) == ["errors.log"]


def test_errors_log_sorts_by_recording_id(tmp_path):
    # sorting the "rid: message" lines would put "fluent_0-1" first ("-" < ":")
    corpus = tmp_path / "wcorpus"
    write_words_corpus(corpus)
    for rid in ("fluent_0", "fluent_0-1"):
        (corpus / f"{rid}.words.csv").write_text("go,C\n")
    out = tmp_path / "out"
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "cluster")
    assert rc == 1
    log = (out / "errors.log").read_text().splitlines()
    assert [line.split(": ")[0] for line in log] == ["fluent_0", "fluent_0-1"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cluster_partial_failure(tmp_path, jobs):
    corpus = tmp_path / "wcorpus"
    write_words_corpus(corpus)
    (corpus / "missed_1.words.csv").write_text("go,C\ngo,C\ngo,M\n")
    (corpus / "wrong_2.words.csv").write_text("go,C\n" * 4 + "go,Q\n" + "go,C\n" * 5)
    out = tmp_path / "out"
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
             "--jobs", jobs, "cluster")
    assert rc == 1
    log = (out / "errors.log").read_text().splitlines()
    assert len(log) == 2
    assert log[0].startswith("missed_1: WordCountMismatch: ")
    assert "missed_1.words.csv: 3 rows vs 10 story words" in log[0]
    assert log[1].startswith("wrong_2: UnknownLabel: ")
    assert "wrong_2.words.csv: row 4 " in log[1]
    rows = (out / "clusters.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    assert {"missed_1", "wrong_2"}.isdisjoint(r.split(",")[0] for r in rows)
    assert (out / "clusters.svg").exists()


def test_train_and_predict(small_corpus, featurized):
    rc = run("--set", f"corpus_root={small_corpus}", "--set",
             f"out_dir={featurized}", "--jobs", "1", "train")
    assert rc == 0
    assert (featurized / "model_one_stage.json").exists()

    rc = run("--set", f"corpus_root={small_corpus}", "--set",
             f"out_dir={featurized}", "--jobs", "1", "predict")
    assert rc == 0
    lines = (featurized / "predictions.csv").read_text().splitlines()
    assert lines[0] == "id,skill"
    assert len(lines) == 10
    # training-set predictions on cleanly separated classes come back exact
    for ln in lines[1:]:
        rid, skill = ln.split(",")
        assert rid.rsplit("_", 1)[0] == skill.lower()


def test_predict_without_model(small_corpus, featurized, tmp_path, capsys):
    rc = run("--set", f"corpus_root={small_corpus}", "--set",
             f"out_dir={featurized}", "--jobs", "1", "predict",
             "--model", str(tmp_path / "missing.json"))
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_evaluate_three_plans(small_corpus, featurized):
    rc = run("--set", f"corpus_root={small_corpus}", "--set",
             f"out_dir={featurized}", "--set",
             "plan=one_stage,two_stage_P,two_stage_Q", "--set", "folds=3",
             "--jobs", "1", "evaluate")
    assert rc == 0
    for plan_id in ("one_stage", "two_stage_P", "two_stage_Q"):
        payload = json.loads((featurized / f"cvreport_{plan_id}.json").read_text())
        assert payload["plan"] == plan_id
        assert payload["folds"] == 3
        total = sum(sum(row) for row in payload["pooled_confusion"])
        assert total == 9
        conf_lines = (featurized / f"confusion_{plan_id}.csv").read_text().splitlines()
        assert conf_lines[0] == "actual\\predicted,C_A,M_A,I_A"


def test_evaluate_single_plan_unsuffixed(small_corpus, featurized, tmp_path):
    out = tmp_path / "out_single"
    out.mkdir()
    shutil.copy(featurized / "features.csv", out / "features.csv")
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--set", "folds=3", "--jobs", "1", "evaluate")
    assert rc == 0
    assert (out / "cvreport.json").exists()
    assert (out / "confusion.csv").exists()


def test_evaluate_grouped_folds(small_corpus, featurized, tmp_path):
    out = tmp_path / "out_grouped"
    out.mkdir()
    shutil.copy(featurized / "features.csv", out / "features.csv")
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--set", "folds=2", "--set", "group_by=child_id",
             "--jobs", "1", "evaluate")
    assert rc == 0
    payload = json.loads((out / "cvreport.json").read_text())
    assert sum(sum(row) for row in payload["pooled_confusion"]) == 9


def test_evaluate_parallel_matches_serial(small_corpus, featurized, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out_jobs{jobs}"
        out.mkdir()
        shutil.copy(featurized / "features.csv", out / "features.csv")
        rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
                 "--set", "plan=one_stage,two_stage_P,two_stage_Q",
                 "--set", "folds=3", "--jobs", jobs, "evaluate")
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "features.csv")
    assert len(names) == 6
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


def test_report_summarizes(small_corpus, featurized, capsys):
    rc = run("--set", f"corpus_root={small_corpus}", "--set",
             f"out_dir={featurized}", "--jobs", "1", "report")
    assert rc == 0
    text = (featurized / "report.txt").read_text()
    assert "plan one_stage" in text
    assert "accuracy" in text
    assert capsys.readouterr().out == text


def test_report_without_reports(tmp_path, capsys):
    rc = run("--set", f"out_dir={tmp_path}", "--jobs", "1", "report")
    assert rc == 0
    assert capsys.readouterr().out == "no evaluation reports found\n"
    assert (tmp_path / "report.txt").read_text() == "no evaluation reports found\n"


def test_asr_align_flow(small_corpus, tmp_path):
    out = tmp_path / "out_asr"
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "cluster")
    assert rc == 0
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "asr-align")
    assert rc == 0

    lines = (out / "asr_classes.csv").read_text().splitlines()
    assert lines[0] == "id,pct_C,pct_M,pct_I,skill"
    assert len(lines) == 10
    for ln in lines[1:]:
        rid, pct_c, pct_m, pct_i, skill = ln.split(",")
        assert skill in ("C_A", "M_A", "I_A")
        assert 0.0 <= float(pct_m) <= 1.0

    conf_lines = (out / "asr_confusion.csv").read_text().splitlines()
    assert conf_lines[0] == "actual\\predicted,C_A,M_A,I_A"
    matrix = [[int(v) for v in ln.split(",")[1:]] for ln in conf_lines[1:]]
    assert sum(sum(row) for row in matrix) == 9
    assert all(sum(row) == 3 for row in matrix)
    # synthetic hypotheses are engineered to land on their own class
    assert sum(matrix[k][k] for k in range(3)) == 9


def test_asr_align_missed_words_dominate(small_corpus, tmp_path):
    # an empty hypothesis deletes every canonical word: pct_M becomes 1.0
    corpus = tmp_path / "empty_hyp"
    shutil.copytree(small_corpus, corpus)
    (corpus / "c_a_000.hyp.csv").write_text("")
    out = tmp_path / "out_empty_hyp"
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "cluster")
    assert rc == 0
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "asr-align")
    assert rc == 0
    row = next(ln for ln in (out / "asr_classes.csv").read_text().splitlines()
               if ln.startswith("c_a_000,"))
    _, pct_c, pct_m, _, skill = row.split(",")
    assert float(pct_m) == 1.0
    assert float(pct_c) == 0.0
    assert skill == "M_A"


def test_asr_align_without_model(small_corpus, tmp_path, capsys):
    rc = run("--set", f"corpus_root={small_corpus}", "--set",
             f"out_dir={tmp_path / 'out'}", "--jobs", "1", "asr-align")
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_config_dump(capsys):
    rc = run("--set", "seed=5", "config", "--dump")
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed = 5" in out
    assert "plan = one_stage" in out


def test_config_file_through_main(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 11\n")
    rc = run("--config", str(cfg_file), "config", "--dump")
    assert rc == 0
    assert "seed = 11" in capsys.readouterr().out


def test_bad_config_exit_code(tmp_path, capsys):
    rc = run("--set", "tau=7", "config")
    assert rc == 2
    assert "tau" in capsys.readouterr().err

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mystery = 1\n")
    rc = run("--config", str(cfg_file), "config")
    assert rc == 2


def test_removed_key_exits_2(tmp_path, capsys):
    rc = run("--set", "spdyn_ratio_scope=audio", "config", "--dump")
    assert rc == 2
    assert "unknown config key 'spdyn_ratio_scope'" in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("spdyn_ratio_scope = interval\n")
    rc = run("--config", str(cfg_file), "config", "--dump")
    assert rc == 2
    assert "unknown config key 'spdyn_ratio_scope'" in capsys.readouterr().err


def test_kmeans_restarts_below_one_exits_2(small_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--set", "kmeans_restarts=0", "--jobs", "1", "cluster")
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: kmeans_restarts must be positive, got 0\n"
    assert not out.exists()


def test_unknown_group_by_exits_2(small_corpus, featurized, tmp_path, capsys):
    out = tmp_path / "out_grouped"
    out.mkdir()
    shutil.copy(featurized / "features.csv", out / "features.csv")
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--set", "folds=3", "--set", "group_by=child",
             "--jobs", "1", "evaluate")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "group_by" in err and "'child'" in err
    assert not (out / "cvreport.json").exists()


_BAND_RULE = "0 < syll_band_low_hz < syll_band_high_hz < 8000"
BAD_FEATURE_SETTINGS = {
    "vad_median_frames=4": "vad_median_frames must be odd",
    "vad_median_frames=2": "vad_median_frames must be odd",
    "vad_floor_percentile=150": "vad_floor_percentile must lie in [0, 100]",
    "vad_floor_percentile=-1": "vad_floor_percentile must lie in [0, 100]",
    "syll_band_high_hz=9000": _BAND_RULE,
    "syll_band_high_hz=8000": _BAND_RULE,
    "syll_band_low_hz=0": _BAND_RULE,
    "syll_band_low_hz=3000": _BAND_RULE,
}


@pytest.mark.parametrize("setting", BAD_FEATURE_SETTINGS)
def test_bad_feature_setting_exits_2(small_corpus, tmp_path, capsys, setting):
    out = tmp_path / "out"
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--set", setting, "--jobs", "1", "featurize")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and BAD_FEATURE_SETTINGS[setting] in err
    assert not out.exists()


@pytest.mark.parametrize("band", [(3010.0, 3020.0), (300.5, 312.0), (7990.0, 7999.0)])
def test_band_without_a_bin_centre_exits_2(small_corpus, tmp_path, capsys, band):
    # spectrum bins are 31.25 Hz apart: a band between two bin centres
    # would give every recording an empty envelope and no nuclei
    out = tmp_path / "out"
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--set", f"syll_band_low_hz={band[0]}", "--set", f"syll_band_high_hz={band[1]}",
             "--jobs", "1", "featurize")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "holds no spectrum bin centre" in err
    assert "syll_band_low_hz" in err and "syll_band_high_hz" in err
    assert not out.exists()


@pytest.mark.parametrize("band", [(3000.0, 3001.0), (2999.0, 3000.0), (3000.0, 3000.5)])
def test_band_holding_one_bin_centre_is_valid(band):
    assert run("--set", f"syll_band_low_hz={band[0]}",
               "--set", f"syll_band_high_hz={band[1]}", "config") == 0


@pytest.mark.parametrize("setting", ["vad_median_frames=1", "vad_median_frames=0",
                                     "vad_floor_percentile=0", "vad_floor_percentile=100"])
def test_edge_feature_settings_are_valid(setting):
    assert run("--set", setting, "config") == 0


@pytest.mark.parametrize("command", ["cluster", "evaluate", "train"])
def test_negative_seed_exits_2(small_corpus, featurized, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(featurized / "features.csv", out)
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--set", "seed=-1", "--set", "folds=3", "--jobs", "1", command)
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert [p.name for p in out.iterdir()] == ["features.csv"]


@pytest.mark.parametrize("command", ["evaluate", "train", "predict"])
@pytest.mark.parametrize("plan", ["", ","])
def test_empty_plan_list_exits_2(small_corpus, featurized, tmp_path, capsys, command,
                                 plan):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(featurized / "features.csv", out)
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
             "--set", f"plan={plan}", "--jobs", "1", command)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: plan names no plan id")
    assert [p.name for p in out.iterdir()] == ["features.csv"]


def test_missing_config_file(tmp_path, capsys):
    rc = run("--config", str(tmp_path / "absent.cfg"), "config")
    assert rc == 2
    assert "error" in capsys.readouterr().err


# Runs CLI commands with every scipy import refused; fork workers inherit
# the refusing finder. argv: the commands as JSON, then the common arguments.
_WITHOUT_SCIPY = """
import json
import sys
from importlib.abc import MetaPathFinder


class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
from readskill.cli import main

for command in json.loads(sys.argv[1]):
    rc = main(sys.argv[2:] + command)
    if rc != 0:
        sys.exit(f"{command[0]} exited {rc}")
"""

CHAIN = (("featurize", "--dump-frames", "--dump-events"), ("cluster",), ("evaluate",),
         ("train",), ("predict",), ("asr-align",), ("report",))


def test_cli_chain_runs_with_scipy_unimportable(small_corpus, tmp_path):
    blocked, free = tmp_path / "blocked", tmp_path / "free"

    def settings(out):
        return ["--set", f"corpus_root={small_corpus}", "--set", f"out_dir={out}",
                "--set", "folds=3", "--jobs", "2"]

    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(CHAIN),
                           *settings(blocked)], capture_output=True, text=True,
                          env=checkout_env())
    assert done.returncode == 0, done.stderr
    for command in CHAIN:
        assert run(*settings(free), *command) == 0
    names = sorted(p.name for p in free.iterdir())
    assert sorted(p.name for p in blocked.iterdir()) == names
    assert len([n for n in names if n.startswith("events_")]) == 9
    for name in names:
        assert (blocked / name).read_bytes() == (free / name).read_bytes(), name


def test_bad_lexicon_line_exits_2(tmp_path, capsys):
    corpus = tmp_path / "wcorpus"
    write_words_corpus(corpus)
    (corpus / "syllables.lex").write_text("go 1\nbadline\n")
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={tmp_path / 'out'}",
             "--jobs", "1", "cluster")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: SchemaMismatch: ")
    assert "syllables.lex:2: expected 'word count'" in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_lexicon_count_below_one_exits_2(small_corpus, tmp_path, capsys, count):
    # every word of the first sentence overridden: its expected count sums to
    # count times its length, which no syllable rate can be measured against
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus)
    first = (corpus / "story.txt").read_text().splitlines()[0].split()
    (corpus / "syllables.lex").write_text(
        "# overrides\n" + "".join(f"{word} {count}\n" for word in first))
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={tmp_path / 'out'}",
             "--jobs", "1", "featurize")
    assert rc == 2
    _one_line_schema_error(capsys, f"syllables.lex:2: syllable count '{count}' is below 1")


def test_non_utf8_story_exits_2(tmp_path, capsys):
    corpus = tmp_path / "wcorpus"
    write_words_corpus(corpus)
    (corpus / "story.txt").write_bytes(b"go go\ngo \xff\xfe go\n")
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={tmp_path / 'out'}",
             "--jobs", "1", "cluster")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "story.txt:2: not UTF-8 text" in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed = 3\n# caf\xe9\n")
    rc = run("--config", str(cfg_file), "config", "--dump")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "run.cfg:2: not UTF-8 text" in err


def _cli_in_c_locale(utf8_mode: bool, *argv: str) -> subprocess.CompletedProcess:
    """Run the CLI under the C locale, whose preferred encoding is ASCII
    unless Python's UTF-8 mode is on."""
    return subprocess.run([sys.executable, "-m", "readskill.cli", *argv],
                          capture_output=True, text=True,
                          env=checkout_env(LC_ALL="C", PYTHONUTF8="1" if utf8_mode else "0"))


@pytest.mark.parametrize("case", ["labels", "hypothesis"])
def test_non_ascii_text_reads_the_same_in_any_locale(small_corpus, tmp_path, case):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus)
    if case == "labels":
        with (corpus / "labels.csv").open("a", encoding="utf-8") as fh:
            fh.write("zoé_001,C_A\n")
        commands = (("featurize",),)
    else:
        hyp = corpus / "c_a_000.hyp.csv"
        rows = hyp.read_text(encoding="utf-8").splitlines()
        rows[0] = "naïve," + rows[0].split(",")[1]
        hyp.write_text("\n".join(rows) + "\n", encoding="utf-8")
        commands = (("cluster",), ("asr-align",))
    outs, stdouts = [], []
    for utf8_mode in (True, False):
        out = tmp_path / f"out_utf8_mode_{int(utf8_mode)}"
        for command in commands:
            done = _cli_in_c_locale(utf8_mode, "--set", f"corpus_root={corpus}",
                                    "--set", f"out_dir={out}", "--jobs", "1", *command)
            assert done.returncode == 0, (utf8_mode, command, done.stderr)
            stdouts.append(done.stdout)
        outs.append(out)
    assert stdouts[:len(commands)] == stdouts[len(commands):]
    names = sorted(p.name for p in outs[0].iterdir())
    assert sorted(p.name for p in outs[1].iterdir()) == names
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes(), name


def _one_line_schema_error(capsys, *needles) -> None:
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: SchemaMismatch: ")
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("command", ["evaluate", "train"])
@pytest.mark.parametrize("cell", ["abc", "nan"])
def test_bad_feature_cell_exits_2(small_corpus, featurized, tmp_path, capsys,
                                  command, cell):
    lines = (featurized / "features.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = cell  # pause_mean of the second recording
    lines[3] = ",".join(cells)
    (tmp_path / "features.csv").write_text("\n".join(lines) + "\n")
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={tmp_path}",
             "--jobs", "1", command)
    assert rc == 2
    _one_line_schema_error(capsys, f"features.csv: row 3 has non-numeric pause_mean '{cell}'")


@pytest.fixture(scope="module")
def one_stage_model(tmp_path_factory):
    """A valid one_stage model file's JSON payload."""
    rng = np.random.default_rng(0)
    X = np.repeat([[0.0], [10.0], [20.0]], 6, axis=0) + rng.standard_normal((18, 17))
    models = classify.train_plan(classify.PLANS["one_stage"], X,
                                 np.repeat([0, 1, 2], 6), n_trees=2)
    path = tmp_path_factory.mktemp("model") / "model.json"
    classify.save_model(models, path)
    return json.loads(path.read_text())


def _edit_model(edit):
    """File text of the valid model after edit(payload) changed it."""
    def text(payload):
        payload = json.loads(json.dumps(payload))
        edit(payload)
        return json.dumps(payload)
    return text


def _first_split(payload):
    """Root of the first tree; a split, as the three classes lie far apart."""
    return payload["stages"][0]["trees"][0]


def _first_leaf(payload):
    node = _first_split(payload)
    while "counts" not in node:
        node = node["left"]
    return node


@pytest.mark.parametrize("content, needle", [
    (lambda _: "model, but not JSON\n", "not a JSON file"),
    (lambda _: '{"format": "%s", "plan": "three_stage", "stages": [], '
     '"feature_names": []}\n' % classify.MODEL_VERSION,
     "unknown plan 'three_stage'"),
    (lambda _: '{"format": "%s", "plan": "one_stage"}\n' % classify.MODEL_VERSION,
     "malformed classifier model (KeyError: 'stages')"),
    (_edit_model(lambda m: m.update(stages=[])), "0 stages, plan one_stage has 1"),
    (_edit_model(lambda m: m["stages"][0].update(trees=[])), "stage 0 has no trees"),
    (_edit_model(lambda m: _first_split(m).update(feature=99)),
     "malformed classifier model (ValueError: node feature 99 outside [0, 17))"),
    (_edit_model(lambda m: _first_split(m).update(feature=1.9)),
     "malformed classifier model (ValueError: node feature 1.9 is a float)"),
    (_edit_model(lambda m: _first_split(m).update(threshold="0.5")),
     "malformed classifier model (ValueError: threshold '0.5' is a str)"),
    (_edit_model(lambda m: _first_leaf(m)["counts"].__setitem__(0, "1")),
     "malformed classifier model (ValueError: leaf count '1' is a str)"),
    (_edit_model(lambda m: m["stages"][0].update(n_classes=3.7)),
     "malformed classifier model (ValueError: n_classes 3.7 is a float)"),
    (_edit_model(lambda m: m["stages"][0].update(n_classes="3")),
     "malformed classifier model (ValueError: n_classes '3' is a str)"),
    (_edit_model(lambda m: m["stages"][0].update(n_classes=True)),
     "malformed classifier model (ValueError: n_classes True is a bool)"),
    (_edit_model(lambda m: m["stages"][0].update(importances=[0.5])),
     "stage 0 has 1 importances for 17 features"),
    (_edit_model(lambda m: m["stages"][0]["features"].reverse()),
     "stage 0 features differ from plan one_stage"),
    (_edit_model(lambda m: m["feature_names"].reverse()),
     "feature_names differ from features.csv"),
    (_edit_model(lambda m: m["stages"][0].update(n_classes=2)),
     "stage 0 has 2 classes, plan one_stage needs 3"),
    (_edit_model(lambda m: _first_leaf(m)["counts"].pop()),
     "malformed classifier model (ValueError: leaf counts of shape (2,), expected (3,))"),
    (lambda _: "[" * 200_000, "not a JSON file"),
], ids=["not_json", "unknown_plan", "no_stages", "empty_stages", "empty_trees",
        "feature_out_of_range", "fractional_feature", "text_threshold", "text_count",
        "fractional_n_classes", "text_n_classes", "bool_n_classes", "importances_short",
        "features_reordered", "feature_names_reordered",
        "class_count", "leaf_counts_short", "too_deep"])
def test_bad_model_file_exits_2(small_corpus, featurized, tmp_path, capsys,
                                one_stage_model, content, needle):
    model = tmp_path / "model.json"
    model.write_text(content(one_stage_model))
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={featurized}",
             "--jobs", "1", "predict", "--model", str(model))
    assert rc == 2
    _one_line_schema_error(capsys, "model.json: ", needle)


def _cvreport(**fields) -> str:
    """A one_stage cvreport file, with fields replaced."""
    payload = {"format": classify.REPORT_VERSION, "plan": "one_stage", "accuracy": 0.5,
               "folds": 7, "seed": 0, "importances": {"pause_mean": 0.5}}
    return json.dumps({**payload, **fields})


@pytest.mark.parametrize("content, needle", [
    ("cvreport, but not JSON\n", "not a JSON file"),
    ('{"format": "%s"}' % classify.MODEL_VERSION, "not a cvreport-v1 report"),
    ('{"format": "cvreport-v1"}', "malformed report (KeyError: 'plan')"),
    ("[" * 200_000, "not a JSON file"),
    ("[]", "not a JSON object"),
    (_cvreport(accuracy=True), "malformed report (ValueError: accuracy True is a bool)"),
    (_cvreport(folds="seven"), "malformed report (ValueError: folds 'seven' is a str)"),
    (_cvreport(seed=None), "malformed report (ValueError: seed None is a NoneType)"),
    (_cvreport(seed=2.0), "malformed report (ValueError: seed 2.0 is a float)"),
    (_cvreport(importances={"pause_mean": "0.5"}),
     "malformed report (ValueError: importance '0.5' is a str)"),
], ids=["not_json", "other_format", "no_plan", "too_deep", "not_object", "bool_accuracy",
        "text_folds", "null_seed", "fractional_seed", "text_importance"])
def test_bad_cvreport_exits_2(tmp_path, capsys, content, needle):
    (tmp_path / "cvreport_x.json").write_text(content)
    rc = run("--set", f"out_dir={tmp_path}", "--jobs", "1", "report")
    assert rc == 2
    _one_line_schema_error(capsys, "cvreport_x.json: ", needle)
    assert not (tmp_path / "report.txt").exists()


CLUSTER_CENTROIDS = [[0.9, 0.04, 0.03, 0.03], [0.5, 0.1, 0.35, 0.05],
                     [0.5, 0.1, 0.05, 0.35]]


def _cluster_model(**fields) -> str:
    """A labeled K=3 variant-B cluster model file, with fields replaced."""
    payload = {"format": lexical.CLUSTER_MODEL_VERSION, "variant": "B", "k": 3,
               "centroids": CLUSTER_CENTROIDS,
               "labels": {"0": "C_A", "1": "M_A", "2": "I_A"}}
    return json.dumps({**payload, **fields})


@pytest.mark.parametrize("content, needle", [
    ("[centroids]\n", "not a JSON file"),
    (json.dumps({"format": lexical.CLUSTER_MODEL_VERSION, "variant": "B",
                 "centroids": [[0.0] * 6] * 3,
                 "labels": {"0": "C_A", "1": "M_A", "2": "X_A"}}),
     "malformed cluster model (KeyError: 'X_A')"),
    (json.dumps({"format": lexical.CLUSTER_MODEL_VERSION, "variant": "B"}),
     "malformed cluster model (KeyError: 'centroids')"),
    (_cluster_model(labels={"0": "C_A", "1": "M_A"}),
     "labels {0: C_A, 1: M_A} must give clusters 0, 1 and 2 one class each"),
    (_cluster_model(labels={"0": "C_A", "1": "C_A", "2": "I_A"}),
     "labels {0: C_A, 1: C_A, 2: I_A} must give clusters 0, 1 and 2 one class each"),
    (_cluster_model(labels={"0": "C_A", "1": "M_A", "3": "I_A"}),
     "labels {0: C_A, 1: M_A, 3: I_A} must give clusters 0, 1 and 2 one class each"),
    (_cluster_model(centroids=[[0.9, 0.0, 0.05, float("nan")]] + CLUSTER_CENTROIDS[1:]),
     "malformed cluster model (ValueError: non-finite number NaN)"),
    (_cluster_model(centroids=[["0.9", 0.04, 0.03, 0.03]] + CLUSTER_CENTROIDS[1:]),
     "malformed cluster model (ValueError: centroid '0.9' is a str)"),
    (_cluster_model(centroids=[[True, 0.04, 0.03, 0.03]] + CLUSTER_CENTROIDS[1:]),
     "malformed cluster model (ValueError: centroid True is a bool)"),
    (_cluster_model(labels={" 0": "C_A", "1": "M_A", "2": "I_A"}),
     "malformed cluster model (ValueError: label keys [' 0', '1', '2'] are not all "
     "plain integers)"),
    (_cluster_model(labels={"0": "C_A", "01": "M_A", "2": "I_A"}),
     "malformed cluster model (ValueError: label keys ['0', '01', '2'] are not all "
     "plain integers)"),
    (_cluster_model(variant="A"), "variant 'A', expected 'B'"),
    (_cluster_model(centroids=[row + [0.0] for row in CLUSTER_CENTROIDS]),
     "centroids of shape (3, 5), expected (3, 4)"),
    ("[" * 200_000, "not a JSON file"),
], ids=["not_json", "unknown_class", "no_centroids", "missing_cluster",
        "repeated_class", "cluster_out_of_range", "nan_centroid", "text_centroid",
        "bool_centroid", "spaced_label_key", "padded_label_key", "variant_a",
        "wrong_shape", "too_deep"])
def test_bad_cluster_model_exits_2(small_corpus, tmp_path, capsys, content, needle):
    (tmp_path / "cluster_model.json").write_text(content)
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={tmp_path}",
             "--jobs", "1", "asr-align")
    assert rc == 2
    _one_line_schema_error(capsys, "cluster_model.json: ", needle)


def _read_report(path):
    cli.cmd_report(load_config(overrides=[f"out_dir={path.parent}"]), None)


ONE_STAGE_FEATURES = list(classify.PLANS["one_stage"].stages[0].features)
PAST_FLOAT = 10 ** 400  # a JSON integer that no float can hold
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]  # 1e999 overflows to inf

# reader: (read, file name, format, what its messages call the file, fields
# of which one has the wrong type, fields with a given value where a number goes)
SAVED_JSON_READERS = {
    "classifier_model": (
        classify.load_model, "model.json", classify.MODEL_VERSION, "classifier model",
        {"plan": "one_stage", "stages": 1},
        lambda v: {"plan": "one_stage", "stages": [{
            "features": ONE_STAGE_FEATURES, "n_classes": 3,
            "importances": [v] * len(ONE_STAGE_FEATURES)}]}),
    "cluster_model": (
        lexical.load_cluster_model, "cluster_model.json", lexical.CLUSTER_MODEL_VERSION,
        "cluster model",
        {"variant": "B", "centroids": CLUSTER_CENTROIDS, "labels": []},
        lambda v: {"variant": "B", "centroids": [[v] * 4] * 3, "labels": {}}),
    "report": (
        _read_report, "cvreport.json", classify.REPORT_VERSION, "report",
        {"plan": "one_stage", "folds": 7, "seed": 0, "accuracy": "high"},
        lambda v: {"plan": "one_stage", "folds": 7, "seed": 0, "accuracy": v}),
}


@pytest.mark.parametrize("reader, case", [
    (reader, case) for reader in SAVED_JSON_READERS
    for case in ("missing", "other_format", "wrong_type", "past_float", "text_number",
                 "bool_number", *NON_FINITE)
    # report reads only the cvreport files that exist
    if (reader, case) != ("report", "missing")])
def test_saved_json_reader_rule(tmp_path, reader, case):
    """Every saved-JSON reader fails alike: a missing file raises NoModel,
    and a file of another format, with a field it cannot read, with a bool
    or text where a number goes or with a non-finite number raises
    SchemaMismatch naming the file."""
    read, name, version, what, wrong_type, number = SAVED_JSON_READERS[reader]
    path = tmp_path / name
    if case == "missing":
        with pytest.raises(NoModel, match=f"^no {what} at {re.escape(str(path))}$"):
            read(path)
        return
    fields, needle = {
        "other_format": ({"format": "other-v1"}, f"not a {version} {what}"),
        "wrong_type": ({"format": version, **wrong_type}, f"malformed {what} ("),
        "past_float": ({"format": version, **number(PAST_FLOAT)},
                       f"malformed {what} (OverflowError: "),
        "text_number": ({"format": version, **number("0.5")},
                        f"malformed {what} (ValueError: "),
        "bool_number": ({"format": version, **number(True)},
                        f"malformed {what} (ValueError: "),
    }.get(case, ({"format": version, **number("@")},
                 f"malformed {what} (ValueError: non-finite number {case})"))
    # a non-finite case writes its literal in place of "@" (json.dumps spells no 1e999)
    path.write_text(json.dumps(fields).replace('"@"', case))
    with pytest.raises(SchemaMismatch, match=f"^{re.escape(f'{path}: {needle}')}"):
        read(path)


@pytest.fixture(scope="module")
def no_feature_rows(small_corpus, tmp_path_factory):
    """The header-only features.csv that featurize writes when every
    recording fails."""
    corpus = tmp_path_factory.mktemp("corpus_no_intervals")
    shutil.copytree(small_corpus, corpus, dirs_exist_ok=True)
    for path in corpus.glob("*.intervals.csv"):
        path.unlink()
    out = tmp_path_factory.mktemp("out_no_rows")
    rc = run("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}",
             "--jobs", "1", "featurize")
    assert rc == 1
    assert read_rows(out / "features.csv") == []
    return out / "features.csv"


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_empty_feature_table_exits_2(small_corpus, no_feature_rows, tmp_path, capsys,
                                     command):
    shutil.copy(no_feature_rows, tmp_path / "features.csv")
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={tmp_path}",
             "--jobs", "1", command)
    assert rc == 2
    _one_line_schema_error(capsys, "features.csv: no feature rows")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv"]


def test_predict_on_empty_feature_table_writes_header_only(
        small_corpus, no_feature_rows, one_stage_model, tmp_path):
    shutil.copy(no_feature_rows, tmp_path / "features.csv")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(one_stage_model))
    rc = run("--set", f"corpus_root={small_corpus}", "--set", f"out_dir={tmp_path}",
             "--jobs", "1", "predict", "--model", str(model))
    assert rc == 0
    assert (tmp_path / "predictions.csv").read_text() == "id,skill\n"


def _corpus_with_copied_recording(small_corpus, tmp_path, rid):
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus)
    for suffix in (".wav", ".intervals.csv", ".words.csv", ".hyp.csv"):
        shutil.copy(corpus / f"c_a_000{suffix}", corpus / f"{rid}{suffix}")
    out = tmp_path / "out"
    return out, ("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}", "--jobs", "1")


@pytest.mark.parametrize("rid", ["two\rlines", "two\nlines"])
def test_recording_id_with_a_line_end_fails_alone(small_corpus, tmp_path, rid):
    out, settings = _corpus_with_copied_recording(small_corpus, tmp_path, rid)
    assert run(*settings, "featurize") == 1
    assert (out / "errors.log").read_text() == (
        f"{rid!r}: SchemaMismatch: recording id holds CR or LF, which would split its "
        "errors.log line\n")
    rows = read_rows(out / "features.csv")
    assert len(rows) == 9 and all(len(r.split(",")) == 19 for r in rows)
    assert run(*settings, "--set", "folds=3", "evaluate") == 0
    assert run(*settings, "cluster") == 1
    clusters = (out / "clusters.csv").read_text().splitlines()
    assert len(clusters) == 10 and all(len(r.split(",")) == 3 for r in clusters)


@pytest.mark.parametrize("rid", ["smith, j", 'say "hi"'])
def test_recording_id_with_csv_syntax_is_one_quoted_cell(small_corpus, tmp_path, rid):
    out, settings = _corpus_with_copied_recording(small_corpus, tmp_path, rid)
    quoted = '"' + rid.replace('"', '""') + '"'
    with (tmp_path / "corpus" / "labels.csv").open("a") as fh:
        fh.write(f"{quoted},C_A\n")
    assert run(*settings, "featurize", "--dump-frames", "--dump-events") == 0
    assert (out / "errors.log").read_text() == ""
    rows = read_rows(out / "features.csv")
    assert len(rows) == 10 and rows[-1] == quoted + rows[0][len("c_a_000"):]
    assert (out / f"frames_{rid}.csv").read_bytes() == (out / "frames_c_a_000.csv").read_bytes()
    assert run(*settings, "--set", "folds=3", "evaluate") == 0
    for command, table in (("cluster", "clusters.csv"), ("asr-align", "asr_classes.csv")):
        assert run(*settings, command) == 0
        lines = (out / table).read_text().splitlines()
        assert len(lines) == 11 and lines[-1].startswith(quoted + ",")
        assert lines[-1][len(quoted):] == lines[1][len("c_a_000"):]


@pytest.mark.parametrize("label", ["C,A", '"C_A', "C\rA", "C\nA"])
def test_class_holding_csv_syntax_stays_one_cell(small_corpus, one_stage_model, tmp_path,
                                                 capsys, label):
    # unquoted, such a class split its features.csv row, and predict, which
    # needs no class, rejected the whole table
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus)
    lines = (corpus / "labels.csv").read_text().splitlines()
    assert lines[0] == "c_a_000,C_A"
    lines[0] = 'c_a_000,"' + label.replace('"', '""') + '"'
    (corpus / "labels.csv").write_text("\n".join(lines) + "\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(one_stage_model))
    out = tmp_path / "out"
    settings = ("--set", f"corpus_root={corpus}", "--set", f"out_dir={out}", "--jobs", "1")
    assert run(*settings, "featurize") == 0
    assert run(*settings, "predict", "--model", str(model)) == 0
    predictions = (out / "predictions.csv").read_text().splitlines()
    assert len(predictions) == 10 and predictions[1].startswith("c_a_000,")
    capsys.readouterr()
    assert run(*settings, "--set", "folds=3", "evaluate") == 2
    err = capsys.readouterr().err
    assert err == f"error: UnknownLabel: c_a_000: class {label!r} is not one of " \
                  f"{lexical.SKILL_NAMES}\n"


GLIBC = platform.libc_ver()[0] == "glibc"


def _featurize_minor_faults(corpus, out) -> int:
    """Minor page faults of one ``featurize --dump-frames --dump-events``
    run at --jobs 1, in a fresh process."""
    child = subprocess.Popen(
        [sys.executable, "-m", "readskill.cli", "--set", f"corpus_root={corpus}",
         "--set", f"out_dir={out}", "--jobs", "1", "featurize", "--dump-frames",
         "--dump-events"], stdout=subprocess.DEVNULL, env=checkout_env())
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    return usage.ru_minflt


@pytest.mark.skipif(not GLIBC, reason="the heap policy under test is glibc's")
def test_featurize_does_not_refault_freed_memory(tmp_path):
    # under glibc's default policy every recording's freed temporaries went
    # back to the kernel, and each 8 s recording past the first cost
    # ~1,800-3,400 minor faults
    faults = {}
    for per_class in (1, 4):
        corpus = tmp_path / f"corpus_{per_class}"
        synth.write_corpus(corpus, per_class=per_class, duration=8.0, seed=0)
        faults[3 * per_class] = _featurize_minor_faults(corpus, tmp_path / f"out_{per_class}")
    assert (faults[12] - faults[3]) / 9 < 100, faults


@pytest.mark.skipif(not GLIBC, reason="glibc's mallopt")
def test_keep_freed_heap_sets_both_thresholds_on_glibc():
    assert cli._keep_freed_heap() == (1, 1)


def test_cli_runs_the_same_without_mallopt(monkeypatch, capsys):
    assert main(["config", "--dump"]) == 0
    expected = capsys.readouterr().out
    # a C library without mallopt, as on macOS and Windows
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert cli._keep_freed_heap() == ()
    assert main(["config", "--dump"]) == 0
    assert capsys.readouterr().out == expected


def test_pool_workers_keep_freed_heap(monkeypatch):
    # forkserver and spawn workers do not inherit the parent's malloc settings
    asked = _fake_pool(monkeypatch)
    with cli._pool_map(2, 2) as map_fn:
        assert list(map_fn(abs, [-1, 2])) == [1, 2]
    assert asked == [(2, cli._keep_freed_heap)]
