"""System-level acceptance checks, one test per criterion.

Every test prints a single `CRITERION n PASS/FAIL: ...` line before its
assertion, so the verdicts read off a `pytest -s` run directly and a
failing criterion shows the same line in the captured output. Stated
tolerances and runtime budgets are asserted, not just reported.
"""

import time
from dataclasses import replace

import numpy as np

from readskill import classify, featurize, lexical, synth
from readskill.asr_align import align
from readskill.cli import main as cli_main
from readskill.config import RunConfig
from readskill.corpus import load_wav, parse_intervals, scan_corpus
from readskill.dsp import _centroid_batch, build_track
from readskill.dynamics import intensity_dynamics, spectral_dynamics, speech_by_sentence
from readskill.lexical import SkillClass
from readskill.pauses import detect_syllables, extract_pauses

SAMPLE_RATE = 16000


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _feature_matrix(root):
    """Featurize every recording under root with default settings."""
    index = scan_corpus(root)
    cfg = RunConfig().feature
    rows, labels = [], []
    for rid in index.ids:
        samples = load_wav(index.wav_path(rid))
        ivs, _ = parse_intervals(index.intervals_path(rid), len(samples) / SAMPLE_RATE)
        values, *_ = featurize.extract_features(samples, ivs, index.story, cfg)
        rows.append(values)
        labels.append(int(SkillClass[index.labels[rid]]))
    return np.array(rows), np.array(labels)


def test_criterion_1_confusion_accuracy_arithmetic():
    three_class = np.array([[51, 7, 12], [15, 35, 13], [7, 6, 43]])
    remapped = np.array([[51, 10, 9], [11, 40, 12], [6, 4, 46]])
    classify.accuracy(np.eye(3))  # warm-up so the timed region is pure arithmetic
    t0 = time.perf_counter()
    acc3 = classify.accuracy(three_class)
    acc4 = classify.accuracy(remapped)
    elapsed = time.perf_counter() - t0
    ok = (abs(acc3 - 129 / 189) < 1e-9 and abs(acc4 - 137 / 189) < 1e-9
          and round(acc3 * 100, 1) == 68.3 and round(acc4 * 100, 1) == 72.5
          and elapsed < 1e-3)
    _report(1, ok, f"accuracies {acc3:.5f}/{acc4:.5f} vs 129/189 and 137/189 "
                   f"in {elapsed * 1e3:.3f} ms")


def _silhouette_oracle(points: np.ndarray, idx: np.ndarray) -> float:
    """Brute-force mean silhouette from the full pairwise distance matrix."""
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    clusters = np.unique(idx)
    scores = np.zeros(len(points))
    for i in range(len(points)):
        own = idx[i]
        size_own = int((idx == own).sum())
        if size_own <= 1:
            continue
        a = dist[i, idx == own].sum() / (size_own - 1)
        b = min(dist[i, idx == c].mean() for c in clusters if c != own)
        top = max(a, b)
        scores[i] = (b - a) / top if top > 0.0 else 0.0
    return float(scores.mean())


def test_criterion_2_silhouette_matches_bruteforce():
    rng = np.random.default_rng(826)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 6))
        points = rng.normal(size=(n, d))
        idx = rng.integers(0, k, size=n)
        if len(np.unique(idx)) < 2:
            idx[:2] = [0, 1]
        worst = max(worst, abs(lexical.silhouette(points, idx)
                               - _silhouette_oracle(points, idx)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(2, ok, f"100 datasets, worst deviation {worst:.2e} in {elapsed:.1f} s")


def _adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """Pair-counting ARI over the upper triangle of the agreement matrices."""
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    upper = np.triu(np.ones_like(same_a, dtype=bool), k=1)
    index = float((same_a & same_b & upper).sum())
    n_a = float((same_a & upper).sum())
    n_b = float((same_b & upper).sum())
    pairs = float(upper.sum())
    expected = n_a * n_b / pairs
    maximum = (n_a + n_b) / 2.0
    return (index - expected) / (maximum - expected)


def _largest_remainder(raw: tuple[int, ...], total: int) -> tuple[int, ...]:
    quotas = [r * total / sum(raw) for r in raw]
    base = [int(q) for q in quotas]
    order = sorted(range(len(raw)), key=lambda i: quotas[i] - base[i], reverse=True)
    for i in order[:total - sum(base)]:
        base[i] += 1
    return tuple(base)


def test_criterion_3_cluster_recovery_imbalanced():
    counts = _largest_remainder((687, 329, 56), 300)
    assert counts == (192, 92, 16)
    centers = np.array([[0.90, 0.05, 0.03, 0.02],
                        [0.55, 0.10, 0.30, 0.05],
                        [0.50, 0.12, 0.10, 0.28]])
    t0 = time.perf_counter()
    failures = []
    for seed in range(10):
        rng = np.random.default_rng([seed, 77])
        points = np.vstack([centers[c] + rng.normal(0.0, 0.02, size=(counts[c], 4))
                            for c in range(3)])
        truth = np.repeat([0, 1, 2], counts)
        model = lexical.kmeans(points, 3, seed=seed)
        ari = _adjusted_rand(truth, model.assignments)
        fits = lexical.sweep_k(points, range(2, 7), seed=seed)
        best_k = max(fits, key=lambda k: fits[k].silhouette)
        if ari != 1.0 or best_k != 3:
            failures.append(f"seed {seed}: ari={ari:.4f} best_k={best_k}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(3, ok, f"10 seeds, ARI 1.0 and argmax K=3 at sizes {counts} "
                   f"in {elapsed:.1f} s" + ("; " + "; ".join(failures) if failures else ""))


def _am_tone(mod_hz: float, seconds: float, carrier_hz: float = 1000.0) -> np.ndarray:
    t = np.arange(int(seconds * SAMPLE_RATE)) / SAMPLE_RATE
    env = 0.5 - 0.5 * np.cos(2.0 * np.pi * mod_hz * t)
    return env * np.sin(2.0 * np.pi * carrier_hz * t)


def test_criterion_4_dsp_oracles():
    t0 = time.perf_counter()
    failures = []

    # pause boundaries on scheduled-pause recordings, noise floor disabled
    for seed, duration in [(0, 8.0), (3, 10.0), (11, 12.0)]:
        profile = synth.make_profile(SkillClass.M_A, seed=seed, noise_dbfs=-200.0)
        samples, _, _, sched = synth.generate(profile, duration=duration)
        track = build_track(samples)
        pauses = extract_pauses(track.is_speech)
        if len(pauses) != len(sched):
            failures.append(f"pauses seed {seed}: {len(pauses)} vs {len(sched)}")
            continue
        for (got_start, got_duration), (start, dur) in zip(pauses, sched):
            if (abs(got_start - start) > 0.03
                    or abs(got_start + got_duration - (start + dur)) > 0.03):
                failures.append(f"pauses seed {seed}: boundary off at {start:.2f}")

    # syllable counts within one bump on 5 s modulated tones
    for mod_hz in (2.0, 4.0):
        x = _am_tone(mod_hz, 5.0)
        track = build_track(x)
        peaks = detect_syllables(x, track.is_speech)
        if abs(len(peaks) - mod_hz * 5.0) > 1:
            failures.append(f"{mod_hz} Hz tone: {len(peaks)} peaks")

    # spectral centroid of a pure 1 kHz sine, one fft bin of slack
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    sine = 0.5 * np.sin(2.0 * np.pi * 1000.0 * t)
    frame_value = _centroid_batch(sine[None, :400])[0]
    if abs(frame_value - 1000.0) > 31.25:
        failures.append(f"frame centroid {frame_value:.1f}")
    sine_track = build_track(sine)
    mid = sine_track.centroid_hz[20:80]
    if np.abs(mid - 1000.0).max() > 31.25:
        failures.append(f"track centroid worst {np.abs(mid - 1000.0).max():.1f}")

    # uniform dB offset leaves both dynamics groups untouched
    profile = synth.make_profile(SkillClass.C_A, seed=2)
    samples, intervals, _, _ = synth.generate(profile, duration=10.0)
    track = build_track(samples)
    sentences = speech_by_sentence(track, intervals)
    base = (spectral_dynamics(track.centroid_hz, sentences)
            + intensity_dynamics(track.intensity_db, sentences))
    for delta in (6.0206, -12.5):
        shifted = replace(track, energy=track.energy * 10.0 ** (delta / 10.0),
                          intensity_db=track.intensity_db + delta)
        shifted_sentences = speech_by_sentence(shifted, intervals)
        off = (spectral_dynamics(shifted.centroid_hz, shifted_sentences)
               + intensity_dynamics(shifted.intensity_db, shifted_sentences))
        # all 7 values: 3 spectral, then 4 intensity
        drift = max(abs(a - b) for a, b in zip(off, base))
        if drift > 1e-9:
            failures.append(f"offset {delta:+.2f} dB drifted {drift:.2e}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(4, ok, f"pauses/syllables/centroid/offset in {elapsed:.1f} s"
                   + ("; " + "; ".join(failures) if failures else ""))


def _distance_oracle(ref: list[str], hyp: list[str]) -> int:
    """Forward prefix-matrix edit distance with unit costs."""
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            d[i, j] = min(sub, d[i - 1, j] + 1, d[i, j - 1] + 1)
    return int(d[n, m])


def test_criterion_5_alignment_distance_oracle():
    rng = np.random.default_rng(190)
    vocab = ["a", "b", "ab", "ba", "cat"]
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        ref = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(1, 9))]
        hyp = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 9))]
        got, _ = align(ref, hyp)
        if got != _distance_oracle(ref, hyp):
            mismatches += 1
    frag_dist, frag_ops = align("branch of an old".split(), "bran an oll".split())
    elapsed = time.perf_counter() - t0
    frag_ok = frag_dist == 3 and [o.op for o in frag_ops] == ["s", "d", "c", "s"]
    ok = mismatches == 0 and frag_ok and elapsed < 5.0
    _report(5, ok, f"{mismatches}/1000 oracle mismatches, fragment "
                   f"dist={frag_dist} ops={[o.op for o in frag_ops]} in {elapsed:.1f} s")


def test_criterion_6_end_to_end_cv_accuracy(tmp_path):
    t0 = time.perf_counter()
    root = tmp_path / "corpus"
    synth.write_corpus(root, per_class=20, duration=10.0, seed=0)
    X, y = _feature_matrix(root)
    results, failures = [], []
    for plan_id, floor in [("two_stage_P", 0.80), ("one_stage", 0.75)]:
        for seed in (0, 1, 2):
            rep = classify.cross_validate(classify.PLANS[plan_id], X, y, seed=seed)
            results.append(f"{plan_id}/s{seed}={rep.accuracy:.3f}")
            if rep.accuracy < floor:
                failures.append(f"{plan_id} seed {seed}: {rep.accuracy:.3f} < {floor}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _report(6, ok, f"60 recordings, 7-fold CV {' '.join(results)} in {elapsed:.0f} s"
                   + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_7_byte_identical_reruns(small_corpus, tmp_path):
    def pipeline(out, jobs):
        out.mkdir()
        assert cli_main(["--set", f"corpus_root={small_corpus}",
                         "--set", f"out_dir={out}", "--set", "folds=3",
                         "--jobs", str(jobs), "featurize"]) == 0
        features = (out / "features.csv").read_bytes()
        assert cli_main(["--set", f"corpus_root={small_corpus}",
                         "--set", f"out_dir={out}", "--set", "folds=3",
                         "--jobs", str(jobs), "evaluate"]) == 0
        return {"features.csv": features,
                "cvreport.json": (out / "cvreport.json").read_bytes(),
                "confusion.csv": (out / "confusion.csv").read_bytes(),
                "errors.log": (out / "errors.log").read_bytes()}

    first = pipeline(tmp_path / "a", jobs=1)
    second = pipeline(tmp_path / "b", jobs=1)
    parallel = pipeline(tmp_path / "c", jobs=2)
    stale = [name for name in first if first[name] != second[name]]
    jobs_diff = [name for name in first if first[name] != parallel[name]]
    ok = not stale and not jobs_diff
    _report(7, ok, "featurize+evaluate reruns byte-identical, --jobs 2 agrees"
                   + (f"; rerun diffs {stale}" if stale else "")
                   + (f"; jobs diffs {jobs_diff}" if jobs_diff else ""))


def test_criterion_8_pause_importance_ranks_last(tmp_path):
    root = tmp_path / "corpus"
    synth.write_corpus(root, per_class=20, duration=10.0, seed=0,
                       pause_style="randomized")
    X, y = _feature_matrix(root)
    rep = classify.cross_validate(classify.PLANS["one_stage"], X, y, seed=0)
    pause = float(np.mean([rep.importances[n]
                           for n in featurize.FEATURE_GROUPS["pause"]]))
    dynamics = float(np.mean([rep.importances[n]
                              for n in featurize.FEATURE_GROUPS["spectral_dynamics"]
                              + featurize.FEATURE_GROUPS["intensity_dynamics"]]))
    ok = pause < dynamics
    _report(8, ok, f"randomized pauses: pause group mean {pause:.4f} vs "
                   f"dynamics group mean {dynamics:.4f}")


def test_criterion_9_extraction_speed():
    profile = synth.make_profile(SkillClass.M_A, seed=5)
    samples, intervals, _, _ = synth.generate(profile, duration=60.0)
    story = synth.default_story()
    cfg = RunConfig().feature
    t0 = time.perf_counter()
    featurize.extract_features(samples, intervals, story, cfg)
    elapsed = time.perf_counter() - t0
    budget = 2.0 * (len(samples) / SAMPLE_RATE / 60.0)
    ok = elapsed <= budget
    _report(9, ok, f"60 s recording featurized in {elapsed:.2f} s (budget {budget:.1f} s)")
