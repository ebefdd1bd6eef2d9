"""The benchmark's workloads: what each one generates, which readskill
commands it times, and how its outputs are checked.

Every workload is a closed loop from the one benchmark process: one CLI command
at a time, the next one starting when the previous one exits, as an
operator's batch script runs them. No command uses more than --jobs 2.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

PLANS3 = "one_stage,two_stage_P,two_stage_Q"
# With pausing randomized, C_A and M_A are hard to tell apart: CV accuracy
# measured 0.40-0.57 per plan over seeds 1-10. The floor sits above chance
# (1/3), so a forest that stops learning fails the check.
CONTROL_CV_FLOOR = 0.35
# Recordings are 5 s, the synthesizer's minimum, rather than 10 s: one run,
# set-up included, has to stay near a minute on a 2-core machine so that the
# fifty-odd runs of a parent-versus-change comparison fit in an hour.
DURATION_S = 5.0


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload's chain."""

    label: str
    args: tuple[str, ...]
    out: str = "main"        # output directory key


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                 # "audio" or "lexical" inputs
    per_class: int
    steps: tuple[Step, ...]
    hot: tuple[str, ...]      # steps whose summed wall time is hot_stage_s
    pause_style: str = "class"
    sentences: int = 40       # story length / 10 words (lexical)
    settings: tuple[str, ...] = ()
    setup_reps: int = 1
    launches: int = 0         # `config --dump` launches behind cli_start_s
    cv_floor: float | None = None
    asr_floor: float | None = None

    @property
    def n_records(self) -> int:
        return 3 * self.per_class

    @property
    def audio_s(self) -> float:
        return self.n_records * DURATION_S if self.kind == "audio" else 0.0


# The --jobs 1 featurize baseline runs in the traced run only, as the
# untraced reference of its --jobs 1 chain. The dump run counts in
# pipeline_s and hot_stage_s, so that a shortcut which skips frame tracks
# cannot hide a cost to dump users.
AUDIO_STEPS = (
    Step("featurize", ("featurize",)),
    Step("featurize_dump", ("featurize", "--dump-frames", "--dump-events"), out="dump"),
    Step("cluster", ("cluster",)),
    Step("evaluate", ("evaluate",)),
    Step("train", ("train",)),
    Step("predict", ("predict",)),
    Step("asr_align", ("asr-align",)),
    Step("report", ("report",)),
)

LEXICAL_STEPS = (
    Step("cluster", ("cluster",)),
    Step("asr_align", ("asr-align",)),
)

# Two workloads, so that each run can measure for long enough on a noisy
# shared host. The audio batch runs on the randomized-pause control corpus:
# frame analysis and the deep forests it grows both do real work there,
# while alignment of its 40-word story stays trivial. The lexical workload
# has no audio and no forest, so it is the one where dsp and classify
# changes should move nothing.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="control189",
        why=("189 randomized-pause recordings through the whole CLI chain: frame "
             "analysis and deep forests do the work; alignment stays trivial"),
        kind="audio", per_class=63, pause_style="randomized", steps=AUDIO_STEPS,
        hot=("featurize", "featurize_dump", "evaluate"), settings=(f"plan={PLANS3}",),
        cv_floor=CONTROL_CV_FLOOR,
    ),
    Workload(
        name="lexical189",
        why=("transcript-only readers of a 400-word story: alignment DP and "
             "k-means/silhouette do the work; no audio, no forest"),
        kind="lexical", per_class=63, steps=LEXICAL_STEPS, hot=("asr_align",),
        setup_reps=3, launches=3, asr_floor=0.95,
    ),
)}

# Tiny corpora for the benchmark's own tests; same steps and checks, except
# the CV accuracy floor, which 21 recordings are too few to hold.
SMOKE = {
    "control189": dict(per_class=7, cv_floor=None),
    "lexical189": dict(per_class=7, sentences=10, setup_reps=2, launches=2),
}


# ------------------------------------------------------------------ checks

def _rows(path: Path, skip: int) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [r for r in list(csv.reader(fh))[skip:] if r]


def _accuracy(confusion_csv: Path) -> float:
    rows = [[int(v) for v in r[1:]] for r in _rows(confusion_csv, 1)]
    total = sum(map(sum, rows))
    return sum(rows[i][i] for i in range(len(rows))) / total if total else 0.0


def _error_ids(out: Path) -> set[str]:
    log = out / "errors.log"
    return {line.split(":", 1)[0] for line in log.read_text().splitlines() if line}


def check_step(w: Workload, step: Step, out: Path, ids: list[str]):
    """Output checks of one command: (problems, ids of bad records).

    A missing output file raises OSError, which the caller counts as a
    failed command.
    """
    problems: list[str] = []
    bad: set[str] = set()
    expected = set(ids)

    def rows_cover(path: Path, skip: int) -> None:
        got = [r[0] for r in _rows(path, skip)]
        if len(got) != len(ids):
            problems.append(f"{path.name}: {len(got)} rows, expected {len(ids)}")
        bad.update(expected - set(got))

    command = step.args[0]
    plans = _plans(w)
    if command == "featurize":
        bad.update(_error_ids(out))
        rows_cover(out / "features.csv", 2)
        for prefix in ("frames", "events"):
            if f"--dump-{prefix}" in step.args:
                bad.update(r for r in ids if not (out / f"{prefix}_{r}.csv").is_file())
    elif command == "cluster":
        rows_cover(out / "clusters.csv", 1)
    elif command == "evaluate":
        for plan in plans:
            suffix = "" if len(plans) == 1 else f"_{plan}"
            payload = json.loads((out / f"cvreport{suffix}.json").read_text())
            if w.cv_floor is not None and payload["accuracy"] < w.cv_floor:
                problems.append(f"{plan} CV accuracy {payload['accuracy']:.4f} "
                                f"under floor {w.cv_floor}")
    elif command == "train":
        problems += [f"no model_{p}.json" for p in plans
                     if not (out / f"model_{p}.json").is_file()]
    elif command == "predict":
        rows_cover(out / "predictions.csv", 1)
    elif command == "asr-align":
        bad.update(_error_ids(out))
        rows_cover(out / "asr_classes.csv", 1)
        acc = _accuracy(out / "asr_confusion.csv")
        if w.asr_floor is not None and acc < w.asr_floor:
            problems.append(f"asr_confusion accuracy {acc:.4f} under floor {w.asr_floor}")
    elif command == "report":
        if not (out / "report.txt").read_text().strip():
            problems.append("empty report.txt")
    if bad:
        problems.append(f"{len(bad)} records failed, e.g. {sorted(bad)[0]}")
    return problems, bad


def _plans(w: Workload) -> list[str]:
    for s in w.settings:
        if s.startswith("plan="):
            return s[len("plan="):].split(",")
    return ["one_stage"]


DIGESTED = ("features.csv", "cvreport*.json", "predictions.csv", "asr_classes.csv")
