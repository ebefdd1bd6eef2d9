"""readskill benchmark: builds a workload from a seed, runs the real
readskill CLI on it one command at a time, times every command from
outside, checks the outputs and prints the metrics.

    python3 perfbench/run.py --workload control189 --seed 1 --seconds 50 --trace 0

--trace 0 prints the end-to-end metrics. Their times are wall times
scaled to a reference host speed that calibrate.py samples on every core
while the commands run; the raw wall times are printed beside them.
--trace 1 runs every command
with --jobs 1 through perfbench/shim.py and prints the per-layer metrics
instead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a table
for people, run metadata and output digests. The full result is also kept
in .bench_work/results/. Every child runs the checkout's src/ through
PYTHONPATH, never an installed copy, and the benchmark exits with code 2
without a result when that source is not there.
"""
from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    DIGESTED, DURATION_S, SMOKE, WORKLOADS, Step, Workload, check_step)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
# Commands still running this long after start are killed, so that a run
# always ends inside its 180 s limit.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "hot_stage_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed with the end-to-end metrics on the workloads that have them; not
# part of the JSON, which must hold the same metrics on every workload.
# raw_* are the unscaled wall times; host_speed_x is the run's mean host
# speed against the reference (below 1 on a slow minute).
# cli_start_s is measured on lexical189 only: the import that every command
# pays is already most of pipeline_s on both workloads.
WORKLOAD_ONLY = {
    "raw_setup_s": ("s", "lower"),
    "raw_pipeline_s": ("s", "lower"),
    "raw_hot_stage_s": ("s", "lower"),
    "host_speed_x": ("x", "higher"),
    "featurize_j1_audio_x": ("audio-s/s", "higher"),
    "featurize_j2_audio_x": ("audio-s/s", "higher"),
    "featurize_dump_audio_x": ("audio-s/s", "higher"),
    "evaluate_s": ("s", "lower"),
    "asr_align_s": ("s", "lower"),
    "cli_start_s": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
}

LAYER_COUNTERS = {
    "corpus.bytes_read": "bytes", "dsp.frames": "count", "dsp.harm_band_frac": "ratio",
    "pauses.peaks": "count", "classify.trees": "count", "classify.nodes": "count",
    "classify.gini_scans": "count", "classify.model_bytes": "bytes",
    "asr_align.cells": "count", "cli.pool_efficiency": "ratio",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}
HIGHER_IS_BETTER = {"dsp.harm_band_frac", "cli.pool_efficiency"}

# Which end-to-end number each layer should move, and where it should not;
# printed with the traced run so that a per-layer change can be checked
# against the workload it claims.
LAYER_MOVES = {
    "cli.import*": "cli_start_s on lexical189; pipeline_s on both workloads (every "
                   "command pays it); not the featurize throughput",
    "cli.pool_efficiency": "featurize_j2_audio_x, hot_stage_s on control189",
    "corpus.load_wav*, corpus.bytes_read": "hot_stage_s, pipeline_s on control189",
    "corpus.parse*": "pipeline_s on lexical189",
    "dsp.*": "featurize_j2_audio_x, hot_stage_s on control189; not "
             "featurize_dump_audio_x, which needs full tracks; nothing on lexical189",
    "pauses.*, dynamics.*, featurize.extract*": "hot_stage_s, pipeline_s on control189",
    "featurize.dump*": "featurize_dump_audio_x, hot_stage_s on control189",
    "featurize.table_io*": "pipeline_s on control189",
    "lexical.*, svgplot.render*": "pipeline_s on lexical189",
    "classify.train_forest*, trees, nodes, gini_scan*, cv_fold*":
        "evaluate_s, hot_stage_s, pipeline_s on control189; nothing on lexical189",
    "classify.predict*, model_io*, model_bytes": "pipeline_s on control189",
    "asr_align.*": "asr_align_s, hot_stage_s on lexical189; nothing on control189",
    "synth.generate*": "setup_s on both workloads",
}


def layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    timed = ["cli.import", "cli.import_scipy_signal", *tracing.TIMED, "classify.cv_fold"]
    out = {}
    for name in timed:
        for key in ("s", "p50_s", "p90_s"):
            out[f"{name}_{key}"] = ("s", "lower")
        out[f"{name}_calls"] = ("count", "lower")
    for name, unit in LAYER_COUNTERS.items():
        out[name] = (unit, "higher" if name in HIGHER_IS_BETTER else "lower")
    return out


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Cmd:
    label: str
    wall: float
    cpu: float
    rss_kb: int
    rc: int
    stdout: Path
    stderr: Path
    start: float            # perf_counter at launch


class Launcher:
    """Starts children with the checkout's src/ first on PYTHONPATH and
    reaps them with wait4, which gives each command's own peak RSS
    (pool workers included)."""

    def __init__(self, logs: Path, deadline: float):
        self.logs = logs
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.count = 0
        self.commands: list[Cmd] = []

    def start(self, label: str, argv: list[str]):
        self.count += 1
        base = self.logs / f"{self.count:03d}-{label}"
        paths = (base.with_suffix(".out"), base.with_suffix(".err"))
        with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.logs, start_new_session=True)
        timer = threading.Timer(max(0.0, self.deadline - time.perf_counter()),
                                _kill_group, (proc.pid,))
        timer.daemon = True
        timer.start()
        return label, proc, t0, paths, timer

    def wait(self, handle) -> Cmd:
        label, proc, t0, paths, timer = handle
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd = Cmd(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  proc.returncode, *paths, t0)
        self.commands.append(cmd)
        return cmd

    def run(self, label: str, argv: list[str]) -> Cmd:
        return self.wait(self.start(label, argv))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _same_bytes(a: Path, b: Path) -> bool:
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Bench:
    """One run of one workload: set-up, timed chain, checks, metrics."""

    def __init__(self, w: Workload, seed: int, run_dir: Path, deadline: float):
        self.w = w
        self.seed = seed
        self.dir = run_dir
        self.corpus = run_dir / "corpus"
        self.spans = run_dir / "spans"
        for d in (run_dir / "logs", self.spans):
            d.mkdir(parents=True, exist_ok=True)
        self.launcher = Launcher(run_dir / "logs", deadline)
        self.ops: set[str] = set()
        self.failed_ops: set[str] = set()
        self.bad_ids: set[str] = set()
        self.problems: list[str] = []
        self.ids: list[str] = []

    # -- launching

    def _shim(self, entry: str, args: list[str], spans: str) -> list[str]:
        """argv of a traced child; CLI children also log their imports."""
        flags = ["-X", "importtime"] if entry == "cli" else []
        return [sys.executable, *flags, str(BENCH / "shim.py"),
                str(self.spans / f"{spans}.json"), entry, *args]

    def _gen(self, args: list[str], spans: str | None) -> list[str]:
        if spans is None:
            return [sys.executable, str(BENCH / "gen.py"), *args]
        return self._shim("gen", args, spans)

    def cli(self, label: str, args: tuple[str, ...], out: Path, jobs: int,
            spans: str | None = None) -> Cmd:
        cli_args = ["--set", f"corpus_root={self.corpus}", "--set", f"out_dir={out}",
                    *(a for s in self.w.settings for a in ("--set", s)),
                    "--jobs", str(jobs), *args]
        if spans is None:
            argv = [sys.executable, "-m", "readskill.cli", *cli_args]
        else:
            argv = self._shim("cli", cli_args, spans)
        return self.launcher.run(label, argv)

    def preflight(self) -> dict:
        """Versions of the code under test; refuses an installed readskill."""
        probe = ("import json, sys, numpy, scipy, readskill; print(json.dumps("
                 "{'readskill': readskill.__file__, 'python': sys.version.split()[0], "
                 "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
        cmd = self.launcher.run("preflight", [sys.executable, "-c", probe])
        if cmd.rc != 0:
            raise BenchError(f"cannot import readskill from {SRC}: {_tail(cmd.stderr)}")
        info = json.loads(_tail(cmd.stdout))
        if not Path(info.pop("readskill")).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"readskill does not resolve to {SRC}")
        return info

    # -- accounting

    def account(self, op: str, cmd: Cmd, step: Step | None = None, out: Path | None = None):
        self.ops.add(op)
        problems = []
        if cmd.rc != 0:
            problems.append(f"exit {cmd.rc}: {_tail(cmd.stderr)}")
        elif step is not None:
            try:
                found, bad = check_step(self.w, step, out, self.ids)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found, bad = [f"output check: {type(exc).__name__}: {exc}"], set()
            problems += found
            self.bad_ids |= bad
        self.fail(op, problems)

    def fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failed_ops.add(op)
            self.problems += [f"{op}: {p}" for p in problems]

    # -- set-up

    def generate(self, spans: str | None) -> None:
        w = self.w
        shutil.rmtree(self.corpus, ignore_errors=True)
        common = ["--seed", str(self.seed), "--per-class", str(w.per_class)]
        if w.kind == "lexical":
            cmd = self.launcher.run("gen", self._gen(
                ["lexical", str(self.corpus), *common, "--sentences", str(w.sentences)],
                spans))
            if cmd.rc != 0:
                raise BenchError(f"lexical generator failed: {_tail(cmd.stderr)}")
            return
        # one write_corpus call per class, rendered in parallel, then merged
        skills = ("C_A", "M_A", "I_A")
        handles = [self.launcher.start(f"gen-{s}", self._gen(
            ["audio", str(self.corpus / f"_{s}"), *common, "--skill", s,
             "--duration", repr(DURATION_S), "--pause-style", w.pause_style],
            spans and f"{spans}-{s}")) for s in skills]
        cmds = [self.launcher.wait(h) for h in handles]
        for cmd in cmds:
            if cmd.rc != 0:
                raise BenchError(f"audio generator failed: {_tail(cmd.stderr)}")
        tables = {"labels.csv": [], "metadata.csv": []}
        for s in skills:
            shard = self.corpus / f"_{s}"
            for name in tables:
                tables[name].append(shard.joinpath(name).read_text())
            shard.joinpath("story.txt").replace(self.corpus / "story.txt")
            for path in shard.iterdir():
                if path.name not in tables:
                    path.replace(self.corpus / path.name)
            shutil.rmtree(shard)
        for name, parts in tables.items():
            self.corpus.joinpath(name).write_text("".join(parts))

    def setup(self, traced: bool) -> list[tuple[float, float]]:
        """Build the inputs setup_reps times; returns each build's start
        and end on perf_counter."""
        spans = []
        for rep in range(1 if traced else self.w.setup_reps):
            t0 = time.perf_counter()
            self.generate(f"setup{rep}" if traced else None)
            spans.append((t0, time.perf_counter()))
        self.ids = self._ids()
        return spans

    def _ids(self) -> list[str]:
        suffix = ".wav" if self.w.kind == "audio" else ".words.csv"
        return sorted(p.name[:-len(suffix)] for p in self.corpus.glob(f"*{suffix}"))

    # -- timed part

    def chain(self, tag: str, steps, jobs: int, traced: bool = False):
        """Run steps in order into fresh output directories under tag."""
        cmds = {}
        for step in steps:
            out = self.dir / tag / step.out
            out.mkdir(parents=True, exist_ok=True)
            cmd = self.cli(step.label, step.args, out, jobs,
                           spans=f"{tag}-{step.label}" if traced else None)
            self.account(f"{tag}.{step.label}", cmd, step, out)
            cmds[step.label] = cmd
        featurized = [s for s in steps if s.args[0] == "featurize"]
        tables = [self.dir / tag / s.out / "features.csv" for s in featurized]
        if not all(_same_bytes(tables[0], t) for t in tables[1:]):
            self.fail(f"{tag}.{featurized[-1].label}",
                      ["features.csv differs between the featurize runs"])
        return cmds

    def launches(self, traced: bool) -> list[Cmd]:
        """Cold starts of `readskill config --dump`."""
        cmds = []
        for i in range(self.w.launches):
            if traced:
                argv = self._shim("cli", ["config", "--dump"], f"launch{i}")
            else:
                argv = [sys.executable, "-m", "readskill.cli", "config", "--dump"]
            cmd = self.launcher.run("config", argv)
            self.account(f"launch{i}", cmd)
            if cmd.rc == 0 and "corpus_root = " not in cmd.stdout.read_text():
                self.fail(f"launch{i}", ["config --dump printed no corpus_root"])
            cmds.append(cmd)
        return cmds

    def digests(self, tag: str) -> dict[str, str]:
        out = self.dir / tag / "main"
        found = {}
        for pattern in DIGESTED:
            for path in sorted(glob.glob(str(out / pattern))):
                found[Path(path).name] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        return found

    def counts(self) -> tuple[int, int]:
        attempted = len(self.ops) + len(self.ids)
        failed = len(self.failed_ops) + len(self.bad_ids)
        if len(self.ids) != self.w.n_records:
            self.problems.append(f"corpus has {len(self.ids)} records, "
                                 f"expected {self.w.n_records}")
            failed += 1
        return attempted, failed

    # -- the two kinds of run

    def run_untraced(self, seconds: float) -> dict:
        w = self.w
        sampler = calibrate.Sampler()
        sampler.start()
        try:
            setup_spans = self.setup(traced=False)
            passes = []
            t0 = last = time.perf_counter()
            while not passes or self._another_pass(seconds, last - t0, len(passes)):
                if passes:
                    shutil.rmtree(self.dir / f"pass{len(passes) - 1}")
                passes.append(self.chain(f"pass{len(passes)}", w.steps, jobs=2))
                last = time.perf_counter()
            launches = self.launches(traced=False)
        finally:
            sampler.stop()

        # Every time is scaled to the reference host speed over its own span.
        def scaled(t0: float, t1: float) -> float:
            return (t1 - t0) * sampler.factor(t0, t1)

        def cmd_s(c: Cmd) -> float:
            return scaled(c.start, c.start + c.wall)

        def stage_s(label: str) -> float:
            return statistics.median(cmd_s(p[label]) for p in passes)

        def times(span_s, cmd_s) -> dict[str, float]:
            return {
                "setup_s": statistics.median(span_s(*span) for span in setup_spans),
                "pipeline_s": statistics.median(sum(map(cmd_s, p.values())) for p in passes),
                "hot_stage_s": statistics.median(
                    sum(cmd_s(p[label]) for label in w.hot) for p in passes),
            }

        labels = {s.label for s in w.steps}
        timed = [c for p in passes for c in p.values()] + launches
        raw = times(lambda t0, t1: t1 - t0, lambda c: c.wall)
        metrics = {**times(scaled, cmd_s),
                   "peak_rss_mb": max(c.rss_kb for c in timed) / 1024.0}
        attempted, failed = self.counts()
        extra = {"failed_frac": failed / attempted,
                 "host_speed_x": sampler.factor(setup_spans[0][0], time.perf_counter()),
                 **{f"raw_{name}": value for name, value in raw.items()}}
        if launches:
            extra["cli_start_s"] = statistics.median(map(cmd_s, launches))
        for label, name in (("featurize", "featurize_j2_audio_x"),
                            ("featurize_dump", "featurize_dump_audio_x")):
            if label in labels:
                extra[name] = w.audio_s / stage_s(label)
        for label in ("evaluate", "asr_align"):
            if label in labels:
                extra[f"{label}_s"] = stage_s(label)
        return {"metrics": metrics, "extra": extra, "attempted": attempted,
                "failed": failed, "digests": self.digests(f"pass{len(passes) - 1}"),
                "passes": len(passes), "setup_spans": setup_spans,
                "host_samples": sampler.samples}

    def _another_pass(self, seconds: float, elapsed: float, done: int) -> bool:
        """Whether one more pass is expected to end within `seconds` and
        to leave time for the launches before the deadline."""
        per_pass = elapsed / done
        if self.launcher.deadline - time.perf_counter() < 2.0 * per_pass + 30.0:
            return False
        return elapsed + per_pass <= seconds

    def run_traced(self) -> dict:
        w = self.w
        self.setup(traced=True)
        traced = self.chain("traced", w.steps, jobs=1, traced=True)
        ref = self.chain("ref", w.steps, jobs=1)
        launches = self.launches(traced=True)
        digests = self.digests("traced")
        if digests != self.digests("ref"):
            self.fail("trace", ["traced outputs differ from untraced outputs"])

        # pool efficiency: the untraced --jobs 1 featurize against --jobs 2
        pool_efficiency = 0.0
        extra = {}
        featurize = next((s for s in w.steps if s.args == ("featurize",)), None)
        if featurize is not None:
            out = self.dir / "pool" / featurize.out
            out.mkdir(parents=True)
            j2 = self.cli("featurize_pool", featurize.args, out, jobs=2)
            self.account("pool.featurize", j2, featurize, out)
            table = self.dir / "ref" / featurize.out / "features.csv"
            if not _same_bytes(out / "features.csv", table):
                self.fail("pool.featurize", ["--jobs 2 features.csv differs from --jobs 1"])
            j1 = ref[featurize.label].wall
            pool_efficiency = j1 / (2.0 * j2.wall)
            extra = {"featurize_j1_audio_x": w.audio_s / j1,
                     "featurize_j2_audio_x": w.audio_s / j2.wall}

        totals = tracing.SpanTotals()
        for path in sorted(self.spans.glob("*.json")):
            totals.add_file(path)
        layer = totals.metrics()
        imports = [m["import_s"] for m in totals.metas if "import_s" in m]
        scipy_signal = [_cumulative_import_s(c.stderr, "scipy.signal")
                        for c in [*traced.values(), *launches]]
        for name, values in (("cli.import", imports),
                             ("cli.import_scipy_signal", scipy_signal)):
            for key, value in tracing.summarize(values).items():
                layer[f"{name}_{key}"] = value
        band, harm = layer.pop("dsp.harm_band_frames"), layer.pop("dsp.harm_frames")
        layer["dsp.harm_band_frac"] = (None if band is None or harm is None
                                       else band / harm if harm else 0.0)
        layer["classify.gini_scans"] = layer["classify.gini_scan_calls"]
        layer["cli.pool_efficiency"] = pool_efficiency
        traced_wall = sum(c.wall for c in traced.values())
        untraced_wall = sum(c.wall for c in ref.values())
        layer["trace.overhead_s"] = traced_wall - untraced_wall
        layer["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        attempted, failed = self.counts()
        extra.update(failed_frac=failed / attempted, traced_wall_s=traced_wall,
                     untraced_wall_s=untraced_wall,
                     missing_names=sorted(target for _, target in totals.missing))
        return {"metrics": layer, "extra": extra, "attempted": attempted,
                "failed": failed, "digests": digests}


def _cumulative_import_s(stderr: Path, package: str) -> float:
    """Import time of a package and its submodules from -X importtime
    output: the cumulative times of its outermost logged entries (a package
    reached through a lazy attribute logs only its submodules). 0.0 when
    the command never imported it."""
    entries = []
    for line in stderr.read_text(errors="replace").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].rstrip()
            module = name.strip()
            if module == package or module.startswith(package + "."):
                entries.append((len(name) - len(module), int(parts[1])))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top) / 1e6


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _print_table(w: Workload, result: dict, trace: bool) -> None:
    table = layer_metrics() if trace else END_TO_END
    print(f"readskill benchmark: workload {w.name} ({w.why})")
    for name, (unit, better) in table.items():
        value = result["metrics"].get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit:9s} {better}")
    for name, (unit, better) in WORKLOAD_ONLY.items():
        value = result["extra"].get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit:9s} {better}  (not gated)")
    if trace:
        print("  layer -> end-to-end metric it should move:")
        for layer, moves in LAYER_MOVES.items():
            print(f"    {layer}: {moves}")
    for name in result["extra"].get("missing_names", []):
        print(f"  wrapped name {name} is gone; its metrics are null")
    for problem in result["problems"]:
        print(f"  CHECK FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time: the chain runs as many whole passes "
                             "as fit in it, at least one")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for the benchmark's own tests")
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "readskill" / "cli.py").is_file():
        print(f"error: no readskill source under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = dataclasses.replace(w, **SMOKE[w.name])
    tag = f"{w.name}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        bench = Bench(w, args.seed, run_dir, start + DEADLINE_S)
        versions = bench.preflight()
        result = bench.run_traced() if args.trace else bench.run_untraced(args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result["problems"] = bench.problems
    result["meta"] = {"workload": w.name, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "smoke": args.smoke, "git_sha": _git_sha(),
                      "nproc": os.cpu_count(), **versions,
                      "wall_s": time.perf_counter() - start}
    result["commands"] = [(c.label, round(c.start, 6), round(c.wall, 6), round(c.cpu, 6),
                           c.rss_kb, c.rc)
                          for c in bench.launcher.commands]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_dir.joinpath(f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    _print_table(w, result, bool(args.trace))
    print("meta: " + json.dumps(result["meta"]))
    print("digests: " + json.dumps(result["digests"]))
    units = layer_metrics() if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
