#!/usr/bin/env python3
"""Benchmark of the ctxsens CLI on a seeded Zipfian corpus.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed builds the corpus (10k gold posts, a 50k-post pool, bootstrap
groups); the program sees only the generated files. A workload is a fixed
sequence of `ctxsens` subcommands, each run in a fresh interpreter as a user
runs them, one after another (a closed loop with one client). With
`--trace 0` the sequence is repeated while the next repetition still fits in
S seconds (at least once), every output is checked, and the end-to-end
metrics are medians over the repetitions; set-up samples (fresh interpreters
that only import the CLI) are interleaved with the subcommands. With
`--trace 1` the sequence runs once untraced and once through `traced.py`,
which records spans around the public functions of every ctxsens module; the
per-layer metrics come from that traced pass, and its data outputs must match
the untraced ones byte for byte.

Human-readable lines go to stdout first; the last line is one JSON object
with `correct`, `attempted` (subcommand runs), `failed` (runs that exited
non-zero or failed an output check) and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
# Fresh `import ctxsens.cli` processes per repetition, taken in equal groups
# before each subcommand and after the last, so that they sample the host
# across the whole run rather than in one burst.
SETUP_SAMPLES = 15

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

# Step sizes. Each heavy step runs for several seconds so that its time is
# steady, and one repetition of the longest workload fits in a run.
SVR_REPEATS = 1
# A fixed epoch count, since early stopping would make the work depend on the
# seed, and a learning rate at which SVR clearly beats the constant mean.
SVR_CONFIG = {"svr_max_epochs": 60, "patience": 60, "svr_learning_rate": 1.0}
AUGMENT_REPEATS, AUGMENT_CYCLES, AUGMENT_K = 1, 1, 1000
FOREST_TREES = 16  # enough trees that traversal, not featurization, dominates sample
SAMPLE_K = 1000
SCORER_THREADS = 2  # no more requests in flight than the machine has cores
BOOTSTRAP_RESAMPLES, BOOTSTRAP_SIZE = 2000, gen.BOOTSTRAP_GROUP_SIZE

# Data outputs the README promises to be byte-identical on rerun but that
# are not yet; reported as they stand, never counted as failures or masked.
KNOWN_BREACHES = {("augment", "cycles.jsonl"): "per-cycle wall_clock_seconds (ROADMAP open item 5)"}

TRAIN_FAMILIES = ("linear_svr", "random_forest", "ridge")


@dataclass(frozen=True)
class Step:
    name: str
    argv: Callable[[Path, dict], list[str]]  # (inputs dir, outputs of earlier steps) -> CLI args
    check: Callable[[gen.Corpus, Path, dict], list[str]]  # (corpus, this step's outputs, outs) -> problems
    one_cpu: bool = False  # run the process, and every process it starts, on a single CPU


def _scorer_command() -> str:
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(HERE / 'scorer.py'))}"


WORKLOADS: dict[str, list[Step]] = {
    # linear model families and the featurizer's fit path
    "linear-augment": [
        Step(
            "evaluate",
            lambda i, o: [
                "evaluate", "--family", "svr", "--config", str(i / "svr.json"),
                "--data", str(i / "sensitivity.jsonl"), "--repeats", str(SVR_REPEATS),
            ],
            lambda c, out, o: checks.evaluate(c, out, SVR_REPEATS),
        ),
        Step(
            "augment",
            lambda i, o: [
                "augment", "--family", "ridge", "--selection", "teacher",
                "--data", str(i / "sensitivity.jsonl"), "--pool", str(i / "pool.jsonl"),
                "--repeats", str(AUGMENT_REPEATS), "--cycles", str(AUGMENT_CYCLES), "--k", str(AUGMENT_K),
            ],
            lambda c, out, o: checks.augment(c, out, AUGMENT_REPEATS, AUGMENT_CYCLES, AUGMENT_K),
        ),
    ],
    # forest build and traversal; featurization only once per file
    "forest-pool": [
        Step(
            "train",
            lambda i, o: ["train", "--family", "rf", "--config", str(i / "forest.json"), "--data", str(i / "sensitivity.jsonl")],
            lambda c, out, o: checks.train(c, out, "random_forest"),
        ),
        Step(
            "sample",
            lambda i, o: ["sample", "--model", str(o["train"] / "model.bin"), "--pool", str(i / "pool.jsonl"), "--k", str(SAMPLE_K)],
            lambda c, out, o: checks.sample(c, out, SAMPLE_K),
        ),
    ],
    # corpus parsing, aggregation, scorer client and bootstrap; no features or models code
    "corpus-scorer": [
        Step(
            "aggregate",
            lambda i, o: ["aggregate", "--posts", str(i / "posts.jsonl"), "--ic", str(i / "ic.jsonl"), "--oc", str(i / "oc.jsonl")],
            lambda c, out, o: checks.aggregate(c, out),
        ),
        Step(
            "stats",
            lambda i, o: ["stats", "--posts", str(i / "posts.jsonl"), "--ic", str(i / "ic.jsonl"), "--oc", str(i / "oc.jsonl")],
            lambda c, out, o: checks.stats(c, out),
        ),
        Step(
            "stratify",
            lambda i, o: [
                "stratify", "--data", str(o["aggregate"] / "sensitivity.jsonl"), "--scorer", _scorer_command(),
                "--mode", "concat", "--threads", str(SCORER_THREADS),
            ],
            lambda c, out, o: checks.stratify(c, out, o["aggregate"] / "sensitivity.jsonl"),
            # Each item is a thread start and several hand-offs between threads and the
            # scorer process, so over two CPUs the step times cross-CPU wake-ups: on a
            # shared 2-vCPU VM 3.5-4.1 s in a quiet spell and 9-19 s in a busy one,
            # against 2.2-3.4 s on one CPU. Gains from fewer threads or hand-offs still show.
            one_cpu=True,
        ),
        Step(
            "bootstrap",
            lambda i, o: [
                "bootstrap", "--group-a", str(i / "group_a.csv"), "--group-b", str(i / "group_b.csv"),
                "--resamples", str(BOOTSTRAP_RESAMPLES), "--resample-size", str(BOOTSTRAP_SIZE),
            ],
            lambda c, out, o: checks.bootstrap(c, out, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SIZE),
        ),
    ],
}


@dataclass
class StepRun:
    name: str
    seconds: float
    rss_mb: float
    ok: bool
    digests: dict[str, str]
    spans: dict | None = None


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already exited


class Runner:
    """Runs subprocesses under the run's deadline and tallies failures."""

    def __init__(self, corpus: gen.Corpus, inputs: Path, deadline: float):
        self.corpus = corpus
        self.inputs = inputs
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str], log: Path, one_cpu: bool = False) -> tuple[float, float, int]:
        """(wall seconds from spawn to exit, max RSS in MB, exit code) of one process."""
        allowed = os.sched_getaffinity(0)
        with log.open("wb") as err:
            start = time.perf_counter()
            if one_cpu:
                os.sched_setaffinity(0, {max(allowed)})  # inherited by the child and its children
            try:
                proc = subprocess.Popen(
                    argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                    start_new_session=True,
                )
            finally:
                os.sched_setaffinity(0, allowed)
            # past the run's deadline, kill the call and any scorer it started
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode

    def setup(self, count: int, log: Path) -> list[float]:
        """Seconds of `count` fresh interpreters that only import the CLI."""
        return [self.spawn([sys.executable, "-c", "import ctxsens.cli"], log)[0] for _ in range(count)]

    def iteration(
        self, steps: list[Step], out_root: Path, traced: bool, setup_times: list[float] | None = None
    ) -> tuple[float, list[StepRun]]:
        """Run the steps once; wall seconds are the sum of the subcommand processes.

        With a `setup_times` list, set-up samples are taken before each step and
        after the last one and appended to it.
        """
        outs: dict[str, Path] = {}
        runs = []
        group = -(-SETUP_SAMPLES // (len(steps) + 1))
        for step in steps:
            if setup_times is not None:
                setup_times += self.setup(group, out_root / "setup.stderr")
            out = out_root / step.name
            outs[step.name] = out
            args = step.argv(self.inputs, outs) + ["--out", str(out)]
            spans_path = out_root / f"{step.name}.spans.json"
            prefix = [sys.executable, str(HERE / "traced.py"), str(spans_path)] if traced else [sys.executable, "-m", "ctxsens.cli"]
            seconds, rss, code = self.spawn(prefix + args, out_root / f"{step.name}.stderr", step.one_cpu)
            runs.append(StepRun(step.name, seconds, rss, code == 0, {}))
            if code != 0:
                tail = (out_root / f"{step.name}.stderr").read_text(errors="replace").strip().splitlines()[-1:]
                self.problems.append(f"{step.name}: exit code {code} {tail}")
                break
        else:
            if setup_times is not None:
                setup_times += self.setup(group, out_root / "setup.stderr")
        wall = sum(run.seconds for run in runs)
        for step, run in zip(steps, runs):
            out = outs[step.name]
            if run.ok:
                try:
                    found = checks.manifest_outputs(out) + step.check(self.corpus, out, outs)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    found = [f"unreadable output: {exc!r}"]
                if found:
                    run.ok = False
                    self.problems.extend(f"{step.name}: {p}" for p in found)
                run.digests = {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.iterdir())
                    if p.is_file() and p.name != "manifest.json"
                }
            if traced and run.ok:
                run.spans = json.loads((out_root / f"{step.name}.spans.json").read_text(encoding="utf-8"))
        self.attempted += len(runs)
        self.failed += sum(1 for run in runs if not run.ok)
        return wall, runs

    def compare(self, first: list[StepRun], other: list[StepRun], label: str) -> list[str]:
        """Report data outputs that differ from the first repetition; unknown differences fail the step."""
        lines = []
        for a, b in zip(first, other):
            for name in sorted(set(a.digests) | set(b.digests)):
                if a.digests.get(name) == b.digests.get(name):
                    continue
                known = KNOWN_BREACHES.get((a.name, name))
                if known:
                    lines.append(f"{label}: {a.name}/{name} differs: known breach, {known}")
                else:
                    lines.append(f"{label}: {a.name}/{name} differs")
                    self.problems.append(f"{a.name}/{name} is not byte-identical on rerun ({label})")
                    if b.ok:
                        b.ok = False
                        self.failed += 1
        return lines


def _layer_metrics(runs: list[StepRun]) -> dict[str, tuple[float, str]]:
    spans: dict[str, Counter] = defaultdict(Counter)
    counters: Counter = Counter()
    digests: set[str] = set()
    process_overhead = 0.0
    for run in runs:
        for name, values in run.spans["spans"].items():
            spans[name].update(values)
        counters.update(run.spans["counters"])
        digests.update(run.spans["text_digests"])
        process_overhead += run.seconds - run.spans["spans"]["cli.main"]["s"]

    def s(name):
        return spans[name]["s"]

    def self_s(name):
        return spans[name]["self_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    texts = counters["features.fit_vocabulary.texts"] + counters["features.transform_many.texts"]
    metrics = {
        "features.fit_vocabulary.s": (s("features.fit_vocabulary"), "s"),
        "features.fit_vocabulary.calls": (spans["features.fit_vocabulary"]["calls"], "count"),
        "features.fit_vocabulary.texts": (counters["features.fit_vocabulary.texts"], "count"),
        "features.transform_many.s": (s("features.transform_many"), "s"),
        "features.transform_many.calls": (spans["features.transform_many"]["calls"], "count"),
        "features.transform_many.texts": (counters["features.transform_many.texts"], "count"),
        "features.to_csr.s": (s("features.to_csr"), "s"),
        "features.tokenizations_per_text": (ratio(texts, len(digests)), "ratio"),
    }
    for family in TRAIN_FAMILIES:
        metrics[f"models.train.{family}.self_s"] = (self_s(f"models.train.{family}"), "s")
    metrics |= {
        "models.train.calls": (sum(v["calls"] for k, v in spans.items() if k.startswith("models.train.")), "count"),
        "models.predict_batch.self_s": (self_s("models.predict_batch"), "s"),
        "models.predict_batch.rows": (counters["models.predict_batch.rows"], "count"),
        "models.save_model.s": (s("models.save_model"), "s"),
        "models.load_model.s": (s("models.load_model"), "s"),
        "models.model_bytes": (counters["models.model_bytes"], "bytes"),
        "evaluation.monte_carlo_cv.self_s": (self_s("evaluation.monte_carlo_cv"), "s"),
        "evaluation.fold_metrics.s": (s("evaluation.fold_metrics"), "s"),
        "evaluation.stratified_toxicity_mae.self_s": (self_s("evaluation.stratified_toxicity_mae"), "s"),
        "augmentation.run_augmentation.self_s": (self_s("augmentation.run_augmentation"), "s"),
        "augmentation.select_top_k.s": (s("augmentation.select_top_k"), "s"),
        "corpus.load_bundle.s": (s("corpus.load_bundle"), "s"),
        "corpus.load_posts.s": (s("corpus.load_posts"), "s"),
        "corpus.posts_loaded": (counters["corpus.posts_loaded"], "count"),
        "aggregation.compute_sensitivities.s": (s("aggregation.compute_sensitivities"), "s"),
        "aggregation.agreement.s": (s("aggregation.agreement"), "s"),
        "aggregation.load_examples.s": (s("aggregation.load_examples"), "s"),
        "aggregation.save_examples.s": (s("aggregation.save_examples"), "s"),
        "analysis.parent_utility.s": (s("analysis.parent_utility"), "s"),
        "analysis.paired_bootstrap.s": (s("analysis.paired_bootstrap"), "s"),
        "analysis.paired_bootstrap.resamples_per_s": (
            ratio(counters["analysis.paired_bootstrap.resamples"], s("analysis.paired_bootstrap")),
            "1/s",
        ),
        "scorer.client_open.s": (s("scorer.client_open"), "s"),
        "scorer.score_many.s": (s("scorer.score_many"), "s"),
        "scorer.items": (counters["scorer.items"], "count"),
        "scorer.items_per_s": (ratio(counters["scorer.items"], s("scorer.score_many")), "1/s"),
        "scorer.errors": (counters["scorer.errors"], "count"),
        "scorer.retried": (counters["scorer.score_calls"] - counters["scorer.items"], "count"),
        "scorer.threads_per_item": (ratio(counters["scorer.score_many.threads"], counters["scorer.items"]), "ratio"),
        "manifest.build_manifest.s": (s("manifest.build_manifest"), "s"),
        "manifest.bytes_hashed": (counters["manifest.bytes_hashed"], "bytes"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.process_overhead_s": (process_overhead, "s"),
        "trace.overhead_s": (sum(run.spans["overhead_s"] for run in runs), "s"),
    }
    return metrics


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def _describe(label: str, values: list[float], unit: str) -> str:
    return f"{label:<12} median={statistics.median(values):.4f} {unit} n={len(values)} min={min(values):.4f} max={max(values):.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "ctxsens" / "cli.py").is_file():
        print(f"error: ctxsens sources not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # in a child process: a spawned process's max RSS starts at its parent's
        # peak, so the generator's memory must not be this process's
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), str(args.seed), str(work / "inputs")],
            check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        corpus = gen.load(work / "inputs")
        (work / "inputs" / "forest.json").write_text(json.dumps({"rf_n_trees": FOREST_TREES}), encoding="utf-8")
        (work / "inputs" / "svr.json").write_text(json.dumps(SVR_CONFIG), encoding="utf-8")
        runner = Runner(corpus, work / "inputs", deadline)
        print("machine", json.dumps(_machine()))
        print("inputs", json.dumps(corpus.properties))
        steps = WORKLOADS[args.workload]
        if args.trace:
            metrics = _traced(runner, steps, work)
        else:
            metrics = _untraced(runner, steps, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems:
        print("FAILED", problem)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def _untraced(runner: Runner, steps: list[Step], work: Path, seconds: float) -> dict[str, tuple[float, str]]:
    runner.setup(1, work / "setup.stderr")  # writes bytecode caches on a fresh checkout
    setup: list[float] = []
    walls: list[float] = []
    repetitions: list[list[StepRun]] = []
    start = time.perf_counter()
    while True:
        out_root = work / f"rep{len(walls)}"
        out_root.mkdir()
        wall, runs = runner.iteration(steps, out_root, traced=False, setup_times=setup)
        walls.append(wall)
        repetitions.append(runs)
        elapsed = time.perf_counter() - start
        if not all(run.ok for run in runs) or elapsed + elapsed / len(walls) > seconds:
            break
    for runs in repetitions[1:]:
        print("\n".join(runner.compare(repetitions[0], runs, "rerun")) or "rerun: data outputs byte-identical")
    print(_describe("setup_s", setup, "s"))
    print(_describe("wall_s", walls, "s"))
    by_step: dict[str, list[float]] = defaultdict(list)
    for runs in repetitions:
        for run in runs:
            by_step[f"{run.name}_s"].append(run.seconds)
    for name, values in by_step.items():
        print(_describe(name, values, "s"))
    peak = max(run.rss_mb for runs in repetitions for run in runs)
    # a floor under every child's max RSS, since a child's count starts at its parent's peak
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb  {peak:.1f} MB (this process {own:.1f} MB); ops_total {runner.attempted}; ops_failed {runner.failed}")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def _traced(runner: Runner, steps: list[Step], work: Path) -> dict[str, tuple[float, str]]:
    (work / "plain").mkdir()
    (work / "traced").mkdir()
    plain_wall, plain = runner.iteration(steps, work / "plain", traced=False)
    traced_wall, traced = runner.iteration(steps, work / "traced", traced=True)
    print("\n".join(runner.compare(plain, traced, "traced vs untraced")) or "traced vs untraced: data outputs byte-identical")
    # one pair of passes: host noise swamps the difference, so trace.overhead_s is the tracer's own time
    print(f"wall_s untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s")
    if not all(run.ok for run in plain + traced) or len(traced) != len(steps):
        return {}
    metrics = _layer_metrics(traced)
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
