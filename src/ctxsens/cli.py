"""Pipeline entry point: aggregate, stats, train, evaluate, stratify, sample,
augment, bootstrap.

Every subcommand writes its outputs plus one manifest under --out, which is
created with the first output. Flag precedence is flags > config file >
defaults; config-file values are checked like flags. The resolved
configuration is recorded in the manifest. Exit codes: 0 success, 1
validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shlex
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import aggregation, analysis, augmentation, evaluation, models
from .corpus import CorpusError, load_bool_column, load_bundle, load_posts, write_csv, write_jsonl
from .features import FeatureConfig, FeatureError
from .manifest import build_manifest, write_json, write_manifest
from .scorer import ScorerEndpoint, ScorerError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

THRESHOLD_GRID = tuple(round(0.05 * i, 2) for i in range(21))


class CliValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise CliValidationError(message)


@dataclass(frozen=True)
class Flag:
    """An option. Its key names it in the config file and the manifest; a
    config-file value must have its type and be one of its choices. A choices
    mapping also renames the value (CLI spelling -> recorded constant)."""

    name: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: Sequence[str] | Mapping[str, str] | None = None
    rule: tuple[Callable[[object], bool], str] | None = None  # (holds for a valid value, its wording)
    required: bool = False
    key: str | None = None

    @property
    def dest(self) -> str:
        return self.key or self.name[2:]


@dataclass(frozen=True)
class Command:
    """A subcommand, declared once; _run does all that its run function does not."""

    run: Callable[[Run], None]  # its docstring is the subcommand's help
    inputs: Sequence[str]  # manifest names of the input files; the flag has - for _
    flags: Sequence[Flag] = ()
    seed: str | None = None  # the seed's name in the manifest, for seeded runs
    scorer: bool = False  # takes --scorer, --scorer-tcp and --threads
    model: bool = False  # trains a --family with hyperparameters from the config file


@dataclass
class Run:
    """One subcommand call: resolved flags, checked inputs, outputs written."""

    config: dict
    inputs: dict[str, Path]
    out_dir: Path
    endpoint: ScorerEndpoint | None = None
    train_config: models.TrainConfig | None = None
    timings: dict | None = None
    outputs: list[str] = field(default_factory=list)

    def out(self, name: str) -> Path:
        """Path of the next output; --out is created for the first."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name


AT_LEAST_1 = (lambda value: value >= 1, ">= 1")
SEED = Flag("--seed", int, 0)
SCORER = (
    Flag("--scorer", help="external scorer command line"),
    Flag("--scorer-tcp", help="external scorer host:port", key="scorer_tcp"),
    Flag("--threads", int, 8, "requests outstanding on the one scorer connection", rule=AT_LEAST_1),
)
FAMILY = Flag("--family", required=True)
CORPUS = ("posts", "ic", "oc")
DATA = ("data",)  # sensitivity.jsonl from aggregate
INPUT_FORMAT = Flag("--input-format", default="jsonl", choices=("jsonl", "csv"))


def _flags(command: Command) -> tuple[Flag, ...]:
    return (*command.flags, SEED, *(SCORER if command.scorer else ()))


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctxsens", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__)
        for dest in command.inputs:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, required=True)
        for flag in _flags(command):
            kind = {"action": "store_true"} if flag.type is bool else {"type": flag.type, "choices": flag.choices}
            p.add_argument(flag.name, dest=flag.dest, default=None, required=flag.required, help=flag.help, **kind)
        p.add_argument("--out", required=True, help="output directory (created with the first output)")
        p.add_argument("--config", help="JSON config file; flags override its values")
    return parser


# --- the runner ------------------------------------------------------------------


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    file = Path(path)
    if not file.is_file():
        raise CliValidationError(f"config file not found: {path}")
    try:
        obj = json.loads(file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliValidationError(f"config file {path} must hold a JSON object")
    return obj


def _from_file(flag: Flag, value):
    """A config-file value held to the flag's type and choices; JSON values
    come typed, so "3" for an int flag is an error, not a conversion."""
    kinds = {int: int, float: (int, float), str: str, bool: bool}[flag.type]
    if not isinstance(value, kinds) or isinstance(value, bool) != (flag.type is bool):
        raise CliValidationError(f"config key {flag.dest!r} must be {flag.type.__name__}, got {value!r}")
    if flag.choices is not None and value not in flag.choices:
        raise CliValidationError(f"config key {flag.dest!r} must be one of {list(flag.choices)}, not {value!r}")
    return value


def _resolve(flags: Sequence[Flag], args: argparse.Namespace, file_config: Mapping) -> dict:
    """flags > config file > defaults."""
    resolved = {}
    for flag in flags:
        value = getattr(args, flag.dest)
        if value is None:
            value = _from_file(flag, file_config[flag.dest]) if flag.dest in file_config else flag.default
        if flag.rule is not None and not flag.rule[0](value):
            raise CliValidationError(f"{flag.name} must be {flag.rule[1]}")
        resolved[flag.dest] = flag.choices[value] if isinstance(flag.choices, Mapping) else value
    return resolved


def _endpoint_from(resolved: Mapping) -> ScorerEndpoint | None:
    command, tcp = resolved["scorer"], resolved["scorer_tcp"]
    if command and tcp:
        raise CliValidationError("give either --scorer or --scorer-tcp, not both")
    if command:
        return ScorerEndpoint(command=tuple(shlex.split(command)), max_in_flight=resolved["threads"])
    if tcp:
        host, _, port = tcp.rpartition(":")
        if not host or not port.isdigit():
            raise CliValidationError(f"--scorer-tcp must be host:port, got {tcp!r}")
        return ScorerEndpoint(address=(host, int(port)), max_in_flight=resolved["threads"])
    return None


def _train_config(resolved: dict, file_config: Mapping, endpoint: ScorerEndpoint | None) -> models.TrainConfig:
    """TrainConfig from the config file's field names plus the resolved seed;
    records the canonical family name in resolved."""
    resolved["family"] = models.resolve_family(resolved["family"])
    if resolved["family"] == models.FAMILY_EXTERNAL and endpoint is None:
        raise CliValidationError("external family needs --scorer or --scorer-tcp")
    features = file_config.get("features", {})
    if not isinstance(features, dict):
        raise CliValidationError(f"config key 'features' must be an object, got {features!r}")
    feature_fields = {f.name for f in dataclasses.fields(FeatureConfig)}
    train_fields = {f.name for f in dataclasses.fields(models.TrainConfig)} - {"features", "external", "seed"}
    try:
        return models.TrainConfig(
            seed=resolved["seed"],
            features=FeatureConfig(**{k: v for k, v in features.items() if k in feature_fields}),
            external=endpoint,
            **{k: v for k, v in file_config.items() if k in train_fields},
        )
    except (TypeError, ValueError, FeatureError) as exc:
        raise CliValidationError(f"bad training configuration: {exc}") from exc


def _run(name: str, args: argparse.Namespace, argv: Sequence[str]) -> None:
    """Check everything that needs no input data, run the subcommand, then
    write the manifest of what it wrote."""
    command = COMMANDS[name]
    file_config = _load_config_file(args.config)
    resolved = _resolve(_flags(command), args, file_config)
    inputs = {dest: Path(getattr(args, dest)) for dest in command.inputs}
    for dest, path in inputs.items():
        if not path.is_file():
            raise CliValidationError(f"{dest.replace('_', '-')} file not found: {path}")
    run = Run(resolved, inputs, Path(args.out))
    if command.scorer:
        run.endpoint = _endpoint_from(resolved)
        if run.endpoint is None and (args.threads is not None or "threads" in file_config):
            raise CliValidationError("--threads needs --scorer or --scorer-tcp")
    if command.model:
        run.train_config = _train_config(resolved, file_config, run.endpoint)
    command.run(run)
    seeds = {command.seed: resolved["seed"]} if command.seed else {}
    write_manifest(run.out_dir, build_manifest(name, argv, resolved, seeds, inputs, run.outputs, run.timings))


# --- subcommands -----------------------------------------------------------------


def _blank(value):
    """A CSV cell: None, a metric left undefined, becomes an empty cell."""
    return "" if value is None else value


def _load_examples_checked(path: Path) -> list[aggregation.SensitivityExample]:
    try:
        examples = aggregation.load_examples(path)
    except ValueError as exc:
        raise CliValidationError(f"not a valid sensitivity file: {exc}") from exc
    if not examples:
        raise CliValidationError(f"{path} holds no examples")
    return examples


def _aggregate(run: Run) -> None:
    """aggregate judgments into sensitivity records"""
    bundle = load_bundle(*run.inputs.values(), format=run.config["input-format"])
    examples, excluded = aggregation.compute_sensitivities(bundle)
    aggregation.save_examples(examples, run.out("sensitivity.jsonl"))
    write_json(run.out("excluded.json"), {"excluded_post_ids": excluded, "n_excluded": len(excluded)})


def _histogram_rows(bins: np.ndarray, *samples: Sequence[float]):
    """(bin center, count in each sample) per bin."""
    counts = [np.histogram(sample, bins=bins)[0].tolist() for sample in samples]
    return zip(((bins[:-1] + bins[1:]) / 2.0).tolist(), *counts)


def _agreement(records: Sequence) -> dict:
    """Agreement over the four labels and over toxic / not toxic."""
    try:
        full = aggregation.agreement(records)
        binary = aggregation.agreement(records, n_categories=2, label_key=aggregation.collapse_binary)
    except ValueError as exc:
        return {"error": str(exc)}
    return {
        **dataclasses.asdict(full),
        "binary_free_marginal_kappa": binary.free_marginal_kappa,
        "binary_mean_pairwise_agreement": binary.mean_pairwise_agreement,
    }


def _stats(run: Run) -> None:
    """agreement, histograms, and figure CSVs"""
    bundle = load_bundle(*run.inputs.values(), format=run.config["input-format"])
    examples, excluded = aggregation.compute_sensitivities(bundle)
    records = [ex.record for ex in examples]
    report: dict = {
        "n_posts": len(bundle.posts),
        "n_scored": len(records),
        "n_excluded": len(excluded),
        "agreement": {"ic": _agreement(bundle.ic_annotations), "oc": _agreement(bundle.oc_annotations)},
    }

    if records:
        hist = aggregation.sensitivity_histogram(records, run.config["bins"])
        write_csv(run.out("delta_histogram.csv"), ["bin_center", "count"], zip(hist.centers, hist.counts))
        report["delta_histogram"] = {"edges": list(hist.edges), "counts": list(hist.counts)}

        report["delta_buckets"] = dataclasses.asdict(aggregation.delta_buckets([r.delta for r in records]))
        report["binarized_unchanged_fraction"] = aggregation.binarized_unchanged_fraction(
            [(r.s_oc.value, r.s_ic.value) for r in records]
        )

        write_csv(
            run.out("sensitive_counts.csv"),
            ["t", "count"],
            [(t, aggregation.count_sensitive(records, t)) for t in THRESHOLD_GRID],
        )

        write_csv(
            run.out("toxicity_histogram.csv"),
            ["bin_center", "oc_count", "ic_count"],
            _histogram_rows(
                np.linspace(0.0, 1.0, 21), [r.s_oc.value for r in records], [r.s_ic.value for r in records]
            ),
        )

        points, zero_vote = analysis.parent_utility(bundle.ic_annotations, records, THRESHOLD_GRID)
        if len(zero_vote) < len(records):
            write_csv(
                run.out("parent_utility.csv"),
                ["t", "fraction_helpful", "n"],
                [(p.t, _blank(p.fraction_helpful), p.n) for p in points],
            )
            report["parent_utility_zero_vote_post_ids"] = zero_vote

    target_lengths = [len(p.target_text) for p in bundle.posts]
    parent_lengths = [len(p.parent_text) for p in bundle.posts if p.parent_text is not None]
    length_bins = np.linspace(0, max(target_lengths + parent_lengths, default=1), 21)
    write_csv(
        run.out("lengths.csv"),
        ["bin_center", "parent_count", "target_count"],
        _histogram_rows(length_bins, parent_lengths, target_lengths),
    )
    write_json(run.out("stats.json"), report)


def _train(run: Run) -> None:
    """train one regressor family"""
    examples = _load_examples_checked(run.inputs["data"])
    perm = np.random.default_rng(run.train_config.seed).permutation(len(examples))
    n_val = int(len(examples) * run.config["val-fraction"])
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        raise CliValidationError("validation fraction leaves no training data")
    train_items = [(examples[i].post.target_text, examples[i].record.delta) for i in train_idx]
    val_items = [(examples[i].post.target_text, examples[i].record.delta) for i in val_idx]
    model = models.train(run.config["family"], train_items, val_items or None, run.train_config)
    try:
        models.save_model(model, run.out("model.bin"))
    finally:
        model.close()


def _evaluate(run: Run) -> None:
    """Monte Carlo cross-validation of a family"""
    examples = _load_examples_checked(run.inputs["data"])
    split = evaluation.SplitSpec(n_repeats=run.config["repeats"], seed=run.train_config.seed)
    report = evaluation.monte_carlo_cv(examples, run.config["family"], run.train_config, split)
    obj = report.to_json()
    obj["means_x100"] = {metric: None if v is None else v * 100.0 for metric, v in obj["means"].items()}
    obj["family"] = run.config["family"]
    write_json(run.out("report.json"), obj)
    write_csv(
        run.out("folds.csv"),
        ["fold", "mse", "mae", "aupr", "auc", "n_test"],
        [(i, f.mse, f.mae, _blank(f.aupr), _blank(f.auc), f.n_test) for i, f in enumerate(report.folds)],
    )


def _stratify(run: Run) -> None:
    """scorer MAE over sensitivity-stratified subsets"""
    if run.endpoint is None:
        raise CliValidationError("stratify needs --scorer or --scorer-tcp")
    thresholds = THRESHOLD_GRID
    if run.config["thresholds"] is not None:
        try:
            thresholds = tuple(float(x) for x in run.config["thresholds"].split(","))
        except ValueError as exc:
            raise CliValidationError(f"bad --thresholds: {exc}") from exc
    examples = _load_examples_checked(run.inputs["data"])
    result = evaluation.stratified_toxicity_mae(run.endpoint, examples, thresholds, mode=run.config["mode"])
    write_csv(
        run.out("stratified_mae.csv"),
        ["t", "mae", "n"],
        [(row.t, _blank(row.mae), row.n) for row in result.rows],
    )
    if result.errors:
        write_json(run.out("errors.json"), {"per_post_errors": result.errors})
        print(f"warning: {len(result.errors)} posts failed to score; partial result", file=sys.stderr)


def _sample(run: Run) -> None:
    """top-k posts by predicted sensitivity"""
    k = run.config["k"]
    pool = load_posts(run.inputs["pool"])
    if k > len(pool):
        raise CliValidationError(f"--k {k} exceeds pool size {len(pool)}")
    model = models.load_model(run.inputs["model"])
    if isinstance(model, models.ExternalModel):
        if run.endpoint is None:
            raise CliValidationError("an external model needs --scorer or --scorer-tcp")
        if run.endpoint.fingerprint != model.endpoint_sha256:
            raise CliValidationError("--scorer/--scorer-tcp is not the scorer this model was trained with")
        model.endpoint = run.endpoint
    try:
        scores = model.predict_batch([p.target_text for p in pool])
    finally:
        model.close()
    ranked = sorted(zip(pool, scores), key=lambda pair: (-pair[1], pair[0].post_id))
    write_jsonl(
        run.out("selected.jsonl"),
        ({"post_id": p.post_id, "score": float(s), "rank": rank} for rank, (p, s) in enumerate(ranked[:k])),
    )


def _augment(run: Run) -> None:
    """teacher-student augmentation loop"""
    examples = _load_examples_checked(run.inputs["data"])
    pool = load_posts(run.inputs["pool"])
    seed, n_repeats = run.config["seed"], run.config["repeats"]
    split = evaluation.SplitSpec(n_repeats=n_repeats, seed=seed)

    all_logs: list[tuple[int, augmentation.CycleLog]] = []
    for repeat in range(n_repeats):
        tr, val, test = evaluation.split_indices(len(examples), split, repeat)

        def rows(idx) -> list[augmentation.TrainPost]:
            return [augmentation.TrainPost(examples[i].post, examples[i].record.delta) for i in idx]

        aug_config = augmentation.AugmentationConfig(
            pool=tuple(pool),
            selection=run.config["selection"],
            k_per_cycle=run.config["k"],
            n_cycles=run.config["cycles"],
            single_shot=run.config["single-shot"],
            teacher_family=run.config["family"],
            student_family=run.config["family"],
            train_config=run.train_config,
            seed=int(np.random.SeedSequence([seed, repeat]).generate_state(1)[0]),
        )
        logs = augmentation.run_augmentation(rows(tr), rows(val), rows(test), aug_config)
        all_logs += [(repeat, log) for log in logs]

    write_jsonl(run.out("cycles.jsonl"), ({"repeat": repeat, **log.to_json()} for repeat, log in all_logs))
    by_cycle: dict[int, dict[int, float]] = {}
    for repeat, log in all_logs:
        by_cycle.setdefault(log.cycle, {})[repeat] = log.student_mse
    write_csv(
        run.out("mse_by_cycle.csv"),
        ["cycle", "mean_test_mse"] + [f"test_mse_r{r}" for r in range(n_repeats)],
        [
            [cycle, float(np.mean(list(mses.values())))] + [mses.get(r, "") for r in range(n_repeats)]
            for cycle, mses in sorted(by_cycle.items())
        ],
    )
    cycle_seconds = [
        {"repeat": r, "cycle": log.cycle, "wall_clock_seconds": log.wall_clock_seconds} for r, log in all_logs
    ]
    run.timings = {"cycles": cycle_seconds}


def _bootstrap(run: Run) -> None:
    """two-proportion paired bootstrap"""
    groups = [load_bool_column(run.inputs[name]) for name in ("group_a", "group_b")]
    try:
        result = analysis.paired_bootstrap(
            *groups,
            resample_size=run.config["resample-size"],
            n_resamples=run.config["resamples"],
            seed=run.config["seed"],
            direction=run.config["direction"],
        )
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc
    write_json(run.out("bootstrap.json"), result.to_json())


COMMANDS = {
    "aggregate": Command(_aggregate, CORPUS, (INPUT_FORMAT,)),
    "stats": Command(
        _stats, CORPUS, (INPUT_FORMAT, Flag("--bins", int, 41, "delta histogram bins", rule=AT_LEAST_1))
    ),
    "train": Command(
        _train,
        DATA,
        (FAMILY, Flag("--val-fraction", float, 0.1, rule=(lambda value: 0.0 <= value < 1.0, "in [0, 1)"))),
        seed="train",
        scorer=True,
        model=True,
    ),
    "evaluate": Command(
        _evaluate, DATA, (FAMILY, Flag("--repeats", int, 3, rule=AT_LEAST_1)), seed="split", scorer=True, model=True
    ),
    "stratify": Command(
        _stratify,
        DATA,
        (
            Flag(
                "--mode",
                default="target",
                choices={"target": evaluation.MODE_TARGET_ONLY, "concat": evaluation.MODE_CONCAT_PARENT},
            ),
            Flag("--thresholds", help="comma-separated t values (default 0..1 step 0.05)"),
        ),
        scorer=True,
    ),
    "sample": Command(_sample, ("model", "pool"), (Flag("--k", int, required=True, rule=AT_LEAST_1),), scorer=True),
    "augment": Command(
        _augment,
        (*DATA, "pool"),
        (
            Flag("--cycles", int, 5),
            Flag("--k", int, 1000),
            Flag(
                "--selection",
                default="teacher",
                choices={"teacher": augmentation.SELECTION_TEACHER_TOP_K, "random": augmentation.SELECTION_RANDOM_K},
            ),
            Flag("--single-shot", bool, False),
            dataclasses.replace(FAMILY, required=False, default="ridge"),
            Flag("--repeats", int, 3),
        ),
        seed="split",
        model=True,
    ),
    "bootstrap": Command(
        _bootstrap,
        ("group_a", "group_b"),
        (
            Flag("--resamples", int, 1000),
            Flag("--resample-size", int, 100),
            Flag(
                "--direction",
                default="a_gt_b",
                choices={"a_gt_b": analysis.DIRECTION_A_GREATER, "b_gt_a": analysis.DIRECTION_B_GREATER},
            ),
        ),
        seed="bootstrap",
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        _run(args.subcommand, args, argv)
        return EXIT_OK
    except (
        CliValidationError,
        CorpusError,
        evaluation.MetricError,
        models.TrainingError,
        augmentation.AugmentationError,
        FeatureError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ScorerError, models.ModelPersistenceError, models.PredictionError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
