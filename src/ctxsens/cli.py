"""Pipeline entry point: aggregate, stats, train, evaluate, stratify, sample,
augment, bootstrap.

Every subcommand writes its outputs plus one manifest under --out. Flag
precedence is flags > config file > defaults, and the resolved configuration
is recorded in the manifest. Exit codes: 0 success, 1 validation error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import shlex
import sys
import traceback
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import aggregation, analysis, augmentation, evaluation, models
from .corpus import CorpusError, load_bundle, load_posts
from .features import FeatureConfig, FeatureError
from .manifest import build_manifest, write_manifest
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctxsens", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def common(p: _Parser) -> None:
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--threads", type=int, default=None, help="cap for request concurrency")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("aggregate", help="aggregate judgments into sensitivity records")
    p.add_argument("--posts", required=True)
    p.add_argument("--ic", required=True)
    p.add_argument("--oc", required=True)
    p.add_argument("--input-format", choices=["jsonl", "csv"], default=None)
    common(p)

    p = sub.add_parser("stats", help="agreement, histograms, and figure CSVs")
    p.add_argument("--posts", required=True)
    p.add_argument("--ic", required=True)
    p.add_argument("--oc", required=True)
    p.add_argument("--input-format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--bins", type=int, default=None, help="delta histogram bins (default 41)")
    common(p)

    p = sub.add_parser("train", help="train one regressor family")
    p.add_argument("--family", required=True)
    p.add_argument("--data", required=True, help="sensitivity.jsonl from aggregate")
    p.add_argument("--val-fraction", type=float, default=None)
    p.add_argument("--scorer", help="external scorer command line")
    p.add_argument("--scorer-tcp", help="external scorer host:port")
    common(p)

    p = sub.add_parser("evaluate", help="Monte Carlo cross-validation of a family")
    p.add_argument("--family", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--scorer", help="external scorer command line")
    p.add_argument("--scorer-tcp", help="external scorer host:port")
    common(p)

    p = sub.add_parser("stratify", help="scorer MAE over sensitivity-stratified subsets")
    p.add_argument("--data", required=True)
    p.add_argument("--scorer", help="external scorer command line")
    p.add_argument("--scorer-tcp", help="external scorer host:port")
    p.add_argument("--mode", choices=["target", "concat"], default=None)
    p.add_argument("--thresholds", help="comma-separated t values (default 0..1 step 0.05)")
    common(p)

    p = sub.add_parser("sample", help="top-k posts by predicted sensitivity")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--pool", required=True, help="posts file to sample from")
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("augment", help="teacher-student augmentation loop")
    p.add_argument("--data", required=True, help="gold sensitivity.jsonl")
    p.add_argument("--pool", required=True, help="unlabeled posts file")
    p.add_argument("--cycles", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--selection", choices=["teacher", "random"], default=None)
    p.add_argument("--single-shot", action="store_true", default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--repeats", type=int, default=None)
    common(p)

    p = sub.add_parser("bootstrap", help="two-proportion paired bootstrap")
    p.add_argument("--group-a", required=True, help="single boolean-column CSV")
    p.add_argument("--group-b", required=True)
    p.add_argument("--resamples", type=int, default=None)
    p.add_argument("--resample-size", type=int, default=None)
    p.add_argument("--direction", choices=["a_gt_b", "b_gt_a"], default=None)
    common(p)

    return parser


# --- helpers ---------------------------------------------------------------------


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


def _resolve(args: argparse.Namespace, file_config: Mapping, defaults: Mapping) -> dict:
    """flags > config file > defaults; argparse attrs use _ for -."""
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_config:
            resolved[key] = file_config[key]
        else:
            resolved[key] = default
    return resolved


def _require_file(path: str, what: str) -> Path:
    file = Path(path)
    if not file.is_file():
        raise CliValidationError(f"{what} not found: {path}")
    return file


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_config(resolved: Mapping, file_config: Mapping) -> models.TrainConfig:
    """TrainConfig from the config file's flat keys plus resolved seed."""
    feature_fields = {f.name for f in dataclasses.fields(FeatureConfig)}
    feature_kwargs = {
        k: (tuple(v) if k == "stopwords" else v)
        for k, v in file_config.get("features", {}).items()
        if k in feature_fields
    }
    train_fields = {f.name for f in dataclasses.fields(models.TrainConfig)} - {"features", "external", "seed"}
    kwargs = {k: v for k, v in file_config.items() if k in train_fields}
    try:
        return models.TrainConfig(
            seed=int(resolved.get("seed", 0)),
            features=FeatureConfig(**feature_kwargs),
            **kwargs,
        )
    except (TypeError, ValueError, FeatureError) as exc:
        raise CliValidationError(f"bad training configuration: {exc}") from exc


def _endpoint_from(resolved: Mapping) -> ScorerEndpoint | None:
    command = resolved.get("scorer")
    tcp = resolved.get("scorer_tcp")
    if command and tcp:
        raise CliValidationError("give either --scorer or --scorer-tcp, not both")
    max_in_flight = int(resolved.get("threads") or 8)
    if command:
        return ScorerEndpoint(command=tuple(shlex.split(command)), max_in_flight=max_in_flight)
    if tcp:
        host, _, port = tcp.rpartition(":")
        if not host or not port.isdigit():
            raise CliValidationError(f"--scorer-tcp must be host:port, got {tcp!r}")
        return ScorerEndpoint(address=(host, int(port)), max_in_flight=max_in_flight)
    return None


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def _load_examples_checked(path: Path) -> list[aggregation.SensitivityExample]:
    try:
        examples = aggregation.load_examples(path)
    except (KeyError, ValueError) as exc:
        raise CliValidationError(f"{path} is not a valid sensitivity file: {exc}") from exc
    if not examples:
        raise CliValidationError(f"{path} holds no examples")
    return examples


# --- subcommands -----------------------------------------------------------------


def _cmd_aggregate(args: argparse.Namespace, file_config: Mapping, argv: Sequence[str]) -> int:
    resolved = _resolve(args, file_config, {"input-format": "jsonl", "seed": 0})
    posts = _require_file(args.posts, "posts file")
    ic = _require_file(args.ic, "ic annotations file")
    oc = _require_file(args.oc, "oc annotations file")
    out = _out_dir(args)
    bundle = load_bundle(posts, ic, oc, format=resolved["input-format"])
    examples, excluded = aggregation.compute_sensitivities(bundle)
    aggregation.save_examples(examples, out / "sensitivity.jsonl")
    _write_json(out / "excluded.json", {"excluded_post_ids": excluded, "n_excluded": len(excluded)})
    manifest = build_manifest(
        "aggregate",
        argv,
        resolved,
        {},
        {"posts": posts, "ic": ic, "oc": oc},
        ["sensitivity.jsonl", "excluded.json"],
    )
    write_manifest(out, manifest)
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace, file_config: Mapping, argv: Sequence[str]) -> int:
    resolved = _resolve(args, file_config, {"input-format": "jsonl", "bins": 41, "seed": 0})
    posts = _require_file(args.posts, "posts file")
    ic = _require_file(args.ic, "ic annotations file")
    oc = _require_file(args.oc, "oc annotations file")
    if resolved["bins"] < 1:
        raise CliValidationError("--bins must be >= 1")
    out = _out_dir(args)
    bundle = load_bundle(posts, ic, oc, format=resolved["input-format"])
    examples, excluded = aggregation.compute_sensitivities(bundle)
    records = [ex.record for ex in examples]

    outputs = []
    report: dict = {"n_posts": len(bundle.posts), "n_scored": len(records), "n_excluded": len(excluded)}

    agreement_block = {}
    for name, annotation_records in (("ic", bundle.ic_annotations), ("oc", bundle.oc_annotations)):
        try:
            rep = aggregation.agreement(annotation_records)
            agreement_block[name] = {
                "free_marginal_kappa": rep.free_marginal_kappa,
                "mean_pairwise_agreement": rep.mean_pairwise_agreement,
                "n_items": rep.n_items,
                "n_categories": rep.n_categories,
            }
            rep2 = aggregation.agreement(
                annotation_records, n_categories=2, label_key=aggregation.collapse_binary
            )
            agreement_block[name]["binary_free_marginal_kappa"] = rep2.free_marginal_kappa
            agreement_block[name]["binary_mean_pairwise_agreement"] = rep2.mean_pairwise_agreement
        except ValueError as exc:
            agreement_block[name] = {"error": str(exc)}
    report["agreement"] = agreement_block

    if records:
        hist = aggregation.sensitivity_histogram(records, resolved["bins"])
        _write_csv(
            out / "delta_histogram.csv",
            ["bin_center", "count"],
            list(zip(hist.centers, hist.counts)),
        )
        outputs.append("delta_histogram.csv")
        report["delta_histogram"] = {"edges": list(hist.edges), "counts": list(hist.counts)}

        buckets = aggregation.delta_buckets([r.delta for r in records])
        report["delta_buckets"] = {
            "n": buckets.n,
            "unchanged": buckets.unchanged,
            "increased": buckets.increased,
            "decreased": buckets.decreased,
        }
        report["binarized_unchanged_fraction"] = aggregation.binarized_unchanged_fraction(
            [(r.s_oc.value, r.s_ic.value) for r in records]
        )

        _write_csv(
            out / "sensitive_counts.csv",
            ["t", "count"],
            [(t, aggregation.count_sensitive(records, t)) for t in THRESHOLD_GRID],
        )
        outputs.append("sensitive_counts.csv")

        score_bins = np.linspace(0.0, 1.0, 21)
        oc_counts, _ = np.histogram([r.s_oc.value for r in records], bins=score_bins)
        ic_counts, _ = np.histogram([r.s_ic.value for r in records], bins=score_bins)
        centers = (score_bins[:-1] + score_bins[1:]) / 2.0
        _write_csv(
            out / "toxicity_histogram.csv",
            ["bin_center", "oc_count", "ic_count"],
            list(zip(centers.tolist(), oc_counts.tolist(), ic_counts.tolist())),
        )
        outputs.append("toxicity_histogram.csv")

        points, zero_vote = analysis.parent_utility(bundle.ic_annotations, records, THRESHOLD_GRID)
        if len(zero_vote) < len(records):
            _write_csv(
                out / "parent_utility.csv",
                ["t", "fraction_helpful", "n"],
                [(p.t, "" if p.fraction_helpful is None else p.fraction_helpful, p.n) for p in points],
            )
            outputs.append("parent_utility.csv")
            report["parent_utility_zero_vote_post_ids"] = zero_vote

    target_lengths = [len(p.target_text) for p in bundle.posts]
    parent_lengths = [len(p.parent_text) for p in bundle.posts if p.parent_text is not None]
    max_len = max(target_lengths + parent_lengths) if (target_lengths or parent_lengths) else 1
    length_bins = np.linspace(0, max_len, 21)
    target_counts, _ = np.histogram(target_lengths, bins=length_bins)
    parent_counts, _ = np.histogram(parent_lengths, bins=length_bins)
    length_centers = (length_bins[:-1] + length_bins[1:]) / 2.0
    _write_csv(
        out / "lengths.csv",
        ["bin_center", "parent_count", "target_count"],
        list(zip(length_centers.tolist(), parent_counts.tolist(), target_counts.tolist())),
    )
    outputs.append("lengths.csv")

    _write_json(out / "stats.json", report)
    outputs.append("stats.json")
    manifest = build_manifest(
        "stats", argv, resolved, {}, {"posts": posts, "ic": ic, "oc": oc}, outputs
    )
    write_manifest(out, manifest)
    return EXIT_OK


def _cmd_train(args: argparse.Namespace, file_config: Mapping, argv: Sequence[str]) -> int:
    resolved = _resolve(
        args,
        file_config,
        {"family": None, "val-fraction": 0.1, "seed": 0, "scorer": None, "scorer_tcp": None, "threads": 8},
    )
    family = models.resolve_family(resolved["family"])
    data_path = _require_file(args.data, "data file")
    if not 0.0 <= resolved["val-fraction"] < 1.0:
        raise CliValidationError("--val-fraction must be in [0, 1)")
    out = _out_dir(args)
    examples = _load_examples_checked(data_path)

    endpoint = _endpoint_from(resolved)
    if family == models.FAMILY_EXTERNAL and endpoint is None:
        raise CliValidationError("external family needs --scorer or --scorer-tcp")
    config = _train_config(resolved, file_config)
    if endpoint is not None:
        config = dataclasses.replace(config, external=endpoint)

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(examples))
    n_val = int(len(examples) * resolved["val-fraction"])
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if len(train_idx) == 0:
        raise CliValidationError("validation fraction leaves no training data")
    train_items = [(examples[i].post.target_text, examples[i].record.delta) for i in train_idx]
    val_items = [(examples[i].post.target_text, examples[i].record.delta) for i in val_idx]

    model = models.train(family, train_items, val_items or None, config)
    models.save_model(model, out / "model.bin")
    manifest = build_manifest(
        "train",
        argv,
        {**resolved, "family": family},
        {"train": config.seed},
        {"data": data_path},
        ["model.bin"],
    )
    write_manifest(out, manifest)
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace, file_config: Mapping, argv: Sequence[str]) -> int:
    resolved = _resolve(
        args,
        file_config,
        {"family": None, "repeats": 3, "seed": 0, "scorer": None, "scorer_tcp": None, "threads": 8},
    )
    family = models.resolve_family(resolved["family"])
    data_path = _require_file(args.data, "data file")
    if resolved["repeats"] < 1:
        raise CliValidationError("--repeats must be >= 1")
    out = _out_dir(args)
    examples = _load_examples_checked(data_path)

    endpoint = _endpoint_from(resolved)
    if family == models.FAMILY_EXTERNAL and endpoint is None:
        raise CliValidationError("external family needs --scorer or --scorer-tcp")
    config = _train_config(resolved, file_config)
    if endpoint is not None:
        config = dataclasses.replace(config, external=endpoint)
    split = evaluation.SplitSpec(n_repeats=resolved["repeats"], seed=config.seed)

    report = evaluation.monte_carlo_cv(examples, family, config, split)
    obj = report.to_json()
    obj["means_x100"] = {
        metric: (None if value is None else value * 100.0) for metric, value in obj["means"].items()
    }
    obj["family"] = family
    _write_json(out / "report.json", obj)
    _write_csv(
        out / "folds.csv",
        ["fold", "mse", "mae", "aupr", "auc", "n_test"],
        [
            (
                i,
                fold.mse,
                fold.mae,
                "" if fold.aupr is None else fold.aupr,
                "" if fold.auc is None else fold.auc,
                fold.n_test,
            )
            for i, fold in enumerate(report.folds)
        ],
    )
    manifest = build_manifest(
        "evaluate",
        argv,
        {**resolved, "family": family},
        {"split": split.seed},
        {"data": data_path},
        ["report.json", "folds.csv"],
    )
    write_manifest(out, manifest)
    return EXIT_OK


def _cmd_stratify(args: argparse.Namespace, file_config: Mapping, argv: Sequence[str]) -> int:
    resolved = _resolve(
        args,
        file_config,
        {"mode": "target", "thresholds": None, "threads": 8, "seed": 0, "scorer": None, "scorer_tcp": None},
    )
    data_path = _require_file(args.data, "data file")
    endpoint = _endpoint_from(resolved)
    if endpoint is None:
        raise CliValidationError("stratify needs --scorer or --scorer-tcp")
    if resolved["thresholds"] is None:
        thresholds: tuple[float, ...] = THRESHOLD_GRID
    else:
        try:
            thresholds = tuple(float(x) for x in str(resolved["thresholds"]).split(","))
        except ValueError as exc:
            raise CliValidationError(f"bad --thresholds: {exc}") from exc
    mode = evaluation.MODE_CONCAT_PARENT if resolved["mode"] == "concat" else evaluation.MODE_TARGET_ONLY
    out = _out_dir(args)
    examples = _load_examples_checked(data_path)

    result = evaluation.stratified_toxicity_mae(
        endpoint, examples, thresholds, mode=mode, max_in_flight=resolved["threads"]
    )
    _write_csv(
        out / "stratified_mae.csv",
        ["t", "mae", "n"],
        [(row.t, "" if row.mae is None else row.mae, row.n) for row in result.rows],
    )
    outputs = ["stratified_mae.csv"]
    if result.errors:
        _write_json(out / "errors.json", {"per_post_errors": result.errors})
        outputs.append("errors.json")
        print(f"warning: {len(result.errors)} posts failed to score; partial result", file=sys.stderr)
    manifest = build_manifest(
        "stratify", argv, {**resolved, "mode": mode}, {}, {"data": data_path}, outputs
    )
    write_manifest(out, manifest)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace, file_config: Mapping, argv: Sequence[str]) -> int:
    resolved = _resolve(args, file_config, {"k": None, "seed": 0})
    model_path = _require_file(args.model, "model file")
    pool_path = _require_file(args.pool, "pool file")
    if resolved["k"] < 1:
        raise CliValidationError("--k must be >= 1")
    out = _out_dir(args)
    pool = load_posts(pool_path)
    if resolved["k"] > len(pool):
        raise CliValidationError(f"--k {resolved['k']} exceeds pool size {len(pool)}")
    model = models.load_model(model_path)
    scores = model.predict_batch([p.target_text for p in pool])
    ranked = sorted(zip(pool, scores), key=lambda pair: (-pair[1], pair[0].post_id))
    with (out / "selected.jsonl").open("w", encoding="utf-8") as handle:
        for rank, (post, score) in enumerate(ranked[: resolved["k"]]):
            handle.write(
                json.dumps(
                    {"post_id": post.post_id, "score": float(score), "rank": rank},
                    ensure_ascii=False,
                )
                + "\n"
            )
    manifest = build_manifest(
        "sample", argv, resolved, {}, {"model": model_path, "pool": pool_path}, ["selected.jsonl"]
    )
    write_manifest(out, manifest)
    return EXIT_OK


def _cmd_augment(args: argparse.Namespace, file_config: Mapping, argv: Sequence[str]) -> int:
    resolved = _resolve(
        args,
        file_config,
        {
            "cycles": 5,
            "k": 1000,
            "selection": "teacher",
            "single-shot": False,
            "family": "ridge",
            "repeats": 3,
            "seed": 0,
        },
    )
    family = models.resolve_family(resolved["family"])
    data_path = _require_file(args.data, "data file")
    pool_path = _require_file(args.pool, "pool file")
    out = _out_dir(args)
    examples = _load_examples_checked(data_path)
    pool = load_posts(pool_path)
    selection = (
        augmentation.SELECTION_TEACHER_TOP_K
        if resolved["selection"] == "teacher"
        else augmentation.SELECTION_RANDOM_K
    )
    config_base = _train_config(resolved, file_config)
    split = evaluation.SplitSpec(n_repeats=resolved["repeats"], seed=resolved["seed"])

    all_logs: list[tuple[int, augmentation.CycleLog]] = []
    for repeat in range(split.n_repeats):
        tr, val, test = evaluation.split_indices(len(examples), split, repeat)

        def rows(idx) -> list[augmentation.TrainPost]:
            return [
                augmentation.TrainPost(post=examples[i].post, target=examples[i].record.delta)
                for i in idx
            ]

        repeat_seed = int(np.random.SeedSequence([resolved["seed"], repeat]).generate_state(1)[0])
        aug_config = augmentation.AugmentationConfig(
            pool=tuple(pool),
            selection=selection,
            k_per_cycle=resolved["k"],
            n_cycles=resolved["cycles"],
            single_shot=bool(resolved["single-shot"]),
            teacher_family=family,
            student_family=family,
            train_config=config_base,
            seed=repeat_seed,
        )
        for log in augmentation.run_augmentation(rows(tr), rows(val), rows(test), aug_config):
            all_logs.append((repeat, log))

    with (out / "cycles.jsonl").open("w", encoding="utf-8") as handle:
        for repeat, log in all_logs:
            handle.write(json.dumps({"repeat": repeat, **log.to_json()}, ensure_ascii=False) + "\n")

    by_cycle: dict[int, dict[int, float]] = {}
    for repeat, log in all_logs:
        by_cycle.setdefault(log.cycle, {})[repeat] = log.student_mse
    rows_csv = []
    for cycle in sorted(by_cycle):
        per_repeat = by_cycle[cycle]
        mean_mse = float(np.mean(list(per_repeat.values())))
        rows_csv.append(
            [cycle, mean_mse] + [per_repeat.get(r, "") for r in range(split.n_repeats)]
        )
    _write_csv(
        out / "mse_by_cycle.csv",
        ["cycle", "mean_test_mse"] + [f"test_mse_r{r}" for r in range(split.n_repeats)],
        rows_csv,
    )
    manifest = build_manifest(
        "augment",
        argv,
        {**resolved, "selection": selection, "family": family},
        {"split": resolved["seed"]},
        {"data": data_path, "pool": pool_path},
        ["cycles.jsonl", "mse_by_cycle.csv"],
        timings={
            "cycles": [
                {"repeat": repeat, "cycle": log.cycle, "wall_clock_seconds": log.wall_clock_seconds}
                for repeat, log in all_logs
            ]
        },
    )
    write_manifest(out, manifest)
    return EXIT_OK


def _read_bool_column(path: Path) -> list[bool]:
    truthy = {"true", "1", "yes", "t"}
    falsy = {"false", "0", "no", "f"}
    values = []
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            next(reader)  # header
        except StopIteration:
            raise CliValidationError(f"{path}: empty file") from None
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            cell = row[0].strip().lower()
            if cell in truthy:
                values.append(True)
            elif cell in falsy:
                values.append(False)
            else:
                raise CliValidationError(f"{path}:{row_no}: not a boolean: {row[0]!r}")
    if not values:
        raise CliValidationError(f"{path}: no data rows")
    return values


def _cmd_bootstrap(args: argparse.Namespace, file_config: Mapping, argv: Sequence[str]) -> int:
    resolved = _resolve(
        args,
        file_config,
        {"resamples": 1000, "resample-size": 100, "direction": "a_gt_b", "seed": 0},
    )
    a_path = _require_file(args.group_a, "group-a file")
    b_path = _require_file(args.group_b, "group-b file")
    out = _out_dir(args)
    group_a = _read_bool_column(a_path)
    group_b = _read_bool_column(b_path)
    direction = (
        analysis.DIRECTION_A_GREATER if resolved["direction"] == "a_gt_b" else analysis.DIRECTION_B_GREATER
    )
    try:
        result = analysis.paired_bootstrap(
            group_a,
            group_b,
            resample_size=resolved["resample-size"],
            n_resamples=resolved["resamples"],
            seed=resolved["seed"],
            direction=direction,
        )
    except ValueError as exc:
        raise CliValidationError(str(exc)) from exc
    _write_json(out / "bootstrap.json", result.to_json())
    manifest = build_manifest(
        "bootstrap",
        argv,
        {**resolved, "direction": direction},
        {"bootstrap": resolved["seed"]},
        {"group_a": a_path, "group_b": b_path},
        ["bootstrap.json"],
    )
    write_manifest(out, manifest)
    return EXIT_OK


_COMMANDS = {
    "aggregate": _cmd_aggregate,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "stratify": _cmd_stratify,
    "sample": _cmd_sample,
    "augment": _cmd_augment,
    "bootstrap": _cmd_bootstrap,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        file_config = _load_config_file(args.config)
        return _COMMANDS[args.subcommand](args, file_config, argv)
    except CliValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CorpusError, evaluation.MetricError, models.TrainingError, augmentation.AugmentationError, FeatureError) as exc:
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
