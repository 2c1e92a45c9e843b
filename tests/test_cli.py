import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from ctxsens.cli import COMMANDS, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, _build_parser, main
from ctxsens import models
from ctxsens.models import load_model
from ctxsens.scorer import transport_fingerprint

from helpers import planted_posts, post_table, save_bundle, save_posts, synthetic_bundle, toy_scorer_command
from oracles import tfidf_rows, walk_forest


@pytest.fixture()
def corpus_files(tmp_path):
    bundle = synthetic_bundle(n_posts=40, seed=11)
    paths = (tmp_path / "posts.jsonl", tmp_path / "ic.jsonl", tmp_path / "oc.jsonl")
    save_bundle(bundle, *paths)
    return paths


@pytest.fixture()
def sensitivity_file(tmp_path, corpus_files):
    out = tmp_path / "agg"
    assert main(_args(f"aggregate --posts {corpus_files[0]} --ic {corpus_files[1]} --oc {corpus_files[2]} --out {out}")) == EXIT_OK
    return out / "sensitivity.jsonl"


def _args(line: str) -> list[str]:
    return shlex.split(line)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_aggregate_writes_outputs_and_manifest(tmp_path, corpus_files):
    posts, ic, oc = corpus_files
    out = tmp_path / "agg"
    before = [_sha(p) for p in corpus_files]
    code = main(_args(f"aggregate --posts {posts} --ic {ic} --oc {oc} --out {out}"))
    assert code == EXIT_OK
    assert (out / "sensitivity.jsonl").is_file()
    assert (out / "excluded.json").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "aggregate"
    assert set(manifest["inputs"]) == {"posts", "ic", "oc"}
    assert manifest["inputs"]["posts"]["sha256"] == _sha(posts)
    assert [_sha(p) for p in corpus_files] == before  # inputs untouched
    assert len(list(out.glob("manifest.json"))) == 1


def test_aggregate_missing_input_is_validation_error(tmp_path, capsys):
    code = main(_args(f"aggregate --posts {tmp_path}/nope.jsonl --ic {tmp_path}/i --oc {tmp_path}/o --out {tmp_path}/x"))
    assert code == EXIT_VALIDATION
    assert "not found" in capsys.readouterr().err


def test_aggregate_schema_violation_is_validation_error(tmp_path, corpus_files, capsys):
    posts, ic, oc = corpus_files
    broken = tmp_path / "broken.jsonl"
    broken.write_text('{"post_id": "x"}\n', encoding="utf-8")
    code = main(_args(f"aggregate --posts {broken} --ic {ic} --oc {oc} --out {tmp_path}/y"))
    assert code == EXIT_VALIDATION


def test_unknown_flag_is_validation_error(capsys):
    assert main(_args("aggregate --bogus x")) == EXIT_VALIDATION


def test_unknown_subcommand_is_validation_error():
    assert main(_args("frobnicate --out x")) == EXIT_VALIDATION


def test_no_subcommand_prints_usage():
    assert main([]) == EXIT_VALIDATION


def test_stats_outputs_figure_csvs(tmp_path, corpus_files):
    posts, ic, oc = corpus_files
    out = tmp_path / "stats"
    assert main(_args(f"stats --posts {posts} --ic {ic} --oc {oc} --out {out}")) == EXIT_OK
    report = json.loads((out / "stats.json").read_text())
    assert "agreement" in report and "ic" in report["agreement"]
    assert 0 <= report["binarized_unchanged_fraction"] <= 1
    with (out / "delta_histogram.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert sum(int(r["count"]) for r in rows) == report["n_scored"]
    for name in ("sensitive_counts.csv", "toxicity_histogram.csv", "lengths.csv", "parent_utility.csv"):
        assert (out / name).is_file(), name


def test_train_is_byte_deterministic(tmp_path, sensitivity_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"features": {"min_df": 1, "ngram_max": 1}}), encoding="utf-8")
    out_a, out_b = tmp_path / "m1", tmp_path / "m2"
    line = f"train --family ridge --data {sensitivity_file} --seed 7 --config {config}"
    assert main(_args(f"{line} --out {out_a}")) == EXIT_OK
    assert main(_args(f"{line} --out {out_b}")) == EXIT_OK
    assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()


def test_svr_train_and_evaluate_are_byte_deterministic(tmp_path, sensitivity_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"features": {"min_df": 1, "ngram_max": 1}}), encoding="utf-8")
    for name in ("first", "again"):
        common = f"--family svr --data {sensitivity_file} --seed 7 --config {config}"
        assert main(_args(f"train {common} --out {tmp_path}/{name}/train")) == EXIT_OK
        assert main(_args(f"evaluate {common} --repeats 2 --out {tmp_path}/{name}/eval")) == EXIT_OK
    for output in ("train/model.bin", "eval/report.json", "eval/folds.csv"):
        assert (tmp_path / "first" / output).read_bytes() == (tmp_path / "again" / output).read_bytes()


@pytest.mark.parametrize(
    "family, bad",
    [
        ("svr", {"svr_batch_size": 0}),
        ("svr", {"svr_c": 0}),
        ("svr", {"svr_learning_rate": -0.1}),
        ("svr", {"svr_epsilon": -0.01}),
        ("rf", {"rf_n_trees": 0}),
        ("rf", {"rf_min_samples_leaf": 0}),
        ("rf", {"rf_min_samples_leaf": float("nan")}),
        ("rf", {"rf_max_depth": -1}),
        ("ridge", {"ridge_max_iter": 0}),
        ("ridge", {"ridge_lambda": -1.0}),
        ("ridge", {"ridge_lambda": float("nan")}),
        ("svr", {"svr_max_epochs": 0}),
        ("svr", {"svr_max_epochs": -3}),
        ("ridge", {"ridge_tol": float("nan")}),
        ("ridge", {"ridge_tol": -1.0}),
        ("rf", {"rf_max_features": True}),
        ("rf", {"rf_max_features": 0}),
        ("rf", {"rf_max_features": "log2"}),
        ("rf", {"rf_bootstrap": 1}),
        # the integer fields take neither a bool nor a float
        ("rf", {"rf_n_trees": True}),
        ("rf", {"rf_n_trees": 2.5}),
        ("rf", {"rf_max_depth": 3.0}),
        ("rf", {"rf_min_samples_leaf": 2.0}),
        ("ridge", {"ridge_max_iter": 1.5}),
        ("svr", {"svr_batch_size": 2.5}),
        ("svr", {"svr_max_epochs": 10.0}),
        ("svr", {"patience": True}),
    ],
)
def test_bad_hyperparameter_is_validation_error(tmp_path, sensitivity_file, capsys, family, bad):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(bad), encoding="utf-8")
    out = tmp_path / "m"
    code = main(_args(f"train --family {family} --data {sensitivity_file} --config {config} --out {out}"))
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert next(iter(bad)) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, config",
    [
        ("train --family svr --data {data}", {"svr_c": 0}),
        ("train --family ridge --data {data}", {"features": [1]}),
        ("evaluate --family ridge --data {data}", {"repeats": "3"}),
        ("augment --data {data} --pool {pool}", {"single-shot": 1}),
        ("stratify --data {data} --scorer {scorer}", {"mode": "sideways"}),
        ("stratify --data {data} --scorer {scorer} --threads 0", {}),
        ("sample --model {model} --pool {pool} --k 6", {}),
        ("sample --model {model} --pool {pool} --k 2 --threads 4", {}),
        ("augment --data {data} --pool {pool} --cycles 0", {}),
        ("augment --data {data} --pool {pool} --k 0", {}),
        ("augment --data {data} --pool {pool} --repeats 0", {}),
        ("augment --data {data} --pool {pool}", {"repeats": -1}),
        ("stratify --data {data} --scorer {scorer} --thresholds nan,inf", {}),
        ("stratify --data {data} --scorer {scorer} --thresholds 0.1,-inf", {}),
    ],
)
@pytest.mark.usefixtures("scorer_processes")
def test_rejected_run_prints_one_error_and_creates_no_out_directory(
    tmp_path, sensitivity_file, capsys, line, config
):
    pool, _ = planted_posts(5, seed=5, id_prefix="pool")
    save_posts(pool, tmp_path / "pool.jsonl")
    assert main(_args(f"train --family b1 --data {sensitivity_file} --out {tmp_path}/model")) == EXIT_OK
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    paths = {"data": sensitivity_file, "pool": tmp_path / "pool.jsonl", "model": tmp_path / "model" / "model.bin"}
    line = line.format(scorer=shlex.quote(shlex.join(toy_scorer_command())), **paths)
    assert main(_args(f"{line} --config {tmp_path}/config.json --out {tmp_path}/out")) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out").exists()


def test_readme_walkthrough_parses():
    # a flag the README documents but the command table lost would fail here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("ctxsens ")]
    assert {argv[1] for argv in commands} == set(COMMANDS)
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_train_records_resolved_config(tmp_path, sensitivity_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3}), encoding="utf-8")
    out = tmp_path / "m"
    assert main(_args(f"train --family b1 --data {sensitivity_file} --config {config} --out {out}")) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["seed"] == 3  # from config file
    assert manifest["resolved_config"]["family"] == "constant_mean"
    out2 = tmp_path / "m2"
    assert main(_args(f"train --family b1 --data {sensitivity_file} --config {config} --seed 9 --out {out2}")) == EXIT_OK
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["resolved_config"]["seed"] == 9  # flag wins


def test_train_keeps_a_training_row_at_any_validation_fraction(tmp_path, sensitivity_file):
    one_row = tmp_path / "one.jsonl"
    one_row.write_text(sensitivity_file.read_text(encoding="utf-8").splitlines(keepends=True)[0], encoding="utf-8")
    assert main(_args(f"train --family b1 --data {one_row} --val-fraction 0.99 --out {tmp_path}/m")) == EXIT_OK
    assert (tmp_path / "m" / "model.bin").is_file()


def test_train_unknown_family_fails_fast(tmp_path, sensitivity_file, capsys):
    code = main(_args(f"train --family gbm --data {sensitivity_file} --out {tmp_path}/m"))
    assert code == EXIT_VALIDATION
    assert "family" in capsys.readouterr().err


def test_evaluate_writes_report_and_folds(tmp_path, sensitivity_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"features": {"min_df": 1, "ngram_max": 1}}), encoding="utf-8")
    out = tmp_path / "eval"
    code = main(_args(f"evaluate --family ridge --data {sensitivity_file} --repeats 3 --config {config} --out {out}"))
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["n_folds"] == 3
    assert report["family"] == "ridge"
    assert report["means"]["mse"] is not None
    assert report["means_x100"]["mse"] == pytest.approx(report["means"]["mse"] * 100)
    with (out / "folds.csv").open() as fh:
        assert len(list(csv.DictReader(fh))) == 3


def test_sample_emits_descending_scores(tmp_path, sensitivity_file):
    pool, _ = planted_posts(30, seed=5, id_prefix="pool")
    pool_path = tmp_path / "pool.jsonl"
    save_posts(pool, pool_path)
    model_dir = tmp_path / "model"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"features": {"min_df": 1, "ngram_max": 1}}), encoding="utf-8")
    assert main(_args(f"train --family ridge --data {sensitivity_file} --config {config} --out {model_dir}")) == EXIT_OK
    out = tmp_path / "sample"
    assert main(_args(f"sample --model {model_dir}/model.bin --pool {pool_path} --k 10 --out {out}")) == EXIT_OK
    rows = [json.loads(line) for line in (out / "selected.jsonl").read_text().splitlines()]
    assert len(rows) == 10
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert [r["rank"] for r in rows] == list(range(10))


def test_forest_train_is_deterministic_and_sample_matches_tree_walk(tmp_path, sensitivity_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rf_n_trees": 6, "rf_min_samples_leaf": 2}), encoding="utf-8")
    for name in ("model", "again"):
        line = f"train --family rf --data {sensitivity_file} --seed 3 --config {config} --out {tmp_path}/{name}"
        assert main(_args(line)) == EXIT_OK
    assert (tmp_path / "model" / "model.bin").read_bytes() == (tmp_path / "again" / "model.bin").read_bytes()

    pool = synthetic_bundle(n_posts=30, seed=12).posts
    pool_path = tmp_path / "pool.jsonl"
    save_posts(pool, pool_path)
    out = tmp_path / "sample"
    assert main(_args(f"sample --model {tmp_path}/model/model.bin --pool {pool_path} --k 12 --out {out}")) == EXIT_OK

    model = load_model(tmp_path / "model" / "model.bin")
    assert any((tree.feature >= 0).any() for tree in model.trees)
    matrix = tfidf_rows(model.vocab, pool.target_texts)
    scores = np.clip(walk_forest(model.trees, matrix).mean(axis=0), -1.0, 1.0)
    ranked = sorted(zip(pool.post_ids, scores), key=lambda pair: (-pair[1], pair[0]))[:12]
    expected = [{"post_id": post_id, "score": float(score), "rank": rank} for rank, (post_id, score) in enumerate(ranked)]
    assert [json.loads(line) for line in (out / "selected.jsonl").read_text().splitlines()] == expected


def test_duplicate_post_id_is_validation_error(tmp_path, sensitivity_file, capsys):
    lines = sensitivity_file.read_text(encoding="utf-8").splitlines(keepends=True)
    duplicated = tmp_path / "dup.jsonl"
    duplicated.write_text("".join(lines + lines[2:3]), encoding="utf-8")
    code = main(_args(f"train --family b1 --data {duplicated} --out {tmp_path}/m"))
    assert code == EXIT_VALIDATION
    assert f"duplicate post_id {json.loads(lines[2])['post_id']!r}" in capsys.readouterr().err


def test_sample_rejects_repeated_pool_ids(tmp_path, sensitivity_file, capsys):
    posts = synthetic_bundle(n_posts=40, seed=12).posts
    pool_path = tmp_path / "pool.jsonl"
    save_posts(posts, pool_path)
    lines = pool_path.read_text(encoding="utf-8").splitlines(keepends=True)
    pool_path.write_text("".join(lines + lines[5:8]), encoding="utf-8")
    assert main(_args(f"train --family b1 --data {sensitivity_file} --out {tmp_path}/model")) == EXIT_OK
    capsys.readouterr()
    code = main(_args(f"sample --model {tmp_path}/model/model.bin --pool {pool_path} --k 43 --out {tmp_path}/s"))
    assert code == EXIT_VALIDATION
    assert f"pool.jsonl:41: duplicate post_id {posts.post_ids[5]!r}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.usefixtures("scorer_processes")
def test_external_model_file_holds_a_fingerprint_and_sample_needs_its_scorer(tmp_path, sensitivity_file, capsys):
    pool_path = tmp_path / "pool.jsonl"
    save_posts(post_table([(f"pool{i}", f"0.{i}") for i in range(6)]), pool_path)
    scorer = shlex.quote(shlex.join(toy_scorer_command("--mode", "float")))
    assert main(_args(f"train --family external --data {sensitivity_file} --scorer {scorer} --out {tmp_path}/m")) == EXIT_OK
    model_file = tmp_path / "m" / "model.bin"
    assert "toy_scorer" not in model_file.read_bytes().decode("utf-8", "replace")
    assert load_model(model_file).endpoint_sha256 == transport_fingerprint(toy_scorer_command("--mode", "float"), None)

    sample = f"sample --model {model_file} --pool {pool_path} --k 2"
    assert main(_args(f"{sample} --scorer {scorer} --threads 2 --out {tmp_path}/s")) == EXIT_OK
    rows = [json.loads(line) for line in (tmp_path / "s" / "selected.jsonl").read_text().splitlines()]
    assert [(r["post_id"], r["score"]) for r in rows] == [("pool5", 0.5), ("pool4", 0.4)]
    capsys.readouterr()
    other = shlex.quote(shlex.join(toy_scorer_command()))
    for flags, message in (("", "needs --scorer"), (f"--scorer {other}", "not the scorer")):
        assert main(_args(f"{sample} {flags} --out {tmp_path}/bad")) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.usefixtures("scorer_processes")
def test_loading_a_crafted_model_file_runs_no_command(tmp_path, monkeypatch):
    # a model file from before fingerprints stored the endpoint, command included
    sentinel = tmp_path / "ran"
    command = [sys.executable, "-c", f"open({str(sentinel)!r}, 'w').close()"]
    metadata = models.TrainingMetadata(seed=0, hyperparameters={}, training_fingerprint="x")
    model = models.ExternalModel("unused", metadata, None)
    old_extras = {"endpoint": {"command": command, "address": None, "timeout": 30.0, "max_in_flight": 8}}
    monkeypatch.setattr(model, "_extra_metadata", lambda: {**old_extras, "fit_accepted": None})
    models.save_model(model, tmp_path / "model.bin")
    pool_path = tmp_path / "pool.jsonl"
    save_posts(post_table([("a", "text"), ("b", "more text")]), pool_path)

    loaded = load_model(tmp_path / "model.bin")
    assert loaded.endpoint is None
    assert loaded.endpoint_sha256 == transport_fingerprint(command, None)
    code = main(_args(f"sample --model {tmp_path}/model.bin --pool {pool_path} --k 1 --out {tmp_path}/s"))
    assert code == EXIT_VALIDATION
    assert not sentinel.exists()


def test_evaluate_external_family_opens_one_scorer_per_fold(tmp_path, sensitivity_file, scorer_processes):
    scorer = shlex.quote(shlex.join(toy_scorer_command("--mode", "fitted", "--fit", "accept")))
    line = f"evaluate --family external --data {sensitivity_file} --repeats 2 --scorer {scorer} --out {tmp_path}/e"
    assert main(_args(line)) == EXIT_OK
    assert len(scorer_processes) == 2
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert len(report["folds"]) == 2


def test_sample_k_too_large_is_validation_error(tmp_path, sensitivity_file, capsys):
    pool, _ = planted_posts(5, seed=5, id_prefix="pool")
    pool_path = tmp_path / "pool.jsonl"
    save_posts(pool, pool_path)
    model_dir = tmp_path / "model"
    assert main(_args(f"train --family b1 --data {sensitivity_file} --out {model_dir}")) == EXIT_OK
    code = main(_args(f"sample --model {model_dir}/model.bin --pool {pool_path} --k 50 --out {tmp_path}/s"))
    assert code == EXIT_VALIDATION


def test_augment_writes_cycles_and_curve(tmp_path, sensitivity_file):
    pool, _ = planted_posts(30, seed=6, id_prefix="pool")
    pool_path = tmp_path / "pool.jsonl"
    save_posts(pool, pool_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"features": {"min_df": 1, "ngram_max": 1}}), encoding="utf-8")
    out = tmp_path / "aug"
    code = main(
        _args(
            f"augment --data {sensitivity_file} --pool {pool_path} --cycles 2 --k 3 "
            f"--selection teacher --family ridge --repeats 2 --seed 1 --config {config} --out {out}"
        )
    )
    assert code == EXIT_OK
    lines = [json.loads(l) for l in (out / "cycles.jsonl").read_text().splitlines()]
    assert {(l["repeat"], l["cycle"]) for l in lines} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    with (out / "mse_by_cycle.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["cycle"] for r in rows] == ["0", "1"]
    assert all(float(r["mean_test_mse"]) >= 0 for r in rows)


def test_augment_rerun_gives_byte_identical_data_outputs(tmp_path, sensitivity_file):
    pool, _ = planted_posts(30, seed=6, id_prefix="pool")
    pool_path = tmp_path / "pool.jsonl"
    save_posts(pool, pool_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"features": {"min_df": 1}}), encoding="utf-8")
    for name in ("first", "again"):
        line = (
            f"augment --data {sensitivity_file} --pool {pool_path} --cycles 2 --k 3 --repeats 2 "
            f"--family ridge --seed 4 --config {config} --out {tmp_path}/{name}"
        )
        assert main(_args(line)) == EXIT_OK
    for output in ("cycles.jsonl", "mse_by_cycle.csv"):
        assert (tmp_path / "first" / output).read_bytes() == (tmp_path / "again" / output).read_bytes()
    assert "wall_clock_seconds" not in (tmp_path / "first" / "cycles.jsonl").read_text()
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    timings = manifest["timings"]["cycles"]
    assert [(t["repeat"], t["cycle"]) for t in timings] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(t["wall_clock_seconds"] > 0 for t in timings)


@pytest.mark.usefixtures("scorer_processes")
def test_stratify_with_toy_scorer(tmp_path, sensitivity_file):
    out = tmp_path / "strat"
    scorer = " ".join(toy_scorer_command())
    code = main(
        _args(f"stratify --data {sensitivity_file} --mode target --thresholds 0,0.2,0.4 --out {out}")
        + ["--scorer", scorer]
    )
    assert code == EXIT_OK
    with (out / "stratified_mae.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["t"] for r in rows] == ["0.0", "0.2", "0.4"]
    sizes = [int(r["n"]) for r in rows]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.usefixtures("scorer_processes")
@pytest.mark.parametrize("mode", ["nan", "inf"])
def test_stratify_reports_non_finite_scores_as_errors(tmp_path, sensitivity_file, capsys, mode):
    out = tmp_path / "strat"
    code = main(_args(f"stratify --data {sensitivity_file} --out {out}") + ["--scorer", " ".join(toy_scorer_command("--mode", mode))])
    assert code == EXIT_OK
    post_ids = [json.loads(line)["post_id"] for line in sensitivity_file.read_text().splitlines()]
    errors = json.loads((out / "errors.json").read_text())["per_post_errors"]
    assert sorted(errors) == sorted(post_ids)
    for table in out.glob("*.csv"):
        assert not {"nan", "inf"} & set(table.read_text().lower().replace(",", "\n").split()), table.name
    assert f"{len(post_ids)} posts failed to score" in capsys.readouterr().err


def _with_score(field, value):
    return lambda row: {**row, "s_ic": {**row["s_ic"], field: value}}


@pytest.mark.parametrize(
    "edit",
    [
        lambda row: {**row, "s_oc": None},
        lambda row: {**row, "target_text": 5},
        _with_score("n_raters", "7"),
        None,  # a line [1, 2] after the last row
    ],
    ids=["null score", "number as text", "string as count", "not an object"],
)
def test_malformed_sensitivity_row_is_validation_error(tmp_path, sensitivity_file, capsys, scorer_processes, edit):
    rows = sensitivity_file.read_text().splitlines()
    if edit is None:
        rows.append("[1, 2]")
        line = len(rows)
    else:
        rows[1] = json.dumps(edit(json.loads(rows[1])))
        line = 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(rows) + "\n")
    code = main(_args(f"stratify --data {bad} --out {tmp_path}/s") + ["--scorer", " ".join(toy_scorer_command())])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{bad}:{line}: " in err
    assert scorer_processes == []
    assert not (tmp_path / "s").exists()


def test_stratify_without_scorer_is_validation_error(tmp_path, sensitivity_file, capsys):
    code = main(_args(f"stratify --data {sensitivity_file} --out {tmp_path}/s"))
    assert code == EXIT_VALIDATION
    assert "scorer" in capsys.readouterr().err


def test_bootstrap_subcommand(tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    a_path.write_text("helpful\n" + "\n".join(["true"] * 30 + ["false"] * 10) + "\n")
    b_path.write_text("helpful\n" + "\n".join(["true"] * 10 + ["false"] * 30) + "\n")
    out = tmp_path / "boot"
    code = main(
        _args(
            f"bootstrap --group-a {a_path} --group-b {b_path} --resamples 200 "
            f"--resample-size 30 --direction a_gt_b --seed 4 --out {out}"
        )
    )
    assert code == EXIT_OK
    result = json.loads((out / "bootstrap.json").read_text())
    assert result["p_value"] <= 0.05
    assert result["observed_a"] == 0.75


def test_bootstrap_bad_boolean_is_validation_error(tmp_path, capsys):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    a_path.write_text("v\ntrue\nmaybe\n")
    b_path.write_text("v\ntrue\n")
    code = main(_args(f"bootstrap --group-a {a_path} --group-b {b_path} --out {tmp_path}/b"))
    assert code == EXIT_VALIDATION
    assert "boolean" in capsys.readouterr().err


@pytest.mark.parametrize("resamples", ["0", "-3"])
def test_bootstrap_resamples_below_one_is_validation_error(tmp_path, capsys, resamples):
    group = tmp_path / "group.csv"
    group.write_text("v\ntrue\nfalse\n")
    out = tmp_path / "b"
    code = main(_args(f"bootstrap --group-a {group} --group-b {group} --resample-size 2 --resamples {resamples} --out {out}"))
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == ["error: --resamples must be >= 1"]
    assert not out.exists()


def test_bootstrap_oversized_resample_is_validation_error(tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    a_path.write_text("v\ntrue\nfalse\n")
    b_path.write_text("v\ntrue\nfalse\n")
    code = main(_args(f"bootstrap --group-a {a_path} --group-b {b_path} --resample-size 10 --out {tmp_path}/b"))
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("case", ["posts", "ic_csv", "group_a", "config", "data"])
def test_non_utf8_input_is_validation_error_naming_its_line(tmp_path, corpus_files, sensitivity_file, capsys, case):
    posts, ic, oc = corpus_files
    csv_files = [tmp_path / f"{name}.csv" for name in ("posts", "ic", "oc")]
    save_bundle(synthetic_bundle(n_posts=10, seed=1), *csv_files, format="csv")
    group, config = tmp_path / "group.csv", tmp_path / "config.json"
    group.write_text("helpful\ntrue\nfalse\n")
    config.write_text(json.dumps({"ridge_lambda": 1.0, "ridge_max_iter": 50}, indent=1))
    good, line = {
        "posts": (posts, f"aggregate --posts {{bad}} --ic {ic} --oc {oc}"),
        "ic_csv": (csv_files[1], f"aggregate --input-format csv --posts {csv_files[0]} --ic {{bad}} --oc {csv_files[2]}"),
        "group_a": (group, f"bootstrap --group-a {{bad}} --group-b {group}"),
        "config": (config, f"train --family ridge --data {sensitivity_file} --config {{bad}}"),
        "data": (sensitivity_file, "train --family ridge --data {bad}"),
    }[case]
    lines = good.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:3] + b"\xe9" + lines[1][3:]  # a lone Latin-1 e-acute is not UTF-8
    bad = tmp_path / f"bad_{good.name}"
    bad.write_bytes(b"".join(lines))
    code = main(_args(line.format(bad=bad) + f" --out {tmp_path}/out"))
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert f"{bad}:2: not UTF-8: byte 0xe9 at column 4" in err
    assert "Traceback" not in err


def test_corrupt_model_file_is_runtime_error(tmp_path, sensitivity_file, capsys):
    pool, _ = planted_posts(5, seed=5, id_prefix="pool")
    pool_path = tmp_path / "pool.jsonl"
    save_posts(pool, pool_path)
    bad_model = tmp_path / "model.bin"
    bad_model.write_bytes(b"CSENSMDLgarbage-that-fails-crc")
    code = main(_args(f"sample --model {bad_model} --pool {pool_path} --k 2 --out {tmp_path}/s"))
    assert code == EXIT_RUNTIME


def test_subcommands_do_not_mutate_inputs(tmp_path, corpus_files):
    posts, ic, oc = corpus_files
    hashes = {p: _sha(p) for p in corpus_files}
    main(_args(f"aggregate --posts {posts} --ic {ic} --oc {oc} --out {tmp_path}/a1"))
    main(_args(f"stats --posts {posts} --ic {ic} --oc {oc} --out {tmp_path}/a2"))
    sens = tmp_path / "a1" / "sensitivity.jsonl"
    sens_hash = _sha(sens)
    main(_args(f"train --family b1 --data {sens} --out {tmp_path}/a3"))
    main(_args(f"evaluate --family b1 --data {sens} --out {tmp_path}/a4"))
    assert {p: _sha(p) for p in corpus_files} == hashes
    assert _sha(sens) == sens_hash


ROOT = Path(__file__).resolve().parent.parent


def _python(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports ctxsens from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def test_corpus_subcommands_never_import_scipy(tmp_path, corpus_files):
    # scipy costs every process about 0.17 s and 17 MB; only featurizing and
    # training need it
    posts, ic, oc = corpus_files
    group = tmp_path / "group.csv"
    group.write_text("helpful\ntrue\nfalse\ntrue\n")
    scorer = shlex.quote(shlex.join(toy_scorer_command()))
    lines = [
        f"aggregate --posts {posts} --ic {ic} --oc {oc} --out {tmp_path}/agg",
        f"stats --posts {posts} --ic {ic} --oc {oc} --out {tmp_path}/stats",
        f"stratify --data {tmp_path}/agg/sensitivity.jsonl --scorer {scorer} --out {tmp_path}/strat",
        f"bootstrap --group-a {group} --group-b {group} --resample-size 2 --out {tmp_path}/boot",
    ]
    script = f"""
import shlex, sys
import ctxsens.cli
assert "scipy" not in sys.modules, "import ctxsens.cli"
for line in {lines!r}:
    assert ctxsens.cli.main(shlex.split(line)) == 0, line
    assert "scipy" not in sys.modules, line
"""
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


def _traced(tmp_path, *argv: str) -> dict:
    """The span summary of one CLI call run through perfbench/traced.py."""
    spans = tmp_path / "spans.json"
    proc = _python(str(ROOT / "perfbench" / "traced.py"), str(spans), *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_benchmark_trace_pass_still_sees_the_featurizer(tmp_path, sensitivity_file):
    # perfbench/traced.py wraps the featurizer's public functions by name; an
    # API change that hides them from it would silently zero its layer metrics
    summary = _traced(tmp_path, "train", "--family", "ridge", "--data", str(sensitivity_file), "--out", str(tmp_path / "model"))
    assert summary["spans"]["features.fit_vocabulary"]["calls"] >= 1
    assert summary["spans"]["features.transform_many"]["calls"] >= 1
    assert summary["counters"]["features.transform_many.texts"] >= 1
    # the CLI's command table must call these through their modules, not hold them
    for span in ("manifest.build_manifest", "aggregation.load_examples", "models.train.ridge", "models.save_model"):
        assert summary["spans"][span]["calls"] >= 1, span


def test_benchmark_trace_pass_still_sees_the_corpus_layers(tmp_path, corpus_files):
    # the same for the spans of corpus-scorer's stats step, and the posts counter read off load_bundle's result
    posts, ic, oc = corpus_files
    summary = _traced(tmp_path, "stats", "--posts", str(posts), "--ic", str(ic), "--oc", str(oc), "--out", str(tmp_path / "stats"))
    for span in ("corpus.load_bundle", "aggregation.compute_sensitivities", "aggregation.agreement", "analysis.parent_utility"):
        assert summary["spans"][span]["calls"] >= 1, span
    assert summary["spans"]["aggregation.agreement"]["calls"] == 4  # two label sets per condition
    assert summary["counters"]["corpus.posts_loaded"] == 40
