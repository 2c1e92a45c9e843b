"""Scoring and forest training in forked parts: the same bytes at any part
count, one block of rows scored at a time, only scores sent back, and failing
parts reported."""

from __future__ import annotations

import os
import shlex
import signal
import types

import numpy as np
import pytest

from ctxsens import _fork, augmentation, features, models
from ctxsens.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from ctxsens.corpus import load_bundle

from helpers import save_bundle, synthetic_bundle
from test_golden import _write_inputs


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_small_batches(monkeypatch, parts: int, block_rows: int = 4) -> None:
    """parts CPUs, parts of at least 4 rows or row visits, and blocks of
    block_rows rows, so that the 40-post fixtures split into parts and blocks."""
    monkeypatch.setattr(_fork, "cpu_count", lambda: parts)
    monkeypatch.setattr(features, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(_fork, "_LEAST_WORK", 4)


def _cli(line: str) -> int:
    return main(shlex.split(line))


def test_outputs_are_the_same_bytes_at_any_part_count(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    data = tmp_path / "agg" / "sensitivity.jsonl"
    assert _cli(f"aggregate --posts {inputs}/posts.jsonl --ic {inputs}/ic.jsonl --oc {inputs}/oc.jsonl --out {data.parent}") == EXIT_OK
    configs = {"ridge": "ridge.json", "svr": "svr.json", "rf": "forest.json"}
    outputs, forks = {}, []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for parts in (1, 2, 3):
        _split_small_batches(monkeypatch, parts)
        forks.clear()
        out = tmp_path / str(parts)
        for family, config in configs.items():
            model = out / f"train_{family}"
            assert _cli(f"train --family {family} --data {data} --seed 3 --config {inputs}/{config} --out {model}") == EXIT_OK
            assert _cli(f"sample --model {model}/model.bin --pool {inputs}/pool.jsonl --k 12 --out {out}/sample_{family}") == EXIT_OK
        line = f"augment --data {data} --pool {inputs}/pool.jsonl --cycles 3 --k 3 --repeats 2 --seed 4 --config {inputs}/ridge.json"
        assert _cli(f"{line} --out {out}/augment") == EXIT_OK
        written = ["train_rf/model.bin", *(f"sample_{family}/selected.jsonl" for family in configs)]
        written += ["augment/cycles.jsonl", "augment/mse_by_cycle.csv"]
        outputs[parts] = {name: (out / name).read_bytes() for name in written}
        assert bool(forks) == (parts > 1)
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]
    _no_child_left()


def test_scoring_gets_one_block_at_a_time_and_the_same_bytes_at_any_part_count(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    data = tmp_path / "agg" / "sensitivity.jsonl"
    assert _cli(f"aggregate --posts {inputs}/posts.jsonl --ic {inputs}/ic.jsonl --oc {inputs}/oc.jsonl --out {data.parent}") == EXIT_OK
    score_in_parts, blocks = features.score_in_parts, []

    def checked(vocab, texts, score):
        def one_block(block):
            if len(block) > features._BLOCK_ROWS:  # raised in a forked part too, which fails the call
                raise AssertionError(f"a block of {len(block)} rows")
            blocks.append(len(block))
            return score(block)

        return score_in_parts(vocab, texts, one_block)

    monkeypatch.setattr(models, "score_in_parts", checked)
    outputs = {}
    for parts in (1, 2, 3):
        _split_small_batches(monkeypatch, parts, block_rows=3)
        blocks.clear()
        out = tmp_path / str(parts)
        for family, config in (("ridge", "ridge.json"), ("rf", "forest.json")):
            model = out / f"train_{family}"
            assert _cli(f"train --family {family} --data {data} --seed 3 --config {inputs}/{config} --out {model}") == EXIT_OK
            assert _cli(f"sample --model {model}/model.bin --pool {inputs}/pool.jsonl --k 12 --out {out}/{family}") == EXIT_OK
            outputs[parts, family] = (out / family / "selected.jsonl").read_bytes()
        # part 0 runs here: its 30 // parts rows of the 30-post pool, in blocks of 3, for each family
        assert max(blocks) == 3 and len(blocks) == 2 * -(-(30 // parts) // 3)
    for family in ("ridge", "rf"):
        assert outputs[2, family] == outputs[1, family]
        assert outputs[3, family] == outputs[1, family]
    _no_child_left()


def test_a_forked_part_sends_back_only_its_scores(monkeypatch):
    texts = list(synthetic_bundle(n_posts=60, seed=31).posts.target_texts)
    train, pool = texts[:30], texts[20:]
    _split_small_batches(monkeypatch, 3)
    model = models.train("ridge", train, np.linspace(-1.0, 1.0, len(train)), config=models.TrainConfig(seed=1))
    results, run = [], _fork.run
    monkeypatch.setattr(_fork, "run", lambda job, n_parts: results.append(run(job, n_parts)) or results[-1])
    scores = model.predict_batch(pool)
    [parts] = results
    assert len(parts) == 3
    assert all(type(part) is np.ndarray and part.dtype == np.float64 for part in parts)
    assert np.clip(np.concatenate(parts), -1.0, 1.0).tobytes() == scores.tobytes()
    monkeypatch.setattr(_fork, "cpu_count", lambda: 1)
    assert model.predict_batch(pool).tobytes() == scores.tobytes()


def _container_sizes(module) -> dict[str, int]:
    """len() of every container at the top level of module, and of every
    container attribute of its top-level objects."""
    sizes = {}
    for name, value in vars(module).items():
        if isinstance(value, (type, types.ModuleType)) or callable(value):
            continue
        items = [(name, value), *((f"{name}.{key}", item) for key, item in getattr(value, "__dict__", {}).items())]
        sizes.update((key, len(item)) for key, item in items if isinstance(item, (dict, list, set, np.ndarray)))
    return sizes


def test_scoring_plain_texts_keeps_nothing_in_the_featurizer(monkeypatch):
    texts = list(synthetic_bundle(n_posts=60, seed=31).posts.target_texts)
    _split_small_batches(monkeypatch, 2)
    model = models.train("ridge", texts[:30], np.linspace(-1.0, 1.0, 30), config=models.TrainConfig(seed=1))
    model.predict_batch(texts[30:])  # builds the vocabulary's term lookup
    before = _container_sizes(features)
    assert "_ASCII_BREAKS" in before  # the helper sees the module's containers
    novel = [f"{text} unseen{i} words{i}" for i, text in enumerate(texts)]
    model.predict_batch(novel)
    assert _container_sizes(features) == before
    vocab = features.fit_vocabulary(features.tokenize(novel[:20]))
    features.transform_many(vocab, novel[20:] + [f"new{i} text{i}" for i in range(5)])
    assert _container_sizes(features) == before


def test_a_part_that_raises_raises_its_exception_here():
    def job(part: int) -> int:
        if part == 1:
            raise KeyError("part 1")
        return part

    with pytest.raises(KeyError, match="part 1"):
        _fork.run(job, 3)
    _no_child_left()
    assert _fork.run(lambda part: part * 10, 3) == [0, 10, 20]


def test_a_killed_part_is_an_error_naming_the_signal():
    def job(part: int) -> int:
        if part == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return part

    with pytest.raises(ChildProcessError, match="SIGKILL"):
        _fork.run(job, 3)
    _no_child_left()


def test_a_failing_part_zero_leaves_no_child():
    def job(part: int) -> int:
        if part == 0:
            raise ValueError("part 0")
        return part

    with pytest.raises(ValueError, match="part 0"):
        _fork.run(job, 3)
    _no_child_left()


@pytest.mark.parametrize("failure", ["raise", "kill"])
def test_cli_exits_2_when_a_forked_part_fails_and_the_part_writes_nothing(tmp_path, monkeypatch, capsys, failure):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    data = tmp_path / "agg" / "sensitivity.jsonl"
    assert _cli(f"aggregate --posts {inputs}/posts.jsonl --ic {inputs}/ic.jsonl --oc {inputs}/oc.jsonl --out {data.parent}") == EXIT_OK
    assert _cli(f"train --family ridge --data {data} --out {tmp_path}/model") == EXIT_OK
    _split_small_batches(monkeypatch, 2)
    parent, transform = os.getpid(), models.transform_many

    def failing_in_a_child(vocab, texts):
        if os.getpid() != parent:
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise models.PredictionError("a part failed")
        return transform(vocab, texts)

    monkeypatch.setattr(models, "transform_many", failing_in_a_child)
    out = tmp_path / "sample"
    code = _cli(f"sample --model {tmp_path}/model/model.bin --pool {inputs}/pool.jsonl --k 5 --out {out}")
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert ("SIGKILL" if failure == "kill" else "a part failed") in err
    assert "Traceback" not in err
    assert not out.exists()
    _no_child_left()


def test_small_batches_never_fork(tmp_path, monkeypatch):
    bundle = synthetic_bundle(n_posts=40, seed=11)
    paths = [tmp_path / name for name in ("posts.jsonl", "ic.jsonl", "oc.jsonl")]
    save_bundle(bundle, *paths)
    assert _cli(f"aggregate --posts {paths[0]} --ic {paths[1]} --oc {paths[2]} --out {tmp_path}/agg") == EXIT_OK
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    line = f"evaluate --family rf --data {tmp_path}/agg/sensitivity.jsonl --repeats 2 --out {tmp_path}/eval"
    assert _cli(line) == EXIT_OK
    assert forks == []


def test_one_part_where_the_affinity_mask_is_unknown(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(_fork, "_LEAST_WORK", 4)
    assert _fork.bounds(50_000, 50_000) == [0, 50_000]


def _append(path, text: str) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(text)


def test_a_bad_posts_file_is_a_validation_error(tmp_path, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    posts = inputs / "posts.jsonl"
    _append(posts, '{"post_id": "x", "target_text": "  "}\n')
    code = _cli(f"aggregate --posts {posts} --ic {inputs}/ic.jsonl --oc {inputs}/oc.jsonl --out {tmp_path}/agg")
    lines = posts.read_text(encoding="utf-8").count("\n")
    assert (code, capsys.readouterr().err) == (EXIT_VALIDATION, f"error: {posts}:{lines}: post 'x': target_text is blank\n")
    _no_child_left()


def test_augment_with_a_bad_data_file_and_a_bad_pool_reports_the_data_file(tmp_path, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    data, pool = tmp_path / "agg" / "sensitivity.jsonl", inputs / "pool.jsonl"
    assert _cli(f"aggregate --posts {inputs}/posts.jsonl --ic {inputs}/ic.jsonl --oc {inputs}/oc.jsonl --out {data.parent}") == EXIT_OK
    good = data.read_text(encoding="utf-8")
    for path in (data, pool):
        _append(path, "[]\n")
    line = f"augment --data {data} --pool {pool} --cycles 1 --k 2 --repeats 1 --out {tmp_path}/augment"
    assert _cli(line) == EXIT_VALIDATION
    bad_row = f"{data}:{good.count(chr(10)) + 1}: each line must be a JSON object"
    assert capsys.readouterr().err == f"error: not a valid sensitivity file: {bad_row}\n"
    data.write_text(good, encoding="utf-8")
    assert _cli(line) == EXIT_VALIDATION
    bad_row = f"{pool}:{pool.read_text(encoding='utf-8').count(chr(10))}: each line must be a JSON object"
    assert capsys.readouterr().err == f"error: {bad_row}\n"
    assert not (tmp_path / "augment").exists()
    _no_child_left()


def test_input_files_are_read_here_at_any_cpu_count_and_size(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    _write_inputs(inputs)
    monkeypatch.setattr(_fork, "cpu_count", lambda: 2)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    data, files = tmp_path / "agg" / "sensitivity.jsonl", f"--posts {inputs}/posts.jsonl --ic {inputs}/ic.jsonl --oc {inputs}/oc.jsonl"
    assert _cli(f"aggregate {files} --out {data.parent}") == EXIT_OK
    line = f"augment --data {data} --pool {inputs}/pool.jsonl --cycles 1 --k 2 --repeats 1 --out {tmp_path}/augment"
    assert _cli(line) == EXIT_OK
    assert forks == []
    # parts of one line each: scoring and forest training would fork, but no input read does
    monkeypatch.setattr(_fork, "_LEAST_WORK", 1)
    load_bundle(inputs / "posts.jsonl", inputs / "ic.jsonl", inputs / "oc.jsonl")
    assert _cli(f"aggregate {files} --out {tmp_path}/agg_1") == EXIT_OK
    assert _cli(f"stats {files} --out {tmp_path}/stats_1") == EXIT_OK
    monkeypatch.setattr(augmentation, "run_augmentation", lambda table, splits, config: [])  # augment's reads alone
    assert _cli(f"{line}_1") == EXIT_OK
    assert forks == []
