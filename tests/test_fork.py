"""Scoring and forest training in forked parts: the same bytes at any part
count, the tokenization memo merged back, and failing parts reported."""

from __future__ import annotations

import os
import shlex
import signal

import numpy as np
import pytest

from ctxsens import _fork, features, models
from ctxsens.cli import EXIT_OK, EXIT_RUNTIME, main

from helpers import save_bundle, synthetic_bundle
from test_golden import _write_inputs


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_small_batches(monkeypatch, parts: int) -> None:
    """parts CPUs, batches of 4 rows or row visits per part, and an empty
    memo, so that the 40-post fixtures split and the parts tokenize."""
    monkeypatch.setattr(_fork, "cpu_count", lambda: parts)
    monkeypatch.setattr(features, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(_fork, "_LEAST_WORK", 4)
    monkeypatch.setattr(features, "_WORD_IDS", features._WordIds())


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


def test_split_scoring_merges_each_text_into_the_memo_once(monkeypatch):
    texts = list(synthetic_bundle(n_posts=60, seed=31).posts.target_texts)
    train, pool = texts[:30], texts[20:] + texts[25:35]  # the pool repeats texts of its own and of training
    _split_small_batches(monkeypatch, 3)
    model = models.train("ridge", train, np.linspace(-1.0, 1.0, len(train)), config=models.TrainConfig(seed=1))
    merged, forks = [], []
    merge, fork = features._WORD_IDS.merge, os.fork
    monkeypatch.setattr(features._WORD_IDS, "merge", lambda added: merged.append(added) or merge(added))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    scores = model.predict_batch(pool)
    assert len(forks) == len(merged) == 2
    assert any(texts for _, _, added in merged for texts, _, _ in added)  # the parts tokenized
    assert features._WORD_IDS.n_slots == len(set(train + pool))

    merged.clear()
    assert model.predict_batch(pool).tobytes() == scores.tobytes()
    assert len(forks) == 4
    assert [(words, [texts for texts, _, _ in added]) for _, words, added in merged] == [([], [[], []])] * 2
    assert features._WORD_IDS.n_slots == len(set(train + pool))
    monkeypatch.setattr(_fork, "cpu_count", lambda: 1)
    assert model.predict_batch(pool).tobytes() == scores.tobytes()


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
