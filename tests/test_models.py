import gc
import io
import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from ctxsens import _fork, models
from ctxsens.cli import EXIT_RUNTIME, main
from ctxsens.features import FeatureConfig, fit_vocabulary, transform_many
from ctxsens.scorer import ScorerEndpoint
from ctxsens.models import (
    ChecksumError,
    ModelPersistenceError,
    TrainConfig,
    TrainingError,
    VersionError,
    load_model,
    save_model,
    train,
)

from helpers import csr, planted_posts, save_posts, toy_scorer_command, traced_peak
from oracles import ridge_gradient, ridge_objective, svr_epsilon_loss


def random_dataset(seed: int, n: int = 12, d: int = 4):
    """(an n x d CSR matrix, n targets)"""
    rng = np.random.default_rng(seed)
    xs = csr([rng.normal(0, 1, d) for _ in range(n)])
    ys = np.clip(rng.normal(0, 0.3, n), -1, 1).tolist()
    return xs, ys


# --- family resolution ------------------------------------------------------------


def test_family_aliases():
    assert models.resolve_family("rf") == models.FAMILY_RANDOM_FOREST
    assert models.resolve_family("B1") == models.FAMILY_CONSTANT_MEAN
    with pytest.raises(TrainingError, match="unknown model family"):
        models.resolve_family("gbm")


# --- shared contracts ---------------------------------------------------------------


def test_empty_train_set_rejected():
    with pytest.raises(TrainingError, match="empty"):
        train("constant_mean", [], [])


def test_target_out_of_range_rejected():
    with pytest.raises(TrainingError, match="outside"):
        train("constant_mean", csr([[1.0]]), [1.5])
    with pytest.raises(TrainingError, match="1 inputs but 2 targets"):
        train("constant_mean", csr([[1.0]]), [0.5, 0.5])


def test_mixed_input_kinds_rejected():
    with pytest.raises(TrainingError, match="list of texts or a scipy sparse matrix"):
        train("ridge", ["text", 0.5], [0.1, 0.2])
    with pytest.raises(TrainingError, match="same kind"):
        train("linear_svr", ["aa bb", "bb cc"], [0.1, 0.2], (csr([[1.0]]), [0.3]))


# --- constant mean --------------------------------------------------------------------


def test_constant_mean_predicts_training_mean():
    model = train("constant_mean", csr([[0.0], [1.0]]), [0.2, 0.4])
    assert model.predict_batch(csr([[123.0]])).tolist() == pytest.approx([0.3])
    assert model.predict_batch(["any text"]).tolist() == pytest.approx([0.3])


# --- uniform random ---------------------------------------------------------------------


def test_uniform_random_deterministic_per_seed_and_ordinal():
    model = train("uniform_random", csr([[0.0]]), [0.0], config=TrainConfig(seed=9))
    first = model.predict_batch(["a", "b", "c"])
    second = model.predict_batch(["x", "y", "z"])
    assert np.array_equal(first, second)  # depends on (seed, ordinal) only
    other = train("uniform_random", csr([[0.0]]), [0.0], config=TrainConfig(seed=10))
    assert not np.array_equal(first, other.predict_batch(["a", "b", "c"]))


def test_uniform_random_stays_in_range():
    model = train("uniform_random", csr([[0.0]]), [0.0], config=TrainConfig(seed=0))
    scores = model.predict_batch(list("abcdefghij" * 10))
    assert scores.min() >= -1.0 and scores.max() <= 1.0


# --- ridge ---------------------------------------------------------------------------------


def test_ridge_recovers_exact_line_as_lambda_vanishes():
    config = TrainConfig(ridge_lambda=1e-10)
    model = train("ridge", csr([[0.0], [1.0]]), [0.2, 0.4], config=config)
    assert model.weights[0] == pytest.approx(0.2, abs=1e-6)
    assert model.bias == pytest.approx(0.2, abs=1e-6)
    assert model.predict_batch(csr([[2.0]]))[0] == pytest.approx(0.6, abs=1e-6)


def test_ridge_prediction_clamped_to_delta_range():
    config = TrainConfig(ridge_lambda=1e-10)
    model = train("ridge", csr([[0.0], [1.0]]), [0.2, 0.4], config=config)
    assert model.predict_batch(csr([[10.0], [-10.0]])).tolist() == [1.0, -1.0]


def test_ridge_shrinks_with_lambda():
    data = (csr([[0.0], [1.0]]), [0.2, 0.4])
    loose = train("ridge", *data, config=TrainConfig(ridge_lambda=1e-10))
    tight = train("ridge", *data, config=TrainConfig(ridge_lambda=100.0))
    assert abs(tight.weights[0]) < abs(loose.weights[0])


def test_ridge_solution_has_zero_gradient():
    matrix, targets = random_dataset(seed=4, n=20, d=5)
    lam = 0.7
    model = train("ridge", matrix, targets, config=TrainConfig(ridge_lambda=lam))
    y = np.array(targets)
    grad_w, grad_b = ridge_gradient(model.weights, model.bias, matrix, y, lam)
    assert np.abs(grad_w).max() < 1e-6
    assert abs(grad_b) < 1e-6


def test_ridge_records_solver_diagnostics(tmp_path):
    data = random_dataset(seed=4, n=20, d=5)
    solved = train("ridge", *data, config=TrainConfig(ridge_lambda=0.7))
    extras = solved.metadata.extras
    assert extras["converged"] is True
    assert 1 <= extras["iterations"] <= 6  # CG ends within d + 1 steps, bar rounding
    assert extras["residual_norm"] < 1e-8
    cut = train("ridge", *data, config=TrainConfig(ridge_lambda=0.7, ridge_max_iter=1))
    assert cut.metadata.extras["converged"] is False
    assert cut.metadata.extras["iterations"] == 1
    assert cut.metadata.extras["residual_norm"] > extras["residual_norm"]
    save_model(cut, tmp_path / "cut.bin")
    assert load_model(tmp_path / "cut.bin").metadata.extras == cut.metadata.extras


@pytest.mark.property
@given(st.integers(0, 10_000))
def test_ridge_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n, d = 6, 3
    matrix = csr([rng.normal(0, 1, d) for _ in range(n)])
    y = rng.uniform(-1, 1, n)
    w = rng.normal(0, 1, d)
    b = float(rng.normal())
    lam = float(rng.uniform(0, 2))
    grad_w, grad_b = ridge_gradient(w, b, matrix, y, lam)
    h = 1e-6
    for j in range(d):
        bump = np.zeros(d)
        bump[j] = h
        numeric = (ridge_objective(w + bump, b, matrix, y, lam) - ridge_objective(w - bump, b, matrix, y, lam)) / (2 * h)
        assert numeric == pytest.approx(grad_w[j], rel=1e-5, abs=1e-7)
    numeric_b = (ridge_objective(w, b + h, matrix, y, lam) - ridge_objective(w, b - h, matrix, y, lam)) / (2 * h)
    assert numeric_b == pytest.approx(grad_b, rel=1e-5, abs=1e-7)


# --- linear SVR ---------------------------------------------------------------------------


def test_svr_zero_loss_at_constant_within_epsilon():
    rng = np.random.default_rng(0)
    c = 0.3
    data = [(rng.normal(0, 1, 3), c + float(rng.uniform(-0.04, 0.04))) for _ in range(20)]
    matrix = csr([x for x, _ in data])
    y = np.array([t for _, t in data])
    assert svr_epsilon_loss(np.zeros(3), c, matrix, y, epsilon=0.05) == 0.0


def test_svr_early_stopping_returns_best_snapshot():
    rng = np.random.default_rng(1)
    val_matrix, val_targets = random_dataset(seed=3, n=10, d=4)
    config = TrainConfig(seed=0, svr_max_epochs=60, patience=5)
    model = train("linear_svr", *random_dataset(seed=2, n=30, d=4), (val_matrix, val_targets), config)
    history = model.metadata.extras["validation_mse_history"]
    best_epoch = model.metadata.extras["best_epoch"]
    epochs_run = model.metadata.extras["epochs_run"]
    assert epochs_run <= best_epoch + config.patience
    assert history[best_epoch] == min(history)
    val_y = np.array(val_targets)
    preds = np.clip(val_matrix @ model.weights + model.bias, -1, 1)
    assert float(np.mean((preds - val_y) ** 2)) == pytest.approx(history[best_epoch], abs=1e-12)


@pytest.mark.property
@given(st.integers(0, 500))
def test_svr_never_returns_worse_than_initial_validation_mse(seed):
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(-0.5, 0.5))
    def make(n):
        rows = [(rng.normal(0, 1, 3), float(np.clip(c + rng.uniform(-0.04, 0.04), -1, 1))) for _ in range(n)]
        return csr([x for x, _ in rows]), [y for _, y in rows]

    config = TrainConfig(seed=seed, svr_max_epochs=12, patience=3)
    model = train("linear_svr", *make(15), make(6), config)
    history = model.metadata.extras["validation_mse_history"]
    assert history[model.metadata.extras["best_epoch"]] <= history[0] + 1e-12


def test_svr_without_validation_runs_all_epochs():
    config = TrainConfig(seed=0, svr_max_epochs=7)
    model = train("linear_svr", *random_dataset(seed=5), None, config)
    assert model.metadata.extras["epochs_run"] == 7


# --- random forest --------------------------------------------------------------------------


def test_rf_single_tree_interpolates_without_subsampling():
    config = TrainConfig(
        seed=0, rf_n_trees=1, rf_max_depth=None, rf_min_samples_leaf=1, rf_max_features="all", rf_bootstrap=False
    )
    xs = csr([[float(i)] for i in range(9)])
    ys = [((-1) ** i) * 0.1 * i for i in range(9)]
    model = train("random_forest", xs, ys, config=config)
    assert model.predict_batch(xs) == pytest.approx(ys, abs=1e-12)


def test_rf_prediction_is_mean_of_trees():
    config = TrainConfig(seed=3, rf_n_trees=7, rf_max_depth=4, rf_min_samples_leaf=2)
    model = train("random_forest", *random_dataset(seed=6, n=30, d=5), config=config)
    inputs, _ = random_dataset(seed=7, n=10, d=5)
    per_tree = model.predict_per_tree(inputs)
    assert per_tree.shape == (7, 10)
    assert model.predict_batch(inputs) == pytest.approx(per_tree.mean(axis=0), abs=1e-12)


def test_rf_max_depth_limits_tree_size():
    config = TrainConfig(seed=0, rf_n_trees=1, rf_max_depth=1, rf_min_samples_leaf=1, rf_bootstrap=False)
    model = train("random_forest", *random_dataset(seed=8, n=40, d=3), config=config)
    assert len(model.trees[0].feature) <= 3  # root plus two children


def test_rf_grows_trees_deeper_than_the_recursion_limit():
    # every split peels one row off a 1,100-row chain: a tree 1,099 levels deep, one row per leaf
    config = TrainConfig(
        seed=0, rf_n_trees=1, rf_max_depth=None, rf_min_samples_leaf=1, rf_max_features="all", rf_bootstrap=False
    )
    xs = csr([[float(i)] for i in range(1, 1101)])
    ys = [1.0 if i % 2 else -1.0 for i in range(1, 1101)]
    model = train("random_forest", xs, ys, config=config)
    assert len(model.trees[0].feature) == 2 * 1100 - 1
    assert model.predict_batch(xs).tolist() == ys


def test_a_forest_holds_one_trees_working_set_at_a_time(monkeypatch):
    # each tree's bootstrap CSC copy goes when the tree is grown, not when the cyclic collector runs
    monkeypatch.setattr(_fork, "cpu_count", lambda: 1)
    rng = np.random.default_rng(0)
    matrix = sparse.random(2000, 3000, density=0.01, format="csr", random_state=rng)
    y = rng.uniform(-1, 1, 2000)
    enabled = gc.isenabled()
    gc.disable()
    try:
        _, one = traced_peak(models._fit_forest, matrix, y, TrainConfig(rf_n_trees=1, rf_max_depth=4))
        _, eight = traced_peak(models._fit_forest, matrix, y, TrainConfig(rf_n_trees=8, rf_max_depth=4))
    finally:
        if enabled:
            gc.enable()
    assert eight < 2 * one, (one, eight)


def test_rf_respects_min_samples_leaf():
    config = TrainConfig(seed=0, rf_n_trees=5, rf_max_depth=None, rf_min_samples_leaf=10)
    model = train("random_forest", *random_dataset(seed=9, n=25, d=3), config=config)
    for tree in model.trees:
        assert (tree.feature >= 0).sum() <= 2


# --- text featurization path -------------------------------------------------------------------


def test_text_training_embeds_vocabulary():
    posts, targets = planted_posts(60, seed=0)
    config = TrainConfig(features=FeatureConfig(min_df=1, ngram_max=1))
    model = train("ridge", posts.target_texts, targets, config=config)
    assert model.vocab is not None
    preds = model.predict_batch(posts.target_texts)
    assert float(np.mean((preds - np.array(targets)) ** 2)) < 0.02


@pytest.mark.parametrize("family", ["ridge", "linear_svr", "random_forest"])
def test_training_on_texts_equals_training_on_their_matrix(family):
    posts, targets = planted_posts(60, seed=3)
    texts = posts.target_texts
    config = TrainConfig(
        seed=2, features=FeatureConfig(min_df=1), svr_max_epochs=8, rf_n_trees=3, rf_max_depth=4, rf_min_samples_leaf=2
    )
    on_texts = train(family, texts[:45], targets[:45], (texts[45:], targets[45:]), config)
    vocab = fit_vocabulary(texts[:45], config.features)
    matrix, val_matrix = transform_many(vocab, texts[:45]), transform_many(vocab, texts[45:])
    on_matrix = train(family, matrix, targets[:45], (val_matrix, targets[45:]), config)
    if family == "random_forest":
        assert len(on_texts.trees) == len(on_matrix.trees)
        for a, b in zip(on_texts.trees, on_matrix.trees):
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
    else:
        assert on_texts.weights.tobytes() == on_matrix.weights.tobytes()
        assert on_texts.bias == on_matrix.bias
    assert on_texts.metadata.extras == on_matrix.metadata.extras
    assert np.array_equal(on_texts.predict_batch(texts[45:]), on_matrix.predict_batch(val_matrix))


def test_vector_trained_model_rejects_text():
    model = train("ridge", *random_dataset(seed=0))
    with pytest.raises(models.PredictionError, match="sparse matrix"):
        model.predict_batch(["some text"])
    with pytest.raises(models.PredictionError, match="expected dimension 4, got 2"):
        model.predict_batch(csr([[1.0, 2.0]]))


# --- determinism ----------------------------------------------------------------------------------


@pytest.mark.property
@given(st.sampled_from(["constant_mean", "uniform_random", "ridge", "linear_svr", "random_forest"]),
       st.integers(0, 100))
def test_training_is_bit_deterministic(tmp_path_factory, family, seed):
    tmp_path = tmp_path_factory.mktemp("det")
    data = random_dataset(seed=seed, n=10, d=3)
    config = TrainConfig(seed=seed, svr_max_epochs=3, rf_n_trees=3, rf_max_depth=3)
    first = train(family, *data, config=config)
    second = train(family, *data, config=config)
    save_model(first, tmp_path / "a.bin")
    save_model(second, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    queries, _ = random_dataset(seed=seed + 1, n=5, d=3)
    assert np.array_equal(first.predict_batch(queries), second.predict_batch(queries))


_RIDGE_ON_WIDE_CSR = """
import sys
import numpy as np
from scipy import sparse
from ctxsens import models
rng = np.random.default_rng(7)
matrix = sparse.random(600, 24_000, density=0.003, format="csr", random_state=rng)
model = models.train("ridge", matrix, rng.uniform(-1.0, 1.0, 600), config=models.TrainConfig(ridge_lambda=0.1))
models.save_model(model, sys.argv[1])
"""


def test_ridge_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # BLAS splits a dot product of more than about 10k entries over its threads
    src = str(Path(models.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", _RIDGE_ON_WIDE_CSR, str(tmp_path / threads)], env=env, check=True, timeout=120)
    assert (tmp_path / "1").read_bytes() == (tmp_path / "2").read_bytes()


# --- persistence ------------------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["constant_mean", "uniform_random", "ridge", "linear_svr", "random_forest"])
def test_save_load_round_trip_predicts_identically(tmp_path, family):
    config = TrainConfig(seed=1, svr_max_epochs=5, rf_n_trees=4, rf_max_depth=4)
    model = train(family, *random_dataset(seed=11, n=15, d=4), config=config)
    path = tmp_path / "model.bin"
    save_model(model, path)
    clone = load_model(path)
    rng = np.random.default_rng(12)
    queries = csr([rng.normal(0, 1, 4) for _ in range(100)])
    assert np.array_equal(model.predict_batch(queries), clone.predict_batch(queries))
    assert clone.metadata.seed == model.metadata.seed
    assert clone.metadata.hyperparameters == model.metadata.hyperparameters
    assert clone.metadata.training_fingerprint == model.metadata.training_fingerprint


def test_corrupted_file_fails_checksum(tmp_path):
    model = train("ridge", *random_dataset(seed=0))
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_model(path)


def test_newer_major_version_rejected(tmp_path):
    model = train("constant_mean", csr([[0.0]]), [0.1])
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    body = blob[:-4]
    body[8:12] = struct.pack("<HH", models.FORMAT_MAJOR + 1, 0)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    with pytest.raises(VersionError):
        load_model(path)


def test_not_a_model_file_rejected(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"hello world, definitely not a model")
    with pytest.raises(ModelPersistenceError, match="not a model file"):
        load_model(path)


def _forest_file(tmp_path, **changes):
    """A one-tree forest (root split on feature 0, two leaves) saved with a valid checksum."""
    arrays = {
        "feature": np.array([0, -1, -1], dtype=np.int32),
        "threshold": np.array([0.5, 0.0, 0.0]),
        "left": np.array([1, -1, -1], dtype=np.int32),
        "right": np.array([2, -1, -1], dtype=np.int32),
        "value": np.array([0.0, -0.25, 0.25]),
    }
    arrays.update(changes)
    model = train("random_forest", *random_dataset(seed=0), config=TrainConfig(rf_n_trees=1))
    model.trees = [models._Tree(**arrays)]
    path = tmp_path / "model.bin"
    save_model(model, path)
    return path


def test_hand_built_forest_loads_and_predicts(tmp_path):
    clone = load_model(_forest_file(tmp_path))
    assert clone.predict_batch(csr([[0.2, 0, 0, 0], [0.9, 0, 0, 0]])).tolist() == [-0.25, 0.25]


@pytest.mark.parametrize(
    "changes",
    [
        {"left": np.array([0, -1, -1], dtype=np.int32)},  # self-loop: the walk would never end
        {"right": np.array([2, -1, -1, -1], dtype=np.int32)},
        {"right": np.array([3, -1, -1], dtype=np.int32)},
        {"feature": np.array([0, -2, -1], dtype=np.int32)},
        {"feature": np.array([4, -1, -1], dtype=np.int32)},
        {"left": np.array([1.0, -1.0, -1.0])},
    ],
)
def test_malformed_forest_rejected_on_load(tmp_path, changes):
    with pytest.raises(ModelPersistenceError, match="tree 0"):
        load_model(_forest_file(tmp_path, **changes))


def _rewrite(path: Path, edit) -> None:
    """Pass the model file's metadata bytes and arrays through edit and write
    them back under a fresh checksum."""
    buf = io.BytesIO(path.read_bytes()[:-4])
    head = buf.read(len(models._MAGIC) + 4)
    family = buf.read(struct.unpack("<I", buf.read(4))[0])
    meta = buf.read(struct.unpack("<I", buf.read(4))[0])
    arrays = models._unpack_arrays(buf.read(struct.unpack("<Q", buf.read(8))[0]))
    meta, arrays = edit(meta, arrays)
    params = models._pack_arrays(arrays)
    body = b"".join([head, struct.pack("<I", len(family)), family, struct.pack("<I", len(meta)), meta])
    body += struct.pack("<Q", len(params)) + params
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _with_extras(**extras):
    """An edit that sets the given extras in the metadata; None removes one."""

    def edit(meta: bytes, arrays: dict) -> tuple:
        obj = json.loads(meta)
        obj["extras"] = {key: value for key, value in {**obj["extras"], **extras}.items() if value is not None}
        return json.dumps(obj).encode("utf-8"), arrays

    return edit


def _with_terms(change, **fields):
    """An edit that embeds a vocabulary of one term per dimension after
    change(its [term, column, df] entries), with the given fields set on it."""

    def edit(meta: bytes, arrays: dict) -> tuple:
        obj = json.loads(meta)
        terms = [[f"w{i}", i, 1] for i in range(obj["dimension"])]
        change(terms)
        vocabulary = fit_vocabulary(["ab"], FeatureConfig(min_df=1)).to_json() | {"terms": terms} | fields
        return json.dumps(obj | {"vocabulary": vocabulary}).encode("utf-8"), arrays

    return edit


def _with_metadata(**fields):
    """An edit that sets the given top-level metadata fields."""
    return lambda meta, arrays: (json.dumps(json.loads(meta) | fields).encode("utf-8"), arrays)


def _with_last(name: str, value: float):
    """An edit that sets the last entry of the named parameter array."""

    def edit(meta: bytes, arrays: dict) -> tuple:
        array = arrays[name].copy()
        array[-1] = value
        return meta, {**arrays, name: array}

    return edit


@pytest.mark.parametrize(
    "family, edit",
    [
        ("random_forest", _with_extras(n_trees=None)),
        ("random_forest", _with_extras(n_trees="1")),
        ("random_forest", _with_extras(n_trees=2)),  # more trees than the arrays hold
        ("random_forest", _with_extras(n_trees=0)),
        ("random_forest", lambda meta, arrays: (meta, {**arrays, **{"t1" + k[2:]: v for k, v in arrays.items()}})),
        ("ridge", lambda meta, arrays: (meta, {k: v for k, v in arrays.items() if k != "weights"})),
        ("ridge", lambda meta, arrays: (b"{not json", arrays)),
        # parameter widths that do not match the dimension, or a dimension that does not match the vocabulary
        ("ridge", lambda meta, arrays: (meta, {**arrays, "weights": arrays["weights"][:-3]})),
        ("linear_svr", lambda meta, arrays: (meta, {**arrays, "weights": arrays["weights"][:, None]})),
        ("ridge", lambda meta, arrays: (meta, {**arrays, "bias": np.zeros(2)})),
        ("ridge", _with_metadata(vocabulary=fit_vocabulary(["ab cd", "cd ef"], FeatureConfig(min_df=1)).to_json())),
        ("random_forest", _with_metadata(vocabulary=fit_vocabulary(["ab"], FeatureConfig(min_df=1)).to_json())),
        # an embedded vocabulary whose terms are not strings, or whose columns are not 0..n-1 each once
        ("ridge", _with_terms(lambda terms: terms[0].__setitem__(0, 7))),
        ("ridge", _with_terms(lambda terms: terms[0].__setitem__(1, -1))),
        ("ridge", _with_terms(lambda terms: terms[1].__setitem__(1, terms[0][1]))),
        # document counts that are not whole, or not in [1, n_documents]
        ("ridge", _with_terms(lambda terms: terms[0].__setitem__(2, -1))),
        ("ridge", _with_terms(lambda terms: terms[0].__setitem__(2, 2.5))),
        ("ridge", _with_terms(lambda terms: None, n_documents=0)),
        # parameters that are not real floating-point numbers
        ("random_forest", lambda meta, arrays: (meta, {**arrays, "t0_threshold": arrays["t0_threshold"].astype(str)})),
        ("ridge", lambda meta, arrays: (meta, {**arrays, "weights": arrays["weights"] + 1j})),
        # parameters that are NaN or infinite
        ("ridge", _with_last("weights", np.nan)),
        ("linear_svr", _with_last("bias", np.inf)),
        ("random_forest", _with_last("t0_threshold", np.nan)),
        ("random_forest", _with_last("t0_value", -np.inf)),
        ("constant_mean", _with_last("mean", np.nan)),
        ("constant_mean", _with_last("mean", np.inf)),
    ],
    ids=[
        "no_n_trees", "n_trees_text", "n_trees_past_arrays", "n_trees_zero", "arrays_past_n_trees", "no_weights",
        "metadata_not_json", "weights_cut", "weights_2d", "two_biases", "vocabulary_wider",
        "vocabulary_narrower", "term_not_text", "column_negative", "column_shared", "df_negative", "df_fraction",
        "n_documents_zero", "threshold_text", "weights_complex", "weights_nan", "bias_inf", "threshold_nan",
        "value_inf", "mean_nan", "mean_inf",
    ],
)
def test_malformed_model_contents_are_a_runtime_error_naming_the_file(tmp_path, capsys, family, edit):
    if family == "random_forest":
        path = _forest_file(tmp_path)
    else:
        path = tmp_path / "model.bin"
        save_model(train(family, *random_dataset(seed=0)), path)
    _rewrite(path, edit)
    with pytest.raises(ModelPersistenceError, match=f"^{re.escape(str(path))}: "):
        load_model(path)
    save_posts(planted_posts(5, seed=1, id_prefix="pool")[0], tmp_path / "pool.jsonl")
    assert main(f"sample --model {path} --pool {tmp_path}/pool.jsonl --k 2 --out {tmp_path}/out".split()) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"runtime error: {path}: "), err
    assert not (tmp_path / "out").exists()


def test_ridge_weights_not_finite_are_a_training_error(monkeypatch):
    monkeypatch.setattr(models, "_solve_ridge", lambda matrix, *_: (np.full(matrix.shape[1], np.nan), 0.0, {}))
    with pytest.raises(TrainingError, match="^ridge gave weights or bias that are not finite under {'ridge_lambda': 1.0"):
        train("ridge", *random_dataset(seed=0))


@pytest.mark.parametrize("family", models.FAMILIES)
def test_model_file_resaves_to_the_same_bytes(tmp_path, family, scorer_processes):
    # a model's extras are one record: what a file stores is what a load of it saves again
    posts, targets = planted_posts(30, seed=3)
    texts = list(posts.target_texts)
    endpoint = ScorerEndpoint(command=toy_scorer_command("--fit", "accept"))
    config = TrainConfig(features=FeatureConfig(min_df=1), svr_max_epochs=5, rf_n_trees=3, external=endpoint)
    model = train(family, texts[:24], targets[:24], (texts[24:], targets[24:]), config)
    model.close()
    save_model(model, tmp_path / "first.bin")
    save_model(load_model(tmp_path / "first.bin"), tmp_path / "second.bin")
    assert (tmp_path / "second.bin").read_bytes() == (tmp_path / "first.bin").read_bytes()


def test_vocabulary_survives_persistence(tmp_path):
    posts, targets = planted_posts(40, seed=2)
    config = TrainConfig(features=FeatureConfig(min_df=1, ngram_max=1))
    model = train("ridge", posts.target_texts, targets, config=config)
    path = tmp_path / "model.bin"
    save_model(model, path)
    clone = load_model(path)
    queries = list(posts.target_texts[:10])
    assert np.array_equal(model.predict_batch(queries), clone.predict_batch(queries))
