import struct
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens import models
from ctxsens.features import FeatureConfig, FeatureVector, to_csr
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

from helpers import planted_posts
from oracles import ridge_gradient, ridge_objective, svr_epsilon_loss


def fv(*values: float) -> FeatureVector:
    pairs = [(i, v) for i, v in enumerate(values) if v != 0.0]
    return FeatureVector(
        indices=tuple(i for i, _ in pairs),
        weights=tuple(v for _, v in pairs),
        dimension=len(values),
    )


def random_dataset(seed: int, n: int = 12, d: int = 4):
    rng = np.random.default_rng(seed)
    xs = [fv(*rng.normal(0, 1, d)) for _ in range(n)]
    ys = np.clip(rng.normal(0, 0.3, n), -1, 1).tolist()
    return list(zip(xs, ys))


# --- family resolution ------------------------------------------------------------


def test_family_aliases():
    assert models.resolve_family("rf") == models.FAMILY_RANDOM_FOREST
    assert models.resolve_family("B1") == models.FAMILY_CONSTANT_MEAN
    with pytest.raises(TrainingError, match="unknown model family"):
        models.resolve_family("gbm")


# --- shared contracts ---------------------------------------------------------------


def test_empty_train_set_rejected():
    with pytest.raises(TrainingError, match="empty"):
        train("constant_mean", [])


def test_target_out_of_range_rejected():
    with pytest.raises(TrainingError, match="outside"):
        train("constant_mean", [(fv(1.0), 1.5)])


def test_mixed_input_kinds_rejected():
    with pytest.raises(TrainingError, match="all text or all FeatureVector"):
        train("ridge", [(fv(1.0), 0.1), ("text", 0.2)])


# --- constant mean --------------------------------------------------------------------


def test_constant_mean_predicts_training_mean():
    model = train("constant_mean", [(fv(0.0), 0.2), (fv(1.0), 0.4)])
    assert model.predict(fv(123.0)) == pytest.approx(0.3)
    assert model.predict("any text") == pytest.approx(0.3)


def test_constant_mean_honors_weights():
    model = train("constant_mean", [(fv(0.0), 0.0, 3.0), (fv(1.0), 1.0, 1.0)])
    assert model.predict(fv(0.0)) == pytest.approx(0.25)


# --- uniform random ---------------------------------------------------------------------


def test_uniform_random_deterministic_per_seed_and_ordinal():
    model = train("uniform_random", [(fv(0.0), 0.0)], config=TrainConfig(seed=9))
    first = model.predict_batch(["a", "b", "c"])
    second = model.predict_batch(["x", "y", "z"])
    assert np.array_equal(first, second)  # depends on (seed, ordinal) only
    other = train("uniform_random", [(fv(0.0), 0.0)], config=TrainConfig(seed=10))
    assert not np.array_equal(first, other.predict_batch(["a", "b", "c"]))


def test_uniform_random_stays_in_range():
    model = train("uniform_random", [(fv(0.0), 0.0)], config=TrainConfig(seed=0))
    scores = model.predict_batch(list("abcdefghij" * 10))
    assert scores.min() >= -1.0 and scores.max() <= 1.0


# --- ridge ---------------------------------------------------------------------------------


def test_ridge_recovers_exact_line_as_lambda_vanishes():
    config = TrainConfig(ridge_lambda=1e-10)
    model = train("ridge", [(fv(0.0), 0.2), (fv(1.0), 0.4)], config=config)
    assert model.weights[0] == pytest.approx(0.2, abs=1e-6)
    assert model.bias == pytest.approx(0.2, abs=1e-6)
    assert model.predict(fv(2.0)) == pytest.approx(0.6, abs=1e-6)


def test_ridge_prediction_clamped_to_delta_range():
    config = TrainConfig(ridge_lambda=1e-10)
    model = train("ridge", [(fv(0.0), 0.2), (fv(1.0), 0.4)], config=config)
    assert model.predict(fv(10.0)) == 1.0
    assert model.predict(fv(-10.0)) == -1.0


def test_ridge_shrinks_with_lambda():
    data = [(fv(0.0), 0.2), (fv(1.0), 0.4)]
    loose = train("ridge", data, config=TrainConfig(ridge_lambda=1e-10))
    tight = train("ridge", data, config=TrainConfig(ridge_lambda=100.0))
    assert abs(tight.weights[0]) < abs(loose.weights[0])


def test_ridge_solution_has_zero_gradient():
    data = random_dataset(seed=4, n=20, d=5)
    lam = 0.7
    model = train("ridge", data, config=TrainConfig(ridge_lambda=lam))
    matrix = to_csr([x for x, _ in data])
    y = np.array([t for _, t in data])
    grad_w, grad_b = ridge_gradient(model.weights, model.bias, matrix, y, lam)
    assert np.abs(grad_w).max() < 1e-6
    assert abs(grad_b) < 1e-6


def test_ridge_records_solver_diagnostics(tmp_path):
    data = random_dataset(seed=4, n=20, d=5)
    solved = train("ridge", data, config=TrainConfig(ridge_lambda=0.7))
    extras = solved.metadata.extras
    assert extras["converged"] is True
    assert 1 <= extras["iterations"] <= 6  # CG ends within d + 1 steps, bar rounding
    assert extras["residual_norm"] < 1e-8
    cut = train("ridge", data, config=TrainConfig(ridge_lambda=0.7, ridge_max_iter=1))
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
    matrix = to_csr([fv(*rng.normal(0, 1, d)) for _ in range(n)])
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
    data = [(fv(*rng.normal(0, 1, 3)), c + float(rng.uniform(-0.04, 0.04))) for _ in range(20)]
    matrix = to_csr([x for x, _ in data])
    y = np.array([t for _, t in data])
    assert svr_epsilon_loss(np.zeros(3), c, matrix, y, epsilon=0.05) == 0.0


def test_svr_early_stopping_returns_best_snapshot():
    rng = np.random.default_rng(1)
    train_set = random_dataset(seed=2, n=30, d=4)
    val_set = random_dataset(seed=3, n=10, d=4)
    config = TrainConfig(seed=0, svr_max_epochs=60, patience=5)
    model = train("linear_svr", train_set, val_set, config)
    history = model.metadata.extras["validation_mse_history"]
    best_epoch = model.metadata.extras["best_epoch"]
    epochs_run = model.metadata.extras["epochs_run"]
    assert epochs_run <= best_epoch + config.patience
    assert history[best_epoch] == min(history)
    val_matrix = to_csr([x for x, _ in val_set])
    val_y = np.array([t for _, t in val_set])
    preds = np.clip(val_matrix @ model.weights + model.bias, -1, 1)
    assert float(np.mean((preds - val_y) ** 2)) == pytest.approx(history[best_epoch], abs=1e-12)


@pytest.mark.property
@given(st.integers(0, 500))
def test_svr_never_returns_worse_than_initial_validation_mse(seed):
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(-0.5, 0.5))
    make = lambda n: [
        (fv(*rng.normal(0, 1, 3)), float(np.clip(c + rng.uniform(-0.04, 0.04), -1, 1)))
        for _ in range(n)
    ]
    config = TrainConfig(seed=seed, svr_max_epochs=12, patience=3)
    model = train("linear_svr", make(15), make(6), config)
    history = model.metadata.extras["validation_mse_history"]
    assert history[model.metadata.extras["best_epoch"]] <= history[0] + 1e-12


def test_svr_without_validation_runs_all_epochs():
    config = TrainConfig(seed=0, svr_max_epochs=7)
    model = train("linear_svr", random_dataset(seed=5), None, config)
    assert model.metadata.extras["epochs_run"] == 7


# --- random forest --------------------------------------------------------------------------


def test_rf_single_tree_interpolates_without_subsampling():
    config = TrainConfig(
        seed=0, rf_n_trees=1, rf_max_depth=None, rf_min_samples_leaf=1, rf_max_features="all", rf_bootstrap=False
    )
    xs = [fv(float(i)) for i in range(9)]
    ys = [((-1) ** i) * 0.1 * i for i in range(9)]
    model = train("random_forest", list(zip(xs, ys)), config=config)
    assert model.predict_batch(xs) == pytest.approx(ys, abs=1e-12)


def test_rf_prediction_is_mean_of_trees():
    config = TrainConfig(seed=3, rf_n_trees=7, rf_max_depth=4, rf_min_samples_leaf=2)
    data = random_dataset(seed=6, n=30, d=5)
    model = train("random_forest", data, config=config)
    inputs = [x for x, _ in random_dataset(seed=7, n=10, d=5)]
    per_tree = model.predict_per_tree(inputs)
    assert per_tree.shape == (7, 10)
    assert model.predict_batch(inputs) == pytest.approx(per_tree.mean(axis=0), abs=1e-12)


def test_rf_max_depth_limits_tree_size():
    config = TrainConfig(seed=0, rf_n_trees=1, rf_max_depth=1, rf_min_samples_leaf=1, rf_bootstrap=False)
    data = random_dataset(seed=8, n=40, d=3)
    model = train("random_forest", data, config=config)
    assert len(model.trees[0].feature) <= 3  # root plus two children


def test_rf_respects_min_samples_leaf():
    config = TrainConfig(seed=0, rf_n_trees=5, rf_max_depth=None, rf_min_samples_leaf=10)
    data = random_dataset(seed=9, n=25, d=3)
    model = train("random_forest", data, config=config)
    for tree in model.trees:
        assert (tree.feature >= 0).sum() <= 2


# --- text featurization path -------------------------------------------------------------------


def test_text_training_embeds_vocabulary():
    posts, targets = planted_posts(60, seed=0)
    config = TrainConfig(features=FeatureConfig(min_df=1, ngram_max=1))
    model = train("ridge", list(zip([p.target_text for p in posts], targets)), config=config)
    assert model.vocab is not None
    preds = model.predict_batch([p.target_text for p in posts])
    assert float(np.mean((preds - np.array(targets)) ** 2)) < 0.02


def test_vector_trained_model_rejects_text():
    model = train("ridge", random_dataset(seed=0))
    with pytest.raises(models.PredictionError, match="FeatureVector"):
        model.predict("some text")


# --- determinism ----------------------------------------------------------------------------------


@pytest.mark.property
@given(st.sampled_from(["constant_mean", "uniform_random", "ridge", "linear_svr", "random_forest"]),
       st.integers(0, 100))
def test_training_is_bit_deterministic(tmp_path_factory, family, seed):
    tmp_path = tmp_path_factory.mktemp("det")
    data = random_dataset(seed=seed, n=10, d=3)
    config = TrainConfig(seed=seed, svr_max_epochs=3, rf_n_trees=3, rf_max_depth=3)
    first = train(family, data, config=config)
    second = train(family, data, config=config)
    save_model(first, tmp_path / "a.bin")
    save_model(second, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    queries = [x for x, _ in random_dataset(seed=seed + 1, n=5, d=3)]
    assert np.array_equal(first.predict_batch(queries), second.predict_batch(queries))


# --- persistence ------------------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["constant_mean", "uniform_random", "ridge", "linear_svr", "random_forest"])
def test_save_load_round_trip_predicts_identically(tmp_path, family):
    data = random_dataset(seed=11, n=15, d=4)
    config = TrainConfig(seed=1, svr_max_epochs=5, rf_n_trees=4, rf_max_depth=4)
    model = train(family, data, config=config)
    path = tmp_path / "model.bin"
    save_model(model, path)
    clone = load_model(path)
    rng = np.random.default_rng(12)
    queries = [fv(*rng.normal(0, 1, 4)) for _ in range(100)]
    assert np.array_equal(model.predict_batch(queries), clone.predict_batch(queries))
    assert clone.metadata.seed == model.metadata.seed
    assert clone.metadata.hyperparameters == model.metadata.hyperparameters
    assert clone.metadata.training_fingerprint == model.metadata.training_fingerprint


def test_corrupted_file_fails_checksum(tmp_path):
    model = train("ridge", random_dataset(seed=0))
    path = tmp_path / "model.bin"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_model(path)


def test_newer_major_version_rejected(tmp_path):
    model = train("constant_mean", [(fv(0.0), 0.1)])
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
    model = train("random_forest", random_dataset(seed=0), config=TrainConfig(rf_n_trees=1))
    model.trees = [models._Tree(**arrays)]
    path = tmp_path / "model.bin"
    save_model(model, path)
    return path


def test_hand_built_forest_loads_and_predicts(tmp_path):
    clone = load_model(_forest_file(tmp_path))
    assert clone.predict_batch([fv(0.2, 0, 0, 0), fv(0.9, 0, 0, 0)]).tolist() == [-0.25, 0.25]


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


def test_vocabulary_survives_persistence(tmp_path):
    posts, targets = planted_posts(40, seed=2)
    config = TrainConfig(features=FeatureConfig(min_df=1, ngram_max=1))
    model = train("ridge", list(zip([p.target_text for p in posts], targets)), config=config)
    path = tmp_path / "model.bin"
    save_model(model, path)
    clone = load_model(path)
    queries = [p.target_text for p in posts[:10]]
    assert np.array_equal(model.predict_batch(queries), clone.predict_batch(queries))
