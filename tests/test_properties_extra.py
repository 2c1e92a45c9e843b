"""Property encodings that pair fast implementations with independent oracles
or exercise whole-loop invariants on deliberately tiny inputs."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from ctxsens import analysis, evaluation, models
from ctxsens.augmentation import AugmentationConfig, TrainPost, run_augmentation
from ctxsens.corpus import Post
from ctxsens.features import FeatureVector, to_csr
from ctxsens.models import TrainConfig, train

from helpers import planted_examples
from oracles import dense_node_split, pairwise_auc, reference_linear_svr, threshold_enumeration_ap, walk_forest

pytestmark = pytest.mark.property


def fv(*values: float) -> FeatureVector:
    pairs = [(i, v) for i, v in enumerate(values) if v != 0.0]
    return FeatureVector(
        indices=tuple(i for i, _ in pairs),
        weights=tuple(v for _, v in pairs),
        dimension=len(values),
    )


_instance = st.integers(0, 10**9)


@given(_instance)
def test_roc_auc_equals_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 50))
    scores = rng.choice(np.linspace(0, 1, 7), n).tolist()
    labels = (rng.random(n) < 0.5).tolist()
    if all(labels) or not any(labels):
        return
    assert evaluation.roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


@given(_instance)
def test_aupr_equals_enumeration_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    scores = rng.choice(np.linspace(0, 1, 7), n).tolist()
    labels = (rng.random(n) < 0.4).tolist()
    if not any(labels):
        return
    assert evaluation.aupr(scores, labels) == pytest.approx(threshold_enumeration_ap(scores, labels), abs=1e-12)


@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=40))
def test_mse_at_least_mae_squared(pairs):
    pred = [p for p, _ in pairs]
    gold = [g for _, g in pairs]
    assert evaluation.mse(pred, gold) >= evaluation.mae(pred, gold) ** 2 - 1e-12


@given(st.integers(0, 10_000))
def test_monte_carlo_cv_reproducible(seed):
    examples = planted_examples(14, seed=seed % 17)
    config = TrainConfig(seed=seed)
    split = evaluation.SplitSpec(n_repeats=2, seed=seed)
    assert evaluation.monte_carlo_cv(examples, "constant_mean", config, split) == evaluation.monte_carlo_cv(
        examples, "constant_mean", config, split
    )


@given(st.integers(0, 10_000))
def test_rf_prediction_is_mean_of_trees(seed):
    rng = np.random.default_rng(seed)
    data = [(fv(*rng.normal(0, 1, 3)), float(rng.uniform(-1, 1))) for _ in range(8)]
    config = TrainConfig(seed=seed, rf_n_trees=3, rf_max_depth=3, rf_min_samples_leaf=1)
    model = train("random_forest", data, config=config)
    queries = [fv(*rng.normal(0, 1, 3)) for _ in range(4)]
    per_tree = model.predict_per_tree(queries)
    assert model.predict_batch(queries) == pytest.approx(per_tree.mean(axis=0), abs=1e-12)


@given(_instance)
def test_split_search_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    n_rows, d = int(rng.integers(2, 25)), int(rng.integers(1, 6))
    columns = np.zeros((n_rows, d))
    for j in range(d):
        nonzero = rng.random(n_rows) < rng.choice([0.0, 0.2, 0.6, 1.0])  # 0.0: an all-zero column
        tied = rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0], n_rows)
        columns[:, j] = np.where(nonzero, np.where(rng.random(n_rows) < 0.5, tied, rng.uniform(-1, 1, n_rows)), 0.0)
    node = np.flatnonzero(rng.random(n_rows) < 0.8)
    if len(node) < 2:
        return
    # On the dyadic grid every partial sum is exact in any order, so the choice
    # must be the oracle's exactly; with arbitrary floats a different order of
    # addition may break a tie between two equally good splits the other way.
    exact = seed % 2 == 0
    y = rng.integers(-8, 9, n_rows) / 8 if exact else rng.uniform(-1, 1, n_rows)
    sw = rng.choice([0.5, 1.0, 2.0, 3.0], n_rows) if seed % 3 else np.ones(n_rows)
    min_leaf = int(rng.integers(1, len(node) // 2 + 2))
    candidates = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
    position = np.full(n_rows, -1)
    position[node] = np.arange(len(node))

    stored = (columns != 0) | (rng.random(columns.shape) < 0.1)  # with some explicit zeros
    csc = sparse.csc_matrix((columns[stored], np.nonzero(stored)), shape=columns.shape)

    found = models._best_split(csc, position, y[node], sw[node], candidates, min_leaf)
    expected = dense_node_split(columns[node], y[node], sw[node], candidates, min_leaf)
    assert (found is None) == (expected is None)
    if found is None:
        return
    assert found[0] == pytest.approx(expected[0], rel=1e-12)
    if exact:
        assert found[1:] == expected[1:]
    else:
        go_left = columns[node, found[1]] <= found[2]
        wy, w = sw[node] * y[node], sw[node]
        left = math.fsum(wy[go_left]) ** 2 / math.fsum(w[go_left])
        right = math.fsum(wy[~go_left]) ** 2 / math.fsum(w[~go_left])
        assert left + right == pytest.approx(expected[0], rel=1e-12)


@given(_instance)
def test_predict_per_tree_matches_row_walker(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 20)), int(rng.integers(1, 6))
    sparse_row = lambda: fv(*np.where(rng.random(d) < 0.5, rng.normal(0, 1, d), 0.0))
    constant = seed % 7 == 0  # a single leaf per tree
    data = [(sparse_row(), 0.5 if constant else float(rng.uniform(-1, 1))) for _ in range(n)]
    config = TrainConfig(
        seed=seed,
        rf_n_trees=int(rng.integers(1, 4)),
        rf_max_depth=[0, 1, 2, 4, None][seed % 5],
        rf_min_samples_leaf=int(rng.integers(1, 3)),
    )
    model = train("random_forest", data, config=config)
    queries = [sparse_row() for _ in range(int(rng.integers(1, 12)))] + [fv(*np.zeros(d))]
    root = model.trees[0]
    if root.feature[0] >= 0:  # a row sitting exactly on the root threshold
        on_cut = np.zeros(d)
        on_cut[root.feature[0]] = root.threshold[0]
        queries.append(fv(*on_cut))
    saved = models._BLOCK_FLOATS
    models._BLOCK_FLOATS = int(rng.choice([1, 3, saved]))  # several row blocks per tree
    try:
        per_tree = model.predict_per_tree(queries)
    finally:
        models._BLOCK_FLOATS = saved
    assert np.array_equal(per_tree, walk_forest(model.trees, to_csr(queries)))


@given(st.integers(0, 10_000))
def test_svr_early_stopping_bounds(seed):
    rng = np.random.default_rng(seed)
    make = lambda n: [(fv(*rng.normal(0, 1, 3)), float(rng.uniform(-0.5, 0.5))) for _ in range(n)]
    config = TrainConfig(seed=seed, svr_max_epochs=12, patience=2)
    model = train("linear_svr", make(10), make(5), config)
    extras = model.metadata.extras
    assert extras["epochs_run"] <= extras["best_epoch"] + config.patience
    history = extras["validation_mse_history"]
    assert history[extras["best_epoch"]] == min(history)


def _svr_rows(rng: np.random.Generator, n: int, d: int) -> sparse.csr_matrix:
    """Sparse rows with some all-zero rows, repeated rows and stored zeros."""
    dense = np.where(rng.random((n, d)) < 0.5, rng.normal(0, 1, (n, d)), 0.0)
    dense[rng.random(n) < 0.2] = 0.0
    copies = rng.integers(0, n, n // 3)
    dense[rng.integers(0, n, len(copies))] = dense[copies]
    stored = (dense != 0) | (rng.random((n, d)) < 0.1)
    return sparse.csr_matrix((dense[stored], np.nonzero(stored)), shape=(n, d))


@given(_instance)
def test_linear_svr_matches_reference_oracle(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 16)), int(rng.integers(1, 6))
    matrix = _svr_rows(rng, n, d)
    y = rng.uniform(-1, 1, n)
    mode = seed % 4
    sw = rng.choice([0.5, 1.0, 2.0, 3.0], n) if seed % 3 and mode != 2 else np.ones(n)
    n_val = int(rng.integers(0, 8))  # 0: no validation set
    val_matrix, val_y = (_svr_rows(rng, n_val, d), rng.uniform(-1, 1, n_val)) if n_val else (None, None)
    # lr * reg in the first epoch: ordinary (mode 0); just under 1, so the
    # scale drops below 1e-9 and is folded (1); exactly 1, a decay of 0 (2);
    # above 1, a negative decay (3)
    if mode == 2:
        learning_rate, svr_c = 1.0, 1.0 / n  # unit weights: C * W is exactly 1
        # one epoch: after it a full batch sits on the regularized minimizer,
        # where later epochs tie exactly and rounding would pick best_epoch
        max_epochs = 1
    else:
        learning_rate = float(rng.uniform(0.01, 2.0))
        rate = {0: rng.uniform(1e-4, 0.1), 1: 1 - rng.uniform(1e-12, 1e-5), 3: rng.uniform(1.01, 1.9)}[mode]
        svr_c = learning_rate / (float(rate) * float(sw.sum()))
        max_epochs = int(rng.integers(1, 8))
    config = TrainConfig(
        seed=seed,
        svr_epsilon=float(rng.choice([0.0, 0.05, 0.3])),
        svr_learning_rate=learning_rate,
        svr_c=svr_c,
        svr_max_epochs=max_epochs,
        svr_batch_size=int(rng.integers(1, n + 3)),
        patience=int(rng.integers(1, 4)),
    )
    weights, bias, extras = models._fit_linear_svr(matrix, y, sw, val_matrix, val_y, config)
    ref_weights, ref_bias, ref_extras = reference_linear_svr(matrix, y, sw, val_matrix, val_y, config)
    assert extras["epochs_run"] == ref_extras["epochs_run"]
    assert extras["best_epoch"] == ref_extras["best_epoch"]
    history, ref_history = extras["validation_mse_history"], ref_extras["validation_mse_history"]
    assert len(history) == len(ref_history)
    # A decay near 0 cancels the weights down to the rounding noise of the
    # step before, so the scale also counts the largest step, lr * max |x|.
    tol = 1e-9 * max(np.abs(ref_weights).max(), abs(ref_bias), learning_rate * np.abs(matrix.data).max(initial=0.0))
    assert np.abs(weights - ref_weights).max() <= tol
    assert abs(bias - ref_bias) <= tol
    assert np.allclose(history, ref_history, rtol=0.0, atol=1e-9 * max(ref_history, default=0.0))


@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 2))
def test_augmentation_conservation(seed, k, cycles):
    rng = np.random.default_rng(seed)
    gold = [
        TrainPost(post=Post(f"g{i}", f"text {i}"), target=float(rng.uniform(-1, 1)))
        for i in range(6)
    ]
    pool = tuple(Post(f"p{i}", f"pool text {i}") for i in range(8))
    config = AugmentationConfig(
        pool=pool,
        k_per_cycle=k,
        n_cycles=cycles,
        teacher_family="constant_mean",
        student_family="constant_mean",
        train_config=TrainConfig(seed=seed),
        seed=seed,
        selection="random_k" if seed % 2 else "teacher_top_k",
    )
    logs = run_augmentation(gold[:4], gold[4:5], gold[5:], config)
    for t, log in enumerate(logs, start=1):
        assert log.train_size == 4 + t * k
        assert log.pool_size == len(pool) - t * k
    selected = [pid for log in logs for pid in log.selected_post_ids]
    assert len(selected) == len(set(selected))
    assert "g5" not in selected


@given(st.integers(0, 10_000))
def test_bootstrap_deterministic_per_seed(seed):
    rng = np.random.default_rng(seed)
    a = (rng.random(20) < 0.5).tolist()
    b = (rng.random(20) < 0.5).tolist()
    first = analysis.paired_bootstrap(a, b, resample_size=10, n_resamples=30, seed=seed)
    second = analysis.paired_bootstrap(a, b, resample_size=10, n_resamples=30, seed=seed)
    assert first == second
