import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens.evaluation import (
    EvalReport,
    MetricError,
    SplitSpec,
    UndefinedMetricError,
    aupr,
    fold_metrics,
    mae,
    monte_carlo_cv,
    mse,
    roc_auc,
    split_indices,
    stratified_toxicity_mae,
)
from ctxsens.models import TrainConfig
from ctxsens.scorer import ScorerEndpoint

from helpers import planted_examples, record_with_delta, score_of, toy_scorer_command
from ctxsens.aggregation import SensitivityExample, sensitivity
from ctxsens.corpus import Post
from oracles import pairwise_auc, population_variance, threshold_enumeration_ap


# --- mse / mae -------------------------------------------------------------------


def test_mse_mae_hand_example():
    assert mse([0.0, 0.5], [0.0, 1.0]) == pytest.approx(0.125)
    assert mae([0.0, 0.5], [0.0, 1.0]) == pytest.approx(0.25)


def test_perfect_predictions_score_zero():
    assert mse([0.1, -0.2], [0.1, -0.2]) == 0.0
    assert mae([0.1, -0.2], [0.1, -0.2]) == 0.0


def test_length_mismatch_and_empty_rejected():
    with pytest.raises(MetricError, match="mismatch"):
        mse([0.0], [0.0, 1.0])
    with pytest.raises(MetricError, match="empty"):
        mae([], [])


def test_constant_predictor_mse_is_variance_plus_squared_bias():
    rng = np.random.default_rng(0)
    gold = rng.uniform(-1, 1, 50).tolist()
    c = 0.17
    observed = mse([c] * len(gold), gold)
    expected = population_variance(gold) + (sum(gold) / len(gold) - c) ** 2
    assert observed == pytest.approx(expected, abs=1e-12)


# --- roc auc -----------------------------------------------------------------------


def test_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.1, 0.2], [True, True, False, False]) == 1.0


def test_auc_all_ties_is_half():
    assert roc_auc([0.5] * 6, [True, False, True, False, False, True]) == 0.5


def test_auc_single_class_is_undefined():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.2], [True, True])


def test_auc_matches_pairwise_oracle_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n).tolist()
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


@pytest.mark.property
@given(st.integers(0, 10_000))
def test_auc_invariant_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    scores = rng.normal(0, 1, n)
    labels = rng.random(n) < 0.5
    if labels.all() or not labels.any():
        return
    base = roc_auc(scores.tolist(), labels)
    for transform in (lambda s: 3 * s + 7, np.tanh, lambda s: np.exp(s / 2)):
        assert roc_auc(transform(scores).tolist(), labels) == pytest.approx(base, abs=1e-12)


# --- aupr ------------------------------------------------------------------------------


def test_aupr_perfect_ranking():
    assert aupr([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == pytest.approx(1.0)


def test_aupr_needs_a_positive():
    with pytest.raises(UndefinedMetricError):
        aupr([0.5, 0.2], [False, False])


def test_aupr_random_scores_near_prevalence():
    rng = np.random.default_rng(7)
    n = 10_000
    scores = rng.random(n).tolist()
    labels = (rng.random(n) < 0.5).tolist()
    prevalence = sum(labels) / n
    assert aupr(scores, labels) == pytest.approx(prevalence, abs=0.05)


def test_aupr_fixed_instance_matches_enumeration_oracle():
    scores = [0.9, 0.9, 0.7, 0.6, 0.6, 0.5, 0.4, 0.3, 0.3, 0.1]
    labels = [True, False, True, False, True, False, False, True, False, False]
    assert aupr(scores, labels) == pytest.approx(threshold_enumeration_ap(scores, labels), abs=1e-15)


def test_aupr_matches_oracle_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n).tolist()
        labels = (rng.random(n) < 0.4).tolist()
        if not any(labels):
            continue
        assert aupr(scores, labels) == pytest.approx(threshold_enumeration_ap(scores, labels), abs=1e-12)


# --- splits -------------------------------------------------------------------------------


def test_split_fractions_validated():
    with pytest.raises(MetricError, match="sum"):
        SplitSpec(train_fraction=0.5, validation_fraction=0.1, test_fraction=0.1)


def test_split_partitions_everything_exactly_once():
    spec = SplitSpec(seed=5)
    for repeat in range(3):
        tr, val, test = split_indices(103, spec, repeat)
        combined = np.concatenate([tr, val, test])
        assert sorted(combined.tolist()) == list(range(103))
        assert len(test) == 10 and len(val) == 10 and len(tr) == 83


def test_split_deterministic_per_repeat():
    spec = SplitSpec(seed=9)
    a = split_indices(50, spec, 1)
    b = split_indices(50, spec, 1)
    c = split_indices(50, spec, 2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[2], c[2])


@pytest.mark.property
@given(st.integers(10, 200), st.integers(0, 50), st.integers(0, 5))
def test_split_partition_property(n, seed, repeat):
    tr, val, test = split_indices(n, SplitSpec(seed=seed), repeat)
    assert sorted(np.concatenate([tr, val, test]).tolist()) == list(range(n))


# --- monte carlo cv ---------------------------------------------------------------------------


def examples_with_half_sensitive(n: int, seed: int = 0):
    examples = planted_examples(n, seed=seed)
    # force a balanced label mix by alternating strong and null deltas
    out = []
    for i, ex in enumerate(examples):
        delta = 0.5 if i % 2 == 0 else 0.0
        out.append(SensitivityExample(ex.post, record_with_delta(delta, ex.post.post_id)))
    return out


def test_constant_baseline_auc_exactly_half():
    examples = examples_with_half_sensitive(60)
    report = monte_carlo_cv(examples, "constant_mean", TrainConfig(), SplitSpec(seed=1))
    assert report.n_folds == 3
    for fold in report.folds:
        assert fold.auc == 0.5
        assert fold.aupr is not None


def test_cv_reproducible_under_same_seed():
    examples = examples_with_half_sensitive(50)
    config = TrainConfig(seed=2)
    split = SplitSpec(seed=3)
    first = monte_carlo_cv(examples, "ridge", config, split)
    second = monte_carlo_cv(examples, "ridge", config, split)
    assert first == second


def test_cv_mean_is_exact_mean_of_folds():
    examples = examples_with_half_sensitive(50)
    report = monte_carlo_cv(examples, "uniform_random", TrainConfig(seed=0), SplitSpec(seed=0))
    for metric in ("mse", "mae", "auc", "aupr"):
        values = [f.value(metric) for f in report.folds if f.value(metric) is not None]
        assert report.mean(metric) == pytest.approx(float(np.mean(values)), abs=1e-12)
        assert abs(report.mean(metric) - np.mean(values)) <= 1e-12


def test_degenerate_single_class_folds_record_missing_metrics():
    examples = [
        SensitivityExample(Post(f"p{i}", f"tok{i:03d} filler"), record_with_delta(0.0, f"p{i}"))
        for i in range(30)
    ]
    report = monte_carlo_cv(examples, "constant_mean", TrainConfig(), SplitSpec(seed=0))
    for fold in report.folds:
        assert fold.auc is None and fold.aupr is None
        assert "class" in fold.missing_reason
    assert report.mean("auc") is None
    assert report.mean("mse") is not None


def test_fold_sem_is_sample_sem():
    examples = examples_with_half_sensitive(60, seed=4)
    report = monte_carlo_cv(examples, "uniform_random", TrainConfig(seed=1), SplitSpec(seed=1))
    values = [f.mse for f in report.folds]
    assert report.sem("mse") == pytest.approx(np.std(values, ddof=1) / math.sqrt(len(values)))


def test_jensen_mse_at_least_mae_squared():
    examples = examples_with_half_sensitive(60, seed=5)
    report = monte_carlo_cv(examples, "ridge", TrainConfig(), SplitSpec(seed=2))
    for fold in report.folds:
        assert fold.mse >= fold.mae**2 - 1e-12


# --- stratified toxicity MAE -----------------------------------------------------------------------


def oracle_examples(n: int = 20):
    """Examples whose target text encodes the IC gold score, so a float-mode
    scorer is a perfect oracle."""
    examples = []
    for i in range(n):
        ic_value = (i % 5) / 5.0
        oc_value = min(1.0, ic_value + (0.2 if i % 3 == 0 else 0.0))
        record = sensitivity(f"p{i}", score_of(oc_value, 1000), score_of(ic_value, 1000))
        examples.append(SensitivityExample(Post(f"p{i}", f"{ic_value:.6f}", "parent text"), record))
    return examples


def test_perfect_oracle_scorer_has_zero_mae_at_every_threshold():
    endpoint = ScorerEndpoint(command=toy_scorer_command("--mode", "float"))
    examples = oracle_examples()
    result = stratified_toxicity_mae(endpoint, examples, [0.0, 0.1, 0.2], mode="target_only")
    assert result.errors == {}
    for row in result.rows:
        if row.n:
            assert row.mae == pytest.approx(0.0, abs=1e-12)


def test_threshold_zero_covers_all_scored_posts():
    endpoint = ScorerEndpoint(command=toy_scorer_command("--mode", "float"))
    examples = oracle_examples()
    result = stratified_toxicity_mae(endpoint, examples, [0.0])
    assert result.rows[0].n == len(examples)


def test_stratified_subsets_are_monotone():
    endpoint = ScorerEndpoint(command=toy_scorer_command())
    examples = oracle_examples()
    thresholds = [0.0, 0.1, 0.2, 0.3, 1.0]
    result = stratified_toxicity_mae(endpoint, examples, thresholds)
    sizes = [row.n for row in result.rows]
    assert sizes == sorted(sizes, reverse=True)


def test_concat_parent_mode_changes_scores():
    endpoint = ScorerEndpoint(command=toy_scorer_command())  # hash mode: text-sensitive
    examples = oracle_examples()
    target_only = stratified_toxicity_mae(endpoint, examples, [0.0], mode="target_only")
    endpoint2 = ScorerEndpoint(command=toy_scorer_command())
    concat = stratified_toxicity_mae(endpoint2, examples, [0.0], mode="concat_parent")
    assert target_only.rows[0].mae != concat.rows[0].mae


def test_scorer_failures_surface_as_partial_result():
    endpoint = ScorerEndpoint(
        command=toy_scorer_command("--mode", "float", "--drop-substring", "0.2"), timeout=0.4
    )
    examples = oracle_examples()
    result = stratified_toxicity_mae(endpoint, examples, [0.0], retries=1)
    assert result.errors
    assert result.rows[0].n == len(examples) - len(result.errors)


def test_unknown_mode_rejected():
    endpoint = ScorerEndpoint(command=toy_scorer_command())
    with pytest.raises(MetricError, match="mode"):
        stratified_toxicity_mae(endpoint, oracle_examples(), [0.0], mode="bogus")
