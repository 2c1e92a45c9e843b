"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 3 and 4 need the released dataset mapped onto the corpus schema;
point CCC_DATA_DIR at a directory holding posts.jsonl/ic.jsonl/oc.jsonl (full
checks) or scores.csv (score-table adapter; delta-bucket checks only) and
they will run, otherwise they skip with the reason.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ctxsens import aggregation, analysis, evaluation, models
from ctxsens.aggregation import SensitivityTable, collapse_binary
from ctxsens.augmentation import (
    SELECTION_RANDOM_K,
    SELECTION_TEACHER_TOP_K,
    AugmentationConfig,
    run_augmentation,
)
from ctxsens.corpus import load_bundle, load_score_table
from ctxsens.features import FeatureConfig
from ctxsens.models import TrainConfig

from helpers import (
    delta_table,
    planted_posts,
    post_table,
    record_with_delta,
    sensitivity_table,
    two_region_corpus,
)
from oracles import pairwise_auc, population_variance, threshold_enumeration_ap

pytestmark = pytest.mark.acceptance

CCC_DATA_DIR = os.environ.get("CCC_DATA_DIR")


class _Criterion:
    def __init__(self, number: int, name: str, budget_seconds: float):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} ({self.name}): {status} in {elapsed:.1f}s (budget {self.budget:.0f}s)")
        if exc_type is None and elapsed > self.budget:
            raise AssertionError(f"criterion {self.number} exceeded its {self.budget:.0f}s budget: {elapsed:.1f}s")
        return False


def test_criterion_1_metric_oracle_equivalence():
    with _Criterion(1, "metric oracle equivalence", 10):
        rng = np.random.default_rng(20_240_001)
        auc_checked = 0
        aupr_checked = 0
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            scores = rng.choice(np.linspace(0, 1, 9), n).tolist()
            labels = (rng.random(n) < rng.uniform(0.2, 0.8)).tolist()
            if any(labels) and not all(labels):
                fast = evaluation.roc_auc(scores, labels)
                slow = pairwise_auc(scores, labels)
                assert abs(fast - slow) <= 1e-12
                auc_checked += 1
            if any(labels):
                fast = evaluation.aupr(scores, labels)
                slow = threshold_enumeration_ap(scores, labels)
                assert abs(fast - slow) <= 1e-12
                aupr_checked += 1
        assert auc_checked >= 900 and aupr_checked >= 900


def _balanced_examples(n: int, seed: int) -> SensitivityTable:
    posts, _ = planted_posts(n, seed=seed)
    return sensitivity_table(
        record_with_delta(0.6 if i % 2 == 0 else 0.0, post_id, text)
        for i, (post_id, text) in enumerate(zip(posts.post_ids, posts.target_texts))
    )


def test_criterion_2_baseline_identities():
    with _Criterion(2, "baseline identities", 60):
        # B1: AUC is exactly 0.5 on every fold by the tie convention
        examples = _balanced_examples(120, seed=1)
        report = evaluation.monte_carlo_cv(examples, "constant_mean", TrainConfig(), evaluation.SplitSpec(seed=3))
        for fold in report.folds:
            assert fold.auc == 0.5

        # B1 MSE identity: with the training mean equal to the test mean the
        # MSE equals the test-label population variance exactly; on arbitrary
        # splits it decomposes as variance + squared mean offset
        rng = np.random.default_rng(7)
        gold = rng.uniform(-1, 1, 400).tolist()
        model = models.train("constant_mean", [f"t{i}" for i in range(len(gold))], gold)
        predictions = model.predict_batch([f"t{i}" for i in range(len(gold))])
        assert abs(evaluation.mse(predictions, gold) - population_variance(gold)) <= 1e-12
        for split_seed in range(20):
            split_rng = np.random.default_rng(split_seed)
            perm = split_rng.permutation(len(gold))
            train_idx, test_idx = perm[:300], perm[300:]
            b1 = models.train("constant_mean", [f"t{i}" for i in train_idx], [gold[i] for i in train_idx])
            test_gold = [gold[i] for i in test_idx]
            preds = b1.predict_batch([f"t{i}" for i in test_idx])
            observed = evaluation.mse(preds, test_gold)
            expected = population_variance(test_gold) + (np.mean(test_gold) - b1.mean) ** 2
            assert abs(observed - expected) <= 1e-12

        # B2: AUC within 0.03 of 1/2, averaged over 3 folds of >= 500 items
        big = _balanced_examples(5000, seed=2)
        split = evaluation.SplitSpec(seed=11)
        report = evaluation.monte_carlo_cv(big, "uniform_random", TrainConfig(seed=5), split)
        assert all(fold.n_test >= 500 for fold in report.folds)
        assert abs(report.mean("auc") - 0.5) <= 0.03


def _ccc_bundle_paths():
    if CCC_DATA_DIR is None:
        return None
    root = Path(CCC_DATA_DIR)
    paths = root / "posts.jsonl", root / "ic.jsonl", root / "oc.jsonl"
    return paths if all(p.is_file() for p in paths) else None


def _ccc_score_table():
    if CCC_DATA_DIR is None:
        return None
    path = Path(CCC_DATA_DIR) / "scores.csv"
    return path if path.is_file() else None


def test_criterion_3_dataset_statistics_reproduction():
    bundle_paths = _ccc_bundle_paths()
    score_table = _ccc_score_table()
    if bundle_paths is None and score_table is None:
        pytest.skip(
            "needs the released CCC data: set CCC_DATA_DIR to a directory with "
            "posts.jsonl/ic.jsonl/oc.jsonl (full checks) or scores.csv (delta buckets only); "
            "this sandbox has no network access to fetch it"
        )
    with _Criterion(3, "dataset statistics reproduction", 60):
        if bundle_paths is not None:
            bundle = load_bundle(*bundle_paths)
            table, _ = aggregation.compute_sensitivities(bundle)
            deltas, s_oc, s_ic = table.delta, table.oc_value, table.ic_value
            report = aggregation.agreement(
                bundle.ic_annotations, n_categories=2, label_key=collapse_binary
            )
            assert abs(report.free_marginal_kappa - 0.8393) <= 0.005
            assert abs(report.mean_pairwise_agreement - 0.92) <= 0.005
            # strongly sensitive posts are rare: the |delta| >= 0.7 count is tiny
            assert aggregation.count_sensitive(deltas, 0.7) <= 0.02 * len(table)
        else:
            rows = load_score_table(score_table)
            deltas = [row.delta for row in rows]
            s_oc, s_ic = [row.s_oc for row in rows], [row.s_ic for row in rows]
            print("\nNOTE: released files lack per-rater labels; criterion degraded to the delta-bucket check")
        buckets = aggregation.delta_buckets(deltas)
        assert abs(buckets.unchanged - 0.661) <= 0.002
        assert abs(buckets.increased - 0.096) <= 0.002
        assert abs(buckets.decreased - 0.243) <= 0.002
        assert abs(aggregation.binarized_unchanged_fraction(s_oc, s_ic) - 0.947) <= 0.002


def test_criterion_4_classical_regressor_ballpark():
    bundle_paths = _ccc_bundle_paths()
    if bundle_paths is None:
        pytest.skip(
            "needs the released CCC data with per-rater labels mapped onto the corpus schema "
            "(CCC_DATA_DIR with posts.jsonl/ic.jsonl/oc.jsonl); the per-post SEM threshold that "
            "defines the binary labels cannot be derived from aggregate score tables"
        )
    with _Criterion(4, "ridge regression ballpark on CCC", 600):
        bundle = load_bundle(*bundle_paths)
        table, _ = aggregation.compute_sensitivities(bundle)
        report = evaluation.monte_carlo_cv(table, "ridge", TrainConfig(seed=0), evaluation.SplitSpec(seed=0))
        assert report.mean("auc") >= 0.65
        assert report.mean("mse") <= 0.025


def _split_table(*parts):
    """One table of the (posts, targets) parts, and each part's rows in it."""
    posts = post_table(row for items in parts for row in zip(items[0].post_ids, items[0].target_texts))
    ends = np.cumsum([0, *(len(targets) for _, targets in parts)])
    table = delta_table(posts, [t for _, targets in parts for t in targets])
    return table, tuple(np.arange(start, end) for start, end in zip(ends, ends[1:]))


def _planted_split(seed: int):
    gold_posts, gold_targets = planted_posts(150, seed=seed, vocab_size=60)
    return delta_table(gold_posts, gold_targets), (np.arange(100), np.arange(100, 120), np.arange(120, 150))


def test_criterion_5_augmentation_structural_suite():
    with _Criterion(5, "augmentation structural suite", 60):
        seed = 0
        gold, split = _planted_split(seed)
        pool, _ = planted_posts(600, seed=seed + 500, id_prefix="pool", vocab_size=60)
        config = TrainConfig(features=FeatureConfig(min_df=1, ngram_max=1), ridge_lambda=0.1, seed=seed)

        def run(selection):
            aug = AugmentationConfig(
                pool=pool,
                selection=selection,
                k_per_cycle=40,
                n_cycles=5,
                train_config=config,
                seed=seed,
            )
            return run_augmentation(gold, [split], aug)

        top = run(SELECTION_TEACHER_TOP_K)
        rand = run(SELECTION_RANDOM_K)

        # conservation: |train_t| = |train_0| + t*k and |pool_t| = |pool_0| - t*k
        for logs in (top, rand):
            for t, log in enumerate(logs, start=1):
                assert log.train_size == len(split[0]) + t * 40
                assert log.pool_size == len(pool) - t * 40
            selected = [pid for log in logs for pid in log.selected_post_ids]
            assert len(selected) == len(set(selected))
            test_ids = set(gold.take(split[2]).posts.post_ids)
            assert not test_ids & set(selected)

        # end-to-end seed determinism (wall clock excluded)
        def strip(logs):
            return [{k: v for k, v in log.to_json().items() if k != "wall_clock_seconds"} for log in logs]

        assert strip(run(SELECTION_TEACHER_TOP_K)) == strip(top)
        assert strip(run(SELECTION_RANDOM_K)) == strip(rand)

        # top-k selection beats random selection on mean silver score, every cycle
        for top_log, rand_log in zip(top, rand):
            assert top_log.silver_mean >= rand_log.silver_mean


def test_criterion_6_augmentation_trend():
    with _Criterion(6, "augmentation trend: cycles vs single shot", 300):
        wins = 0
        for seed in range(5):
            pool_items = two_region_corpus(3000, seed + 1, {"A": 0.10, "AB": 0.04, "B": 0.15}, "pool")
            gold_items = two_region_corpus(250, seed + 2, {"A": 0.08}, "gold")
            test_items = two_region_corpus(200, seed + 3, {"A": 0.15, "AB": 0.1, "B": 0.25}, "test")
            val_items = two_region_corpus(40, seed + 4, {"A": 0.1}, "val")

            config = TrainConfig(features=FeatureConfig(min_df=2, ngram_max=1), ridge_lambda=0.01, seed=seed)
            base = dict(
                pool=pool_items[0],
                k_per_cycle=100,
                n_cycles=5,
                train_config=config,
                seed=seed,
            )
            gold, split = _split_table(gold_items, val_items, test_items)
            cycled = run_augmentation(gold, [split], AugmentationConfig(**base))
            single = run_augmentation(gold, [split], AugmentationConfig(**base, single_shot=True))
            # guard: the student genuinely learns the planted signal
            zero_mse = float(np.mean(np.array(test_items[1]) ** 2))
            assert cycled[-1].student_mse < 0.5 * zero_mse
            wins += cycled[-1].student_mse <= single[0].student_mse
        assert wins >= 4, f"cycled beat single-shot on only {wins}/5 seeds"


def test_criterion_7_bootstrap_calibration():
    with _Criterion(7, "bootstrap calibration", 30):
        # identical Bernoulli(0.3) groups of 250: p near 1/2 on average
        p_values = []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            group = (rng.random(250) < 0.3).tolist()
            result = analysis.paired_bootstrap(
                group, list(group), resample_size=100, n_resamples=1000, seed=seed
            )
            p_values.append(result.p_value)
        assert 0.40 <= float(np.mean(p_values)) <= 0.60

        # true proportions 0.396 vs 0.172 at resample_size 100: significant
        group_a = [True] * 99 + [False] * 151
        group_b = [True] * 43 + [False] * 207
        significant = sum(
            analysis.paired_bootstrap(
                group_a, group_b, resample_size=100, n_resamples=1000, seed=seed
            ).p_value
            <= 0.05
            for seed in range(20)
        )
        assert significant >= 19  # >= 95% of seeds


def test_criterion_8_property_suites_standalone():
    with _Criterion(8, "property suites standalone", 300):
        env = dict(os.environ, HYPOTHESIS_PROFILE="acceptance")
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-m", "property", "-q", "-p", "no:cacheprovider",
             str(Path(__file__).parent)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        elapsed = time.perf_counter() - started
        tail = "\n".join(proc.stdout.splitlines()[-5:])
        assert proc.returncode == 0, f"property suite failed:\n{proc.stdout[-3000:]}\n{proc.stderr[-1000:]}"
        assert "passed" in proc.stdout
        assert elapsed < 300, f"property suite took {elapsed:.0f}s"
        print(f"\nproperty suite: {tail.strip().splitlines()[-1]}")
