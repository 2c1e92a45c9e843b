import dataclasses

import numpy as np
import pytest

from ctxsens.augmentation import (
    SELECTION_RANDOM_K,
    SELECTION_TEACHER_TOP_K,
    AugmentationConfig,
    AugmentationError,
    run_augmentation,
    select_top_k,
)
from ctxsens.features import FeatureConfig
from ctxsens.models import TrainConfig, train

from helpers import planted_posts, post_table, split_columns


# --- select_top_k ------------------------------------------------------------------


def top_k(scored, k):
    """The ids select_top_k picks from (post_id, score) pairs."""
    ids = [post_id for post_id, _ in scored]
    return [ids[i] for i in select_top_k(ids, [score for _, score in scored], k)]


def test_select_top_k_takes_largest_scores():
    assert top_k([("a", 0.9), ("b", 0.1), ("c", 0.9)], 2) == ["a", "c"]


def test_select_top_k_whole_pool_ordering():
    scored = [("b", 0.5), ("a", 0.5), ("c", 0.9)]
    assert top_k(scored, 3) == ["c", "a", "b"]


def test_select_top_k_all_equal_uses_id_order():
    scored = [("zz", 0.5), ("aa", 0.5), ("mm", 0.5), ("bb", 0.5)]
    assert top_k(scored, 3) == ["aa", "bb", "mm"]


def test_select_top_k_rejects_oversized_k():
    with pytest.raises(AugmentationError):
        top_k([("a", 0.1)], 2)


def test_select_top_k_matches_sorting_by_score_then_id_under_heavy_ties():
    rng = np.random.default_rng(11)
    ids = [f"p{i}" for i in rng.permutation(5000)]
    scores = rng.integers(-3, 4, 5000) / 4.0  # seven distinct scores, and -0.0 next to 0.0
    scores[rng.random(5000) < 0.1] *= -1.0
    expected = sorted(zip(ids, scores.tolist()), key=lambda item: (-item[1], item[0]))
    for k in (1, 700, 5000):
        assert [ids[i] for i in select_top_k(ids, scores, k)] == [post_id for post_id, _ in expected[:k]]


# --- config validation --------------------------------------------------------------


def small_setup(pool_size=30, gold_size=24, seed=0, noise=0.15):
    pool, _ = planted_posts(pool_size, seed=seed + 1000, id_prefix="pool")
    gold_posts, gold_targets = planted_posts(gold_size, seed=seed, noise=noise)
    third = gold_size // 3
    splits = [slice(0, third), slice(third, 2 * third), slice(2 * third, None)]
    targets = [round(t, 3) for t in gold_targets]
    return pool, *(split_columns(gold_posts, targets, part) for part in splits)


def base_config(pool, **overrides):
    defaults = dict(
        pool=pool,
        k_per_cycle=3,
        n_cycles=2,
        train_config=TrainConfig(features=FeatureConfig(min_df=1, ngram_max=1), ridge_lambda=0.1),
        seed=0,
    )
    defaults.update(overrides)
    return AugmentationConfig(**defaults)


def test_config_rejects_pool_exhaustion():
    pool, *_ = small_setup()
    with pytest.raises(AugmentationError, match="exceeds pool"):
        base_config(pool, k_per_cycle=20, n_cycles=2)


def test_config_rejects_unknown_selection():
    pool, *_ = small_setup()
    with pytest.raises(AugmentationError, match="selection"):
        base_config(pool, selection="best_k")


def test_pool_must_be_disjoint_from_gold():
    pool, tr, val, test = small_setup()
    rows = [*zip(pool.post_ids, pool.target_texts)][:-1]
    poisoned = base_config(post_table([*rows, (tr[0][0], tr[1][0])]))
    with pytest.raises(AugmentationError, match="overlap"):
        run_augmentation(tr, val, test, poisoned)


# --- loop mechanics ----------------------------------------------------------------------


def test_conservation_of_train_and_pool_sizes():
    pool, tr, val, test = small_setup()
    logs = run_augmentation(tr, val, test, base_config(pool))
    assert [log.cycle for log in logs] == [0, 1]
    for t, log in enumerate(logs, start=1):
        assert log.train_size == len(tr[0]) + t * 3
        assert log.pool_size == len(pool) - t * 3
        assert len(log.selected_post_ids) == 3


def test_selected_ids_disjoint_across_cycles():
    pool, tr, val, test = small_setup()
    logs = run_augmentation(tr, val, test, base_config(pool, n_cycles=3))
    seen: set[str] = set()
    for log in logs:
        ids = set(log.selected_post_ids)
        assert not ids & seen
        seen |= ids


def test_single_shot_performs_one_big_cycle():
    pool, tr, val, test = small_setup()
    logs = run_augmentation(tr, val, test, base_config(pool, single_shot=True))
    assert len(logs) == 1
    assert len(logs[0].selected_post_ids) == 6
    assert logs[0].train_size == len(tr[0]) + 6


def test_loop_is_seed_deterministic():
    pool, tr, val, test = small_setup()
    for selection in (SELECTION_TEACHER_TOP_K, SELECTION_RANDOM_K):
        config = base_config(pool, selection=selection, seed=7)
        first = run_augmentation(tr, val, test, config)
        second = run_augmentation(tr, val, test, config)
        assert [a.to_json() for a in first] == [b.to_json() for b in second]


def test_random_k_seeds_differ_across_cycles():
    pool, tr, val, test = small_setup(pool_size=40)
    logs = run_augmentation(tr, val, test, base_config(pool, selection=SELECTION_RANDOM_K, n_cycles=3))
    assert len({log.selected_post_ids for log in logs}) == 3


def test_silver_scores_replayable_from_first_teacher():
    pool, tr, val, test = small_setup()
    config = base_config(pool)
    logs = run_augmentation(tr, val, test, config)
    teacher = train(config.teacher_family, tr[1], tr[2], val[1:], config.train_config)
    text_of = dict(zip(pool.post_ids, pool.target_texts))
    replayed = teacher.predict_batch([text_of[post_id] for post_id in logs[0].selected_post_ids])
    assert np.array_equal(replayed, np.array(logs[0].selected_silver_scores))


def test_constant_teacher_degenerates_to_id_order():
    pool, tr, val, test = small_setup()
    config = base_config(pool, teacher_family="constant_mean", student_family="constant_mean")
    logs = run_augmentation(tr, val, test, config)
    expected = sorted(pool.post_ids)[:3]
    assert list(logs[0].selected_post_ids) == expected


def test_silver_summary_matches_selected_scores():
    pool, tr, val, test = small_setup()
    logs = run_augmentation(tr, val, test, base_config(pool))
    for log in logs:
        scores = log.selected_silver_scores
        assert log.silver_min == min(scores)
        assert log.silver_max == max(scores)
        assert log.silver_mean == pytest.approx(float(np.mean(scores)))


def test_teacher_top_k_selects_higher_silver_than_random():
    pool, tr, val, test = small_setup(pool_size=60, gold_size=30)
    top = run_augmentation(tr, val, test, base_config(pool, n_cycles=3, k_per_cycle=5))
    rand = run_augmentation(
        tr, val, test, base_config(pool, selection=SELECTION_RANDOM_K, n_cycles=3, k_per_cycle=5)
    )
    for t_log, r_log in zip(top, rand):
        assert t_log.silver_mean >= r_log.silver_mean

