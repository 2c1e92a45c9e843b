import dataclasses

import numpy as np
import pytest

from ctxsens.augmentation import (
    SELECTION_RANDOM_K,
    SELECTION_TEACHER_TOP_K,
    AugmentationConfig,
    AugmentationError,
    TrainPost,
    run_augmentation,
    select_top_k,
)
from ctxsens.features import FeatureConfig
from ctxsens.models import TrainConfig, train

from helpers import planted_posts


# --- select_top_k ------------------------------------------------------------------


def test_select_top_k_takes_largest_scores():
    assert select_top_k([("a", 0.9), ("b", 0.1), ("c", 0.9)], 2) == ["a", "c"]


def test_select_top_k_whole_pool_ordering():
    scored = [("b", 0.5), ("a", 0.5), ("c", 0.9)]
    assert select_top_k(scored, 3) == ["c", "a", "b"]


def test_select_top_k_all_equal_uses_id_order():
    scored = [("zz", 0.5), ("aa", 0.5), ("mm", 0.5), ("bb", 0.5)]
    assert select_top_k(scored, 3) == ["aa", "bb", "mm"]


def test_select_top_k_rejects_oversized_k():
    with pytest.raises(AugmentationError):
        select_top_k([("a", 0.1)], 2)


# --- config validation --------------------------------------------------------------


def small_setup(pool_size=30, gold_size=24, seed=0, noise=0.15):
    pool, _ = planted_posts(pool_size, seed=seed + 1000, id_prefix="pool")
    gold_posts, gold_targets = planted_posts(gold_size, seed=seed, noise=noise)
    rows = [TrainPost(post=p, target=round(t, 3)) for p, t in zip(gold_posts, gold_targets)]
    third = gold_size // 3
    return pool, rows[: third], rows[third : 2 * third], rows[2 * third :]


def base_config(pool, **overrides):
    defaults = dict(
        pool=tuple(pool),
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
    poisoned = base_config(tuple(pool[:-1]) + (tr[0].post,))
    with pytest.raises(AugmentationError, match="overlap"):
        run_augmentation(tr, val, test, poisoned)


# --- loop mechanics ----------------------------------------------------------------------


def test_conservation_of_train_and_pool_sizes():
    pool, tr, val, test = small_setup()
    logs = run_augmentation(tr, val, test, base_config(pool))
    assert [log.cycle for log in logs] == [0, 1]
    for t, log in enumerate(logs, start=1):
        assert log.train_size == len(tr) + t * 3
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
    assert logs[0].train_size == len(tr) + 6


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
    teacher = train(
        config.teacher_family,
        [(row.post.target_text, row.target) for row in tr],
        [(row.post.target_text, row.target) for row in val],
        config.train_config,
    )
    posts_by_id = {post.post_id: post for post in pool}
    replayed = teacher.predict_batch(
        [posts_by_id[post_id].target_text for post_id in logs[0].selected_post_ids]
    )
    assert np.array_equal(replayed, np.array(logs[0].selected_silver_scores))


def test_constant_teacher_degenerates_to_id_order():
    pool, tr, val, test = small_setup()
    config = base_config(pool, teacher_family="constant_mean", student_family="constant_mean")
    logs = run_augmentation(tr, val, test, config)
    expected = sorted(post.post_id for post in pool)[:3]
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

