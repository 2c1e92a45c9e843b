import dataclasses
import weakref

import numpy as np
import pytest

from ctxsens import augmentation, models
from ctxsens.augmentation import (
    SELECTION_RANDOM_K,
    SELECTION_TEACHER_TOP_K,
    AugmentationConfig,
    AugmentationError,
    run_augmentation,
    select_top_k,
)
from ctxsens.features import FeatureConfig
from ctxsens.models import PredictionError, TrainConfig, train
from ctxsens.scorer import ScorerEndpoint

from helpers import delta_table, planted_posts, post_table, toy_scorer_command


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
    split = (np.arange(third), np.arange(third, 2 * third), np.arange(2 * third, gold_size))  # train, validation, test
    return pool, delta_table(gold_posts, [round(t, 3) for t in gold_targets]), split


def first_teacher(config, table, split):
    """The first cycle's teacher, trained again on the training rows."""
    tr, val = table.take(split[0]), table.take(split[1])
    validation = (val.posts.target_texts, val.delta)
    return train(config.family, tr.posts.target_texts, tr.delta, validation, config.train_config)


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
    pool, table, split = small_setup()
    rows = [*zip(pool.post_ids, pool.target_texts)][:-1]
    tr = table.take(split[0]).posts
    poisoned = base_config(post_table([*rows, (tr.post_ids[0], tr.target_texts[0])]))
    with pytest.raises(AugmentationError, match="overlap"):
        run_augmentation(table, [split], poisoned)


def test_train_rows_must_be_disjoint_from_test_rows():
    pool, table, (tr, val, test) = small_setup()
    with pytest.raises(AugmentationError, match="leaked"):
        run_augmentation(table, [(np.append(tr, test[-1]), val, test)], base_config(pool))


# --- loop mechanics ----------------------------------------------------------------------


def test_conservation_of_train_and_pool_sizes():
    pool, table, split = small_setup()
    logs = run_augmentation(table, [split], base_config(pool))
    assert [log.cycle for log in logs] == [0, 1]
    for t, log in enumerate(logs, start=1):
        assert log.train_size == len(split[0]) + t * 3
        assert log.pool_size == len(pool) - t * 3
        assert len(log.selected_post_ids) == 3


def test_selected_ids_disjoint_across_cycles():
    pool, table, split = small_setup()
    logs = run_augmentation(table, [split], base_config(pool, n_cycles=3))
    seen: set[str] = set()
    for log in logs:
        ids = set(log.selected_post_ids)
        assert not ids & seen
        seen |= ids


def test_single_shot_performs_one_big_cycle():
    pool, table, split = small_setup()
    logs = run_augmentation(table, [split], base_config(pool, single_shot=True))
    assert len(logs) == 1
    assert len(logs[0].selected_post_ids) == 6
    assert logs[0].train_size == len(split[0]) + 6


def test_loop_is_seed_deterministic():
    pool, table, split = small_setup()
    for selection in (SELECTION_TEACHER_TOP_K, SELECTION_RANDOM_K):
        config = base_config(pool, selection=selection, seed=7)
        first = run_augmentation(table, [split], config)
        second = run_augmentation(table, [split], config)
        assert [a.to_json() for a in first] == [b.to_json() for b in second]


def test_each_split_of_a_call_gives_the_logs_of_a_call_on_it_alone():
    pool, table, split = small_setup()
    other = (split[2], split[1], split[0])  # the training and test rows swapped
    config = base_config(pool)  # teacher selection draws nothing, so a split's place does not matter
    logs = run_augmentation(table, [split, other], config)
    assert [log.repeat for log in logs] == [0, 0, 1, 1]
    alone = run_augmentation(table, [split], config) + run_augmentation(table, [other], config)
    assert [log.repeat for log in alone] == [0, 0, 0, 0]
    assert [{**log.to_json(), "repeat": 0} for log in logs] == [log.to_json() for log in alone]


def test_random_k_seeds_differ_across_cycles():
    pool, table, split = small_setup(pool_size=40)
    logs = run_augmentation(table, [split], base_config(pool, selection=SELECTION_RANDOM_K, n_cycles=3))
    assert len({log.selected_post_ids for log in logs}) == 3


def test_random_selection_scores_only_its_picks(monkeypatch):
    pool, table, split = small_setup(pool_size=40)
    rows, predict = [], models.Model.predict_batch
    monkeypatch.setattr(
        models.Model, "predict_batch", lambda model, texts: rows.append(len(texts)) or predict(model, texts)
    )
    config = base_config(pool, selection=SELECTION_RANDOM_K, n_cycles=3, k_per_cycle=4)
    logs = run_augmentation(table, [split], config)
    assert rows == [4, len(split[2])] * 3  # each cycle: the teacher's picks, then the student's test split
    teacher = first_teacher(config, table, split)
    text_of = dict(zip(pool.post_ids, pool.target_texts))
    replayed = predict(teacher, [text_of[post_id] for post_id in logs[0].selected_post_ids])
    assert np.array_equal(replayed, np.array(logs[0].selected_silver_scores))


def test_silver_scores_replayable_from_first_teacher():
    pool, table, split = small_setup()
    config = base_config(pool)
    logs = run_augmentation(table, [split], config)
    teacher = first_teacher(config, table, split)
    text_of = dict(zip(pool.post_ids, pool.target_texts))
    replayed = teacher.predict_batch([text_of[post_id] for post_id in logs[0].selected_post_ids])
    assert np.array_equal(replayed, np.array(logs[0].selected_silver_scores))


def test_constant_teacher_degenerates_to_id_order():
    pool, table, split = small_setup()
    config = base_config(pool, family="constant_mean")
    logs = run_augmentation(table, [split], config)
    expected = sorted(pool.post_ids)[:3]
    assert list(logs[0].selected_post_ids) == expected


def test_silver_summary_matches_selected_scores():
    pool, table, split = small_setup()
    logs = run_augmentation(table, [split], base_config(pool))
    for log in logs:
        scores = log.selected_silver_scores
        assert log.silver_min == min(scores)
        assert log.silver_max == max(scores)
        assert log.silver_mean == pytest.approx(float(np.mean(scores)))


def test_teacher_top_k_selects_higher_silver_than_random():
    pool, table, split = small_setup(pool_size=60, gold_size=30)
    top = run_augmentation(table, [split], base_config(pool, n_cycles=3, k_per_cycle=5))
    rand = run_augmentation(table, [split], base_config(pool, selection=SELECTION_RANDOM_K, n_cycles=3, k_per_cycle=5))
    for t_log, r_log in zip(top, rand):
        assert t_log.silver_mean >= r_log.silver_mean



def test_the_teacher_is_closed_and_let_go_before_its_student_trains(monkeypatch):
    pool, table, split = small_setup()
    made, closed = [], []  # weak references to the models trained, and the places of those closed
    close = models.Model.close

    def tracked_close(model):
        closed.append([ref() for ref in made].index(model))
        close(model)

    def tracked_train(*args):
        assert closed == list(range(len(made)))  # every earlier model is closed
        assert all(ref() is None for ref in made)  # and nothing holds it
        model = train(*args)
        made.append(weakref.ref(model))
        return model

    monkeypatch.setattr(models.Model, "close", tracked_close)
    monkeypatch.setattr(augmentation, "train", tracked_train)
    for selection in (SELECTION_TEACHER_TOP_K, SELECTION_RANDOM_K):
        made.clear()
        closed.clear()
        run_augmentation(table, [split], base_config(pool, selection=selection, n_cycles=3))
        assert closed == [0, 1, 2, 3]


def test_models_are_closed_when_a_cycle_fails(scorer_processes):
    pool, table, split = small_setup()
    # the scorer never answers this one test text, so the student's evaluation fails
    poison = table.posts.target_texts[split[2][0]]
    assert [text for text in (*pool.target_texts, *table.posts.target_texts) if poison in text] == [poison]
    endpoint = ScorerEndpoint(command=toy_scorer_command("--drop-substring", poison), timeout=0.3)
    config = base_config(pool, family="external", train_config=TrainConfig(external=endpoint))
    with pytest.raises(PredictionError, match="failed on 1 inputs"):
        run_augmentation(table, [split], config)
    assert len(scorer_processes) == 2  # teacher and student; the fixture checks that neither outlives the test
