"""Teacher-student augmentation: silver-score a pool, select, retrain, evaluate.

Each cycle the current teacher silver-scores the remaining pool, k posts are
selected (highest silver score, or uniformly at random), moved from the pool
into the training set with their silver scores as targets, and a student is
trained from scratch on the augmented set and evaluated on a test split that
stays fixed across cycles. The student becomes the next cycle's teacher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Post
from .evaluation import mae, mse
from .models import FAMILY_RIDGE, TrainConfig, train

SELECTION_TEACHER_TOP_K = "teacher_top_k"
SELECTION_RANDOM_K = "random_k"

GoldSplit = tuple[Sequence[str], Sequence[str], Sequence[float]]  # (post_ids, texts, targets)


class AugmentationError(ValueError):
    pass


@dataclass(frozen=True)
class AugmentationConfig:
    pool: tuple[Post, ...]
    selection: str = SELECTION_TEACHER_TOP_K
    k_per_cycle: int = 1000
    n_cycles: int = 5
    single_shot: bool = False
    teacher_family: str = FAMILY_RIDGE
    student_family: str = FAMILY_RIDGE
    train_config: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "pool", tuple(self.pool))
        if self.selection not in (SELECTION_TEACHER_TOP_K, SELECTION_RANDOM_K):
            raise AugmentationError(f"unknown selection {self.selection!r}")
        if self.k_per_cycle < 1 or self.n_cycles < 1:
            raise AugmentationError("k_per_cycle and n_cycles must be >= 1")
        if self.k_per_cycle * self.n_cycles > len(self.pool):
            raise AugmentationError(
                f"k_per_cycle * n_cycles = {self.k_per_cycle * self.n_cycles} "
                f"exceeds pool size {len(self.pool)}"
            )


@dataclass(frozen=True)
class CycleLog:
    """One cycle's outcome; to_json leaves out the wall-clock time, so that the
    logs of a rerun are identical."""

    cycle: int
    selected_post_ids: tuple[str, ...]
    selected_silver_scores: tuple[float, ...]
    silver_min: float
    silver_mean: float
    silver_max: float
    student_mse: float
    student_mae: float
    n_test: int
    train_size: int
    pool_size: int
    wall_clock_seconds: float

    def to_json(self) -> dict:
        return {
            "cycle": self.cycle,
            "selected_post_ids": list(self.selected_post_ids),
            "selected_silver_scores": list(self.selected_silver_scores),
            "silver_min": self.silver_min,
            "silver_mean": self.silver_mean,
            "silver_max": self.silver_max,
            "student_mse": self.student_mse,
            "student_mae": self.student_mae,
            "n_test": self.n_test,
            "train_size": self.train_size,
            "pool_size": self.pool_size,
        }


def select_top_k(scored: Sequence[tuple[str, float]], k: int) -> list[str]:
    """Ids of the k largest scores; ties break by ascending post id."""
    if k > len(scored):
        raise AugmentationError(f"k={k} exceeds pool size {len(scored)}")
    ranked = sorted(scored, key=lambda item: (-item[1], item[0]))
    return [post_id for post_id, _ in ranked[:k]]


def run_augmentation(
    gold_train: GoldSplit, gold_validation: GoldSplit, gold_test: GoldSplit, config: AugmentationConfig
) -> list[CycleLog]:
    """Run the augmentation loop, returning one log per cycle.

    Each gold split is (post_ids, texts, targets) columns. The pool must be
    disjoint from every gold split. The evaluation split is the given
    gold_test for every cycle. Fully deterministic given (seed, config) for
    deterministic model families.
    """
    gold_ids = {post_id for ids, _, _ in (gold_train, gold_validation, gold_test) for post_id in ids}
    pool_ids = {post.post_id for post in config.pool}
    overlap = gold_ids & pool_ids
    if overlap:
        raise AugmentationError(f"pool overlaps gold splits on {sorted(overlap)[:5]}")
    test_ids, test_texts, test_targets = gold_test
    test_ids = set(test_ids)

    pool: list[Post] = list(config.pool)
    train_ids, train_texts, train_targets = (list(column) for column in gold_train)
    validation = gold_validation[1:]

    teacher = train(config.teacher_family, train_texts, train_targets, validation, config.train_config)

    if config.single_shot:
        plan = [config.k_per_cycle * config.n_cycles]
    else:
        plan = [config.k_per_cycle] * config.n_cycles

    logs: list[CycleLog] = []
    for cycle, k in enumerate(plan):
        started = time.perf_counter()
        silver = teacher.predict_batch([post.target_text for post in pool])
        if config.selection == SELECTION_TEACHER_TOP_K:
            selected_ids = select_top_k([(post.post_id, float(s)) for post, s in zip(pool, silver)], k)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, cycle]))
            chosen = rng.choice(len(pool), size=k, replace=False)
            selected_ids = [pool[i].post_id for i in sorted(chosen)]
        selected_set = set(selected_ids)
        if selected_set & test_ids:
            raise AugmentationError("selection leaked into the test split")

        silver_by_id = {post.post_id: float(s) for post, s in zip(pool, silver)}
        for post in pool:
            if post.post_id in selected_set:
                train_ids.append(post.post_id)
                train_texts.append(post.target_text)
                train_targets.append(silver_by_id[post.post_id])
        pool = [post for post in pool if post.post_id not in selected_set]
        if test_ids.intersection(train_ids):
            raise AugmentationError("train set leaked into the test split")

        student = train(config.student_family, train_texts, train_targets, validation, config.train_config)
        predictions = student.predict_batch(test_texts)
        scores = [silver_by_id[post_id] for post_id in selected_ids]
        logs.append(
            CycleLog(
                cycle=cycle,
                selected_post_ids=tuple(selected_ids),
                selected_silver_scores=tuple(scores),
                silver_min=min(scores),
                silver_mean=float(np.mean(scores)),
                silver_max=max(scores),
                student_mse=mse(predictions, test_targets),
                student_mae=mae(predictions, test_targets),
                n_test=len(test_texts),
                train_size=len(train_ids),
                pool_size=len(pool),
                wall_clock_seconds=time.perf_counter() - started,
            )
        )
        teacher.close()
        teacher = student
    teacher.close()
    return logs
