"""Teacher-student augmentation: silver-score a pool, select, retrain, evaluate.

Each cycle the current teacher silver-scores the remaining pool, k posts are
selected (highest silver score, or uniformly at random), moved from the pool
into the training set with their silver scores as targets, and a student is
trained from scratch on the augmented set and evaluated on a test split that
stays fixed across cycles. The student becomes the next cycle's teacher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .corpus import PostTable
from .evaluation import mae, mse
from .models import FAMILY_RIDGE, TrainConfig, train

SELECTION_TEACHER_TOP_K = "teacher_top_k"
SELECTION_RANDOM_K = "random_k"

GoldSplit = tuple[Sequence[str], Sequence[str], Sequence[float]]  # (post_ids, texts, targets)


class AugmentationError(ValueError):
    pass


@dataclass(frozen=True)
class AugmentationConfig:
    pool: PostTable
    selection: str = SELECTION_TEACHER_TOP_K
    k_per_cycle: int = 1000
    n_cycles: int = 5
    single_shot: bool = False
    teacher_family: str = FAMILY_RIDGE
    student_family: str = FAMILY_RIDGE
    train_config: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self) -> None:
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
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_clock_seconds"}
        return {name: list(value) if isinstance(value, tuple) else value for name, value in row.items()}


def select_top_k(post_ids: Sequence[str], scores: Sequence[float], k: int) -> np.ndarray:
    """Row indices of the k largest scores, largest first; ties break by
    ascending post id."""
    if k > len(post_ids):
        raise AugmentationError(f"k={k} exceeds pool size {len(post_ids)}")
    id_rank = np.argsort(sorted(range(len(post_ids)), key=post_ids.__getitem__))  # row -> place in id order
    return np.lexsort((id_rank, -np.asarray(scores, dtype=np.float64)))[:k]


def run_augmentation(
    gold_train: GoldSplit, gold_validation: GoldSplit, gold_test: GoldSplit, config: AugmentationConfig
) -> list[CycleLog]:
    """Run the augmentation loop, returning one log per cycle.

    Each gold split is (post_ids, texts, targets) columns. The pool must be
    disjoint from every gold split, and the training split from the test
    split. The evaluation split is the given gold_test for every cycle.
    Fully deterministic given (seed, config) for deterministic model families.
    """
    pool = config.pool
    gold_ids = {post_id for ids, _, _ in (gold_train, gold_validation, gold_test) for post_id in ids}
    overlap = gold_ids.intersection(pool.post_ids)
    if overlap:
        raise AugmentationError(f"pool overlaps gold splits on {sorted(overlap)[:5]}")
    test_ids, test_texts, test_targets = gold_test
    if set(test_ids).intersection(gold_train[0]):
        raise AugmentationError("train set leaked into the test split")

    remaining = np.arange(len(pool))  # pool rows not yet selected, in pool order
    train_texts, train_targets = list(gold_train[1]), list(gold_train[2])
    validation = gold_validation[1:]

    teacher = train(config.teacher_family, train_texts, train_targets, validation, config.train_config)

    if config.single_shot:
        plan = [config.k_per_cycle * config.n_cycles]
    else:
        plan = [config.k_per_cycle] * config.n_cycles

    logs: list[CycleLog] = []
    for cycle, k in enumerate(plan):
        started = time.perf_counter()
        left = pool.take(remaining)
        silver = teacher.predict_batch(left.target_texts)
        if config.selection == SELECTION_TEACHER_TOP_K:
            chosen = select_top_k(left.post_ids, silver, k)
            picked = np.sort(chosen)  # training rows join in pool order
        else:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, cycle]))
            chosen = picked = np.sort(rng.choice(len(left), size=k, replace=False))
        train_texts += left.take(picked).target_texts
        train_targets += silver[picked].tolist()
        remaining = np.delete(remaining, chosen)

        student = train(config.student_family, train_texts, train_targets, validation, config.train_config)
        predictions = student.predict_batch(test_texts)
        scores = silver[chosen].tolist()
        logs.append(
            CycleLog(
                cycle=cycle,
                selected_post_ids=left.take(chosen).post_ids,
                selected_silver_scores=tuple(scores),
                silver_min=min(scores),
                silver_mean=float(np.mean(scores)),
                silver_max=max(scores),
                student_mse=mse(predictions, test_targets),
                student_mae=mae(predictions, test_targets),
                n_test=len(test_texts),
                train_size=len(train_texts),
                pool_size=len(remaining),
                wall_clock_seconds=time.perf_counter() - started,
            )
        )
        teacher.close()
        teacher = student
    teacher.close()
    return logs
