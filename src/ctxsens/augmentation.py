"""Teacher-student augmentation: silver-score a pool, select, retrain, evaluate.

Each cycle k posts are selected from the remaining pool (those the current
teacher silver-scores highest, or k drawn uniformly at random, which alone
it then silver-scores), moved from the pool into the training set with their
silver scores as targets, and a student is trained from scratch on the
augmented set and evaluated on a test split that stays fixed across cycles.
The student becomes the next cycle's teacher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .aggregation import SensitivityTable
from .corpus import PostTable
from .evaluation import mae, mse
from .features import tokenize
from .models import FAMILY_RIDGE, TrainConfig, train
from .settings import AugmentationError  # noqa: F401 - re-exported; settings needs no SciPy

SELECTION_TEACHER_TOP_K = "teacher_top_k"
SELECTION_RANDOM_K = "random_k"

@dataclass(frozen=True)
class AugmentationConfig:
    pool: PostTable
    selection: str = SELECTION_TEACHER_TOP_K
    k_per_cycle: int = 1000
    n_cycles: int = 5
    single_shot: bool = False
    family: str = FAMILY_RIDGE  # of the first teacher and of every student
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

    repeat: int
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
    table: SensitivityTable, splits: Sequence[Sequence[np.ndarray]], config: AugmentationConfig
) -> list[CycleLog]:
    """Run the augmentation loop once per split of table, returning one log
    per cycle, split by split.

    splits are (train, validation, test) row-index triples of table, one per
    repeat, as evaluation.split_indices gives them; table's delta is the
    gold target. The pool must be disjoint from table, and each split's training
    rows from its test rows. A split's evaluation set is its test rows for
    every cycle. Repeat r's random picks in cycle c are drawn from
    SeedSequence([s, c]), s being SeedSequence([config.seed, r])'s first
    state word. Fully deterministic given (splits, config) for deterministic
    model families.
    """
    pool = config.pool
    overlap = set(table.posts.post_ids).intersection(pool.post_ids)
    if overlap:
        raise AugmentationError(f"pool overlaps gold splits on {sorted(overlap)[:5]}")
    for train_rows, _, test_rows in splits:
        if np.intersect1d(train_rows, test_rows).size:
            raise AugmentationError("train set leaked into the test split")
    # every text split once for all splits; each set of texts is a take of these rows, sharing their words
    texts = tokenize(table.posts.target_texts + pool.target_texts, config.train_config.features)
    pool_first, delta = len(table), table.delta
    if config.single_shot:
        plan = [config.k_per_cycle * config.n_cycles]
    else:
        plan = [config.k_per_cycle] * config.n_cycles
    logs: list[CycleLog] = []
    for repeat, (train_rows, validation_rows, test_rows) in enumerate(splits):
        seed = int(np.random.SeedSequence([config.seed, repeat]).generate_state(1)[0])
        remaining = np.arange(len(pool))  # pool rows not yet selected, in pool order
        train_targets = delta[train_rows].tolist()
        validation = (texts.take(validation_rows), delta[validation_rows])
        test_texts, test_targets = texts.take(test_rows), delta[test_rows]
        model = train(config.family, texts.take(train_rows), train_targets, validation, config.train_config)
        try:
            for cycle, k in enumerate(plan):
                started = time.perf_counter()
                left = pool.take(remaining)
                if config.selection == SELECTION_TEACHER_TOP_K:
                    silver = model.predict_batch(texts.take(pool_first + remaining))
                    chosen = select_top_k(left.post_ids, silver, k)
                else:  # only the picks are scored
                    rng = np.random.default_rng(np.random.SeedSequence([seed, cycle]))
                    chosen, silver = np.sort(rng.choice(len(left), size=k, replace=False)), np.zeros(len(left))
                    silver[chosen] = model.predict_batch(texts.take(pool_first + remaining[chosen]))
                picked = np.sort(chosen)  # training rows join in pool order
                train_rows = np.concatenate([train_rows, pool_first + remaining[picked]])
                train_targets += silver[picked].tolist()
                remaining = np.delete(remaining, chosen)

                model.close()  # the teacher is let go before its student trains
                model = None
                model = train(config.family, texts.take(train_rows), train_targets, validation, config.train_config)
                predictions = model.predict_batch(test_texts)
                scores = silver[chosen].tolist()
                logs.append(
                    CycleLog(
                        repeat=repeat,
                        cycle=cycle,
                        selected_post_ids=left.take(chosen).post_ids,
                        selected_silver_scores=tuple(scores),
                        silver_min=min(scores),
                        silver_mean=float(np.mean(scores)),
                        silver_max=max(scores),
                        student_mse=mse(predictions, test_targets),
                        student_mae=mae(predictions, test_targets),
                        n_test=len(test_texts),
                        train_size=len(train_rows),
                        pool_size=len(remaining),
                        wall_clock_seconds=time.perf_counter() - started,
                    )
                )
        finally:  # on an error too, no model is left holding a scorer open
            if model is not None:
                model.close()
    return logs
