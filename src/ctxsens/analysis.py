"""Parent-utility summaries and the paired bootstrap."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import SensitivityTable
from .corpus import AnnotationTable

DIRECTION_A_GREATER = "a_greater"
DIRECTION_B_GREATER = "b_greater"


@dataclass(frozen=True)
class ParentUtilityPoint:
    t: float
    fraction_helpful: float | None  # None when no post clears the threshold
    n: int


def parent_utility(
    ic_records: AnnotationTable,
    table: SensitivityTable,
    thresholds: Sequence[float],
) -> tuple[list[ParentUtilityPoint], list[str]]:
    """Fraction of posts whose voting raters strictly-majority found the
    parent helpful, among posts with |delta| >= t.

    Posts whose raters cast no helpful/unhelpful votes count as
    not-helpful-majority and are returned as the flagged id list.
    """
    votes = ic_records.counts(ic_records.helpful + 1, 3)  # columns: null, unhelpful, helpful
    yes, cast = votes[:, 2].tolist(), (votes[:, 1] + votes[:, 2]).tolist()
    row_of = {post_id: i for i, post_id in enumerate(ic_records.post_ids)}
    rows = [row_of.get(post_id) for post_id in table.posts.post_ids]
    zero_vote_ids = [post_id for post_id, i in zip(table.posts.post_ids, rows) if i is None or cast[i] == 0]
    helpful = np.array([i is not None and 2 * yes[i] > cast[i] for i in rows], dtype=bool)
    spread = np.abs(table.delta)
    points = []
    for t in thresholds:
        above = spread >= t
        n = int(np.count_nonzero(above))
        fraction = int(np.count_nonzero(helpful & above)) / n if n else None
        points.append(ParentUtilityPoint(t=t, fraction_helpful=fraction, n=n))
    return points, zero_vote_ids


@dataclass(frozen=True)
class BootstrapResult:
    n_resamples: int
    resample_size: int
    observed_a: float
    observed_b: float
    p_value: float
    direction: str
    seed: int


def paired_bootstrap(
    group_a: Sequence[bool],
    group_b: Sequence[bool],
    resample_size: int = 100,
    n_resamples: int = 1000,
    seed: int = 0,
    direction: str = DIRECTION_A_GREATER,
) -> BootstrapResult:
    """Two-proportion paired bootstrap (one-sided).

    Each resample draws resample_size items from each group independently,
    with replacement, and compares the two proportions. The p-value is the
    fraction of resamples violating the hypothesized direction, with ties
    contributing one half, so p(a greater) + p(b greater) = 1.

    A resample's count of true items from a group with k of n true is exactly
    Binomial(resample_size, k/n), so each group's counts are one binomial
    draw per resample; at equal sizes, comparing counts compares proportions.
    """
    if direction not in (DIRECTION_A_GREATER, DIRECTION_B_GREATER):
        raise ValueError(f"unknown direction {direction!r}")
    if len(group_a) == 0 or len(group_b) == 0:
        raise ValueError("both groups must be nonempty")
    if resample_size < 1:
        raise ValueError("resample_size must be >= 1")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if resample_size > min(len(group_a), len(group_b)):
        raise ValueError(
            f"resample_size {resample_size} exceeds a group size "
            f"({len(group_a)} and {len(group_b)})"
        )
    a = np.asarray(group_a, dtype=bool)
    b = np.asarray(group_b, dtype=bool)

    rng = np.random.default_rng(seed)
    count_a = rng.binomial(resample_size, a.mean(), n_resamples)
    count_b = rng.binomial(resample_size, b.mean(), n_resamples)
    losses = count_a < count_b if direction == DIRECTION_A_GREATER else count_b < count_a
    violations = np.count_nonzero(losses) + 0.5 * np.count_nonzero(count_a == count_b)
    return BootstrapResult(
        n_resamples=n_resamples,
        resample_size=resample_size,
        observed_a=float(a.mean()),
        observed_b=float(b.mean()),
        p_value=float(violations / n_resamples),
        direction=direction,
        seed=seed,
    )
