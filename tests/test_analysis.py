import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens.analysis import (
    DIRECTION_A_GREATER,
    DIRECTION_B_GREATER,
    paired_bootstrap,
    parent_utility,
)
from ctxsens.corpus import Condition, Label

from helpers import annotation_table, record_with_delta, sensitivity_table
from oracles import exact_bootstrap_p, per_resample_bootstrap_p


def deltas_table(*deltas):
    return sensitivity_table(record_with_delta(d, f"p{i}") for i, d in enumerate(deltas))


# --- parent utility ------------------------------------------------------------------


def ic_table(votes: dict[str, list[bool | None]]):
    """An in-context table with one toxic label per vote."""
    return annotation_table(Condition.IN_CONTEXT, [(pid, [Label.TOXIC] * len(h), h) for pid, h in votes.items()])


def test_majority_helpful_vote():
    table = deltas_table(0.5)
    ic = ic_table({"p0": [True, True, False]})
    points, flagged = parent_utility(ic, table, [0.0])
    assert points[0].fraction_helpful == 1.0
    assert flagged == []


def test_tied_vote_is_not_a_strict_majority():
    table = deltas_table(0.5)
    ic = ic_table({"p0": [True, False]})
    points, _ = parent_utility(ic, table, [0.0])
    assert points[0].fraction_helpful == 0.0


def test_threshold_beyond_max_delta_reports_null():
    table = deltas_table(0.3)
    ic = ic_table({"p0": [True, True]})
    points, _ = parent_utility(ic, table, [0.9])
    assert points[0].fraction_helpful is None
    assert points[0].n == 0


def test_zero_vote_posts_flagged_and_counted_unhelpful():
    table = deltas_table(0.5, 0.5)
    ic = ic_table({"p0": [None, None], "p1": [True, True, False]})
    points, flagged = parent_utility(ic, table, [0.0])
    assert flagged == ["p0"]
    assert points[0].fraction_helpful == 0.5


def test_utility_fraction_over_threshold_subsets():
    table = deltas_table(0.8, 0.2, 0.0)
    ic = ic_table({"p0": [True, True], "p1": [False, False], "p2": [True, True]})
    points, _ = parent_utility(ic, table, [0.0, 0.5])
    assert points[0].fraction_helpful == pytest.approx(2 / 3)
    assert points[1].fraction_helpful == pytest.approx(1.0)


# --- paired bootstrap -------------------------------------------------------------------


def test_separated_groups_give_zero_p_value():
    result = paired_bootstrap([True] * 30, [False] * 30, resample_size=20, n_resamples=200, seed=0)
    assert result.p_value == 0.0
    assert result.observed_a == 1.0 and result.observed_b == 0.0


def test_identical_groups_give_centered_p_value():
    rng = np.random.default_rng(1)
    group = (rng.random(250) < 0.3).tolist()
    result = paired_bootstrap(group, list(group), resample_size=100, n_resamples=1000, seed=5)
    assert 0.40 <= result.p_value <= 0.60


def test_bootstrap_deterministic_under_seed():
    rng = np.random.default_rng(2)
    a = (rng.random(80) < 0.5).tolist()
    b = (rng.random(80) < 0.4).tolist()
    first = paired_bootstrap(a, b, resample_size=40, n_resamples=300, seed=9)
    second = paired_bootstrap(a, b, resample_size=40, n_resamples=300, seed=9)
    assert first == second


def test_resample_size_validated():
    with pytest.raises(ValueError, match="resample_size"):
        paired_bootstrap([True] * 5, [False] * 5, resample_size=6)


def test_empty_group_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        paired_bootstrap([], [True])


def test_resample_count_validated():
    with pytest.raises(ValueError, match="n_resamples"):
        paired_bootstrap([True] * 5, [False] * 5, resample_size=2, n_resamples=0)


def _within_sampling_error(estimate: float, exact: float, n_resamples: int) -> bool:
    """Five binomial standard errors, plus five resamples' worth of slack: near
    p = 0 or 1 the count of violations is Poisson-like, not normal."""
    variance = max(exact * (1 - exact), 0.0)  # exact may stray past 1 by a rounding error
    return abs(estimate - exact) <= 5 * math.sqrt(variance / n_resamples) + 5 / n_resamples


def _group(n_true: int, n: int) -> list[bool]:
    return [True] * n_true + [False] * (n - n_true)


@pytest.mark.property
@given(st.integers(0, 2**32 - 1))
def test_bootstrap_estimates_the_exact_p_value(seed):
    rng = np.random.default_rng([0, seed])  # not the bootstrap's own stream
    n_a, n_b = rng.integers(1, 31, 2).tolist()
    group_a, group_b = _group(int(rng.integers(0, n_a + 1)), n_a), _group(int(rng.integers(0, n_b + 1)), n_b)
    size = int(rng.integers(1, min(n_a, n_b) + 1))
    direction = (DIRECTION_A_GREATER, DIRECTION_B_GREATER)[seed % 2]
    result = paired_bootstrap(group_a, group_b, resample_size=size, n_resamples=1000, seed=seed, direction=direction)
    exact = exact_bootstrap_p(group_a, group_b, size, direction)
    assert _within_sampling_error(result.p_value, exact, 1000), (result.p_value, exact)


def test_per_resample_bootstrap_estimates_the_same_exact_p_value():
    # the former gather-per-resample loop and the binomial counts estimate one p
    for n_true_a, n_a, n_true_b, n_b, size, direction in [
        (9, 20, 11, 20, 10, DIRECTION_A_GREATER),
        (3, 12, 8, 15, 12, DIRECTION_B_GREATER),
        (5, 5, 0, 7, 5, DIRECTION_A_GREATER),
        (7, 25, 7, 25, 20, DIRECTION_B_GREATER),
    ]:
        group_a, group_b = _group(n_true_a, n_a), _group(n_true_b, n_b)
        exact = exact_bootstrap_p(group_a, group_b, size, direction)
        old = per_resample_bootstrap_p(group_a, group_b, size, 1000, seed=3, direction=direction)
        assert _within_sampling_error(old, exact, 1000), (old, exact)
    group = _group(7, 25)
    assert exact_bootstrap_p(group, group, 20, DIRECTION_A_GREATER) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.property
@given(st.integers(0, 2_000))
def test_directional_p_values_are_complementary(seed):
    rng = np.random.default_rng(seed)
    a = (rng.random(40) < 0.45).tolist()
    b = (rng.random(40) < 0.55).tolist()
    p_ab = paired_bootstrap(a, b, resample_size=20, n_resamples=100, seed=seed).p_value
    p_ba = paired_bootstrap(
        a, b, resample_size=20, n_resamples=100, seed=seed, direction=DIRECTION_B_GREATER
    ).p_value
    assert p_ab + p_ba == pytest.approx(1.0, abs=1e-12)
