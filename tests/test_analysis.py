import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens.analysis import (
    DIRECTION_A_GREATER,
    DIRECTION_B_GREATER,
    paired_bootstrap,
    parent_utility,
    class_ratio,
)
from ctxsens.corpus import Condition, Label

from helpers import annotation_table, record_with_delta


def records_with_ratio(n_sensitive: int, n_total: int):
    records = []
    for i in range(n_total):
        delta = 0.9 if i < n_sensitive else 0.0
        records.append(record_with_delta(delta, f"p{i:04d}"))
    return records


# --- class ratio -------------------------------------------------------------------


def test_class_ratio_matches_reported_fractions():
    assert class_ratio(records_with_ratio(99, 250)) == pytest.approx(0.396)
    assert class_ratio(records_with_ratio(43, 250)) == pytest.approx(0.172)


def test_class_ratio_all_insensitive_is_zero():
    assert class_ratio(records_with_ratio(0, 10)) == 0.0


def test_class_ratio_empty_is_an_error():
    with pytest.raises(ValueError):
        class_ratio([])


@pytest.mark.property
@given(st.lists(st.booleans(), min_size=1, max_size=50), st.randoms(use_true_random=False))
def test_class_ratio_in_unit_interval_and_permutation_invariant(flags, rnd):
    records = [record_with_delta(0.9 if f else 0.0, f"p{i}") for i, f in enumerate(flags)]
    value = class_ratio(records)
    assert 0.0 <= value <= 1.0
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert class_ratio(shuffled) == value


# --- parent utility ------------------------------------------------------------------


def ic_table(votes: dict[str, list[bool | None]]):
    """An in-context table with one toxic label per vote."""
    return annotation_table(Condition.IN_CONTEXT, [(pid, [Label.TOXIC] * len(h), h) for pid, h in votes.items()])


def test_majority_helpful_vote():
    records = [record_with_delta(0.5, "p0")]
    ic = ic_table({"p0": [True, True, False]})
    points, flagged = parent_utility(ic, records, [0.0])
    assert points[0].fraction_helpful == 1.0
    assert flagged == []


def test_tied_vote_is_not_a_strict_majority():
    records = [record_with_delta(0.5, "p0")]
    ic = ic_table({"p0": [True, False]})
    points, _ = parent_utility(ic, records, [0.0])
    assert points[0].fraction_helpful == 0.0


def test_threshold_beyond_max_delta_reports_null():
    records = [record_with_delta(0.3, "p0")]
    ic = ic_table({"p0": [True, True]})
    points, _ = parent_utility(ic, records, [0.9])
    assert points[0].fraction_helpful is None
    assert points[0].n == 0


def test_zero_vote_posts_flagged_and_counted_unhelpful():
    records = [record_with_delta(0.5, "p0"), record_with_delta(0.5, "p1")]
    ic = ic_table({"p0": [None, None], "p1": [True, True, False]})
    points, flagged = parent_utility(ic, records, [0.0])
    assert flagged == ["p0"]
    assert points[0].fraction_helpful == 0.5


def test_utility_fraction_over_threshold_subsets():
    records = [record_with_delta(d, f"p{i}") for i, d in enumerate((0.8, 0.2, 0.0))]
    ic = ic_table({"p0": [True, True], "p1": [False, False], "p2": [True, True]})
    points, _ = parent_utility(ic, records, [0.0, 0.5])
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
