import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens.aggregation import (
    AgreementReport,
    SensitivityRecord,
    ToxicityScore,
    agreement,
    aggregate_scores,
    binarize_toxicity,
    binarized_unchanged_fraction,
    collapse_binary,
    compute_sensitivities,
    count_sensitive,
    delta_buckets,
    load_examples,
    save_examples,
    sensitivity,
    sensitivity_histogram,
)
from ctxsens.corpus import Condition, Label

from helpers import annotation_table, record_with_delta, score_of, synthetic_bundle

IC, OC = Condition.IN_CONTEXT, Condition.OUT_OF_CONTEXT


def records(*rows, condition=IC):
    """A table of (post_id, labels) rows."""
    return annotation_table(condition, [(post_id, labels, None) for post_id, labels in rows])


def aggregate_score(labels):
    """The score of a one-record table."""
    (score,) = aggregate_scores(records(("p", labels)))
    return score


# --- aggregate_scores ---------------------------------------------------------


def test_both_toxic_grades_unify():
    score = aggregate_score([Label.TOXIC, Label.VERY_TOXIC, Label.NON_TOXIC, Label.NON_TOXIC, Label.NON_TOXIC])
    assert score.value == pytest.approx(0.4)
    assert score.n_raters == 5


def test_any_unsure_judgment_excludes():
    assert aggregate_score([Label.NON_TOXIC, Label.UNSURE, Label.TOXIC]) is None


def test_unanimous_non_toxic_has_zero_sem():
    score = aggregate_score([Label.NON_TOXIC] * 10)
    assert score.value == 0.0
    assert score.sem == 0.0
    assert score.n_raters == 10


@pytest.mark.property
@given(st.lists(st.sampled_from([Label.NON_TOXIC, Label.TOXIC, Label.VERY_TOXIC]), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_aggregate_score_permutation_invariant(labels, rnd):
    shuffled = list(labels)
    rnd.shuffle(shuffled)
    a = aggregate_score(labels)
    b = aggregate_score(shuffled)
    assert a == b


def test_sem_formula_is_sample_variance_based():
    # 3 of 5 toxic: sem = sqrt(0.6 * 0.4 / 4)
    score = aggregate_score([Label.TOXIC] * 3 + [Label.NON_TOXIC] * 2)
    assert score.sem == pytest.approx(math.sqrt(0.6 * 0.4 / 4))
    assert aggregate_score([Label.TOXIC]).sem == 0.0  # a single rater


# --- ToxicityScore invariants ---------------------------------------------------


def test_score_value_must_be_count_fraction():
    with pytest.raises(ValueError, match="count fraction"):
        ToxicityScore(value=0.3333, n_raters=5, sem=0.1)


def test_score_bounds_checked():
    with pytest.raises(ValueError):
        ToxicityScore(value=1.2, n_raters=5, sem=0.0)
    with pytest.raises(ValueError, match="unanimity"):
        ToxicityScore(value=1.0, n_raters=5, sem=0.1)


# --- sensitivity ----------------------------------------------------------------


def test_positive_delta_example():
    rec = sensitivity("p", score_of(0.70, 10), score_of(0.0, 5))
    assert rec.delta == pytest.approx(0.70)
    assert rec.is_sensitive


def test_negative_delta_example():
    rec = sensitivity("p", score_of(0.366, 500), score_of(0.80, 5))
    assert rec.delta == pytest.approx(-0.434)
    assert rec.delta == rec.s_oc.value - rec.s_ic.value


def test_identity_scores_are_insensitive():
    s = score_of(0.5, 10)
    rec = sensitivity("p", s, s)
    assert rec.delta == 0.0
    assert not rec.is_sensitive


def test_threshold_is_sum_of_sems():
    s_oc, s_ic = score_of(0.4, 5), score_of(0.2, 5)
    rec = sensitivity("p", s_oc, s_ic)
    assert rec.threshold == s_oc.sem + s_ic.sem


def test_strict_inequality_at_threshold():
    # delta 0.2 with threshold exactly |delta| would not be sensitive
    s_oc, s_ic = score_of(0.2, 1000), score_of(0.0, 5)
    rec = sensitivity("p", s_oc, s_ic)
    assert rec.is_sensitive == (abs(rec.delta) > rec.threshold)


def test_record_invariants_enforced():
    s = score_of(0.5, 10)
    with pytest.raises(ValueError, match="delta"):
        SensitivityRecord("p", s, s, delta=0.1, threshold=0.0, is_sensitive=True)
    with pytest.raises(ValueError, match="is_sensitive"):
        SensitivityRecord("p", s, s, delta=0.0, threshold=0.1, is_sensitive=True)


@pytest.mark.property
@given(st.integers(-1000, 1000).map(lambda k: k / 1000))
def test_sensitivity_of_equal_scores_is_zero(delta):
    s = score_of(abs(delta), 1000)
    assert sensitivity("p", s, s).delta == 0.0


# --- histogram and counting -------------------------------------------------------


def test_histogram_binning_example():
    records = [record_with_delta(0.0, "a"), record_with_delta(0.0, "b"), record_with_delta(0.5, "c")]
    hist = sensitivity_histogram(records, bins=4)
    assert hist.counts == (0, 0, 2, 1)
    assert hist.edges == (-1.0, -0.5, 0.0, 0.5, 1.0)


def test_histogram_empty_records_is_not_an_error():
    hist = sensitivity_histogram([], bins=4)
    assert sum(hist.counts) == 0


def test_histogram_all_zero_deltas_in_one_bin():
    records = [record_with_delta(0.0, f"p{i}") for i in range(7)]
    hist = sensitivity_histogram(records, bins=5)
    assert max(hist.counts) == 7
    assert sum(hist.counts) == 7


def test_count_sensitive_examples():
    records = [record_with_delta(d, f"p{i}") for i, d in enumerate((0.1, -0.3, 0.7))]
    assert count_sensitive(records, 0.0) == 3
    assert count_sensitive(records, 0.3) == 2
    assert count_sensitive(records, 0.71) == 0


@pytest.mark.property
@given(
    st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000), min_size=0, max_size=30),
    st.integers(1, 40),
)
def test_histogram_counts_conserve_mass(deltas, bins):
    records = [record_with_delta(d, f"p{i}") for i, d in enumerate(deltas)]
    hist = sensitivity_histogram(records, bins)
    assert sum(hist.counts) == count_sensitive(records, 0.0) == len(records)


@pytest.mark.property
@given(
    st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000), min_size=0, max_size=30),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_count_sensitive_antitone(deltas, t1, t2):
    records = [record_with_delta(d, f"p{i}") for i, d in enumerate(deltas)]
    lo, hi = min(t1, t2), max(t1, t2)
    assert count_sensitive(records, hi) <= count_sensitive(records, lo)


def test_delta_buckets():
    deltas = [0.0, 0.0, 0.0, -0.2, 0.4, 0.6]
    buckets = delta_buckets(deltas)
    assert buckets.unchanged == pytest.approx(0.5)
    assert buckets.increased == pytest.approx(1 / 6)  # negative delta
    assert buckets.decreased == pytest.approx(2 / 6)


# --- binarization ------------------------------------------------------------------


def test_binarize_examples():
    assert binarize_toxicity(score_of(0.8, 5)) is True
    assert binarize_toxicity(score_of(0.0, 5)) is False
    assert binarize_toxicity(score_of(0.5, 2)) is False  # tie is conservative


def test_binarized_unchanged_fraction():
    pairs = [(0.8, 0.6), (0.2, 0.8), (0.0, 0.0), (0.5, 0.6)]
    assert binarized_unchanged_fraction(pairs) == pytest.approx(0.5)


# --- agreement ----------------------------------------------------------------------


def test_perfect_agreement_gives_kappa_one():
    report = agreement(records(("a", [Label.TOXIC] * 3), ("b", [Label.NON_TOXIC] * 3)))
    assert report.free_marginal_kappa == pytest.approx(1.0)
    assert report.mean_pairwise_agreement == pytest.approx(1.0)


def test_two_category_hand_computation():
    # 2 raters, 2 items, k=2: one agreeing item, one disagreeing item
    # P_o = (1 + 0) / 2 = 0.5 and kappa = (0.5 - 1/2) / (1 - 1/2) = 0
    table = records(("agree", [Label.TOXIC, Label.TOXIC]), ("disagree", [Label.TOXIC, Label.NON_TOXIC]))
    report = agreement(table, n_categories=2)
    assert report.mean_pairwise_agreement == pytest.approx(0.5)
    assert report.free_marginal_kappa == pytest.approx(0.0)


def test_binary_collapse_key():
    report = agreement(records(("a", [Label.TOXIC, Label.VERY_TOXIC])), n_categories=2, label_key=collapse_binary)
    assert report.free_marginal_kappa == pytest.approx(1.0)


def test_agreement_rejects_single_judgment():
    with pytest.raises(ValueError, match=">= 2"):
        agreement(records(("p", [Label.TOXIC])))


def test_agreement_kappa_can_be_negative():
    report = agreement(records(*[(f"p{i}", [Label.TOXIC, Label.NON_TOXIC]) for i in range(3)]), n_categories=2)
    assert report.free_marginal_kappa == pytest.approx(-1.0)


@pytest.mark.property
@given(st.lists(st.lists(st.sampled_from(list(Label)), min_size=2, max_size=6), min_size=1, max_size=10),
       st.randoms(use_true_random=False))
def test_agreement_item_order_invariance(label_lists, rnd):
    rows = [(f"p{i}", labels) for i, labels in enumerate(label_lists)]
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert agreement(records(*rows)) == agreement(records(*shuffled))


# --- bundle aggregation and persistence ------------------------------------------------


def test_compute_sensitivities_excludes_unsure_and_unpaired():
    bundle = synthetic_bundle(n_posts=12, seed=3)
    examples, excluded = compute_sensitivities(bundle)
    assert len(examples) + len(excluded) == 12
    for ex in examples:
        assert ex.record.delta == ex.record.s_oc.value - ex.record.s_ic.value


def test_examples_round_trip(tmp_path):
    examples, _ = compute_sensitivities(synthetic_bundle(n_posts=10, seed=1))
    path = tmp_path / "sensitivity.jsonl"
    save_examples(examples, path)
    assert load_examples(path) == examples


def test_load_examples_rejects_duplicate_post_ids(tmp_path):
    examples, _ = compute_sensitivities(synthetic_bundle(n_posts=10, seed=1))
    path = tmp_path / "sensitivity.jsonl"
    save_examples(examples + examples[3:4], path)
    with pytest.raises(ValueError, match=f"duplicate post_id '{examples[3].post.post_id}'"):
        load_examples(path)
