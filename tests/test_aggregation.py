import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens.aggregation import (
    AgreementReport,
    SensitivityTable,
    agreement,
    aggregate_scores,
    binarized_unchanged_fraction,
    collapse_binary,
    compute_sensitivities,
    count_sensitive,
    delta_buckets,
    load_examples,
    save_examples,
    sensitivity_histogram,
)
from ctxsens.corpus import Condition, DatasetBundle, Label

from helpers import (
    annotation_table,
    post_table,
    record_with_delta,
    score_of,
    sensitivity_table,
    synthetic_bundle,
    table_rows,
)

IC, OC = Condition.IN_CONTEXT, Condition.OUT_OF_CONTEXT


def records(*rows, condition=IC):
    """A table of (post_id, labels) rows."""
    return annotation_table(condition, [(post_id, labels, None) for post_id, labels in rows])


def aggregate_score(labels):
    """The (value, n_raters, sem) of a one-record table; None if it is excluded."""
    value, n_raters, sem, excluded = (column.item() for column in aggregate_scores(records(("p", labels))))
    return None if excluded else (value, n_raters, sem)


def one_post(s_oc, s_ic) -> SensitivityTable:
    return sensitivity_table([("p", "text", None, s_oc, s_ic)])


# --- aggregate_scores ---------------------------------------------------------


def test_both_toxic_grades_unify():
    value, n_raters, _ = aggregate_score([Label.TOXIC, Label.VERY_TOXIC, Label.NON_TOXIC, Label.NON_TOXIC, Label.NON_TOXIC])
    assert value == pytest.approx(0.4)
    assert n_raters == 5


def test_any_unsure_judgment_excludes():
    assert aggregate_score([Label.NON_TOXIC, Label.UNSURE, Label.TOXIC]) is None


def test_unanimous_non_toxic_has_zero_sem():
    assert aggregate_score([Label.NON_TOXIC] * 10) == (0.0, 10, 0.0)


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
    _, _, sem = aggregate_score([Label.TOXIC] * 3 + [Label.NON_TOXIC] * 2)
    assert sem == pytest.approx(math.sqrt(0.6 * 0.4 / 4))
    assert aggregate_score([Label.TOXIC])[2] == 0.0  # a single rater


# --- the sensitivity file's invariants --------------------------------------------------


def rejection(tmp_path, edit) -> tuple[str, str]:
    """(expected prefix, message) of load_examples on a three-row file whose
    second row is edited; the prefix is path:2."""
    path = tmp_path / "sensitivity.jsonl"
    sensitive = ("b", "text b", "parent", score_of(0.8, 5), score_of(0.0, 5))
    rows = [record_with_delta(0.2, "a"), sensitive, record_with_delta(-0.3, "c")]
    save_examples(sensitivity_table(rows), path)
    objs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    edited = edit(objs[1])
    path.write_text("".join(json.dumps(obj) + "\n" for obj in (objs[0], edited, objs[2])), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_examples(path)
    return f"{path}:2: ", str(info.value)


def with_score(condition, **fields):
    return lambda row: {**row, condition: {**row[condition], **fields}}


def with_fields(**fields):
    return lambda row: {**row, **fields}


def assert_rejected(tmp_path, edit, message):
    prefix, error = rejection(tmp_path, edit)
    assert error == prefix + message


def test_score_value_must_be_count_fraction(tmp_path):
    assert_rejected(tmp_path, with_score("s_oc", value=0.3333), "value 0.3333 is not a count fraction of 5 raters")


def test_score_bounds_checked(tmp_path):
    assert_rejected(tmp_path, with_score("s_ic", value=1.2), "value 1.2 outside [0, 1]")
    assert_rejected(tmp_path, with_score("s_oc", value=1, sem=0.1), "sem must be 0 at unanimity")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: [1, 2], "each line must be a JSON object"),
        (lambda row: "{", None),
        (with_fields(post_id=5), "field 'post_id' must be a string, got int"),
        (with_fields(target_text=None), "field 'target_text' must be a string, got null"),
        (with_fields(parent_text=1), "field 'parent_text' must be a string or null, got int"),
        (with_fields(s_oc=[0.6]), "field 's_oc' must be an object, got list"),
        (with_fields(delta="0.4"), "field 'delta' must be a number, got str"),
        (with_fields(is_sensitive=1), "field 'is_sensitive' must be true or false, got int"),
        (with_score("s_ic", n_raters=5.0), "field 'n_raters' must be an integer, got float"),
        (with_score("s_ic", sem=None), "field 'sem' must be a number, got null"),
        (with_fields(post_id=""), "post_id must be nonempty"),
        (with_fields(target_text=" "), "post 'b': target_text is blank"),
        (with_fields(post_id="a"), "duplicate post_id 'a'"),
        (with_score("s_oc", n_raters=0), "n_raters must be positive"),
        (with_score("s_oc", n_raters=2**63), f"n_raters {2**63} exceeds {2**63 - 1}"),
        (with_score("s_oc", sem=-0.1), "sem must be >= 0"),
        (with_fields(threshold=-0.1), "threshold must be >= 0"),
        (with_fields(threshold=0.5), "threshold must equal s_oc.sem + s_ic.sem exactly"),
    ],
    ids=[
        "not an object", "not JSON", "post_id type", "target_text type", "parent_text type", "score type",
        "delta type", "is_sensitive type", "n_raters type", "sem type", "empty post_id", "blank text",
        "duplicate id", "no raters", "too many raters", "negative sem", "negative threshold", "threshold not the SEM sum",
    ],
)
def test_load_examples_names_path_line_and_message(tmp_path, edit, message):
    if message is None:  # a line that is no JSON at all: the decoder's own message
        path = tmp_path / "sensitivity.jsonl"
        path.write_text("{\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{path}:1: Expecting property name"):
            load_examples(path)
        return
    assert_rejected(tmp_path, edit, message)


# --- sensitivity ----------------------------------------------------------------


def test_positive_delta_example():
    table = one_post(score_of(0.70, 10), score_of(0.0, 5))
    assert table.delta[0] == pytest.approx(0.70)
    assert table.is_sensitive[0]


def test_negative_delta_example():
    table = one_post(score_of(0.366, 500), score_of(0.80, 5))
    assert table.delta[0] == pytest.approx(-0.434)
    assert table.delta[0] == table.oc_value[0] - table.ic_value[0]


def test_identity_scores_are_insensitive():
    s = score_of(0.5, 10)
    table = one_post(s, s)
    assert table.delta[0] == 0.0
    assert not table.is_sensitive[0]


def test_threshold_is_sum_of_sems():
    s_oc, s_ic = score_of(0.4, 5), score_of(0.2, 5)
    assert one_post(s_oc, s_ic).threshold[0] == s_oc[2] + s_ic[2]
    # from judgments: 2 of 5 toxic out of context, 1 of 5 in context
    bundle = DatasetBundle(
        post_table([("p", "text")]),
        records(("p", [Label.TOXIC] + [Label.NON_TOXIC] * 4)),
        records(("p", [Label.TOXIC] * 2 + [Label.NON_TOXIC] * 3), condition=OC),
    )
    table, _ = compute_sensitivities(bundle)
    assert table.threshold[0] == table.oc_sem[0] + table.ic_sem[0] == math.sqrt(0.24 / 4) + math.sqrt(0.16 / 4)


def test_strict_inequality_at_threshold(tmp_path):
    # 1 of 2 raters toxic out of context, none in context: |delta| = 0.5 = sem = threshold
    bundle = DatasetBundle(
        post_table([("tie", "text"), ("over", "text")]),
        records(("tie", [Label.NON_TOXIC] * 5), ("over", [Label.NON_TOXIC] * 5)),
        records(
            ("tie", [Label.TOXIC, Label.NON_TOXIC]), ("over", [Label.TOXIC, Label.TOXIC, Label.NON_TOXIC]), condition=OC
        ),
    )
    table, _ = compute_sensitivities(bundle)
    assert table.delta[0] == table.threshold[0] == 0.5
    assert table.is_sensitive.tolist() == [False, True]
    # a file claiming the tie is sensitive is rejected
    path = tmp_path / "sensitivity.jsonl"
    save_examples(table, path)
    row = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    path.write_text(json.dumps({**row, "is_sensitive": True}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{path}:1: is_sensitive must equal \|delta\| > threshold$"):
        load_examples(path)


def test_record_invariants_enforced(tmp_path):
    assert_rejected(tmp_path, with_fields(delta=0.1), "delta must equal s_oc.value - s_ic.value exactly")
    assert_rejected(tmp_path, with_fields(is_sensitive=False), "is_sensitive must equal |delta| > threshold")


@pytest.mark.property
@given(st.integers(-1000, 1000).map(lambda k: k / 1000))
def test_sensitivity_of_equal_scores_is_zero(delta):
    s = score_of(abs(delta), 1000)
    table = one_post(s, s)
    assert table.delta[0] == 0.0 and not table.is_sensitive[0]


def test_table_take_and_read_only_columns():
    table = sensitivity_table(record_with_delta(d, f"p{i}", f"text {i}") for i, d in enumerate((0.1, -0.3, 0.7)))
    part = table.take([2, 0])
    assert part.posts.post_ids == ("p2", "p0") and part.posts.target_texts == ("text 2", "text 0")
    assert table_rows(part) == [table_rows(table)[2], table_rows(table)[0]]
    assert len(table.take([])) == 0
    with pytest.raises(ValueError):
        table.oc_value[0] = 0.5
    with pytest.raises(ValueError, match="length"):
        SensitivityTable(post_table([("p", "text")]), [0.1, 0.2], [5], [0.1], [0.0], [5], [0.0])


# --- histogram and counting -------------------------------------------------------


def test_histogram_binning_example():
    hist = sensitivity_histogram([0.0, 0.0, 0.5], bins=4)
    assert hist.counts == (0, 0, 2, 1)
    assert hist.edges == (-1.0, -0.5, 0.0, 0.5, 1.0)


def test_histogram_empty_records_is_not_an_error():
    hist = sensitivity_histogram([], bins=4)
    assert sum(hist.counts) == 0


def test_histogram_all_zero_deltas_in_one_bin():
    hist = sensitivity_histogram(np.zeros(7), bins=5)
    assert max(hist.counts) == 7
    assert sum(hist.counts) == 7


def test_count_sensitive_examples():
    deltas = sensitivity_table(record_with_delta(d, f"p{i}") for i, d in enumerate((0.1, -0.3, 0.7))).delta
    assert count_sensitive(deltas, 0.0) == 3
    assert count_sensitive(deltas, 0.3) == 2
    assert count_sensitive(deltas, 0.71) == 0


@pytest.mark.property
@given(
    st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000), min_size=0, max_size=30),
    st.integers(1, 40),
)
def test_histogram_counts_conserve_mass(deltas, bins):
    hist = sensitivity_histogram(deltas, bins)
    assert sum(hist.counts) == count_sensitive(deltas, 0.0) == len(deltas)


@pytest.mark.property
@given(
    st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000), min_size=0, max_size=30),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_count_sensitive_antitone(deltas, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert count_sensitive(deltas, hi) <= count_sensitive(deltas, lo)


def test_delta_buckets():
    deltas = [0.0, 0.0, 0.0, -0.2, 0.4, 0.6]
    buckets = delta_buckets(deltas)
    assert buckets.unchanged == pytest.approx(0.5)
    assert buckets.increased == pytest.approx(1 / 6)  # negative delta
    assert buckets.decreased == pytest.approx(2 / 6)


# --- binarization ------------------------------------------------------------------


def test_binarize_examples():
    # a score is toxic above 0.5; a tie at 0.5 is non-toxic (conservative)
    assert binarized_unchanged_fraction([0.8], [0.6]) == 1.0
    assert binarized_unchanged_fraction([0.0], [0.8]) == 0.0
    assert binarized_unchanged_fraction([0.5, 0.5], [0.0, 0.6]) == 0.5
    with pytest.raises(ValueError):
        binarized_unchanged_fraction([], [])


def test_binarized_unchanged_fraction():
    s_oc, s_ic = [0.8, 0.2, 0.0, 0.5], [0.6, 0.8, 0.0, 0.6]
    assert binarized_unchanged_fraction(s_oc, s_ic) == pytest.approx(0.5)
    assert binarized_unchanged_fraction(np.array(s_oc), np.array(s_ic)) == pytest.approx(0.5)


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
    table, excluded = compute_sensitivities(bundle)
    assert len(table) + len(excluded) == 12
    assert set(table.posts.post_ids).isdisjoint(excluded)
    assert np.array_equal(table.delta, table.oc_value - table.ic_value)
    assert np.array_equal(table.is_sensitive, np.abs(table.delta) > table.oc_sem + table.ic_sem)


def test_examples_round_trip(tmp_path):
    table, _ = compute_sensitivities(synthetic_bundle(n_posts=10, seed=1))
    path = tmp_path / "sensitivity.jsonl"
    save_examples(table, path)
    assert table_rows(load_examples(path)) == table_rows(table)


def test_load_examples_rejects_duplicate_post_ids(tmp_path):
    table, _ = compute_sensitivities(synthetic_bundle(n_posts=10, seed=1))
    path = tmp_path / "sensitivity.jsonl"
    save_examples(table, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines + lines[3:4]), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:{len(table) + 1}: duplicate post_id '{table.posts.post_ids[3]}'$"):
        load_examples(path)


@pytest.mark.parametrize(
    "edits, line, message",
    [
        ({1: with_fields(target_text=" ", delta=0.9)}, 2, "post 'b': target_text is blank"),
        ({1: with_fields(delta=0.9), 2: with_fields(target_text=" ")}, 2, "delta must equal s_oc.value - s_ic.value exactly"),
        ({1: with_fields(target_text=" "), 2: with_fields(delta=0.9)}, 2, "post 'b': target_text is blank"),
        ({1: with_fields(post_id=5, target_text=" ")}, 2, "field 'post_id' must be a string, got int"),
        ({1: with_fields(post_id="a"), 2: lambda row: "{"}, 2, "duplicate post_id 'a'"),
    ],
    ids=["text before score", "score row first", "text row first", "type before text", "duplicate before no JSON"],
)
def test_load_examples_reports_the_first_bad_row(tmp_path, edits, line, message):
    path = tmp_path / "sensitivity.jsonl"
    save_examples(sensitivity_table([record_with_delta(0.2, "a"), record_with_delta(0.4, "b"), record_with_delta(0.0, "c")]), path)
    objs = [json.loads(row) for row in path.read_text(encoding="utf-8").splitlines()]
    rows = [edits.get(i, lambda row: row)(obj) for i, obj in enumerate(objs)]
    path.write_text("".join((row if isinstance(row, str) else json.dumps(row)) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_examples(path)
    assert str(info.value) == f"{path}:{line}: {message}"
