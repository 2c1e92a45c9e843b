import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens import aggregation, analysis
from ctxsens.corpus import (
    Condition,
    CorpusError,
    DanglingReferenceError,
    DatasetBundle,
    DuplicateRecordError,
    EmptyJudgmentsError,
    Label,
    ParseError,
    Post,
    ScoredRow,
    ScoreTableColumns,
    load_bundle,
    load_posts,
    load_score_table,
    save_bundle,
    save_posts,
)

import oracles
from helpers import annotation_table

IC, OC = Condition.IN_CONTEXT, Condition.OUT_OF_CONTEXT


def empty_bundle() -> DatasetBundle:
    return DatasetBundle((), annotation_table(IC, []), annotation_table(OC, []))


def write_three_post_corpus(tmp_path):
    posts = [
        {"post_id": "p1", "target_text": "hello there", "parent_text": "hi"},
        {"post_id": "p2", "target_text": "line one\nline two", "parent_text": None},
        {"post_id": "p3", "target_text": 'quoted "text", with commas', "parent_text": "parent"},
    ]
    annotations = lambda cond: [
        {
            "post_id": p["post_id"],
            "condition": cond,
            "judgments": [
                {"label": "toxic", "parent_helpful": True if cond == "ic" else None},
                {"label": "non_toxic", "parent_helpful": None},
            ],
        }
        for p in posts
    ]
    paths = {}
    for name, rows in (("posts", posts), ("ic", annotations("ic")), ("oc", annotations("oc"))):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        paths[name] = path
    return paths


def test_load_well_formed_three_post_file(tmp_path):
    paths = write_three_post_corpus(tmp_path)
    bundle = load_bundle(paths["posts"], paths["ic"], paths["oc"])
    assert len(bundle.posts) == 3
    assert len(bundle.ic_annotations) == 3
    assert len(bundle.oc_annotations) == 3
    assert bundle.posts[1].target_text == "line one\nline two"
    ic = bundle.ic_annotations
    assert ic.post_ids == ("p1", "p2", "p3")
    assert ic.labels.tolist() == [2, 0] * 3  # toxic, non_toxic in Label order
    assert ic.helpful.tolist() == [1, -1] * 3
    assert ic.offsets.tolist() == [0, 2, 4, 6]
    assert bundle.oc_annotations.helpful.tolist() == [-1] * 6


def test_duplicate_record_error_names_post(tmp_path):
    paths = write_three_post_corpus(tmp_path)
    lines = paths["ic"].read_text().strip().splitlines()
    paths["ic"].write_text("\n".join(lines + [lines[0]]) + "\n")
    with pytest.raises(DuplicateRecordError, match="p1"):
        load_bundle(paths["posts"], paths["ic"], paths["oc"])


def test_dangling_reference_error_names_id(tmp_path):
    paths = write_three_post_corpus(tmp_path)
    rogue = {"post_id": "zz", "condition": "oc", "judgments": [{"label": "toxic", "parent_helpful": None}]}
    with paths["oc"].open("a") as fh:
        fh.write(json.dumps(rogue) + "\n")
    with pytest.raises(DanglingReferenceError, match="zz"):
        load_bundle(paths["posts"], paths["ic"], paths["oc"])


def test_parse_error_carries_line_number(tmp_path):
    paths = write_three_post_corpus(tmp_path)
    paths["posts"].write_text(paths["posts"].read_text() + "{not json\n")
    with pytest.raises(ParseError, match=r"posts\.jsonl:4"):
        load_bundle(paths["posts"], paths["ic"], paths["oc"])


def test_empty_judgment_list_rejected(tmp_path):
    paths = write_three_post_corpus(tmp_path)
    bad = {"post_id": "p1", "condition": "ic", "judgments": []}
    paths["ic"].write_text(json.dumps(bad) + "\n")
    with pytest.raises(ParseError, match="no judgments"):
        load_bundle(paths["posts"], paths["ic"], paths["oc"])


def test_unknown_label_rejected(tmp_path):
    paths = write_three_post_corpus(tmp_path)
    bad = {"post_id": "p1", "condition": "ic", "judgments": [{"label": "meh", "parent_helpful": None}]}
    paths["ic"].write_text(json.dumps(bad) + "\n")
    with pytest.raises(ParseError, match="meh"):
        load_bundle(paths["posts"], paths["ic"], paths["oc"])


def _corrupt(path, line: int, **fields) -> None:
    rows = path.read_text().splitlines()
    rows[line - 1] = json.dumps({**json.loads(rows[line - 1]), **fields})
    path.write_text("\n".join(rows) + "\n")


_TOXIC = {"label": "toxic", "parent_helpful": None}


@pytest.mark.parametrize(
    "fmt, line, fields, message",
    [
        # 1 == True and 0 == False as dict keys, so a lookup alone would take these
        ("jsonl", 2, {"judgments": [_TOXIC, {"label": "toxic", "parent_helpful": 1}]}, "parent_helpful"),
        ("jsonl", 2, {"judgments": [{"label": "toxic", "parent_helpful": 0}]}, "parent_helpful"),
        ("jsonl", 2, {"judgments": [{"label": "toxic", "parent_helpful": "true"}]}, "parent_helpful"),
        # unhashable or non-string labels
        ("jsonl", 3, {"judgments": [_TOXIC, {"label": ["toxic"], "parent_helpful": None}]}, "unknown label"),
        ("jsonl", 3, {"judgments": [{"label": {}, "parent_helpful": None}]}, "unknown label"),
        ("jsonl", 3, {"judgments": [{"label": 3, "parent_helpful": None}]}, "unknown label"),
        ("jsonl", 3, {"judgments": [{"label": True, "parent_helpful": None}]}, "unknown label"),
        ("jsonl", 1, {"judgments": {"label": "toxic", "parent_helpful": None}}, "must be a list"),
        ("jsonl", 2, {"judgments": [_TOXIC, ["toxic", None]]}, "must be objects"),
        ("csv", 3, {"parent_helpful": "true|1"}, "bad parent_helpful slot '1'"),
        ("csv", 3, {"labels": "toxic||toxic", "parent_helpful": ""}, "unknown label ''"),
    ],
)
def test_loader_rejects_lookalike_values(tmp_path, fmt, line, fields, message):
    paths = write_three_post_corpus(tmp_path)
    if fmt == "csv":
        bundle = load_bundle(paths["posts"], paths["ic"], paths["oc"])
        paths = {name: tmp_path / f"{name}.csv" for name in ("posts", "ic", "oc")}
        save_bundle(bundle, paths["posts"], paths["ic"], paths["oc"], format="csv")
        rows = paths["ic"].read_text().splitlines()
        header = rows[0].split(",")
        cells = dict(zip(header, rows[line - 1].split(",")), **fields)
        rows[line - 1] = ",".join(cells[name] for name in header)
        paths["ic"].write_text("\n".join(rows) + "\n")
    else:
        _corrupt(paths["ic"], line, **fields)
    with pytest.raises(ParseError, match=rf"ic\.{fmt}:{line}: .*{message}") as info:
        load_bundle(paths["posts"], paths["ic"], paths["oc"], format=fmt)
    assert info.value.line == line


def test_condition_mismatch_is_checked_after_every_file_parses(tmp_path):
    paths = write_three_post_corpus(tmp_path)
    _corrupt(paths["ic"], 2, condition="oc")
    with pytest.raises(CorpusError, match="post 'p2' has condition 'oc', expected 'ic'"):
        load_bundle(paths["posts"], paths["ic"], paths["oc"])
    _corrupt(paths["oc"], 3, judgments=[])
    with pytest.raises(ParseError, match=r"oc\.jsonl:3: annotation for post 'p3' \(oc\) has no judgments"):
        load_bundle(paths["posts"], paths["ic"], paths["oc"])


def test_blank_target_text_rejected():
    with pytest.raises(CorpusError, match="blank"):
        Post("p1", "   \n ")


def test_empty_parent_normalizes_to_none():
    assert Post("p1", "text", "").parent_text is None


def test_duplicate_post_rejected():
    posts = (Post("a", "x"), Post("a", "y"))
    with pytest.raises(DuplicateRecordError):
        DatasetBundle(posts, annotation_table(IC, []), annotation_table(OC, []))


def test_empty_judgments_type_invariant():
    with pytest.raises(EmptyJudgmentsError, match="'q'"):
        annotation_table(IC, [("p", [Label.TOXIC], None), ("q", [], None)])


def make_bundle():
    posts = (
        Post("a", 'text with "quotes", commas\nand a newline', "parent\ntext"),
        Post("b", "plain"),
    )
    ic = annotation_table(IC, [("a", [Label.TOXIC, Label.UNSURE], [True, None]), ("b", [Label.NON_TOXIC], [False])])
    oc = annotation_table(OC, [("a", [Label.VERY_TOXIC], None), ("b", [Label.NON_TOXIC, Label.TOXIC], None)])
    return DatasetBundle(posts, ic, oc)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip_awkward_text(tmp_path, fmt):
    bundle = make_bundle()
    paths = [tmp_path / f"{n}.{fmt}" for n in ("posts", "ic", "oc")]
    save_bundle(bundle, *paths, format=fmt)
    assert load_bundle(*paths, format=fmt) == bundle


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_round_trip_empty_bundle(tmp_path, fmt):
    bundle = empty_bundle()
    paths = [tmp_path / f"{n}.{fmt}" for n in ("posts", "ic", "oc")]
    save_bundle(bundle, *paths, format=fmt)
    assert load_bundle(*paths, format=fmt) == bundle


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(CorpusError, match="format"):
        save_bundle(empty_bundle(), tmp_path / "a", tmp_path / "b", tmp_path / "c", format="xml")


def test_posts_file_round_trip(tmp_path):
    posts = [Post("x", "some text", None), Post("y", "more, text", "a parent")]
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"pool.{fmt}"
        save_posts(posts, path, format=fmt)
        assert load_posts(path, format=fmt) == posts


# --- property suite -----------------------------------------------------------

_chars = st.characters(exclude_characters="\x00", exclude_categories=("Cs",))
_text = st.text(alphabet=_chars, min_size=1, max_size=30).filter(lambda s: s.strip())
_parent = st.one_of(st.none(), _text)
_label = st.sampled_from(list(Label))
_helpful = st.one_of(st.none(), st.booleans())
_judgment = st.tuples(_label, _helpful)
_post_ids = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6),
    min_size=0,
    max_size=6,
    unique=True,
)


@st.composite
def bundles(draw) -> DatasetBundle:
    ids = draw(_post_ids)
    posts = tuple(Post(pid, draw(_text), draw(_parent)) for pid in ids)
    tables = []
    for cond in Condition:
        rows = []
        for pid in ids:
            if draw(st.booleans()):
                judgments = draw(st.lists(_judgment, min_size=1, max_size=5))
                rows.append((pid, [label for label, _ in judgments], [helpful for _, helpful in judgments]))
        tables.append(annotation_table(cond, rows))
    return DatasetBundle(posts, *tables)


@pytest.mark.property
@given(bundle=bundles(), fmt=st.sampled_from(["jsonl", "csv"]))
def test_round_trip_identity_property(tmp_path_factory, bundle, fmt):
    tmp_path = tmp_path_factory.mktemp("bundle")
    paths = [tmp_path / f"{n}.{fmt}" for n in ("posts", "ic", "oc")]
    save_bundle(bundle, *paths, format=fmt)
    assert load_bundle(*paths, format=fmt) == bundle


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.property
@given(bundle=bundles())
def test_bundle_lookup_consistent(bundle):
    post_ids = {post.post_id for post in bundle.posts}
    for table in (bundle.ic_annotations, bundle.oc_annotations):
        assert len(set(table.post_ids)) == len(table) and set(table.post_ids) <= post_ids
    # the count-based statistics equal the object-walking oracles exactly
    examples, excluded = aggregation.compute_sensitivities(bundle)
    assert (examples, excluded) == oracles.compute_sensitivities(bundle)
    for table in (bundle.ic_annotations, bundle.oc_annotations):
        for kwargs in ({}, {"n_categories": 2, "label_key": aggregation.collapse_binary}):
            assert _outcome(aggregation.agreement, table, **kwargs) == _outcome(oracles.agreement, table, **kwargs)
    records = [ex.record for ex in examples]
    thresholds = [0.0, 0.2, 0.5, 1.0]
    assert analysis.parent_utility(bundle.ic_annotations, records, thresholds) == oracles.parent_utility(
        bundle.ic_annotations, records, thresholds
    )


# --- released-data adapter ------------------------------------------------------


def test_score_table_adapter_reads_percentages(tmp_path):
    path = tmp_path / "released.csv"
    path.write_text(
        "id,text,parent,toxicity_oc,toxicity_ic\n"
        "1,some text,a parent,70,0\n"
        "2,other text,,36.6,80\n",
        encoding="utf-8",
    )
    rows = load_score_table(path)
    assert rows[0] == ScoredRow("1", "some text", "a parent", 0.70, 0.0)
    assert rows[1].parent_text is None
    assert rows[1].delta == pytest.approx(-0.434)


def test_score_table_adapter_reads_fractions_and_custom_columns(tmp_path):
    path = tmp_path / "released.csv"
    path.write_text("pid,oc,ic\nx,0.5,0.25\n", encoding="utf-8")
    columns = ScoreTableColumns(post_id="pid", oc_score="oc", ic_score="ic")
    rows = load_score_table(path, columns)
    assert rows[0].s_oc == 0.5 and rows[0].s_ic == 0.25


def test_score_table_adapter_reports_missing_columns(tmp_path):
    path = tmp_path / "released.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="missing required columns"):
        load_score_table(path)
