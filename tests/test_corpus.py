import csv
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
    PostTable,
    ScoredRow,
    ScoreTableColumns,
    load_bundle,
    load_posts,
    load_score_table,
)

import oracles
from helpers import annotation_table, post_table, save_bundle, save_posts, table_rows

IC, OC = Condition.IN_CONTEXT, Condition.OUT_OF_CONTEXT


def empty_bundle() -> DatasetBundle:
    return DatasetBundle(post_table([]), annotation_table(IC, []), annotation_table(OC, []))


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
    assert bundle.posts.target_texts[1] == "line one\nline two"
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
        PostTable(("p1",), ("   \n ",), (None,))


def test_empty_parent_normalizes_to_none():
    assert post_table([("p1", "text", ""), ("p2", "text", "parent")]).parent_texts == (None, "parent")


def test_duplicate_post_rejected():
    with pytest.raises(DuplicateRecordError, match="duplicate post_id 'a'"):
        DatasetBundle(post_table([("a", "x"), ("a", "y")]), annotation_table(IC, []), annotation_table(OC, []))


def test_post_table_take_and_length_check():
    posts = post_table([("a", "x"), ("b", "y", "parent"), ("c", "z")])
    assert posts.take([2, 1]) == post_table([("c", "z"), ("b", "y", "parent")])
    assert len(posts.take([])) == 0 and len(posts) == 3
    with pytest.raises(ValueError, match="length"):
        PostTable(("a", "b"), ("x",), (None, None))


def test_empty_judgments_type_invariant():
    with pytest.raises(EmptyJudgmentsError, match="'q'"):
        annotation_table(IC, [("p", [Label.TOXIC], None), ("q", [], None)])


def make_bundle():
    posts = post_table([("a", 'text with "quotes", commas\nand a newline', "parent\ntext"), ("b", "plain")])
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
    paths = write_three_post_corpus(tmp_path)
    with pytest.raises(CorpusError, match="format"):
        load_bundle(paths["posts"], paths["ic"], paths["oc"], format="xml")
    with pytest.raises(CorpusError, match="format"):
        load_posts(paths["posts"], format="xml")


def test_posts_file_round_trip(tmp_path):
    posts = post_table([("x", "some text", None), ("y", "more, text", "a parent")])
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"pool.{fmt}"
        save_posts(posts, path, format=fmt)
        assert load_posts(path, format=fmt) == posts


_ROWS = [{"post_id": f"p{i}", "target_text": f"text {i}", "parent_text": None} for i in (1, 2, 3)]


def _write_posts(path, rows) -> None:
    """Each row a JSON object or a raw line; a CSV file gets a header and
    the three fields of each object, so a row sits on line n + 1."""
    if path.suffix == ".jsonl":  # json.dumps escapes a lone surrogate, which a UTF-8 file cannot hold raw
        path.write_text("".join((row if isinstance(row, str) else json.dumps(row)) + "\n" for row in rows), encoding="utf-8")
        return
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["post_id", "target_text", "parent_text"])
        for row in rows:
            writer.writerow(row.split(",") if isinstance(row, str) else [row["post_id"], row["target_text"], row["parent_text"] or ""])


def _load_bundle_of(path, format):
    """load_bundle on a posts file with empty annotation files."""
    ic, oc = path.with_name(f"ic.{format}"), path.with_name(f"oc.{format}")
    for annotations in (ic, oc):
        annotations.write_text("post_id,condition,labels,parent_helpful\n" if format == "csv" else "", encoding="utf-8")
    return load_bundle(path, ic, oc, format=format)


@pytest.mark.parametrize("loader", [load_posts, _load_bundle_of], ids=["load_posts", "load_bundle"])
@pytest.mark.parametrize(
    "fmt, fields, message",
    [
        ("jsonl", {"post_id": ""}, "post_id must be nonempty"),
        ("csv", {"post_id": ""}, "post_id must be nonempty"),
        ("jsonl", {"target_text": " \t "}, "post 'p2': target_text is blank"),
        ("csv", {"target_text": " \t "}, "post 'p2': target_text is blank"),
        ("jsonl", {"parent_text": "a\x00b"}, "post 'p2': parent_text contains a NUL character"),
        ("csv", {"target_text": "a\x00b"}, "post 'p2': target_text contains a NUL character"),
        (
            "jsonl",
            {"target_text": "a\ud800"},
            "post 'p2': target_text is not valid UTF-8: "
            "'utf-8' codec can't encode character '\\ud800' in position 1: surrogates not allowed",
        ),
        ("jsonl", {"post_id": "p1"}, "duplicate post_id 'p1'"),
        ("csv", {"post_id": "p1"}, "duplicate post_id 'p1'"),
        ("jsonl", {"post_id": 7}, "field 'post_id' must be a string"),
        ("jsonl", {"target_text": None}, "field 'target_text' must be a string"),
        ("jsonl", {"parent_text": 0}, "field 'parent_text' must be a string or null"),
    ],
)
def test_bad_post_row_is_a_parse_error_at_its_line(tmp_path, loader, fmt, fields, message):
    path = tmp_path / f"posts.{fmt}"
    _write_posts(path, [_ROWS[0], {**_ROWS[1], **fields}, _ROWS[2]])
    line = 2 if fmt == "jsonl" else 3
    with pytest.raises(ParseError) as info:
        loader(path, format=fmt)
    assert (str(info.value), info.value.line) == (f"{path}:{line}: {message}", line)


_BLANK = {**_ROWS[1], "target_text": " "}


@pytest.mark.parametrize(
    "fmt, rows, line, message",
    [
        ("jsonl", [_ROWS[0], _BLANK, _ROWS[2], "{not json"], 2, "post 'p2': target_text is blank"),
        ("jsonl", [_ROWS[0], _BLANK, "[1, 2]"], 2, "post 'p2': target_text is blank"),
        ("jsonl", [_ROWS[0], _ROWS[0], _BLANK], 2, "duplicate post_id 'p1'"),
        ("jsonl", [_ROWS[0], _BLANK, _ROWS[0]], 2, "post 'p2': target_text is blank"),
        ("jsonl", [_ROWS[0], {**_BLANK, "post_id": "p1"}], 2, "post 'p1': target_text is blank"),
        ("jsonl", [_ROWS[0], {**_ROWS[1], "post_id": 5}, _BLANK], 2, "field 'post_id' must be a string"),
        ("jsonl", [_ROWS[0], _ROWS[1], "{not json", _BLANK], 3, "invalid JSON: Expecting property name enclosed in double quotes"),
        ("csv", [_ROWS[0], _BLANK, "p3,two fields"], 3, "post 'p2': target_text is blank"),
        ("csv", [_ROWS[0], _ROWS[0], _BLANK], 3, "duplicate post_id 'p1'"),
    ],
)
def test_first_bad_post_row_in_file_order_is_reported(tmp_path, fmt, rows, line, message):
    path = tmp_path / f"posts.{fmt}"
    _write_posts(path, rows)
    with pytest.raises(ParseError) as info:
        load_posts(path, format=fmt)
    assert str(info.value) == f"{path}:{line}: {message}"


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
    posts = post_table([(pid, draw(_text), draw(_parent)) for pid in ids])
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
    post_ids = set(bundle.posts.post_ids)
    for table in (bundle.ic_annotations, bundle.oc_annotations):
        assert len(set(table.post_ids)) == len(table) and set(table.post_ids) <= post_ids
    # the count-based statistics equal the object-walking oracles exactly
    scored, excluded = aggregation.compute_sensitivities(bundle)
    assert (table_rows(scored), excluded) == oracles.compute_sensitivities(bundle)
    for table in (bundle.ic_annotations, bundle.oc_annotations):
        for kwargs in ({}, {"n_categories": 2, "label_key": aggregation.collapse_binary}):
            assert _outcome(aggregation.agreement, table, **kwargs) == _outcome(oracles.agreement, table, **kwargs)
    thresholds = [0.0, 0.2, 0.5, 1.0]
    assert analysis.parent_utility(bundle.ic_annotations, scored, thresholds) == oracles.parent_utility(
        bundle.ic_annotations, scored, thresholds
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


def test_score_table_adapter_reports_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "released.csv"
    path.write_bytes(b"id,text,parent,toxicity_oc,toxicity_ic\n1,caf\xe9,a parent,70,0\n")
    with pytest.raises(ParseError, match=r"released\.csv:2: not UTF-8: byte 0xe9 at column 6"):
        load_score_table(path)


_HEADER = "id,text,parent,toxicity_oc,toxicity_ic\n"


@pytest.mark.parametrize(
    "content, line, message",
    [
        (_HEADER + "1,a,,0.2,0\n2,b,,nan,0\n", 3, "scores nan, 0.0 must both lie in [0, 100]"),
        (_HEADER + "1,a,,0.2,0\n2,b,,0.1,inf\n", 3, "scores 0.1, inf must both lie in [0, 100]"),
        (_HEADER + "1,a,,-0.1,0\n", 2, "scores -0.1, 0.0 must both lie in [0, 100]"),
        (_HEADER + "1,a,,70,100.5\n", 2, "scores 70.0, 100.5 must both lie in [0, 100]"),
        (_HEADER + " ,a,,0.2,0\n", 2, "missing or blank 'id'"),
        ("text,toxicity_oc,toxicity_ic,id\na,0.2,0\n", 2, "missing or blank 'id'"),
        (_HEADER + "1,a,,0.2,0\n2,b,,0.3,0\n1,c,,0.4,0\n", 4, "duplicate post id '1'"),
    ],
    ids=["nan", "inf", "negative", "above 100", "blank id", "missing id", "repeated id"],
)
def test_score_table_adapter_rejects_bad_rows(tmp_path, content, line, message):
    path = tmp_path / "released.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_score_table(path)
    assert str(info.value) == f"{path}:{line}: {message}"
