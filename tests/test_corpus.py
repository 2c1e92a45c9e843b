import csv
import dataclasses
import functools
import json
import math
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsens import _fork, aggregation, analysis, cli, corpus
from ctxsens.corpus import (
    Condition,
    CorpusError,
    DanglingReferenceError,
    DatasetBundle,
    DuplicateRecordError,
    EmptyJudgmentsError,
    Label,
    OutputError,
    ParseError,
    PostTable,
    ScoredRow,
    ScoreTableColumns,
    load_bool_column,
    load_bundle,
    load_posts,
    load_score_table,
    write_jsonl,
)

import oracles
from helpers import annotation_table, post_table, save_bundle, save_posts, synthetic_bundle, table_rows

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
        ("csv", 2, {"labels": "", "parent_helpful": ""}, r"annotation for post 'p1' \(ic\) has no judgments$"),
        # every label of a record is checked before any of its parent_helpful slots
        ("csv", 2, {"labels": "toxic|bogus", "parent_helpful": "maybe|true"}, "unknown label 'bogus'$"),
        ("csv", 2, {"labels": "toxic|bogus", "parent_helpful": "true|true|true"}, "unknown label 'bogus'$"),
        ("csv", 2, {"condition": "xx", "labels": "", "parent_helpful": ""}, "unknown condition 'xx'$"),
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
        # a quoted field on lines 2-3: the blank target is on line 4, the third record
        ("csv", [{**_ROWS[0], "target_text": "line one\nline two"}, _BLANK], 4, "post 'p2': target_text is blank"),
    ],
)
def test_first_bad_post_row_in_file_order_is_reported(tmp_path, fmt, rows, line, message):
    path = tmp_path / f"posts.{fmt}"
    _write_posts(path, rows)
    with pytest.raises(ParseError) as info:
        load_posts(path, format=fmt)
    assert str(info.value) == f"{path}:{line}: {message}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python decodes integers of any length")
def test_an_integer_too_long_to_decode_is_a_parse_error_at_its_line(tmp_path):
    path = tmp_path / "posts.jsonl"
    _write_posts(path, [_ROWS[0], '{"post_id": "p2", "target_text": "x", "n": ' + "1" * 5000 + "}"])
    with pytest.raises(ParseError, match=rf"^{path}:2: invalid JSON: Exceeds the limit \(4300 digits\)"):
        load_posts(path)


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
    path.write_bytes(b"id,text,parent,toxicity_oc,toxicity_ic\n1,a,,high,0\n2,caf\xe9,,70,0\n")
    with pytest.raises(ParseError, match=r"released\.csv:2: non-numeric score"):  # a bad row above the byte comes first
        load_score_table(path)


def test_a_bad_row_above_a_byte_that_is_not_utf8_is_reported_first(tmp_path):
    path = tmp_path / "posts.jsonl"
    rows = [("p1", "fine"), ("p2", "   "), ("p3", "also fine"), ("p4", "caf\udce9")]
    lines = [json.dumps({"post_id": i, "target_text": t}, ensure_ascii=False) for i, t in rows]
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    with pytest.raises(ParseError, match=r"posts\.jsonl:2: post 'p2': target_text is blank"):
        load_posts(path)
    path.write_bytes(path.read_bytes().replace(b'"   "', b'"two"'))
    with pytest.raises(ParseError, match=r"posts\.jsonl:4: not UTF-8: byte 0xe9 at column 38$"):
        load_posts(path)


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
        (_HEADER + "1,a,,0.2,0\n\n2,b,,high,0\n", 4, "non-numeric score: could not convert string to float: 'high'"),
        (_HEADER + '1,"two\nlines",,0.2,0\n2,b,,high,0\n', 4, "non-numeric score: could not convert string to float: 'high'"),
        (_HEADER + "1,a,,0.2,0\n1,b,,high,0\n", 3, "duplicate post id '1'"),
        (_HEADER + " ,a,,150,0\n", 2, "missing or blank 'id'"),
    ],
    ids=[
        "nan", "inf", "negative", "above 100", "blank id", "missing id", "repeated id", "after a blank line", "after a multi-line record",
        "repeated id with a non-numeric score", "blank id with a score above 100",
    ],
)
def test_score_table_adapter_rejects_bad_rows(tmp_path, content, line, message):
    path = tmp_path / "released.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_score_table(path)
    assert str(info.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize(
    "content, line, message",
    [
        ("flag\ntrue\n\nmaybe\n", 4, "not a boolean: 'maybe'"),
        ('flag,note\ntrue,"two\nlines"\n\nmaybe,x\n', 5, "not a boolean: 'maybe'"),
        ("", 1, "empty file"),
        ('flag,note\n\n,"two\nlines"\n', 3, "not a boolean: ''"),
        ("flag\n\n\n", 3, "no data rows"),
    ],
    ids=["after a blank line", "after a multi-line record", "empty", "blank cell", "no data rows"],
)
def test_bool_column_names_the_line_of_its_first_bad_row(tmp_path, content, line, message):
    path = tmp_path / "group.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_bool_column(path)
    assert str(info.value) == f"{path}:{line}: {message}"


def test_every_input_file_is_read_once_through_read_blocks(tmp_path, monkeypatch):
    """A loader that opens an input file its own way, or reads it twice, fails
    here. The CLI reads its --config file through read_blocks too."""
    opened, read_blocks = [], corpus.read_blocks

    def spy(path):
        opened.append(path.name)
        return read_blocks(path)

    monkeypatch.setattr(corpus, "read_blocks", spy)
    bundle = synthetic_bundle(n_posts=6, seed=1)
    for fmt in ("jsonl", "csv"):
        paths = [tmp_path / f"{name}.{fmt}" for name in ("posts", "ic", "oc")]
        save_bundle(bundle, *paths, format=fmt)
        load_bundle(*paths, format=fmt)
    save_posts(bundle.posts, tmp_path / "pool.jsonl")
    load_posts(tmp_path / "pool.jsonl")
    aggregation.save_examples(aggregation.compute_sensitivities(bundle)[0], tmp_path / "sensitivity.jsonl")
    aggregation.load_examples(tmp_path / "sensitivity.jsonl")
    (tmp_path / "released.csv").write_text(_HEADER + "1,a,,0.2,0\n", encoding="utf-8")
    load_score_table(tmp_path / "released.csv")
    (tmp_path / "config.json").write_text('{"resamples": 5, "resample-size": 2}', encoding="utf-8")
    for group in ("a.csv", "b.csv"):
        (tmp_path / group).write_text("v\ntrue\nfalse\n", encoding="utf-8")
    args = ["bootstrap", "--group-a", str(tmp_path / "a.csv"), "--group-b", str(tmp_path / "b.csv")]
    assert cli.main([*args, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "boot")]) == 0
    inputs = ["posts.jsonl", "ic.jsonl", "oc.jsonl", "posts.csv", "ic.csv", "oc.csv", "pool.jsonl", "sensitivity.jsonl"]
    assert sorted(opened) == sorted([*inputs, "released.csv", "config.json", "a.csv", "b.csv"])


def test_every_loader_checks_its_rows_through_first_break(tmp_path, monkeypatch):
    """A loader that checks its rows its own way fails here: some rule table
    must get every row of the file, once, through first_break."""
    rows_by_table, first_break = {}, corpus.first_break

    def spy(rules, columns):
        rows_by_table[rules] = rows_by_table.get(rules, 0) + columns.rows
        return first_break(rules, columns)

    monkeypatch.setattr(corpus, "first_break", spy)
    monkeypatch.setattr(aggregation, "first_break", spy, raising=False)  # in case a loader there binds it itself
    bundle = synthetic_bundle(n_posts=6, seed=1)
    loads = []
    for fmt in ("jsonl", "csv"):
        paths = [tmp_path / f"{name}.{fmt}" for name in ("posts", "ic", "oc")]
        save_bundle(bundle, *paths, format=fmt)
        loads += [
            (paths[0].name, functools.partial(load_posts, paths[0], format=fmt), len(bundle.posts)),
            (paths[1].name, functools.partial(corpus._read_table, paths[1], fmt, IC), len(bundle.ic_annotations)),
        ]
    table = aggregation.compute_sensitivities(bundle)[0]
    aggregation.save_examples(table, tmp_path / "sensitivity.jsonl")
    (tmp_path / "group.csv").write_text("v\ntrue\nfalse\nyes\n", encoding="utf-8")
    (tmp_path / "released.csv").write_text(_HEADER + "1,a,,0.2,0\n2,b,,0.5,1\n", encoding="utf-8")
    loads += [
        ("sensitivity.jsonl", functools.partial(aggregation.load_examples, tmp_path / "sensitivity.jsonl"), len(table)),
        ("group.csv", functools.partial(load_bool_column, tmp_path / "group.csv"), 3),
        ("released.csv", functools.partial(load_score_table, tmp_path / "released.csv"), 2),
    ]
    for name, load, rows in loads:
        rows_by_table.clear()
        load()
        assert rows in rows_by_table.values(), name


# --- the block reader: errors that cross processes, line endings, file order ---


def _every_subclass(cls: type) -> set:
    return {cls}.union(*map(_every_subclass, cls.__subclasses__()))


@pytest.mark.parametrize(
    "error",
    [ParseError("f.jsonl", 3, "bad"), CorpusError("c"), DuplicateRecordError("d"), DanglingReferenceError("g"), EmptyJudgmentsError("e")],
    ids=lambda error: type(error).__name__,
)
def test_every_corpus_error_survives_a_pickle_round_trip(error):
    error.row = 7  # an attribute set after construction
    back = pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
    assert (type(back), str(back), vars(back)) == (type(error), str(error), vars(error))


def test_the_pickle_cases_cover_every_corpus_error():
    covered = {ParseError, CorpusError, DuplicateRecordError, DanglingReferenceError, EmptyJudgmentsError}
    assert _every_subclass(CorpusError) == covered


def test_a_parse_error_in_a_forked_part_is_raised_here_as_itself():
    def job(part: int) -> int:
        if part == 1:
            raise ParseError("f.jsonl", 3, "bad")
        return part

    with pytest.raises(ParseError) as info:
        _fork.run(job, 2)
    assert (str(info.value), info.value.line) == ("f.jsonl:3: bad", 3)


# Characters that text mode does not split a line at but str.splitlines does.
# write_jsonl writes U+2028 and U+0085 raw and the two control characters as escapes.
_NOT_LINE_BREAKS = "a\u2028b\x85c\x0cd\x1ee"


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_posts_and_sensitivity_rows_round_trip_at_any_line_ending(tmp_path, ending):
    bundle = synthetic_bundle(n_posts=6, seed=2)
    posts = PostTable(
        bundle.posts.post_ids,
        [f"{text} {_NOT_LINE_BREAKS}" for text in bundle.posts.target_texts],
        [None if parent is None else _NOT_LINE_BREAKS + parent for parent in bundle.posts.parent_texts],
    )
    bundle = DatasetBundle(posts, bundle.ic_annotations, bundle.oc_annotations)
    paths = [tmp_path / name for name in ("posts.jsonl", "ic.jsonl", "oc.jsonl")]
    save_bundle(bundle, *paths)
    table = aggregation.compute_sensitivities(bundle)[0]
    paths.append(tmp_path / "sensitivity.jsonl")
    aggregation.save_examples(table, paths[-1])
    assert "\u2028" in paths[0].read_text(encoding="utf-8") and "\x85" in paths[-1].read_text(encoding="utf-8")
    for path in paths:
        path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
    assert load_bundle(*paths[:3]) == bundle
    loaded = aggregation.load_examples(paths[-1])
    assert loaded.posts == table.posts and loaded.delta.tobytes() == table.delta.tobytes()
    lines = len(table)
    with paths[-1].open("a", encoding="utf-8", newline="") as handle:
        handle.write(f'{{"post_id": "late"}}{ending}')
    with pytest.raises(ParseError, match=rf"^{paths[-1]}:{lines + 1}: field 'target_text' must be a string"):
        aggregation.load_examples(paths[-1])
    with paths[0].open("a", encoding="utf-8", newline="") as handle:
        handle.write(f'{{"post_id": "", "target_text": "x"}}{ending}')
    with pytest.raises(ParseError, match=rf"^{paths[0]}:{len(posts) + 1}: post_id must be nonempty"):
        load_posts(paths[0])


@pytest.mark.parametrize("raw", ["\x0c", "\x1e"], ids=["form feed", "record separator"])
def test_a_raw_control_character_in_a_string_is_a_bad_row_at_its_own_line(tmp_path, raw):
    path = tmp_path / "posts.jsonl"
    rows = [{"post_id": f"p{i}", "target_text": "text"} for i in range(3)]
    lines = [json.dumps(row) for row in rows]
    lines[1] = lines[1].replace("text", f"te{raw}xt")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{path}:2: invalid JSON: Invalid control character"):
        load_posts(path)


def test_joined_lines_that_decode_as_an_array_are_still_a_bad_line(tmp_path):
    # ["{"x":1}, {"y":2", ""z":3}"] joined would read as two objects, but each line alone is bad
    paths = [tmp_path / name for name in ("posts.jsonl", "ic.jsonl", "oc.jsonl")]
    save_bundle(synthetic_bundle(n_posts=4, seed=3), *paths)
    paths[0].write_text('{"x":1}, {"y":2\n"z":3}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{paths[0]}:1: invalid JSON: Extra data"):
        load_bundle(*paths)


def test_a_bundle_with_two_bad_files_reports_the_posts_file(tmp_path):
    paths = [tmp_path / name for name in ("posts.jsonl", "ic.jsonl", "oc.jsonl")]
    save_bundle(synthetic_bundle(n_posts=4, seed=3), *paths)
    for path in (paths[0], paths[2]):
        path.write_text(path.read_text(encoding="utf-8") + "[]\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{paths[0]}:5: each line must be a JSON object"):
        load_bundle(*paths)
    paths[0].write_text(paths[0].read_text(encoding="utf-8")[: -len("[]\n")], encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{paths[2]}:\d+: each line must be a JSON object"):
        load_bundle(*paths)


def test_a_bundle_with_a_bad_ic_file_and_a_bad_oc_file_reports_the_ic_file(tmp_path):
    paths = [tmp_path / name for name in ("posts.jsonl", "ic.jsonl", "oc.jsonl")]
    save_bundle(synthetic_bundle(n_posts=4, seed=3), *paths)
    good = paths[1].read_text(encoding="utf-8")
    for path in paths[1:]:
        path.write_text(path.read_text(encoding="utf-8") + "[]\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{paths[1]}:{good.count(chr(10)) + 1}: each line must be a JSON object"):
        load_bundle(*paths)
    paths[1].write_text(good, encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{paths[2]}:\d+: each line must be a JSON object"):
        load_bundle(*paths)


def test_write_jsonl_writes_the_lines_of_json_dumps_and_names_the_path_of_a_nan(tmp_path):
    objs = [{"post_id": f"p{i}", "text": "café \x1e", "score": 0.1 * i, "rank": i} for i in range(2500)]
    path = tmp_path / "out.jsonl"
    write_jsonl(path, iter(objs))  # more than one block
    assert path.read_text(encoding="utf-8") == "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs)
    for bad in (math.nan, math.inf):
        with pytest.raises(OutputError, match=rf"^{path}: Out of range float values are not JSON compliant"):
            write_jsonl(path, [{"score": 1.0}, {"score": bad}])


_SURROGATE_ERROR = "'utf-8' codec can't encode character '\\{}' in position {}: surrogates not allowed"


_POST_CASES = [
    ({}, (None, None, None)),
    ({"parent_text": ""}, (None, None, None)),
    ({"parent_text": "é\U0001f600"}, (None, None, "é\U0001f600")),
    ({"post_id": "p1"}, "duplicate post_id 'p1'"),
    ({"post_id": ""}, "post_id must be nonempty"),
    ({"post_id": 7}, "field 'post_id' must be a string"),
    ({"post_id": None}, "field 'post_id' must be a string"),
    ({"post_id": ["p"]}, "field 'post_id' must be a string"),
    ({"target_text": " \t"}, "post 'p2': target_text is blank"),
    ({"target_text": 0}, "field 'target_text' must be a string"),
    ({"target_text": "a\x00b"}, "post 'p2': target_text contains a NUL character"),
    ({"parent_text": 0}, "field 'parent_text' must be a string or null"),
    ({"parent_text": False}, "field 'parent_text' must be a string or null"),
    ({"parent_text": "\ud800"}, "post 'p2': parent_text is not valid UTF-8: " + _SURROGATE_ERROR.format("ud800", 0)),
    ({"post_id": "p\udc80"}, "post 'p\\udc80': post_id is not valid UTF-8: " + _SURROGATE_ERROR.format("udc80", 1)),
]


@pytest.mark.parametrize("edit, expected", _POST_CASES, ids=[repr(edit) for edit, _ in _POST_CASES])
def test_each_post_rule_on_the_third_row(tmp_path, edit, expected):
    """The loaded parent texts for a row that loads, or the message at line 3."""
    path = tmp_path / "posts.jsonl"
    rows = [{"post_id": f"p{i}", "target_text": f"text {i}", "parent_text": None} for i in range(3)]
    rows[2].update(edit)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    if isinstance(expected, tuple):
        posts = load_posts(path)
        assert (posts.post_ids, posts.target_texts, posts.parent_texts) == (("p0", "p1", "p2"), ("text 0", "text 1", "text 2"), expected)
    else:
        with pytest.raises(ParseError) as info:
            load_posts(path)
        assert str(info.value) == f"{path}:3: {expected}"


# The second record of synthetic_bundle(n_posts=4, seed=3)'s IC file, as loaded
_SECOND = ("post001", ["non_toxic", "non_toxic", "toxic", "non_toxic", "toxic"], [False, False, True, False, False])


_ANNOTATION_CASES = [
    ({}, _SECOND),
    ({"judgments": [{"label": "toxic"}]}, ("post001", ["toxic"], [None])),
    ({"extra": 1}, _SECOND),
    ({"post_id": 3}, "field 'post_id' must be a string"),
    ({"condition": None}, "field 'condition' must be a string"),
    ({"condition": ["ic"]}, "field 'condition' must be a string"),
    ({"condition": "xx"}, "unknown condition 'xx'"),
    ({"judgments": []}, "annotation for post 'post001' (ic) has no judgments"),
    ({"judgments": {"label": "toxic"}}, "judgments must be a list"),
    ({"judgments": "toxic"}, "judgments must be a list"),
    ({"judgments": [["toxic"]]}, "judgment entries must be objects"),
    ({"judgments": [{"label": 1}]}, "unknown label 1"),
    ({"judgments": [{"label": True}]}, "unknown label True"),
    ({"judgments": [{"label": ["toxic"]}]}, "unknown label ['toxic']"),
    ({"judgments": [{"label": "rude"}]}, "unknown label 'rude'"),
    ({"judgments": [{"label": "toxic", "parent_helpful": 1}]}, "parent_helpful must be true, false, or null"),
    ({"judgments": [{"label": "toxic", "parent_helpful": 0}]}, "parent_helpful must be true, false, or null"),
    ({"judgments": [{"label": "toxic", "parent_helpful": "true"}]}, "parent_helpful must be true, false, or null"),
]


@pytest.mark.parametrize("edit, expected", _ANNOTATION_CASES, ids=[repr(edit) for edit, _ in _ANNOTATION_CASES])
def test_each_annotation_rule_on_the_second_record(tmp_path, edit, expected):
    """The loaded record for a record that loads, or the message at line 2."""
    paths = [tmp_path / name for name in ("posts.jsonl", "ic.jsonl", "oc.jsonl")]
    save_bundle(synthetic_bundle(n_posts=4, seed=3), *paths)
    saved = load_bundle(*paths).ic_annotations
    rows = [json.loads(line) for line in paths[1].read_text(encoding="utf-8").splitlines()]
    rows[1].update(edit)
    paths[1].write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    if isinstance(expected, tuple):
        records = list(saved.records())
        records[1] = expected
        assert list(load_bundle(*paths).ic_annotations.records()) == records
    else:
        with pytest.raises(ParseError) as info:
            load_bundle(*paths)
        assert str(info.value) == f"{paths[1]}:2: {expected}"


def _judged(*labels_and_flags) -> list:
    return [{"label": label, "parent_helpful": flag} for label, flag in labels_and_flags]


@pytest.mark.parametrize(
    "edits, line, message",
    [
        ({2: {"judgments": [*_judged(("toxic", 1)), ["toxic", None]]}}, 2, "parent_helpful must be true, false, or null"),
        ({2: {"judgments": _judged(("rude", None))}, 3: {"condition": "xx"}}, 2, "unknown label 'rude'"),
        ({2: {"condition": "xx"}, 3: {"judgments": _judged(("rude", None))}}, 2, "unknown condition 'xx'"),
        ({300: {"judgments": []}, 301: {"condition": 5}}, 300, "annotation for post 'post299' (ic) has no judgments"),
    ],
    ids=["a judgment before the next", "a judgment before a later record", "a record before a later judgment", "past the first block"],
)
def test_first_bad_annotation_row_in_file_order_is_reported(tmp_path, edits, line, message):
    paths = [tmp_path / name for name in ("posts.jsonl", "ic.jsonl", "oc.jsonl")]
    save_bundle(synthetic_bundle(n_posts=400, seed=3), *paths)
    assert sum(map(len, paths[1].read_bytes().splitlines(keepends=True)[:299])) > corpus._BLOCK_BYTES  # line 300 is in the second block
    for edit_line, fields in edits.items():
        _corrupt(paths[1], edit_line, **fields)
    with pytest.raises(ParseError) as info:
        load_bundle(*paths)
    assert (str(info.value), info.value.line) == (f"{paths[1]}:{line}: {message}", line)


@pytest.mark.parametrize(
    "name, edits, line, message",
    [
        ("posts", {1401: {"target_text": " "}, 1402: {"post_id": ""}}, 1401, "post 'post1399': target_text is blank"),
        ("ic", {1401: {"labels": "toxic|rude"}}, 1401, "unknown label 'rude'"),
        ("ic", {1401: {"parent_helpful": "true"}, 1402: {"labels": "rude"}}, 1401, "parent_helpful has 1 slots for 5 labels"),
    ],
    ids=["posts", "annotations", "a slot before a later label"],
)
def test_a_bad_csv_record_past_the_first_block_is_reported_at_its_line(tmp_path, name, edits, line, message):
    paths = {n: tmp_path / f"{n}.csv" for n in ("posts", "ic", "oc")}
    save_bundle(synthetic_bundle(n_posts=1500, seed=3), *paths.values(), format="csv")
    rows = paths[name].read_text(encoding="utf-8").splitlines()  # no field is quoted
    assert sum(len(row) + 1 for row in rows[: line - 1]) > corpus._BLOCK_BYTES
    header = rows[0].split(",")
    for edit_line, fields in edits.items():
        rows[edit_line - 1] = ",".join({**dict(zip(header, rows[edit_line - 1].split(","))), **fields}.values())
    paths[name].write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_bundle(*paths.values(), format="csv")
    assert (str(info.value), info.value.line) == (f"{paths[name]}:{line}: {message}", line)


def test_a_csv_record_whose_quoted_field_crosses_a_block_boundary_keeps_its_lines(tmp_path):
    path = tmp_path / "posts.csv"
    rows = [{"post_id": f"p{i}", "target_text": f"text {i} " + "x" * 40, "parent_text": None} for i in range(1200)]
    rows[1100]["target_text"] = "\n".join(["a line of the long field"] * 1000)
    rows[1101]["target_text"] = " "
    _write_posts(path, rows)
    text = path.read_text(encoding="utf-8")
    starts, ends = text.index("p1100,"), text.index("p1101,")
    assert starts < corpus._BLOCK_BYTES - 1000 and ends > corpus._BLOCK_BYTES + 1000  # one block ends inside the field
    line = text[:ends].count("\n") + 1
    with pytest.raises(ParseError) as info:
        load_posts(path, format="csv")
    assert (str(info.value), info.value.line) == (f"{path}:{line}: post 'p1101': target_text is blank", line)


def test_a_csv_field_longer_than_the_csv_module_default_loads_as_in_jsonl(tmp_path, capsys):
    long = "x" * 200_000  # the csv module's default field limit is 131,072 characters
    bundle = synthetic_bundle(n_posts=4, seed=3)
    ids = (long, *bundle.posts.post_ids[1:])  # annotation records refer to it too
    posts = PostTable(ids, (f"{long} text", *bundle.posts.target_texts[1:]), (long, *bundle.posts.parent_texts[1:]))
    bundle = DatasetBundle(posts, *(dataclasses.replace(table, post_ids=ids) for table in (bundle.ic_annotations, bundle.oc_annotations)))
    for format in ("jsonl", "csv"):
        paths = [tmp_path / f"{name}.{format}" for name in ("posts", "ic", "oc")]
        save_bundle(bundle, *paths, format=format)
        assert load_bundle(*paths, format=format) == bundle
        files = " ".join(f"--{name} {path}" for name, path in zip(("posts", "ic", "oc"), paths))
        assert cli.main(f"aggregate {files} --input-format {format} --out {tmp_path}/agg_{format}".split()) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert (tmp_path / "agg_csv/sensitivity.jsonl").read_bytes() == (tmp_path / "agg_jsonl/sensitivity.jsonl").read_bytes()
    (tmp_path / "group.csv").write_text(f"v\ntrue{' ' * 200_000}\nfalse\n", encoding="utf-8")
    assert load_bool_column(tmp_path / "group.csv") == [True, False]
    (tmp_path / "released.csv").write_text(f"{_HEADER}1,{long},,0.2,0\n", encoding="utf-8")
    assert load_score_table(tmp_path / "released.csv")[0].target_text == long


def test_a_csv_record_the_csv_module_rejects_is_a_parse_error_at_the_line_it_starts_on(tmp_path, monkeypatch, capsys):
    paths = [tmp_path / name for name in ("posts.csv", "ic.csv", "oc.csv")]
    paths[0].write_text('post_id,target_text,parent_text\np1,short,\np2,"a text of more than\ntwenty characters",\n', encoding="utf-8")
    for path in paths[1:]:
        path.write_text("post_id,condition,labels,parent_helpful\n", encoding="utf-8")
    limit, set_limit = csv.field_size_limit(), csv.field_size_limit
    monkeypatch.setattr(csv, "field_size_limit", lambda new: limit)  # so that read_csv keeps the limit set here
    set_limit(20)
    try:
        with pytest.raises(ParseError, match=rf"^{paths[0]}:3: field larger than field limit \(20\)$"):
            load_posts(paths[0], format="csv")
        line = f"aggregate --posts {paths[0]} --ic {paths[1]} --oc {paths[2]} --input-format csv --out {tmp_path}/agg"
        code = cli.main(line.split())
    finally:
        set_limit(limit)
    assert (code, capsys.readouterr().err) == (cli.EXIT_VALIDATION, f"error: {paths[0]}:3: field larger than field limit (20)\n")


def _limit_csv_fields(monkeypatch, limit: int) -> int:
    """Sets the csv module's field limit to limit, which read_csv keeps, and
    returns the limit that was set before."""
    before, set_limit = csv.field_size_limit(), csv.field_size_limit
    monkeypatch.setattr(csv, "field_size_limit", lambda new: limit)
    set_limit(limit)
    return before


def test_read_csv_yields_the_records_above_a_record_the_csv_module_rejects(tmp_path, monkeypatch):
    path = tmp_path / "posts.csv"
    path.write_text('post_id,target_text\np1,short\n\np2,"x\ny"\np3,"a field of more than twenty characters"\np4,z\n', encoding="utf-8")
    before, got = _limit_csv_fields(monkeypatch, 20), []
    try:
        with pytest.raises(ParseError) as info:
            for numbers, records in corpus.read_csv(path):
                got.extend(zip(numbers, records))
    finally:
        monkeypatch.undo()
        csv.field_size_limit(before)
    assert got == [(1, ["post_id", "target_text"]), (2, ["p1", "short"]), (3, []), (4, ["p2", "x\ny"])]
    assert (info.value.source, info.value.line, info.value.message) == (str(path), 6, "field larger than field limit (20)")


def test_a_csv_annotation_record_the_csv_module_rejects_is_a_parse_error_in_its_file(tmp_path, monkeypatch):
    paths = [tmp_path / name for name in ("posts.csv", "ic.csv", "oc.csv")]
    save_bundle(synthetic_bundle(n_posts=4, seed=3), *paths, format="csv")
    widest = max(len(field) for path in paths for record in csv.reader(path.open(encoding="utf-8", newline="")) for field in record)
    good = paths[1].read_text(encoding="utf-8")
    _append_text(paths[1], f'{"q" * (widest + 1)},x,y,z\n')
    _append_text(paths[2], "[]\n")
    before = _limit_csv_fields(monkeypatch, widest)
    try:
        with pytest.raises(ParseError, match=rf"^{paths[1]}:{good.count(chr(10)) + 1}: field larger than field limit \({widest}\)$"):
            load_bundle(*paths, format="csv")
    finally:
        monkeypatch.undo()
        csv.field_size_limit(before)
    paths[1].write_text(good, encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^{paths[2]}:\d+: "):  # the oc file is bad too, but read after ic
        load_bundle(*paths, format="csv")


def _append_text(path, text: str) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text)
