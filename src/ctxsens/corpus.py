"""Posts and dual-condition annotations: loading and validation.

A corpus is three files: one posts file and two annotation files (one per
rating condition). JSONL is the canonical format; CSV is an import/export
convenience with RFC-4180 quoting. Text is stored verbatim; normalization is
the featurizer's job.

Every input file is read through `read_blocks`, which numbers lines and checks
UTF-8 a block at a time, and through `read_jsonl` or `read_csv` on top of it;
a CSV record's line is the one it starts on, as a quoted field may span lines.
Every row file, JSONL or CSV, the group column and the score table included,
is checked a block of rows at a time by `checked_blocks` against its row
kind's ordered rule tables through `first_break`: the error is that of the
smallest bad row and the first rule in table order that it breaks, so the
first bad row in file order keeps its message and `file:line`. A CSV
annotation record is read in the JSONL record shape, and its labels are
checked before its parent_helpful slots.

Posts are one columnar `PostTable` and each condition's annotations one
columnar `AnnotationTable`, not an object per judgment: the post ids in file
order, an int8 label code per judgment, an int8 parent-helpful flag per
judgment (-1 for null) and int64 CSR-style offsets, one per record plus one.
Both loaders fill it through `_read_table`; scores, agreement and
helpful-vote majorities are per-record counts over its arrays.
"""

from __future__ import annotations

import csv
import json
import sys
from array import array
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


class Label(str, Enum):
    NON_TOXIC = "non_toxic"
    UNSURE = "unsure"
    TOXIC = "toxic"
    VERY_TOXIC = "very_toxic"


class Condition(str, Enum):
    IN_CONTEXT = "ic"
    OUT_OF_CONTEXT = "oc"


_LABEL_VALUES = tuple(label.value for label in Label)  # label code -> value
_LABEL_CODES = {value: code for code, value in enumerate(_LABEL_VALUES)}
_CONDITION_VALUES = frozenset(c.value for c in Condition)
_HELPFUL_CODES = {None: -1, False: 0, True: 1}  # looked up only after a type check, as 1 == True
_HELPFUL_TYPES = frozenset({bool, type(None)})
_HELPFUL_VALUES = {code: value for value, code in _HELPFUL_CODES.items()}
_HELPFUL_SLOTS = {"": None, "false": False, "true": True}  # a CSV parent_helpful slot's JSON value


class CorpusError(ValueError):
    """Base class for corpus schema/validation failures."""


class ParseError(CorpusError):
    """Malformed line or field. Carries the source path and line number."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source, self.line, self.message = source, line, message

    def __reduce__(self):  # for callers that pickle errors: Exception pickles only args, here the whole message
        return type(self), (self.source, self.line, self.message), vars(self)


class DuplicateRecordError(CorpusError):
    pass


class DanglingReferenceError(CorpusError):
    pass


class EmptyJudgmentsError(CorpusError):
    pass


class OutputError(RuntimeError):
    """A value that JSON cannot hold, NaN or an infinity, bound for an output file."""


# --- rule tables ---------------------------------------------------------------


class Columns(dict):
    """A block of rows as columns by name; a name that is not a column is
    derived by derive[name](self) when first read. `seen` holds the post
    ids of the rows above the block."""

    def __init__(self, columns: dict, derive: dict | None = None, seen: set | frozenset = frozenset()):
        super().__init__(columns)
        self.names, self.derive, self.seen, self.rows = tuple(columns), derive, seen, len(next(iter(columns.values())))

    def __missing__(self, name: str):
        self[name] = value = self.derive[name](self)
        return value

    def head(self, rows: int) -> Columns:
        return Columns({name: self[name][:rows] for name in self.names}, self.derive, self.seen)


class _Row(dict):
    """Row `row` of `block` by column name, for a rule's message."""

    def __missing__(self, name: str):
        return self.block[name][self.row]


def first_break(rules: Sequence[tuple], columns: Columns) -> tuple[int, CorpusError] | None:
    """(row, error) for the first row of a block that breaks a rule, with the
    error of the first rule in order that it breaks; or None.

    A rule is (check, message[, error class, else CorpusError]). check(block)
    holds when every row keeps the rule, and is tried only where every row
    kept every earlier rule. message is a format string over the row by
    column name, or a function of that row. A check holds on each prefix of
    the rows it holds on, so a bisection finds the shortest prefix that
    breaks a rule, and the row is its last."""

    def broken(block: Columns) -> tuple | None:
        return next((rule for rule in rules if not rule[0](block)), None)

    if not columns.rows or broken(columns) is None:
        return None
    good, bad = 0, columns.rows  # the first `good` rows keep every rule, the first `bad` do not
    while bad - good > 1:
        middle = (good + bad) // 2
        good, bad = (middle, bad) if broken(columns.head(middle)) is None else (good, middle)
    row = _Row()
    row.block, row.row = columns.head(bad), bad - 1
    _, message, *kind = broken(row.block)
    return bad - 1, (kind or [CorpusError])[0](message(row) if callable(message) else message.format_map(row))


def type_rule(name: str, kinds: set, message) -> tuple:
    """The rule that the type of each value in column name is one of kinds."""
    return lambda block: set(map(type, block[name])) <= kinds, message


def _text_error(text: str) -> str | None:
    """What keeps a text from being stored, a NUL or a lone surrogate, or None."""
    if "\x00" in text:
        return "contains a NUL character"
    try:
        text.isascii() or text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"is not valid UTF-8: {exc}"
    return None


def _joined(block: Columns, name: str) -> str | None:
    """The texts of a column joined, None left out of parent_text, or None when a value is not a string."""
    try:
        return "".join([text for text in block[name] if text is not None] if name == "parent_text" else block[name])
    except TypeError:
        return None


# A post's rules. A column's texts are checked joined, and the join is its type check.
POST_RULES = (
    (lambda block: block["post_id joined"] is not None, "field 'post_id' must be a string"),
    (lambda block: block["target_text joined"] is not None, "field 'target_text' must be a string"),
    (lambda block: block["parent_text joined"] is not None, "field 'parent_text' must be a string or null"),
    (lambda block: all(block["post_id"]), "post_id must be nonempty"),
    (lambda block: all(map(str.strip, block["target_text"])), "post {post_id!r}: target_text is blank"),
    *(
        (lambda block, name=name: _text_error(block[name + " joined"]) is None,
         lambda row, name=name: f"post {row['post_id']!r}: {name} {_text_error(row[name] or '')}")
        for name in ("post_id", "target_text", "parent_text")
    ),
    (lambda block: len(set(ids := block["post_id"])) == len(ids) and block.seen.isdisjoint(ids), "duplicate post_id {post_id!r}", DuplicateRecordError),
)
POST_TEXTS = {f"{name} joined": lambda block, name=name: _joined(block, name) for name in ("post_id", "target_text", "parent_text")}


@dataclass(frozen=True)
class PostTable:
    """Posts as read-only columns, row i being post post_ids[i] with its
    target text and its parent's text, or None, which an empty one becomes.

    Ids are unique and nonempty, target texts not blank, and no text holds
    a NUL or a lone surrogate. The first row that breaks a rule raises its
    error.
    """

    post_ids: tuple[str, ...]
    target_texts: tuple[str, ...]
    parent_texts: tuple[str | None, ...]

    def __post_init__(self) -> None:
        ids, targets, parents = tuple(self.post_ids), tuple(self.target_texts), tuple(self.parent_texts)
        if not len(ids) == len(targets) == len(parents):
            raise ValueError("columns differ in length")
        if broken := first_break(POST_RULES, Columns(dict(zip(_POST_HEADER, (ids, targets, parents))), POST_TEXTS)):
            raise broken[1]
        object.__setattr__(self, "post_ids", ids)
        object.__setattr__(self, "target_texts", targets)
        object.__setattr__(self, "parent_texts", tuple(parent or None for parent in parents))

    def __len__(self) -> int:
        return len(self.post_ids)

    def take(self, idx) -> PostTable:
        """The rows idx (distinct row indices), in that order. They passed
        every check as rows of this table, so they are not checked again."""
        rows = np.asarray(idx, dtype=np.int64).tolist()
        return kept_posts(*(map(column.__getitem__, rows) for column in (self.post_ids, self.target_texts, self.parent_texts)))


def kept_posts(post_ids: Iterable[str], target_texts: Iterable[str], parent_texts: Iterable[str | None]) -> PostTable:
    """The PostTable of columns whose rows kept POST_RULES (in blocks, with `seen`), not checked again."""
    posts = object.__new__(PostTable)
    for name, column in (("post_ids", post_ids), ("target_texts", target_texts), ("parent_texts", (text or None for text in parent_texts))):
        object.__setattr__(posts, name, tuple(column))
    return posts


@dataclass(frozen=True, eq=False)
class AnnotationTable:
    """All records of one rating condition, as read-only columns.

    Record i is post_ids[i] (file order). Its judgments are entries
    offsets[i]:offsets[i + 1] of labels (int8 codes in Label definition order)
    and helpful (int8: 1 true, 0 false, -1 null), so judgment order survives
    a round trip. `foreign` is the first record a file filed under the other
    condition, or -1; DatasetBundle rejects it.
    """

    condition: Condition
    post_ids: tuple[str, ...]
    labels: np.ndarray
    helpful: np.ndarray
    offsets: np.ndarray
    foreign: int = field(default=-1, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "condition", Condition(self.condition))
        object.__setattr__(self, "post_ids", tuple(self.post_ids))
        for name, dtype in (("labels", np.int8), ("helpful", np.int8), ("offsets", np.int64)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        n, lengths = len(self.labels), np.diff(self.offsets)
        if len(self.offsets) != len(self.post_ids) + 1 or self.offsets[0] != 0 or n != self.offsets[-1]:
            raise CorpusError("offsets must run from 0 to the judgment count, one per record plus one")
        if len(self.helpful) != n or n and not (0 <= self.labels.min() <= self.labels.max() < len(Label)):
            raise CorpusError(f"need one label code in [0, {len(Label)}) and one helpful flag per judgment")
        if n and not -1 <= self.helpful.min() <= self.helpful.max() <= 1:
            raise CorpusError("helpful flags must be -1, 0 or 1")
        if (lengths < 1).any():
            post_id = self.post_ids[np.argmax(lengths < 1)]
            raise EmptyJudgmentsError(_NO_JUDGMENTS.format(post_id=post_id, condition=self.condition.value))

    def __len__(self) -> int:
        return len(self.post_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationTable):
            return NotImplemented
        return (self.condition, self.post_ids) == (other.condition, other.post_ids) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in ("labels", "helpful", "offsets")
        )

    __hash__ = None  # type: ignore[assignment]

    def counts(self, codes: np.ndarray, width: int) -> np.ndarray:
        """Per-record counts of a per-judgment code in [0, width), shape (records, width)."""
        record = np.repeat(np.arange(len(self.post_ids)), np.diff(self.offsets))
        return np.bincount(record * width + codes, minlength=len(self.post_ids) * width).reshape(-1, width)

    def records(self) -> Iterator[tuple[str, list[str], list[bool | None]]]:
        """(post_id, label values, helpful flags) per record, in order."""
        labels = [_LABEL_VALUES[code] for code in self.labels.tolist()]
        helpful = [_HELPFUL_VALUES[flag] for flag in self.helpful.tolist()]
        bounds = self.offsets.tolist()
        for i, post_id in enumerate(self.post_ids):
            yield post_id, labels[bounds[i] : bounds[i + 1]], helpful[bounds[i] : bounds[i + 1]]


@dataclass(frozen=True)
class DatasetBundle:
    """Validated, immutable join of posts with their IC and OC annotations."""

    posts: PostTable
    ic_annotations: AnnotationTable
    oc_annotations: AnnotationTable

    def __post_init__(self) -> None:
        post_ids = set(self.posts.post_ids)
        for table, expected in ((self.ic_annotations, Condition.IN_CONTEXT), (self.oc_annotations, Condition.OUT_OF_CONTEXT)):
            foreign, other = table.foreign if table.condition is expected else 0, next(c for c in Condition if c is not expected)
            rules = (
                (lambda block: not 0 <= foreign < block.rows, f"record for post {{post_id!r}} has condition {other.value!r}, expected {expected.value!r}"),
                (lambda block: post_ids.issuperset(block["post_id"]), "annotation references unknown post_id {post_id!r}", DanglingReferenceError),
                (lambda block: len(set(block["post_id"])) == block.rows, f"duplicate ({{post_id!r}}, {expected.value}) annotation record", DuplicateRecordError),
            )
            if broken := first_break(rules, Columns({"post_id": table.post_ids})):
                raise broken[1]


# --- readers -----------------------------------------------------------------

# Bytes of lines read and decoded at a time: few enough that a block's
# objects are still in the CPU cache when its columns are taken from them.
_BLOCK_BYTES = 1 << 16


def _not_utf8(text: str) -> str | None:
    """Why a text is not UTF-8, or None. Files are read with surrogateescape: a
    byte that is not UTF-8 is a lone surrogate, which UTF-8 never decodes to."""
    try:
        text.isascii() or text.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte, column = ord(text[exc.start]) - 0xDC00, len(text[: exc.start].encode("utf-8", "surrogateescape")) + 1
        return f"not UTF-8: byte {byte:#04x} at column {column}"
    return None


def read_blocks(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(number of its first line, its lines) per block of about _BLOCK_BYTES of
    a UTF-8 file, lines split where text mode splits them (\\n, \\r and \\r\\n,
    not at U+2028 or a form feed) and kept whole. A byte that is not UTF-8 is
    a ParseError at its line, raised after the lines above it were yielded."""
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        first = 1
        while block := handle.readlines(_BLOCK_BYTES):
            if _not_utf8("".join(block)):  # then line by line
                bad = next(i for i, line in enumerate(block) if _not_utf8(line))
                yield first, block[:bad]
                raise ParseError(str(path), first + bad, _not_utf8(block[bad]))
            yield first, block
            first += len(block)


# json.loads(line) is this scan of line from 0 when the value ends where the
# line ending starts: the same object, without the checks of every call.
_SCAN = json.JSONDecoder().scan_once


def read_jsonl(path: Path) -> Iterator[tuple[Sequence[int], list[dict]]]:
    """(line numbers, objects) per block of a JSONL file's nonblank lines. A
    line that is not a JSON object is a ParseError, raised after the objects
    above it were yielded."""
    for first, block in read_blocks(path):
        try:
            objs, ends = zip(*map(_SCAN, block, repeat(0)))
        except ValueError:  # a scan failed or stopped the map: json.loads reads the block below
            objs = ends = ()
        if list(ends) == list(map(len, map(str.rstrip, block, repeat("\r\n")))) and set(map(type, objs)) == {dict}:
            yield range(first, first + len(block)), list(objs)
            continue
        numbers, objs = [], []
        for line_no, line in enumerate(block, first):
            if line.strip():
                try:
                    obj = json.loads(line)
                    error = None if isinstance(obj, dict) else "each line must be a JSON object"
                except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
                    error = f"invalid JSON: {getattr(exc, 'msg', exc)}"
                if error:
                    yield numbers, objs
                    raise ParseError(str(path), line_no, error)
                numbers.append(line_no)
                objs.append(obj)
        yield numbers, objs


def read_csv(path: Path) -> Iterator[tuple[list[int], list[list[str]]]]:
    """(lines the records start on, records) per block of about _BLOCK_BYTES
    of a CSV file in RFC 4180 quoting, where a quoted field may span lines
    and so blocks of read_blocks; a blank line is a record of no fields. A
    field may be as long as a string: this raises the csv module's field
    limit for the whole process. A byte that is not UTF-8, or a record the
    csv module rejects, is a ParseError, raised after the records above it
    were yielded."""
    csv.field_size_limit(2**31 - 1 if sys.platform == "win32" else sys.maxsize)  # the largest C long
    end = 1  # the line after the lines read so far

    def lines(read: tuple[int, list[str]]) -> list[str]:
        nonlocal end
        end = read[0] + len(read[1])
        return read[1]

    reader, numbers, records, start = csv.reader(chain.from_iterable(map(lines, read_blocks(path)))), [], [], 1
    try:
        for record in reader:
            numbers.append(start)
            records.append(record)
            start = reader.line_num + 1
            if start == end:  # the records end where the lines read do
                yield numbers, records
                numbers, records = [], []
    except (ParseError, csv.Error) as exc:
        if records:
            yield numbers, records
        if isinstance(exc, csv.Error):  # at the line its record starts on
            raise ParseError(str(path), start, str(exc)) from None
        raise
    if records:
        yield numbers, records


def _below_header(path: Path) -> tuple[list[str] | None, Iterator[tuple[list[int], list[list[str]]]]]:
    """A CSV file's first record, or None, and the blocks of read_csv below it."""
    blocks = read_csv(path)
    numbers, records = next(blocks, ([], [None]))
    return records[0], chain([(numbers[1:], records[1:])], blocks)


def checked_blocks(path: Path, blocks: Iterable[Columns], *tables) -> Iterator[Columns]:
    """Each block of rows in blocks, with their lines as column "line", once
    its rows keep every rule of tables. A table is checked on the rows above
    the first bad row of those before it, so the error is that of the
    smallest bad row and the first table, and in it the first rule, that it
    breaks: a ParseError at its line. A block's `seen` is the post ids above
    it."""
    seen: set = set()
    for block in blocks:
        block.seen, broken = seen, None
        for table in tables:
            broken = first_break(table, block.head(broken[0]) if broken else block) or broken
        if broken:
            raise ParseError(str(path), block["line"][broken[0]], str(broken[1]))
        seen.update(block.get("post_id", ()))
        yield block


# --- the two corpus formats ----------------------------------------------------

_POST_HEADER = ["post_id", "target_text", "parent_text"]


def read_rows(path: Path, format: str, keys: Sequence[str], derive: dict | None = None) -> Iterator[Columns]:
    """Columns of keys, and of the rows' lines as "line", per block of a
    JSONL file's objects or of the nonblank records of a CSV file whose
    header row is keys. A CSV record not as wide as keys is a ParseError,
    raised after the rows above it were yielded."""
    if format == "jsonl":
        for numbers, objs in read_jsonl(path):
            yield Columns({"line": numbers, **{key: list(map(dict.get, objs, repeat(key))) for key in keys}}, derive)
        return
    if format != "csv":
        raise CorpusError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")
    header, blocks = _below_header(path)
    if header != keys:
        raise ParseError(str(path), 1, "missing header row" if header is None else f"expected header {keys}, got {header}")
    for numbers, records in blocks:
        numbers, records = list(compress(numbers, records)), list(filter(None, records))
        bad = next(compress(count(), map(len(keys).__ne__, map(len, records))), len(records))
        if bad:
            yield Columns({"line": numbers[:bad], **dict(zip(keys, zip(*records[:bad])))}, derive)
        if bad < len(records):
            raise ParseError(str(path), numbers[bad], f"expected {len(keys)} fields, got {len(records[bad])}")


_NO_JUDGMENTS = "annotation for post {post_id!r} ({condition}) has no judgments"
_RECORD_RULES = (
    type_rule("post_id", {str}, "field 'post_id' must be a string"),
    type_rule("condition", {str}, "field 'condition' must be a string"),
    (lambda block: _CONDITION_VALUES.issuperset(block["condition"]), "unknown condition {condition!r}"),
    type_rule("judgments", {list}, "judgments must be a list"),
    (lambda block: all(block["judgments"]), _NO_JUDGMENTS),
)
# A record's judgments, one row each, and the fields read from them.
_JUDGMENT_RULES = (
    type_rule("judgment", {dict}, "judgment entries must be objects"),
    (lambda block: set(map(type, labels := block["label"])) <= {str} and _LABEL_CODES.keys() >= set(labels), "unknown label {label!r}"),
    type_rule("parent_helpful", _HELPFUL_TYPES, "parent_helpful must be true, false, or null"),
)
_JUDGMENT_FIELDS = {key: lambda block, key=key: list(map(dict.get, block["judgment"], repeat(key))) for key in ("label", "parent_helpful")}
# _JUDGMENT_RULES as a rule over records, which a record breaks where one of its judgments does
_JUDGMENTS = ((lambda block: not first_break(_JUDGMENT_RULES, block["judgment rows"]), lambda row: str(first_break(_JUDGMENT_RULES, row.block["judgment rows"])[1])),)
# A CSV record's parent_helpful slots, checked after its labels: one per label, or none for all null.
_SLOT_RULES = (
    (lambda block: list(map(len, block["slots"])) == list(map(len, block["judgments"])), lambda row: f"parent_helpful has {len(row['slots'])} slots for {len(row['judgments'])} labels"),
    (lambda block: _HELPFUL_SLOTS.keys() >= set(chain.from_iterable(block["slots"])), lambda row: f"bad parent_helpful slot {next(s for s in row['slots'] if s not in _HELPFUL_SLOTS)!r}"),
)
# A CSV record's judgments in the JSONL record shape, where a slot that is missing or bad reads as null; and the judgments of a block, one row each.
_ANNOTATION_FIELDS = {
    "judgments": lambda block: [
        [{"label": label, "parent_helpful": _HELPFUL_SLOTS.get(slot)} for label, slot in zip(labels.split("|"), chain(slots.split("|"), repeat("")))] if labels else []
        for labels, slots in zip(block["labels"], block["parent_helpful"])
    ],
    "slots": lambda block: [slots.split("|") if slots else [""] * len(judgments) for slots, judgments in zip(block["parent_helpful"], block["judgments"])],
    "judgment rows": lambda block: Columns({"judgment": list(chain.from_iterable(block["judgments"]))}, _JUDGMENT_FIELDS),
}
# An annotation record's keys, and its slot rules, per format
_ANNOTATION_FORMATS = {"jsonl": (["post_id", "condition", "judgments"], ()), "csv": (["post_id", "condition", "labels", "parent_helpful"], _SLOT_RULES)}


def _read_table(path: Path, format: str, condition: Condition) -> AnnotationTable:
    """One annotation file as a table, its records checked in blocks against
    _RECORD_RULES, then _JUDGMENT_RULES and then, in CSV, _SLOT_RULES: so a
    CSV record's labels are checked before its slots, and both before the
    records below it."""
    keys, slot_rules = _ANNOTATION_FORMATS.get(format, ((), ()))  # read_rows rejects an unknown format
    columns = [], [], array("b"), array("b"), array("q")
    for block in checked_blocks(path, read_rows(path, format, keys, _ANNOTATION_FIELDS), _RECORD_RULES, _JUDGMENTS, slot_rules):
        judgments = block["judgment rows"]
        labels, helpful = map(_LABEL_CODES.__getitem__, judgments["label"]), map(_HELPFUL_CODES.__getitem__, judgments["parent_helpful"])
        for column, values in zip(columns, (block["post_id"], block["condition"], labels, helpful, map(len, block["judgments"]))):
            column.extend(values)
    post_ids, conditions, labels, helpful, lengths = columns
    foreign = next(compress(count(), map(condition.value.__ne__, conditions)), -1)
    return AnnotationTable(condition, post_ids, labels, helpful, np.cumsum([0, *lengths]), foreign)


# --- public loaders --------------------------------------------------------


def load_bundle(
    posts_path: str | Path,
    ic_path: str | Path,
    oc_path: str | Path,
    format: str = "jsonl",
) -> DatasetBundle:
    """Load and validate a corpus from its three files.

    The files are parsed in the order posts, ic, oc, so the first bad one
    raises, and all three before the cross-file checks. Raises ParseError
    (with source and line), DuplicateRecordError, DanglingReferenceError,
    or CorpusError; anything schema-conformant loads.
    """
    return DatasetBundle(
        _read_posts(posts_path, format),
        _read_table(Path(ic_path), format, Condition.IN_CONTEXT),
        _read_table(Path(oc_path), format, Condition.OUT_OF_CONTEXT),
    )


def _json(path: Path, obj, indent: int | None = None) -> str:
    try:
        return json.dumps(obj, indent=indent, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity
        raise OutputError(f"{path}: {exc}") from None


def write_json(path: Path, obj) -> None:
    """Indented JSON, UTF-8, non-ASCII kept as is."""
    path.write_text(_json(path, obj, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: Path, objs: Iterable[dict]) -> None:
    """One JSON object per line, UTF-8, non-ASCII kept as is, written a
    block of lines at a time."""
    encode, objs = json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode, iter(objs)
    with path.open("w", encoding="utf-8") as handle:
        while block := list(islice(objs, 1024)):
            try:
                handle.write("\n".join(map(encode, block)) + "\n")
            except ValueError as exc:  # a NaN or an infinity
                raise OutputError(f"{path}: {exc}") from None


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header row, then the rows, RFC 4180 quoting."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def load_posts(path: str | Path, format: str = "jsonl") -> PostTable:
    """Load a standalone posts file (e.g. an unlabeled sampling pool)."""
    return _read_posts(path, format)


def _read_posts(path: str | Path, format: str) -> PostTable:
    """A posts file as a table, its rows checked in blocks against
    POST_RULES: the first bad row in file order is a ParseError at its line,
    a repeated post_id included. load_bundle calls this, not load_posts, so
    that perfbench's wrapper on load_posts counts standalone pools only."""
    path, columns = Path(path), ([], [], [])
    for block in checked_blocks(path, read_rows(path, format, _POST_HEADER, POST_TEXTS), POST_RULES):
        for column, key in zip(columns, _POST_HEADER):
            column.extend(block[key])
    return kept_posts(*columns)


_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "t"), True), **dict.fromkeys(("false", "0", "no", "f"), False)}
# A group column's rows are every record below the header, blank ones included.
_BOOL_FIELDS = {
    "cell": lambda block: list(map(itemgetter(0), filter(None, block["record"]))),  # the first field of each nonblank record
    "boolean": lambda block: {cell: _BOOLEANS.get(cell.strip().lower()) for cell in set(block["cell"])},  # None if none
}
_BOOL_RULES = ((lambda block: None not in block["boolean"].values(), lambda row: f"not a boolean: {row['record'][0]!r}"),)


def load_bool_column(path: str | Path) -> list[bool]:
    """The first column of a CSV file with a header row, as booleans
    (true/false, 1/0, yes/no or t/f in any case); blank rows are skipped."""
    path = Path(path)
    header, blocks = _below_header(path)
    if header is None:
        raise ParseError(str(path), 1, "empty file")
    values, line = [], 1
    for block in checked_blocks(path, (Columns({"line": numbers, "record": records}, _BOOL_FIELDS) for numbers, records in blocks), _BOOL_RULES):
        values += map(block["boolean"].__getitem__, block["cell"])
        line = (block["line"] or [line])[-1]
    if not values:
        raise ParseError(str(path), line, "no data rows")
    return values


# --- released-data adapter ---------------------------------------------------


@dataclass(frozen=True)
class ScoreTableColumns:
    """Column names for a wide per-post CSV carrying aggregate toxicity scores.

    Adapter for externally released data where per-rater judgments are not
    available and only per-condition aggregate scores exist. Scores may be
    fractions in [0, 1] or percentages in [0, 100]; percentages are detected
    per file (any value > 1) and rescaled.
    """

    post_id: str = "id"
    target_text: str = "text"
    parent_text: str = "parent"
    oc_score: str = "toxicity_oc"
    ic_score: str = "toxicity_ic"


@dataclass(frozen=True)
class ScoredRow:
    post_id: str
    target_text: str
    parent_text: str | None
    s_oc: float
    s_ic: float

    @property
    def delta(self) -> float:
        return self.s_oc - self.s_ic


def _scores(block: Columns) -> np.ndarray | ValueError | TypeError:
    """The (oc, ic) scores of a block's rows as float64 rows, or the error
    converting the first cell, in row order, that is not a number."""
    try:
        return np.array([(float(oc), float(ic)) for oc, ic in zip(block["oc"], block["ic"])]).reshape(-1, 2)
    except (TypeError, ValueError) as exc:
        return exc


def load_score_table(path: str | Path, columns: ScoreTableColumns | None = None) -> list[ScoredRow]:
    """Read a released-data CSV into per-post aggregate score rows. A score
    that is not a number in [0, 100] (nan, inf, negative, above 100) and a
    blank, missing or repeated post id are each a ParseError naming file:line."""
    columns = columns or ScoreTableColumns()
    path = Path(path)
    header, blocks = _below_header(path)
    if header is None:
        raise ParseError(str(path), 1, "missing header row")
    if missing := [c for c in (columns.post_id, columns.oc_score, columns.ic_score) if c not in header]:
        raise ParseError(str(path), 1, f"missing required columns {missing}; found {header}")
    names = {"post_id": columns.post_id, "target_text": columns.target_text, "parent_text": columns.parent_text, "oc": columns.oc_score, "ic": columns.ic_score}
    rules = (
        (lambda block: all(post_id and post_id.strip() for post_id in block["post_id"]), lambda row: f"missing or blank {columns.post_id!r}"),
        (lambda block: len(set(ids := block["post_id"])) == len(ids) and block.seen.isdisjoint(ids), "duplicate post id {post_id!r}"),
        (lambda block: not isinstance(block["scores"], Exception), lambda row: f"non-numeric score: {row.block['scores']}"),  # row.block ends at this row
        (lambda block: ((0.0 <= block["scores"]) & (block["scores"] <= 100.0)).all(), lambda row: f"scores {float(row['oc'])}, {float(row['ic'])} must both lie in [0, 100]"),
    )

    def block(numbers: list[int], records: list[list[str]]) -> Columns:  # a cell past the end of a short record reads as None
        cells = [dict(zip(header, record + [None] * (len(header) - len(record)))) for record in records if record]
        return Columns({"line": list(compress(numbers, records)), **{key: list(map(dict.get, cells, repeat(name))) for key, name in names.items()}}, {"scores": _scores})

    rows = []
    for scored in checked_blocks(path, (block(*blocked) for blocked in blocks), rules):
        texts, parents = (text or "" for text in scored["target_text"]), (text or None for text in scored["parent_text"])
        rows += map(ScoredRow, scored["post_id"], texts, parents, *scored["scores"].T.tolist())
    if any(r.s_oc > 1.0 or r.s_ic > 1.0 for r in rows):
        rows = [replace(row, s_oc=row.s_oc / 100.0, s_ic=row.s_ic / 100.0) for row in rows]
    return rows
