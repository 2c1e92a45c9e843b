"""Posts and dual-condition annotations: loading and validation.

A corpus is three files: one posts file and two annotation files (one per
rating condition). JSONL is the canonical format; CSV is an import/export
convenience with RFC-4180 quoting. Text is stored verbatim; normalization is
the featurizer's job.

Every input file is read through `read_blocks`, which numbers lines and checks
UTF-8 a block at a time, and through `read_jsonl` or `read_csv` on top of it;
a CSV record's line is the one it starts on, as a quoted field may span lines.
A JSONL block is checked a column at a time, and row by row only where that
fails, so the first bad row in file order keeps its message and `file:line`.

Posts are one columnar `PostTable` and each condition's annotations one
columnar `AnnotationTable`, not an object per judgment: the post ids in file
order, an int8 label code per judgment, an int8 parent-helpful flag per
judgment (-1 for null) and int64 CSR-style offsets, one per record plus one.
Both loaders fill it through `_read_table`; scores, agreement and
helpful-vote majorities are per-record counts over its arrays.
"""

from __future__ import annotations

import copy
import csv
import json
from array import array
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _fork


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
_HELPFUL_SLOTS = {"": -1, "false": 0, "true": 1}  # CSV


class CorpusError(ValueError):
    """Base class for corpus schema/validation failures."""


class ParseError(CorpusError):
    """Malformed line or field. Carries the source path and line number."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source, self.line, self.message = source, line, message

    def __reduce__(self):  # so that it survives a pickle round trip, as from a forked part
        return type(self), (self.source, self.line, self.message), vars(self)


class DuplicateRecordError(CorpusError):
    pass


class DanglingReferenceError(CorpusError):
    pass


class EmptyJudgmentsError(CorpusError):
    pass


class OutputError(RuntimeError):
    """A value that JSON cannot hold, NaN or an infinity, bound for an output file."""


@dataclass(frozen=True)
class PostTable:
    """Posts as read-only columns, row i being post post_ids[i] with its
    target text and its parent's text, or None, which an empty one becomes.

    Ids are unique and nonempty, target texts not blank, and no text holds
    a NUL or a lone surrogate. The first row that breaks a rule raises its
    error, with its index as `row`.
    """

    post_ids: tuple[str, ...]
    target_texts: tuple[str, ...]
    parent_texts: tuple[str | None, ...]

    def __post_init__(self) -> None:
        ids, targets, parents = tuple(self.post_ids), tuple(self.target_texts), tuple(self.parent_texts)
        if not len(ids) == len(targets) == len(parents):
            raise ValueError("columns differ in length")
        if not _posts_pass(ids, targets, parents):  # then the rows are checked one by one
            seen: set[str] = set()
            for row, (post_id, target, parent) in enumerate(zip(ids, targets, parents)):
                if error := _row_error(post_id, target, parent, seen):
                    error.row = row
                    raise error
                seen.add(post_id)
        object.__setattr__(self, "post_ids", ids)
        object.__setattr__(self, "target_texts", targets)
        object.__setattr__(self, "parent_texts", tuple(parent or None for parent in parents))

    def __len__(self) -> int:
        return len(self.post_ids)

    def take(self, idx) -> PostTable:
        """The rows idx (distinct row indices), in that order. They passed
        every check as rows of this table, so they are not checked again."""
        rows = np.asarray(idx, dtype=np.int64).tolist()
        subset = copy.copy(self)
        for name in ("post_ids", "target_texts", "parent_texts"):
            object.__setattr__(subset, name, tuple(map(getattr(self, name).__getitem__, rows)))
        return subset


def _row_error(post_id, target, parent, seen: set[str]) -> CorpusError | None:
    """The error of the first check that a row fails, in this order, or None."""
    for key, value in (("post_id", post_id), ("target_text", target)):
        if not isinstance(value, str):
            return CorpusError(f"field {key!r} must be a string")
    if parent is not None and not isinstance(parent, str):
        return CorpusError("field 'parent_text' must be a string or null")
    if not post_id:
        return CorpusError("post_id must be nonempty")
    if not target.strip():
        return CorpusError(f"post {post_id!r}: target_text is blank")
    for name, value in (("post_id", post_id), ("target_text", target), ("parent_text", parent or "")):
        if "\x00" in value:
            return CorpusError(f"post {post_id!r}: {name} contains a NUL character")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            return CorpusError(f"post {post_id!r}: {name} is not valid UTF-8: {exc}")
    return DuplicateRecordError(f"duplicate post_id {post_id!r}") if post_id in seen else None


def only_types(kinds: set, *columns) -> bool:
    """Whether the type of every value of the columns is one of kinds."""
    return all(set(map(type, column)) <= kinds for column in columns)


def _posts_pass(ids, targets, parents) -> bool:
    """Whether every row passes _row_error, checked a column at a time; a
    value that is not a string fails str.strip, set or str.join."""
    texts = map("".join, (ids, targets, [parent for parent in parents if parent is not None]))
    try:
        return all(ids) and all(map(str.strip, targets)) and len(set(ids)) == len(ids) and not any(
            "\x00" in text or _not_utf8(text) for text in texts)
    except TypeError:
        return False


def posts_at(source: str, lines: Sequence[int], *columns) -> PostTable:
    """The PostTable of post_id, target_text and parent_text columns read
    from source, row i from line lines[i]; a row that it rejects is a
    ParseError at its line."""
    try:
        return PostTable(*columns)
    except CorpusError as exc:
        raise ParseError(source, lines[exc.row], str(exc)) from exc


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
            raise EmptyJudgmentsError(f"annotation for post {post_id!r} ({self.condition.value}) has no judgments")

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
        tables = ((self.ic_annotations, Condition.IN_CONTEXT), (self.oc_annotations, Condition.OUT_OF_CONTEXT))
        for table, expected in tables:
            foreign = table.foreign if table.condition is expected else 0
            if foreign < 0 and post_ids.issuperset(table.post_ids) and len(set(table.post_ids)) == len(table.post_ids):
                continue  # else the records are checked one by one
            seen: set[str] = set()
            for i, post_id in enumerate(table.post_ids):
                if i == foreign:
                    other = next(c for c in Condition if c is not expected)
                    raise CorpusError(
                        f"record for post {post_id!r} has condition {other.value!r}, expected {expected.value!r}"
                    )
                if post_id not in post_ids:
                    raise DanglingReferenceError(f"annotation references unknown post_id {post_id!r}")
                if post_id in seen:
                    raise DuplicateRecordError(f"duplicate ({post_id!r}, {expected.value}) annotation record")
                seen.add(post_id)


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


def read_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of read_blocks(path), for CSV and --config."""
    for first, block in read_blocks(path):
        yield from enumerate(block, first)


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


def read_csv(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line the record starts on, fields) for each record of a CSV file in
    RFC 4180 quoting, where a quoted field may span lines; a blank line is a
    record of no fields."""
    reader = csv.reader(map(itemgetter(1), read_lines(path)))
    line_no = 1
    for record in reader:
        yield line_no, record
        line_no = reader.line_num + 1


def read_files(*reads: tuple) -> list:
    """[read(path, *args) for read, path, *args in reads], at once in
    contiguous parts (_fork.bounds) while the files hold lines enough. The
    last part runs here, so that what it reads is not sent back. The first
    read in order that fails raises, once every part has ended."""
    lines, enough = 0, _fork._LEAST_WORK * min(_fork.cpu_count(), len(reads))
    for _, path, *_ in reads if enough > _fork._LEAST_WORK else ():  # counted as far as it matters
        with open(path, "rb") as handle:
            while lines < enough and (chunk := handle.read(1 << 20)):
                lines += chunk.count(b"\n")
    ends, backwards = _fork.bounds(len(reads), lines), reads[::-1]

    def part(index: int) -> list | Exception:  # part 0 has the last reads
        try:
            return [read(*args) for read, *args in reversed(backwards[ends[index] : ends[index + 1]])]
        except Exception as exc:  # raised below, unless an earlier file's error is
            return exc

    parts = _fork.run(part, len(ends) - 1)[::-1]  # in file order
    if error := next((done for done in parts if isinstance(done, Exception)), None):
        raise error
    return [value for done in parts for value in done]


def _parse_rows(path: Path, rows: Iterable[tuple[int, Any]], parse: Callable[[Any], Any]) -> Iterator:
    """parse(row) for each (line number, row) of rows; a CorpusError that
    parse raises is a ParseError at the row's line."""
    for line_no, row in rows:
        try:
            yield parse(row)
        except CorpusError as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc


# --- the two corpus formats ----------------------------------------------------

_POST_HEADER = ["post_id", "target_text", "parent_text"]
_ANNOTATION_HEADER = ["post_id", "condition", "labels", "parent_helpful"]


def _read_csv_rows(path: Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The nonblank records below a CSV file's header row, which must be
    header, each as wide as header."""
    records = read_csv(path)
    _, found = next(records, (1, None))
    if found != header:
        raise ParseError(str(path), 1, "missing header row" if found is None else f"expected header {header}, got {found}")
    for line_no, row in records:
        if row:
            if len(row) != len(header):
                raise ParseError(str(path), line_no, f"expected {len(header)} fields, got {len(row)}")
            yield line_no, row


def _blocks(path: Path, format: str, header: list[str]) -> Iterator[tuple[Sequence[int], list[dict]]]:
    """(line numbers, rows as objects) per block of a JSONL file, or per
    record of a CSV file, keyed by header."""
    if format == "jsonl":
        return read_jsonl(path)
    if format == "csv":
        return (((line_no,), [dict(zip(header, row))]) for line_no, row in _read_csv_rows(path, header))
    raise CorpusError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")


def _annotation_from_obj(obj: dict) -> tuple:
    post_id, condition, raw = map(obj.get, ("post_id", "condition", "judgments"))
    for key, value in (("post_id", post_id), ("condition", condition)):
        if not isinstance(value, str):
            raise CorpusError(f"field {key!r} must be a string")
    if condition not in _CONDITION_VALUES:
        raise CorpusError(f"unknown condition {condition!r}")
    if not isinstance(raw, list):
        raise CorpusError("judgments must be a list")
    if not raw:
        raise CorpusError(f"annotation for post {post_id!r} ({condition}) has no judgments")
    for item in raw:  # the first bad entry raises
        if not isinstance(item, dict):
            raise CorpusError("judgment entries must be objects")
        label = item.get("label")
        if not isinstance(label, str) or label not in _LABEL_CODES:
            raise CorpusError(f"unknown label {label!r}")
        if type(item.get("parent_helpful")) not in _HELPFUL_TYPES:
            raise CorpusError("parent_helpful must be true, false, or null")
    return post_id, condition, [_LABEL_CODES[item["label"]] for item in raw], [_HELPFUL_CODES[item.get("parent_helpful")] for item in raw]


def _annotation_from_csv(row: dict) -> tuple:
    post_id, condition, labels_cell, helpful_cell = row.values()
    if condition not in _CONDITION_VALUES:
        raise CorpusError(f"unknown condition {condition!r}")
    if labels_cell == "":
        raise CorpusError(f"annotation for post {post_id!r} has no judgments")
    try:
        labels = [_LABEL_CODES[label] for label in labels_cell.split("|")]
    except KeyError as exc:
        raise CorpusError(f"unknown label {exc.args[0]!r}") from None
    slots = helpful_cell.split("|") if helpful_cell else [""] * len(labels)
    if len(slots) != len(labels):
        raise CorpusError(f"parent_helpful has {len(slots)} slots for {len(labels)} labels")
    try:
        return post_id, condition, labels, [_HELPFUL_SLOTS[slot] for slot in slots]
    except KeyError as exc:
        raise CorpusError(f"bad parent_helpful slot {exc.args[0]!r}") from None


def _annotation_columns(objs: list[dict]) -> tuple | None:
    """The _columns of a block of annotation objects, checked a column at a
    time, or None when a row may break a rule of _annotation_from_obj."""
    post_ids, conditions, raws = (list(map(dict.get, objs, repeat(key))) for key in ("post_id", "condition", "judgments"))
    try:  # a value of the wrong JSON type is a TypeError or an AttributeError, an unknown label a KeyError
        labels = [_LABEL_CODES[item["label"]] for raw in raws for item in raw]
        helpful = [item.get("parent_helpful") for raw in raws for item in raw]
        passed = _CONDITION_VALUES.issuperset(conditions) and all(raws) and only_types({str}, post_ids)
    except (TypeError, AttributeError, KeyError):
        return None
    if passed and only_types({list}, raws) and only_types(_HELPFUL_TYPES, helpful):
        return post_ids, conditions, labels, map(_HELPFUL_CODES.__getitem__, helpful), map(len, raws)
    return None


def _columns(rows: Iterable[tuple]) -> tuple:
    """(post ids, conditions, label codes, helpful codes, judgment counts) of
    a nonempty block of (post_id, condition, label codes, helpful codes) rows."""
    post_ids, conditions, labels, helpful = zip(*rows)
    return post_ids, conditions, chain.from_iterable(labels), chain.from_iterable(helpful), map(len, labels)


def _read_table(path: Path, format: str, condition: Condition) -> AnnotationTable:
    """One annotation file as a table, a block's columns taken at once, or
    else row by row by the format's parser, as (post_id, condition, label
    codes, helpful codes)."""
    parse = _annotation_from_obj if format == "jsonl" else _annotation_from_csv
    columns = [], [], array("b"), array("b"), array("q")
    for numbers, rows in _blocks(path, format, _ANNOTATION_HEADER):
        block = format == "jsonl" and _annotation_columns(rows) or _columns(_parse_rows(path, zip(numbers, rows), parse))
        for column, values in zip(columns, block):
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

    All three files are parsed before the cross-file checks. Raises
    ParseError (with source and line), DuplicateRecordError,
    DanglingReferenceError, or CorpusError; anything schema-conformant loads.
    """
    ic, oc = (_read_table, Path(ic_path), format, Condition.IN_CONTEXT), (_read_table, Path(oc_path), format, Condition.OUT_OF_CONTEXT)
    return DatasetBundle(*read_files((_read_posts, Path(posts_path), format), ic, oc))


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
    """A posts file as a table. The first bad row in file order is a
    ParseError at its line, a repeated post_id included. load_bundle calls
    this, not load_posts, so that perfbench's wrapper on load_posts counts
    standalone pools only."""
    path, columns = Path(path), (array("q"), [], [], [])  # line numbers, then the _POST_HEADER fields
    try:
        for numbers, rows in _blocks(path, format, _POST_HEADER):
            for column, values in zip(columns, (numbers, *(map(dict.get, rows, repeat(key)) for key in _POST_HEADER))):
                column.extend(values)
    finally:  # rows above a line that fails to parse are checked first
        posts = posts_at(str(path), *columns)
    return posts


_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "t"), True), **dict.fromkeys(("false", "0", "no", "f"), False)}


def load_bool_column(path: str | Path) -> list[bool]:
    """The first column of a CSV file with a header row, as booleans
    (true/false, 1/0, yes/no or t/f in any case); blank rows are skipped."""
    path = Path(path)
    records = read_csv(path)
    if next(records, None) is None:
        raise ParseError(str(path), 1, "empty file")
    values, line_no = [], 1
    for line_no, row in records:
        if row:
            cell = row[0].strip().lower()
            if cell not in _BOOLEANS:
                raise ParseError(str(path), line_no, f"not a boolean: {row[0]!r}")
            values.append(_BOOLEANS[cell])
    if not values:
        raise ParseError(str(path), line_no, "no data rows")
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


def load_score_table(path: str | Path, columns: ScoreTableColumns | None = None) -> list[ScoredRow]:
    """Read a released-data CSV into per-post aggregate score rows. A score
    that is not a number in [0, 100] (nan, inf, negative, above 100) and a
    blank, missing or repeated post id are each a ParseError naming file:line."""
    columns = columns or ScoreTableColumns()
    path = Path(path)
    records = read_csv(path)
    _, header = next(records, (1, None))
    if header is None:
        raise ParseError(str(path), 1, "missing header row")
    if missing := [c for c in (columns.post_id, columns.oc_score, columns.ic_score) if c not in header]:
        raise ParseError(str(path), 1, f"missing required columns {missing}; found {header}")
    names = (columns.post_id, columns.target_text, columns.parent_text, columns.oc_score, columns.ic_score)
    seen: set[str] = set()

    def scored(row: list[str]) -> ScoredRow:
        # a cell past the end of a short row reads as None
        cells = dict(zip(header, row + [None] * (len(header) - len(row))))
        post_id, target_text, parent_text, oc, ic = map(cells.get, names)
        if post_id is None or not post_id.strip():
            raise CorpusError(f"missing or blank {columns.post_id!r}")
        if post_id in seen:
            raise CorpusError(f"duplicate post id {post_id!r}")
        seen.add(post_id)
        try:
            s_oc, s_ic = float(oc), float(ic)
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"non-numeric score: {exc}") from exc
        if not (0.0 <= s_oc <= 100.0 and 0.0 <= s_ic <= 100.0):  # false for nan too
            raise CorpusError(f"scores {s_oc}, {s_ic} must both lie in [0, 100]")
        return ScoredRow(post_id, target_text or "", parent_text or None, s_oc, s_ic)

    rows = list(_parse_rows(path, (record for record in records if record[1]), scored))
    if any(r.s_oc > 1.0 or r.s_ic > 1.0 for r in rows):
        rows = [replace(row, s_oc=row.s_oc / 100.0, s_ic=row.s_ic / 100.0) for row in rows]
    return rows
