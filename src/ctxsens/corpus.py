"""Posts and dual-condition annotations: loading and validation.

A corpus is three files: one posts file and two annotation files (one per
rating condition). JSONL is the canonical format; CSV is an import/export
convenience with RFC-4180 quoting. Text is stored verbatim; normalization is
the featurizer's job.

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
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
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
_HELPFUL_SLOTS = {"": -1, "false": 0, "true": 1}  # CSV


class CorpusError(ValueError):
    """Base class for corpus schema/validation failures."""


class ParseError(CorpusError):
    """Malformed line or field. Carries the source path and line number."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


class DuplicateRecordError(CorpusError):
    pass


class DanglingReferenceError(CorpusError):
    pass


class EmptyJudgmentsError(CorpusError):
    pass


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


def posts_at(source: str, rows: Sequence[tuple]) -> PostTable:
    """The PostTable of (line, post_id, target_text, parent_text) rows read
    from source; a row that it rejects is a ParseError at its line."""
    lines, *columns = zip(*rows) if rows else ((),) * 4
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


def _read_table(path: Path, format: str, condition: Condition) -> AnnotationTable:
    """One annotation file as a table, for either format: its parser turns
    a row into (post_id, condition, label codes, helpful codes)."""
    rows, parse = _readers(format)[2:]
    source, post_ids = str(path), []
    labels, helpful, offsets, foreign = array("b"), array("b"), array("q", [0]), -1
    for n, row in rows(path):
        post_id, row_condition, row_labels, row_helpful = parse(row, source, n)
        if row_condition != condition.value and foreign < 0:
            foreign = len(post_ids)
        post_ids.append(post_id)
        labels.extend(row_labels)
        helpful.extend(row_helpful)
        offsets.append(len(labels))
    return AnnotationTable(condition, post_ids, labels, helpful, offsets, foreign)


# --- JSONL -----------------------------------------------------------------


def _annotation_from_obj(obj: dict, source: str, line: int) -> tuple:
    post_id = _str(obj, "post_id", source, line)
    condition = _str(obj, "condition", source, line)
    if condition not in _CONDITION_VALUES:
        raise ParseError(source, line, f"unknown condition {condition!r}")
    raw = obj.get("judgments")
    if not isinstance(raw, list):
        raise ParseError(source, line, "judgments must be a list")
    if not raw:
        raise ParseError(source, line, f"annotation for post {post_id!r} ({condition}) has no judgments")
    try:
        labels = [_LABEL_CODES[item["label"]] for item in raw]
        helpful = [item.get("parent_helpful") for item in raw]
    except (KeyError, TypeError):  # an entry that is no object, or a label that is no known string
        labels = helpful = None
    if labels is None or not _HELPFUL_TYPES.issuperset(map(type, helpful)):
        for item in raw:  # report the first bad entry
            if not isinstance(item, dict):
                raise ParseError(source, line, "judgment entries must be objects")
            label = item.get("label")
            if not isinstance(label, str) or label not in _LABEL_CODES:
                raise ParseError(source, line, f"unknown label {label!r}")
            if type(item.get("parent_helpful")) not in _HELPFUL_TYPES:
                raise ParseError(source, line, "parent_helpful must be true, false, or null")
    return post_id, condition, labels, map(_HELPFUL_CODES.__getitem__, helpful)


def _str(obj: dict, key: str, source: str, line: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ParseError(source, line, f"field {key!r} must be a string")
    return value


def not_utf8(path: Path) -> ParseError:
    """The error for a file that failed to decode as UTF-8, at its first
    undecodable line. Readers call it only once decoding has failed, so a
    good file is read once."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(str(path), line_no, f"not UTF-8: byte {line[exc.start]:#04x} at column {exc.start + 1}")
    return ParseError(str(path), 1, "not UTF-8")


def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    with path.open("r", encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(str(path), line_no, f"invalid JSON: {exc.msg}") from exc
                if not isinstance(obj, dict):
                    raise ParseError(str(path), line_no, "each line must be a JSON object")
                yield line_no, obj
        except UnicodeDecodeError:
            raise not_utf8(path) from None


# --- CSV -------------------------------------------------------------------

_POST_HEADER = ["post_id", "target_text", "parent_text"]
_ANNOTATION_HEADER = ["post_id", "condition", "labels", "parent_helpful"]


def _read_csv_rows(path: Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(str(path), 1, "missing header row")
            if header != expected_header:
                raise ParseError(str(path), 1, f"expected header {expected_header}, got {header}")
            for row_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise ParseError(str(path), row_no, f"expected {len(expected_header)} fields, got {len(row)}")
                yield row_no, row
        except UnicodeDecodeError:
            raise not_utf8(path) from None


def _annotation_from_csv(row: list[str], source: str, line: int) -> tuple:
    post_id, condition, labels_cell, helpful_cell = row
    if condition not in _CONDITION_VALUES:
        raise ParseError(source, line, f"unknown condition {condition!r}")
    if labels_cell == "":
        raise ParseError(source, line, f"annotation for post {post_id!r} has no judgments")
    try:
        labels = [_LABEL_CODES[label] for label in labels_cell.split("|")]
    except KeyError as exc:
        raise ParseError(source, line, f"unknown label {exc.args[0]!r}") from None
    slots = helpful_cell.split("|") if helpful_cell else [""] * len(labels)
    if len(slots) != len(labels):
        raise ParseError(source, line, f"parent_helpful has {len(slots)} slots for {len(labels)} labels")
    try:
        return post_id, condition, labels, [_HELPFUL_SLOTS[slot] for slot in slots]
    except KeyError as exc:
        raise ParseError(source, line, f"bad parent_helpful slot {exc.args[0]!r}") from None


# --- public loaders --------------------------------------------------------


def _readers(format: str) -> tuple:
    """(posts rows, post fields of a row, annotation rows, annotation parser) of a file format."""
    if format == "jsonl":
        return _iter_jsonl, lambda obj: tuple(map(obj.get, _POST_HEADER)), _iter_jsonl, _annotation_from_obj
    if format == "csv":
        csv_rows = lambda header: partial(_read_csv_rows, expected_header=header)  # noqa: E731
        return csv_rows(_POST_HEADER), tuple, csv_rows(_ANNOTATION_HEADER), _annotation_from_csv
    raise CorpusError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")


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
    posts = _read_posts(posts_path, format)
    ic = _read_table(Path(ic_path), format, Condition.IN_CONTEXT)
    oc = _read_table(Path(oc_path), format, Condition.OUT_OF_CONTEXT)
    return DatasetBundle(posts, ic, oc)


def write_jsonl(path: Path, objs: Iterable[dict]) -> None:
    """One JSON object per line, UTF-8, non-ASCII kept as is."""
    with path.open("w", encoding="utf-8") as handle:
        for obj in objs:
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


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
    path, (rows, fields_of) = Path(path), _readers(format)[:2]
    records: list[tuple] = []
    try:
        for n, row in rows(path):
            records.append((n, *fields_of(row)))
    finally:  # rows above a line that fails to parse are checked first
        posts = posts_at(str(path), records)
    return posts


_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "t"), True), **dict.fromkeys(("false", "0", "no", "f"), False)}


def load_bool_column(path: str | Path) -> list[bool]:
    """The first column of a CSV file with a header row, as booleans
    (true/false, 1/0, yes/no or t/f in any case); blank rows are skipped."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        try:
            rows = list(csv.reader(handle))
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    if not rows:
        raise ParseError(str(path), 1, "empty file")
    values = []
    for row_no, row in enumerate(rows[1:], start=2):
        if row:
            cell = row[0].strip().lower()
            if cell not in _BOOLEANS:
                raise ParseError(str(path), row_no, f"not a boolean: {row[0]!r}")
            values.append(_BOOLEANS[cell])
    if not values:
        raise ParseError(str(path), len(rows), "no data rows")
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
    with path.open("r", encoding="utf-8", newline="") as handle:
        try:
            reader = csv.DictReader(handle)
            header, table = reader.fieldnames, list(reader)
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    if header is None:
        raise ParseError(str(path), 1, "missing header row")
    missing = [c for c in (columns.post_id, columns.oc_score, columns.ic_score) if c not in header]
    if missing:
        raise ParseError(str(path), 1, f"missing required columns {missing}; found {header}")
    rows, seen = [], set()
    for row_no, row in enumerate(table, start=2):
        post_id = row[columns.post_id]
        if post_id is None or not post_id.strip():
            raise ParseError(str(path), row_no, f"missing or blank {columns.post_id!r}")
        if post_id in seen:
            raise ParseError(str(path), row_no, f"duplicate post id {post_id!r}")
        seen.add(post_id)
        try:
            s_oc = float(row[columns.oc_score])
            s_ic = float(row[columns.ic_score])
        except (TypeError, ValueError) as exc:
            raise ParseError(str(path), row_no, f"non-numeric score: {exc}") from exc
        if not (0.0 <= s_oc <= 100.0 and 0.0 <= s_ic <= 100.0):  # false for nan too
            raise ParseError(str(path), row_no, f"scores {s_oc}, {s_ic} must both lie in [0, 100]")
        rows.append(
            ScoredRow(
                post_id=post_id,
                target_text=row.get(columns.target_text) or "",
                parent_text=row.get(columns.parent_text) or None,
                s_oc=s_oc,
                s_ic=s_ic,
            )
        )
    if any(r.s_oc > 1.0 or r.s_ic > 1.0 for r in rows):
        rows = [
            ScoredRow(r.post_id, r.target_text, r.parent_text, r.s_oc / 100.0, r.s_ic / 100.0)
            for r in rows
        ]
    return rows
