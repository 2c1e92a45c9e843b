"""Posts and dual-condition annotation records: loading, validation, persistence.

A corpus is three files: one posts file and two annotation files (one per
rating condition). JSONL is the canonical format; CSV is an import/export
convenience with RFC-4180 quoting. Text is stored verbatim; normalization is
the featurizer's job.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence


class Label(str, Enum):
    NON_TOXIC = "non_toxic"
    UNSURE = "unsure"
    TOXIC = "toxic"
    VERY_TOXIC = "very_toxic"


class Condition(str, Enum):
    IN_CONTEXT = "ic"
    OUT_OF_CONTEXT = "oc"


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
class Post:
    """A target post and, optionally, the post it replied to.

    An empty parent_text is normalized to None: a parent that carries no text
    is indistinguishable from an absent one. NUL characters are rejected
    (the CSV dialect cannot carry them).
    """

    post_id: str
    target_text: str
    parent_text: str | None = None

    def __post_init__(self) -> None:
        if not self.post_id:
            raise CorpusError("post_id must be nonempty")
        if not self.target_text.strip():
            raise CorpusError(f"post {self.post_id!r}: target_text is blank")
        for name in ("post_id", "target_text", "parent_text"):
            value = getattr(self, name)
            if value is None:
                continue
            if "\x00" in value:
                raise CorpusError(f"post {self.post_id!r}: {name} contains a NUL character")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusError(f"post {self.post_id!r}: {name} is not valid UTF-8: {exc}") from exc
        if self.parent_text == "":
            object.__setattr__(self, "parent_text", None)


@dataclass(frozen=True)
class RaterJudgment:
    label: Label
    parent_helpful: bool | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, Label):
            object.__setattr__(self, "label", Label(self.label))


@dataclass(frozen=True)
class AnnotationRecord:
    """All judgments collected for one post under one rating condition."""

    post_id: str
    condition: Condition
    judgments: tuple[RaterJudgment, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.condition, Condition):
            object.__setattr__(self, "condition", Condition(self.condition))
        object.__setattr__(self, "judgments", tuple(self.judgments))
        if len(self.judgments) == 0:
            raise EmptyJudgmentsError(
                f"annotation for post {self.post_id!r} ({self.condition.value}) has no judgments"
            )


@dataclass(frozen=True)
class DatasetBundle:
    """Validated, immutable join of posts with their IC and OC annotations."""

    posts: tuple[Post, ...]
    ic_annotations: tuple[AnnotationRecord, ...]
    oc_annotations: tuple[AnnotationRecord, ...]
    _posts_by_id: Mapping[str, Post] = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    _ic_by_id: Mapping[str, AnnotationRecord] = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    _oc_by_id: Mapping[str, AnnotationRecord] = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "posts", tuple(self.posts))
        object.__setattr__(self, "ic_annotations", tuple(self.ic_annotations))
        object.__setattr__(self, "oc_annotations", tuple(self.oc_annotations))

        posts_by_id: dict[str, Post] = {}
        for post in self.posts:
            if post.post_id in posts_by_id:
                raise DuplicateRecordError(f"duplicate post_id {post.post_id!r}")
            posts_by_id[post.post_id] = post

        ic_by_id = self._index_annotations(self.ic_annotations, Condition.IN_CONTEXT, posts_by_id)
        oc_by_id = self._index_annotations(self.oc_annotations, Condition.OUT_OF_CONTEXT, posts_by_id)

        object.__setattr__(self, "_posts_by_id", posts_by_id)
        object.__setattr__(self, "_ic_by_id", ic_by_id)
        object.__setattr__(self, "_oc_by_id", oc_by_id)

    @staticmethod
    def _index_annotations(
        records: Sequence[AnnotationRecord],
        expected: Condition,
        posts_by_id: Mapping[str, Post],
    ) -> dict[str, AnnotationRecord]:
        by_id: dict[str, AnnotationRecord] = {}
        for rec in records:
            if rec.condition is not expected:
                raise CorpusError(
                    f"record for post {rec.post_id!r} has condition {rec.condition.value!r}, "
                    f"expected {expected.value!r}"
                )
            if rec.post_id not in posts_by_id:
                raise DanglingReferenceError(
                    f"annotation references unknown post_id {rec.post_id!r}"
                )
            if rec.post_id in by_id:
                raise DuplicateRecordError(
                    f"duplicate ({rec.post_id!r}, {expected.value}) annotation record"
                )
            by_id[rec.post_id] = rec
        return by_id

    def post(self, post_id: str) -> Post:
        return self._posts_by_id[post_id]

    def ic_for(self, post_id: str) -> AnnotationRecord | None:
        return self._ic_by_id.get(post_id)

    def oc_for(self, post_id: str) -> AnnotationRecord | None:
        return self._oc_by_id.get(post_id)

    @property
    def post_ids(self) -> tuple[str, ...]:
        return tuple(p.post_id for p in self.posts)


# --- JSONL -----------------------------------------------------------------


def _post_to_obj(post: Post) -> dict:
    return {
        "post_id": post.post_id,
        "target_text": post.target_text,
        "parent_text": post.parent_text,
    }


def _post_from_obj(obj: dict, source: str, line: int) -> Post:
    try:
        return Post(
            post_id=_require_str(obj, "post_id", source, line),
            target_text=_require_str(obj, "target_text", source, line),
            parent_text=_optional_str(obj, "parent_text", source, line),
        )
    except CorpusError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(source, line, str(exc)) from exc


def _annotation_to_obj(rec: AnnotationRecord) -> dict:
    return {
        "post_id": rec.post_id,
        "condition": rec.condition.value,
        "judgments": [
            {"label": j.label.value, "parent_helpful": j.parent_helpful} for j in rec.judgments
        ],
    }


def _annotation_from_obj(obj: dict, source: str, line: int) -> AnnotationRecord:
    post_id = _require_str(obj, "post_id", source, line)
    condition = _require_str(obj, "condition", source, line)
    if condition not in (c.value for c in Condition):
        raise ParseError(source, line, f"unknown condition {condition!r}")
    raw = obj.get("judgments")
    if not isinstance(raw, list):
        raise ParseError(source, line, "judgments must be a list")
    judgments = []
    for item in raw:
        if not isinstance(item, dict):
            raise ParseError(source, line, "judgment entries must be objects")
        label = item.get("label")
        if label not in (l.value for l in Label):
            raise ParseError(source, line, f"unknown label {label!r}")
        helpful = item.get("parent_helpful")
        if helpful is not None and not isinstance(helpful, bool):
            raise ParseError(source, line, "parent_helpful must be true, false, or null")
        judgments.append(RaterJudgment(Label(label), helpful))
    try:
        return AnnotationRecord(post_id, Condition(condition), tuple(judgments))
    except EmptyJudgmentsError as exc:
        raise ParseError(source, line, str(exc)) from exc


def _require_str(obj: dict, key: str, source: str, line: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise ParseError(source, line, f"field {key!r} must be a string")
    return value


def _optional_str(obj: dict, key: str, source: str, line: int) -> str | None:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise ParseError(source, line, f"field {key!r} must be a string or null")
    return value


def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    with path.open("r", encoding="utf-8") as handle:
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


# --- CSV -------------------------------------------------------------------

_POST_HEADER = ["post_id", "target_text", "parent_text"]
_ANNOTATION_HEADER = ["post_id", "condition", "labels", "parent_helpful"]


def _read_csv_rows(path: Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(str(path), 1, "missing header row") from None
        if header != expected_header:
            raise ParseError(str(path), 1, f"expected header {expected_header}, got {header}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ParseError(str(path), row_no, f"expected {len(expected_header)} fields, got {len(row)}")
            yield row_no, row


def _encode_helpful(judgments: Sequence[RaterJudgment]) -> str:
    if all(j.parent_helpful is None for j in judgments):
        return ""
    slots = []
    for j in judgments:
        slots.append("" if j.parent_helpful is None else ("true" if j.parent_helpful else "false"))
    return "|".join(slots)


def _decode_helpful(cell: str, n: int, source: str, line: int) -> list[bool | None]:
    if cell == "":
        return [None] * n
    slots = cell.split("|")
    if len(slots) != n:
        raise ParseError(source, line, f"parent_helpful has {len(slots)} slots for {n} labels")
    out: list[bool | None] = []
    for slot in slots:
        if slot == "":
            out.append(None)
        elif slot == "true":
            out.append(True)
        elif slot == "false":
            out.append(False)
        else:
            raise ParseError(source, line, f"bad parent_helpful slot {slot!r}")
    return out


# --- public load/save ------------------------------------------------------


def load_bundle(
    posts_path: str | Path,
    ic_path: str | Path,
    oc_path: str | Path,
    format: str = "jsonl",
) -> DatasetBundle:
    """Load and validate a corpus from its three files.

    Raises ParseError (with source and line), DuplicateRecordError,
    DanglingReferenceError, or EmptyJudgmentsError; anything schema-conformant
    loads.
    """
    posts_path, ic_path, oc_path = Path(posts_path), Path(ic_path), Path(oc_path)
    if format == "jsonl":
        posts = [_post_from_obj(obj, str(posts_path), n) for n, obj in _iter_jsonl(posts_path)]
        ic = [_annotation_from_obj(obj, str(ic_path), n) for n, obj in _iter_jsonl(ic_path)]
        oc = [_annotation_from_obj(obj, str(oc_path), n) for n, obj in _iter_jsonl(oc_path)]
    elif format == "csv":
        posts = [_post_from_csv(row, str(posts_path), n) for n, row in _read_csv_rows(posts_path, _POST_HEADER)]
        ic = [_annotation_from_csv(row, str(ic_path), n) for n, row in _read_csv_rows(ic_path, _ANNOTATION_HEADER)]
        oc = [_annotation_from_csv(row, str(oc_path), n) for n, row in _read_csv_rows(oc_path, _ANNOTATION_HEADER)]
    else:
        raise CorpusError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")
    return DatasetBundle(tuple(posts), tuple(ic), tuple(oc))


def _post_from_csv(row: list[str], source: str, line: int) -> Post:
    post_id, target_text, parent_text = row
    try:
        return Post(post_id, target_text, parent_text if parent_text != "" else None)
    except CorpusError as exc:
        raise ParseError(source, line, str(exc)) from exc


def _annotation_from_csv(row: list[str], source: str, line: int) -> AnnotationRecord:
    post_id, condition, labels_cell, helpful_cell = row
    if condition not in (c.value for c in Condition):
        raise ParseError(source, line, f"unknown condition {condition!r}")
    if labels_cell == "":
        raise ParseError(source, line, f"annotation for post {post_id!r} has no judgments")
    labels = labels_cell.split("|")
    for label in labels:
        if label not in (l.value for l in Label):
            raise ParseError(source, line, f"unknown label {label!r}")
    helpful = _decode_helpful(helpful_cell, len(labels), source, line)
    judgments = tuple(RaterJudgment(Label(l), h) for l, h in zip(labels, helpful))
    return AnnotationRecord(post_id, Condition(condition), judgments)


def save_bundle(
    bundle: DatasetBundle,
    posts_path: str | Path,
    ic_path: str | Path,
    oc_path: str | Path,
    format: str = "jsonl",
) -> None:
    """Persist a bundle so that load_bundle reproduces it field-for-field."""
    posts_path, ic_path, oc_path = Path(posts_path), Path(ic_path), Path(oc_path)
    if format == "jsonl":
        write_jsonl(posts_path, (_post_to_obj(p) for p in bundle.posts))
        write_jsonl(ic_path, (_annotation_to_obj(r) for r in bundle.ic_annotations))
        write_jsonl(oc_path, (_annotation_to_obj(r) for r in bundle.oc_annotations))
    elif format == "csv":
        write_csv(
            posts_path,
            _POST_HEADER,
            ([p.post_id, p.target_text, p.parent_text or ""] for p in bundle.posts),
        )
        for path, records in ((ic_path, bundle.ic_annotations), (oc_path, bundle.oc_annotations)):
            write_csv(
                path,
                _ANNOTATION_HEADER,
                (
                    [
                        r.post_id,
                        r.condition.value,
                        "|".join(j.label.value for j in r.judgments),
                        _encode_helpful(r.judgments),
                    ]
                    for r in records
                ),
            )
    else:
        raise CorpusError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")


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


def load_posts(path: str | Path, format: str = "jsonl") -> list[Post]:
    """Load a standalone posts file (e.g. an unlabeled sampling pool); a
    repeated post_id is a ParseError at the line that repeats it."""
    path = Path(path)
    if format == "jsonl":
        rows, parse = _iter_jsonl(path), _post_from_obj
    elif format == "csv":
        rows, parse = _read_csv_rows(path, _POST_HEADER), _post_from_csv
    else:
        raise CorpusError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")
    posts: list[Post] = []
    seen: set[str] = set()
    for n, row in rows:
        post = parse(row, str(path), n)
        if post.post_id in seen:
            raise ParseError(str(path), n, f"duplicate post_id {post.post_id!r}")
        seen.add(post.post_id)
        posts.append(post)
    return posts


def save_posts(posts: Sequence[Post], path: str | Path, format: str = "jsonl") -> None:
    path = Path(path)
    if format == "jsonl":
        write_jsonl(path, (_post_to_obj(p) for p in posts))
    elif format == "csv":
        write_csv(path, _POST_HEADER, ([p.post_id, p.target_text, p.parent_text or ""] for p in posts))
    else:
        raise CorpusError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")


_BOOLEANS = {**dict.fromkeys(("true", "1", "yes", "t"), True), **dict.fromkeys(("false", "0", "no", "f"), False)}


def load_bool_column(path: str | Path) -> list[bool]:
    """The first column of a CSV file with a header row, as booleans
    (true/false, 1/0, yes/no or t/f in any case); blank rows are skipped."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
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
    """Read a released-data CSV into per-post aggregate score rows."""
    columns = columns or ScoreTableColumns()
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ParseError(str(path), 1, "missing header row")
        missing = [
            c
            for c in (columns.post_id, columns.oc_score, columns.ic_score)
            if c not in reader.fieldnames
        ]
        if missing:
            raise ParseError(str(path), 1, f"missing required columns {missing}; found {reader.fieldnames}")
        rows = []
        for row_no, row in enumerate(reader, start=2):
            try:
                s_oc = float(row[columns.oc_score])
                s_ic = float(row[columns.ic_score])
            except (TypeError, ValueError) as exc:
                raise ParseError(str(path), row_no, f"non-numeric score: {exc}") from exc
            rows.append(
                ScoredRow(
                    post_id=str(row.get(columns.post_id, row_no)),
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
