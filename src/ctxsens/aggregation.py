"""Rater judgments to toxicity scores, context-sensitivity values, and corpus stats.

A post's toxicity score is the fraction of raters who judged it toxic
(the two toxic grades are unified). Context sensitivity is the difference
between the out-of-context and in-context scores; a post counts as sensitive
when that difference exceeds a per-post threshold equal to the sum of the two
scores' standard errors. The scored posts are one columnar `SensitivityTable`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AnnotationTable, DatasetBundle, Label, PostTable, not_utf8, posts_at, write_jsonl

_TOXIC_LABELS = frozenset({Label.TOXIC, Label.VERY_TOXIC})
_TOXIC_CODES = [code for code, label in enumerate(Label) if label in _TOXIC_LABELS]
_UNSURE_CODE = list(Label).index(Label.UNSURE)
_SCORE_COLUMNS = ("oc_value", "oc_raters", "oc_sem", "ic_value", "ic_raters", "ic_sem")


@dataclass(frozen=True, eq=False)
class SensitivityTable:
    """Scored posts as read-only columns, row i being post posts.post_ids[i]:
    the posts, then each condition's score as its toxic fraction (value), its
    rater count and its SEM; delta, threshold and is_sensitive are computed
    from them.
    """

    posts: PostTable
    oc_value: np.ndarray
    oc_raters: np.ndarray
    oc_sem: np.ndarray
    ic_value: np.ndarray
    ic_raters: np.ndarray
    ic_sem: np.ndarray

    def __post_init__(self) -> None:
        for name in _SCORE_COLUMNS:
            column = np.array(getattr(self, name), dtype=np.int64 if name.endswith("raters") else np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if {len(getattr(self, name)) for name in _SCORE_COLUMNS} != {len(self.posts)}:
            raise ValueError("columns differ in length")

    def __len__(self) -> int:
        return len(self.posts)

    @property
    def delta(self) -> np.ndarray:  # s_oc - s_ic
        return self.oc_value - self.ic_value

    @property
    def threshold(self) -> np.ndarray:  # the sum of the two SEMs
        return self.oc_sem + self.ic_sem

    @property
    def is_sensitive(self) -> np.ndarray:
        """|delta| > threshold, strict: unanimous posts (all zeros) are insensitive."""
        return np.abs(self.delta) > self.threshold

    def take(self, idx) -> SensitivityTable:
        """The rows idx (distinct row indices), in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        return SensitivityTable(self.posts.take(idx), *(getattr(self, name)[idx] for name in _SCORE_COLUMNS))


@dataclass(frozen=True)
class AgreementReport:
    free_marginal_kappa: float
    mean_pairwise_agreement: float
    n_items: int
    n_categories: int


def aggregate_scores(table: AnnotationTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each record's (value, n_raters, sem, excluded) as columns.

    Any unsure judgment excludes the record. Both toxic grades count as toxic.
    The value is toxic / n; the SEM is the sample-variance estimator
    sqrt(value(1 - value) / (n - 1)), a documented choice that is 0 at
    unanimity and for a single rater.
    """
    counts = table.counts(table.labels, len(Label))
    n = counts.sum(axis=1)
    value = counts[:, _TOXIC_CODES].sum(axis=1) / n
    # n - 1 is raised to 1 for a single rater, whose value(1 - value) is 0
    sem = np.sqrt(value * (1.0 - value) / np.maximum(n - 1, 1))
    return value, n, sem, counts[:, _UNSURE_CODE] > 0


def compute_sensitivities(bundle: DatasetBundle) -> tuple[SensitivityTable, list[str]]:
    """Aggregate a bundle into a table of its scored posts, in post order,
    returning (table, excluded_ids).

    A post is excluded when either condition's record is missing or is
    excluded by the unsure rule.
    """
    posts, rows, scores = bundle.posts, [], []
    excluded = np.zeros(len(posts), dtype=bool)
    for table in (bundle.oc_annotations, bundle.ic_annotations):
        *score, unsure = aggregate_scores(table)
        row_of = {post_id: i for i, post_id in enumerate(table.post_ids)}
        row = np.array([row_of.get(post_id, -1) for post_id in posts.post_ids], dtype=np.int64)
        excluded |= np.append(unsure, True)[row]  # row -1, a missing record, reads the appended True
        rows.append(row)
        scores.append(score)
    columns = (column[row[~excluded]] for row, score in zip(rows, scores) for column in score)
    table = SensitivityTable(posts.take(np.flatnonzero(~excluded)), *columns)
    return table, [post_id for post_id, out in zip(posts.post_ids, excluded.tolist()) if out]


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def centers(self) -> tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self.edges[:-1], self.edges[1:]))


def sensitivity_histogram(deltas: Sequence[float], bins: int) -> Histogram:
    """Histogram of deltas over [-1, 1]; counts always sum to len(deltas)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(deltas, bins=bins, range=(-1.0, 1.0))
    return Histogram(edges=tuple(edges.tolist()), counts=tuple(counts.tolist()))


def count_sensitive(deltas: Sequence[float], t: float) -> int:
    """Number of posts with |delta| >= t. Non-increasing in t."""
    return int(np.count_nonzero(np.abs(np.asarray(deltas, dtype=np.float64)) >= t))


@dataclass(frozen=True)
class DeltaBuckets:
    """Fractions of posts whose score stayed equal, increased, or decreased
    when context was shown (negative / positive delta respectively)."""

    n: int
    unchanged: float
    increased: float
    decreased: float


def delta_buckets(deltas: Sequence[float]) -> DeltaBuckets:
    deltas = np.asarray(deltas, dtype=np.float64)
    n = len(deltas)
    if n == 0:
        raise ValueError("no deltas")
    zero = int(np.count_nonzero(deltas == 0.0))
    neg = int(np.count_nonzero(deltas < 0.0))
    pos = n - zero - neg
    return DeltaBuckets(n=n, unchanged=zero / n, increased=neg / n, decreased=pos / n)


def binarized_unchanged_fraction(s_oc: Sequence[float], s_ic: Sequence[float]) -> float:
    """Fraction of posts whose strict-majority labels agree across the two
    conditions; a score is toxic above 0.5, so a tie (exactly 0.5) is not."""
    if len(s_oc) == 0:
        raise ValueError("no score pairs")
    same = np.count_nonzero((np.asarray(s_oc) > 0.5) == (np.asarray(s_ic) > 0.5))
    return int(same) / len(s_oc)


def agreement(
    records: AnnotationTable,
    n_categories: int = len(Label),
    label_key=None,
) -> AgreementReport:
    """Free-marginal (Randolph) kappa and mean pairwise percent agreement.

    kappa = (P_o - 1/k) / (1 - 1/k), where P_o is the mean over items of the
    fraction of agreeing rater pairs; that same P_o is the mean pairwise
    agreement. label_key maps a judgment label onto a category (defaults to
    the label itself), letting callers collapse the label set; n_categories
    must match the collapsed set's size.
    """
    if not len(records):
        raise ValueError("no records")
    if n_categories < 2:
        raise ValueError("need at least 2 categories")
    category_index: dict = {}
    category_of = np.array(
        [category_index.setdefault(label if label_key is None else label_key(label), len(category_index)) for label in Label]
    )
    counts = records.counts(category_of[records.labels], len(category_index))
    r = counts.sum(axis=1)
    distinct = np.count_nonzero(counts, axis=1)
    bad = np.flatnonzero((r < 2) | (distinct > n_categories))
    if bad.size:
        i = bad[0]
        if r[i] < 2:
            raise ValueError(f"post {records.post_ids[i]!r}: agreement needs >= 2 judgments")
        raise ValueError(
            f"post {records.post_ids[i]!r}: {distinct[i]} distinct categories exceed n_categories={n_categories}"
        )
    per_item = (counts * (counts - 1)).sum(axis=1) / (r * (r - 1))
    p_o = math.fsum(per_item.tolist()) / len(records)  # order-independent
    chance = 1.0 / n_categories
    return AgreementReport((p_o - chance) / (1.0 - chance), p_o, len(records), n_categories)


def collapse_binary(label: Label) -> bool:
    """Category map unifying the two toxic grades: True = toxic."""
    return label in _TOXIC_LABELS


# --- sensitivity table persistence -------------------------------------------


# (accepted JSON types, what the message says) per field of a row and of its two scores
_STRING, _NUMBER, _OBJECT = ((str,), "a string"), ((int, float), "a number"), ((dict,), "an object")
_ROW_FIELDS = {
    "post_id": _STRING,
    "target_text": _STRING,
    "parent_text": ((str, type(None)), "a string or null"),
    "s_oc": _OBJECT,
    "s_ic": _OBJECT,
    "delta": _NUMBER,
    "threshold": _NUMBER,
    "is_sensitive": ((bool,), "true or false"),
}
_SCORE_FIELDS = {"value": _NUMBER, "n_raters": ((int,), "an integer"), "sem": _NUMBER}
_MAX_RATERS = np.iinfo(np.int64).max


def _check_fields(obj: dict, fields: dict) -> None:
    for key, (accepted, expected) in fields.items():
        value = obj.get(key)
        if type(value) not in accepted:
            raise ValueError(f"field {key!r} must be {expected}, got {'null' if value is None else type(value).__name__}")


def _checked_score(obj: dict) -> tuple:
    """A row's (value, n_raters, sem) for one condition, held to what the
    count arithmetic guarantees."""
    _check_fields(obj, _SCORE_FIELDS)
    value, n_raters, sem = obj["value"], obj["n_raters"], obj["sem"]
    if not 1 <= n_raters <= _MAX_RATERS:  # the column is int64
        raise ValueError("n_raters must be positive" if n_raters < 1 else f"n_raters {n_raters} exceeds {_MAX_RATERS}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"value {value} outside [0, 1]")
    if abs(value * n_raters - round(value * n_raters)) > 1e-9:
        raise ValueError(f"value {value} is not a count fraction of {n_raters} raters")
    if sem < 0.0:
        raise ValueError("sem must be >= 0")
    if value in (0.0, 1.0) and sem != 0.0:
        raise ValueError("sem must be 0 at unanimity")
    return value, n_raters, sem


def save_examples(table: SensitivityTable, path: str | Path) -> None:
    """Write a table as JSONL, one self-contained row per post, its keys in _ROW_FIELDS order."""

    def scores(names: Sequence[str]):
        return (dict(zip(_SCORE_FIELDS, score)) for score in zip(*(getattr(table, name).tolist() for name in names)))

    texts = (table.posts.post_ids, table.posts.target_texts, table.posts.parent_texts)
    derived = (table.delta.tolist(), table.threshold.tolist(), table.is_sensitive.tolist())
    rows = zip(*texts, scores(_SCORE_COLUMNS[:3]), scores(_SCORE_COLUMNS[3:]), *derived)
    write_jsonl(Path(path), (dict(zip(_ROW_FIELDS, row)) for row in rows))


def load_examples(path: str | Path) -> SensitivityTable:
    """Read a sensitivity file; a post id may appear only once, since a
    duplicate would be counted twice and could sit on both sides of a split.
    A malformed row (no object, a field missing or of the wrong JSON type,
    an inconsistent score, delta, threshold or is_sensitive) is a ValueError
    naming path:line."""
    texts: list[tuple] = []
    scores: list[list] = [[] for _ in _SCORE_COLUMNS]
    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("each line must be a JSON object")
                    _check_fields(obj, _ROW_FIELDS)
                    texts.append((line_no, obj["post_id"], obj["target_text"], obj.get("parent_text")))
                    oc, ic = _checked_score(obj["s_oc"]), _checked_score(obj["s_ic"])
                    delta, threshold = obj["delta"], obj["threshold"]
                    if delta != oc[0] - ic[0]:
                        raise ValueError("delta must equal s_oc.value - s_ic.value exactly")
                    if threshold < 0.0:
                        raise ValueError("threshold must be >= 0")
                    if threshold != oc[2] + ic[2]:
                        raise ValueError("threshold must equal s_oc.sem + s_ic.sem exactly")
                    if obj["is_sensitive"] != (abs(delta) > threshold):
                        raise ValueError("is_sensitive must equal |delta| > threshold")
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
                for column, value in zip(scores, (*oc, *ic)):
                    column.append(value)
        except UnicodeDecodeError:
            raise not_utf8(Path(path)) from None
        finally:  # a bad text in or above the row that fails is reported first
            posts = posts_at(str(path), texts)
    return SensitivityTable(posts, *scores)
