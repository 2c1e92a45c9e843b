"""Rater judgments to toxicity scores, context-sensitivity values, and corpus stats.

A post's toxicity score is the fraction of raters who judged it toxic
(the two toxic grades are unified). Context sensitivity is the difference
between the out-of-context and in-context scores; a post counts as sensitive
when that difference exceeds a per-post threshold equal to the sum of the two
scores' standard errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AnnotationTable, DatasetBundle, Label, Post, not_utf8, write_jsonl

_TOXIC_LABELS = frozenset({Label.TOXIC, Label.VERY_TOXIC})
_TOXIC_CODES = [code for code, label in enumerate(Label) if label in _TOXIC_LABELS]
_UNSURE_CODE = list(Label).index(Label.UNSURE)


@dataclass(frozen=True)
class ToxicityScore:
    """Fraction of raters judging a post toxic, with its standard error."""

    value: float
    n_raters: int
    sem: float

    def __post_init__(self) -> None:
        if self.n_raters < 1:
            raise ValueError("n_raters must be positive")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"value {self.value} outside [0, 1]")
        if abs(self.value * self.n_raters - round(self.value * self.n_raters)) > 1e-9:
            raise ValueError(f"value {self.value} is not a count fraction of {self.n_raters} raters")
        if self.sem < 0.0:
            raise ValueError("sem must be >= 0")
        if self.value in (0.0, 1.0) and self.sem != 0.0:
            raise ValueError("sem must be 0 at unanimity")


@dataclass(frozen=True)
class SensitivityRecord:
    """Per-post sensitivity: delta = s_oc - s_ic, thresholded by summed SEMs."""

    post_id: str
    s_oc: ToxicityScore
    s_ic: ToxicityScore
    delta: float
    threshold: float
    is_sensitive: bool

    def __post_init__(self) -> None:
        if self.delta != self.s_oc.value - self.s_ic.value:
            raise ValueError("delta must equal s_oc.value - s_ic.value exactly")
        if self.threshold < 0.0:
            raise ValueError("threshold must be >= 0")
        if self.is_sensitive != (abs(self.delta) > self.threshold):
            raise ValueError("is_sensitive must equal |delta| > threshold")


@dataclass(frozen=True)
class AgreementReport:
    free_marginal_kappa: float
    mean_pairwise_agreement: float
    n_items: int
    n_categories: int


def aggregate_scores(table: AnnotationTable) -> list[ToxicityScore | None]:
    """Aggregate each record's judgments; None means the post is excluded.

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
    unsure = counts[:, _UNSURE_CODE] > 0
    return [
        None if skip else ToxicityScore(value=v, n_raters=k, sem=e)
        for skip, v, k, e in zip(unsure.tolist(), value.tolist(), n.tolist(), sem.tolist())
    ]


def sensitivity(post_id: str, s_oc: ToxicityScore, s_ic: ToxicityScore) -> SensitivityRecord:
    """Combine a post's two condition scores into a sensitivity record.

    is_sensitive uses a strict inequality so unanimous-agreement posts
    (both SEMs zero, delta zero) are classified insensitive.
    """
    delta = s_oc.value - s_ic.value
    threshold = s_oc.sem + s_ic.sem
    return SensitivityRecord(
        post_id=post_id,
        s_oc=s_oc,
        s_ic=s_ic,
        delta=delta,
        threshold=threshold,
        is_sensitive=abs(delta) > threshold,
    )


@dataclass(frozen=True)
class SensitivityExample:
    """A post joined with its sensitivity record: one regression example."""

    post: Post
    record: SensitivityRecord


def training_columns(examples: Sequence[SensitivityExample]) -> tuple[list[str], list[float]]:
    """The target texts and deltas of examples, the inputs and targets of models.train."""
    return [ex.post.target_text for ex in examples], [ex.record.delta for ex in examples]


def compute_sensitivities(bundle: DatasetBundle) -> tuple[list[SensitivityExample], list[str]]:
    """Aggregate a bundle into examples, returning (examples, excluded_ids).

    A post is excluded when either condition's record is missing or is
    excluded by the unsure rule.
    """
    ic, oc = (dict(zip(t.post_ids, aggregate_scores(t))) for t in (bundle.ic_annotations, bundle.oc_annotations))
    examples: list[SensitivityExample] = []
    excluded: list[str] = []
    for post in bundle.posts:
        s_ic, s_oc = ic.get(post.post_id), oc.get(post.post_id)
        if s_ic is None or s_oc is None:
            excluded.append(post.post_id)
            continue
        examples.append(SensitivityExample(post, sensitivity(post.post_id, s_oc, s_ic)))
    return examples, excluded


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def centers(self) -> tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self.edges[:-1], self.edges[1:]))


def sensitivity_histogram(records: Sequence[SensitivityRecord], bins: int) -> Histogram:
    """Histogram of delta over [-1, 1]; counts always sum to len(records)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    deltas = [r.delta for r in records]
    counts, edges = np.histogram(deltas, bins=bins, range=(-1.0, 1.0))
    return Histogram(edges=tuple(edges.tolist()), counts=tuple(int(c) for c in counts))


def count_sensitive(records: Sequence[SensitivityRecord], t: float) -> int:
    """Number of posts with |delta| >= t. Non-increasing in t."""
    return sum(1 for r in records if abs(r.delta) >= t)


@dataclass(frozen=True)
class DeltaBuckets:
    """Fractions of posts whose score stayed equal, increased, or decreased
    when context was shown (negative / positive delta respectively)."""

    n: int
    unchanged: float
    increased: float
    decreased: float


def delta_buckets(deltas: Sequence[float]) -> DeltaBuckets:
    n = len(deltas)
    if n == 0:
        raise ValueError("no deltas")
    zero = sum(1 for d in deltas if d == 0.0)
    neg = sum(1 for d in deltas if d < 0.0)
    pos = n - zero - neg
    return DeltaBuckets(n=n, unchanged=zero / n, increased=neg / n, decreased=pos / n)


def binarize_toxicity(score: ToxicityScore) -> bool:
    """Strict-majority binarization; a tied score (exactly 0.5) is non-toxic."""
    return score.value > 0.5


def binarized_unchanged_fraction(pairs: Sequence[tuple[float, float]]) -> float:
    """Fraction of (s_oc, s_ic) pairs whose strict-majority labels agree."""
    if not pairs:
        raise ValueError("no score pairs")
    same = sum(1 for oc, ic in pairs if (oc > 0.5) == (ic > 0.5))
    return same / len(pairs)


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


# --- sensitivity example persistence ----------------------------------------


def _score_to_obj(score: ToxicityScore) -> dict:
    return {"value": score.value, "n_raters": score.n_raters, "sem": score.sem}


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


def _check_fields(obj: dict, fields: dict) -> None:
    for key, (accepted, expected) in fields.items():
        value = obj.get(key)
        if type(value) not in accepted:
            raise ValueError(f"field {key!r} must be {expected}, got {'null' if value is None else type(value).__name__}")


def _score_from_obj(obj: dict) -> ToxicityScore:
    _check_fields(obj, _SCORE_FIELDS)
    return ToxicityScore(value=obj["value"], n_raters=obj["n_raters"], sem=obj["sem"])


def save_examples(examples: Sequence[SensitivityExample], path: str | Path) -> None:
    """Write aggregated examples as JSONL (one self-contained row per post)."""
    write_jsonl(
        Path(path),
        (
            {
                "post_id": ex.post.post_id,
                "target_text": ex.post.target_text,
                "parent_text": ex.post.parent_text,
                "s_oc": _score_to_obj(ex.record.s_oc),
                "s_ic": _score_to_obj(ex.record.s_ic),
                "delta": ex.record.delta,
                "threshold": ex.record.threshold,
                "is_sensitive": ex.record.is_sensitive,
            }
            for ex in examples
        ),
    )


def load_examples(path: str | Path) -> list[SensitivityExample]:
    """Read a sensitivity file; a post id may appear only once, since a
    duplicate would be counted twice and could sit on both sides of a split.
    A malformed row (no object, a field missing or of the wrong JSON type,
    an inconsistent record) is a ValueError naming path:line."""
    examples = []
    seen: set[str] = set()
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
                    post = Post(obj["post_id"], obj["target_text"], obj.get("parent_text"))
                    if post.post_id in seen:
                        raise ValueError(f"duplicate post_id {post.post_id!r}")
                    seen.add(post.post_id)
                    record = SensitivityRecord(
                        post_id=obj["post_id"],
                        s_oc=_score_from_obj(obj["s_oc"]),
                        s_ic=_score_from_obj(obj["s_ic"]),
                        delta=obj["delta"],
                        threshold=obj["threshold"],
                        is_sensitive=obj["is_sensitive"],
                    )
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
                examples.append(SensitivityExample(post, record))
        except UnicodeDecodeError:
            raise not_utf8(Path(path)) from None
    return examples
