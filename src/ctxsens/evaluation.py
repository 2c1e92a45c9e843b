"""Metrics, Monte Carlo cross-validation, and sensitivity-stratified scoring.

MSE/MAE are standard. ROC AUC is the pairwise ranking probability with the
half-credit tie convention; AUPR is average precision with tied scores
grouped (step interpolation, which avoids the optimistic bias of linear PR
interpolation). Degenerate folds report missing metrics rather than a
fabricated 0.5.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import SensitivityExample
from .models import TrainConfig, train
from .scorer import ExternalScorerClient, ScorerEndpoint

METRICS = ("mse", "mae", "aupr", "auc")


class MetricError(ValueError):
    pass


class UndefinedMetricError(MetricError):
    """Raised when a metric has no defined value (e.g. single-class labels)."""


def _check_lengths(pred: Sequence[float], gold: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    if len(pred) != len(gold):
        raise MetricError(f"length mismatch: {len(pred)} predictions vs {len(gold)} gold")
    if len(pred) == 0:
        raise MetricError("empty inputs")
    return np.asarray(pred, dtype=np.float64), np.asarray(gold, dtype=np.float64)


def mse(pred: Sequence[float], gold: Sequence[float]) -> float:
    p, g = _check_lengths(pred, gold)
    return float(np.mean((p - g) ** 2))


def mae(pred: Sequence[float], gold: Sequence[float]) -> float:
    p, g = _check_lengths(pred, gold)
    return float(np.mean(np.abs(p - g)))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def roc_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """P(score+ > score-) + half the tie probability, via average ranks."""
    if len(scores) != len(labels):
        raise MetricError(f"length mismatch: {len(scores)} scores vs {len(labels)} labels")
    y = np.asarray(labels, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("roc_auc needs both classes present")
    ranks = _average_ranks(s)
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def aupr(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Average precision over a descending-score sweep, ties grouped."""
    if len(scores) != len(labels):
        raise MetricError(f"length mismatch: {len(scores)} scores vs {len(labels)} labels")
    y = np.asarray(labels, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("aupr needs at least one positive")
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    ap = 0.0
    tp = 0
    seen = 0
    i = 0
    n = len(s_sorted)
    while i < n:
        j = i
        while j + 1 < n and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        group_pos = int(y_sorted[i : j + 1].sum())
        tp += group_pos
        seen += j - i + 1
        if group_pos > 0:
            ap += (group_pos / n_pos) * (tp / seen)
        i = j + 1
    return float(ap)


# --- splits ---------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Monte Carlo resplit protocol: independent random splits per repeat."""

    train_fraction: float = 0.8
    validation_fraction: float = 0.1
    test_fraction: float = 0.1
    n_repeats: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        total = self.train_fraction + self.validation_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-9:
            raise MetricError(f"split fractions sum to {total}, expected 1")
        if min(self.train_fraction, self.validation_fraction, self.test_fraction) < 0:
            raise MetricError("split fractions must be non-negative")
        if self.n_repeats < 1:
            raise MetricError("n_repeats must be >= 1")


def split_indices(n: int, spec: SplitSpec, repeat: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (train, validation, test) index arrays covering range(n)."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, repeat]))
    perm = rng.permutation(n)
    n_test = int(n * spec.test_fraction)
    n_val = int(n * spec.validation_fraction)
    n_train = n - n_test - n_val
    if n_train < 1:
        raise MetricError(f"split leaves no training items (n={n})")
    test = perm[:n_test]
    val = perm[n_test : n_test + n_val]
    tr = perm[n_test + n_val :]
    return tr, val, test


# --- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class FoldMetrics:
    mse: float
    mae: float
    aupr: float | None
    auc: float | None
    n_test: int
    missing_reason: str | None
    test_fingerprint: str

    def value(self, metric: str) -> float | None:
        return getattr(self, metric)


@dataclass(frozen=True)
class EvalReport:
    folds: tuple[FoldMetrics, ...]

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def mean(self, metric: str) -> float | None:
        values = [f.value(metric) for f in self.folds if f.value(metric) is not None]
        return float(np.mean(values)) if values else None

    def sem(self, metric: str) -> float | None:
        values = [f.value(metric) for f in self.folds if f.value(metric) is not None]
        if len(values) < 2:
            return None
        return float(np.std(values, ddof=1) / math.sqrt(len(values)))

    def to_json(self) -> dict:
        return {
            "n_folds": self.n_folds,
            "means": {m: self.mean(m) for m in METRICS},
            "sems": {m: self.sem(m) for m in METRICS},
            "folds": [
                {
                    "mse": f.mse,
                    "mae": f.mae,
                    "aupr": f.aupr,
                    "auc": f.auc,
                    "n_test": f.n_test,
                    "missing_reason": f.missing_reason,
                    "test_fingerprint": f.test_fingerprint,
                }
                for f in self.folds
            ],
        }


def _ids_fingerprint(post_ids: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for post_id in sorted(post_ids):
        digest.update(post_id.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def fold_metrics(
    predictions: Sequence[float],
    targets: Sequence[float],
    labels: Sequence[bool],
    post_ids: Sequence[str],
) -> FoldMetrics:
    """Metrics for one evaluated fold; AUC/AUPR are null on single-class folds."""
    fold_auc: float | None
    fold_aupr: float | None
    reason = None
    try:
        fold_auc = roc_auc(predictions, labels)
        fold_aupr = aupr(predictions, labels)
    except UndefinedMetricError as exc:
        fold_auc = None
        fold_aupr = None
        reason = str(exc)
    return FoldMetrics(
        mse=mse(predictions, targets),
        mae=mae(predictions, targets),
        aupr=fold_aupr,
        auc=fold_auc,
        n_test=len(targets),
        missing_reason=reason,
        test_fingerprint=_ids_fingerprint(post_ids),
    )


def monte_carlo_cv(
    examples: Sequence[SensitivityExample],
    family: str,
    config: TrainConfig | None = None,
    split: SplitSpec | None = None,
) -> EvalReport:
    """Repeated random-resplit evaluation of one regressor family.

    Each repeat draws a fresh split from its repeat-specific seed, trains with
    early stopping on the validation part, and evaluates on the test part.
    AUC/AUPR use the per-post is_sensitive labels as binary ground truth.
    """
    if not examples:
        raise MetricError("no examples")
    config = config or TrainConfig()
    split = split or SplitSpec()
    folds = []
    for repeat in range(split.n_repeats):
        tr, val, test = split_indices(len(examples), split, repeat)
        train_items = [(examples[i].post.target_text, examples[i].record.delta) for i in tr]
        val_items = [(examples[i].post.target_text, examples[i].record.delta) for i in val]
        model = train(family, train_items, val_items, config)
        try:
            predictions = model.predict_batch([examples[i].post.target_text for i in test])
        finally:
            model.close()
        folds.append(
            fold_metrics(
                predictions,
                [examples[i].record.delta for i in test],
                [examples[i].record.is_sensitive for i in test],
                [examples[i].post.post_id for i in test],
            )
        )
    return EvalReport(folds=tuple(folds))


# --- sensitivity-stratified toxicity evaluation -------------------------------------


MODE_TARGET_ONLY = "target_only"
MODE_CONCAT_PARENT = "concat_parent"


@dataclass(frozen=True)
class StratumMae:
    t: float
    mae: float | None
    n: int


@dataclass(frozen=True)
class StratifiedMaeResult:
    rows: tuple[StratumMae, ...]
    errors: dict[str, str]  # post_id -> error message for unscored posts


def stratified_toxicity_mae(
    endpoint: ScorerEndpoint,
    examples: Sequence[SensitivityExample],
    thresholds: Sequence[float],
    mode: str = MODE_TARGET_ONLY,
    retries: int = 1,
) -> StratifiedMaeResult:
    """MAE of an external toxicity scorer against the in-context gold score,
    over increasingly context-sensitive subsets {p : |delta(p)| >= t}.

    concat_parent joins parent and target with a single newline as the text;
    posts without a parent are sent as the target alone. Per-post scorer
    failures are retried, then surface in `errors` (a partial result).
    """
    if mode not in (MODE_TARGET_ONLY, MODE_CONCAT_PARENT):
        raise MetricError(f"unknown mode {mode!r}")
    items = []
    for ex in examples:
        if mode == MODE_CONCAT_PARENT and ex.post.parent_text:
            text = ex.post.parent_text + "\n" + ex.post.target_text
        else:
            text = ex.post.target_text
        items.append((ex.post.post_id, text, None))
    with ExternalScorerClient(endpoint) as client:
        scores, errors = client.score_many(items, retries=retries)
    rows = []
    for t in thresholds:
        pairs = [
            (scores[ex.post.post_id], ex.record.s_ic.value)
            for ex in examples
            if ex.post.post_id in scores and abs(ex.record.delta) >= t
        ]
        if pairs:
            rows.append(StratumMae(t=t, mae=mae(*zip(*pairs)), n=len(pairs)))
        else:
            rows.append(StratumMae(t=t, mae=None, n=0))
    return StratifiedMaeResult(rows=tuple(rows), errors=errors)
