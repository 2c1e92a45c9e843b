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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .aggregation import SensitivityTable
from .scorer import ExternalScorerClient, ScorerEndpoint

if TYPE_CHECKING:
    from .models import TrainConfig

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
    """1-based ranks; tied scores share the mean of their ranks."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True, equal_nan=False)
    last = np.cumsum(counts)  # 1-based rank of each tie group's last member
    return ((2 * last - counts - 1) / 2.0 + 1.0)[inverse]


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
    # tie groups by descending score
    _, inverse, counts = np.unique(-s, return_inverse=True, return_counts=True, equal_nan=False)
    group_pos = np.bincount(inverse[y], minlength=len(counts))
    terms = (group_pos / n_pos) * (np.cumsum(group_pos) / np.cumsum(counts))
    return float(np.cumsum(terms)[-1])  # summed in order, one term at a time


# --- splits ---------------------------------------------------------------------


# Monte Carlo resplit fractions: test and validation take a tenth each, training the rest.
VALIDATION_FRACTION = 0.1
TEST_FRACTION = 0.1


@dataclass(frozen=True)
class SplitSpec:
    """Monte Carlo resplit protocol: independent random splits per repeat."""

    n_repeats: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_repeats < 1:
            raise MetricError("n_repeats must be >= 1")


def split_indices(n: int, spec: SplitSpec, repeat: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (train, validation, test) index arrays covering range(n)."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, repeat]))
    perm = rng.permutation(n)
    n_test = int(n * TEST_FRACTION)
    n_val = int(n * VALIDATION_FRACTION)
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
    table: SensitivityTable,
    family: str,
    config: TrainConfig | None = None,
    split: SplitSpec | None = None,
) -> EvalReport:
    """Repeated random-resplit evaluation of one regressor family.

    Each repeat draws a fresh split from its repeat-specific seed, trains with
    early stopping on the validation part, and evaluates on the test part.
    AUC/AUPR use the per-post is_sensitive labels as binary ground truth.
    """
    from .models import TrainConfig, train  # loads scipy, which only training needs
    if not len(table):
        raise MetricError("no examples")
    config = config or TrainConfig()
    split = split or SplitSpec()
    folds = []
    for repeat in range(split.n_repeats):
        tr, val, test = (table.take(idx) for idx in split_indices(len(table), split, repeat))
        model = train(family, tr.posts.target_texts, tr.delta, (val.posts.target_texts, val.delta), config)
        try:
            predictions = model.predict_batch(test.posts.target_texts)
        finally:
            model.close()
        folds.append(fold_metrics(predictions, test.delta, test.is_sensitive, test.posts.post_ids))
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
    table: SensitivityTable,
    thresholds: Sequence[float],
    mode: str = MODE_TARGET_ONLY,
) -> StratifiedMaeResult:
    """MAE of an external toxicity scorer against the in-context gold score,
    over increasingly context-sensitive subsets {p : |delta(p)| >= t}.

    concat_parent joins parent and target with a single newline as the text;
    posts without a parent are sent as the target alone. Per-post scorer
    failures are retried, then surface in `errors` (a partial result).
    """
    if mode not in (MODE_TARGET_ONLY, MODE_CONCAT_PARENT):
        raise MetricError(f"unknown mode {mode!r}")
    post_ids, texts = table.posts.post_ids, table.posts.target_texts
    if mode == MODE_CONCAT_PARENT:
        texts = [parent + "\n" + text if parent else text for parent, text in zip(table.posts.parent_texts, texts)]
    with ExternalScorerClient(endpoint) as client:
        scores, errors = client.score_many([(post_id, text, None) for post_id, text in zip(post_ids, texts)])
    scored = np.array([post_id in scores for post_id in post_ids], dtype=bool)
    predictions = np.array([scores.get(post_id, math.nan) for post_id in post_ids], dtype=np.float64)
    spread = np.abs(table.delta)
    rows = []
    for t in thresholds:
        subset = scored & (spread >= t)
        n = int(np.count_nonzero(subset))
        rows.append(StratumMae(t=t, mae=mae(predictions[subset], table.ic_value[subset]) if n else None, n=n))
    return StratifiedMaeResult(rows=tuple(rows), errors=errors)
