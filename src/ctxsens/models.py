"""Sensitivity regressors behind one train/predict/persist contract.

Families: a constant-mean baseline, a seeded uniform-random baseline, ridge
regression, a linear epsilon-insensitive SVR trained by stochastic
subgradient descent, a random forest of CART regression trees, and an
adapter for external scorers speaking the NDJSON protocol.

All predictions are clamped to [-1, 1]. Training is fully deterministic:
identical family, hyperparameters, seed, and training data produce
bit-identical model files.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .features import FeatureConfig, FeatureVector, Vocabulary, fit_vocabulary, to_csr, transform_many
from .scorer import ExternalScorerClient, ScorerEndpoint, transport_fingerprint

FAMILY_CONSTANT_MEAN = "constant_mean"
FAMILY_UNIFORM_RANDOM = "uniform_random"
FAMILY_RIDGE = "ridge"
FAMILY_LINEAR_SVR = "linear_svr"
FAMILY_RANDOM_FOREST = "random_forest"
FAMILY_EXTERNAL = "external"

FAMILIES = (
    FAMILY_CONSTANT_MEAN,
    FAMILY_UNIFORM_RANDOM,
    FAMILY_RIDGE,
    FAMILY_LINEAR_SVR,
    FAMILY_RANDOM_FOREST,
    FAMILY_EXTERNAL,
)

FAMILY_ALIASES = {
    "b1": FAMILY_CONSTANT_MEAN,
    "constant": FAMILY_CONSTANT_MEAN,
    "b2": FAMILY_UNIFORM_RANDOM,
    "random": FAMILY_UNIFORM_RANDOM,
    "lr": FAMILY_RIDGE,
    "svr": FAMILY_LINEAR_SVR,
    "rf": FAMILY_RANDOM_FOREST,
}


def resolve_family(name: str) -> str:
    name = name.lower()
    name = FAMILY_ALIASES.get(name, name)
    if name not in FAMILIES:
        raise TrainingError(f"unknown model family {name!r}; expected one of {FAMILIES}")
    return name


class TrainingError(ValueError):
    pass


class PredictionError(RuntimeError):
    pass


class ModelPersistenceError(RuntimeError):
    pass


class ChecksumError(ModelPersistenceError):
    pass


class VersionError(ModelPersistenceError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for all families; unused fields are ignored per family."""

    seed: int = 0
    features: FeatureConfig = field(default_factory=FeatureConfig)
    patience: int = 5
    ridge_lambda: float = 1.0
    ridge_tol: float = 1e-10
    ridge_max_iter: int = 1000
    svr_epsilon: float = 0.05
    svr_learning_rate: float = 0.01
    svr_c: float = 1.0
    svr_max_epochs: int = 100
    svr_batch_size: int = 32
    rf_n_trees: int = 100
    rf_max_depth: int | None = 12
    rf_min_samples_leaf: int = 5
    rf_max_features: int | str = "sqrt"
    rf_bootstrap: bool = True
    external: ScorerEndpoint | None = None

    def __post_init__(self) -> None:
        # written as "not valid" so that NaN is rejected too
        for name, bad, rule in (
            ("patience", not self.patience >= 1, ">= 1"),
            ("ridge_lambda", not self.ridge_lambda >= 0, ">= 0"),
            ("ridge_max_iter", not self.ridge_max_iter >= 1, ">= 1"),
            ("svr_batch_size", not self.svr_batch_size >= 1, ">= 1"),
            ("svr_c", not self.svr_c > 0, "> 0"),
            ("svr_learning_rate", not self.svr_learning_rate > 0, "> 0"),
            ("svr_epsilon", not self.svr_epsilon >= 0, ">= 0"),
            ("rf_n_trees", not self.rf_n_trees >= 1, ">= 1"),
            ("rf_max_depth", self.rf_max_depth is not None and not self.rf_max_depth >= 0, ">= 0 or None"),
            ("rf_min_samples_leaf", not self.rf_min_samples_leaf >= 1, ">= 1"),
        ):
            if bad:
                raise TrainingError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def hyperparameters(self, family: str) -> dict:
        if family == FAMILY_RIDGE:
            return {
                "ridge_lambda": self.ridge_lambda,
                "ridge_tol": self.ridge_tol,
                "ridge_max_iter": self.ridge_max_iter,
            }
        if family == FAMILY_LINEAR_SVR:
            return {
                "svr_epsilon": self.svr_epsilon,
                "svr_learning_rate": self.svr_learning_rate,
                "svr_c": self.svr_c,
                "svr_max_epochs": self.svr_max_epochs,
                "svr_batch_size": self.svr_batch_size,
                "patience": self.patience,
            }
        if family == FAMILY_RANDOM_FOREST:
            return {
                "rf_n_trees": self.rf_n_trees,
                "rf_max_depth": self.rf_max_depth,
                "rf_min_samples_leaf": self.rf_min_samples_leaf,
                "rf_max_features": self.rf_max_features,
                "rf_bootstrap": self.rf_bootstrap,
            }
        return {}


@dataclass(frozen=True)
class TrainingMetadata:
    seed: int
    hyperparameters: dict
    training_fingerprint: str
    extras: dict = field(default_factory=dict)


# --- training data normalization ---------------------------------------------


@dataclass
class _TrainingData:
    kind: str  # "text" | "vector"
    inputs: list
    y: np.ndarray
    w: np.ndarray


def _normalize_items(items: Sequence, what: str) -> _TrainingData:
    if not items:
        raise TrainingError(f"{what} set is empty")
    inputs, ys, ws = [], [], []
    for item in items:
        if len(item) == 2:
            x, y = item
            w = 1.0
        elif len(item) == 3:
            x, y, w = item
        else:
            raise TrainingError("items must be (input, target) or (input, target, weight)")
        if not -1.0 <= y <= 1.0:
            raise TrainingError(f"target {y} outside [-1, 1]")
        if w <= 0:
            raise TrainingError("weights must be positive")
        inputs.append(x)
        ys.append(float(y))
        ws.append(float(w))
    if all(isinstance(x, str) for x in inputs):
        kind = "text"
    elif all(isinstance(x, FeatureVector) for x in inputs):
        kind = "vector"
    else:
        raise TrainingError(f"{what} inputs must be all text or all FeatureVector")
    return _TrainingData(kind=kind, inputs=inputs, y=np.asarray(ys), w=np.asarray(ws))


def _fingerprint(data: _TrainingData) -> str:
    digest = hashlib.sha256()
    digest.update(data.kind.encode())
    for x, y, w in zip(data.inputs, data.y, data.w):
        if isinstance(x, str):
            digest.update(b"T")
            digest.update(x.encode("utf-8", "surrogatepass"))
        else:
            digest.update(b"V")
            digest.update(np.asarray(x.indices, dtype=np.int64).tobytes())
            digest.update(np.asarray(x.weights, dtype=np.float64).tobytes())
        digest.update(struct.pack("<dd", y, w))
        digest.update(b"\x00")
    return digest.hexdigest()


def _clamp(scores: np.ndarray) -> np.ndarray:
    return np.clip(scores, -1.0, 1.0)


# --- model classes -----------------------------------------------------------


class Model:
    """Base regressor: subclasses implement raw scoring over a batch."""

    family: str = ""

    def __init__(self, metadata: TrainingMetadata, vocab: Vocabulary | None, dimension: int | None):
        self.metadata = metadata
        self.vocab = vocab
        self.dimension = dimension

    def predict_batch(self, inputs: Sequence) -> np.ndarray:
        """Predict for a batch; outputs are clamped to [-1, 1]."""
        if len(inputs) == 0:
            return np.zeros(0)
        return _clamp(self._raw_scores(list(inputs)))

    def predict(self, x) -> float:
        return float(self.predict_batch([x])[0])

    def _raw_scores(self, inputs: list) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the model holds open; only an external model holds anything."""

    def _vectors(self, inputs: list) -> sparse.csr_matrix:
        if all(isinstance(x, str) for x in inputs):
            if self.vocab is None:
                raise PredictionError(f"{self.family} model was trained on vectors; pass FeatureVector inputs")
            return transform_many(self.vocab, inputs)
        if all(isinstance(x, FeatureVector) for x in inputs):
            matrix = to_csr(inputs)
            if self.dimension is not None and matrix.shape[1] != self.dimension:
                raise PredictionError(f"expected dimension {self.dimension}, got {matrix.shape[1]}")
            return matrix
        raise PredictionError("inputs must be all text or all FeatureVector")

    # persistence hooks
    def _param_arrays(self) -> dict[str, np.ndarray]:
        return {}

    def _extra_metadata(self) -> dict:
        return {}


class ConstantMeanModel(Model):
    family = FAMILY_CONSTANT_MEAN

    def __init__(self, mean: float, metadata: TrainingMetadata):
        super().__init__(metadata, vocab=None, dimension=None)
        self.mean = float(mean)

    def _raw_scores(self, inputs: list) -> np.ndarray:
        return np.full(len(inputs), self.mean)

    def _param_arrays(self) -> dict[str, np.ndarray]:
        return {"mean": np.array([self.mean])}


class UniformRandomModel(Model):
    """Scores drawn uniformly from [-1, 1]; the i-th score of a batch depends
    only on (seed, i), so batch prediction is pure and reproducible."""

    family = FAMILY_UNIFORM_RANDOM

    def __init__(self, metadata: TrainingMetadata):
        super().__init__(metadata, vocab=None, dimension=None)

    def _raw_scores(self, inputs: list) -> np.ndarray:
        rng = np.random.default_rng(self.metadata.seed)
        return rng.uniform(-1.0, 1.0, len(inputs))


class _LinearModel(Model):
    def __init__(
        self,
        weights: np.ndarray,
        bias: float,
        metadata: TrainingMetadata,
        vocab: Vocabulary | None,
        dimension: int,
    ):
        super().__init__(metadata, vocab, dimension)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)

    def _raw_scores(self, inputs: list) -> np.ndarray:
        matrix = self._vectors(inputs)
        return matrix @ self.weights + self.bias

    def _param_arrays(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": np.array([self.bias])}


class RidgeModel(_LinearModel):
    family = FAMILY_RIDGE


class LinearSVRModel(_LinearModel):
    family = FAMILY_LINEAR_SVR


# Most floats in the dense block of split columns that a tree walks at once;
# a depth-12 tree can split on 4,095 columns, so rows go through in blocks.
_BLOCK_FLOATS = 1 << 20


@dataclass(frozen=True)
class _Tree:
    feature: np.ndarray  # int32; -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, columns: sparse.csc_matrix) -> np.ndarray:
        """Leaf value for every row of a CSC matrix.

        Only the columns the tree splits on are gathered, densely, one block
        of rows at a time; all rows of a block then descend together, one
        level per step, until no row moves. Children have larger indices
        than their parent (checked on load), so the walk ends.
        """
        n_rows = columns.shape[0]
        internal = self.feature >= 0
        if not internal.any():
            return np.full(n_rows, self.value[0])
        used, inverse = np.unique(self.feature[internal], return_inverse=True)
        column = np.zeros(len(self.feature), dtype=np.intp)
        column[internal] = inverse
        node_ids = np.arange(len(self.feature))
        left = np.where(internal, self.left, node_ids)  # leaves point to themselves
        right = np.where(internal, self.right, node_ids)
        split_rows = columns[:, used].tocsr()
        out = np.empty(n_rows)
        step = max(1, _BLOCK_FLOATS // len(used))
        for start in range(0, n_rows, step):
            block = split_rows[start : start + step].toarray()
            rows = np.arange(len(block))
            node = np.zeros(len(block), dtype=np.intp)
            while True:
                below = np.where(block[rows, column[node]] <= self.threshold[node], left[node], right[node])
                if np.array_equal(below, node):
                    break
                node = below
            out[start : start + len(block)] = self.value[node]
        return out


class RandomForestModel(Model):
    family = FAMILY_RANDOM_FOREST

    def __init__(
        self,
        trees: Sequence[_Tree],
        metadata: TrainingMetadata,
        vocab: Vocabulary | None,
        dimension: int,
    ):
        super().__init__(metadata, vocab, dimension)
        self.trees = list(trees)

    def predict_per_tree(self, inputs: Sequence) -> np.ndarray:
        """Unclamped per-tree scores, shape (n_trees, n_inputs)."""
        columns = self._vectors(list(inputs)).tocsc()
        out = np.empty((len(self.trees), columns.shape[0]))
        for t, tree in enumerate(self.trees):
            out[t] = tree.predict(columns)
        return out

    def _raw_scores(self, inputs: list) -> np.ndarray:
        return self.predict_per_tree(inputs).mean(axis=0)

    def _param_arrays(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for i, tree in enumerate(self.trees):
            arrays[f"t{i}_feature"] = tree.feature
            arrays[f"t{i}_threshold"] = tree.threshold
            arrays[f"t{i}_left"] = tree.left
            arrays[f"t{i}_right"] = tree.right
            arrays[f"t{i}_value"] = tree.value
        return arrays

    def _extra_metadata(self) -> dict:
        return {"n_trees": len(self.trees)}


class ExternalModel(Model):
    """Adapter for a scorer reachable over the NDJSON protocol.

    The model owns one session with the scorer, opened on first use and kept
    until close(), so a fit and the predictions after it reach the same
    process. The model file stores only the fingerprint of the endpoint: a
    loaded model scores nothing until its caller sets an `endpoint` whose
    fingerprint matches.
    """

    family = FAMILY_EXTERNAL

    def __init__(
        self,
        endpoint_sha256: str,
        metadata: TrainingMetadata,
        fit_accepted: bool | None,
        endpoint: ScorerEndpoint | None = None,
    ):
        super().__init__(metadata, vocab=None, dimension=None)
        self.endpoint_sha256 = endpoint_sha256
        self.fit_accepted = fit_accepted
        self.endpoint = endpoint
        self._client: ExternalScorerClient | None = None

    def _session(self) -> ExternalScorerClient:
        if self._client is None:
            if self.endpoint is None:
                raise PredictionError("external model has no scorer endpoint; give the one it was trained with")
            self._client = ExternalScorerClient(self.endpoint)
        return self._client

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def _raw_scores(self, inputs: list) -> np.ndarray:
        items = []
        for i, x in enumerate(inputs):
            if isinstance(x, str):
                items.append((str(i), x, None))
            elif isinstance(x, tuple) and len(x) == 2:
                items.append((str(i), x[0], x[1]))
            else:
                raise PredictionError("external inputs must be text or (text, parent) tuples")
        scores, errors = self._session().score_many(items)
        if errors:
            raise PredictionError(f"external scorer failed on {len(errors)} inputs: {errors}")
        return np.array([scores[str(i)] for i in range(len(inputs))])

    def _extra_metadata(self) -> dict:
        return {"endpoint_sha256": self.endpoint_sha256, "fit_accepted": self.fit_accepted}


# --- ridge -------------------------------------------------------------------


def _solve_ridge(
    matrix: sparse.csr_matrix,
    y: np.ndarray,
    lam: float,
    sw: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, dict]:
    """Conjugate gradient on the normal equations of [X, 1] with the bias
    column unpenalized. Deterministic; no randomness involved.

    Also returns diagnostics: the iterations run, the norm of the final
    residual of the normal equations (as CG tracks it) and whether it reached
    the tolerance before max_iter or a breakdown stopped the solver."""
    n, d = matrix.shape

    def apply(theta: np.ndarray) -> np.ndarray:
        w, b = theta[:d], theta[d]
        t = sw * (matrix @ w + b)
        out = np.empty(d + 1)
        out[:d] = matrix.T @ t + lam * w
        out[d] = t.sum()
        return out

    rhs = np.empty(d + 1)
    t = sw * y
    rhs[:d] = matrix.T @ t
    rhs[d] = t.sum()

    theta = np.zeros(d + 1)
    residual = rhs - apply(theta)
    direction = residual.copy()
    rs = float(residual @ residual)
    threshold = (tol * max(1.0, math.sqrt(float(rhs @ rhs)))) ** 2
    iterations = 0
    while iterations < max_iter and rs > threshold:
        applied = apply(direction)
        denom = float(direction @ applied)
        if denom <= 0.0:
            break
        alpha = rs / denom
        theta += alpha * direction
        residual -= alpha * applied
        rs_next = float(residual @ residual)
        direction = residual + (rs_next / rs) * direction
        rs = rs_next
        iterations += 1
    diagnostics = {"iterations": iterations, "residual_norm": math.sqrt(rs), "converged": rs <= threshold}
    return theta[:d], float(theta[d]), diagnostics


# --- linear SVR ---------------------------------------------------------------


def _validation_mse(weights: np.ndarray, bias: float, matrix, y: np.ndarray) -> float:
    preds = _clamp(matrix @ weights + bias)
    return float(np.mean((preds - y) ** 2))


def _fit_linear_svr(
    matrix: sparse.csr_matrix,
    y: np.ndarray,
    sw: np.ndarray,
    val_matrix: sparse.csr_matrix | None,
    val_y: np.ndarray | None,
    config: TrainConfig,
) -> tuple[np.ndarray, float, dict]:
    """Mini-batch subgradient descent on
    ||w||^2 / (2 C W) + (1/W) sum_i sw_i max(0, |y_i - f(x_i)| - eps),
    with an epoch-level 1/t learning-rate decay and epoch-level early stopping
    on validation MSE (patience from config). Returns the best snapshot.

    The weights are kept as scale * v (Shalev-Shwartz et al., ICML 2007;
    Bottou 2010), so a batch's L2 decay is one scalar multiply and a batch
    costs its own nonzeros. Each epoch gathers its permuted rows into flat
    arrays once, so a batch is a contiguous slice of them."""
    n, d = matrix.shape
    rng = np.random.default_rng(config.seed)
    v = np.zeros(d)
    scale = 1.0
    bias = 0.0
    total_weight = float(sw.sum())
    reg = 1.0 / (config.svr_c * total_weight)
    row_nnz = np.diff(matrix.indptr)
    batch_size = config.svr_batch_size

    has_val = val_matrix is not None and val_y is not None and len(val_y) > 0
    history: list[float] = []
    best = (math.inf, v, bias, 0)
    if has_val:
        initial = _validation_mse(v, bias, val_matrix, val_y)
        history.append(initial)
        best = (initial, v.copy(), bias, 0)

    epochs_run = 0
    for epoch in range(1, config.svr_max_epochs + 1):
        lr = config.svr_learning_rate / epoch
        decay = 1.0 - lr * reg
        order = rng.permutation(n)
        lengths = row_nnz[order]
        ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(lengths, out=ptr[1:])
        entry = np.arange(ptr[-1]) + np.repeat(matrix.indptr[order] - ptr[:-1], lengths)
        cols, vals = matrix.indices[entry], matrix.data[entry]
        rows = np.repeat(np.arange(n) % batch_size, lengths)  # each entry's row within its batch
        y_epoch, sw_epoch, ptr = y[order], sw[order], ptr.tolist()
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            lo, hi = ptr[start], ptr[stop]
            col, val, row = cols[lo:hi], vals[lo:hi], rows[lo:hi]
            dots = np.bincount(row, val * v[col], minlength=stop - start) * scale
            residual = y_epoch[start:stop] - (dots + bias)
            active = np.abs(residual) > config.svr_epsilon
            coef = np.where(active, -np.sign(residual), 0.0) * sw_epoch[start:stop]
            batch_weight = float(sw_epoch[start:stop].sum())
            scale *= decay
            if decay <= 0.0 or abs(scale) < 1e-9:  # fold the scale into v: it is zeroed, flipped or underflowing
                v *= scale
                scale = 1.0
            np.subtract.at(v, col, (lr / (batch_weight * scale)) * val * coef[row])
            bias -= lr * (float(coef.sum()) / batch_weight)
        epochs_run = epoch
        if has_val:
            weights = scale * v
            score = _validation_mse(weights, bias, val_matrix, val_y)
            history.append(score)
            if score < best[0]:
                best = (score, weights, bias, epoch)
            elif epoch - best[3] >= config.patience:
                break

    if has_val:
        _, weights, bias, best_epoch = best
        extras = {
            "epochs_run": epochs_run,
            "best_epoch": best_epoch,
            "validation_mse_history": history,
        }
    else:
        weights = scale * v
        extras = {"epochs_run": epochs_run, "best_epoch": epochs_run, "validation_mse_history": []}
    return weights, bias, extras


# --- random forest -------------------------------------------------------------


def _best_split(
    csc: sparse.csc_matrix,
    position: np.ndarray,
    y_node: np.ndarray,
    w_node: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """Best (score, feature, threshold) over the candidate columns at a node.

    position maps each row of csc to its index among the node's rows, or -1.
    The score is sum_left^2/W_left + sum_right^2/W_right of weighted targets;
    maximizing it minimizes weighted SSE. Thresholds are midpoints between
    distinct consecutive values; the first best threshold of the first best
    candidate wins, and a split must beat the unsplit node.

    Sparsity-aware (Chen & Guestrin, KDD 2016, section 3.4): only a column's
    nonzeros at the node are sorted, and its zero rows enter the sweep as one
    bucket at value 0, between the negative and the positive values. A column
    with no nonzero at the node is skipped. The candidates are swept together,
    one row per column in zero-padded tables; each row's sums are sequential
    and start from zero, so two columns that order the node's rows alike
    score bit-identically.
    """
    n = len(y_node)
    starts = csc.indptr[candidates]
    lengths = csc.indptr[candidates + 1] - starts
    # every candidate's CSC entries end to end, each tagged with its candidate
    entry = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    owner = np.repeat(np.arange(len(candidates)), lengths)
    pos = position[csc.indices[entry]]
    vals = csc.data[entry]
    keep = (pos >= 0) & (vals != 0)
    if not keep.any():
        return None
    # stable: equal values keep node order, as a stable sort of the dense column does
    order = np.lexsort((vals[keep], owner[keep]))
    owner, pos, vals = owner[keep][order], pos[keep][order], vals[keep][order]
    present, seg_start, nnz = np.unique(owner, return_index=True, return_counts=True)
    seg = np.repeat(np.arange(len(present)), nnz)
    wy_node = w_node * y_node
    w_nz, wy_nz = w_node[pos], wy_node[pos]

    # each column's sweep, end to end: negatives, the zero bucket, positives
    zeros = n - nnz
    length = nnz + (zeros > 0)
    offset = np.cumsum(length) - length
    bucket = np.flatnonzero(zeros)
    negatives = np.bincount(seg[vals < 0], minlength=len(present))
    at = offset[seg] + np.arange(len(seg)) - seg_start[seg] + ((vals > 0) & (zeros[seg] > 0))
    at_bucket = offset[bucket] + negatives[bucket]
    size = int(length.sum())
    flat_v, flat_w, flat_wy = np.empty(size), np.empty(size), np.empty(size)
    flat_count = np.ones(size, dtype=np.int64)
    flat_v[at], flat_w[at], flat_wy[at] = vals, w_nz, wy_nz
    flat_v[at_bucket] = 0.0
    flat_w[at_bucket] = w_node.sum() - np.add.reduceat(w_nz, seg_start)[bucket]
    flat_wy[at_bucket] = wy_node.sum() - np.add.reduceat(wy_nz, seg_start)[bucket]
    flat_count[at_bucket] = zeros[bucket]

    # one table per group of columns whose sweeps are within a factor 2 in length
    score, threshold = np.empty(len(present)), np.empty(len(present))
    group = np.frexp(length - 1)[1]
    for g in np.unique(group):
        rows = np.flatnonzero(group == g)
        cell = offset[rows, None] + np.arange(length[rows].max())
        pad = cell >= (offset + length)[rows, None]
        cell[pad] = 0
        score[rows], threshold[rows] = _sweep(
            np.where(pad, np.nan, flat_v[cell]),  # NaN never starts a valid split
            np.where(pad, 0.0, flat_w[cell]),
            np.where(pad, 0.0, flat_wy[cell]),
            np.where(pad, 0, flat_count[cell]),
            n,
            min_leaf,
        )
    winner = int(np.argmax(score))
    if score[winner] == -np.inf:
        return None
    return float(score[winner]), int(candidates[present[winner]]), float(threshold[winner])


def _sweep(
    v: np.ndarray, w: np.ndarray, wy: np.ndarray, count: np.ndarray, n: int, min_leaf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best score (-inf if none beats the unsplit node) and its threshold for
    each row of a sweep table: ascending values, and the summed weight,
    weighted target and node-row count of each value."""
    cw = np.cumsum(w, axis=1)
    cwy = np.cumsum(wy, axis=1)
    total_w, total_wy = cw[:, -1:], cwy[:, -1:]
    left_w, left_wy = cw[:, :-1], cwy[:, :-1]
    right_w, right_wy = total_w - left_w, total_wy - left_wy
    counts = np.cumsum(count, axis=1)[:, :-1]
    valid = (v[:, :-1] < v[:, 1:]) & (counts >= min_leaf) & ((n - counts) >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(valid, left_wy**2 / left_w + right_wy**2 / right_w, -np.inf)
    cut = np.argmax(score, axis=1)
    rows = np.arange(len(v))
    best = score[rows, cut]
    parent = (total_wy**2 / total_w)[:, 0]
    best[best <= parent + 1e-12 * np.maximum(1.0, np.abs(parent))] = -np.inf
    return best, (v[rows, cut] + v[rows, cut + 1]) / 2.0


def _build_tree(
    csc: sparse.csc_matrix,
    y: np.ndarray,
    sw: np.ndarray,
    rng: np.random.Generator,
    max_depth: int | None,
    min_leaf: int,
    n_feature_sample: int,
) -> _Tree:
    n_rows, n_features = csc.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    position = np.full(n_rows, -1, dtype=np.int64)

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def grow(rows: np.ndarray, depth: int, node: int) -> None:
        y_node, w_node = y[rows], sw[rows]
        value[node] = float((w_node * y_node).sum() / w_node.sum())
        n_node = len(rows)
        if n_node < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
            return
        if y_node.max() - y_node.min() <= 0.0:
            return
        candidates = rng.choice(n_features, size=min(n_feature_sample, n_features), replace=False)
        position[rows] = np.arange(n_node)
        best = _best_split(csc, position, y_node, w_node, candidates, min_leaf)
        position[rows] = -1
        if best is None:
            return
        _, j, cut = best
        start, end = csc.indptr[j], csc.indptr[j + 1]
        col_values = np.zeros(n_rows)
        col_values[csc.indices[start:end]] = csc.data[start:end]
        go_left = col_values[rows] <= cut
        rows_left, rows_right = rows[go_left], rows[~go_left]
        feature[node] = j
        threshold[node] = cut
        left[node] = new_node()
        right[node] = new_node()
        grow(rows_left, depth + 1, left[node])
        grow(rows_right, depth + 1, right[node])

    grow(np.arange(n_rows), 0, new_node())
    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.float64),
    )


def _fit_forest(matrix: sparse.csr_matrix, y: np.ndarray, sw: np.ndarray, config: TrainConfig) -> list[_Tree]:
    n, d = matrix.shape
    if config.rf_max_features == "sqrt":
        n_sample = max(1, int(round(math.sqrt(d))))
    elif config.rf_max_features == "all":
        n_sample = d
    elif isinstance(config.rf_max_features, int) and config.rf_max_features >= 1:
        n_sample = min(d, config.rf_max_features)
    else:
        raise TrainingError(f"bad rf_max_features {config.rf_max_features!r}")
    trees = []
    for i in range(config.rf_n_trees):
        # per-tree seed = master ^ i, so parallel tree training could never
        # change results
        rng = np.random.default_rng(config.seed ^ i)
        boot = rng.integers(0, n, n) if config.rf_bootstrap else np.arange(n)
        csc = matrix[boot].tocsc()
        trees.append(
            _build_tree(
                csc,
                y[boot],
                sw[boot],
                rng,
                config.rf_max_depth,
                config.rf_min_samples_leaf,
                n_sample,
            )
        )
    return trees


# --- train/predict ------------------------------------------------------------


def train(
    family: str,
    train_set: Sequence,
    validation_set: Sequence | None = None,
    config: TrainConfig | None = None,
) -> Model:
    """Train a regressor. Items are (input, target[, weight]) with targets in
    [-1, 1]; inputs are texts (featurized internally) or FeatureVectors."""
    family = resolve_family(family)
    config = config or TrainConfig()
    data = _normalize_items(train_set, "train")
    metadata = TrainingMetadata(
        seed=config.seed,
        hyperparameters=config.hyperparameters(family),
        training_fingerprint=_fingerprint(data),
    )

    if family == FAMILY_CONSTANT_MEAN:
        mean = float((data.w * data.y).sum() / data.w.sum())
        return ConstantMeanModel(mean, metadata)

    if family == FAMILY_UNIFORM_RANDOM:
        return UniformRandomModel(metadata)

    if family == FAMILY_EXTERNAL:
        if config.external is None:
            raise TrainingError("external family needs config.external (a ScorerEndpoint)")
        examples = [
            {"text": x, "parent": None, "target": y}
            for x, y in zip(data.inputs, data.y.tolist())
            if isinstance(x, str)
        ]
        model = ExternalModel(config.external.fingerprint, metadata, None, config.external)
        if examples:
            model.fit_accepted = model._session().fit(examples)
        return model

    # featurized families
    vocab: Vocabulary | None = None
    if data.kind == "text":
        vocab = fit_vocabulary(data.inputs, config.features)
        matrix = transform_many(vocab, data.inputs)
    else:
        matrix = to_csr(data.inputs)
    dimension = matrix.shape[1]

    val_matrix = None
    val_y = None
    if validation_set:
        val_data = _normalize_items(validation_set, "validation")
        if val_data.kind != data.kind:
            raise TrainingError("validation inputs must match train input kind")
        if val_data.kind == "vector":
            val_matrix = to_csr(val_data.inputs)
            if val_matrix.shape[1] != dimension:
                raise TrainingError("validation vectors disagree on dimension")
        elif family == FAMILY_LINEAR_SVR:  # the only family that reads the validation set
            val_matrix = transform_many(vocab, val_data.inputs)
        val_y = val_data.y

    if family == FAMILY_RIDGE:
        weights, bias, extras = _solve_ridge(
            matrix, data.y, config.ridge_lambda, data.w, config.ridge_tol, config.ridge_max_iter
        )
        metadata = replace(metadata, extras=extras)
        return RidgeModel(weights, bias, metadata, vocab, dimension)

    if family == FAMILY_LINEAR_SVR:
        weights, bias, extras = _fit_linear_svr(matrix, data.y, data.w, val_matrix, val_y, config)
        metadata = replace(metadata, extras=extras)
        return LinearSVRModel(weights, bias, metadata, vocab, dimension)

    if family == FAMILY_RANDOM_FOREST:
        trees = _fit_forest(matrix, data.y, data.w, config)
        return RandomForestModel(trees, metadata, vocab, dimension)

    raise TrainingError(f"unhandled family {family!r}")


# --- persistence ---------------------------------------------------------------

_MAGIC = b"CSENSMDL"
FORMAT_MAJOR = 1
FORMAT_MINOR = 0


def _pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    buf.write(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        encoded = name.encode("utf-8")
        blob = io.BytesIO()
        np.save(blob, np.ascontiguousarray(arrays[name]), allow_pickle=False)
        payload = blob.getvalue()
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<Q", len(payload)))
        buf.write(payload)
    return buf.getvalue()


def _unpack_arrays(payload: bytes) -> dict[str, np.ndarray]:
    buf = io.BytesIO(payload)
    (count,) = struct.unpack("<I", buf.read(4))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", buf.read(4))
        name = buf.read(name_len).decode("utf-8")
        (blob_len,) = struct.unpack("<Q", buf.read(8))
        arrays[name] = np.load(io.BytesIO(buf.read(blob_len)), allow_pickle=False)
    return arrays


def save_model(model: Model, path: str | Path) -> None:
    """Write the versioned model container: magic, version, family tag,
    JSON metadata block, binary parameter block, trailing CRC32."""
    metadata = {
        "seed": model.metadata.seed,
        "hyperparameters": model.metadata.hyperparameters,
        "training_fingerprint": model.metadata.training_fingerprint,
        "extras": model.metadata.extras | model._extra_metadata(),
        "vocabulary": model.vocab.to_json() if model.vocab is not None else None,
        "dimension": model.dimension,
    }
    meta_bytes = json.dumps(metadata, ensure_ascii=False, sort_keys=True).encode("utf-8")
    family_bytes = model.family.encode("utf-8")
    params = _pack_arrays(model._param_arrays())

    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<HH", FORMAT_MAJOR, FORMAT_MINOR))
    buf.write(struct.pack("<I", len(family_bytes)))
    buf.write(family_bytes)
    buf.write(struct.pack("<I", len(meta_bytes)))
    buf.write(meta_bytes)
    buf.write(struct.pack("<Q", len(params)))
    buf.write(params)
    body = buf.getvalue()
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _tree_problem(tree: _Tree, dimension: int | None) -> str | None:
    """Why tree cannot be walked safely, or None. The checksum catches
    accidents, not crafted files, and a child that does not come after its
    parent would make prediction loop forever."""
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if any(a.ndim != 1 for a in arrays) or len({len(a) for a in arrays}) != 1 or len(tree.feature) == 0:
        return "node arrays must be one-dimensional, non-empty and of equal length"
    if any(not np.issubdtype(a.dtype, np.integer) for a in (tree.feature, tree.left, tree.right)):
        return "feature, left and right must be integer arrays"
    internal = tree.feature >= 0
    if (tree.feature[~internal] != -1).any():
        return "a leaf must have feature -1"
    if dimension is None or (tree.feature >= dimension).any():
        return f"a split feature is not below the dimension {dimension}"
    node = np.flatnonzero(internal)
    n_nodes = len(tree.feature)
    for child in (tree.left[internal], tree.right[internal]):
        if ((child <= node) | (child >= n_nodes)).any():
            return "a child must come after its parent and exist"
    return None


def load_model(path: str | Path) -> Model:
    blob = Path(path).read_bytes()
    if len(blob) < len(_MAGIC) + 8 or not blob.startswith(_MAGIC):
        raise ModelPersistenceError(f"{path}: not a model file")
    body, tail = blob[:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", tail)
    if zlib.crc32(body) != stored_crc:
        raise ChecksumError(f"{path}: checksum mismatch; file is corrupted")
    buf = io.BytesIO(body[len(_MAGIC) :])
    major, _minor = struct.unpack("<HH", buf.read(4))
    if major > FORMAT_MAJOR:
        raise VersionError(f"{path}: format major version {major} is newer than supported {FORMAT_MAJOR}")
    (family_len,) = struct.unpack("<I", buf.read(4))
    family = buf.read(family_len).decode("utf-8")
    (meta_len,) = struct.unpack("<I", buf.read(4))
    metadata_obj = json.loads(buf.read(meta_len).decode("utf-8"))
    (params_len,) = struct.unpack("<Q", buf.read(8))
    arrays = _unpack_arrays(buf.read(params_len))

    extras = dict(metadata_obj.get("extras", {}))
    metadata = TrainingMetadata(
        seed=metadata_obj["seed"],
        hyperparameters=metadata_obj["hyperparameters"],
        training_fingerprint=metadata_obj["training_fingerprint"],
        extras=extras,
    )
    vocab_obj = metadata_obj.get("vocabulary")
    vocab = Vocabulary.from_json(vocab_obj) if vocab_obj is not None else None
    dimension = metadata_obj.get("dimension")

    if family == FAMILY_CONSTANT_MEAN:
        return ConstantMeanModel(float(arrays["mean"][0]), metadata)
    if family == FAMILY_UNIFORM_RANDOM:
        return UniformRandomModel(metadata)
    if family == FAMILY_RIDGE:
        return RidgeModel(arrays["weights"], float(arrays["bias"][0]), metadata, vocab, dimension)
    if family == FAMILY_LINEAR_SVR:
        return LinearSVRModel(arrays["weights"], float(arrays["bias"][0]), metadata, vocab, dimension)
    if family == FAMILY_RANDOM_FOREST:
        trees = []
        for i in range(extras["n_trees"]):
            tree = _Tree(
                feature=arrays[f"t{i}_feature"],
                threshold=arrays[f"t{i}_threshold"],
                left=arrays[f"t{i}_left"],
                right=arrays[f"t{i}_right"],
                value=arrays[f"t{i}_value"],
            )
            problem = _tree_problem(tree, dimension)
            if problem:
                raise ModelPersistenceError(f"{path}: tree {i}: {problem}")
            trees.append(tree)
        return RandomForestModel(trees, metadata, vocab, dimension)
    if family == FAMILY_EXTERNAL:
        if "endpoint_sha256" not in extras:  # older files stored the endpoint itself
            old = extras.pop("endpoint")
            extras["endpoint_sha256"] = transport_fingerprint(old.get("command"), old.get("address"))
        return ExternalModel(extras["endpoint_sha256"], metadata, extras.get("fit_accepted"))
    raise ModelPersistenceError(f"{path}: unknown family {family!r}")
