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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from . import _fork
from .features import Tokens, Vocabulary, fit_vocabulary, score_in_parts, to_csr, tokenize, transform_many
from .scorer import ExternalScorerClient, ScorerEndpoint, transport_fingerprint
# re-exported; settings needs no SciPy
from .settings import ModelPersistenceError, PredictionError, TrainConfig, TrainingError  # noqa: F401

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


def _hyperparameters(config: TrainConfig, family: str) -> dict:
    """The fields of config that family reads, named by their prefixes."""
    prefixes = {FAMILY_RIDGE: ("ridge_",), FAMILY_LINEAR_SVR: ("svr_", "patience"), FAMILY_RANDOM_FOREST: ("rf_",)}
    return {f.name: getattr(config, f.name) for f in fields(config) if f.name.startswith(prefixes.get(family, ()))}


class ChecksumError(ModelPersistenceError):
    pass


class VersionError(ModelPersistenceError):
    pass


@dataclass(frozen=True)
class TrainingMetadata:
    seed: int
    hyperparameters: dict
    training_fingerprint: str
    extras: dict = field(default_factory=dict)


# --- inputs and targets --------------------------------------------------------


def _n_rows(inputs) -> int:
    return inputs.shape[0] if sparse.issparse(inputs) else len(inputs)


def _texts(inputs, error: type[Exception]) -> list[str] | Tokens:
    if isinstance(inputs, Tokens):
        return inputs
    texts = list(inputs)
    if not all(isinstance(x, str) for x in texts):
        raise error("inputs must be a list of texts or a scipy sparse matrix")
    return texts


def _targets(targets, n_rows: int, what: str) -> np.ndarray:
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (n_rows,):
        raise TrainingError(f"{what} set has {n_rows} inputs but {y.size} targets")
    if n_rows == 0:
        raise TrainingError(f"{what} set is empty")
    outside = ~((y >= -1.0) & (y <= 1.0))
    if outside.any():
        raise TrainingError(f"target {y[outside][0]} outside [-1, 1]")
    return y


def _features(inputs, vocab: Vocabulary | None, dimension: int | None, error: type[Exception]) -> sparse.csr_matrix:
    """CSR rows of a batch: texts through vocab, or a sparse matrix of the
    given dimension (any dimension if None) as canonical CSR."""
    if sparse.issparse(inputs):
        matrix = to_csr(inputs)
        if dimension is not None and matrix.shape[1] != dimension:
            raise error(f"expected dimension {dimension}, got {matrix.shape[1]}")
        return matrix
    if vocab is None:
        raise error("model was trained on a sparse matrix; pass one")
    return transform_many(vocab, _texts(inputs, error))


def _fingerprint(inputs: list[str] | Tokens | sparse.csr_matrix, y: np.ndarray) -> str:
    """SHA-256 over the rows: a text, or a row's column indices and values,
    then its target and a constant 1.0, which keeps the byte stream, and so
    the fingerprint, that existing model files store."""
    digest = hashlib.sha256()
    if not sparse.issparse(inputs):
        digest.update(b"text")
        rows = (b"T" + x.encode("utf-8", "surrogatepass") for x in inputs)
    else:
        digest.update(b"vector")
        indices, data, bounds = inputs.indices.astype(np.int64), inputs.data, inputs.indptr.tolist()
        rows = (b"V" + indices[a:b].tobytes() + data[a:b].tobytes() for a, b in zip(bounds, bounds[1:]))
    for row, target in zip(rows, y.tolist()):
        digest.update(row)
        digest.update(struct.pack("<dd", target, 1.0))
        digest.update(b"\x00")
    return digest.hexdigest()


def _clamp(scores: np.ndarray) -> np.ndarray:
    return np.clip(scores, -1.0, 1.0)


# --- model classes -----------------------------------------------------------


class Model:
    """Base regressor: subclasses implement raw scoring over a batch. What a
    family stores besides its arrays is metadata.extras, set when it is built."""

    family: str = ""

    def __init__(self, metadata: TrainingMetadata, vocab: Vocabulary | None = None, dimension: int | None = None):
        self.metadata = metadata
        self.vocab = vocab
        self.dimension = dimension

    def predict_batch(self, inputs) -> np.ndarray:
        """Predict for texts (a list or Tokens) or a sparse matrix, one score
        per input or row, clamped to [-1, 1].

        Texts for a featurized family are featurized and scored a block at a
        time, in parts (features.score_in_parts)."""
        if _n_rows(inputs) == 0:
            return np.zeros(0)
        if self.vocab is None or sparse.issparse(inputs):
            return _clamp(self._raw_scores(inputs))
        return _clamp(score_in_parts(self.vocab, _texts(inputs, PredictionError), self._raw_scores))

    def _raw_scores(self, inputs) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the model holds open; only an external model holds anything."""

    def _matrix(self, inputs) -> sparse.csr_matrix:
        return _features(inputs, self.vocab, self.dimension, PredictionError)

    def _param_arrays(self) -> dict[str, np.ndarray]:
        return {}


class ConstantMeanModel(Model):
    family = FAMILY_CONSTANT_MEAN

    def __init__(self, mean: float, metadata: TrainingMetadata):
        super().__init__(metadata)
        self.mean = float(mean)

    def _raw_scores(self, inputs) -> np.ndarray:
        return np.full(_n_rows(inputs), self.mean)

    def _param_arrays(self) -> dict[str, np.ndarray]:
        return {"mean": np.array([self.mean])}


class UniformRandomModel(Model):
    """Scores drawn uniformly from [-1, 1]; the i-th score of a batch depends
    only on (seed, i), so batch prediction is pure and reproducible."""

    family = FAMILY_UNIFORM_RANDOM

    def _raw_scores(self, inputs) -> np.ndarray:
        rng = np.random.default_rng(self.metadata.seed)
        return rng.uniform(-1.0, 1.0, _n_rows(inputs))


class LinearModel(Model):
    """weights . x + bias, with the weights fitted by ridge or linear_svr."""

    def __init__(
        self,
        family: str,
        weights: np.ndarray,
        bias: float,
        metadata: TrainingMetadata,
        vocab: Vocabulary | None,
        dimension: int,
    ):
        super().__init__(metadata, vocab, dimension)
        self.family = family
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)

    def _raw_scores(self, inputs) -> np.ndarray:
        return self._matrix(inputs) @ self.weights + self.bias

    def _param_arrays(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": np.array([self.bias])}


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

    def predict_per_tree(self, inputs) -> np.ndarray:
        """Unclamped per-tree scores, shape (n_trees, n_inputs)."""
        columns = self._matrix(inputs).tocsc()
        out = np.empty((len(self.trees), columns.shape[0]))
        for t, tree in enumerate(self.trees):
            out[t] = tree.predict(columns)
        return out

    def _raw_scores(self, inputs) -> np.ndarray:
        return self.predict_per_tree(inputs).mean(axis=0)

    def _param_arrays(self) -> dict[str, np.ndarray]:
        return {f"t{i}_{f.name}": getattr(tree, f.name) for i, tree in enumerate(self.trees) for f in fields(_Tree)}


class ExternalModel(Model):
    """Adapter for a scorer reachable over the NDJSON protocol.

    The model owns one session with the scorer, kept until close(): the one
    its fit ran in, or one opened on first use, so a fit and the predictions
    after it reach the same process. The model file stores only the
    fingerprint of the endpoint (extras "endpoint_sha256", with the fit's
    answer as "fit_accepted"): a loaded model scores nothing until its caller
    sets an `endpoint` whose fingerprint matches.
    """

    family = FAMILY_EXTERNAL

    def __init__(
        self,
        metadata: TrainingMetadata,
        endpoint: ScorerEndpoint | None = None,
        client: ExternalScorerClient | None = None,
    ):
        super().__init__(metadata)
        self.endpoint = endpoint
        self._client = client

    @property
    def endpoint_sha256(self) -> str:
        return self.metadata.extras["endpoint_sha256"]

    @property
    def fit_accepted(self) -> bool | None:
        return self.metadata.extras.get("fit_accepted")

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

    def _raw_scores(self, inputs) -> np.ndarray:
        if sparse.issparse(inputs):
            raise PredictionError("an external model scores texts only")
        texts = _texts(inputs, PredictionError)
        scores, errors = self._session().score_many([(str(i), x, None) for i, x in enumerate(texts)])
        if errors:
            first = "; ".join(f"input {i}: {errors[i]}" for i in sorted(errors, key=int)[:3])
            raise PredictionError(f"external scorer failed on {len(errors)} inputs; the first: {first}")
        return np.array([scores[str(i)] for i in range(len(texts))])


# --- ridge -------------------------------------------------------------------


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.add.reduce(a * b))


def _solve_ridge(
    matrix: sparse.csr_matrix,
    y: np.ndarray,
    lam: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, float, dict]:
    """Conjugate gradient on the normal equations of [X, 1] with the bias
    column unpenalized. Deterministic; no randomness involved. The inner
    products are summed by numpy in a fixed order, not by BLAS, whose order
    depends on its thread count, so the bytes do not either.

    Also returns diagnostics: the iterations run, the norm of the final
    residual of the normal equations (as CG tracks it) and whether it reached
    the tolerance before max_iter or a breakdown stopped the solver."""
    n, d = matrix.shape

    def apply(theta: np.ndarray) -> np.ndarray:
        w, b = theta[:d], theta[d]
        t = matrix @ w + b
        out = np.empty(d + 1)
        out[:d] = matrix.T @ t + lam * w
        out[d] = t.sum()
        return out

    rhs = np.empty(d + 1)
    rhs[:d] = matrix.T @ y
    rhs[d] = y.sum()

    theta = np.zeros(d + 1)
    residual = rhs - apply(theta)
    direction = residual.copy()
    rs = _dot(residual, residual)
    threshold = (tol * max(1.0, math.sqrt(_dot(rhs, rhs)))) ** 2
    iterations = 0
    while iterations < max_iter and rs > threshold:
        applied = apply(direction)
        denom = _dot(direction, applied)
        if denom <= 0.0:
            break
        alpha = rs / denom
        theta += alpha * direction
        residual -= alpha * applied
        rs_next = _dot(residual, residual)
        direction = residual + (rs_next / rs) * direction
        rs = rs_next
        iterations += 1
    diagnostics = {"iterations": iterations, "residual_norm": math.sqrt(rs), "converged": rs <= threshold}
    return theta[:d], float(theta[d]), diagnostics


# --- linear SVR ---------------------------------------------------------------


def _validation_mse(weights: np.ndarray, bias: float, matrix, y: np.ndarray) -> float:
    preds = _clamp(matrix @ weights + bias)
    return float(np.mean((preds - y) ** 2))


@np.errstate(over="ignore", invalid="ignore")  # a diverging epoch is a TrainingError below, not a warning
def _fit_linear_svr(
    matrix: sparse.csr_matrix,
    y: np.ndarray,
    val_matrix: sparse.csr_matrix | None,
    val_y: np.ndarray | None,
    config: TrainConfig,
) -> tuple[np.ndarray, float, dict]:
    """Mini-batch subgradient descent on
    ||w||^2 / (2 C n) + (1/n) sum_i max(0, |y_i - f(x_i)| - eps),
    with an epoch-level 1/t learning-rate decay and epoch-level early stopping
    on validation MSE (patience from config). Returns the best snapshot; an
    epoch that ends with weights or bias not finite is a TrainingError.

    The weights are kept as scale * v (Shalev-Shwartz et al., ICML 2007;
    Bottou 2010), so a batch's L2 decay is one scalar multiply and a batch
    costs its own nonzeros. Each epoch gathers its permuted rows (a CSR row
    gather) once, so a batch is a contiguous slice of their entries."""
    n, d = matrix.shape
    rng = np.random.default_rng(config.seed)
    v = np.zeros(d)
    scale = 1.0
    bias = 0.0
    reg = 1.0 / (config.svr_c * n)
    batch_size = config.svr_batch_size

    has_val = val_matrix is not None  # train passes a validation set only when it has rows
    history: list[float] = []
    if has_val:
        history.append(_validation_mse(v, bias, val_matrix, val_y))
        best = (history[0], v.copy(), bias, 0)

    for epoch in range(1, config.svr_max_epochs + 1):
        lr = config.svr_learning_rate / epoch
        decay = 1.0 - lr * reg
        order = rng.permutation(n)
        shuffled = matrix[order]
        cols, vals = shuffled.indices, shuffled.data
        rows = np.repeat(np.arange(n) % batch_size, np.diff(shuffled.indptr))  # each entry's row within its batch
        y_epoch, ptr = y[order], shuffled.indptr.tolist()
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            lo, hi = ptr[start], ptr[stop]
            col, val, row = cols[lo:hi], vals[lo:hi], rows[lo:hi]
            dots = np.bincount(row, val * v[col], minlength=stop - start) * scale
            residual = y_epoch[start:stop] - (dots + bias)
            active = np.abs(residual) > config.svr_epsilon
            coef = np.where(active, -np.sign(residual), 0.0)
            scale *= decay
            if decay <= 0.0 or abs(scale) < 1e-9:  # fold the scale into v: it is zeroed, flipped or underflowing
                v *= scale
                scale = 1.0
            np.subtract.at(v, col, (lr / ((stop - start) * scale)) * val * coef[row])
            bias -= lr * (float(coef.sum()) / (stop - start))
        weights = scale * v
        if not (np.isfinite(weights).all() and math.isfinite(bias)):
            raise TrainingError(
                f"linear_svr diverged at epoch {epoch}: its weights or bias are not finite; "
                f"lower svr_learning_rate ({config.svr_learning_rate!r})"
            )
        if has_val:
            history.append(_validation_mse(weights, bias, val_matrix, val_y))
            if history[-1] < best[0]:
                best = (history[-1], weights, bias, epoch)
            elif epoch - best[3] >= config.patience:
                break

    _, weights, bias, best_epoch = best if has_val else (None, weights, bias, epoch)
    return weights, bias, {"epochs_run": epoch, "best_epoch": best_epoch, "validation_mse_history": history}


# --- random forest -------------------------------------------------------------


def _best_split(
    csc: sparse.csc_matrix,
    position: np.ndarray,
    y_node: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """Best (score, feature, threshold) over the candidate columns at a node.

    position maps each row of csc to its index among the node's rows, or -1.
    The score is sum_left^2/n_left + sum_right^2/n_right of the targets;
    maximizing it minimizes the SSE. Thresholds are midpoints between
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
    y_nz = y_node[pos]

    # each column's sweep, end to end: negatives, the zero bucket, positives
    zeros = n - nnz
    length = nnz + (zeros > 0)
    offset = np.cumsum(length) - length
    bucket = np.flatnonzero(zeros)
    negatives = np.bincount(seg[vals < 0], minlength=len(present))
    at = offset[seg] + np.arange(len(seg)) - seg_start[seg] + ((vals > 0) & (zeros[seg] > 0))
    at_bucket = offset[bucket] + negatives[bucket]
    size = int(length.sum())
    flat_v, flat_y = np.empty(size), np.empty(size)
    flat_count = np.ones(size, dtype=np.int64)
    flat_v[at], flat_y[at] = vals, y_nz
    flat_v[at_bucket] = 0.0
    flat_y[at_bucket] = y_node.sum() - np.add.reduceat(y_nz, seg_start)[bucket]
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
            np.where(pad, 0.0, flat_y[cell]),
            np.where(pad, 0, flat_count[cell]),
            n,
            min_leaf,
        )
    winner = int(np.argmax(score))
    if score[winner] == -np.inf:
        return None
    return float(score[winner]), int(candidates[present[winner]]), float(threshold[winner])


def _sweep(
    v: np.ndarray, y: np.ndarray, count: np.ndarray, n: int, min_leaf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best score (-inf if none beats the unsplit node) and its threshold for
    each row of a sweep table: ascending values, and the summed target and
    node-row count of each value; every row covers all n node rows."""
    cy = np.cumsum(y, axis=1)
    total, left = cy[:, -1], cy[:, :-1]
    right = total[:, None] - left
    counts = np.cumsum(count, axis=1)[:, :-1]
    valid = (v[:, :-1] < v[:, 1:]) & (counts >= min_leaf) & ((n - counts) >= min_leaf)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(valid, left**2 / counts + right**2 / (n - counts), -np.inf)
    cut = np.argmax(score, axis=1)
    rows = np.arange(len(v))
    best = score[rows, cut]
    parent = total**2 / n
    best[best <= parent + 1e-12 * np.maximum(1.0, np.abs(parent))] = -np.inf
    return best, (v[rows, cut] + v[rows, cut + 1]) / 2.0


def _build_tree(
    csc: sparse.csc_matrix,
    y: np.ndarray,
    rng: np.random.Generator,
    max_depth: int | None,
    min_leaf: int,
    n_feature_sample: int,
) -> _Tree:
    n_rows, n_features = csc.shape
    nodes: list[list] = [[-1, 0.0, -1, -1, 0.0]]  # [feature, threshold, left, right, value] of each node
    position = np.full(n_rows, -1, dtype=np.int64)
    # preorder from an explicit stack: a split pushes its right child, then its
    # left, so the left subtree is grown first and depth costs no recursion
    stack = [(np.arange(n_rows), 0, 0)]
    while stack:
        rows, depth, node = stack.pop()
        y_node = y[rows]
        n_node = len(rows)
        nodes[node][4] = float(y_node.sum() / n_node)
        if n_node < 2 * min_leaf or (max_depth is not None and depth >= max_depth):
            continue
        if y_node.max() - y_node.min() <= 0.0:
            continue
        candidates = rng.choice(n_features, size=min(n_feature_sample, n_features), replace=False)
        position[rows] = np.arange(n_node)
        best = _best_split(csc, position, y_node, candidates, min_leaf)
        position[rows] = -1
        if best is None:
            continue
        _, j, cut = best
        start, end = csc.indptr[j], csc.indptr[j + 1]
        col_values = np.zeros(n_rows)
        col_values[csc.indices[start:end]] = csc.data[start:end]
        go_left = col_values[rows] <= cut
        child = len(nodes)
        nodes[node][:4] = [j, cut, child, child + 1]
        nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
        stack += [(rows[~go_left], depth + 1, child + 1), (rows[go_left], depth + 1, child)]

    feature, threshold, left, right, value = (np.array(column) for column in zip(*nodes))
    return _Tree(feature.astype(np.int32), threshold, left.astype(np.int32), right.astype(np.int32), value)


def _fit_forest(matrix: sparse.csr_matrix, y: np.ndarray, config: TrainConfig) -> list[_Tree]:
    n, d = matrix.shape
    if config.rf_max_features == "sqrt":
        n_sample = max(1, int(round(math.sqrt(d))))
    elif config.rf_max_features == "all":
        n_sample = d
    else:
        n_sample = min(d, config.rf_max_features)

    def tree(i: int) -> _Tree:
        # per-tree seed = master ^ i, so trees built in parallel parts are the
        # trees built one after another
        rng = np.random.default_rng(config.seed ^ i)
        boot = rng.integers(0, n, n) if config.rf_bootstrap else np.arange(n)
        csc = matrix[boot].tocsc()
        return _build_tree(csc, y[boot], rng, config.rf_max_depth, config.rf_min_samples_leaf, n_sample)

    # trees in contiguous parts of their indices, one per CPU
    ends = _fork.bounds(config.rf_n_trees, n * config.rf_n_trees)
    parts = _fork.run(lambda p: [tree(i) for i in range(ends[p], ends[p + 1])], len(ends) - 1)
    return [tree for part in parts for tree in part]


# --- train/predict ------------------------------------------------------------


def train(
    family: str,
    inputs,
    targets: Sequence[float],
    validation: tuple | None = None,
    config: TrainConfig | None = None,
) -> Model:
    """Train a regressor on inputs, texts (a list or Tokens, featurized
    internally) or a scipy sparse matrix with one row per input, and one
    target in [-1, 1] per input. validation is an (inputs, targets) pair of
    the same kind, read only by linear_svr; an empty one counts as none."""
    family = resolve_family(family)
    config = config or TrainConfig()
    inputs = to_csr(inputs) if sparse.issparse(inputs) else _texts(inputs, TrainingError)
    y = _targets(targets, _n_rows(inputs), "train")
    metadata = TrainingMetadata(
        seed=config.seed,
        hyperparameters=_hyperparameters(config, family),
        training_fingerprint=_fingerprint(inputs, y),
    )

    if family == FAMILY_CONSTANT_MEAN:
        return ConstantMeanModel(float(y.sum() / len(y)), metadata)

    if family == FAMILY_UNIFORM_RANDOM:
        return UniformRandomModel(metadata)

    if family == FAMILY_EXTERNAL:
        if config.external is None:
            raise TrainingError("external family needs config.external (a ScorerEndpoint)")
        if sparse.issparse(inputs):
            raise TrainingError("external family trains on texts only")
        client = ExternalScorerClient(config.external)
        accepted = client.fit([{"text": x, "parent": None, "target": t} for x, t in zip(inputs, y.tolist())])
        extras = {"endpoint_sha256": config.external.fingerprint, "fit_accepted": accepted}
        return ExternalModel(replace(metadata, extras=extras), config.external, client)

    # featurized families
    vocab = None
    if not sparse.issparse(inputs):
        inputs = tokenize(inputs, config.features)  # split once, for the fit and the transform
        vocab = fit_vocabulary(inputs, config.features)
    matrix = _features(inputs, vocab, None, TrainingError)
    dimension = matrix.shape[1]

    val_matrix = val_y = None
    if validation is not None and _n_rows(validation[0]) > 0:
        val_inputs, val_targets = validation
        if sparse.issparse(val_inputs) != sparse.issparse(inputs):
            raise TrainingError("validation inputs must be of the same kind as the train inputs")
        val_y = _targets(val_targets, _n_rows(val_inputs), "validation")
        if family == FAMILY_LINEAR_SVR:  # the only family that reads the validation set
            val_matrix = _features(val_inputs, vocab, dimension, TrainingError)

    if family == FAMILY_RANDOM_FOREST:
        trees = _fit_forest(matrix, y, config)
        return RandomForestModel(trees, replace(metadata, extras={"n_trees": len(trees)}), vocab, dimension)

    if family == FAMILY_RIDGE:
        weights, bias, extras = _solve_ridge(matrix, y, config.ridge_lambda, config.ridge_tol, config.ridge_max_iter)
        if not (np.isfinite(weights).all() and math.isfinite(bias)):
            raise TrainingError(f"ridge gave weights or bias that are not finite under {metadata.hyperparameters}")
    else:
        weights, bias, extras = _fit_linear_svr(matrix, y, val_matrix, val_y, config)
    return LinearModel(family, weights, bias, replace(metadata, extras=extras), vocab, dimension)


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
        "extras": model.metadata.extras,
        "vocabulary": model.vocab.to_json() if model.vocab is not None else None,
        "dimension": model.dimension,
    }
    try:
        meta_bytes = json.dumps(metadata, ensure_ascii=False, sort_keys=True, allow_nan=False).encode("utf-8")
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
        raise ModelPersistenceError(f"{path}: {exc}") from None
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
    if any(not (np.issubdtype(a.dtype, np.floating) and np.isfinite(a).all()) for a in (tree.threshold, tree.value)):
        return "threshold and value must be finite real floating arrays"
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
    try:
        return _decode(body[len(_MAGIC) :], path)
    except (KeyError, IndexError, TypeError, ValueError, struct.error) as exc:  # a valid checksum over bad contents
        raise ModelPersistenceError(f"{path}: malformed model file: {type(exc).__name__}: {exc}") from None


def _decode(body: bytes, path: str | Path) -> Model:
    """The model in a checksummed body, read from just after the magic bytes."""
    buf = io.BytesIO(body)
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
    stored = (metadata_obj[key] for key in ("seed", "hyperparameters", "training_fingerprint"))
    metadata = TrainingMetadata(*stored, extras=extras)
    vocab_obj = metadata_obj.get("vocabulary")
    vocab = Vocabulary.from_json(vocab_obj) if vocab_obj is not None else None
    dimension = metadata_obj.get("dimension")
    if vocab is not None and dimension != vocab.dimension:
        raise ModelPersistenceError(f"{path}: dimension is {dimension!r} for a vocabulary of {vocab.dimension} terms")

    if family == FAMILY_CONSTANT_MEAN:
        mean = arrays["mean"]
        if mean.shape != (1,) or not (np.issubdtype(mean.dtype, np.floating) and np.isfinite(mean).all()):
            raise ModelPersistenceError(f"{path}: mean must be one finite real float")
        return ConstantMeanModel(float(mean[0]), metadata)
    if family == FAMILY_UNIFORM_RANDOM:
        return UniformRandomModel(metadata)
    if family in (FAMILY_RIDGE, FAMILY_LINEAR_SVR):
        weights, bias = arrays["weights"], arrays["bias"]
        if not all(np.issubdtype(a.dtype, np.floating) and np.isfinite(a).all() for a in (weights, bias)):
            raise ModelPersistenceError(f"{path}: weights and bias must be finite real floating arrays")
        if weights.shape != (dimension,) or bias.shape != (1,):
            shapes = f"weights of shape {weights.shape} and bias of shape {bias.shape}"
            raise ModelPersistenceError(f"{path}: {shapes} for dimension {dimension!r}")
        return LinearModel(family, weights, float(bias[0]), metadata, vocab, dimension)
    if family == FAMILY_RANDOM_FOREST:
        n_trees = extras["n_trees"]
        if type(n_trees) is not int or not 1 <= n_trees == len(arrays) / 5:
            raise ModelPersistenceError(f"{path}: n_trees is {n_trees!r} for {len(arrays)} tree arrays, 5 per tree")
        trees = []
        for i in range(n_trees):
            tree = _Tree(**{f.name: arrays[f"t{i}_{f.name}"] for f in fields(_Tree)})
            problem = _tree_problem(tree, dimension)
            if problem:
                raise ModelPersistenceError(f"{path}: tree {i}: {problem}")
            trees.append(tree)
        return RandomForestModel(trees, metadata, vocab, dimension)
    if family == FAMILY_EXTERNAL:
        if "endpoint_sha256" not in extras:  # older files stored the endpoint itself
            old = extras.pop("endpoint")
            extras["endpoint_sha256"] = transport_fingerprint(old.get("command"), old.get("address"))
        return ExternalModel(metadata)
    raise ModelPersistenceError(f"{path}: unknown family {family!r}")
