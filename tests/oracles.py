"""Brute-force oracles for metrics and the forest, kept independent of the library's fast paths."""

from typing import Sequence

import numpy as np


def pairwise_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """O(n^2) positive/negative pair sweep with half credit for ties."""
    positives = [s for s, y in zip(scores, labels) if y]
    negatives = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(positives) * len(negatives))


def threshold_enumeration_ap(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Average precision by enumerating every distinct score as a threshold.

    At threshold c the predicted-positive set is {i : score_i >= c}; each
    threshold that introduces new true positives contributes
    (recall gain) * precision.
    """
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_tp = 0
    for c in thresholds:
        taken = [(s, y) for s, y in zip(scores, labels) if s >= c]
        tp = sum(1 for _, y in taken if y)
        if tp > prev_tp:
            precision = tp / len(taken)
            ap += ((tp - prev_tp) / n_pos) * precision
        prev_tp = tp
    return ap


def brute_force_mse(pred: Sequence[float], gold: Sequence[float]) -> float:
    return sum((p - g) ** 2 for p, g in zip(pred, gold)) / len(pred)


def population_variance(values: Sequence[float]) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def dense_best_split(values, y, sw, min_leaf: int) -> tuple[float, float] | None:
    """Best (threshold, score) for one dense feature column by weighted variance
    reduction: argsort every row, sweep every gap between distinct values."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    wy = (sw * y)[order]
    w = sw[order]
    n = len(v)
    if v[0] == v[n - 1]:
        return None
    cw = np.cumsum(w)
    cwy = np.cumsum(wy)
    total_w, total_wy = cw[-1], cwy[-1]
    counts = np.arange(1, n)
    valid = (v[:-1] < v[1:]) & (counts >= min_leaf) & ((n - counts) >= min_leaf)
    if not valid.any():
        return None
    left_w, left_wy = cw[:-1], cwy[:-1]
    right_w, right_wy = total_w - left_w, total_wy - left_wy
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(valid, left_wy**2 / left_w + right_wy**2 / right_w, -np.inf)
    best = int(np.argmax(score))
    parent_score = total_wy**2 / total_w
    if score[best] <= parent_score + 1e-12 * max(1.0, abs(parent_score)):
        return None
    threshold = (v[best] + v[best + 1]) / 2.0
    return float(threshold), float(score[best])


def dense_node_split(columns, y, sw, candidates, min_leaf: int) -> tuple[float, int, float] | None:
    """(score, feature, threshold) over candidate columns of a dense node matrix,
    one dense_best_split per candidate; a later candidate wins only with a
    strictly greater score."""
    best = None
    for j in candidates:
        found = dense_best_split(columns[:, j], y, sw, min_leaf)
        if found is not None and (best is None or found[1] > best[0]):
            best = (found[1], int(j), found[0])
    return best


def walk_tree(tree, row: dict[int, float]) -> float:
    """Leaf value for one row held as {column: value}, one node at a time."""
    node = 0
    while tree.feature[node] >= 0:
        if row.get(int(tree.feature[node]), 0.0) <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return float(tree.value[node])


def walk_forest(trees, matrix) -> np.ndarray:
    """Per-tree leaf values, shape (n_trees, n_rows), walking each row of a CSR
    matrix through each tree separately."""
    rows = []
    for i in range(matrix.shape[0]):
        start, end = matrix.indptr[i], matrix.indptr[i + 1]
        rows.append(dict(zip(matrix.indices[start:end].tolist(), matrix.data[start:end].tolist())))
    out = np.empty((len(trees), len(rows)))
    for t, tree in enumerate(trees):
        out[t] = [walk_tree(tree, row) for row in rows]
    return out
