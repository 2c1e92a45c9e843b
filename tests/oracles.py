"""Brute-force oracles for metrics, the featurizer, the linear solvers, the
forest, the corpus statistics and the bootstrap, kept independent of the
library's fast paths."""

import math
import re
from collections import Counter
from typing import Sequence

import numpy as np
from scipy import sparse

from ctxsens.aggregation import AgreementReport
from ctxsens.analysis import DIRECTION_A_GREATER, DIRECTION_B_GREATER, ParentUtilityPoint
from ctxsens.corpus import Label

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


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


def tie_walk_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based average ranks, walking each run of tied sorted scores."""
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


def tie_walk_aupr(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Average precision walking runs of tied scores in descending order,
    adding one term per run that holds a positive."""
    y = np.asarray(labels, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(y.sum())
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


def brute_force_mse(pred: Sequence[float], gold: Sequence[float]) -> float:
    return sum((p - g) ** 2 for p, g in zip(pred, gold)) / len(pred)


def population_variance(values: Sequence[float]) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def ridge_objective(
    weights: np.ndarray,
    bias: float,
    matrix: sparse.csr_matrix,
    y: np.ndarray,
    lam: float,
    sample_weight: np.ndarray | None = None,
) -> float:
    """Weighted squared error plus lam * ||weights||^2 (bias unpenalized)."""
    sw = np.ones(len(y)) if sample_weight is None else sample_weight
    residual = y - (matrix @ weights + bias)
    return float(residual @ (sw * residual) + lam * (weights @ weights))


def ridge_gradient(
    weights: np.ndarray,
    bias: float,
    matrix: sparse.csr_matrix,
    y: np.ndarray,
    lam: float,
    sample_weight: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    sw = np.ones(len(y)) if sample_weight is None else sample_weight
    residual = sw * (y - (matrix @ weights + bias))
    grad_w = -2.0 * (matrix.T @ residual) + 2.0 * lam * weights
    grad_b = -2.0 * float(residual.sum())
    return grad_w, grad_b


def svr_epsilon_loss(
    weights: np.ndarray,
    bias: float,
    matrix: sparse.csr_matrix,
    y: np.ndarray,
    epsilon: float,
    sample_weight: np.ndarray | None = None,
) -> float:
    """Mean weighted epsilon-insensitive loss (no regularizer)."""
    sw = np.ones(len(y)) if sample_weight is None else sample_weight
    residual = np.abs(y - (matrix @ weights + bias)) - epsilon
    return float((sw * np.maximum(residual, 0.0)).sum() / sw.sum())


def validation_mse(weights: np.ndarray, bias: float, matrix, y: np.ndarray) -> float:
    preds = np.clip(matrix @ weights + bias, -1.0, 1.0)
    return float(np.mean((preds - y) ** 2))


def reference_linear_svr(
    matrix: sparse.csr_matrix,
    y: np.ndarray,
    sw: np.ndarray,
    val_matrix: sparse.csr_matrix | None,
    val_y: np.ndarray | None,
    config,
) -> tuple[np.ndarray, float, dict]:
    """Mini-batch subgradient descent on
    ||w||^2 / (2 C W) + (1/W) sum_i sw_i max(0, |y_i - f(x_i)| - eps),
    with an epoch-level 1/t learning-rate decay and epoch-level early stopping
    on validation MSE (patience from config). Returns the best snapshot.

    One batch at a time through scipy: the batch's rows are sliced out of the
    matrix, and the L2 decay is a dense pass over all the weights."""
    n, d = matrix.shape
    rng = np.random.default_rng(config.seed)
    weights = np.zeros(d)
    bias = 0.0
    total_weight = float(sw.sum())
    reg = 1.0 / (config.svr_c * total_weight)

    has_val = val_matrix is not None and val_y is not None and len(val_y) > 0
    history: list[float] = []
    best = (math.inf, weights.copy(), bias, 0)
    if has_val:
        initial = validation_mse(weights, bias, val_matrix, val_y)
        history.append(initial)
        best = (initial, weights.copy(), bias, 0)

    epochs_run = 0
    for epoch in range(1, config.svr_max_epochs + 1):
        lr = config.svr_learning_rate / epoch
        order = rng.permutation(n)
        for start in range(0, n, config.svr_batch_size):
            batch = order[start : start + config.svr_batch_size]
            xb = matrix[batch]
            residual = y[batch] - (xb @ weights + bias)
            active = np.abs(residual) > config.svr_epsilon
            coef = np.where(active, -np.sign(residual), 0.0) * sw[batch]
            batch_weight = float(sw[batch].sum())
            grad_w = reg * weights + (xb.T @ coef) / batch_weight
            grad_b = float(coef.sum()) / batch_weight
            weights -= lr * grad_w
            bias -= lr * grad_b
        epochs_run = epoch
        if has_val:
            score = validation_mse(weights, bias, val_matrix, val_y)
            history.append(score)
            if score < best[0]:
                best = (score, weights.copy(), bias, epoch)
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
        extras = {"epochs_run": epochs_run, "best_epoch": epochs_run, "validation_mse_history": []}
    return weights, bias, extras


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


def tokenize(text: str, config) -> list[str]:
    """Terms for one text: filtered word tokens plus space-joined n-grams."""
    if config.lowercase:
        text = text.lower()
    words = [t for t in _TOKEN_RE.findall(text) if len(t) >= config.min_token_len]
    if config.stopwords:
        stop = set(config.stopwords)
        words = [w for w in words if w not in stop]
    terms = list(words)
    for n in range(2, config.ngram_max + 1):
        terms.extend(" ".join(words[i : i + n]) for i in range(len(words) - n + 1))
    return terms


def fit_terms(texts: Sequence[str], config) -> tuple[dict[str, int], dict[str, int]] | None:
    """(term_index, doc_freq) by counting each text's term set; None if no term
    reaches min_df. Ties in the max_features cut break lexicographically."""
    df: Counter[str] = Counter()
    for text in texts:
        df.update(set(tokenize(text, config)))
    kept = [(term, count) for term, count in df.items() if count >= config.min_df]
    if not kept:
        return None
    if config.max_features is not None and len(kept) > config.max_features:
        kept.sort(key=lambda tc: (-tc[1], tc[0]))
        kept = kept[: config.max_features]
    kept.sort(key=lambda tc: tc[0])
    return {term: i for i, (term, _) in enumerate(kept)}, dict(kept)


def tfidf_rows(vocab, texts: Sequence[str]) -> sparse.csr_matrix:
    """One text at a time: term counts, tf * idf per in-vocabulary term, sorted
    by column, divided by the square root of the sequential sum of squares."""
    config = vocab.config
    indptr, indices, data = [0], [], []
    for text in texts:
        items = []
        for term, tf in Counter(tokenize(text, config)).items():
            idx = vocab.term_index.get(term)
            if idx is None:
                continue
            idf = math.log((1.0 + vocab.n_documents) / (1.0 + vocab.doc_freq[term])) + 1.0
            tf_value = 1.0 + math.log(tf) if config.sublinear_tf else float(tf)
            items.append((idx, tf_value * idf))
        items.sort()
        norm = math.sqrt(sum(w * w for _, w in items))
        indices.extend(i for i, _ in items)
        data.extend(w / norm for _, w in items)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(texts), vocab.dimension),
    )


# --- corpus statistics: one Python object walk per judgment ---------------------


def binary_sem(value: float, n_raters: int) -> float:
    """Sample-variance SEM of a binary rater sample: sqrt(p(1-p)/(n-1)),
    0 for a single rater."""
    if n_raters <= 1:
        return 0.0
    return math.sqrt(value * (1.0 - value) / (n_raters - 1))


def aggregate_score(labels: Sequence[str]) -> tuple[float, int, float] | None:
    """One record's (value, n_raters, sem) from its label values; None when a
    rater was unsure."""
    if any(label == Label.UNSURE.value for label in labels):
        return None
    n = len(labels)
    toxic = sum(1 for label in labels if label in (Label.TOXIC.value, Label.VERY_TOXIC.value))
    value = toxic / n
    return value, n, binary_sem(value, n)


def compute_sensitivities(bundle) -> tuple[list[tuple], list[str]]:
    """(rows, excluded ids): per scored post its texts, both scores' (value,
    n_raters, sem), delta, threshold and is_sensitive, walking one post at a time."""
    ic = {post_id: labels for post_id, labels, _ in bundle.ic_annotations.records()}
    oc = {post_id: labels for post_id, labels, _ in bundle.oc_annotations.records()}
    rows, excluded = [], []
    for post in bundle.posts:
        if post.post_id not in ic or post.post_id not in oc:
            excluded.append(post.post_id)
            continue
        s_ic, s_oc = aggregate_score(ic[post.post_id]), aggregate_score(oc[post.post_id])
        if s_ic is None or s_oc is None:
            excluded.append(post.post_id)
            continue
        delta, threshold = s_oc[0] - s_ic[0], s_oc[2] + s_ic[2]
        texts = (post.post_id, post.target_text, post.parent_text)
        rows.append((*texts, *s_oc, *s_ic, delta, threshold, abs(delta) > threshold))
    return rows, excluded


def agreement(table, n_categories: int = len(Label), label_key=None) -> AgreementReport:
    """Randolph's free-marginal kappa from a dict of category counts per item."""
    records = list(table.records())
    if not records:
        raise ValueError("no records")
    if n_categories < 2:
        raise ValueError("need at least 2 categories")
    key = label_key or (lambda label: label)
    per_item = []
    for post_id, labels, _ in records:
        r = len(labels)
        if r < 2:
            raise ValueError(f"post {post_id!r}: agreement needs >= 2 judgments")
        counts: dict = {}
        for label in labels:
            category = key(Label(label))
            counts[category] = counts.get(category, 0) + 1
        if len(counts) > n_categories:
            raise ValueError(
                f"post {post_id!r}: {len(counts)} distinct categories exceed n_categories={n_categories}"
            )
        per_item.append(sum(c * (c - 1) for c in counts.values()) / (r * (r - 1)))
    p_o = math.fsum(per_item) / len(per_item)
    chance = 1.0 / n_categories
    return AgreementReport((p_o - chance) / (1.0 - chance), p_o, len(records), n_categories)


def parent_utility(ic_table, table, thresholds) -> tuple[list[ParentUtilityPoint], list[str]]:
    """Strict-majority helpful votes from each post's list of votes."""
    helpful_by_id = {post_id: helpful for post_id, _, helpful in ic_table.records()}
    records = list(zip(table.post_ids, table.delta.tolist()))
    zero_vote_ids: list[str] = []
    majority: dict[str, bool] = {}
    for post_id, _ in records:
        votes = [h for h in helpful_by_id.get(post_id, []) if h is not None]
        if not votes:
            zero_vote_ids.append(post_id)
            majority[post_id] = False
            continue
        majority[post_id] = sum(votes) > len(votes) / 2.0
    points = []
    for t in thresholds:
        subset = [majority[post_id] for post_id, delta in records if abs(delta) >= t]
        if subset:
            points.append(ParentUtilityPoint(t=t, fraction_helpful=sum(subset) / len(subset), n=len(subset)))
        else:
            points.append(ParentUtilityPoint(t=t, fraction_helpful=None, n=0))
    return points, zero_vote_ids


def per_resample_bootstrap_p(group_a, group_b, resample_size: int, n_resamples: int, seed: int, direction: str) -> float:
    """The paired bootstrap's p-value by gathering resample_size items from
    each group per resample, with one generator per resample."""
    a = np.asarray(group_a, dtype=bool)
    b = np.asarray(group_b, dtype=bool)
    violations = 0.0
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        rng = np.random.default_rng(child)
        prop_a = float(a[rng.integers(0, len(a), resample_size)].mean())
        prop_b = float(b[rng.integers(0, len(b), resample_size)].mean())
        if prop_a == prop_b:
            violations += 0.5
        elif direction == DIRECTION_A_GREATER and prop_a < prop_b:
            violations += 1.0
        elif direction == DIRECTION_B_GREATER and prop_b < prop_a:
            violations += 1.0
    return violations / n_resamples


def _binomial_pmf(m: int, p: float) -> list[float]:
    return [math.comb(m, i) * p**i * (1.0 - p) ** (m - i) for i in range(m + 1)]


def exact_bootstrap_p(group_a, group_b, resample_size: int, direction: str) -> float:
    """The p-value the bootstrap estimates, in closed form. A resample's count
    of true items is Binomial(m, k/n) per group; for "a greater" a loss is
    K_a < K_b, so p = sum_i P(K_a = i) * [P(K_b > i) + P(K_b = i) / 2], and
    the groups swap roles for "b greater"."""
    if direction == DIRECTION_B_GREATER:
        group_a, group_b = group_b, group_a
    pmf_a = _binomial_pmf(resample_size, sum(group_a) / len(group_a))
    pmf_b = _binomial_pmf(resample_size, sum(group_b) / len(group_b))
    return math.fsum(pmf_a[i] * (math.fsum(pmf_b[i + 1 :]) + 0.5 * pmf_b[i]) for i in range(resample_size + 1))
