"""Shared builders for synthetic corpora, records, and planted-signal datasets."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy import sparse

from ctxsens.aggregation import SensitivityTable
from ctxsens.corpus import AnnotationTable, Condition, DatasetBundle, Label, PostTable, write_csv, write_jsonl

from oracles import binary_sem

TOY_SCORER = Path(__file__).with_name("toy_scorer.py")


def toy_scorer_command(*extra: str) -> tuple[str, ...]:
    return (sys.executable, str(TOY_SCORER), *extra)


def post_table(rows) -> PostTable:
    """A table of (post_id, target_text) or (post_id, target_text, parent_text) rows."""
    rows = [(*row, None)[:3] for row in rows]
    return PostTable(*(zip(*rows) if rows else ((), (), ())))


def save_posts(posts: PostTable, path, format: str = "jsonl") -> None:
    """Write a posts file, JSONL or CSV, that load_posts reads back as the same table."""
    rows = zip(posts.post_ids, posts.target_texts, posts.parent_texts)
    if format == "jsonl":
        write_jsonl(Path(path), ({"post_id": i, "target_text": t, "parent_text": p} for i, t, p in rows))
    else:
        write_csv(Path(path), ["post_id", "target_text", "parent_text"], ([i, t, p or ""] for i, t, p in rows))


def _encode_helpful(helpful) -> str:
    if all(h is None for h in helpful):
        return ""
    return "|".join("" if h is None else ("true" if h else "false") for h in helpful)


def save_bundle(bundle: DatasetBundle, posts_path, ic_path, oc_path, format: str = "jsonl") -> None:
    """Write a bundle's three files so that load_bundle reproduces it field for field."""
    save_posts(bundle.posts, posts_path, format)
    for path, table in ((ic_path, bundle.ic_annotations), (oc_path, bundle.oc_annotations)):
        condition, records = table.condition.value, table.records()
        if format == "jsonl":
            write_jsonl(
                Path(path),
                (
                    {
                        "post_id": post_id,
                        "condition": condition,
                        "judgments": [{"label": l, "parent_helpful": h} for l, h in zip(labels, helpful)],
                    }
                    for post_id, labels, helpful in records
                ),
            )
        else:
            write_csv(
                Path(path),
                ["post_id", "condition", "labels", "parent_helpful"],
                ([post_id, condition, "|".join(labels), _encode_helpful(helpful)] for post_id, labels, helpful in records),
            )


def csr(rows) -> sparse.csr_matrix:
    """A CSR matrix of dense rows (a 2-D array-like); zeros are not stored."""
    return sparse.csr_matrix(np.asarray(rows, dtype=np.float64))


def score_of(value: float, denominator: int = 1000) -> tuple[float, int, float]:
    """A score's (value, n_raters, sem), its value put on the 1/denominator grid."""
    count = round(value * denominator)
    value = count / denominator
    return value, denominator, binary_sem(value, denominator)


def record_with_delta(delta: float, post_id: str = "p", target_text: str = "text", parent_text=None) -> tuple:
    """A table row with the given delta (on the 1/1000 grid): one score is
    |delta|, the other 0."""
    if delta >= 0:
        s_oc, s_ic = score_of(delta), score_of(0.0)
    else:
        s_oc, s_ic = score_of(0.0), score_of(-delta)
    return post_id, target_text, parent_text, s_oc, s_ic


def sensitivity_table(rows) -> SensitivityTable:
    """A table of (post_id, target_text, parent_text, s_oc, s_ic) rows, each
    score a (value, n_raters, sem) triple."""
    rows = list(rows)
    scores = ([row[3 + i // 3][i % 3] for row in rows] for i in range(6))
    return SensitivityTable(post_table(row[:3] for row in rows), *scores)


def table_rows(table: SensitivityTable) -> list[tuple]:
    """Each row of a table as plain values: texts, both scores' (value,
    n_raters, sem), delta, threshold and is_sensitive."""
    names = ("oc_value", "oc_raters", "oc_sem", "ic_value", "ic_raters", "ic_sem", "delta", "threshold", "is_sensitive")
    columns = (getattr(table, name).tolist() for name in names)
    posts = table.posts
    return list(zip(posts.post_ids, posts.target_texts, posts.parent_texts, *columns))


def annotation_table(condition: Condition, rows) -> AnnotationTable:
    """A table from (post_id, labels, helpful) rows, where labels are Label
    members or values and helpful is a parallel list of True/False/None, or
    None when no rater voted."""
    post_ids, labels, helpful, offsets = [], [], [], [0]
    for post_id, row_labels, row_helpful in rows:
        post_ids.append(post_id)
        labels += [list(Label).index(Label(label)) for label in row_labels]
        helpful += [-1 if h is None else int(h) for h in (row_helpful or [None] * len(row_labels))]
        offsets.append(len(labels))
    return AnnotationTable(condition, post_ids, labels, helpful, offsets)


def synthetic_bundle(n_posts: int = 40, seed: int = 0, n_raters: int = 5) -> DatasetBundle:
    """A small random bundle with correlated IC/OC judgments and helpful votes."""
    rng = np.random.default_rng(seed)
    posts, ic, oc = [], [], []
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
    for i in range(n_posts):
        post_id = f"post{i:03d}"
        text = " ".join(rng.choice(words, size=rng.integers(3, 8)))
        parent = " ".join(rng.choice(words, size=4)) if rng.random() < 0.8 else None
        posts.append((post_id, text, parent))
        p_oc = rng.random() * 0.8
        p_ic = max(0.0, min(1.0, p_oc + rng.normal(0, 0.25)))
        ic_labels = [
            Label.TOXIC if rng.random() < p_ic else Label.NON_TOXIC for _ in range(n_raters)
        ]
        oc_labels = [
            Label.VERY_TOXIC if rng.random() < p_oc else Label.NON_TOXIC for _ in range(n_raters)
        ]
        helpful = [bool(rng.random() < 0.6) for _ in range(n_raters)]
        ic.append((post_id, ic_labels, helpful))
        oc.append((post_id, oc_labels, None))
    return DatasetBundle(
        post_table(posts), annotation_table(Condition.IN_CONTEXT, ic), annotation_table(Condition.OUT_OF_CONTEXT, oc)
    )


def planted_posts(
    n: int,
    seed: int,
    vocab_size: int = 60,
    id_prefix: str = "p",
    noise: float = 0.0,
) -> tuple[PostTable, list[float]]:
    """Posts whose true sensitivity is the mean of per-token planted values."""
    rng = np.random.default_rng(seed)
    token_values = rng.uniform(-0.8, 0.8, vocab_size)
    posts, targets = [], []
    for i in range(n):
        length = int(rng.integers(4, 10))
        token_ids = rng.integers(0, vocab_size, length)
        text = " ".join(f"tok{t:03d}" for t in token_ids)
        value = float(np.mean(token_values[token_ids]))
        if noise:
            value = float(np.clip(value + rng.normal(0, noise), -1.0, 1.0))
        posts.append((f"{id_prefix}{i:05d}", text))
        targets.append(value)
    return post_table(posts), targets


def split_columns(posts: PostTable, targets, part: slice = slice(None)) -> tuple[list[str], list[str], list[float]]:
    """Rows part of posts as a gold split as run_augmentation takes it: (post_ids, texts, targets)."""
    return list(posts.post_ids[part]), list(posts.target_texts[part]), list(targets[part])


def planted_examples(n: int, seed: int, **kwargs) -> SensitivityTable:
    """A table of planted posts, their deltas quantized to the 1/1000 grid."""
    posts, targets = planted_posts(n, seed, **kwargs)
    rows = zip(posts.post_ids, posts.target_texts, targets)
    return sensitivity_table(record_with_delta(round(t, 3), post_id, text) for post_id, text, t in rows)


HOT_TOKEN_VALUE = 0.7
N_HOT_VARIANTS = 30


def two_region_corpus(
    n: int,
    seed: int,
    mix: dict[str, float],
    id_prefix: str,
    base_vocab: int = 60,
) -> tuple[PostTable, list[float]]:
    """Bag-of-tokens corpus with two rare high-sensitivity regions.

    Region "A" posts carry strong tokens from group a, region "B" from group
    b, and "AB" posts bridge both; everything else is near-zero base text. A
    post's sensitivity is the mean of its token values. Hot tokens are spread
    over many variants, so a small corpus leaves most of them below a min_df
    vocabulary floor: a model only gains features for a region once enough
    posts from it enter training.
    """
    rng = np.random.default_rng(seed)
    base_values = np.random.default_rng(123).uniform(-0.05, 0.05, base_vocab)
    posts, targets = [], []
    for i in range(n):
        u = rng.random()
        kind = "base"
        acc = 0.0
        for candidate, p in mix.items():
            acc += p
            if u < acc:
                kind = candidate
                break
        length = int(rng.integers(4, 9))
        tokens = list(rng.integers(0, base_vocab, length))
        words = [f"base{t:03d}" for t in tokens]
        values = [base_values[t] for t in tokens]

        def add_hot(group: str, count: int) -> None:
            for h in rng.integers(0, N_HOT_VARIANTS, count):
                words.append(f"hot{group}{h:02d}")
                values.append(HOT_TOKEN_VALUE)

        if kind == "A":
            add_hot("a", int(rng.integers(3, 6)))
        elif kind == "B":
            add_hot("b", int(rng.integers(3, 6)))
        elif kind == "AB":
            add_hot("a", 2)
            add_hot("b", 2)
        target = round(float(np.clip(np.mean(values), -1.0, 1.0)), 3)
        posts.append((f"{id_prefix}{i:05d}", " ".join(words)))
        targets.append(target)
    return post_table(posts), targets
