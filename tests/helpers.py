"""Shared builders for synthetic corpora, records, and planted-signal datasets."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from ctxsens.aggregation import (
    SensitivityExample,
    SensitivityRecord,
    ToxicityScore,
    sensitivity,
)
from ctxsens.corpus import AnnotationTable, Condition, DatasetBundle, Label, Post

from oracles import binary_sem

TOY_SCORER = Path(__file__).with_name("toy_scorer.py")


def toy_scorer_command(*extra: str) -> tuple[str, ...]:
    return (sys.executable, str(TOY_SCORER), *extra)


def score_of(value: float, denominator: int = 1000) -> ToxicityScore:
    """A ToxicityScore whose value sits on the 1/denominator grid."""
    count = round(value * denominator)
    value = count / denominator
    return ToxicityScore(value=value, n_raters=denominator, sem=binary_sem(value, denominator))


def record_with_delta(delta: float, post_id: str = "p") -> SensitivityRecord:
    """A consistent record with the given delta (on the 1/1000 grid)."""
    if delta >= 0:
        s_oc, s_ic = score_of(delta), score_of(0.0)
    else:
        s_oc, s_ic = score_of(0.0), score_of(-delta)
    return sensitivity(post_id, s_oc, s_ic)


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
        posts.append(Post(post_id, text, parent))
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
        tuple(posts), annotation_table(Condition.IN_CONTEXT, ic), annotation_table(Condition.OUT_OF_CONTEXT, oc)
    )


def planted_posts(
    n: int,
    seed: int,
    vocab_size: int = 60,
    id_prefix: str = "p",
    noise: float = 0.0,
) -> tuple[list[Post], list[float]]:
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
        posts.append(Post(f"{id_prefix}{i:05d}", text))
        targets.append(value)
    return posts, targets


def planted_examples(n: int, seed: int, **kwargs) -> list[SensitivityExample]:
    """SensitivityExamples with planted deltas quantized to the 1/1000 grid."""
    posts, targets = planted_posts(n, seed, **kwargs)
    examples = []
    for post, target in zip(posts, targets):
        examples.append(SensitivityExample(post, record_with_delta(round(target, 3), post.post_id)))
    return examples


HOT_TOKEN_VALUE = 0.7
N_HOT_VARIANTS = 30


def two_region_corpus(
    n: int,
    seed: int,
    mix: dict[str, float],
    id_prefix: str,
    base_vocab: int = 60,
) -> list[tuple[Post, float, str]]:
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
    out = []
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
        out.append((Post(f"{id_prefix}{i:05d}", " ".join(words)), target, kind))
    return out
