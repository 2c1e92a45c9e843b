"""Seeded generator for the benchmark's synthetic corpus.

The same seed gives byte-identical files. Token frequencies follow a Zipf law
over a fixed-size vocabulary, so featurization sees a realistic number of
distinct terms. A planted signal makes context sensitivity learnable: a few
hundred mid-frequency "cue" words shift the out-of-context toxicity up or
down relative to the in-context one, so text regressors beat the constant
mean. The generator also keeps the ground truth that the output checks
recompute results from.

Usage: python3 perfbench/gen.py SEED OUT writes the files and the ground
truth (`truth.json`, which the program never reads) under OUT; `load(OUT)`
reads the ground truth back.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOCAB_SIZE = 20_000
ZIPF_EXPONENT = 1.1
N_GOLD = 10_000
N_POOL = 50_000
TOKENS_PER_TEXT = (10, 60)  # inclusive
PARENT_SHARE = 0.8
RATERS_PER_CONDITION = (5, 10)  # inclusive
UNSURE_PER_JUDGMENT = 0.004
MISSING_OC_SHARE = 0.01
N_CUES = 300
CUE_RANKS = (30, 1500)
SHIFT_MAX = 0.7  # largest planted gap between out-of-context and in-context toxicity
BOOTSTRAP_GROUP_SIZE = 50_000

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]


def _word(index: int) -> str:
    """Distinct lowercase word for each index (base-90 syllable digits).

    Every word is alphabetic and at least two letters long, so the program's
    tokenizer keeps it whole: its terms are exactly the space-split words.
    """
    parts = []
    while True:
        index, digit = divmod(index, len(_SYLLABLES))
        parts.append(_SYLLABLES[digit])
        if index == 0:
            return "".join(parts)


@dataclass(frozen=True)
class Expected:
    """Aggregation result recomputed from the generated judgments."""

    s_oc: float
    s_ic: float
    delta: float
    threshold: float


@dataclass
class Corpus:
    pool_ids: list[str]
    expected: dict[str, Expected]  # scored gold posts, in file order
    excluded: list[str]  # gold posts aggregation must exclude, in file order
    group_a: list[bool]
    group_b: list[bool]
    properties: dict


def _sem(value: float, n: int) -> float:
    return math.sqrt(value * (1.0 - value) / (n - 1)) if n > 1 else 0.0


def _texts(rng: np.random.Generator, words: np.ndarray, probs: np.ndarray, n: int) -> tuple[list[str], list[np.ndarray]]:
    lengths = rng.integers(TOKENS_PER_TEXT[0], TOKENS_PER_TEXT[1] + 1, n)
    tokens = rng.choice(len(words), size=int(lengths.sum()), p=probs)
    splits = np.split(tokens, np.cumsum(lengths)[:-1])
    return [" ".join(words[seg].tolist()) for seg in splits], splits


def _write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def _judgments(rng: np.random.Generator, p_toxic: float, n: int, helpful_share: float | None) -> list[dict]:
    out = []
    for _ in range(n):
        if rng.random() < UNSURE_PER_JUDGMENT:
            label = "unsure"
        elif rng.random() < p_toxic:
            label = "very_toxic" if rng.random() < 0.3 else "toxic"
        else:
            label = "non_toxic"
        helpful = None
        if helpful_share is not None and rng.random() < 0.8:
            helpful = bool(rng.random() < helpful_share)
        out.append({"label": label, "parent_helpful": helpful})
    return out


def _score(judgments: list[dict]) -> tuple[float, int]:
    n = len(judgments)
    return sum(1 for j in judgments if j["label"] in ("toxic", "very_toxic")) / n, n


def generate(seed: int, out: Path) -> Corpus:
    """Write posts, ic, oc, sensitivity, pool and bootstrap files under out."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
    probs = ranks**-ZIPF_EXPONENT
    probs /= probs.sum()
    # words[r] is drawn with probability probs[r]; the shuffle decouples frequency from word length
    words = np.array([_word(i) for i in rng.permutation(VOCAB_SIZE)], dtype=object)
    cue_weight = np.zeros(VOCAB_SIZE)
    cue_ranks = rng.choice(np.arange(*CUE_RANKS), size=N_CUES, replace=False)
    cue_weight[cue_ranks] = rng.normal(0.0, 1.0, N_CUES)

    gold_ids = [f"g{i:06d}" for i in range(N_GOLD)]
    targets, target_tokens = _texts(rng, words, probs, N_GOLD)
    has_parent = rng.random(N_GOLD) < PARENT_SHARE
    parents_drawn, _ = _texts(rng, words, probs, int(has_parent.sum()))
    parent_iter = iter(parents_drawn)
    parents = [next(parent_iter) if flag else None for flag in has_parent]

    base = rng.beta(2.0, 3.0, N_GOLD)
    shift = np.array([SHIFT_MAX * math.tanh(cue_weight[tok].sum()) for tok in target_tokens])
    p_ic = np.clip(base - shift / 2.0, 0.02, 0.98)
    p_oc = np.clip(base + shift / 2.0, 0.02, 0.98)
    missing_oc = rng.random(N_GOLD) < MISSING_OC_SHARE

    posts_rows, ic_rows, oc_rows, sens_rows = [], [], [], []
    expected: dict[str, Expected] = {}
    excluded: list[str] = []
    for i, post_id in enumerate(gold_ids):
        posts_rows.append({"post_id": post_id, "target_text": targets[i], "parent_text": parents[i]})
        helpful_share = 0.5 + abs(float(shift[i])) if parents[i] is not None else None
        n_ic, n_oc = rng.integers(RATERS_PER_CONDITION[0], RATERS_PER_CONDITION[1] + 1, 2)
        ic = _judgments(rng, float(p_ic[i]), int(n_ic), helpful_share)
        oc = _judgments(rng, float(p_oc[i]), int(n_oc), None)
        ic_rows.append({"post_id": post_id, "condition": "ic", "judgments": ic})
        if missing_oc[i]:
            excluded.append(post_id)
            continue
        oc_rows.append({"post_id": post_id, "condition": "oc", "judgments": oc})
        if any(j["label"] == "unsure" for j in ic + oc):
            excluded.append(post_id)
            continue
        (v_oc, k_oc), (v_ic, k_ic) = _score(oc), _score(ic)
        sem_oc, sem_ic = _sem(v_oc, k_oc), _sem(v_ic, k_ic)
        exp = Expected(s_oc=v_oc, s_ic=v_ic, delta=v_oc - v_ic, threshold=sem_oc + sem_ic)
        expected[post_id] = exp
        sens_rows.append(
            {
                "post_id": post_id,
                "target_text": targets[i],
                "parent_text": parents[i],
                "s_oc": {"value": v_oc, "n_raters": k_oc, "sem": sem_oc},
                "s_ic": {"value": v_ic, "n_raters": k_ic, "sem": sem_ic},
                "delta": exp.delta,
                "threshold": exp.threshold,
                "is_sensitive": abs(exp.delta) > exp.threshold,
            }
        )

    pool_ids = [f"u{i:06d}" for i in range(N_POOL)]
    pool_targets, pool_tokens = _texts(rng, words, probs, N_POOL)
    # sample and augment read only target texts, so pool posts carry no parent
    pool_rows = [
        {"post_id": post_id, "target_text": text, "parent_text": None}
        for post_id, text in zip(pool_ids, pool_targets)
    ]

    group_a = (rng.random(BOOTSTRAP_GROUP_SIZE) < 0.52).tolist()
    group_b = (rng.random(BOOTSTRAP_GROUP_SIZE) < 0.48).tolist()

    _write_jsonl(out / "posts.jsonl", posts_rows)
    _write_jsonl(out / "ic.jsonl", ic_rows)
    _write_jsonl(out / "oc.jsonl", oc_rows)
    _write_jsonl(out / "sensitivity.jsonl", sens_rows)
    _write_jsonl(out / "pool.jsonl", pool_rows)
    for name, group in (("group_a.csv", group_a), ("group_b.csv", group_b)):
        (out / name).write_text("flag\n" + "".join("true\n" if v else "false\n" for v in group), encoding="utf-8")

    from ctxsens.features import fit_vocabulary

    all_tokens = sum(len(t) for t in target_tokens) + sum(len(t) for t in pool_tokens)
    properties = {
        "seed": seed,
        "gold_posts": N_GOLD,
        "scored_posts": len(expected),
        "excluded_posts": len(excluded),
        "pool_posts": N_POOL,
        "target_texts": N_GOLD + N_POOL,
        "tokens_per_target_text": round(all_tokens / (N_GOLD + N_POOL), 2),
        "vocabulary_types": VOCAB_SIZE,
        "zipf_exponent": ZIPF_EXPONENT,
        # the program's own vocabulary over the scored targets (train fits a 90% split of them)
        "vocabulary_terms_scored": len(fit_vocabulary([row["target_text"] for row in sens_rows])),
        "sensitive_share": round(sum(r["is_sensitive"] for r in sens_rows) / len(sens_rows), 4),
        "pool_bytes": (out / "pool.jsonl").stat().st_size,
    }
    corpus = Corpus(pool_ids, expected, excluded, group_a, group_b, properties)
    (out / "truth.json").write_text(json.dumps(dataclasses.asdict(corpus)), encoding="utf-8")
    return corpus


def load(out: Path) -> Corpus:
    """The ground truth that generate() wrote under out."""
    truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))
    truth["expected"] = {post_id: Expected(**exp) for post_id, exp in truth["expected"].items()}
    return Corpus(**truth)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    generate(int(sys.argv[1]), Path(sys.argv[2]))
