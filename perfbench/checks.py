"""Output checks for each benchmarked subcommand.

Each check returns a list of problems; an empty list means the outputs are
right. Results are recomputed from the generator's ground truth or from the
step's own inputs wherever that is cheap, rather than compared to stored
digests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from gen import N_GOLD, Corpus
from scorer import score_of

MODEL_MAGIC = b"CSENSMDL"


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or not rows[0]:
        raise ValueError("no header row")
    return rows[1:]


def model_family(path: Path) -> str:
    """Family tag of a model container after verifying its magic and CRC32."""
    blob = path.read_bytes()
    if not blob.startswith(MODEL_MAGIC) or len(blob) < len(MODEL_MAGIC) + 12:
        raise ValueError("not a model file")
    (crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != crc:
        raise ValueError("model checksum mismatch")
    (length,) = struct.unpack("<I", blob[12:16])
    return blob[16 : 16 + length].decode("utf-8")


def manifest_outputs(out: Path) -> list[str]:
    """Every file the manifest lists exists and parses."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems = []
    for name in manifest.get("outputs", []):
        path = out / name
        try:
            if name.endswith(".jsonl"):
                _jsonl(path)
            elif name.endswith(".json"):
                json.loads(path.read_text(encoding="utf-8"))
            elif name.endswith(".csv"):
                _csv_rows(path)
            elif name.endswith(".bin"):
                model_family(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
    return problems


def aggregate(corpus: Corpus, out: Path) -> list[str]:
    """sensitivity.jsonl plus excluded.json cover every post and match the judgments."""
    rows = _jsonl(out / "sensitivity.jsonl")
    excluded = json.loads((out / "excluded.json").read_text(encoding="utf-8"))["excluded_post_ids"]
    problems = []
    if excluded != corpus.excluded:
        problems.append(f"excluded {len(excluded)} posts, expected {len(corpus.excluded)}")
    if [row["post_id"] for row in rows] != list(corpus.expected):
        problems.append("scored post ids differ from the posts that have complete judgments")
        return problems
    for row in rows:
        exp = corpus.expected[row["post_id"]]
        if (row["s_oc"]["value"], row["s_ic"]["value"], row["delta"]) != (exp.s_oc, exp.s_ic, exp.delta):
            problems.append(f"{row['post_id']}: scores differ from the judgments")
        elif not math.isclose(row["threshold"], exp.threshold, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"{row['post_id']}: threshold {row['threshold']} != {exp.threshold}")
        elif row["is_sensitive"] != (abs(row["delta"]) > row["threshold"]):
            problems.append(f"{row['post_id']}: is_sensitive disagrees with |delta| > threshold")
        if len(problems) >= 5:
            break
    return problems


def stats(corpus: Corpus, out: Path) -> list[str]:
    report = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    problems = []
    counts = (report["n_posts"], report["n_scored"], report["n_excluded"])
    if counts != (N_GOLD, len(corpus.expected), len(corpus.excluded)):
        problems.append(f"stats.json counts {counts} are wrong")
    deltas = [abs(e.delta) for e in corpus.expected.values()]
    for t, count in _csv_rows(out / "sensitive_counts.csv"):
        if int(count) != sum(1 for d in deltas if d >= float(t)):
            problems.append(f"sensitive_counts.csv: wrong count at t={t}")
    return problems


def _ids_fingerprint(ids: list[str]) -> str:
    digest = hashlib.sha256()
    for post_id in sorted(ids):
        digest.update(post_id.encode("utf-8") + b"\x00")
    return digest.hexdigest()


def evaluate(corpus: Corpus, out: Path, repeats: int, seed: int = 0) -> list[str]:
    """One fold per repeat, each with lower test MSE than the constant mean of its training split.

    The split is the documented Monte Carlo protocol (80/10/10, repeat r drawn
    from SeedSequence([seed, r])); each fold's test fingerprint confirms it.
    """
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    folds = report["folds"]
    if report["n_folds"] != repeats or len(folds) != repeats or len(_csv_rows(out / "folds.csv")) != repeats:
        return [f"expected {repeats} folds"]
    ids = list(corpus.expected)
    deltas = np.array([e.delta for e in corpus.expected.values()])
    n = len(ids)
    problems = []
    for repeat, fold in enumerate(folds):
        perm = np.random.default_rng(np.random.SeedSequence([seed, repeat])).permutation(n)
        n_held = int(n * 0.1)
        test, train = perm[:n_held], perm[2 * n_held :]
        if fold["test_fingerprint"] != _ids_fingerprint([ids[i] for i in test]):
            problems.append(f"fold {repeat}: test split differs from the documented protocol")
            continue
        constant_mse = float(np.mean((deltas[test] - deltas[train].mean()) ** 2))
        if not fold["mse"] < constant_mse:
            problems.append(f"fold {repeat}: MSE {fold['mse']:.4f} is not below constant_mean {constant_mse:.4f}")
    return problems


def augment(corpus: Corpus, out: Path, repeats: int, cycles: int, k: int) -> list[str]:
    problems = []
    if len(_csv_rows(out / "mse_by_cycle.csv")) != cycles:
        problems.append(f"mse_by_cycle.csv does not have {cycles} rows")
    logs = _jsonl(out / "cycles.jsonl")
    if len(logs) != repeats * cycles:
        return problems + [f"cycles.jsonl has {len(logs)} logs, expected {repeats * cycles}"]
    pool = set(corpus.pool_ids)
    for log in logs:
        selected, scores = log["selected_post_ids"], log["selected_silver_scores"]
        if len(selected) != k or len(set(selected)) != k or not pool.issuperset(selected):
            problems.append(f"cycle {log['cycle']}: selection is not {k} distinct pool posts")
        elif scores != sorted(scores, reverse=True):
            problems.append(f"cycle {log['cycle']}: teacher selection is not by descending score")
    return problems


def train(corpus: Corpus, out: Path, family: str) -> list[str]:
    found = model_family(out / "model.bin")
    return [] if found == family else [f"model.bin holds family {found!r}, expected {family!r}"]


def sample(corpus: Corpus, out: Path, k: int) -> list[str]:
    """k pool posts ranked by descending score, ties by ascending id."""
    rows = _jsonl(out / "selected.jsonl")
    if len(rows) != k:
        return [f"selected.jsonl has {len(rows)} rows, expected {k}"]
    problems = []
    if [row["rank"] for row in rows] != list(range(k)):
        problems.append("ranks are not 0..k-1")
    ids = [row["post_id"] for row in rows]
    if len(set(ids)) != k or not set(corpus.pool_ids).issuperset(ids):
        problems.append("selected ids are not distinct pool posts")
    keys = [(-row["score"], row["post_id"]) for row in rows]
    if keys != sorted(keys):
        problems.append("rows are not ranked by descending score, ties by ascending id")
    return problems


def stratify(corpus: Corpus, out: Path, data: Path) -> list[str]:
    """MAE per threshold equals the MAE recomputed from the benchmark's own scorer (concat mode)."""
    problems = []
    if (out / "errors.json").exists():
        problems.append("errors.json present: some posts failed to score")
    rows = _jsonl(data)
    scores = np.array(
        [score_of(r["parent_text"] + "\n" + r["target_text"] if r["parent_text"] else r["target_text"], None) for r in rows]
    )
    gold = np.array([r["s_ic"]["value"] for r in rows])
    delta = np.array([abs(r["delta"]) for r in rows])
    for t, mae, n in _csv_rows(out / "stratified_mae.csv"):
        subset = delta >= float(t)
        if int(n) != int(subset.sum()):
            problems.append(f"stratified_mae.csv: n={n} at t={t}, expected {int(subset.sum())}")
        elif subset.any():
            expected = float(np.mean(np.abs(scores[subset] - gold[subset])))
            if not math.isclose(float(mae), expected, rel_tol=1e-12):
                problems.append(f"stratified_mae.csv: MAE {mae} at t={t}, expected {expected}")
    return problems


def bootstrap(corpus: Corpus, out: Path, resamples: int, size: int) -> list[str]:
    result = json.loads((out / "bootstrap.json").read_text(encoding="utf-8"))
    expected = (
        sum(corpus.group_a) / len(corpus.group_a),
        sum(corpus.group_b) / len(corpus.group_b),
        resamples,
        size,
    )
    found = (result["observed_a"], result["observed_b"], result["n_resamples"], result["resample_size"])
    problems = [] if found == expected else [f"bootstrap.json {found} != {expected}"]
    if not 0.0 <= result["p_value"] <= 1.0:
        problems.append(f"p_value {result['p_value']} outside [0, 1]")
    return problems
