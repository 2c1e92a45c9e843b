"""Golden outputs of every subcommand on a small fixed corpus.

Each step's data outputs and the stable part of its manifest are compared
with the expectations in tests/golden/: strings, ids, ranks and counts
exactly, floats to 1e-12 relative, keys in order. The manifest comparison
covers `resolved_config` (keys sorted), `seeds`, `inputs` (names, plus the
SHA-256 of files the fixture writes itself), `outputs` and the shape of
`timings`; never the creation time, absolute paths or measured seconds.

To rewrite the expectations after a deliberate change of output (say why in
CHANGES.md):

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

from ctxsens.cli import EXIT_OK, main
from ctxsens.corpus import PostTable
from ctxsens.models import _unpack_arrays

from helpers import save_bundle, save_posts, synthetic_bundle, toy_scorer_command

GOLDEN = Path(__file__).with_name("golden")
REL = 1e-12

CONFIGS = {
    "ridge.json": {"features": {"min_df": 1, "ngram_max": 2}, "ridge_lambda": 0.5},
    "forest.json": {"features": {"min_df": 1}, "rf_n_trees": 4, "rf_min_samples_leaf": 2, "rf_max_depth": 6},
    "svr.json": {"features": {"min_df": 1, "ngram_max": 1}, "svr_max_epochs": 15, "svr_learning_rate": 0.5},
    "trigram.json": {
        "features": {"min_df": 1, "ngram_max": 3, "stopwords": ["echo"], "sublinear_tf": True},
        "ridge_lambda": 0.5,
    },
}

# (step, argv); {i} is the fixture's input directory, {o} the root of the step outputs
STEPS = [
    ("aggregate", "aggregate --posts {i}/posts.jsonl --ic {i}/ic.jsonl --oc {i}/oc.jsonl"),
    ("aggregate_csv", "aggregate --posts {i}/posts.csv --ic {i}/ic.csv --oc {i}/oc.csv --input-format csv --seed 2"),
    ("stats", "stats --posts {i}/posts.jsonl --ic {i}/ic.jsonl --oc {i}/oc.jsonl --bins 11"),
    ("train", "train --family ridge --data {o}/aggregate/sensitivity.jsonl --seed 7 --config {i}/ridge.json"),
    ("train_forest", "train --family rf --data {o}/aggregate/sensitivity.jsonl --seed 3 --config {i}/forest.json --val-fraction 0.2"),
    ("evaluate", "evaluate --family svr --data {o}/aggregate/sensitivity.jsonl --repeats 2 --seed 5 --config {i}/svr.json"),
    ("sample", "sample --model {o}/train/model.bin --pool {i}/pool.jsonl --k 12"),
    ("sample_forest", "sample --model {o}/train_forest/model.bin --pool {i}/pool.jsonl --k 30 --seed 1"),
    ("train_trigram", "train --family ridge --data {o}/aggregate/sensitivity.jsonl --seed 7 --config {i}/trigram.json"),
    ("sample_trigram", "sample --model {o}/train_trigram/model.bin --pool {i}/pool.jsonl --k 12"),
    (
        "augment",
        "augment --data {o}/aggregate/sensitivity.jsonl --pool {i}/pool.jsonl --cycles 2 --k 3 "
        "--selection teacher --family ridge --repeats 2 --seed 4 --config {i}/ridge.json",
    ),
    (
        "augment_random",
        "augment --data {o}/aggregate/sensitivity.jsonl --pool {i}/pool.jsonl --cycles 2 --k 2 "
        "--selection random --single-shot --family lr --repeats 1 --seed 9 --config {i}/ridge.json",
    ),
    ("stratify", "stratify --data {o}/aggregate/sensitivity.jsonl --mode concat --thresholds 0,0.2,0.4 --threads 2"),
    ("stratify_grid", "stratify --data {o}/aggregate/sensitivity.jsonl"),
    (
        "bootstrap",
        "bootstrap --group-a {i}/a.csv --group-b {i}/b.csv --resamples 200 --resample-size 30 "
        "--direction b_gt_a --seed 4",
    ),
]


def _write_inputs(inputs: Path) -> None:
    bundle = synthetic_bundle(n_posts=40, seed=21)
    save_bundle(bundle, inputs / "posts.jsonl", inputs / "ic.jsonl", inputs / "oc.jsonl")
    save_bundle(bundle, inputs / "posts.csv", inputs / "ic.csv", inputs / "oc.csv", format="csv")
    posts = synthetic_bundle(n_posts=30, seed=22).posts
    pool = PostTable([f"pool{i:03d}" for i in range(len(posts))], posts.target_texts, posts.parent_texts)
    save_posts(pool, inputs / "pool.jsonl")
    (inputs / "a.csv").write_text("helpful\n" + "true\nfalse\ntrue\n" * 14, encoding="utf-8")
    (inputs / "b.csv").write_text("helpful\n" + "false\ntrue\nfalse\nfalse\n" * 10, encoding="utf-8")
    for name, config in CONFIGS.items():
        (inputs / name).write_text(json.dumps(config), encoding="utf-8")


def _run_steps(root: Path) -> tuple[Path, Path]:
    inputs, outputs = root / "inputs", root / "outputs"
    inputs.mkdir(parents=True)
    _write_inputs(inputs)
    scorer = ["--scorer", " ".join(toy_scorer_command())]
    for step, line in STEPS:
        argv = shlex.split(line.format(i=inputs, o=outputs)) + ["--out", str(outputs / step)]
        if step.startswith("stratify"):
            argv += scorer
        assert main(argv) == EXIT_OK, step
    return inputs, outputs


def _model(path: Path) -> dict:
    """The model container's family tag, metadata and parameter arrays."""
    blob = path.read_bytes()
    buf = io.BytesIO(blob[8:-4])
    version = list(struct.unpack("<HH", buf.read(4)))
    family = buf.read(struct.unpack("<I", buf.read(4))[0]).decode("utf-8")
    metadata = json.loads(buf.read(struct.unpack("<I", buf.read(4))[0]).decode("utf-8"))
    arrays = _unpack_arrays(buf.read(struct.unpack("<Q", buf.read(8))[0]))
    params = {name: {"dtype": str(a.dtype), "values": a.tolist()} for name, a in sorted(arrays.items())}
    return {"magic": blob[:8].decode("ascii"), "version": version, "family": family, "metadata": metadata, "params": params}


def _cell(text: str):
    """A CSV cell as int, float or string, so that numbers compare by value."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _data(path: Path):
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    if path.suffix == ".csv":
        with path.open(encoding="utf-8", newline="") as handle:
            return [[_cell(cell) for cell in row] for row in csv.reader(handle)]
    if path.suffix == ".bin":
        return _model(path)
    raise AssertionError(f"no reader for {path.name}")


def _seconds_blanked(obj):
    if isinstance(obj, dict):
        return {k: _seconds_blanked(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_seconds_blanked(v) for v in obj]
    return "<seconds>" if isinstance(obj, float) else obj


def _observed(inputs: Path, out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    resolved = dict(sorted(manifest["resolved_config"].items()))  # key order is cosmetic here
    if resolved.get("scorer"):
        resolved["scorer"] = "<toy scorer>"
    return {
        "data": {p.name: _data(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"},
        "manifest": {
            "subcommand": manifest["subcommand"],
            "resolved_config": resolved,
            "seeds": manifest["seeds"],
            "inputs": {
                name: entry["sha256"] if Path(entry["path"]).parent == inputs else "<step output>"
                for name, entry in manifest["inputs"].items()
            },
            "outputs": manifest["outputs"],
            "timings": _seconds_blanked(manifest.get("timings")),
        },
    }


def _differences(expected, actual, where: str) -> list[str]:
    if type(expected) is not type(actual):
        return [f"{where}: {expected!r} != {actual!r}"]
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return [f"{where}: keys {list(expected)} != {list(actual)}"]
        return [d for key in expected for d in _differences(expected[key], actual[key], f"{where}.{key}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(expected)} != {len(actual)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in _differences(e, a, f"{where}[{i}]")]
    if isinstance(expected, float):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(expected - actual) <= REL * max(abs(expected), abs(actual)):
            return []
    elif expected == actual:
        return []
    return [f"{where}: {expected!r} != {actual!r}"]


def test_every_subcommand_matches_its_golden_outputs(tmp_path):
    inputs, outputs = _run_steps(tmp_path)
    problems = []
    for step, _ in STEPS:
        expected = json.loads((GOLDEN / f"{step}.json").read_text(encoding="utf-8"))
        problems += _differences(expected, _observed(inputs, outputs / step), step)
    assert not problems, "\n".join(problems[:20])


def test_traced_sample_records_the_pool_and_the_ranking(tmp_path):
    # perfbench/traced.py wraps ctxsens functions by name; a rename would
    # otherwise first show as a missing benchmark metric
    inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
    inputs.mkdir()
    _write_inputs(inputs)
    for step in ("aggregate", "train"):  # train fits the ridge model that sample reads
        line = dict(STEPS)[step].format(i=inputs, o=outputs)
        assert main(shlex.split(line) + ["--out", str(outputs / step)]) == EXIT_OK, step
    root = Path(__file__).resolve().parent.parent
    spans = tmp_path / "spans.json"
    sample = shlex.split(dict(STEPS)["sample"].format(i=inputs, o=outputs)) + ["--out", str(tmp_path / "sample")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    traced = [sys.executable, str(root / "perfbench" / "traced.py"), str(spans), *sample]
    result = subprocess.run(traced, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == EXIT_OK, result.stderr
    summary = json.loads(spans.read_text(encoding="utf-8"))
    assert summary["counters"]["corpus.posts_loaded"] == 30
    assert summary["spans"]["augmentation.select_top_k"]["calls"] == 1


def test_model_file_is_byte_identical_across_runs_in_one_process(tmp_path):
    inputs, outputs = _run_steps(tmp_path / "first")
    for step in ("train", "train_forest"):
        line = dict(STEPS)[step].format(i=inputs, o=outputs)
        again = tmp_path / f"{step}_again"
        assert main(shlex.split(line) + ["--out", str(again)]) == EXIT_OK
        assert (again / "model.bin").read_bytes() == (outputs / step / "model.bin").read_bytes(), step


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        inputs, outputs = _run_steps(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for step, _ in STEPS:
            text = json.dumps(_observed(inputs, outputs / step), indent=1, ensure_ascii=False)
            (GOLDEN / f"{step}.json").write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(STEPS)} expectations to {GOLDEN}", file=sys.stderr)
