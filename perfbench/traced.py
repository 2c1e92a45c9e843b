#!/usr/bin/env python3
"""Run one ctxsens CLI call with spans around the public functions of each module.

Usage: python3 perfbench/traced.py SPANS.json SUBCOMMAND [ARGS...]

The wrappers are installed from this file; the program is not changed. A
function is replaced on its defining module and on every ctxsens module that
imported it by name (for example `models.fit_vocabulary` and
`evaluation.train`), so each call is recorded once whichever name it goes
through. Spans stay in memory and are summed into SPANS.json when the call
ends: per span name the total time, the self time (total minus the time of
the spans directly inside it) and the call count, plus counters of the work
done (texts featurized, rows predicted, scorer items, bytes hashed, ...), a
digest of every distinct text featurized, and the tracer's own cost: the time
spent patching, in the wrappers around each call and in summing the spans.
The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.texts: set[bytes] = set()
        self.lock = threading.Lock()
        self.in_score_many = False
        self.overhead = 0.0  # seconds spent in the tracer itself, not in the program

    def span(self, name, fn, on_return=None, name_of=None):
        """Wrap fn in a span; on_return(args, kwargs, result) updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # spans are opened on the main thread only; worker threads reach
            # count() wrappers, never span() wrappers
            entry = time.perf_counter()
            index = len(self.spans)
            self.spans.append([name_of(args, kwargs) if name_of else name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
            if on_return is not None:
                on_return(args, kwargs, result)
            self.overhead += (start - entry) + (time.perf_counter() - end)
            return result

        return wrapper

    def count(self, key, fn):
        """Wrap fn so each call adds one to a counter, from any thread."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = time.perf_counter()
            with self.lock:
                self.counters[key] += 1
                self.overhead += time.perf_counter() - entry
            return fn(*args, **kwargs)

        return wrapper

    def add_texts(self, key: str, texts) -> None:
        self.counters[key] += len(texts)
        self.texts.update(hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest() for t in texts)

    def summary(self) -> dict:
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        return {
            "spans": {name: {"s": total[name], "self_s": self_time[name], "calls": calls[name]} for name in total},
            "counters": dict(self.counters),
            "text_digests": sorted(d.hex() for d in self.texts),
        }


def _replace_everywhere(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "ctxsens" or name.startswith("ctxsens."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    from ctxsens import aggregation, analysis, augmentation, cli, corpus, evaluation, features, manifest, models, scorer

    def texts_hook(key, position):
        return lambda args, kwargs, result: tracer.add_texts(key, args[position])

    def add(key, amount):
        tracer.counters[key] += amount

    def family_name(args, kwargs):
        family = args[0] if args else kwargs["family"]
        return "models.train." + models.resolve_family(family)

    def save_hook(args, kwargs, result):
        add("models.model_bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))

    def score_many_hook(args, kwargs, result):
        items = args[1] if len(args) > 1 else kwargs["items"]
        add("scorer.items", len(items))
        add("scorer.errors", len(result[1]))

    functions = [
        (features, "fit_vocabulary", texts_hook("features.fit_vocabulary.texts", 0), None),
        (features, "transform_many", texts_hook("features.transform_many.texts", 1), None),
        (features, "to_csr", None, None),
        (models, "train", None, family_name),
        (models, "save_model", save_hook, None),
        (models, "load_model", None, None),
        (evaluation, "monte_carlo_cv", None, None),
        (evaluation, "fold_metrics", None, None),
        (evaluation, "stratified_toxicity_mae", None, None),
        (augmentation, "run_augmentation", None, None),
        (augmentation, "select_top_k", None, None),
        (corpus, "load_bundle", lambda a, k, r: add("corpus.posts_loaded", len(r.posts)), None),
        (corpus, "load_posts", lambda a, k, r: add("corpus.posts_loaded", len(r)), None),
        (aggregation, "compute_sensitivities", None, None),
        (aggregation, "agreement", None, None),
        (aggregation, "load_examples", None, None),
        (aggregation, "save_examples", None, None),
        (analysis, "parent_utility", None, None),
        (analysis, "paired_bootstrap", lambda a, k, r: add("analysis.paired_bootstrap.resamples", r.n_resamples), None),
        (manifest, "build_manifest", None, None),
        (cli, "main", None, None),
    ]
    for module, attr, hook, name_of in functions:
        original = getattr(module, attr)
        wrapper = tracer.span(f"{module.__name__.split('.')[-1]}.{attr}", original, hook, name_of)
        _replace_everywhere(original, wrapper)

    original_sha = manifest.file_sha256

    def file_sha256(path):
        add("manifest.bytes_hashed", os.path.getsize(path))
        return original_sha(path)

    _replace_everywhere(original_sha, file_sha256)

    model_cls = models.Model
    model_cls.predict_batch = tracer.span(
        "models.predict_batch",
        model_cls.predict_batch,
        lambda a, k, r: add("models.predict_batch.rows", len(r)),
    )
    client = scorer.ExternalScorerClient
    client.__init__ = tracer.span("scorer.client_open", client.__init__)
    client.score = tracer.count("scorer.score_calls", client.score)
    score_many = client.score_many

    def score_many_flagged(*args, **kwargs):
        tracer.in_score_many = True
        try:
            return score_many(*args, **kwargs)
        finally:
            tracer.in_score_many = False

    client.score_many = tracer.span("scorer.score_many", score_many_flagged, score_many_hook)

    thread_start = threading.Thread.start

    def counted_start(self, *args, **kwargs):
        if tracer.in_score_many:
            with tracer.lock:
                tracer.counters["scorer.score_many.threads"] += 1
        return thread_start(self, *args, **kwargs)

    threading.Thread.start = counted_start


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from ctxsens import cli  # loads every module whose names get patched

    tracer = Tracer()
    start = time.perf_counter()
    install(tracer)
    tracer.overhead += time.perf_counter() - start
    code = cli.main(argv)
    start = time.perf_counter()
    summary = tracer.summary()
    summary["overhead_s"] = tracer.overhead + time.perf_counter() - start
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
