#!/usr/bin/env python3
"""Deterministic toxicity scorer speaking the NDJSON protocol over stdio.

Each request `{"id": ..., "text": ..., "parent": ...}` is answered at once and
in order with a score derived from a SHA-256 of the text and parent, so the
benchmark can recompute every score itself. The training handshake is
declined, which makes the scorer inference-only.
"""

from __future__ import annotations

import hashlib
import json
import sys


def score_of(text: str, parent: str | None) -> float:
    digest = hashlib.sha256((text + "\x00" + (parent or "")).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def main() -> None:
    for raw in sys.stdin:
        if not raw.strip():
            continue
        msg = json.loads(raw)
        if msg.get("op") == "fit":
            reply = {"op": "fit", "ok": False}
        else:
            reply = {"id": msg["id"], "score": score_of(msg.get("text", ""), msg.get("parent"))}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
