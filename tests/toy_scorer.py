#!/usr/bin/env python3
"""Test scorer speaking the NDJSON protocol over stdio or TCP.

Modes: hash (deterministic pseudo-score from the text), float (parse the text
itself as the score), fitted (the mean target of the last accepted fit, or an
error reply before any fit), nan (a NaN score) and inf (in turn Infinity,
-Infinity, 1e999 and an integer of 401 digits, none of which a float holds). --batch buffers requests and answers them in reverse
order to exercise out-of-order matching; --drop-substring silently ignores
matching texts; --fit controls the training handshake.
"""

import argparse
import hashlib
import json
import socket
import sys


def score_of(text: str, parent, mode: str) -> float:
    if mode == "float":
        try:
            return float(text.strip().splitlines()[-1])
        except ValueError:
            pass
    digest = hashlib.sha256((text + "\x00" + (parent or "")).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def serve(read_line, write_line, args) -> None:
    buffered = []
    fitted_mean = None
    overflows = ("Infinity", "-Infinity", "1e999", "1" + "0" * 400)
    replies = 0

    def flush():
        for response in reversed(buffered):
            write_line(response)
        buffered.clear()

    for raw in read_line:
        raw = raw.strip()
        if not raw:
            continue
        msg = json.loads(raw)
        if msg.get("op") == "fit":
            if args.fit == "accept":
                targets = [example["target"] for example in msg.get("examples", [])]
                fitted_mean = sum(targets) / len(targets) if targets else None
                write_line({"op": "fit", "ok": True, "n": len(msg.get("examples", []))})
            elif args.fit == "reject":
                write_line({"op": "fit", "ok": False})
            # "ignore": say nothing
            continue
        text = msg.get("text", "")
        if args.drop_substring and args.drop_substring in text:
            continue
        if args.mode in ("nan", "inf"):  # raw lines: json.dumps cannot write 1e999
            score = "NaN" if args.mode == "nan" else overflows[replies % len(overflows)]
            response = f'{{"id": {json.dumps(msg["id"])}, "score": {score}}}'
            replies += 1
        elif args.mode != "fitted":
            response = {"id": msg["id"], "score": score_of(text, msg.get("parent"), args.mode)}
        elif fitted_mean is None:
            response = {"id": msg["id"], "error": "not fitted"}
        else:
            response = {"id": msg["id"], "score": fitted_mean}
        if args.batch > 1:
            buffered.append(response)
            if len(buffered) >= args.batch:
                flush()
        else:
            write_line(response)
    flush()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["hash", "float", "fitted", "nan", "inf"], default="hash")
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--drop-substring", default=None)
    parser.add_argument("--fit", choices=["accept", "reject", "ignore"], default="reject")
    parser.add_argument("--tcp", type=int, default=None, help="listen on this port instead of stdio")
    args = parser.parse_args()

    if args.tcp is not None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", args.tcp))
        server.listen(1)
        print(f"listening {server.getsockname()[1]}", flush=True)
        conn, _ = server.accept()
        reader = conn.makefile("r", encoding="utf-8")
        writer = conn.makefile("w", encoding="utf-8")

        def write_line(obj):
            writer.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
            writer.flush()

        serve(reader, write_line, args)
        conn.close()
        server.close()
    else:

        def write_line(obj):
            sys.stdout.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
            sys.stdout.flush()

        serve(sys.stdin, write_line, args)


if __name__ == "__main__":
    main()
