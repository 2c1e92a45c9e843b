"""Client for external scorers speaking newline-delimited JSON.

Transport is either a child process's standard streams or a TCP endpoint.
Requests are `{"id": str, "text": str, "parent": str|null}`; responses are
`{"id": str, "score": float}` and may arrive out of order (matching is by
id). An optional `{"op": "fit", "examples": [...]}` handshake lets an
adapter accept training data; adapters that reject it are inference-only.
"""

from __future__ import annotations

import hashlib
import json
import queue
import socket
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Sequence

DEFAULT_TIMEOUT = 30.0


class ScorerError(RuntimeError):
    pass


class ScorerTimeout(ScorerError):
    pass


class ScorerProtocolError(ScorerError):
    pass


def transport_fingerprint(command: Sequence[str] | None, address: Sequence | None) -> str:
    """SHA-256 naming a scorer by its transport: the command line or the
    host and port. Timeout and in-flight cap do not change which scorer answers."""
    transport = {
        "command": list(command) if command else None,
        "address": [address[0], int(address[1])] if address else None,
    }
    return hashlib.sha256(json.dumps(transport, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScorerEndpoint:
    """Where a scorer lives: a command line to spawn, or a TCP host:port.
    max_in_flight caps the requests outstanding on the one connection."""

    command: tuple[str, ...] | None = None
    address: tuple[str, int] | None = None
    timeout: float = DEFAULT_TIMEOUT
    max_in_flight: int = 8

    def __post_init__(self) -> None:
        if (self.command is None) == (self.address is None):
            raise ValueError("exactly one of command or address must be set")
        if self.command is not None:
            object.__setattr__(self, "command", tuple(self.command))
        if self.address is not None:
            host, port = self.address
            object.__setattr__(self, "address", (host, int(port)))
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")

    @property
    def fingerprint(self) -> str:
        return transport_fingerprint(self.command, self.address)


Item = tuple[str, str, "str | None"]  # (id, text, parent)


class ExternalScorerClient:
    """One session with a scorer: one process or connection, kept until close().

    Calls are serialized: each writes its requests from the calling thread,
    keeping up to `endpoint.max_in_flight` outstanding, while a reader thread
    parses responses and queues them for the caller to match by id.
    """

    def __init__(self, endpoint: ScorerEndpoint):
        self.endpoint = endpoint
        self._responses: queue.SimpleQueue = queue.SimpleQueue()  # parsed objects; None after the stream ends
        self._ended = False
        self._lock = threading.Lock()
        self._closed = False
        self._process: subprocess.Popen | None = None
        self._socket: socket.socket | None = None
        try:
            if endpoint.command is not None:
                self._process = subprocess.Popen(
                    endpoint.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
                self._writer = self._process.stdin
                self._readable = self._process.stdout
            else:
                self._socket = socket.create_connection(endpoint.address, timeout=endpoint.timeout)
                self._socket.settimeout(None)
                self._writer = self._socket.makefile("wb")
                self._readable = self._socket.makefile("rb")
        except OSError as exc:
            raise ScorerError(f"external scorer unreachable: {exc}") from exc
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    # -- transport ----------------------------------------------------------

    def _send(self, obj: dict) -> None:
        """Write one request; it reaches the scorer at the next _flush."""
        if self._closed:
            raise ScorerError("client is closed")
        try:
            self._writer.write((json.dumps(obj, ensure_ascii=False) + "\n").encode("utf-8"))
        except (OSError, ValueError) as exc:
            raise ScorerError(f"failed to write to scorer: {exc}") from exc

    def _flush(self) -> None:
        try:
            self._writer.flush()
        except (OSError, ValueError) as exc:
            raise ScorerError(f"failed to write to scorer: {exc}") from exc

    def _read_loop(self) -> None:
        try:
            for raw in self._readable:
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # not attributable to a request; it will time out
                if isinstance(obj, dict):
                    self._responses.put(obj)
        except (OSError, ValueError):
            pass
        finally:
            self._ended = True
            self._responses.put(None)

    def _next_response(self, deadline: float) -> dict | None:
        """The next parsed response, or None once the deadline passes or the stream has ended."""
        try:
            obj = self._responses.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            return None
        if obj is None:
            self._responses.put(None)  # every later wait sees the end too
        return obj

    # -- operations -----------------------------------------------------------

    def _pass(self, items: Sequence[Item]) -> tuple[dict[str, float], dict[str, ScorerError]]:
        """Send each item once, keeping up to max_in_flight outstanding, each
        with its own deadline; returns (scores, failures) keyed by id."""
        scores: dict[str, float] = {}
        failures: dict[str, ScorerError] = {}
        outstanding: dict[str, float] = {}  # id -> deadline; send order, so the first expires first
        timeout, cap = self.endpoint.timeout, self.endpoint.max_in_flight
        sent = 0
        with self._lock:
            while sent < len(items) or outstanding:
                if sent < len(items) and len(outstanding) < cap:
                    burst = items[sent : sent + cap - len(outstanding)]
                    sent += len(burst)
                    try:
                        for request_id, text, parent in burst:
                            self._send({"id": request_id, "text": text, "parent": parent})
                        self._flush()
                    except ScorerError as exc:
                        failures.update((item[0], exc) for item in burst)
                        continue
                    deadline = time.monotonic() + timeout
                    outstanding.update((item[0], deadline) for item in burst)
                obj = self._next_response(next(iter(outstanding.values())))
                if obj is None and self._ended:
                    for request_id in [*outstanding, *(item[0] for item in items[sent:])]:
                        failures[request_id] = ScorerError("scorer closed the stream")
                    break
                if obj is None:
                    now = time.monotonic()
                    for request_id in [r for r, deadline in outstanding.items() if deadline <= now]:
                        del outstanding[request_id]
                        failures[request_id] = ScorerTimeout(f"no response for id {request_id!r} within {timeout}s")
                    continue
                while obj is not None:  # take every queued response, then refill the window in one burst
                    request_id = obj.get("id")  # a fit reply, or an id not outstanding, matches nothing
                    if isinstance(request_id, str) and outstanding.pop(request_id, None) is not None:
                        score = obj.get("score")
                        if isinstance(score, (int, float)) and not isinstance(score, bool):
                            scores[request_id] = float(score)
                        else:
                            failures[request_id] = ScorerProtocolError(
                                f"response for id {request_id!r} has no numeric score: {obj}"
                            )
                    obj = self._next_response(0.0)
        return scores, failures

    def score(self, request_id: str, text: str, parent: str | None = None) -> float:
        """Score one text; raises ScorerTimeout or ScorerProtocolError."""
        scores, failures = self._pass([(request_id, text, parent)])
        if failures:
            raise failures[request_id]
        return scores[request_id]

    def score_many(self, items: Sequence[Item], retries: int = 1) -> tuple[dict[str, float], dict[str, str]]:
        """Score (id, text, parent) items, pipelined on the one connection.

        Returns (scores, errors) keyed by id; failed items are retried up to
        `retries` additional times, each retry a pass over the failures, before
        landing in errors. A repeated id raises ValueError before anything is sent.
        """
        seen: set[str] = set()
        for request_id, _, _ in items:
            if request_id in seen:
                raise ValueError(f"duplicate request id {request_id!r}")
            seen.add(request_id)
        scores: dict[str, float] = {}
        failures: dict[str, ScorerError] = {}
        remaining = list(items)
        for _ in range(retries + 1):
            if not remaining:
                break
            passed, failures = self._pass(remaining)
            scores.update(passed)
            remaining = [item for item in remaining if item[0] in failures]
        return scores, {request_id: str(exc) for request_id, exc in failures.items()}

    def fit(self, examples: Sequence[dict]) -> bool:
        """Offer training examples; False means the adapter is inference-only."""
        with self._lock:
            try:
                self._send({"op": "fit", "examples": list(examples)})
                self._flush()
            except ScorerError:
                return False
            deadline = time.monotonic() + self.endpoint.timeout
            while (obj := self._next_response(deadline)) is not None:
                if obj.get("op") == "fit":
                    return bool(obj.get("ok"))
        return False

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._writer.close()
        except OSError:
            pass
        if self._process is not None:
            try:
                self._process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        if self._socket is not None:
            try:
                self._socket.shutdown(socket.SHUT_RDWR)  # ends the reader's blocking read
                self._socket.close()
            except OSError:
                pass
        self._reader.join(timeout=5)
        if not self._reader.is_alive():
            self._readable.close()

    def __enter__(self) -> "ExternalScorerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
