"""Client for external scorers speaking newline-delimited JSON.

Transport is either a child process's standard streams or a TCP endpoint.
Requests are `{"id": str, "text": str, "parent": str|null}`; responses are
`{"id": str, "score": finite float}` and may arrive out of order (matching
is by id). An optional `{"op": "fit", "examples": [...]}` handshake lets an
adapter accept training data; adapters that reject it are inference-only.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Sequence

DEFAULT_TIMEOUT = 30.0
_RETRIES = 1  # passes over an item that failed, after its first
_READ_BYTES = 1 << 16  # the most one read takes: a Linux pipe's default capacity


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

    The calling thread does all its I/O: requests queue in a buffer that each
    wait for a response writes as the scorer takes it, while reading its
    answers, so neither side blocks on a full pipe. Selectors wait on pipes
    only under POSIX, so a `command` scorer needs it; TCP works everywhere.
    """

    def __init__(self, endpoint: ScorerEndpoint):
        self.endpoint = endpoint
        self._encoder = json.JSONEncoder(ensure_ascii=False)
        self._out = bytearray()  # request bytes the scorer has not taken yet
        self._partial = b""  # the start of a response line still arriving
        self._responses: deque[dict] = deque()  # parsed, not yet matched
        self._ended = self._closed = False
        self._process: subprocess.Popen | None = None
        if endpoint.command is not None and os.name != "posix":
            raise ScorerError("a scorer command needs a POSIX system, where selectors wait on pipes; use a TCP scorer")
        try:
            if endpoint.command is not None:
                self._process = subprocess.Popen(endpoint.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                self._reader, self._writer = self._process.stdout, self._process.stdin
                self._recv, self._write = partial(os.read, self._reader.fileno()), partial(os.write, self._writer.fileno())
                os.set_blocking(self._writer.fileno(), False)
            else:
                self._reader = self._writer = socket.create_connection(endpoint.address, timeout=endpoint.timeout)
                self._reader.setblocking(False)
                self._recv, self._write = self._reader.recv, self._reader.send
        except OSError as exc:
            raise ScorerError(f"external scorer unreachable: {exc}") from exc
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._reader, selectors.EVENT_READ)
        self._writing = 0  # EVENT_WRITE while the selector watches the write end

    # -- transport ----------------------------------------------------------

    def _send(self, obj: dict) -> None:
        """Queue one request; the next wait for a response writes it."""
        if self._closed:
            raise ScorerError("client is closed")
        try:
            self._out += (self._encoder.encode(obj) + "\n").encode("utf-8")
        except ValueError as exc:
            raise ScorerError(f"cannot encode a request: {exc}") from exc

    def _next_response(self, deadline: float) -> dict | None:
        """The next parsed response, or None once the deadline passes or the
        stream has ended. Each turn first writes what the scorer takes of the
        queued requests, and is woken also when it can take more."""
        while not self._responses and not self._ended:
            try:
                while self._out:
                    del self._out[: self._write(self._out)]
            except BlockingIOError:
                pass
            except OSError:  # the scorer takes no more; it may still answer what it read
                self._out.clear()
            writing = selectors.EVENT_WRITE if self._out else 0
            if writing != self._writing:
                self._writing = writing
                if self._writer is self._reader:
                    self._selector.modify(self._reader, selectors.EVENT_READ | writing)
                elif writing:
                    self._selector.register(self._writer, writing)
                else:
                    self._selector.unregister(self._writer)
            timeout = deadline - time.monotonic()
            if any(events & selectors.EVENT_READ for _, events in self._selector.select(max(timeout, 0.0))):
                self._read()
            if timeout <= 0:
                break
        return self._responses.popleft() if self._responses else None

    def _read(self) -> None:
        """Read what has arrived; queue each complete line that is a JSON object."""
        try:
            data = self._recv(_READ_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:  # the stream ended; a last line without its newline still counts
            self._ended, data = True, b"\n"
        *lines, self._partial = (self._partial + data).split(b"\n")
        for line in lines:
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # not attributable to a request; it will time out
            if isinstance(obj, dict):
                self._responses.append(obj)

    # -- operations -----------------------------------------------------------

    def _pass(self, items: Sequence[Item]) -> tuple[dict[str, float], dict[str, ScorerError]]:
        """Send each item once, keeping up to max_in_flight outstanding, each
        with its own deadline; returns (scores, failures) keyed by id."""
        scores: dict[str, float] = {}
        failures: dict[str, ScorerError] = {}
        outstanding: dict[str, float] = {}  # id -> deadline; send order, so the first expires first
        timeout, cap = self.endpoint.timeout, self.endpoint.max_in_flight
        sent = 0
        while sent < len(items) or outstanding:
            if sent < len(items) and len(outstanding) < cap:
                burst = items[sent : sent + cap - len(outstanding)]
                sent += len(burst)
                try:
                    for request_id, text, parent in burst:
                        self._send({"id": request_id, "text": text, "parent": parent})
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
            while obj is not None:  # take every parsed response, then refill the window in one burst
                request_id = obj.get("id")  # a fit reply, or an id not outstanding, matches nothing
                if isinstance(request_id, str) and outstanding.pop(request_id, None) is not None:
                    score = obj.get("score")
                    if type(score) in (int, float) and abs(score) <= sys.float_info.max:  # no NaN, inf or huge int
                        scores[request_id] = float(score)
                    else:
                        failures[request_id] = ScorerProtocolError(
                            f"response for id {request_id!r} has no finite numeric score: {obj}"
                        )
                obj = self._next_response(0.0) if self._responses else None
        return scores, failures

    def score(self, request_id: str, text: str, parent: str | None = None) -> float:
        """Score one text; raises ScorerTimeout or ScorerProtocolError."""
        scores, failures = self._pass([(request_id, text, parent)])
        if failures:
            raise failures[request_id]
        return scores[request_id]

    def score_many(self, items: Sequence[Item]) -> tuple[dict[str, float], dict[str, str]]:
        """Score (id, text, parent) items, pipelined on the one connection.

        Returns (scores, errors) keyed by id; failed items are retried up to
        _RETRIES more times, each retry a pass over the failures, before
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
        for _ in range(_RETRIES + 1):
            if not remaining:
                break
            passed, failures = self._pass(remaining)
            scores.update(passed)
            remaining = [item for item in remaining if item[0] in failures]
        return scores, {request_id: str(exc) for request_id, exc in failures.items()}

    def fit(self, examples: Sequence[dict]) -> bool:
        """Offer training examples; False means the adapter is inference-only."""
        try:
            self._send({"op": "fit", "examples": list(examples)})
        except ScorerError:
            return False
        deadline = time.monotonic() + self.endpoint.timeout
        while (obj := self._next_response(deadline)) is not None:
            if obj.get("op") == "fit":
                return bool(obj.get("ok"))
        return False

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._selector.close()
        self._writer.close()  # the scorer sees the end of its input
        if self._process is not None:
            try:
                self._process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._reader.close()

    def __enter__(self) -> "ExternalScorerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
