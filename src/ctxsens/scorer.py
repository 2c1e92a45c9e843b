"""Client for external scorers speaking newline-delimited JSON.

Transport is either a child process's standard streams or a TCP endpoint.
Requests are `{"id": str, "text": str, "parent": str|null}`; responses are
`{"id": str, "score": float}` and may arrive out of order (matching is by
id). An optional `{"op": "fit", "examples": [...]}` handshake lets an
adapter accept training data; adapters that reject it are inference-only.
"""

from __future__ import annotations

import json
import socket
import subprocess
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Mapping, Sequence

DEFAULT_TIMEOUT = 30.0


class ScorerError(RuntimeError):
    pass


class ScorerTimeout(ScorerError):
    pass


class ScorerProtocolError(ScorerError):
    pass


@dataclass(frozen=True)
class ScorerEndpoint:
    """Where a scorer lives: a command line to spawn, or a TCP host:port."""

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

    def to_json(self) -> dict:
        return {
            "command": list(self.command) if self.command else None,
            "address": list(self.address) if self.address else None,
            "timeout": self.timeout,
            "max_in_flight": self.max_in_flight,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ScorerEndpoint":
        command = obj.get("command")
        address = obj.get("address")
        return cls(
            command=tuple(command) if command else None,
            address=(address[0], address[1]) if address else None,
            timeout=obj.get("timeout", DEFAULT_TIMEOUT),
            max_in_flight=obj.get("max_in_flight", 8),
        )


class ExternalScorerClient:
    """Synchronous request/response client over an NDJSON stream.

    Thread-safe: many threads may score concurrently; a reader thread
    dispatches responses to their waiting requests by id.
    """

    def __init__(self, endpoint: ScorerEndpoint):
        self.endpoint = endpoint
        self._pending: dict[str, Future] = {}
        self._fit_future: Future | None = None
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
        payload = (json.dumps(obj, ensure_ascii=False) + "\n").encode("utf-8")
        with self._lock:
            if self._closed:
                raise ScorerError("client is closed")
            try:
                self._writer.write(payload)
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
                if not isinstance(obj, dict):
                    continue
                if obj.get("op") == "fit":
                    with self._lock:
                        future, self._fit_future = self._fit_future, None
                    if future is not None and not future.done():
                        future.set_result(obj)
                    continue
                request_id = obj.get("id")
                if not isinstance(request_id, str):
                    continue
                with self._lock:
                    future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(obj)
        except (OSError, ValueError):
            pass
        finally:
            self._fail_pending(ScorerError("scorer closed the stream"))

    def _fail_pending(self, exc: Exception) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            fit_future, self._fit_future = self._fit_future, None
        for future in pending:
            if not future.done():
                future.set_exception(exc)
        if fit_future is not None and not fit_future.done():
            fit_future.set_exception(exc)

    # -- operations -----------------------------------------------------------

    def score(self, request_id: str, text: str, parent: str | None = None) -> float:
        """Score one text; raises ScorerTimeout or ScorerProtocolError."""
        future: Future = Future()
        with self._lock:
            if request_id in self._pending:
                raise ScorerError(f"request id {request_id!r} already in flight")
            self._pending[request_id] = future
        try:
            self._send({"id": request_id, "text": text, "parent": parent})
            obj = future.result(timeout=self.endpoint.timeout)
        except FutureTimeoutError:
            with self._lock:
                self._pending.pop(request_id, None)
            raise ScorerTimeout(f"no response for id {request_id!r} within {self.endpoint.timeout}s") from None
        except ScorerError:
            raise
        score = obj.get("score")
        if not isinstance(score, (int, float)) or isinstance(score, bool):
            raise ScorerProtocolError(f"response for id {request_id!r} has no numeric score: {obj}")
        return float(score)

    def score_many(
        self,
        items: Sequence[tuple[str, str, str | None]],
        max_in_flight: int = 8,
        retries: int = 1,
    ) -> tuple[dict[str, float], dict[str, str]]:
        """Score (id, text, parent) items concurrently.

        Returns (scores, errors) keyed by id; failed items are retried up to
        `retries` additional times before landing in errors. A repeated id
        raises ValueError before anything is sent.
        """
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        seen: set[str] = set()
        for request_id, _, _ in items:
            if request_id in seen:
                raise ValueError(f"duplicate request id {request_id!r}")
            seen.add(request_id)
        scores: dict[str, float] = {}
        errors: dict[str, str] = {}
        remaining = list(items)
        for _ in range(retries + 1):
            if not remaining:
                break
            errors = {}
            failed: list[tuple[str, str, str | None]] = []
            gate = threading.Semaphore(max_in_flight)
            lock = threading.Lock()

            def worker(item: tuple[str, str, str | None]) -> None:
                request_id, text, parent = item
                try:
                    value = self.score(request_id, text, parent)
                    with lock:
                        scores[request_id] = value
                except ScorerError as exc:
                    with lock:
                        errors[request_id] = str(exc)
                        failed.append(item)
                finally:
                    gate.release()

            threads = []
            for item in remaining:
                gate.acquire()
                thread = threading.Thread(target=worker, args=(item,))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
            remaining = failed
        return scores, errors

    def fit(self, examples: Sequence[dict]) -> bool:
        """Offer training examples; False means the adapter is inference-only."""
        future: Future = Future()
        with self._lock:
            if self._fit_future is not None:
                raise ScorerError("a fit handshake is already in flight")
            self._fit_future = future
        try:
            self._send({"op": "fit", "examples": list(examples)})
            obj = future.result(timeout=self.endpoint.timeout)
        except (FutureTimeoutError, ScorerError):
            with self._lock:
                if self._fit_future is future:
                    self._fit_future = None
            return False
        return bool(obj.get("ok"))

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
                self._socket.close()
            except OSError:
                pass
        self._reader.join(timeout=5)

    def __enter__(self) -> "ExternalScorerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
