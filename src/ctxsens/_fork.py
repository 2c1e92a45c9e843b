"""Split a job into contiguous parts over the CPUs this process may run on.

Part 0 runs in the calling process and every other part in an `os.fork()`
child, which inherits its inputs and sends back only its pickled result over
a pipe. A child does its work inside `try/except BaseException` and always
leaves through `os._exit`, so it never runs its parent's cleanup or atexit
handlers. `taskset` restricts the CPUs, and so the part count.

A forked child has only the thread that forked it, so callers fork only
where no other thread can hold a lock the parts need: OpenBLAS stops its own
threads at a fork. An external model is never split: its parts would share
the parent's one scorer process, and no session per part is built.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable

# Least work a part gets: rows to featurize and score, or row visits to build trees.
_LEAST_WORK = 8192


def cpu_count() -> int:
    """The CPUs this process may run on; 1 on a platform that cannot say
    (macOS, Windows), so that it never forks there."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def bounds(n_items: int, work: int) -> list[int]:
    """Ends of the contiguous parts of n_items items that cost `work` units
    in all: one part per CPU, but no more parts than give each at least
    _LEAST_WORK units, nor than there are items."""
    parts = max(1, min(cpu_count(), work // _LEAST_WORK, n_items))
    return [n_items * part // parts for part in range(parts + 1)]


def run(job: Callable[[int], object], n_parts: int) -> list:
    """[job(0), ..., job(n_parts - 1)], job(0) in this process and each other
    part in a forked child. A part's exception is raised here; a child that
    dies or exits without a result is a ChildProcessError. No child outlives
    the call."""
    pending: dict[int, int] = {}  # pid -> read end of its pipe, in part order
    try:
        for part in range(1, n_parts):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _child(job, part, write_end)
            os.close(write_end)
            pending[pid] = read_end
        results = [job(0)]
        for pid in list(pending):
            results.append(_collect(pid, pending.pop(pid)))
        return results
    finally:
        for pid, read_end in pending.items():  # left behind by an exception
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(job: Callable[[int], object], part: int, write_end: int) -> None:
    status = 1
    try:
        try:
            result = (True, job(part))
        except BaseException as exc:
            try:  # an exception that cannot make the trip is sent as its text
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            result = (False, exc)
        with open(write_end, "wb") as pipe:
            pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read_end: int):
    """The result of child pid: its pipe is read to the end, the child is
    reaped, and the bytes are unpickled only if it exited normally."""
    try:
        with open(read_end, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        raise ChildProcessError(f"a forked part was killed by signal {signal.Signals(os.WTERMSIG(status)).name}")
    if os.waitstatus_to_exitcode(status) != 0:
        raise ChildProcessError(f"a forked part exited with status {os.waitstatus_to_exitcode(status)}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value
