"""Engine-free parts of the benchmark: the closed loop with a time limit on
every operation, and the memory sampler over the Ray session's processes.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import threading
import time
from collections.abc import Callable


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _raise_timeout(signum, frame):
    raise OpTimeout()


def call_with_limit(fn: Callable[[], object], limit_s: float):
    """``fn()``, interrupted by OpTimeout after ``limit_s`` seconds.  Uses
    SIGALRM, so it must run on the main thread."""
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_op(op: Callable[[], object], check: Callable[[object], str | None],
           limit_s: float) -> dict:
    """One operation: timed call under the limit, the answer check outside
    the timed region, then a timed garbage collection.  Returns {"s",
    "error"}; ``error`` is None only when the operation finished in time
    with the expected answer."""
    t0 = time.perf_counter()
    out, err = None, None
    try:
        out = call_with_limit(op, limit_s)
    except OpTimeout:
        err = f"time limit {limit_s:g} s exceeded"
    except Exception as exc:  # any engine failure counts as failed
        err = repr(exc)[:500]
    dt = time.perf_counter() - t0
    if err is None:
        try:
            err = check(out)
        except Exception as exc:
            err = f"check raised {exc!r}"[:500]
    del out
    # Ray Data drops a finished actor pool's handles through reference
    # cycles, so its actors hold their CPUs until Python next collects
    # garbage, and the next pool waits for them (measured: a 15-25 s stall
    # on about one back-to-back kg_pipeline call in four).  The collection is part of
    # the operation and timed with it; the answer check is not.
    t1 = time.perf_counter()
    gc.collect()
    return {"s": dt + time.perf_counter() - t1, "error": err}


def closed_loop(op, check, seconds: float, limit_s: float) -> list[dict]:
    """One client running ``op`` back to back until ``seconds`` of wall
    time have passed (at least one operation)."""
    records: list[dict] = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(run_op(op, check, limit_s))
    return records


def median_ok(records: list[dict]) -> float:
    """Median seconds of the successful operations (of all, if none
    succeeded)."""
    ok = [r["s"] for r in records if r["error"] is None]
    return statistics.median(ok or [r["s"] for r in records])


# -- memory ------------------------------------------------------------------

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat(pid: int) -> list[bytes] | None:
    """Fields of /proc/<pid>/stat after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            data = f.read()
    except OSError:
        return None
    return data[data.rindex(b")") + 2:].split()


def _proc_table() -> dict[int, tuple[int, int, int]]:
    """pid -> (ppid, resident bytes, start time) for every process."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat(int(name))
        if fields is not None:
            table[int(name)] = (int(fields[1]), int(fields[21]) * _PAGE,
                                int(fields[19]))
    return table


def tree_rss(root: int) -> tuple[int, set[tuple[int, int]]]:
    """(summed resident bytes, (pid, start time) pairs) of ``root`` and
    all its descendants."""
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    seen, todo, total = set(), [root], 0
    while todo:
        pid = todo.pop()
        if pid not in table or (pid, table[pid][2]) in seen:
            continue
        seen.add((pid, table[pid][2]))
        total += table[pid][1]
        todo.extend(children.get(pid, ()))
    return total, seen


class RssSampler:
    """Samples the summed RSS of this process's tree every ``interval``
    seconds on a thread; keeps the peak and every pid it saw."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak = 0
        self.procs: set[tuple[int, int]] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        me = os.getpid()
        while not self._stop.is_set():
            total, procs = tree_rss(me)
            self.peak = max(self.peak, total)
            self.procs |= {p for p in procs if p[0] != me}
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        return False


def _alive(proc: tuple[int, int]) -> bool:
    """The process still runs (not a zombie, and the pid not reused)."""
    fields = _stat(proc[0])
    return (fields is not None and fields[0] != b"Z"
            and int(fields[19]) == proc[1])


def reap(procs: set[tuple[int, int]], grace_s: float = 5.0) -> None:
    """Wait until every process has ended; SIGKILL what is left after
    ``grace_s`` and wait again."""
    deadline = time.monotonic() + grace_s
    while any(map(_alive, procs)) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in procs:
        if _alive(p):
            try:
                os.kill(p[0], signal.SIGKILL)
            except OSError:
                pass
    deadline = time.monotonic() + 5
    while any(map(_alive, procs)) and time.monotonic() < deadline:
        time.sleep(0.1)
