"""Timing and bookkeeping shared by the engine worker and the serve driver.

A :class:`Recorder` times each operation, keeps its answer for the
reference check and counts failures.  It writes the same record whether
the engine runs in-process (explore, grow) or behind ``repro serve``.
"""

from __future__ import annotations

import os
import threading
import time
import urllib.error
from contextlib import nullcontext

import numpy as np

from repro.errors import ReproError

#: What counts as a failed operation: any taxonomy error (HTTP 429, 503
#: and 504 arrive as OverloadedError, DrainingError and
#: QueryTimeoutError), and a client-side timeout or dropped connection.
FAILURES = (ReproError, urllib.error.URLError, TimeoutError, ConnectionError)


def _plain(value):
    return value.item() if isinstance(value, np.generic) else value


def local_answer(conn, op: dict):
    """Run ``op`` on an in-process connection; rows in hand on return."""
    rows = conn.execute(op["sql"]).rows()
    return [_plain(v) for v in rows[0]]


def remote_answer(conn, op: dict, page_rows: int):
    """Run ``op`` on a ``RemoteConnection``, fetching every page."""
    result = conn.execute(op["sql"], page_size=page_rows)
    if op["shape"] == "agg":
        return [_plain(v) for v in result.page(0).rows()[0]]
    pages = [np.column_stack(page.columns) for page in result.pages() if page.num_rows]
    if not pages:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(pages)


class Recorder:
    """Latencies, answers and failures of one process's operations."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: list[list] = []  # [op id, kind, touch, ms or None, phase]
        self.answers: list[tuple[dict, object]] = []
        self.series: dict[str, list[float]] = {}
        self.appends = 0
        self.appended_bytes = 0
        self.revisit_requests: set[str] = set()
        self._lock = threading.Lock()

    def add(self, series: str, value: float) -> None:
        with self._lock:
            self.series.setdefault(series, []).append(value)

    def run(self, op: dict, call, phase: str, tag: object = "") -> float | None:
        """Time ``call(op)``; keep the answer and return its milliseconds.

        A failure is recorded and returns ``None``.
        """
        request = f"{tag}:{op['id']}"
        scope = self.tracer.request(request) if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                answer = call(op)
        except FAILURES:
            ms = None
        else:
            ms = 1000 * (time.perf_counter() - start)
        with self._lock:
            self.ops.append([op["id"], op["kind"], op.get("touch", False), ms, phase])
            if ms is not None:
                self.answers.append((op, answer))
            if op["kind"] == "revisit" and phase == "timed":
                self.revisit_requests.add(request)
        return ms

    def append_file(self, path, chunk_path) -> None:
        """Append one pre-made chunk of rows to the source file."""
        with open(chunk_path, "rb") as src:
            data = src.read()
        with open(path, "ab") as dst:
            dst.write(data)
        with self._lock:
            self.appends += 1
            self.appended_bytes += len(data)


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart the kernel's peak-RSS count, so set-up does not show in it."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the peak then also covers set-up; still a peak of this process


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc status")


def dir_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total
