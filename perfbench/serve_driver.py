"""The serve workload: ``repro serve`` in a subprocess, two closed-loop clients.

The load comes from this process: two threads, each with its own
``RemoteConnection``, each sending its next request only when the
previous reply (every page of it) is in hand.  Closed loop because
``RemoteConnection`` callers wait for each reply.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.client import RemoteConnection

from record import Recorder, peak_rss_mb, remote_answer, reset_peak_rss
from workloads import (
    SERVE_PAGE_ROWS,
    SERVE_SESSION_OPS,
    ServeMix,
    serve_plan,
)

CLIENTS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One ``repro serve`` process on the workload's file."""

    def __init__(self, work: Path, data: Path, env: dict, spans: Path | None) -> None:
        self.log_path = work / "server.log"
        here = Path(__file__).resolve().parent
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(here / "serve_launcher.py"), str(spans)]
        cmd += [str(data), "--port", "0"]
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=work
        )
        self.url = self._wait_for_url()

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if line.startswith("repro serving on "):
                    return line.split()[-1]
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve did not start:\n{self.log_path.read_text()}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill only if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def run_serve(spec: dict, env: dict, rec: Recorder, client_tracer=None) -> dict:
    """Set up ``rounds`` times, then load the last server for ``seconds``."""
    work = Path(spec["work"])
    data = work / "data.csv"
    plan = serve_plan(spec["seed"])
    spans = Path(spec["spans"]) if spec["trace"] else None
    server = None
    try:
        for r in range(spec["rounds"]):
            started = time.perf_counter()
            shutil.copyfile(work / "base.csv", data)
            server = Server(work, data, env, spans)
            conn = RemoteConnection(server.url)

            def call(op):
                return remote_answer(conn, op, SERVE_PAGE_ROWS)

            for i, op in enumerate(plan["warm"]):
                if rec.run(op, call, "setup") is not None and i == 0:
                    rec.add("restart_answer_ms", 1000 * (time.perf_counter() - started))
            for k, op in enumerate(plan["appends"]):
                rec.append_file(data, work / f"chunk{k}.csv")
                ms = rec.run(op, call, "setup")
                if ms is not None:
                    rec.add("append_ms", ms)
            for op in plan["tiles"]:
                rec.run(op, call, "setup")
            rec.add("round_s", time.perf_counter() - started)
            if r + 1 < spec["rounds"]:
                server.stop()
        rec.appends = rec.appended_bytes = 0

        reset_peak_rss(server.proc.pid)
        if client_tracer is not None:
            rec.tracer = client_tracer
            client_tracer.install("client")
        window = [time.perf_counter(), None]
        deadline = window[0] + float(spec["seconds"])
        errors: list[BaseException] = []

        def client(k):
            mix = ServeMix(spec["seed"], k, plan["tiles"], plan["rows"])
            try:
                _client(server.url, mix, rec, deadline, k)
            except BaseException as exc:  # re-raised below, after both joined
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window[1] = time.perf_counter()
        if errors:
            raise errors[0]
        if client_tracer is not None:
            client_tracer.uninstall()
        rec.add("peak_rss_mb", peak_rss_mb(server.proc.pid))
        stats = RemoteConnection(server.url).stats()
        rec.add("store_ratio", stats["memory"]["resident_bytes"] / os.path.getsize(data))
    finally:
        if server is not None:
            server.stop()
    return {"window": window}


def _client(url: str, mix: ServeMix, rec: Recorder, deadline: float, k: int) -> None:
    session = 0
    while time.perf_counter() < deadline:
        session += 1
        opened = time.perf_counter()
        conn = RemoteConnection(url, client_id=f"bench-{k}")
        done = 0
        while done < SERVE_SESSION_OPS and time.perf_counter() < deadline:
            # A client's first request is a dashboard tile, so first-answer
            # latency compares like with like across sessions.
            ms = rec.run(
                mix.next(tile=done == 0),
                lambda op: remote_answer(conn, op, SERVE_PAGE_ROWS),
                "timed", f"c{k}s{session}",
            )
            if done == 0 and ms is not None:
                rec.add("first_answer_ms", 1000 * (time.perf_counter() - opened))
            done += 1
        if done == SERVE_SESSION_OPS:
            rec.add("session_s", time.perf_counter() - opened)
