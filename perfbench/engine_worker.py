"""Runs the explore or grow workload in a fresh process.

Usage: ``python3 perfbench/engine_worker.py JOB.json`` with ``src`` on
``PYTHONPATH``.  The parent (``run.py``) has already written the base
CSV and the append chunks into the job's work directory; this process
only opens engines on them, so its peak RSS holds no data generation.
It writes its measurements and every answer to the job's ``out`` file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

import repro

from record import Recorder, dir_bytes, local_answer, peak_rss_mb, reset_peak_rss
from workloads import EXPLORE_BUDGET, explore_plan, grow_plan


class Job:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.work = Path(spec["work"])
        self.base = self.work / "base.csv"
        self.data = self.work / "data.csv"
        self.store = self.work / "store"
        self.seconds = float(spec["seconds"])

    def chunk(self, k: int) -> Path:
        return self.work / f"chunk{k}.csv"

    def fresh_file(self) -> None:
        shutil.copyfile(self.base, self.data)


def run_explore(job: Job, rec: Recorder) -> None:
    plan = explore_plan(job.spec["seed"])

    def connect():
        return repro.connect(job.data, memory_budget_bytes=EXPLORE_BUDGET)

    # Set-up rounds: a cold query, then the append probes.  The last
    # round leaves the file with every chunk appended.  A round opens a
    # fresh engine like a session does, so its first answer counts too.
    for _ in range(job.spec["rounds"]):
        start = time.perf_counter()
        job.fresh_file()
        opened = time.perf_counter()
        with connect() as conn:
            cold, *appends = plan["setup"]
            if rec.run(cold, lambda op: local_answer(conn, op), "setup") is not None:
                first = 1000 * (time.perf_counter() - opened)
                rec.add("first_answer_ms", first)
                rec.add("restart_answer_ms", first)
            for k, op in enumerate(appends):
                rec.append_file(job.data, job.chunk(k))
                ms = rec.run(op, lambda op: local_answer(conn, op), "setup")
                if ms is not None:
                    rec.add("append_ms", ms)
        rec.add("round_s", time.perf_counter() - start)
    rec.appends = rec.appended_bytes = 0

    reset_peak_rss()
    window = [time.perf_counter(), None]
    deadline = window[0] + job.seconds
    source = os.path.getsize(job.data)
    session = 0
    while time.perf_counter() < deadline:
        session += 1
        opened = time.perf_counter()
        conn = connect()
        try:
            for i, op in enumerate(plan["session"]):
                ms = rec.run(op, lambda op: local_answer(conn, op), "timed", session)
                if i == 0 and ms is not None:
                    first = 1000 * (time.perf_counter() - opened)
                    rec.add("first_answer_ms", first)
                    rec.add("restart_answer_ms", first)
            rec.add("store_ratio", conn.engine.memory.resident_bytes / source)
        finally:
            conn.close()
        rec.add("session_s", time.perf_counter() - opened)
    window[1] = time.perf_counter()
    rec.add("peak_rss_mb", peak_rss_mb())
    rec.window = window


def run_grow(job: Job, rec: Recorder) -> None:
    plan = grow_plan(job.spec["seed"])

    def connect():
        return repro.connect(job.data, store_dir=job.store)

    def fresh():
        job.fresh_file()
        shutil.rmtree(job.store, ignore_errors=True)

    # Set-up rounds open a cold engine on an empty store, as a session
    # does, so their first answers count too.
    for _ in range(job.spec["rounds"]):
        start = time.perf_counter()
        fresh()
        opened = time.perf_counter()
        with connect() as conn:
            if rec.run(plan["setup"][0], lambda op: local_answer(conn, op), "setup") is not None:
                rec.add("first_answer_ms", 1000 * (time.perf_counter() - opened))
        rec.add("round_s", time.perf_counter() - start)

    reset_peak_rss()
    window = [time.perf_counter(), None]
    deadline = window[0] + job.seconds
    session = 0
    while time.perf_counter() < deadline:
        session += 1
        fresh()
        opened = time.perf_counter()
        conn = connect()
        try:
            if rec.run(plan["open"], lambda op: local_answer(conn, op), "timed", session) is not None:
                rec.add("first_answer_ms", 1000 * (time.perf_counter() - opened))
            for cycle in plan["cycles"]:
                rec.append_file(job.data, job.chunk(cycle["chunk"]))
                ms = rec.run(cycle["append"], lambda op: local_answer(conn, op), "timed", session)
                if ms is not None:
                    rec.add("append_ms", ms)
                for op in cycle["reads"]:
                    rec.run(op, lambda op: local_answer(conn, op), "timed", session)
                if cycle["restart"] is not None:
                    conn.close()
                    reopened = time.perf_counter()
                    conn = connect()
                    op = cycle["restart"]
                    if rec.run(op, lambda op: local_answer(conn, op), "timed", session) is not None:
                        rec.add(
                            "restart_answer_ms", 1000 * (time.perf_counter() - reopened)
                        )
        finally:
            conn.close()
        rec.add("session_s", time.perf_counter() - opened)
        rec.add("store_ratio", dir_bytes(job.store) / os.path.getsize(job.data))
    window[1] = time.perf_counter()
    rec.add("peak_rss_mb", peak_rss_mb())
    rec.window = window


def main(job_path: str) -> int:
    spec = json.loads(Path(job_path).read_text())
    job = Job(spec)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(spec["workload"])
    rec = Recorder(tracer)
    {"explore": run_explore, "grow": run_grow}[spec["workload"]](job, rec)
    out = {
        "ops": rec.ops,
        "series": rec.series,
        "window": rec.window,
        "appends": rec.appends,
        "appended_bytes": rec.appended_bytes,
        "revisit_requests": sorted(rec.revisit_requests),
        "answers": [[op["id"], answer] for op, answer in rec.answers],
    }
    if tracer is not None:
        tracer.uninstall()
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
