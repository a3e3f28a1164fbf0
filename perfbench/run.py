"""The repository's benchmark: explore, serve and grow workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

Generates the workload's files from ``--seed``, runs the engine on them
through its public surface for ``--seconds`` of measurement, checks every
answer against a NumPy reference, and prints one JSON object as the last
line of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (and the tracing overhead) with ``--trace 1``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Set-up is repeated this many times per run; set-up time is the median.
ROUNDS = 5
#: A worker that takes longer than this is killed and the run fails.
PHASE_TIMEOUT_S = 150.0

WORKLOADS = ("explore", "serve", "grow")

#: End-to-end metrics in ``BENCHMARK.json`` order, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("first_answer_ms", "ms"),
    ("session_s", "s"),
    ("first_touch_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("serve_qps", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("append_p50_ms", "ms"),
    ("restart_answer_ms", "ms"),
    ("store_bytes_per_source_byte", "B/B"),
    ("peak_rss_mb", "MB"),
)

#: Operation kinds whose latency is a warm (repeat or plain-read) latency.
WARM_KINDS = ("repeat", "read", "adhoc")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(work: Path) -> dict:
    """Environment of every process the benchmark starts.

    ``TMPDIR`` keeps the engine's scratch space (server result files)
    inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(work / "tmp")
    return env


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


def write_inputs(workload: str, seed: int, work: Path):
    """Generate the data and write base file and append chunks."""
    from workloads import SHAPES, chunk_rows, csv_text, make_data

    shape = SHAPES[workload]
    data = make_data(shape, seed)
    (work / "base.csv").write_text(csv_text(data[: shape.rows]))
    for k in range(shape.chunks):
        lo, hi = chunk_rows(shape, k)
        (work / f"chunk{k}.csv").write_text(csv_text(data[lo:hi]))
    return data


def ops_by_id(workload: str, seed: int) -> dict[int, dict]:
    from workloads import explore_plan, grow_plan

    if workload == "explore":
        plan = explore_plan(seed)
        ops = plan["session"] + plan["setup"]
    else:
        plan = grow_plan(seed)
        ops = plan["ops"] + plan["setup"]
    return {op["id"]: op for op in ops}


# ---------------------------------------------------------------------------
# one measured phase
# ---------------------------------------------------------------------------


def run_phase(args, work: Path, traced: bool) -> dict:
    """Run the workload once (set-up rounds + measured window)."""
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": traced,
        "rounds": ROUNDS,
        "work": str(work),
        "out": str(work / "out.json"),
        "spans": str(work / "spans.json"),  # written by traced phases only
    }
    env = child_env(work)
    if args.workload == "serve":
        return run_serve_phase(spec, env)
    job = work / "job.json"
    job.write_text(json.dumps(spec))
    cmd = [sys.executable, str(HERE / "engine_worker.py"), str(job)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(PHASE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args.workload} worker exceeded {PHASE_TIMEOUT_S:g}s")
    if code != 0:
        raise RuntimeError(f"{args.workload} worker exited with {code}")
    out = json.loads(Path(spec["out"]).read_text())
    by_id = ops_by_id(args.workload, args.seed)
    out["answers"] = [(by_id[op_id], answer) for op_id, answer in out["answers"]]
    out["spans"] = json.loads(Path(spec["spans"]).read_text()) if traced else []
    return out


def run_serve_phase(spec: dict, env: dict) -> dict:
    from record import Recorder
    from serve_driver import run_serve

    client_tracer = None
    if spec["trace"]:
        from tracing import Tracer

        client_tracer = Tracer()
    rec = Recorder()
    result = run_serve(spec, env, rec, client_tracer)
    spans = []
    if spec["trace"]:
        spans = client_tracer.spans + json.loads(Path(spec["spans"]).read_text())
    return {
        "ops": rec.ops,
        "series": rec.series,
        "window": result["window"],
        "appends": rec.appends,
        "appended_bytes": rec.appended_bytes,
        "revisit_requests": sorted(rec.revisit_requests),
        "answers": rec.answers,
        "spans": spans,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(out: dict, generate_s: float) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics of one phase, and report lines about them."""
    from summary import nearest_rank, samples_beyond, supported

    start, end = out["window"]
    window_ms = 1000 * (end - start)

    def lat(op):
        # A failed operation counts as taking the whole measured window,
        # so it lies beyond every latency bound.
        return window_ms if op[3] is None else op[3]

    timed = [op for op in out["ops"] if op[4] == "timed"]
    warm = [lat(op) for op in timed if op[1] in WARM_KINDS and not op[2]]
    touch = [lat(op) for op in out["ops"] if op[2]]
    everything = [lat(op) for op in timed]
    series = out["series"]
    ok = sum(1 for op in timed if op[3] is not None)

    def pct(values, q=50.0, failed=window_ms):
        # Series hold successes only; when every sample failed there is
        # none, and the metric reads as a failure.
        return nearest_rank(values, q) if values else failed

    def med(name, failed=window_ms):
        values = series.get(name, [])
        return statistics.median(values) if values else failed

    values = {
        "setup_s": generate_s + med("round_s"),
        "first_answer_ms": med("first_answer_ms"),
        "session_s": med("session_s", failed=end - start),
        "first_touch_p50_ms": pct(touch),
        "warm_p50_ms": pct(warm),
        "warm_p90_ms": pct(warm, 90),
        "serve_qps": ok / (end - start),
        "serve_p50_ms": pct(everything),
        "serve_p99_ms": pct(everything, 99),
        "append_p50_ms": med("append_ms"),
        "restart_answer_ms": med("restart_answer_ms"),
        "store_bytes_per_source_byte": med("store_ratio"),
        "peak_rss_mb": max(series["peak_rss_mb"]),
    }

    def tail(values, q):
        beyond = samples_beyond(len(values), q)
        return f"p{q} has {beyond} beyond{'' if supported(len(values), q) else ', under 10'}"

    notes = [
        f"samples: sessions={len(series['session_s'])} "
        f"first_answers={len(series['first_answer_ms'])} first_touches={len(touch)} "
        f"appends={len(series['append_ms'])} restarts={len(series['restart_answer_ms'])} "
        f"setup_rounds={len(series['round_s'])}",
        f"samples: warm={len(warm)} ({tail(warm, 90)}) "
        f"all={len(everything)} ({tail(everything, 99)})",
    ]
    return values, notes


def per_layer(out: dict, workload: str) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, wrapper call counts and wrappers that never fired."""
    from tracing import layer_metrics, silent_wrappers, totals

    start, end = out["window"]
    t = totals(out["spans"], start, end)
    ctx = {
        "ops": max(1, sum(1 for op in out["ops"] if op[4] == "timed")),
        "appends": out["appends"],
        "appended_bytes": out["appended_bytes"],
        "revisit_requests": set(out["revisit_requests"]),
    }
    return layer_metrics(t, ctx), dict(t.calls), silent_wrappers(t, workload)


def check_answers(out: dict, data) -> tuple[int, int]:
    """(answers checked, mismatches) against the NumPy reference."""
    from workloads import matches, reference

    cache: dict[int, object] = {}
    bad = 0
    for op, answer in out["answers"]:
        key = op.get("tile", op["id"])
        if key not in cache:
            cache[key] = reference(op, data)
        if not matches(op, answer, cache[key]):
            bad += 1
            if bad <= 5:
                print(f"# MISMATCH {op['sql']}: got {answer!r:.200}", flush=True)
    return len(out["answers"]), bad


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")

    started = time.perf_counter()
    data = write_inputs(args.workload, args.seed, work)
    generate_s = time.perf_counter() - started

    phases = [("untraced", run_phase(args, work, traced=False))]
    if args.trace:
        phases.append(("traced", run_phase(args, work, traced=True)))

    attempted = failed = checked = mismatched = 0
    e2e = {}
    for label, out in phases:
        attempted += len(out["ops"])
        failed += sum(1 for op in out["ops"] if op[3] is None)
        n, bad = check_answers(out, data)
        checked += n
        mismatched += bad
        e2e[label], notes = end_to_end(out, generate_s)
        for line in notes:
            print(f"# {label} {line}")
    print(f"# answers checked: {checked}, mismatched: {mismatched}")
    units = dict(END_TO_END)
    if mismatched:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if not args.trace:
        metrics = {
            name: {"value": e2e["untraced"][name], "unit": unit}
            for name, unit in END_TO_END
        }
    else:
        layers, calls, silent = per_layer(phases[1][1], args.workload)
        for name in sorted(calls):
            print(f"# calls {name}: {calls[name]}")
        if silent:
            for name in silent:
                print(f"error: wrapper recorded no call: {name}", file=sys.stderr)
            return 1
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        for name, unit in END_TO_END:
            traced, untraced = e2e["traced"][name], e2e["untraced"][name]
            print(f"# overhead {name}: traced {traced:.6g} untraced {untraced:.6g} {unit}")
            metrics[f"overhead.{name}"] = {"value": traced - untraced, "unit": unit}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise RuntimeError(f"metric {name} is not finite: {m['value']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
