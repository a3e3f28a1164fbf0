"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads explore,serve,grow --seeds 1-10 \
        --out batch1.json [--compare batch0.json]

For every workload and end-to-end metric it prints the median of the
runs and the distance between first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``.  With ``--compare`` it also prints how far
each median moved from an earlier batch, in the metric's worse
direction.  Runs one seed at a time; nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from summary import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong answers")
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = json.loads(args.compare.read_text()) if args.compare else {}
    values: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads.split(","):
        values[workload] = {name: [] for name in metrics}
        for seed in seeds_from(args.seeds):
            started = time.monotonic()
            result = run_once(workload, seed, spec["run_seconds"])
            for name in metrics:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.monotonic() - started:.1f}s, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name, m in metrics.items():
            runs = values[workload][name]
            med = statistics.median(runs)
            line = (f"  {workload:8} {name:28} median {med:11.5g}  "
                    f"spread {quartile_spread(runs):6.3f}  bound {m['bound']:.2f}")
            old = before.get(workload, {}).get(name)
            if old:
                old_med = statistics.median(old)
                worse = (med - old_med) / old_med
                if m["better"] == "higher":
                    worse = -worse
                line += f"  worse-than-before {worse:+.3f}"
            print(line, flush=True)
    args.out.write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
