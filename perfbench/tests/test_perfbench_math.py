"""The benchmark's own arithmetic: percentile rule, self time, wrappers."""

from __future__ import annotations

import inspect
import math
import threading
import time

import pytest

import repro
from summary import (
    covered,
    nearest_rank,
    quartile_spread,
    samples_beyond,
    self_times,
    supported,
)
from tracing import WRAPPERS, Tracer, Wrapper, resolve, silent_wrappers, totals


# ------------------------------------------------------------- percentiles


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 99) == 7.0


def test_failures_sort_beyond_every_latency():
    values = [1.0] * 95 + [math.inf] * 5
    assert nearest_rank(values, 90) == 1.0
    assert nearest_rank(values, 99) == math.inf


def test_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert supported(100, 90)
    assert samples_beyond(99, 90) == 9
    assert not supported(99, 90)
    assert supported(1000, 99)
    assert not supported(999, 99)
    assert supported(20, 50)
    assert not supported(19, 50)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)


def test_quartile_spread_is_share_of_median():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [8, 9, 10, 10, 10, 10, 10, 11, 12, 13]
    q1, q3 = 9.75, 11.25  # statistics.quantiles(values, n=4), exclusive method
    assert quartile_spread(values) == pytest.approx((q3 - q1) / 10)


# --------------------------------------------------------------- self time


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 4), (3, 6)], 0, 10) == 5
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(1, 2), (1, 2), (1.5, 3)], 0, 10) == 2
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_with_nested_and_overlapping_children():
    # parent [0,10]; two children on different threads overlap on [3,4];
    # child A has a nested grandchild; child C runs past the parent's end.
    spans = [
        (1, None, "parent", 0.0, 10.0, "r", None),
        (2, 1, "a", 1.0, 4.0, "r", None),
        (3, 1, "b", 3.0, 6.0, "r", None),
        (4, 2, "grandchild", 2.0, 3.0, "r", None),
        (5, 1, "c", 9.0, 12.0, "r", None),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - (5 + 1))  # [1,6] and [9,10]
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(3)
    assert selfs[4] == pytest.approx(1)
    assert selfs[5] == pytest.approx(3)


def test_tracer_links_children_across_threads():
    tracer = Tracer()

    def child(ctx, pause):
        with tracer.adopt(ctx):
            tracer.call("child", time.sleep, (pause,), {}, None, None, False)

    def parent():
        ctx = tracer.context()
        workers = [
            threading.Thread(target=child, args=(ctx, 0.05)),
            threading.Thread(target=child, args=(ctx, 0.05)),
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)

    with tracer.request("q1"):
        tracer.call("parent", parent, (), {}, None, None, False)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (root,) = by_name["parent"]
    assert [s[1] for s in by_name["child"]] == [root[0], root[0]]
    assert {s[5] for s in tracer.spans} == {"q1"}
    t = totals(tracer.spans, root[3], root[4])
    # The two children overlap, so the parent's self time is its
    # duration minus ~one child, not minus both.
    children = covered([(s[3], s[4]) for s in by_name["child"]], root[3], root[4])
    assert t.self_s["parent"] == pytest.approx((root[4] - root[3]) - children)
    assert t.self_s["parent"] >= 0
    assert t.calls == {"parent": 1, "child": 2}


# ---------------------------------------------------------------- wrappers


def _tiny_csv(tmp_path, rows=3000):
    path = tmp_path / "t.csv"
    path.write_text("".join(f"{i},{(i * 7) % 1000},{i * 1_000_003}\n" for i in range(rows)))
    return path


def test_wrapper_on_caller_namespace_fires_and_defining_module_does_not(tmp_path):
    path = _tiny_csv(tmp_path)
    tracer = Tracer()
    defining = Wrapper("repro.sql.parser:parse_sql", "defining")
    resolved = Wrapper("repro.core.engine:parse_sql", "resolved")
    try:
        for spec in (defining, resolved):
            tracer.wrap(*resolve(spec.target), spec)
        with repro.connect(path) as conn:
            conn.execute("select sum(a2) from t where a1 < 100").rows()
    finally:
        tracer.uninstall()
    t = totals(tracer.spans, -math.inf, math.inf)
    assert t.calls["resolved"] == 1
    assert t.calls["defining"] == 0


def test_engine_wrappers_fire_and_uninstall(tmp_path):
    path = _tiny_csv(tmp_path)
    originals = {
        spec.target: inspect.getattr_static(*resolve(spec.target)) for spec in WRAPPERS
    }
    tracer = Tracer()
    tracer.install("explore")
    try:
        with repro.connect(path) as conn:
            for _ in range(2):
                conn.execute("select sum(a2), count(*) from t where a1 >= 10 and a1 < 900")
            conn.execute("select sum(a3) from t")
    finally:
        tracer.uninstall()
    t = totals(tracer.spans, -math.inf, math.inf)
    for name in ("sql.parse", "sql.bind", "engine.query", "engine.fingerprint",
                 "policies.warm", "policies.provide", "loader.pass", "tokenize.scan",
                 "parse.fields", "execute.query", "locks.read", "memory.register"):
        assert t.calls[name] > 0, name
    # Every query span is a request root with the engine's calls under it.
    queries = [s for s in tracer.spans if s[2] == "engine.query"]
    assert len(queries) == 3 and all(s[5] is not None for s in queries)
    for target, raw in originals.items():
        assert inspect.getattr_static(*resolve(target)) is raw, target


def test_zone_map_wrapper_fires_under_pushdown(tmp_path):
    # column_loads (every workload's policy) never consults zone maps;
    # a pushdown policy does, which shows the wrapper itself is sound.
    path = _tiny_csv(tmp_path, rows=4000)
    tracer = Tracer()
    spec = next(w for w in WRAPPERS if w.name == "zonemaps.keep")
    try:
        tracer.wrap(*resolve(spec.target), spec)
        with repro.connect(
            path, policy="partial_v1", zone_map_rows=256, cracking=False
        ) as conn:
            # A full-row pass learns the zones; the range query uses them.
            conn.execute("select sum(a1), sum(a2) from t").rows()
            conn.execute("select sum(a2) from t where a1 >= 100 and a1 < 200").rows()
    finally:
        tracer.uninstall()
    t = totals(tracer.spans, -math.inf, math.inf)
    assert t.calls["zonemaps.keep"] > 0
    assert t.counts[("zonemaps.keep", "skips")] > 0


def test_silent_wrapper_is_reported():
    t = totals([], 0, 1)
    silent = silent_wrappers(t, "grow")
    assert any(name.startswith("append.extend ") for name in silent)
    assert not any(name.startswith("server.dispatch ") for name in silent)
