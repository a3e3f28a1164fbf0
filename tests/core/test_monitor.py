"""Tests for the robustness monitor (paper section 5.5)."""

import random

import pytest

from repro import EngineConfig, NoDBEngine
from repro.core.monitor import RobustnessMonitor
from repro.core.statistics import QueryStats
from repro.flatfile.parser import ParseStats


def fake_query(went_to_file=True, served_from_store=False, parsed=1000, loaded=0):
    q = QueryStats()
    q.went_to_file = went_to_file
    q.served_from_store = served_from_store
    q.parse = ParseStats(values_parsed=parsed)
    q.rows_loaded = loaded
    return q


class TestAdviceHeuristics:
    def test_quiet_before_window_fills(self):
        m = RobustnessMonitor(policy="external", window=8)
        for _ in range(7):
            m.observe(fake_query())
        assert m.advise() is None

    def test_stateless_repeated_work_advice(self):
        m = RobustnessMonitor(policy="external", window=4)
        for _ in range(4):
            m.observe(fake_query(parsed=1000))
        advice = m.advise()
        assert advice is not None
        assert advice.switch_to == "splitfiles"

    def test_stateless_varied_workload_no_advice(self):
        m = RobustnessMonitor(policy="partial_v1", window=4)
        for parsed in (100, 5000, 40000, 100000):
            m.observe(fake_query(parsed=parsed))
        assert m.advise() is None

    def test_v2_never_covered_advice(self):
        m = RobustnessMonitor(policy="partial_v2", window=4)
        for _ in range(4):
            m.observe(fake_query(went_to_file=True, served_from_store=False))
        advice = m.advise()
        assert advice is not None
        assert advice.switch_to == "column_loads"

    def test_v2_with_store_hits_no_advice(self):
        m = RobustnessMonitor(policy="partial_v2", window=4)
        for i in range(4):
            m.observe(fake_query(went_to_file=(i % 2 == 0), served_from_store=(i % 2 == 1)))
        assert m.advise() is None

    def test_thrashing_advice(self):
        m = RobustnessMonitor(policy="column_loads", window=4)
        for i in range(4):
            m.observe(fake_query(loaded=500), evictions_total=i + 10)
        advice = m.advise()
        assert advice is not None
        assert advice.switch_to == "partial_v1"
        assert "thrash" in advice.reason

    def test_healthy_caching_no_advice(self):
        m = RobustnessMonitor(policy="column_loads", window=4)
        for _ in range(4):
            m.observe(
                fake_query(went_to_file=False, served_from_store=True, parsed=0)
            )
        assert m.advise() is None


class TestEngineIntegration:
    def test_monitor_fed_by_engine(self, engine_factory):
        engine = engine_factory("external")
        sql = "select sum(a1) from r where a1 > 5 and a1 < 100"
        for _ in range(8):
            engine.query(sql)
        advice = engine.monitor.advise()
        assert advice is not None
        assert advice.switch_to == "splitfiles"

    def test_well_matched_policy_gets_no_advice(self, engine_factory):
        engine = engine_factory("column_loads")
        sql = "select sum(a1) from r where a1 > 5 and a1 < 100"
        for _ in range(8):
            engine.query(sql)
        assert engine.monitor.advise() is None


# ---------------------------------------------------------------------------
# table-driven: every switch trigger, its boundary, and its suppressors
# ---------------------------------------------------------------------------

#: (case id, policy, window of (went_to_file, served_from_store, parsed,
#: loaded), evictions_total, expected switch_to or None).
SWITCH_TABLE = [
    # --- stateless repeated-work trigger -> splitfiles
    (
        "external_identical_volumes",
        "external",
        [(True, False, 1000, 0)] * 4,
        0,
        "splitfiles",
    ),
    (
        "partial_v1_identical_volumes",
        "partial_v1",
        [(True, False, 500, 0)] * 4,
        0,
        "splitfiles",
    ),
    (
        # hysteresis boundary: hi == lo * 2 still counts as repeated work
        "stateless_volume_exactly_2x",
        "external",
        [(True, False, 1000, 0)] * 2 + [(True, False, 2000, 0)] * 2,
        0,
        "splitfiles",
    ),
    (
        # just past the boundary: hi > lo * 2 means a shifting workload
        "stateless_volume_past_2x",
        "external",
        [(True, False, 1000, 0)] * 2 + [(True, False, 2001, 0)] * 2,
        0,
        None,
    ),
    (
        # one store-served query breaks the all-file-trips precondition
        "stateless_one_store_hit",
        "external",
        [(True, False, 1000, 0)] * 3 + [(False, True, 1000, 0)],
        0,
        None,
    ),
    (
        # parse volume 0 means no real repeated work to amortize
        "stateless_zero_volumes",
        "external",
        [(True, False, 0, 0)] * 4,
        0,
        None,
    ),
    # --- partial_v2 never-covered trigger -> column_loads
    (
        "v2_never_covered",
        "partial_v2",
        [(True, False, 100, 10)] * 4,
        0,
        "column_loads",
    ),
    (
        "v2_single_store_hit_suppresses",
        "partial_v2",
        [(True, False, 100, 10)] * 3 + [(False, True, 0, 0)],
        0,
        None,
    ),
    # --- thrashing trigger (any caching policy) -> partial_v1
    (
        "column_loads_thrash",
        "column_loads",
        [(True, False, 100, 500)] * 4,
        4,
        "partial_v1",
    ),
    (
        "fullload_thrash",
        "fullload",
        [(True, False, 100, 500)] * 4,
        10,
        "partial_v1",
    ),
    (
        "splitfiles_thrash",
        "splitfiles",
        [(True, False, 100, 500)] * 4,
        4,
        "partial_v1",
    ),
    (
        # evictions hysteresis: one below the window length is tolerated
        "thrash_evictions_below_threshold",
        "column_loads",
        [(True, False, 100, 500)] * 4,
        3,
        None,
    ),
    (
        # nothing loaded means evictions are not *this* policy's waste
        "thrash_no_loads",
        "column_loads",
        [(True, False, 100, 0)] * 4,
        10,
        None,
    ),
    (
        # any store hit shows fragments get reused before eviction
        "thrash_with_store_hit",
        "column_loads",
        [(True, False, 100, 500)] * 3 + [(False, True, 0, 0)],
        10,
        None,
    ),
    (
        # stateless policies cannot thrash (they never store)
        "external_never_thrash_advice",
        "external",
        [(True, False, 0, 500)] * 4,
        10,
        None,
    ),
]


@pytest.mark.parametrize(
    "policy,window,evictions,expected",
    [case[1:] for case in SWITCH_TABLE],
    ids=[case[0] for case in SWITCH_TABLE],
)
def test_switch_trigger_table(policy, window, evictions, expected):
    monitor = RobustnessMonitor(policy=policy, window=len(window))
    for went, served, parsed, loaded in window:
        monitor.observe(
            fake_query(
                went_to_file=went,
                served_from_store=served,
                parsed=parsed,
                loaded=loaded,
            ),
            evictions_total=evictions,
        )
    advice = monitor.advise()
    if expected is None:
        assert advice is None, f"unexpected advice: {advice}"
    else:
        assert advice is not None and advice.switch_to == expected
        assert advice.reason  # every switch carries its why


class TestRepeatedColumnTraffic:
    def test_empty_window_is_not_repeated(self):
        assert not RobustnessMonitor._repeated_column_traffic([])

    def test_no_file_trips_is_not_repeated(self):
        window = [fake_query(went_to_file=False, parsed=100)]
        assert not RobustnessMonitor._repeated_column_traffic(window)

    def test_advice_quiet_while_window_refills_after_switch(self):
        """Hysteresis: clearing the history (as the autotuner does after
        a switch) silences advice until a full window of post-switch
        behaviour accumulates."""
        monitor = RobustnessMonitor(policy="external", window=4)
        for _ in range(4):
            monitor.observe(fake_query(parsed=1000))
        assert monitor.advise() is not None
        monitor.history.clear()
        for _ in range(3):
            monitor.observe(fake_query(parsed=1000))
        assert monitor.advise() is None  # window not yet refilled
        monitor.observe(fake_query(parsed=1000))
        assert monitor.advise() is not None


class TestBoundedHistory:
    @pytest.mark.parametrize("policy", ["external", "partial_v2", "column_loads"])
    def test_history_bounded_and_advice_unchanged(self, policy):
        """10,000 observations keep exactly ``window`` entries, and every
        advice equals that of a monitor fed only the last window (all an
        unbounded history was ever read for)."""
        rng = random.Random(policy)
        monitor = RobustnessMonitor(policy=policy, window=8)
        seen: list[QueryStats] = []
        advised = 0
        for i in range(10_000):
            q = fake_query(
                went_to_file=rng.random() < 0.9,
                served_from_store=rng.random() < 0.1,
                parsed=rng.choice([1000, 1500, 1500, 5000]),
                loaded=rng.choice([0, 100]),
            )
            evictions = i // 50
            monitor.observe(q, evictions_total=evictions)
            seen.append(q)
            if i % 97 == 0 or i == 9_999:
                reference = RobustnessMonitor(policy=policy, window=8)
                for old in seen[-8:]:
                    reference.observe(old, evictions_total=evictions)
                advice = monitor.advise()
                assert advice == reference.advise()
                advised += advice is not None
        assert len(monitor.history) == 8
        assert list(monitor.history) == seen[-8:]
        assert advised > 0  # the comparison was not vacuously None == None
