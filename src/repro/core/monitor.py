"""Robust-performance monitor (paper section 5.5).

"The challenge, for providing a robust performance relates to a continuous
process to monitor the system performance and the workload trends such as
we can continuously adjust critical decisions."

The monitor watches the per-query statistics stream and raises *advice*
when the running policy is pathological for the observed workload:

* a stateless policy (``external``, ``partial_v1``) paying full-file trips
  for a workload that keeps re-touching the same columns — the repeated
  work the adaptive store exists to amortize;
* ``partial_v2`` whose table of contents almost never covers incoming
  queries (workload keeps shifting) — column or split loading would
  amortize better;
* any caching policy thrashing against the memory budget (fragments
  evicted before they are ever reused) — the worst case sketched in 5.5
  where "all the effort of incremental loading is wasted".

Advice is returned, never enforced: switching policies mid-flight is the
operator's (or a future auto-tuner's) decision.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.core.statistics import QueryStats


@dataclass(frozen=True)
class PolicyAdvice:
    """A recommendation to switch loading policies."""

    switch_to: str
    reason: str


@dataclass
class CrackingAdvisor:
    """Counts warm range scans per (table, column) to justify cracking.

    Building a cracker copies the whole column; the copy only pays off
    when the same predicate column keeps coming back.  The warm path
    asks this advisor on every crackable range scan and cracks once the
    count reaches ``EngineConfig.crack_after``.  Thread-safe: warm
    serves run concurrently under the shared read lock.
    """

    counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def note_range_scan(self, table_key: str, column: str) -> int:
        """Record one warm range scan; returns the running count."""
        key = (table_key, column.lower())
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1
            return self.counts[key]

    def forget_table(self, table_key: str) -> None:
        """Reset a table's counts (its crackers were just invalidated)."""
        with self._lock:
            for key in [k for k in self.counts if k[0] == table_key]:
                del self.counts[key]


@dataclass
class RobustnessMonitor:
    """Sliding-window workload/performance watcher."""

    policy: str
    window: int = 8
    evictions_seen: int = 0
    #: The last ``window`` queries; older ones are never read again, so
    #: the monitor's memory stays bounded however many queries it sees.
    history: deque[QueryStats] = field(init=False)
    #: Decides when repeated range predicates justify cracking a column.
    cracking: CrackingAdvisor = field(default_factory=CrackingAdvisor)

    def __post_init__(self) -> None:
        self.history = deque(maxlen=self.window)

    def observe(self, qstats: QueryStats, evictions_total: int = 0) -> None:
        self.history.append(qstats)
        self.evictions_seen = evictions_total

    # -------------------------------------------------------------- advice

    def advise(self) -> PolicyAdvice | None:
        recent = list(self.history)
        if len(recent) < self.window:
            return None
        file_trips = sum(1 for q in recent if q.went_to_file)
        store_hits = sum(1 for q in recent if q.served_from_store)

        if self.policy in ("external", "partial_v1") and file_trips == len(recent):
            repeated = self._repeated_column_traffic(recent)
            if repeated:
                return PolicyAdvice(
                    switch_to="splitfiles",
                    reason=(
                        f"{file_trips}/{len(recent)} recent queries re-read the flat "
                        "file for columns that were needed before; a caching policy "
                        "would amortize the tokenize/parse cost"
                    ),
                )
        if self.policy == "partial_v2" and store_hits == 0 and file_trips == len(recent):
            return PolicyAdvice(
                switch_to="column_loads",
                reason=(
                    "the partial-load table of contents never covered a query in "
                    f"the last {len(recent)}; the workload shifts too fast for "
                    "value-range reuse, so loading whole columns amortizes better"
                ),
            )
        if self.policy not in ("external", "partial_v1"):
            loads = sum(q.rows_loaded for q in recent)
            if self.evictions_seen >= len(recent) and loads > 0 and store_hits == 0:
                return PolicyAdvice(
                    switch_to="partial_v1",
                    reason=(
                        "loaded fragments are evicted before any reuse (memory "
                        "thrashing); a throw-away policy avoids the wasted stores"
                    ),
                )
        return None

    @staticmethod
    def _repeated_column_traffic(recent: list[QueryStats]) -> bool:
        """Did recent queries parse substantially overlapping work?

        Stateless policies do not track columns, so this uses parse volume
        as the proxy: near-identical parse counts across the window mean
        the same shape of work is being redone.
        """
        volumes = [q.parse.values_parsed for q in recent if q.went_to_file]
        if not volumes:
            return False
        lo, hi = min(volumes), max(volumes)
        return lo > 0 and hi <= lo * 2
