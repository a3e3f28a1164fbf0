"""Spans recorded around calls into the engine's modules, from outside.

A traced run patches the attribute each caller actually resolves: a
module-level name imported into the calling module (``parse_sql`` as
``repro.core.engine`` sees it), or a method on the class whose instances
the engine calls.  Each wrapper records one span: name, start, end,
parent span and request id.  Spans are kept in memory and written out
once, when the run ends.

:data:`WRAPPERS` is the single table of what is wrapped, and
:data:`LAYER_METRICS` turns spans into the per-layer metrics named in
``BENCHMARK.json``.  Nothing here is imported by the engine.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from summary import self_times

#: Workload names, used by the expectations below.
EXPLORE, SERVE, GROW = "explore", "serve", "grow"


class Tracer:
    """In-memory span recorder shared by every wrapper of one process.

    A span is ``(id, parent, name, start, end, request, extra)`` where
    ``extra`` is ``None`` or a dict of counts the wrapper observed (bytes
    read, zones skipped, ...).  Times come from ``time.perf_counter``,
    which is ``CLOCK_MONOTONIC`` on Linux, so spans from the server
    process and from the client line up.
    """

    def __init__(self, first_id: int = 1) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(first_id)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- context

    def _stack(self) -> list[tuple[int, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple[int | None, object]:
        """``(parent span id, request id)`` for a span opened now."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", (None, None))

    @contextmanager
    def adopt(self, ctx: tuple[int | None, object]):
        """Run this thread's spans as children of ``ctx`` (cross-thread)."""
        saved = getattr(self._local, "inherited", (None, None))
        self._local.inherited = ctx
        try:
            yield
        finally:
            self._local.inherited = saved

    @contextmanager
    def request(self, request_id: object):
        """Tag every span opened inside with ``request_id``."""
        with self.adopt((None, request_id)):
            yield

    # ---------------------------------------------------------------- spans

    def call(self, name, func, args, kwargs, before, after, root):
        parent, req = self.context()
        if root and req is None:
            req = f"r{next(self._requests)}"
        sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, req))
        state = before(args) if before is not None else None
        extra = None
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter()
            extra = {"errors": 1, type(exc).__name__: 1}
            raise
        else:
            end = time.perf_counter()
            if after is not None:
                extra = after(args, result, state)
            return result
        finally:
            stack.pop()
            self.spans.append((sid, parent, name, start, end, req, extra))

    def wrap(self, owner, attr: str, spec: "Wrapper") -> None:
        raw = inspect.getattr_static(owner, attr)
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if binder is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(
                spec.name, func, args, kwargs, spec.before, spec.after, spec.root
            )

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", attr)
        setattr(owner, attr, binder(wrapper) if binder is not None else wrapper)
        self._patched.append((owner, attr, raw))

    def install(self, workload: str) -> None:
        """Patch every wrapper of :data:`WRAPPERS` for ``workload``'s process."""
        side = side_of(workload)
        for spec in WRAPPERS:
            if spec.side != side and (spec.side != "any" or side == "client"):
                continue
            owner, attr = resolve(spec.target)
            self.wrap(owner, attr, spec)
        if side_of(workload) == "server":
            propagate_into_pool(self)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)


def side_of(workload: str) -> str:
    """Which process a wrapper set is installed in."""
    return {EXPLORE: "engine", GROW: "engine", SERVE: "server"}.get(workload, workload)


def resolve(target: str):
    """``"repro.core.engine:NoDBEngine.query"`` -> ``(NoDBEngine, "query")``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def propagate_into_pool(tracer: Tracer) -> None:
    """Make the server's query pool carry the submitting span's context.

    ``ReproServer`` runs ``engine.query`` on a pool thread while the
    handler thread waits inside ``dispatch``; without this the engine's
    spans would have no parent and no request id.
    """
    app = importlib.import_module("repro.server.app")
    base = app.ThreadPoolExecutor

    class ContextPool(base):
        def submit(self, fn, /, *args, **kwargs):
            ctx = tracer.context()

            def run():
                with tracer.adopt(ctx):
                    return fn(*args, **kwargs)

            return super().submit(run)

    tracer._patched.append((app, "ThreadPoolExecutor", base))
    app.ThreadPoolExecutor = ContextPool


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Wrapper:
    """One patched attribute.

    ``target`` is ``module:attribute.path`` as the *caller* resolves it.
    ``must_fire`` lists the workloads on which a traced run fails unless
    this wrapper recorded at least one call.  ``side`` is the process it
    belongs in: ``engine`` (explore and grow), ``server`` (the ``repro
    serve`` process), ``client`` (the serve load generator) or ``any``
    engine-bearing process.
    """

    target: str
    name: str
    must_fire: tuple[str, ...] = ()
    side: str = "any"
    before: Callable | None = None
    after: Callable | None = None
    root: bool = False


def _count(key):
    return lambda args, result, state: {key: 1} if result is not None else None


def _bytes_read(args, result, state):
    size = len(result) if isinstance(result, (bytes, bytearray)) else result.total_bytes
    return {"bytes": size, "retries": args[0].thread_io_retries() - state}


def _tokenized(args, result, state):
    return {"fields": result.stats.fields_tokenized}


def _gathered(args, result, state):
    return {"fields": len(result)}


def _parsed(args, result, state):
    return {"values": len(args[0])}


def _zones_skipped(args, result, state):
    if result is None:
        return None
    return {"skips": int(len(result) - int(result.sum()))}


def _cracks_made(args, result, state):
    return {"cracks": args[0].stats.cracks - state}


def _evictions(args, result, state):
    return {"evictions": args[0].stats.evictions - state}


def _bytes_written(args, result, state):
    return {"bytes_written": args[0].stats.bytes_written - state}


def _restored(args, result, state):
    return {"hits": 1} if result.state is not None else None


def _extended(args, result, state):
    return {"extended": 1} if result else None


def _file_written(args, result, state):
    return {"files": 1} if args[0].write_failures == state else None


WRAPPERS: tuple[Wrapper, ...] = (
    # sql
    Wrapper("repro.core.engine:parse_sql", "sql.parse", (EXPLORE, SERVE, GROW)),
    Wrapper("repro.core.engine:bind", "sql.bind", (EXPLORE, SERVE, GROW)),
    # core.engine
    Wrapper(
        "repro.core.engine:NoDBEngine.query", "engine.query",
        (EXPLORE, SERVE, GROW), root=True,
    ),
    Wrapper(
        "repro.flatfile.files:FileFingerprint.of", "engine.fingerprint",
        (EXPLORE, SERVE, GROW),
    ),
    # locks
    Wrapper("repro.locks:RWLock.acquire_read", "locks.read", (EXPLORE, SERVE, GROW)),
    Wrapper("repro.locks:RWLock.acquire_write", "locks.write", (EXPLORE, GROW)),
    Wrapper("repro.locks:SingleFlight.lead_or_wait", "locks.flight", (EXPLORE, GROW)),
    # core.result_cache
    Wrapper(
        "repro.core.result_cache:QueryResultCache.lookup", "result_cache.lookup",
        (SERVE,), after=_count("hits"),
    ),
    # core.policies
    Wrapper(
        "repro.core.policies:ColumnLoadsPolicy.try_serve_warm", "policies.warm",
        (EXPLORE, SERVE, GROW), after=_count("hits"),
    ),
    Wrapper(
        "repro.core.policies:ColumnLoadsPolicy.provide", "policies.provide",
        (EXPLORE, GROW),
    ),
    # core.loader
    Wrapper("repro.core.loader:run_pass", "loader.pass", (EXPLORE, GROW)),
    # flatfile.files
    Wrapper(
        "repro.flatfile.files:FlatFile.read_all_bytes", "flatfile.read_all",
        (EXPLORE, GROW),
        before=lambda args: args[0].thread_io_retries(), after=_bytes_read,
    ),
    Wrapper(
        "repro.flatfile.files:FlatFile.read_range_bytes", "flatfile.read_range",
        (GROW,),
        before=lambda args: args[0].thread_io_retries(), after=_bytes_read,
    ),
    Wrapper(
        "repro.flatfile.files:FlatFile.read_windows", "flatfile.read_windows",
        (EXPLORE,),
        before=lambda args: args[0].thread_io_retries(), after=_bytes_read,
    ),
    # flatfile.tokenizer / flatfile.vectorized
    Wrapper(
        "repro.core.loader:tokenize_bytes", "tokenize.scan", (EXPLORE, GROW),
        after=_tokenized,
    ),
    Wrapper(
        "repro.core.append:tokenize_bytes", "tokenize.append", (GROW,),
        after=_tokenized,
    ),
    Wrapper(
        "repro.core.loader:gather_fields", "tokenize.gather", (EXPLORE,),
        after=_gathered,
    ),
    # flatfile.parser
    Wrapper("repro.core.loader:parse_fields", "parse.fields", (EXPLORE, GROW), after=_parsed),
    # core.zonemaps
    Wrapper(
        "repro.core.zonemaps:ZoneMapIndex.zone_keep_mask", "zonemaps.keep",
        after=_zones_skipped,
    ),
    # cracking
    Wrapper(
        "repro.cracking.cracker:CrackerColumn.__post_init__", "cracking.build",
        (EXPLORE, SERVE),
    ),
    Wrapper(
        "repro.cracking.cracker:CrackerColumn.select_interval", "cracking.select",
        (EXPLORE, SERVE),
        before=lambda args: args[0].stats.cracks, after=_cracks_made,
    ),
    # execution
    Wrapper(
        "repro.core.engine:execute_bound_query", "execute.query", (EXPLORE, SERVE, GROW)
    ),
    # storage.memory
    Wrapper(
        "repro.storage.memory:MemoryManager.register", "memory.register",
        (EXPLORE, GROW),
        before=lambda args: args[0].stats.evictions, after=_evictions,
    ),
    Wrapper(
        "repro.storage.memory:MemoryManager.unpin_many", "memory.unpin",
        (EXPLORE, SERVE, GROW),
        before=lambda args: args[0].stats.evictions, after=_evictions,
    ),
    # storage.persistent
    Wrapper(
        "repro.storage.persistent:PersistentStore.save", "persist.save", (GROW,),
        before=lambda args: args[0].stats.bytes_written, after=_bytes_written,
    ),
    Wrapper(
        "repro.storage.persistent:PersistentStore.load", "persist.load", (GROW,),
        after=_restored,
    ),
    # core.append
    Wrapper(
        "repro.core.engine:extend_entry_for_append", "append.extend", (GROW,),
        after=_extended,
    ),
    # server.app / server.admission
    Wrapper(
        "repro.server.app:ReproServer.dispatch", "server.dispatch", (SERVE,),
        side="server", root=True,
    ),
    Wrapper(
        "repro.server.admission:AdmissionController.acquire", "server.admission",
        (SERVE,), side="server",
    ),
    # server.results
    Wrapper(
        "repro.server.results:ResultManager.store", "results.store", (SERVE,),
        side="server",
        before=lambda args: args[0].write_failures, after=_file_written,
    ),
    Wrapper(
        "repro.server.results:ResultManager.page", "results.page", (SERVE,),
        side="server",
    ),
    # result (JSON encode of QueryResult)
    Wrapper(
        "repro.result:QueryResult.to_json_dict", "result.encode", (SERVE,),
        side="server",
    ),
    # client
    Wrapper(
        "repro.client:RemoteConnection._request", "client.request", (SERVE,),
        side="client",
        before=lambda args: args[0].client_retries,
        after=lambda args, result, state: {"retries": args[0].client_retries - state},
    ),
)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------


@dataclass
class Totals:
    """Per span name: calls, self seconds, wall seconds and summed counts."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    wall_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[tuple[str, str], float] = field(
        default_factory=lambda: defaultdict(float)
    )
    requests_with: dict[str, set] = field(default_factory=lambda: defaultdict(set))


def totals(spans: list[tuple], start: float, end: float) -> Totals:
    """Aggregate the spans that began inside the measured window."""
    inside = [s for s in spans if start <= s[3] <= end]
    selfs = self_times(inside)
    out = Totals()
    for sid, _parent, name, t0, t1, req, extra in inside:
        out.calls[name] += 1
        out.self_s[name] += selfs[sid]
        out.wall_s[name] += t1 - t0
        if req is not None:
            out.requests_with[name].add(req)
        for key, value in (extra or {}).items():
            out.counts[(name, key)] += value
    return out


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: its name, unit and how spans produce it."""

    name: str
    unit: str
    compute: Callable[["Totals", dict], float]


def _ms_per_op(*names):
    return lambda t, ctx: 1000 * sum(t.self_s[n] for n in names) / ctx["ops"]


def _calls_per_op(*names):
    return lambda t, ctx: sum(t.calls[n] for n in names) / ctx["ops"]


def _count_per_op(key, *names):
    return lambda t, ctx: sum(t.counts[(n, key)] for n in names) / ctx["ops"]


def _rate(key, name, base=None):
    def compute(t, ctx):
        denominator = ctx[base] if base else t.calls[name]
        return t.counts[(name, key)] / denominator if denominator else 0.0

    return compute


def _reload_frac(t, ctx):
    revisits = ctx["revisit_requests"]
    if not revisits:
        return 0.0
    reads = set()
    for name in ("flatfile.read_all", "flatfile.read_range", "flatfile.read_windows"):
        reads |= t.requests_with[name]
    return len(revisits & reads) / len(revisits)


def _client_ms(t, ctx):
    n = t.calls["client.request"]
    return 1000 * t.wall_s["client.request"] / n if n else 0.0


def _wire_ms(t, ctx):
    n = t.calls["client.request"]
    if not n:
        return 0.0
    return 1000 * (t.wall_s["client.request"] - t.wall_s["server.dispatch"]) / n


_READS = ("flatfile.read_all", "flatfile.read_range", "flatfile.read_windows")
_TOKENIZE = ("tokenize.scan", "tokenize.append", "tokenize.gather")
_LOCKS = ("locks.read", "locks.write", "locks.flight")

#: Per-layer metrics in ``BENCHMARK.json`` order.  Times are self time per
#: measured operation (``ms/op``), counts are per operation, rates are
#: shares of the calls (or appends) they describe.
LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("sql.parse_bind_ms", "ms/op", _ms_per_op("sql.parse", "sql.bind")),
    LayerMetric("engine.fingerprint_ms", "ms/op", _ms_per_op("engine.fingerprint")),
    LayerMetric("engine.unattributed_ms", "ms/op", _ms_per_op("engine.query")),
    LayerMetric("locks.wait_ms", "ms/op", _ms_per_op(*_LOCKS)),
    LayerMetric("result_cache.hit_rate", "ratio", _rate("hits", "result_cache.lookup")),
    LayerMetric("result_cache.lookup_ms", "ms/op", _ms_per_op("result_cache.lookup")),
    LayerMetric("policies.warm_serve_ms", "ms/op", _ms_per_op("policies.warm")),
    LayerMetric("policies.warm_hit_rate", "ratio", _rate("hits", "policies.warm")),
    LayerMetric("policies.provide_ms", "ms/op", _ms_per_op("policies.provide")),
    LayerMetric("loader.passes", "1/op", _calls_per_op("loader.pass")),
    LayerMetric("loader.pass_ms", "ms/op", _ms_per_op("loader.pass")),
    LayerMetric("flatfile.read_ms", "ms/op", _ms_per_op(*_READS)),
    LayerMetric("flatfile.read_calls", "1/op", _calls_per_op(*_READS)),
    LayerMetric("flatfile.bytes_read", "B/op", _count_per_op("bytes", *_READS)),
    LayerMetric("flatfile.io_retries", "1/op", _count_per_op("retries", *_READS)),
    LayerMetric("tokenize.ms", "ms/op", _ms_per_op(*_TOKENIZE)),
    LayerMetric("tokenize.fields", "1/op", _count_per_op("fields", *_TOKENIZE)),
    LayerMetric("parse.ms", "ms/op", _ms_per_op("parse.fields")),
    LayerMetric("parse.values", "1/op", _count_per_op("values", "parse.fields")),
    LayerMetric("zonemaps.skips", "1/op", _count_per_op("skips", "zonemaps.keep")),
    LayerMetric("cracking.ms", "ms/op", _ms_per_op("cracking.build", "cracking.select")),
    LayerMetric("cracking.cracks", "1/op", _count_per_op("cracks", "cracking.select")),
    LayerMetric("execute.ms", "ms/op", _ms_per_op("execute.query")),
    LayerMetric("memory.register_ms", "ms/op", _ms_per_op("memory.register")),
    LayerMetric(
        "memory.evictions", "1/op",
        _count_per_op("evictions", "memory.register", "memory.unpin"),
    ),
    LayerMetric("memory.reload_frac", "ratio", _reload_frac),
    LayerMetric("persist.save_ms", "ms/op", _ms_per_op("persist.save")),
    LayerMetric("persist.load_ms", "ms/op", _ms_per_op("persist.load")),
    LayerMetric(
        "persist.write_amp", "B/B",
        _rate("bytes_written", "persist.save", base="appended_bytes"),
    ),
    LayerMetric("persist.restore_hit_rate", "ratio", _rate("hits", "persist.load")),
    LayerMetric("append.extend_ms", "ms/op", _ms_per_op("append.extend")),
    LayerMetric("append.extend_rate", "ratio", _rate("extended", "append.extend", base="appends")),
    LayerMetric("server.dispatch_ms", "ms/op", _ms_per_op("server.dispatch")),
    LayerMetric("server.admission_wait_ms", "ms/op", _ms_per_op("server.admission")),
    LayerMetric(
        "server.rejects", "1/op", _count_per_op("OverloadedError", "server.admission")
    ),
    LayerMetric("results.store_ms", "ms/op", _ms_per_op("results.store")),
    LayerMetric("results.page_ms", "ms/op", _ms_per_op("results.page")),
    LayerMetric("results.files_written", "1/op", _count_per_op("files", "results.store")),
    LayerMetric("result.encode_ms", "ms/op", _ms_per_op("result.encode")),
    LayerMetric("client.request_ms", "ms/req", _client_ms),
    LayerMetric("client.wire_ms", "ms/req", _wire_ms),
    LayerMetric("client.retries", "1/op", _count_per_op("retries", "client.request")),
)


def layer_metrics(t: Totals, ctx: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from aggregated spans.

    ``ctx`` carries what the workload knows and spans do not: ``ops``
    (operations attempted in the window), ``appends``,
    ``appended_bytes`` and ``revisit_requests`` (request ids of planned
    revisits).
    """
    return {m.name: (float(m.compute(t, ctx)), m.unit) for m in LAYER_METRICS}


def silent_wrappers(t: Totals, workload: str) -> list[str]:
    """Wrappers expected to fire on ``workload`` that recorded no call."""
    return [
        f"{w.name} ({w.target})"
        for w in WRAPPERS
        if workload in w.must_fire and t.calls[w.name] == 0
    ]
