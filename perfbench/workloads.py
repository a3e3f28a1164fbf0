"""Seeded inputs of the three workloads and the NumPy reference answers.

Everything a workload sends to the engine is made here from ``--seed``:
the integer table, its CSV text, the rows appended later and the SQL of
every operation.  The engine sees only the files and the SQL; the
reference answers are computed from the same NumPy arrays, outside any
timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's data."""

    rows: int  # rows in the base file
    cols: int
    high: int  # values are uniform integers in [0, high)
    chunk: int  # rows per append (0.5% of the base)
    chunks: int  # appended chunks the workload may use


EXPLORE_SHAPE = Shape(rows=200_000, cols=12, high=100_000, chunk=1_000, chunks=3)
SERVE_SHAPE = Shape(rows=100_000, cols=6, high=1_000_000_000, chunk=500, chunks=3)
GROW_SHAPE = Shape(rows=200_000, cols=6, high=1_000_000_000, chunk=1_000, chunks=20)
SHAPES = {"explore": EXPLORE_SHAPE, "serve": SERVE_SHAPE, "grow": GROW_SHAPE}

#: Memory budget of every explore engine: below the ~19 MB the twelve
#: columns take as int64, so a session evicts and reloads.
EXPLORE_BUDGET = 8_000_000
#: Explore: each pair's selectivities (in seeded order), and the pairs
#: after which the pair four back is revisited.
EXPLORE_SELECTIVITIES = (0.001, 0.01, 0.1, 0.5, 0.01, 0.1)
EXPLORE_REVISIT_AFTER = (4, 6, 8, 10)
#: Grow: appends per session, and a fresh engine every this many.
GROW_CYCLES = 20
GROW_RESTART_EVERY = 5
GROW_READS = 3
#: Serve: the traffic mix (shares of tiles and ad-hoc aggregates; the rest
#: are paged projections), dashboard tiles, operations per client
#: connection, and the projection page size.
SERVE_TILE_SHARE = 0.5
SERVE_ADHOC_SHARE = 0.4
SERVE_TILES = 8
SERVE_SESSION_OPS = 50
SERVE_PAGE_ROWS = 1_000
SERVE_PROJECTION_ROWS = 2_500


def make_data(shape: Shape, seed: int) -> np.ndarray:
    """Base rows followed by every appendable chunk, as one int64 array."""
    rng = np.random.default_rng([seed, shape.rows, shape.cols])
    total = shape.rows + shape.chunk * shape.chunks
    return rng.integers(0, shape.high, size=(total, shape.cols), dtype=np.int64)


def csv_text(rows: np.ndarray) -> str:
    """Headerless CSV; the engine names the columns ``a1..aN``."""
    return "\n".join(",".join(map(str, r)) for r in rows.tolist()) + "\n"


def chunk_rows(shape: Shape, k: int) -> tuple[int, int]:
    """Row range of appended chunk ``k`` inside the :func:`make_data` array."""
    start = shape.rows + k * shape.chunk
    return start, start + shape.chunk


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def agg_op(op_id: int, kind: str, x: int, y: int, lo: int, hi: int, rows: int) -> dict:
    """A Q2-style aggregate: filter on ``a{x}``, aggregate ``a{y}``.

    ``rows`` is how many rows of the data array the file holds when the
    operation runs (appends grow it).
    """
    sql = (
        f"select sum(a{y}), avg(a{y}), count(*) from t "
        f"where a{x} >= {lo} and a{x} < {hi}"
    )
    return {"id": op_id, "kind": kind, "shape": "agg", "sql": sql,
            "x": x, "y": y, "lo": lo, "hi": hi, "rows": rows}


def sums_op(op_id: int, kind: str, x: int, lo: int, hi: int, rows: int, cols: int) -> dict:
    """Sum every column over a range of ``a{x}``: loads the whole table."""
    sums = ", ".join(f"sum(a{c})" for c in range(1, cols + 1))
    sql = f"select {sums}, count(*) from t where a{x} >= {lo} and a{x} < {hi}"
    return {"id": op_id, "kind": kind, "shape": "sums", "sql": sql,
            "x": x, "y": 0, "lo": lo, "hi": hi, "rows": rows, "cols": cols}


def proj_op(op_id: int, x: int, lo: int, hi: int, rows: int) -> dict:
    """A paged projection of three columns over a narrow range of ``a{x}``."""
    sql = f"select a1, a2, a3 from t where a{x} >= {lo} and a{x} < {hi}"
    return {"id": op_id, "kind": "proj", "shape": "proj", "sql": sql,
            "x": x, "y": 0, "lo": lo, "hi": hi, "rows": rows}


def _range(rng: np.random.Generator, high: int, selectivity: float) -> tuple[int, int]:
    width = max(1, int(high * selectivity))
    lo = int(rng.integers(0, high - width))
    return lo, lo + width


def op_columns(op: dict) -> set[int]:
    if op["shape"] == "proj":
        return {1, 2, 3, op["x"]}
    if op["shape"] == "sums":
        return set(range(1, op["cols"] + 1))
    return {op["x"], op["y"]}


def mark_first_touches(ops: list[dict], named: set[int] | None = None) -> set[int]:
    """Flag ops naming a column no earlier op of the same engine named.

    The classification comes from the plan, never from engine counters.
    Returns the set of columns named so far, so callers can continue it.
    """
    named = set() if named is None else named
    for op in ops:
        cols = op_columns(op)
        op["touch"] = not cols <= named
        named |= cols
    return named


def explore_plan(seed: int) -> dict:
    """One analyst session and the set-up's append probes.

    The column pair drifts ``(a1,a2) -> (a2,a3) -> ...``, so each pair's
    first query brings one never-loaded column; each pair gets six
    queries at selectivities from {0.1%, 1%, 10%, 50%}, and after pairs
    4, 6, 8 and 10 the pair four back is revisited.  The seed draws the
    range constants and the order of each pair's selectivities; which
    columns are named when is fixed.  Which columns are resident decides
    whether a load re-tokenizes the whole file or reads only the known
    field ranges, so a seeded column schedule would make the work, not
    just the constants, depend on the seed.
    """
    shape = EXPLORE_SHAPE
    rng = np.random.default_rng([seed, 1])
    rows = shape.rows + shape.chunk * shape.chunks
    ops: list[dict] = []
    for p in range(shape.cols - 1):
        x, y = p + 1, p + 2
        for r, sel in enumerate(rng.permutation(EXPLORE_SELECTIVITIES)):
            lo, hi = _range(rng, shape.high, float(sel))
            ops.append(agg_op(len(ops), "first" if r == 0 else "repeat", x, y, lo, hi, rows))
        if p in EXPLORE_REVISIT_AFTER:
            q = p - 4
            lo, hi = _range(rng, shape.high, 0.01)
            ops.append(agg_op(len(ops), "revisit", q + 1, q + 2, lo, hi, rows))
    mark_first_touches(ops)
    setup = _append_probes(shape, rng, base_id=len(ops))
    return {"session": ops, "setup": setup}


def _append_probes(shape: Shape, rng, base_id: int) -> list[dict]:
    """Set-up operations: one cold query, then an append + query per chunk."""
    ops = [agg_op(base_id, "cold", 1, 2, *_range(rng, shape.high, 0.1), shape.rows)]
    for k in range(shape.chunks):
        lo, hi = _range(rng, shape.high, 0.1)
        ops.append(
            agg_op(base_id + 1 + k, "append", 1, 2, lo, hi, shape.rows + (k + 1) * shape.chunk)
        )
    return ops


def grow_plan(seed: int) -> dict:
    """One grow session: a cold open, then appends, queries and restarts.

    Each cycle appends one chunk (0.5% of the base rows), runs the
    post-append query and three plain reads; after every fifth cycle the
    engine is closed and a fresh one opened on the same store, whose
    first query sums every column.  Every session starts again from the
    base file and an empty store, so the file never outgrows the stated
    size.
    """
    shape = GROW_SHAPE
    rng = np.random.default_rng([seed, 3])
    ops: list[dict] = []

    def pair():
        x, y = rng.choice(np.arange(1, shape.cols + 1), size=2, replace=False)
        return int(x), int(y)

    ops.append(
        sums_op(0, "open", pair()[0], *_range(rng, shape.high, 0.5), shape.rows, shape.cols)
    )
    cycles = []
    for c in range(GROW_CYCLES):
        rows = shape.rows + (c + 1) * shape.chunk
        cycle = {"chunk": c}
        cycle["append"] = agg_op(len(ops), "append", *pair(), *_range(rng, shape.high, 0.1), rows)
        ops.append(cycle["append"])
        cycle["reads"] = []
        for _ in range(GROW_READS):
            op = agg_op(len(ops), "read", *pair(), *_range(rng, shape.high, 0.01), rows)
            cycle["reads"].append(op)
            ops.append(op)
        restart = (c + 1) % GROW_RESTART_EVERY == 0 and c + 1 < GROW_CYCLES
        cycle["restart"] = None
        if restart:
            # Over every column, like the open: a fresh engine restores the
            # whole table from the store, the same work whatever the seed.
            op = sums_op(
                len(ops), "restart", pair()[0], *_range(rng, shape.high, 0.5), rows, shape.cols
            )
            cycle["restart"] = op
            ops.append(op)
        cycles.append(cycle)
    # First touches restart counting with every fresh engine.
    named: set[int] = set()
    for op in ops:
        if op["kind"] == "restart":
            named = set()
        mark_first_touches([op], named)
    setup = [
        sums_op(len(ops), "cold", pair()[0], *_range(rng, shape.high, 0.5), shape.rows, shape.cols)
    ]
    return {"open": ops[0], "cycles": cycles, "setup": setup, "ops": ops}


class ServeMix:
    """The seeded request stream of one serve client.

    Both clients draw tiles from the same fixed set (``tiles``), so
    those repeat and hit the server's result cache; ad-hoc aggregates
    and projections take fresh constants and miss it.
    """

    def __init__(self, seed: int, client: int, tiles: list[dict], rows: int) -> None:
        self.rng = np.random.default_rng([seed, 2, client])
        self.tiles = tiles
        self.rows = rows
        self.next_id = (client + 1) * 1_000_000

    def next(self, tile: bool = False) -> dict:
        """The next request; ``tile=True`` forces a dashboard tile."""
        shape = SERVE_SHAPE
        rng = self.rng
        u = 0.0 if tile else rng.random()
        op_id = self.next_id
        self.next_id += 1
        if u < SERVE_TILE_SHARE:
            pick = self.tiles[int(rng.integers(len(self.tiles)))]
            return dict(pick, id=op_id, tile=pick["id"])
        x = int(rng.integers(1, shape.cols + 1))
        if u < SERVE_TILE_SHARE + SERVE_ADHOC_SHARE:
            y = int(rng.integers(1, shape.cols + 1))
            lo, hi = _range(rng, shape.high, 0.01)
            return agg_op(op_id, "adhoc", x, y, lo, hi, self.rows)
        lo, hi = _range(rng, shape.high, SERVE_PROJECTION_ROWS / shape.rows)
        return proj_op(op_id, x, lo, hi, self.rows)


def serve_plan(seed: int) -> dict:
    """Warm-up (one first touch per column), append probes and tiles."""
    shape = SERVE_SHAPE
    rng = np.random.default_rng([seed, 2])
    rows = shape.rows
    warm = []
    for col in range(1, shape.cols + 1):
        warm.append(agg_op(10 + col, "warm", col, col, *_range(rng, shape.high, 0.5), rows))
    mark_first_touches(warm)
    appends = _append_probes(shape, rng, base_id=100)[1:]
    final_rows = shape.rows + shape.chunks * shape.chunk
    tiles = [
        agg_op(200 + i, "tile", int(rng.integers(1, shape.cols + 1)),
               int(rng.integers(1, shape.cols + 1)),
               *_range(rng, shape.high, float(rng.choice([0.05, 0.2, 0.5]))), final_rows)
        for i in range(SERVE_TILES)
    ]
    return {"warm": warm, "appends": appends, "tiles": tiles, "rows": final_rows}


# ---------------------------------------------------------------------------
# reference answers
# ---------------------------------------------------------------------------


def reference(op: dict, data: np.ndarray):
    """The answer NumPy gives for ``op`` on the rows the file held."""
    view = data[: op["rows"]]
    xs = view[:, op["x"] - 1]
    mask = (xs >= op["lo"]) & (xs < op["hi"])
    if op["shape"] == "proj":
        return view[mask][:, :3]
    if op["shape"] == "sums":
        count = int(mask.sum())
        return [int(s) if count else None for s in view[mask].sum(axis=0)] + [count]
    ys = view[mask, op["y"] - 1]
    count = int(mask.sum())
    avg = float(ys.mean()) if count else None
    return [int(ys.sum()) if count else None, avg, count]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)


def matches(op: dict, answer, expected) -> bool:
    """Compare an engine answer with the reference.

    Aggregates compare value by value (``avg`` within 1e-9 relative);
    projections compare as row multisets, since SQL gives no row order
    without ``order by``.
    """
    if op["shape"] == "proj":
        got = np.asarray(answer, dtype=np.int64).reshape(-1, 3)
        if got.shape != expected.shape:
            return False
        return bool(
            np.array_equal(got[np.lexsort(got.T[::-1])], expected[np.lexsort(expected.T[::-1])])
        )
    return len(answer) == len(expected) and all(
        _close(a, b) for a, b in zip(answer, expected)
    )
