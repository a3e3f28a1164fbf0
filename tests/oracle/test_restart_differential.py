"""Restart-and-edit differential oracle: on-disk state never outlives its file.

Everything the engine writes to disk — persistent-store entries, split
files — is derived from a source file's bytes, so it must be keyed by
that file's fingerprint.  The oracle states that end to end: engine A
answers a workload, flushes its store and closes; the file is then
changed while no engine runs; engine B, pointed at the same
``store_dir`` and ``splitfile_dir``, must answer exactly what the
re-reading :class:`~repro.baselines.csv_engine.CSVEngine` answers on the
changed file.  Every policy meets every kind of change: a same-size
in-place edit, an atomic ``os.replace``, a tail append, a truncation,
and a different file under the same name.
"""

from __future__ import annotations

import os

import pytest

from harness import make_workload, normalize, oracle_results

from repro import EngineConfig, NoDBEngine
from repro.config import POLICIES


def _render(rows: list[tuple]) -> bytes:
    return "".join(",".join(map(str, row)) + "\n" for row in rows).encode()


#: a1 int (predicate column), a2 float with a NaN, a3 string.
BASE_ROWS = [
    (i + 1, "nan" if i == 7 else (i * 37 % 50) / 4, f"v{'bcdg'[i % 4]}{i}")
    for i in range(40)
]
MIDDLE = len(BASE_ROWS) // 2


def _edit_in_place(path):
    """Same size, same inode: overwrite one middle row's a1 digits."""
    old = BASE_ROWS[MIDDLE]
    new = (99, *old[1:])  # "21" -> "99"
    data = _render(BASE_ROWS[:MIDDLE] + [new] + BASE_ROWS[MIDDLE + 1 :])
    assert len(data) == path.stat().st_size
    with open(path, "r+b") as fh:
        fh.write(data)


def _replace(path):
    """Atomic rename of new content over the old name (new inode)."""
    tmp = path.with_name(path.name + ".new")
    tmp.write_bytes(_render([(a1 * 100, a2, a3) for a1, a2, a3 in BASE_ROWS]))
    os.replace(tmp, path)


def _append(path):
    """Pure tail append: restart-warm state is extended, not thrown away."""
    with open(path, "ab") as fh:
        fh.write(_render([(1000 + i, i / 8, f"vz{i}") for i in range(9)]))


def _truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(len(_render(BASE_ROWS[:13])))


def _swap(path):
    """A different file under the same name: other rows, other a2 type."""
    path.unlink()
    path.write_bytes(_render([(7 - i, i * 3, f"vq{i}") for i in range(6)]))


MUTATIONS = {
    "edit_in_place": _edit_in_place,
    "replace": _replace,
    "append": _append,
    "truncate": _truncate,
    "swap": _swap,
}

COLUMNS = [list(col) for col in zip(*BASE_ROWS)]
QUERIES = make_workload(COLUMNS, bounds=(5, 30)) + [
    "select sum(a1), avg(a2), count(*) from t",
    "select min(a3), max(a1) from t where a1 >= 20",
]


def _answers(engine, path) -> list[list[tuple]]:
    engine.attach("t", path)
    try:
        return [normalize(engine.query(q)) for q in QUERIES]
    finally:
        engine.close()


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("policy", POLICIES)
def test_restart_after_offline_change_matches_oracle(tmp_path, policy, mutation):
    path = tmp_path / "t.csv"
    path.write_bytes(_render(BASE_ROWS))
    dirs = {"store_dir": tmp_path / "store", "splitfile_dir": tmp_path / "splits"}

    engine_a = NoDBEngine(EngineConfig(policy=policy, **dirs))
    engine_a.attach("t", path)
    before = [normalize(engine_a.query(q)) for q in QUERIES]
    engine_a.flush_persistent_store()
    engine_a.close()
    assert before == oracle_results(path, {}, QUERIES)

    MUTATIONS[mutation](path)
    expected = oracle_results(path, {}, QUERIES)
    assert expected != before, "the mutation must change some answer"

    got = _answers(NoDBEngine(EngineConfig(policy=policy, **dirs)), path)
    for i, (query, want, have) in enumerate(zip(QUERIES, expected, got)):
        assert have == want, (
            f"policy={policy} mutation={mutation} query#{i} {query!r}: "
            f"engine {have!r} != oracle {want!r}"
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_unchanged_file_restarts_warm_and_correct(tmp_path, policy):
    """The control: with no change in between, engine B must restore
    from the store (caching policies) and still match the oracle."""
    path = tmp_path / "t.csv"
    path.write_bytes(_render(BASE_ROWS))
    dirs = {"store_dir": tmp_path / "store", "splitfile_dir": tmp_path / "splits"}
    engine_a = NoDBEngine(EngineConfig(policy=policy, **dirs))
    engine_a.attach("t", path)
    for q in QUERIES:
        engine_a.query(q)
    engine_a.flush_persistent_store()
    engine_a.close()

    engine_b = NoDBEngine(EngineConfig(policy=policy, **dirs))
    got = _answers(engine_b, path)
    assert got == oracle_results(path, {}, QUERIES)
    assert engine_b.stats.counters.restart_warm_hits >= 1
