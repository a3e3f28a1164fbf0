"""Persistent adaptive store: round-trips, staleness, damage tolerance.

Three layers of guarantees are pinned here:

* **Serialization is lossless.**  Hypothesis drives save → load round
  trips of every serialized artifact — positional maps (byte-for-byte
  offset arrays), partition plans, widened schemas, numeric and
  object-dtype string columns including non-ASCII — against randomly
  generated state.
* **Staleness is airtight.**  The entry key is the full content-probing
  fingerprint: a same-size in-place rewrite with a forged mtime (the
  nastiest edit the engine's auto-invalidation handles) must invalidate
  the persisted entry too, across a simulated restart.
* **Damage is a miss, never an error.**  Truncated columns, garbage
  manifests and mid-write crash leftovers all restore as a plain cold
  miss.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.engine import NoDBEngine
from repro.core.partitions import Partition, PartitionIndex
from repro.flatfile.files import FileFingerprint
from repro.flatfile.positions import PositionalMap
from repro.storage.persistent import (
    PersistedState,
    PersistentStore,
    decode_strings,
    encode_strings,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _source(tmp_path, text="a,b\n1,x\n2,y\n"):
    f = tmp_path / "data.csv"
    f.write_text(text)
    return f


def _state(source, fingerprint, **overrides):
    base = dict(
        source=source,
        fingerprint=fingerprint,
        nrows=2,
        has_header=True,
        schema=[("a", "int64"), ("b", "str")],
        positional_map=PositionalMap(),
        partitions=None,
        columns={},
    )
    base.update(overrides)
    return PersistedState(**base)


def _force_stat(path, mtime_ns: int) -> None:
    st_ = os.stat(path)
    os.utime(path, ns=(st_.st_atime_ns, mtime_ns))


# ---------------------------------------------------------------------------
# property: the string codec
# ---------------------------------------------------------------------------


class TestStringCodec:
    @given(st.lists(st.text(max_size=40), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, texts):
        values = np.array(texts, dtype=object)
        offsets, blob = encode_strings(values)
        decoded = decode_strings(offsets, blob)
        assert decoded.dtype == object
        assert list(decoded) == texts

    def test_non_ascii_offsets_are_character_offsets(self):
        values = np.array(["héllo", "日本語", ""], dtype=object)
        offsets, blob = encode_strings(values)
        # character offsets: 5 + 3 + 0, while the UTF-8 blob is longer
        assert offsets.tolist() == [0, 5, 8, 8]
        assert len(blob) > 8
        assert list(decode_strings(offsets, blob)) == ["héllo", "日本語", ""]

    def test_mismatched_blob_rejected(self):
        offsets, blob = encode_strings(np.array(["ab", "cd"], dtype=object))
        with pytest.raises(ValueError):
            decode_strings(offsets, blob + b"junk")


# ---------------------------------------------------------------------------
# property: full save/load round trips
# ---------------------------------------------------------------------------

offsets_arrays = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=1, max_size=50
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestRoundTrip:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_positional_map_byte_for_byte(self, data, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pm")
        source = _source(tmp_path)
        fp = FileFingerprint.of(source)
        store = PersistentStore(tmp_path / "store")

        rows = data.draw(offsets_arrays)
        nrows = len(rows)
        pm = PositionalMap()
        pm.record_row_offsets(rows)
        ncols = data.draw(st.integers(min_value=0, max_value=4))
        for col in range(ncols):
            starts = data.draw(offsets_arrays.filter(lambda a: True))
            starts = np.resize(starts, nrows)
            ends = starts + data.draw(st.integers(min_value=0, max_value=99))
            pm.record_field_offsets(col, starts, ends)
        if data.draw(st.booleans()):
            pm.record_text_geometry(1000, 1000)

        store.save(_state(source, fp, nrows=nrows, positional_map=pm))
        restored = store.load(source, fp).state
        assert restored is not None
        rpm = restored.positional_map
        assert rpm.nrows == pm.nrows
        np.testing.assert_array_equal(rpm.row_offsets, pm.row_offsets)
        assert sorted(rpm.field_offsets) == sorted(pm.field_offsets)
        for col in pm.field_ends:
            s0, e0 = pm.slices_for(col)
            s1, e1 = rpm.slices_for(col)
            assert s1.tobytes() == s0.tobytes()  # byte-for-byte
            assert e1.tobytes() == e0.tobytes()
        assert rpm.text_geometry == pm.text_geometry

    @given(
        parts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**40),
            ),
            min_size=1,
            max_size=16,
        ),
        requested=st.integers(min_value=1, max_value=64),
        skip=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_plan(self, parts, requested, skip, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("parts")
        source = _source(tmp_path)
        fp = FileFingerprint.of(source)
        store = PersistentStore(tmp_path / "store")
        pindex = PartitionIndex(
            partitions=[
                Partition(i, min(a, b), max(a, b), skip if i == 0 else 0)
                for i, (a, b) in enumerate(parts)
            ],
            requested=requested,
            file_size=123456,
        )
        store.save(_state(source, fp, partitions=pindex))
        restored = store.load(source, fp).state.partitions
        assert restored.requested == pindex.requested
        assert restored.file_size == pindex.file_size
        assert restored.partitions == pindex.partitions

    @given(
        names=st.lists(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Lu", "Nd"), min_codepoint=48
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
            unique_by=str.lower,
        ),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_widened_schema_and_columns(self, names, data, tmp_path_factory):
        """Schema (including widened types) and column values round-trip;
        numeric columns come back memmapped, strings on the heap."""
        tmp_path = tmp_path_factory.mktemp("cols")
        source = _source(tmp_path)
        fp = FileFingerprint.of(source)
        store = PersistentStore(tmp_path / "store")

        nrows = data.draw(st.integers(min_value=1, max_value=30))
        schema, columns = [], {}
        for name in names:
            dtype = data.draw(st.sampled_from(["int64", "float64", "str"]))
            schema.append((name, dtype))
            if dtype == "int64":
                values = np.array(
                    data.draw(
                        st.lists(
                            st.integers(min_value=-(2**62), max_value=2**62),
                            min_size=nrows,
                            max_size=nrows,
                        )
                    ),
                    dtype=np.int64,
                )
            elif dtype == "float64":
                values = np.array(
                    data.draw(
                        st.lists(
                            st.floats(allow_nan=False, width=64),
                            min_size=nrows,
                            max_size=nrows,
                        )
                    ),
                    dtype=np.float64,
                )
            else:
                values = np.array(
                    data.draw(
                        st.lists(
                            st.text(max_size=15), min_size=nrows, max_size=nrows
                        )
                    ),
                    dtype=object,
                )
            columns[name] = values

        store.save(
            _state(source, fp, nrows=nrows, schema=schema, columns=columns)
        )
        restored = store.load(source, fp).state
        assert restored.schema == schema
        assert restored.nrows == nrows
        assert sorted(restored.columns) == sorted(columns)
        for name, dtype in schema:
            got = restored.columns[name]
            if dtype == "str":
                assert got.dtype == object
                assert list(got) == list(columns[name])
            else:
                assert isinstance(got, np.memmap)
                assert not got.flags.writeable
                np.testing.assert_array_equal(np.asarray(got), columns[name])


# ---------------------------------------------------------------------------
# staleness
# ---------------------------------------------------------------------------


class TestStaleness:
    def test_fingerprint_mismatch_invalidates(self, tmp_path):
        source = _source(tmp_path)
        store = PersistentStore(tmp_path / "store")
        fp = FileFingerprint.of(source)
        store.save(_state(source, fp))
        other = FileFingerprint(
            size=fp.size,
            mtime_ns=fp.mtime_ns,
            ino=fp.ino,
            head=b"\x00" * 16,
            tail=b"\x00" * 16,
        )
        outcome = store.load(source, other)
        assert outcome.state is None
        assert outcome.invalidated
        # the stale entry is gone: a re-probe is a plain miss
        again = store.load(source, other)
        assert again.state is None and not again.invalidated

    def test_forged_mtime_same_size_rewrite_across_restart(self, tmp_path):
        """The airtightness bar: rewrite in place with identical size,
        forge the mtime back, restart — the persisted entry must be
        discarded (content probe mismatch) and the fresh engine must
        answer from the new bytes."""
        f = tmp_path / "a.csv"
        f.write_text("a1\n10\n20\n30\n")
        store_dir = tmp_path / "store"
        cfg = dict(policy="column_loads", store_dir=store_dir)

        e1 = NoDBEngine(EngineConfig(**cfg))
        e1.attach("t", f)
        assert int(e1.query("select sum(a1) from t").scalar()) == 60
        e1.flush_persistent_store()
        assert e1.stats.counters.persist_writes >= 1
        e1.close()

        old = os.stat(f)
        with open(f, "r+") as fh:  # in-place: same inode, same size
            fh.write("a1\n40")
        _force_stat(f, old.st_mtime_ns)
        st_ = os.stat(f)
        assert (st_.st_size, st_.st_mtime_ns, st_.st_ino) == (
            old.st_size,
            old.st_mtime_ns,
            old.st_ino,
        )

        e2 = NoDBEngine(EngineConfig(**cfg))
        e2.attach("t", f)
        assert int(e2.query("select sum(a1) from t").scalar()) == 90
        assert e2.stats.counters.restart_warm_hits == 0
        assert e2.stats.counters.store_invalidations >= 1
        e2.close()

    def test_unchanged_file_restores_restart_warm(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("a1,a2\n" + "\n".join(f"{i},{i * 3}" for i in range(200)))
        store_dir = tmp_path / "store"
        cfg = dict(policy="column_loads", store_dir=store_dir)

        e1 = NoDBEngine(EngineConfig(**cfg))
        e1.attach("t", f)
        expect = e1.query("select sum(a1), sum(a2) from t").rows()
        e1.flush_persistent_store()
        e1.close()

        e2 = NoDBEngine(EngineConfig(**cfg))
        e2.attach("t", f)
        assert e2.query("select sum(a1), sum(a2) from t").rows() == expect
        assert e2.stats.counters.restart_warm_hits == 1
        assert e2.stats.last().file_bytes_read == 0
        assert e2.memory.mapped_bytes > 0  # columns are shared mappings
        e2.close()

    def test_restored_column_copy_on_write(self, tmp_path):
        """Mutating loads on a restored read-only memmap must copy to the
        heap, never ValueError or write through to the store file."""
        f = tmp_path / "a.csv"
        f.write_text("a1\n1\n2\n3\n")
        store_dir = tmp_path / "store"
        e1 = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store_dir))
        e1.attach("t", f)
        e1.query("select sum(a1) from t")
        e1.flush_persistent_store()
        e1.close()

        e2 = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store_dir))
        e2.attach("t", f)
        entry = e2.catalog.get("t")
        e2.query("select sum(a1) from t")
        pc = entry.table.column("a1")
        assert pc.is_mapped
        pc.store(np.array([0]), np.array([99], dtype=np.int64))
        assert not pc.is_mapped  # copied off the mapping
        assert int(pc.values[0]) == 99
        e2.close()
        # the store file still holds the original bytes
        e3 = NoDBEngine(EngineConfig(policy="column_loads", store_dir=store_dir))
        e3.attach("t", f)
        assert int(e3.query("select sum(a1) from t").scalar()) == 6
        e3.close()


# ---------------------------------------------------------------------------
# damage tolerance
# ---------------------------------------------------------------------------


class TestDamage:
    def _saved(self, tmp_path):
        source = _source(tmp_path, "a,b\n1,x\n2,y\n")
        store = PersistentStore(tmp_path / "store")
        fp = FileFingerprint.of(source)
        pm = PositionalMap()
        pm.record_row_offsets(np.array([4, 8], dtype=np.int64))
        store.save(
            _state(
                source,
                fp,
                positional_map=pm,
                columns={
                    "a": np.array([1, 2], dtype=np.int64),
                    "b": np.array(["x", "y"], dtype=object),
                },
            )
        )
        edir = store.entry_dir(source)
        assert store.load(source, fp).state is not None
        return source, store, fp, edir

    def test_truncated_column_is_a_miss(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        col = next(p for p in edir.iterdir() if p.name.startswith("col_"))
        col.write_bytes(col.read_bytes()[:-1])
        outcome = store.load(source, fp)
        assert outcome.state is None and not outcome.invalidated

    @pytest.mark.parametrize(
        "garbage", [b"\x00garbage{{{", b'["a", "list"]'], ids=["not-json", "not-object"]
    )
    def test_garbage_manifest_is_a_miss(self, tmp_path, garbage):
        source, store, fp, edir = self._saved(tmp_path)
        (edir / "manifest.json").write_bytes(garbage)
        assert store.load(source, fp).state is None

    def test_missing_posmap_file_is_a_miss(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        (edir / "pm_rows.bin").unlink()
        assert store.load(source, fp).state is None

    def test_mid_write_crash_leaves_old_entry_or_miss(self, tmp_path):
        """Simulated crash: tmp leftovers plus a missing manifest — the
        reader sees a plain miss; a later save recovers the entry."""
        source, store, fp, edir = self._saved(tmp_path)
        (edir / f".col_9.bin.{os.getpid()}.tmp").write_bytes(b"partial")
        (edir / "manifest.json").unlink()
        assert store.load(source, fp).state is None
        store.save(_state(source, fp, columns={"a": np.array([1, 2])}))
        assert store.load(source, fp).state is not None

    def test_path_tricks_in_manifest_rejected(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        manifest = json.loads((edir / "manifest.json").read_text())
        manifest["columns"]["a"]["file"] = "../../etc/passwd"
        (edir / "manifest.json").write_text(json.dumps(manifest))
        assert store.load(source, fp).state is None

    def test_clear_and_entries(self, tmp_path):
        source, store, fp, edir = self._saved(tmp_path)
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0]["nrows"] == 2
        assert store.bytes_on_disk() > 0
        assert store.clear() == 1
        assert store.entries() == []
        assert store.load(source, fp).state is None
