"""QueryResult paging and JSON wire round-trip invariants."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.result import QueryResult, _dtype_token, _encode_value


def make(nrows: int) -> QueryResult:
    return QueryResult(
        ["i", "f", "s"],
        [
            np.arange(nrows, dtype=np.int64),
            np.arange(nrows, dtype=np.float64) / 8,
            np.array([f"v{i}" for i in range(nrows)], dtype=object),
        ],
    )


class TestPaging:
    @given(nrows=st.integers(0, 50), size=st.integers(1, 60))
    def test_pages_partition_the_rows(self, nrows, size):
        result = make(nrows)
        pages = list(result.pages(size))
        assert len(pages) == result.num_pages(size) == max(1, -(-nrows // size))
        assert all(p.num_rows <= size for p in pages)
        assert [r for p in pages for r in p.rows()] == result.rows()

    def test_empty_result_has_one_empty_page(self):
        result = make(0)
        assert result.num_pages(10) == 1
        assert result.page(0, 10).num_rows == 0

    def test_page_bounds_are_checked(self):
        result = make(10)
        with pytest.raises(IndexError):
            result.page(2, 5)
        with pytest.raises(IndexError):
            result.page(-1, 5)
        with pytest.raises(ValueError):
            result.num_pages(0)

    def test_slice_rows_preserves_names_and_dtypes(self):
        sliced = make(10).slice_rows(3, 7)
        assert sliced.names == ["i", "f", "s"]
        assert sliced.num_rows == 4
        assert sliced.columns[0].dtype == np.int64
        assert list(sliced.columns[0]) == [3, 4, 5, 6]


class TestJsonRoundTrip:
    def test_exact_roundtrip_through_strict_json_text(self):
        result = make(17)
        text = json.dumps(result.to_json_dict(), allow_nan=False)
        back = QueryResult.from_json_dict(json.loads(text))
        assert back.names == result.names
        assert [c.dtype.kind for c in back.columns] == ["i", "f", "O"]
        assert back.rows() == result.rows()

    def test_nonfinite_floats_survive_as_string_sentinels(self):
        result = QueryResult(
            ["x"], [np.array([1.5, math.nan, math.inf, -math.inf])]
        )
        payload = result.to_json_dict()
        assert payload["columns"][0] == [1.5, "NaN", "Infinity", "-Infinity"]
        json.dumps(payload, allow_nan=False)  # strict JSON by construction
        back = QueryResult.from_json_dict(payload)
        assert back.columns[0][0] == 1.5
        assert math.isnan(back.columns[0][1])
        assert back.columns[0][2] == math.inf
        assert back.columns[0][3] == -math.inf

    def test_string_column_may_contain_sentinel_lookalikes(self):
        # "NaN" in a *string* column must stay a string after the trip.
        result = QueryResult(
            ["s"], [np.array(["NaN", "Infinity", "plain"], dtype=object)]
        )
        back = QueryResult.from_json_dict(result.to_json_dict())
        assert list(back.columns[0]) == ["NaN", "Infinity", "plain"]
        assert back.columns[0].dtype.kind == "O"

    def test_dtype_tokens_are_the_wire_vocabulary(self):
        payload = make(3).to_json_dict()
        assert payload["dtypes"] == ["int64", "float64", "str"]
        assert payload["num_rows"] == 3

    @given(
        ints=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=20),
        floats=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=1,
            max_size=20,
        ),
    )
    def test_property_roundtrip(self, ints, floats):
        n = min(len(ints), len(floats))
        result = QueryResult(
            ["a", "b"],
            [np.array(ints[:n], dtype=np.int64), np.array(floats[:n])],
        )
        text = json.dumps(result.to_json_dict(), allow_nan=False)
        back = QueryResult.from_json_dict(json.loads(text))
        assert back.approx_equal(result)
        assert list(back.columns[0]) == list(result.columns[0])


def _floats(dtype) -> st.SearchStrategy:
    info = np.finfo(dtype)
    edges = [
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        float(info.smallest_subnormal),
        -float(info.smallest_subnormal),
        float(info.max),
        float(info.min),
    ]
    return st.one_of(
        st.sampled_from(edges),
        st.floats(width=info.bits, allow_nan=True, allow_infinity=True),
    )


def _ints(dtype) -> st.SearchStrategy:
    info = np.iinfo(dtype)
    return st.one_of(
        st.sampled_from([int(info.min), int(info.max)]),
        st.integers(int(info.min), int(info.max)),
    )


#: Every numeric column kind the encoder's one-call path handles.
ENCODER_COLUMNS = {
    "int64": _ints(np.int64),
    "int32": _ints(np.int32),
    "uint64": _ints(np.uint64),
    "bool": st.booleans(),
    "float64": _floats(np.float64),
    "float32": _floats(np.float32),
}


@st.composite
def numeric_results(draw) -> QueryResult:
    nrows = draw(st.integers(0, 25))  # 0: empty columns
    dtypes = draw(
        st.lists(st.sampled_from(sorted(ENCODER_COLUMNS)), min_size=1, max_size=6)
    )
    columns = [
        draw(hnp.arrays(np.dtype(d), nrows, elements=ENCODER_COLUMNS[d]))
        for d in dtypes
    ]
    return QueryResult([f"c{i}" for i in range(len(columns))], columns)


def per_cell_text(result: QueryResult) -> str:
    """The wire text as built one cell at a time by ``_encode_value``."""
    return json.dumps(
        {
            "names": list(result.names),
            "dtypes": [_dtype_token(c) for c in result.columns],
            "columns": [[_encode_value(v) for v in c] for c in result.columns],
            "num_rows": result.num_rows,
        },
        allow_nan=False,
    )


class TestColumnEncoder:
    """The column-at-a-time encoder writes the per-cell encoder's bytes."""

    @given(result=numeric_results())
    def test_matches_per_cell_encoding(self, result):
        text = json.dumps(result.to_json_dict(), allow_nan=False)
        assert text == per_cell_text(result)

    def test_wire_text_is_pinned(self):
        # Both encoders must keep these exact bytes: a changed sentinel
        # or float spelling breaks every stored result and old client.
        result = QueryResult(
            ["f64", "f32", "i64", "u64", "b"],
            [
                np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1]),
                np.array([math.nan, 1e-45, -math.inf, 0.1, 3.5, 1e38], np.float32),
                np.array([-(2**63), 2**63 - 1, 0, -1, 7, 8], np.int64),
                np.array([2**64 - 1, 0, 1, 2, 3, 4], np.uint64),
                np.array([True, False, True, False, True, False]),
            ],
        )
        expected = (
            '{"names": ["f64", "f32", "i64", "u64", "b"], '
            '"dtypes": ["float64", "float64", "int64", "int64", "int64"], '
            '"columns": [["NaN", "Infinity", "-Infinity", -0.0, 5e-324, 0.1], '
            '["NaN", 1.401298464324817e-45, "-Infinity", 0.10000000149011612, '
            "3.5, 9.999999680285692e+37], "
            "[-9223372036854775808, 9223372036854775807, 0, -1, 7, 8], "
            "[18446744073709551615, 0, 1, 2, 3, 4], "
            "[true, false, true, false, true, false]], "
            '"num_rows": 6}'
        )
        assert per_cell_text(result) == expected
        assert json.dumps(result.to_json_dict(), allow_nan=False) == expected
