"""``arrowutil.sorted_runs`` and its run ops against pandas: ``run_pos``
is ``groupby(...).cumcount()``, ``run_cumsum`` ``cumsum()``,
``run_cummax`` ``cummax()``, ``run_lag`` ``shift()`` and ``run_first``
``transform("first")``, over rows sorted by (key, value).  Null keys
drop (pandas ``dropna=True``), one-row runs and INT64 extremes hold,
and an empty table gives empty arrays.  Pure kernels, no Ray."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from clinicaltransformerner_ray.arrowutil import (
    run_cummax, run_cumsum, run_first, run_id, run_lag, run_pos,
    sorted_runs)

I64 = np.iinfo(np.int64)

_rows = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(-3, 3)),
    st.one_of(st.sampled_from([int(I64.min), int(I64.max), 0]),
              st.integers(-10**6, 10**6))), max_size=60)


def _pandas(rows) -> pd.DataFrame:
    """The reference: non-null keys, sorted by (key, value)."""
    df = pd.DataFrame(rows, columns=["k", "v"]).dropna(subset=["k"])
    return df.astype({"k": "int64", "v": "int64"}).sort_values(
        ["k", "v"], kind="stable").reset_index(drop=True)


@settings(max_examples=200, deadline=None)
@given(rows=_rows)
def test_run_ops_equal_pandas_groupby(rows):
    t = pa.table({"k": pa.array([k for k, _ in rows], pa.int64()),
                  "v": pa.array([v for _, v in rows], pa.int64())})
    s, start = sorted_runs(t, ["k"], [("v", "ascending")])
    ref = _pandas(rows)
    assert s.column("k").to_pylist() == ref["k"].tolist()
    v = s.column("v").to_numpy(zero_copy_only=False)
    assert v.tolist() == ref["v"].tolist()
    g = ref.groupby("k", sort=False)["v"]
    assert start.tolist() == (g.cumcount() == 0).tolist()
    assert run_pos(start).tolist() == g.cumcount().tolist()
    assert run_id(start).tolist() == ref.groupby("k").ngroup().tolist()
    assert run_first(start, v).tolist() == g.transform("first").tolist()
    # pandas sums int64 with the same two's-complement wrap as numpy
    with np.errstate(over="ignore"):
        assert run_cumsum(start, v).tolist() == g.cumsum().tolist()
    # cummax over values in reverse run order, so the max moves
    w = v[::-1].copy()
    ref_w = pd.Series(w).groupby(ref["k"].to_numpy()).cummax()
    assert run_cummax(start, w).tolist() == ref_w.tolist()
    assert run_lag(start, v, 0).tolist() == g.shift(fill_value=0).tolist()


def test_one_row_runs_and_extremes():
    t = pa.table({"k": pa.array([3, 1, 2], pa.int64()),
                  "v": pa.array([int(I64.max), int(I64.min), -1], pa.int64())})
    s, start = sorted_runs(t, ["k"])
    assert start.tolist() == [True, True, True]
    v = s.column("v").to_numpy()
    assert run_pos(start).tolist() == [0, 0, 0]
    assert run_cumsum(start, v).tolist() == v.tolist()
    assert run_cummax(start, v).tolist() == v.tolist()
    assert run_lag(start, v, 5).tolist() == [5, 5, 5]
    # INT64_MIN then INT64_MAX in one run: the reset needs no sentinel
    start = np.array([True, False, True, False])
    w = np.array([I64.min, I64.max, I64.max, I64.min])
    assert run_cummax(start, w).tolist() == [I64.min, I64.max,
                                             I64.max, I64.max]


def test_null_keys_and_descending_order():
    t = pa.table({"a": pa.array(["x", None, "x", "y"]),
                  "b": pa.array([1, 1, None, 2], pa.int64()),
                  "v": pa.array([1, 2, 3, 4], pa.int64())})
    s, start = sorted_runs(t, ["a", "b"], [("v", "descending")])
    assert s.column("v").to_pylist() == [1, 4]
    assert start.tolist() == [True, True]
    s, start = sorted_runs(t, ["a"], [("v", "descending")])
    assert s.column("v").to_pylist() == [3, 1, 4]
    assert start.tolist() == [True, False, True]


def test_no_keys_is_one_run_and_empty_input():
    t = pa.table({"v": pa.array([2, 1], pa.int64())})
    s, start = sorted_runs(t, [], [("v", "ascending")])
    assert start.tolist() == [True, False]
    assert run_cumsum(start, s.column("v").to_numpy()).tolist() == [1, 3]
    s, start = sorted_runs(t.slice(0, 0), ["v"])
    e = np.empty(0, np.int64)
    assert s.num_rows == 0 and len(start) == 0
    for op in (run_cummax, run_cumsum, run_first):
        assert len(op(start, e)) == 0
    assert len(run_pos(start)) == 0 and len(run_lag(start, e, 0)) == 0
