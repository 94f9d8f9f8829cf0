"""Arrow interop helpers shared by every pipeline.

The one rule enforced here: **no engine output block may carry pandas
schema metadata**.  ``pa.Table.from_pandas`` attaches a ``b'pandas'``
metadata blob recording the source frame's dtypes; when a column was a
pandas ``Int64`` extension array, a later ``Table.to_pandas()`` honours
that blob and reconstructs ``Int64`` instead of letting nulls degrade to
float64 the way a plain Arrow int64 column (and a DuckDB result frame)
does.  Two kernels computing byte-identical values then hash differently
purely because one was built via ``from_pandas`` and the other via
``pa.table`` — the round-3 `events_asof` red row was exactly this.

Routing every pandas→Arrow conversion through :func:`from_pandas_clean`
makes block representation a function of the VALUES alone, independent of
which construction path a kernel happened to use.

:func:`grouped_agg` is the engine's Arrow grouped aggregate, for the
combine and the per-block completion around a sort.
"""

from __future__ import annotations

import functools

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def from_pandas_clean(df: "pd.DataFrame", **kwargs) -> pa.Table:
    """``pa.Table.from_pandas`` with pandas schema metadata stripped.

    Defaults ``preserve_index=False`` (the engine never emits frame
    indexes as columns).  The returned table's ``schema.metadata`` is
    ``None`` so ``to_pandas()`` round-trips use plain Arrow dtype rules
    — nullable int64 degrades to float64 exactly like a DuckDB result.
    """
    kwargs.setdefault("preserve_index", False)
    return pa.Table.from_pandas(df, **kwargs).replace_schema_metadata(None)


def grouped_agg(table: pa.Table, keys: list[str],
                aggs: list[tuple[str, str]]) -> pa.Table:
    """One grouped aggregate over an Arrow table: ``keys`` then one
    column per ``(column, func)`` in ``aggs``, named after ``column``
    (no ``_sum``/``_min`` suffix), so the output of a partial-row input
    has the input's own schema and the call can run again on it.

    ``func`` must be order-free (sum, min, max, count): the engine
    calls this batch-locally before a sort and per sorted block after
    it, and any block split must give the same answer.  Strings
    compare in binary (code point) order, as Python and DuckDB do.
    ``use_threads=False`` keeps the output row order a function of the
    input alone.

    Null-key rule: rows with a null in any key column are dropped, as
    pandas ``groupby(dropna=True)`` drops them; Arrow alone would keep
    them as a group."""
    valid = [pc.is_valid(table.column(k)) for k in keys
             if table.column(k).null_count]
    if valid:
        table = table.filter(functools.reduce(pc.and_, valid))
    out = table.group_by(keys, use_threads=False).aggregate(aggs)
    return pa.table([out.column(k) for k in keys]
                    + [out.column(f"{c}_{f}") for c, f in aggs],
                    names=list(keys) + [c for c, _ in aggs])


def coalesced_sort(ds, key, *, descending=False,
                   target_block_bytes: int = 64 << 20):
    """``Dataset.sort`` with volume-proportional exchange width.

    Ray's range-partition sort schedules O(in_blocks × out_blocks)
    exchange tasks, so an input over-sharded by the read (64 shard
    files → 64 blocks at sf0.1) pays seconds of pure task scheduling
    to sort megabytes: measured here, a 9 MB / 260k-row postings sort
    took 1.55 s at 64 blocks and 0.21 s after coalescing to 32.  This
    helper materializes the input (sort is a full barrier anyway, so
    no streaming is lost), sizes the block count to the ACTUAL bytes
    (``ceil(size / target_block_bytes)``, floored at the cluster CPU
    count for downstream per-block parallelism, capped at the current
    block count — never repartition UP), and sorts.  At 100 TB blocks
    already exceed the target so the coalesce is a no-op; it only
    compensates for small inputs split into kilobyte blocks.

    Output semantics are identical to ``ds.sort(key)``: range
    partitioning still never splits equal keys across blocks (the
    per-block-completion invariant every combine-sort-combine
    operator relies on), and all operators are block-split-invariance
    tested, so results are bit-identical.
    """
    import ray

    m = ds.materialize()
    nb = m.num_blocks()
    want = max(1, -(-m.size_bytes() // target_block_bytes))
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # pragma: no cover - resources always present
        cpus = 8
    want = min(nb, max(want, cpus))
    if want < nb:
        m = m.repartition(want)
    return m.sort(key, descending=descending)
