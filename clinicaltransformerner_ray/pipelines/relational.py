"""Relational pipelines over the TPC-H-shaped side tables.

  pricing_summary    Q1-shaped scan + wide aggregate over `lineitem`
  revenue_by_nation  Q5-shaped multi-join: lineitem ⋈ orders ⋈
                     customer (two sort-merge co-partition joins, the
                     fact side pre-aggregated BEFORE each shuffle)
                     ⋈ nation ⋈ region (driver-side broadcast of the
                     fixed-25/5-row dimensions)
  customers_without_orders  distributed anti-join (NOT EXISTS shape):
                     per-batch distinct-key reduction of the probe
                     side, then the same union/sort/per-block pattern
  top_orders_per_customer  grouped top-k (window row_number() <= k):
                     per-batch local top-k partials, one sort on the
                     group key, vectorized per-block final rank
  promo_revenue_by_month  Q14-shaped promo report: fact pre-aggregated
                     per (partkey, month), ONE co-partition join with
                     part (which scales with SF — never broadcast),
                     month-bounded driver fold
  top_unshipped_orders  Q3-shaped top-10: segment semi-join, orderkey
                     co-partition join, per-block local top-k partials
  revenue_by_supplier_nation  supply-side revenue per supplier nation
                     (covers the supplier table; fixed-25 driver fold)
  order_priority_counts  Q4-shaped EXISTS semi-join aggregate: probe
                     side reduced to distinct qualifying orderkeys per
                     batch, per-block semi-merge, tiny count finish
  revenue_rollup     GROUP BY ROLLUP in one shuffle: per-block merge
                     emits every group row at all three hierarchy
                     levels ('ALL' sentinel), facts never re-scanned

Join strategy: `ray.data.Dataset.join` is unusable at 2.49 (see
CLAUDE.md rule 5), so equi-joins are expressed as union of both sides
onto a superset schema with a `kind` tag → one `sort` on the join key
→ per-block pandas merge (Ray's range partitioner never splits equal
keys across blocks).  The shuffle volume is the PRE-AGGREGATED fact
side: revenue partials per orderkey, then per custkey — never raw
lineitem rows twice.

Exactness: money is integer cents (the synth's doubles are
cent-integral; `round` half-away recovers them exactly on both
engines), so every SUM is int64 — the repo's integer-derivation
invariant — and the avg_* columns divide exact int64 sums in float64,
bit-identical across engines.  revenue_e4 = cents * (100 - disc_pct)
keeps per-row magnitude ~1e11; the int64 headroom bounds a single
GROUP's summed revenue at ~9e18 ≈ $900T — fine for any real partition,
noted here because a planet-scale single-group sum would need a
two-level (e.g. per-shard then HUGEINT) finish.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from clinicaltransformerner_ray.arrowutil import (
    grouped_topk, keyed_complete, topk_complete)
from clinicaltransformerner_ray.pipelines.events import _round_half_away

_US_PER_DAY = 86_400_000_000

#: supplier rows at or below which ``top_supplier`` folds its per-supplier
#: revenue on the driver (zero wide ops); above it, the sorted chain
TOP_SUPPLIER_FOLD_ROWS = 1 << 20

#: surviving dimension keys at or below which ``market_share`` broadcasts
#: them (zero wide ops); above it, the 3-hop co-partition sort chain
MARKET_SHARE_FOLD_KEYS = 1 << 22


def _ts_us(iso_date: str) -> int:
    return int(pd.Timestamp(iso_date).value // 1000)


def _rev_e4(df: pd.DataFrame) -> np.ndarray:
    """THE discounted-revenue kernel: cents * (100 - disc_pct), both
    recovered exactly from the cent-integral doubles via half-away
    rounding.  Single shared definition — four join pipelines derive
    their integer sums from it, so the exactness rule cannot drift."""
    price_c = _round_half_away(df["l_extendedprice"].to_numpy() * 100)
    disc = _round_half_away(df["l_discount"].to_numpy() * 100)
    return price_c * (100 - disc)


def pricing_summary(
    lineitem: rd.Dataset,
    *,
    ship_cutoff: str = "2000-09-02",
) -> rd.Dataset:
    """TPC-H Q1-shaped pricing summary: per (l_returnflag,
    l_linestatus), integer-exact sums of quantity / base price /
    discounted price / charge plus float averages derived from them.

    One combine per block (6 groups -> ~6 rows per block), then one
    ``keyed_complete`` on the key that combines and finishes the
    partials (a fold on the driver under the cap: a range Sort on ~4
    key values would leave most partitions empty and schema-less);
    reads only the 7 columns it needs (callers pass ``columns=`` at
    the read)."""
    cutoff = _ts_us(ship_cutoff)

    sums = ["sum_qty", "sum_base_price_cents", "sum_disc_price_e4",
            "sum_charge_e6", "sum_disc_pct", "count_order"]

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "sum_qty" not in df.columns:
            keep = df["l_shipdate"].astype("int64").to_numpy() <= cutoff
            df = df[keep]
            qty = _round_half_away(df["l_quantity"].to_numpy())
            price_c = _round_half_away(
                df["l_extendedprice"].to_numpy() * 100)
            disc = _round_half_away(df["l_discount"].to_numpy() * 100)
            tax = _round_half_away(df["l_tax"].to_numpy() * 100)
            df = pd.DataFrame({
                "l_returnflag": df["l_returnflag"].to_numpy(),
                "l_linestatus": df["l_linestatus"].to_numpy(),
                "sum_qty": qty,
                "sum_base_price_cents": price_c,
                "sum_disc_price_e4": price_c * (100 - disc),
                "sum_charge_e6": price_c * (100 - disc) * (100 + tax),
                "sum_disc_pct": disc,
                "count_order": np.ones(len(qty), np.int64),
            })
        g = (df.groupby(["l_returnflag", "l_linestatus"], sort=False)
             [sums].sum().reset_index())
        # explicit types: an empty block must not infer Arrow `null`
        # for the string keys (breaks the sort schema)
        return pa.table({
            "l_returnflag": pa.array(g["l_returnflag"].tolist(),
                                     pa.string()),
            "l_linestatus": pa.array(g["l_linestatus"].tolist(),
                                     pa.string()),
            **{c: pa.array(np.asarray(g[c], np.int64), pa.int64())
               for c in sums},
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cnt = np.maximum(df["count_order"].to_numpy(), 1)
        out = {
            "l_returnflag": pa.array(df["l_returnflag"].tolist(),
                                     pa.string()),
            "l_linestatus": pa.array(df["l_linestatus"].tolist(),
                                     pa.string()),
        }
        for c in sums:
            if c != "sum_disc_pct":
                out[c] = pa.array(np.asarray(df[c], np.int64),
                                  pa.int64())
        out["avg_qty"] = pa.array(
            df["sum_qty"].to_numpy() / cnt, pa.float64())
        out["avg_price_cents"] = pa.array(
            df["sum_base_price_cents"].to_numpy() / cnt, pa.float64())
        out["avg_disc_pct"] = pa.array(
            df["sum_disc_pct"].to_numpy() / cnt, pa.float64())
        return pa.table(out)

    # first combine: batch_size=None = one batch per BLOCK.  A fixed
    # 512k batch coalesced bench-scale inputs (sf0.1 = 600k rows, 64
    # read blocks) into 1-2 tasks, starving 31 CPUs for ~9 s; per-block
    # batches keep task count = block count at every scale, and the
    # combine output (~6 rows/task) stays trivial for the shuffle.
    return keyed_complete(
        lineitem.map_batches(combine, batch_format="pyarrow",
                             batch_size=None),
        ["l_returnflag", "l_linestatus"], lambda t: finish(combine(t)),
        op="pricing_summary")


def customers_without_orders(
    customer: rd.Dataset,
    orders: rd.Dataset,
    *,
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
) -> rd.Dataset:
    """Distributed ANTI-join: customers with NO order inside the date
    window (completing the join family: inner = revenue_by_nation,
    as-of/range = events.py, anti = here).

    Shape: orders reduce to DISTINCT custkeys per batch before the
    shuffle (the all-to-all moves at most one row per custkey per
    batch, never the orders), union with the customer side, one sort
    on custkey, per-block anti-merge (equal keys land whole, so a
    customer and all evidence of their orders meet in one block).

    Output: (c_custkey, c_nationkey)."""
    lo = _ts_us(date_from)
    hi = _ts_us(date_to)

    def o_keys(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts = df["o_orderdate"].astype("int64").to_numpy()
        keys = np.unique(df["o_custkey"].to_numpy()[(ts >= lo)
                                                    & (ts < hi)])
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "kind": pa.array(["o"] * len(keys), pa.string()),
            "nationkey": pa.array(np.zeros(len(keys), np.int64),
                                  pa.int64()),
        })

    def c_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "key": pa.array(np.asarray(df["c_custkey"], np.int64),
                            pa.int64()),
            "kind": pa.array(["c"] * len(df), pa.string()),
            "nationkey": pa.array(
                np.asarray(df["c_nationkey"], np.int64), pa.int64()),
        })

    def anti(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        has_order = set(df.loc[df["kind"] == "o", "key"])
        c = df[df["kind"] == "c"]
        c = c[~c["key"].isin(has_order)]
        return pa.table({
            "c_custkey": pa.array(np.asarray(c["key"], np.int64),
                                  pa.int64()),
            "c_nationkey": pa.array(
                np.asarray(c["nationkey"], np.int64), pa.int64()),
        })

    return (
        orders.map_batches(o_keys, batch_format="pyarrow",
                           batch_size=1 << 19)
        .union(customer.map_batches(c_rows, batch_format="pyarrow",
                                    batch_size=1 << 19))
        .sort("key")
        .map_batches(anti, batch_format="pyarrow", batch_size=None)
    )


def _nation_region_map(sf_dir: str) -> dict[int, tuple[str, str]]:
    """Driver-side broadcast build of the fixed-size dimension join:
    nationkey -> (n_name, r_name).  25 + 5 rows — the canonical
    small-side broadcast instead of a shuffle join."""
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    rname = dict(zip(region["r_regionkey"], region["r_name"]))
    return {int(r.n_nationkey): (r.n_name, rname[r.n_regionkey])
            for r in nation.itertuples()}


def revenue_by_nation(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    nation_map: dict[int, tuple[str, str]],
    *,
    region: str = "ASIA",
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
) -> rd.Dataset:
    """TPC-H Q5-shaped revenue per nation: lineitem revenue attributed
    through orders (date-windowed) to customers, rolled up to the
    customer's nation, restricted to one region.

    Output: (n_name, revenue_e4, n_items) — revenue in 1e-4 dollars
    (cents x discount-complement percent), n_items = joined lineitems.

    Scale shape: lineitem pre-aggregates revenue per orderkey in each
    batch BEFORE the first shuffle; the orderkey sort-merge join emits
    (custkey, partial) rows that pre-aggregate again before the custkey
    join; the nation/region dimensions never shuffle (broadcast dict);
    each completion block leaves at most one row per nation."""
    lo = _ts_us(date_from)
    hi = _ts_us(date_to)

    def _sup(key, kind, rev, n, payload) -> pa.Table:
        """Superset-schema block with explicit types: an empty pandas
        frame would otherwise infer Arrow `null` columns and break the
        union/sort schema."""
        m = len(key)
        return pa.table({
            "key": pa.array(np.asarray(key, np.int64), pa.int64()),
            "kind": pa.array([kind] * m, pa.string()),
            "rev_e4": pa.array(np.asarray(rev, np.int64), pa.int64()),
            "n_items": pa.array(np.asarray(n, np.int64), pa.int64()),
            "payload": pa.array(np.asarray(payload, np.int64),
                                pa.int64()),
        })

    # --- side projections onto the union superset schema -------------
    def l_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        part = pd.DataFrame({
            "key": df["l_orderkey"].to_numpy(),
            "rev_e4": _rev_e4(df),
            "n_items": np.ones(len(df), np.int64),
        })
        # combiner: one row per orderkey per batch enters the shuffle
        g = part.groupby("key", sort=False).sum().reset_index()
        return _sup(g["key"], "l", g["rev_e4"], g["n_items"],
                    np.zeros(len(g), np.int64))

    def o_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts = df["o_orderdate"].astype("int64").to_numpy()
        df = df[(ts >= lo) & (ts < hi)]
        z = np.zeros(len(df), np.int64)
        return _sup(df["o_orderkey"], "o", z, z, df["o_custkey"])

    def merge_orders(batch: pa.Table) -> pa.Table:
        """Per-block orderkey join -> (custkey partials)."""
        df = batch.to_pandas()
        o = df[df["kind"] == "o"]
        ln = df[df["kind"] == "l"]
        j = pd.merge(
            ln[["key", "rev_e4", "n_items"]],
            o[["key", "payload"]].rename(columns={"payload": "custkey"}),
            on="key")
        g = (j.groupby("custkey", sort=False)
             [["rev_e4", "n_items"]].sum().reset_index())
        return _sup(g["custkey"], "x", g["rev_e4"], g["n_items"],
                    np.zeros(len(g), np.int64))

    def c_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        return _sup(df["c_custkey"], "c", z, z, df["c_nationkey"])

    def merge_customer(batch: pa.Table) -> pa.Table:
        """Per-block custkey join -> (nationkey partials): at most 25
        rows leave each block."""
        df = batch.to_pandas()
        c = df[df["kind"] == "c"]
        x = df[df["kind"] == "x"]
        j = pd.merge(
            x[["key", "rev_e4", "n_items"]],
            c[["key", "payload"]].rename(
                columns={"payload": "nationkey"}),
            on="key")
        g = (j.groupby("nationkey", sort=False)
             [["rev_e4", "n_items"]].sum().reset_index())
        return pa.table({
            "nationkey": pa.array(np.asarray(g["nationkey"], np.int64),
                                  pa.int64()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "n_items": pa.array(np.asarray(g["n_items"], np.int64),
                                pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby("nationkey", sort=False)
             [["rev_e4", "n_items"]].sum().reset_index())
        names = [nation_map.get(int(k), ("", "")) for k in g["nationkey"]]
        keep = np.asarray([r == region for _, r in names], dtype=bool)
        return pa.table({
            "n_name": pa.array(
                [n for (n, _), k in zip(names, keep) if k], pa.string()),
            "revenue_e4": pa.array(
                np.asarray(g["rev_e4"], np.int64)[keep], pa.int64()),
            "n_items": pa.array(
                np.asarray(g["n_items"], np.int64)[keep], pa.int64()),
        })

    joined = (
        lineitem.map_batches(l_side, batch_format="pyarrow",
                             batch_size=1 << 19)
        .union(orders.map_batches(o_side, batch_format="pyarrow",
                                  batch_size=1 << 19))
        .sort("key")
        .map_batches(merge_orders, batch_format="pyarrow",
                     batch_size=None)
    )
    return (
        joined
        .union(customer.map_batches(c_side, batch_format="pyarrow",
                                    batch_size=1 << 19))
        .sort("key")
        .map_batches(merge_customer, batch_format="pyarrow",
                     batch_size=None)
        .sort("nationkey")
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def top_orders_per_customer(orders: rd.Dataset, *, k: int = 3) -> rd.Dataset:
    """Grouped top-k (the window-rank `row_number() <= k` shape the
    reference and the engine both lacked): each customer's ``k``
    highest-value orders, rank attached.

    Shape: per-batch LOCAL top-k per custkey — a valid partial, since a
    group's global top-k is contained in the union of its local
    top-ks — so the shuffle moves at most k rows per (custkey, block);
    then one sort on the HIGH-CARDINALITY custkey (equal keys arrive
    whole per block) and a per-block final rank (``grouped_topk`` at
    both cuts, ``topk_complete`` for the second).

    Tie rule on BOTH engines: (cents DESC, o_orderkey ASC) — total
    order, so the boundary cut is deterministic.  Money is integer
    cents (o_totalprice is cent-integral; the repo's integer-derivation
    invariant), making the output hash-exact vs the SQL window oracle.

    Output: (o_custkey, o_orderkey, total_cents, rk)."""

    order = [("total_cents", "descending"), ("o_orderkey", "ascending")]

    def cents(batch: pa.Table) -> pa.Table:
        # batch-local top-k per custkey before the exchange
        return grouped_topk(pa.table({
            "o_custkey": batch.column("o_custkey").cast(pa.int64()),
            "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
            "total_cents": pa.array(_round_half_away(
                batch.column("o_totalprice").to_numpy(
                    zero_copy_only=False) * 100), pa.int64()),
        }), ["o_custkey"], order, k)

    return topk_complete(
        orders.map_batches(cents, batch_format="pyarrow",
                           batch_size=1 << 19),
        ["o_custkey"], order, k, rank="rk")


def promo_revenue_by_month(
    lineitem: rd.Dataset,
    part: rd.Dataset,
) -> pa.Table:
    """TPC-H Q14-shaped promotion report: per ship month, discounted
    revenue from PROMO-type parts and total revenue — the consumer
    divides for the promo share (float ratios of exact int64 sums are
    bit-identical across engines, the Q1 avg_* rule).

    Scale shape: part SCALES WITH SF (200k x SF rows — unlike Q5's
    fixed 25/5 dims it must NOT broadcast).  The fact side combines to
    per-(partkey, month) revenue partials BEFORE the shuffle, then one
    sort-merge co-partition join on l_partkey (union with the
    projected part table, sort on the single key, per-block annotate —
    the engine's standard join), and the month-bounded final fold runs
    on the driver (months ~ O(100); the kg_degrees precedent).

    Output: small pa.Table (ship_month = year*100+month BIGINT,
    promo_rev_e4, total_rev_e4)."""

    def li_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts = pd.to_datetime(df["l_shipdate"])
        g = (pd.DataFrame({
                "key": df["l_partkey"].to_numpy(),
                "month": (ts.dt.year * 100 + ts.dt.month).to_numpy(),
                "rev_e4": _rev_e4(df),
             })
             .groupby(["key", "month"], sort=False)["rev_e4"].sum()
             .reset_index())
        return pa.table({
            "key": pa.array(g["key"].to_numpy(), pa.int64()),
            "month": pa.array(np.asarray(g["month"], np.int64),
                              pa.int64()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "kind": pa.array(np.ones(len(g), np.int64), pa.int64()),
        })

    def part_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # NULL p_type = matched-but-not-promo (the oracle's CASE):
        # fill 0 so only keys with NO dim row ever map to NaN below
        promo = pc.cast(pc.fill_null(
            pc.equal(batch.column("p_type"), "PROMO"), False),
            pa.int64())
        z = pa.array([0] * batch.num_rows, pa.int64())
        return pa.table({
            "key": batch.column("p_partkey").cast(pa.int64()),
            # is_promo rides in `month`, the slot unused by kind=0 rows
            "month": promo,
            "rev_e4": z,
            "kind": z,
        })

    def annotate(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        pm = dict(zip(df.loc[df["kind"] == 0, "key"],
                      df.loc[df["kind"] == 0, "month"]))
        li = df[df["kind"] == 1]
        mapped = li["key"].map(pm)
        # inner-join semantics: a fact key with NO dim row drops
        # (matching the oracle); NULL dim payloads never reach here
        # (p_type nulls were filled to non-promo in part_rows)
        li, mapped = li[mapped.notna()], mapped.dropna()
        is_promo = mapped.to_numpy(dtype=np.int64)
        g = (pd.DataFrame({
                "month": li["month"].to_numpy(),
                "promo_rev_e4": li["rev_e4"].to_numpy() * is_promo,
                "total_rev_e4": li["rev_e4"].to_numpy(),
             })
             .groupby("month", sort=False).sum().reset_index())
        return pa.table({
            "month": pa.array(g["month"].to_numpy(), pa.int64()),
            "promo_rev_e4": pa.array(
                np.asarray(g["promo_rev_e4"], np.int64), pa.int64()),
            "total_rev_e4": pa.array(
                np.asarray(g["total_rev_e4"], np.int64), pa.int64()),
        })

    partials = (part.map_batches(part_rows, batch_format="pyarrow",
                                 batch_size=1 << 19)
                .union(lineitem.map_batches(li_combine,
                                            batch_format="pyarrow",
                                            batch_size=1 << 19))
                .sort("key")
                .map_batches(annotate, batch_format="pyarrow",
                             batch_size=None))
    acc: dict[int, tuple[int, int]] = {}
    for r in partials.take_all():  # O(months x blocks) — tiny
        p, t = acc.get(r["month"], (0, 0))
        acc[r["month"]] = (p + r["promo_rev_e4"],
                           t + r["total_rev_e4"])
    months = sorted(acc)
    return pa.table({
        "ship_month": pa.array(months, pa.int64()),
        "promo_rev_e4": pa.array([acc[m][0] for m in months],
                                 pa.int64()),
        "total_rev_e4": pa.array([acc[m][1] for m in months],
                                 pa.int64()),
    })


def top_unshipped_orders(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    *,
    segment: str = "BUILDING",
    cutoff: str = "1995-03-15",
    k: int = 10,
) -> pa.Table:
    """TPC-H Q3-shaped shipping-priority report: the ``k``
    highest-revenue orders from ``segment`` customers that were placed
    before ``cutoff`` but still have lineitems shipping after it.

    Three SF-scaled tables, zero broadcasts, two sort-merge passes:

      1. semi-join orders -> customer on custkey (customer reduces to
         DISTINCT segment custkeys per batch pre-shuffle)
      2. co-partition join on orderkey: lineitem pre-aggregated to
         per-orderkey revenue partials (l_shipdate > cutoff filter at
         the read side) unioned with the surviving orders
      3. per-block LOCAL top-k (a valid partial — the global top-k is
         inside the union of block top-ks) -> driver fold of <= k x
         blocks rows; tie rule (revenue_e4 DESC, o_orderkey ASC) is a
         total order on both engines.

    Output: small pa.Table (o_orderkey, revenue_e4, o_orderdate,
    o_orderpriority), k rows."""
    cut = _ts_us(cutoff)

    def c_keys(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keys = np.unique(
            df.loc[df["c_mktsegment"] == segment, "c_custkey"]
            .to_numpy())
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "okey": pa.array(np.zeros(len(keys), np.int64), pa.int64()),
            "odate": pa.array(np.zeros(len(keys), np.int64), pa.int64()),
            "oprio": pa.array([""] * len(keys), pa.string()),
            "kind": pa.array(np.zeros(len(keys), np.int64), pa.int64()),
        })

    def o_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts = df["o_orderdate"].astype("int64").to_numpy()
        keep = ts < cut
        df = df[keep]
        return pa.table({
            "key": pa.array(df["o_custkey"].to_numpy(), pa.int64()),
            "okey": pa.array(df["o_orderkey"].to_numpy(), pa.int64()),
            "odate": pa.array(ts[keep], pa.int64()),
            "oprio": pa.array(df["o_orderpriority"].tolist(),
                              pa.string()),
            "kind": pa.array(np.ones(len(df), np.int64), pa.int64()),
        })

    def semi(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keep = set(df.loc[df["kind"] == 0, "key"])
        o = df[(df["kind"] == 1) & df["key"].isin(keep)]
        return pa.table({
            "okey": pa.array(o["okey"].to_numpy(), pa.int64()),
            "odate": pa.array(o["odate"].to_numpy(), pa.int64()),
            "oprio": pa.array(o["oprio"].tolist(), pa.string()),
            "rev_e4": pa.array(np.zeros(len(o), np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(o), np.int64), pa.int64()),
        })

    def li_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts = df["l_shipdate"].astype("int64").to_numpy()
        df = df[ts > cut]
        g = (pd.DataFrame({"okey": df["l_orderkey"].to_numpy(),
                           "rev_e4": _rev_e4(df)})
             .groupby("okey", sort=False)["rev_e4"].sum().reset_index())
        return pa.table({
            "okey": pa.array(g["okey"].to_numpy(), pa.int64()),
            "odate": pa.array(np.zeros(len(g), np.int64), pa.int64()),
            "oprio": pa.array([""] * len(g), pa.string()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "kind": pa.array(np.ones(len(g), np.int64), pa.int64()),
        })

    order = [("rev_e4", "descending"), ("okey", "ascending")]

    def revenue(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        o = df[df["kind"] == 0]
        li = df[df["kind"] == 1]
        g = (li.groupby("okey", sort=False)["rev_e4"].sum()
             .reset_index().merge(
                 o[["okey", "odate", "oprio"]], on="okey"))
        # no >0 filter: the oracle's inner join ranks zero-revenue
        # orders too (fully-discounted lineitems), so must we
        return grouped_topk(pa.table({
            "okey": pa.array(g["okey"].to_numpy(np.int64), pa.int64()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "odate": pa.array(g["odate"].to_numpy(dtype=np.int64),
                              pa.int64()),
            "oprio": pa.array(g["oprio"].tolist(), pa.string()),
        }), [], order, k)

    surviving = (customer.map_batches(c_keys, batch_format="pyarrow",
                                      batch_size=1 << 19)
                 .union(orders.map_batches(o_rows,
                                           batch_format="pyarrow",
                                           batch_size=1 << 19))
                 .sort("key")
                 .map_batches(semi, batch_format="pyarrow",
                              batch_size=None))
    rows = (surviving.union(lineitem.map_batches(
                li_combine, batch_format="pyarrow",
                batch_size=1 << 19))
            .sort("okey")
            .map_batches(revenue, batch_format="pyarrow",
                         batch_size=None))  # <= k rows per block
    top = topk_complete(rows, [], order, k, empty=pa.schema([
        ("okey", pa.int64()), ("rev_e4", pa.int64()), ("odate", pa.int64()),
        ("oprio", pa.string())]).empty_table())
    return pa.table({
        "o_orderkey": top.column("okey"),
        "revenue_e4": top.column("rev_e4"),
        "o_orderdate": top.column("odate").cast(pa.timestamp("us")),
        "o_orderpriority": top.column("oprio"),
    })


def revenue_by_supplier_nation(
    lineitem: rd.Dataset,
    supplier: rd.Dataset,
) -> pa.Table:
    """Discounted revenue per SUPPLIER nation (the supply-side twin of
    :func:`revenue_by_nation`, covering the last side table): lineitem
    revenue partials per l_suppkey pre-shuffle, one sort-merge
    co-partition join with supplier (SF-scaled — never broadcast),
    then a driver fold over the fixed-25 nation keys (the kg_degrees
    precedent).

    Output: small pa.Table (s_nationkey, revenue_e4, n_items) —
    integer-exact."""

    def li_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (pd.DataFrame({"key": df["l_suppkey"].to_numpy(),
                           "rev_e4": _rev_e4(df),
                           "n": np.int64(1)})
             .groupby("key", sort=False).sum().reset_index())
        return pa.table({
            "key": pa.array(g["key"].to_numpy(), pa.int64()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(g), np.int64), pa.int64()),
        })

    def s_rows(batch: pa.Table) -> pa.Table:
        z = pa.array([0] * batch.num_rows, pa.int64())
        return pa.table({
            "key": batch.column("s_suppkey").cast(pa.int64()),
            # nationkey rides in rev_e4's unused kind=0 slot
            "rev_e4": batch.column("s_nationkey").cast(pa.int64()),
            "n": z,
            "kind": z,
        })

    def annotate(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        nk = dict(zip(df.loc[df["kind"] == 0, "key"],
                      df.loc[df["kind"] == 0, "rev_e4"]))
        li = df[df["kind"] == 1]
        mapped = li["key"].map(nk)
        # inner-join drop for unmatched fact keys (oracle semantics).
        # Precondition: s_nationkey is NOT NULL (TPC-H contract) — a
        # null payload would be indistinguishable from a missing key
        li, mapped = li[mapped.notna()], mapped.dropna()
        g = (pd.DataFrame({
                "nation": mapped.to_numpy(dtype=np.int64),
                "rev_e4": li["rev_e4"].to_numpy(),
                "n": li["n"].to_numpy(),
             })
             .groupby("nation", sort=False).sum().reset_index())
        return pa.table({
            "nation": pa.array(g["nation"].to_numpy(), pa.int64()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    acc: dict[int, tuple[int, int]] = {}
    for r in (supplier.map_batches(s_rows, batch_format="pyarrow",
                                   batch_size=1 << 19)
              .union(lineitem.map_batches(li_combine,
                                          batch_format="pyarrow",
                                          batch_size=1 << 19))
              # suppkey scales with SF (10k x SF) — high-cardinality
              # at any real scale, low only in toy fixtures
              .sort("key")
              .map_batches(annotate, batch_format="pyarrow",
                           batch_size=None)
              .take_all()):  # O(25 nations x blocks)
        rv, n = acc.get(r["nation"], (0, 0))
        acc[r["nation"]] = (rv + r["rev_e4"], n + r["n"])
    keys = sorted(acc)
    return pa.table({
        "s_nationkey": pa.array(keys, pa.int64()),
        "revenue_e4": pa.array([acc[k][0] for k in keys], pa.int64()),
        "n_items": pa.array([acc[k][1] for k in keys], pa.int64()),
    })


def order_priority_counts(
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    *,
    date_from: str = "1996-01-01",
    date_to: str = "1996-07-01",
    returnflag: str = "R",
) -> rd.Dataset:
    """Distributed SEMI-join aggregate (TPC-H Q4 shape, ref has no
    analog — this completes the join family: inner/anti/as-of/range
    exist elsewhere): orders inside the date window that have AT LEAST
    ONE lineitem with the given returnflag, counted per priority.

    The testdata lineitem carries no commitdate/receiptdate, so the
    EXISTS predicate is `l_returnflag = returnflag` — same Q4 shape
    (EXISTS over the fact table), different column.

    Shape: the lineitem probe side reduces to DISTINCT qualifying
    orderkeys per batch BEFORE the shuffle (≤ one row per orderkey per
    batch, never raw lines); union with window-filtered order rows;
    one sort on orderkey (equal keys land whole per block); per-block
    semi-merge emits (priority, partial count) — ≤ 5 rows per block —
    then the engine's tiny sort + completion finishes the count.

    Output: (o_orderpriority, order_count) sorted by priority."""
    lo = _ts_us(date_from)
    hi = _ts_us(date_to)

    def l_keys(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keys = np.unique(
            df["l_orderkey"].to_numpy()[
                df["l_returnflag"].to_numpy() == returnflag])
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "kind": pa.array(["l"] * len(keys), pa.string()),
            "priority": pa.array([""] * len(keys), pa.string()),
        })

    def o_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts = df["o_orderdate"].astype("int64").to_numpy()
        df = df[(ts >= lo) & (ts < hi)]
        return pa.table({
            "key": pa.array(np.asarray(df["o_orderkey"], np.int64),
                            pa.int64()),
            "kind": pa.array(["o"] * len(df), pa.string()),
            "priority": pa.array(df["o_orderpriority"].tolist(),
                                 pa.string()),
        })

    def semi_count(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        evid = set(df.loc[df["kind"] == "l", "key"])
        o = df[df["kind"] == "o"]
        o = o[o["key"].isin(evid)]
        g = (o.groupby("priority", sort=False)["key"].size()
             .reset_index(name="order_count"))
        return pa.table({
            "o_orderpriority": pa.array(g["priority"].tolist(),
                                        pa.string()),
            "order_count": pa.array(
                np.asarray(g["order_count"], np.int64), pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby("o_orderpriority", sort=True)["order_count"]
             .sum().reset_index())
        return pa.table({
            "o_orderpriority": pa.array(g["o_orderpriority"].tolist(),
                                        pa.string()),
            "order_count": pa.array(
                np.asarray(g["order_count"], np.int64), pa.int64()),
        })

    return (
        lineitem.map_batches(l_keys, batch_format="pyarrow",
                             batch_size=1 << 19)
        .union(orders.map_batches(o_rows, batch_format="pyarrow",
                                  batch_size=1 << 19))
        # orderkey scales with SF — high-cardinality at any real scale
        .sort("key")
        .map_batches(semi_count, batch_format="pyarrow",
                     batch_size=None)
        # ≤ 5 partial rows per block: the final exchange is tiny
        .sort("o_orderpriority")
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def revenue_rollup(
    orders: rd.Dataset,
    customer: rd.Dataset,
    nation_map: dict[int, tuple[str, str]],
) -> rd.Dataset:
    """Hierarchical ROLLUP aggregate in ONE shuffle: order revenue at
    the (region, nation), (region, ALL) and (ALL, ALL) levels — the
    GROUP BY ROLLUP shape a reporting pipeline needs, expressed as
    multi-level emission inside the combine instead of three separate
    aggregation passes over the fact table.

    Shape: orders pre-aggregate per custkey BEFORE the join shuffle
    (sum cents + count, one row per custkey per batch); one sort on
    custkey co-partitions them with customer; the per-block merge maps
    nationkey -> (n_name, r_name) via the fixed-25 broadcast and emits
    every group row at ALL THREE levels ('ALL' sentinel, never NULL —
    empty-block-safe explicit string types); the final exchange then
    moves <= (25 + 5 + 1) rows per block regardless of fact size.  For
    a high-cardinality hierarchy (domain/url, dataset/shard) the same
    single-shuffle shape holds — level rows just stay proportional to
    the hierarchy, never the facts.

    Output: (r_name, n_name, revenue_cents, n_orders) where n_name =
    'ALL' marks the region subtotal and r_name = n_name = 'ALL' the
    grand total."""

    def o_part(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cents = _round_half_away(df["o_totalprice"].to_numpy() * 100)
        g = (pd.DataFrame({"key": df["o_custkey"].to_numpy(),
                           "cents": cents,
                           "n": np.ones(len(df), np.int64)})
             .groupby("key", sort=False).sum().reset_index())
        return pa.table({
            "key": pa.array(np.asarray(g["key"], np.int64), pa.int64()),
            "kind": pa.array(["o"] * len(g), pa.string()),
            "cents": pa.array(np.asarray(g["cents"], np.int64),
                              pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            "nationkey": pa.array(np.zeros(len(g), np.int64),
                                  pa.int64()),
        })

    def c_part(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "key": pa.array(np.asarray(df["c_custkey"], np.int64),
                            pa.int64()),
            "kind": pa.array(["c"] * len(df), pa.string()),
            "cents": pa.array(np.zeros(len(df), np.int64), pa.int64()),
            "n": pa.array(np.zeros(len(df), np.int64), pa.int64()),
            "nationkey": pa.array(
                np.asarray(df["c_nationkey"], np.int64), pa.int64()),
        })

    def merge_emit(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        c = df[df["kind"] == "c"]
        o = df[df["kind"] == "o"]
        nk = dict(zip(c["key"], c["nationkey"]))
        o = o[o["key"].isin(nk.keys())]
        if len(o):
            nat = o["key"].map(nk).to_numpy()
            names = [nation_map[int(k)] for k in nat]
            lvl = pd.DataFrame({
                "r_name": [r for _, r in names],
                "n_name": [n for n, _ in names],
                "cents": o["cents"].to_numpy(),
                "n": o["n"].to_numpy(),
            })
            parts = [lvl,
                     lvl.assign(n_name="ALL"),
                     lvl.assign(r_name="ALL", n_name="ALL")]
            g = (pd.concat(parts)
                 .groupby(["r_name", "n_name"], sort=False)
                 [["cents", "n"]].sum().reset_index())
        else:
            g = pd.DataFrame({"r_name": [], "n_name": [],
                              "cents": [], "n": []})
        return pa.table({
            "r_name": pa.array(g["r_name"].tolist(), pa.string()),
            "n_name": pa.array(g["n_name"].tolist(), pa.string()),
            "cents": pa.array(np.asarray(g["cents"], np.int64),
                              pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["r_name", "n_name"], sort=True)
             [["cents", "n"]].sum().reset_index())
        return pa.table({
            "r_name": pa.array(g["r_name"].tolist(), pa.string()),
            "n_name": pa.array(g["n_name"].tolist(), pa.string()),
            "revenue_cents": pa.array(np.asarray(g["cents"], np.int64),
                                      pa.int64()),
            "n_orders": pa.array(np.asarray(g["n"], np.int64),
                                 pa.int64()),
        })

    return (
        orders.map_batches(o_part, batch_format="pyarrow",
                           batch_size=1 << 19)
        .union(customer.map_batches(c_part, batch_format="pyarrow",
                                    batch_size=1 << 19))
        # custkey scales with SF — high-cardinality at any real scale
        .sort("key")
        .map_batches(merge_emit, batch_format="pyarrow",
                     batch_size=None)
        # <= 31 level rows per block: the final exchange is tiny
        .sort(["r_name", "n_name"])
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def large_volume_orders(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    *,
    qty_threshold: int = 150,
) -> rd.Dataset:
    """TPC-H Q18-shaped large-volume-customer report: orders whose
    total line quantity exceeds ``qty_threshold``, joined back to the
    ordering customer.  The reference analog is the HAVING-filtered
    aggregate-then-join shape its eval scripts lack entirely.

    Scale shape: lineitem pre-aggregates quantity per orderkey in each
    batch (the shuffle moves one partial per (orderkey, batch), never
    raw lines); the orderkey sort-merge block completes the sum and
    applies the HAVING filter, so only qualifying orders — a tiny
    fraction — enter the second (custkey) exchange together with the
    customer side.  Quantities are integral doubles recovered exactly
    via half-away rounding, so sums are int64 and hash-exact.

    Output: (c_custkey, c_name, o_orderkey, total_cents, sum_qty)."""

    def _sup1(key, kind, qty, custkey, cents) -> pa.Table:
        m = len(key)
        return pa.table({
            "key": pa.array(np.asarray(key, np.int64), pa.int64()),
            "kind": pa.array([kind] * m, pa.string()),
            "qty": pa.array(np.asarray(qty, np.int64), pa.int64()),
            "custkey": pa.array(np.asarray(custkey, np.int64),
                                pa.int64()),
            "cents": pa.array(np.asarray(cents, np.int64), pa.int64()),
        })

    def l_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        part = pd.DataFrame({
            "key": df["l_orderkey"].to_numpy(),
            "qty": _round_half_away(df["l_quantity"].to_numpy()),
        })
        g = part.groupby("key", sort=False).sum().reset_index()
        z = np.zeros(len(g), np.int64)
        return _sup1(g["key"], "l", g["qty"], z, z)

    def o_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        return _sup1(df["o_orderkey"], "o", z, df["o_custkey"],
                     _round_half_away(df["o_totalprice"].to_numpy() * 100))

    def having_join(batch: pa.Table) -> pa.Table:
        """Per-block orderkey completion + HAVING + order join: equal
        orderkeys arrive whole, so the summed quantity is final here."""
        df = batch.to_pandas()
        ln = df[df["kind"] == "l"]
        o = df[df["kind"] == "o"]
        g = ln.groupby("key", sort=False)["qty"].sum().reset_index()
        g = g[g["qty"] > qty_threshold]
        j = pd.merge(g, o[["key", "custkey", "cents"]], on="key")
        # re-key on custkey for the customer join; orderkey -> payload
        return pa.table({
            "key": pa.array(np.asarray(j["custkey"], np.int64),
                            pa.int64()),
            "kind": pa.array(["x"] * len(j), pa.string()),
            "qty": pa.array(np.asarray(j["qty"], np.int64), pa.int64()),
            "orderkey": pa.array(np.asarray(j["key"], np.int64),
                                 pa.int64()),
            "cents": pa.array(np.asarray(j["cents"], np.int64),
                              pa.int64()),
            "name": pa.array([""] * len(j), pa.string()),
        })

    def c_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        return pa.table({
            "key": pa.array(np.asarray(df["c_custkey"], np.int64),
                            pa.int64()),
            "kind": pa.array(["c"] * len(df), pa.string()),
            "qty": pa.array(z, pa.int64()),
            "orderkey": pa.array(z, pa.int64()),
            "cents": pa.array(z, pa.int64()),
            "name": pa.array(df["c_name"].tolist(), pa.string()),
        })

    def cust_join(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        x = df[df["kind"] == "x"]
        c = df[df["kind"] == "c"]
        j = pd.merge(
            x[["key", "orderkey", "qty", "cents"]],
            c[["key", "name"]],
            on="key")
        return pa.table({
            "c_custkey": pa.array(np.asarray(j["key"], np.int64),
                                  pa.int64()),
            "c_name": pa.array(j["name"].tolist(), pa.string()),
            "o_orderkey": pa.array(np.asarray(j["orderkey"], np.int64),
                                   pa.int64()),
            "total_cents": pa.array(np.asarray(j["cents"], np.int64),
                                    pa.int64()),
            "sum_qty": pa.array(np.asarray(j["qty"], np.int64),
                                pa.int64()),
        })

    qualified = (
        lineitem.map_batches(l_side, batch_format="pyarrow",
                             batch_size=1 << 19)
        .union(orders.map_batches(o_side, batch_format="pyarrow",
                                  batch_size=1 << 19))
        .sort("key")
        .map_batches(having_join, batch_format="pyarrow",
                     batch_size=None)
    )
    return (
        qualified
        .union(customer.map_batches(c_side, batch_format="pyarrow",
                                    batch_size=1 << 19))
        .sort("key")
        .map_batches(cust_join, batch_format="pyarrow", batch_size=None)
    )


def idle_rich_customers(
    customer: rd.Dataset,
    orders: rd.Dataset,
    *,
    idle_since: str = "2001-01-01",
) -> rd.Dataset:
    """TPC-H Q22-shaped report: positive-balance customers whose
    balance exceeds the positive-balance AVERAGE and who placed no
    order since ``idle_since``, counted per market segment.

    The global average is the engine's scalar-subquery pattern: one
    streaming pass emits a (count, sum) partial PER BLOCK, the driver
    folds the O(blocks) partials (tiny, justified collect), and the
    resulting two integers are captured in the filter closure — no
    second scan, no shuffle.  The mean comparison is exact integer
    cross-multiplication (cents * n > total_cents), so no float
    average ever exists to diverge from the SQL oracle.

    The anti-join reuses the distinct-probe shape: orders reduce to
    distinct recent custkeys per batch, union with the pre-filtered
    customer side, one custkey sort, per-block NOT-EXISTS merge, then
    a five-group segment rollup.

    Output: (c_mktsegment, n_custs, sum_acctbal_cents)."""
    lo = _ts_us(idle_since)

    def bal_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cents = _round_half_away(df["c_acctbal"].to_numpy() * 100)
        pos = cents[cents > 0]
        return pa.table({
            "n": pa.array([len(pos)], pa.int64()),
            "tot": pa.array([int(pos.sum())], pa.int64()),
        })

    # driver collect is O(blocks): one 2-int row per input block
    parts = customer.map_batches(
        bal_partial, batch_format="pyarrow", batch_size=1 << 19
    ).to_pandas()
    n_pos = int(parts["n"].sum())
    tot_cents = int(parts["tot"].sum())

    def c_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cents = df["c_acctbal"].to_numpy()
        cents = _round_half_away(cents * 100)
        keep = (cents > 0) & (cents * n_pos > tot_cents)
        df = df[keep]
        return pa.table({
            "key": pa.array(np.asarray(df["c_custkey"], np.int64),
                            pa.int64()),
            "kind": pa.array(["c"] * len(df), pa.string()),
            "cents": pa.array(cents[keep], pa.int64()),
            "segment": pa.array(df["c_mktsegment"].tolist(),
                                pa.string()),
        })

    def probe(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts = df["o_orderdate"].astype("int64").to_numpy()
        keys = np.unique(df["o_custkey"].to_numpy()[ts >= lo])
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "kind": pa.array(["o"] * len(keys), pa.string()),
            "cents": pa.array(np.zeros(len(keys), np.int64), pa.int64()),
            "segment": pa.array([""] * len(keys), pa.string()),
        })

    def anti_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        recent = set(df.loc[df["kind"] == "o", "key"])
        c = df[df["kind"] == "c"]
        c = c[~c["key"].isin(recent)]
        g = (c.groupby("segment", sort=False)
             .agg(n_custs=("key", "size"), cents=("cents", "sum"))
             .reset_index())
        return pa.table({
            "segment": pa.array(g["segment"].tolist(), pa.string()),
            "n_custs": pa.array(np.asarray(g["n_custs"], np.int64),
                                pa.int64()),
            "cents": pa.array(np.asarray(g["cents"], np.int64),
                              pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby("segment", sort=True)[["n_custs", "cents"]]
             .sum().reset_index())
        return pa.table({
            "c_mktsegment": pa.array(g["segment"].tolist(), pa.string()),
            "n_custs": pa.array(np.asarray(g["n_custs"], np.int64),
                                pa.int64()),
            "sum_acctbal_cents": pa.array(
                np.asarray(g["cents"], np.int64), pa.int64()),
        })

    return (
        customer.map_batches(c_side, batch_format="pyarrow",
                             batch_size=1 << 19)
        .union(orders.map_batches(probe, batch_format="pyarrow",
                                  batch_size=1 << 19))
        .sort("key")
        .map_batches(anti_combine, batch_format="pyarrow",
                     batch_size=None)
        .sort("segment")
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def min_cost_supplier(
    lineitem: rd.Dataset,
    part: rd.Dataset,
    supplier: rd.Dataset,
    nation_names: dict[int, str],
) -> rd.Dataset:
    """TPC-H Q2-shaped groupwise-argmin join: for every part, the
    cheapest observed (extended price, supplier) over the fact table,
    annotated with the part brand and the supplying nation.

    Tie rule on BOTH engines: lexicographic min of (price_cents,
    l_suppkey) — cents are exact int64 (the Q1 rounding kernel), so
    the argmin is deterministic and the SQL oracle (row_number over
    the same ORDER BY) matches bitwise.

    Scale shape: the argmin is ALGEBRAIC (min composes), so each batch
    emits at most one row per partkey before the shuffle; one
    co-partition sort-merge join attaches the SF-scaled part dim (the
    Q14 precedent — part must NOT broadcast), a second sort-merge on
    suppkey attaches the SF-scaled supplier dim, and only the fixed
    25-row nation map rides the task closure.

    Output: (p_partkey, p_brand, min_price_cents, s_suppkey, s_name,
    n_name)."""

    def li_argmin(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        t = pd.DataFrame({
            "key": df["l_partkey"].to_numpy(dtype=np.int64),
            "cents": _round_half_away(
                df["l_extendedprice"].to_numpy() * 100),
            "supp": df["l_suppkey"].to_numpy(dtype=np.int64),
        })
        t = t.sort_values(["key", "cents", "supp"]).drop_duplicates("key")
        return pa.table({
            "key": pa.array(t["key"].to_numpy(), pa.int64()),
            "cents": pa.array(t["cents"].to_numpy(), pa.int64()),
            "supp": pa.array(t["supp"].to_numpy(), pa.int64()),
            "brand": pa.array([""] * len(t), pa.string()),
            "kind": pa.array(np.ones(len(t), np.int64), pa.int64()),
        })

    def part_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        z = pa.array([0] * n, pa.int64())
        return pa.table({
            "key": batch.column("p_partkey").cast(pa.int64()),
            "cents": z,
            "supp": z,
            "brand": batch.column("p_brand").cast(pa.string()),
            "kind": z,
        })

    def join_part(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        dim = (df[df["kind"] == 0][["key", "brand"]]
               .rename(columns={"brand": "p_brand"}))
        li = (df[df["kind"] == 1]
              .sort_values(["key", "cents", "supp"])
              .drop_duplicates("key"))
        j = li.merge(dim, on="key", how="inner")
        return pa.table({
            "key2": pa.array(j["supp"].to_numpy(dtype=np.int64),
                             pa.int64()),
            "partkey": pa.array(j["key"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "cents": pa.array(j["cents"].to_numpy(dtype=np.int64),
                              pa.int64()),
            "p_brand": pa.array(j["p_brand"].tolist(), pa.string()),
            "sname": pa.array([""] * len(j), pa.string()),
            "nat": pa.array(np.zeros(len(j), np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(j), np.int64), pa.int64()),
        })

    def supp_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        z = pa.array([0] * n, pa.int64())
        return pa.table({
            "key2": batch.column("s_suppkey").cast(pa.int64()),
            "partkey": z,
            "cents": z,
            "p_brand": pa.array([""] * n, pa.string()),
            "sname": batch.column("s_name").cast(pa.string()),
            "nat": batch.column("s_nationkey").cast(pa.int64()),
            "kind": z,
        })

    def join_supp(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        dim = df[df["kind"] == 0][["key2", "sname", "nat"]]
        res = df[df["kind"] == 1][["key2", "partkey", "cents", "p_brand"]]
        j = res.merge(dim, on="key2", how="inner")
        return pa.table({
            "p_partkey": pa.array(j["partkey"].to_numpy(dtype=np.int64),
                                  pa.int64()),
            "p_brand": pa.array(j["p_brand"].tolist(), pa.string()),
            "min_price_cents": pa.array(
                j["cents"].to_numpy(dtype=np.int64), pa.int64()),
            "s_suppkey": pa.array(j["key2"].to_numpy(dtype=np.int64),
                                  pa.int64()),
            "s_name": pa.array(j["sname"].tolist(), pa.string()),
            "n_name": pa.array(
                j["nat"].map(nation_names).tolist(), pa.string()),
        })

    li = lineitem.map_batches(li_argmin, batch_format="pyarrow",
                              batch_size=1 << 19)
    stage1 = (part.map_batches(part_rows, batch_format="pyarrow",
                               batch_size=1 << 19)
              .union(li)
              .sort("key")
              .map_batches(join_part, batch_format="pyarrow",
                           batch_size=None))
    return (supplier.map_batches(supp_rows, batch_format="pyarrow",
                                 batch_size=1 << 19)
            .union(stage1)
            .sort("key2")
            .map_batches(join_supp, batch_format="pyarrow",
                         batch_size=None))


def disjunctive_revenue(
    lineitem: rd.Dataset,
    part: rd.Dataset,
) -> pa.Table:
    """TPC-H Q19-shaped disjunctive-predicate join: revenue from
    lineitems matching any of three (brand, size-range, qty-range)
    bands.  The brand arms are mutually exclusive, so each joined row
    lands in at most one band.

    Scale shape: the fact side evaluates the QTY half of every band
    vectorized and pre-aggregates to per-(partkey, qty-bitmask)
    partials BEFORE the shuffle (rows matching no qty window drop at
    the read-side map); the part side reduces each part to a band
    bitmask and ships only parts eligible for >= 1 band.  One
    co-partition sort-merge join ANDs the masks per block, and the
    driver folds the tiny per-band partials (3 rows).

    Output: (band, revenue_e4, n_items), bands 1..3."""

    BANDS = (  # (brand, size_lo, size_hi, qty_lo, qty_hi)
        ("Brand#1", 1, 5, 1, 11),
        ("Brand#2", 1, 10, 10, 20),
        ("Brand#3", 1, 15, 20, 30),
    )

    def li_combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        qty = _round_half_away(df["l_quantity"].to_numpy())
        bits = np.zeros(len(df), np.int64)
        for i, (_, _, _, qlo, qhi) in enumerate(BANDS):
            bits |= ((qty >= qlo) & (qty <= qhi)).astype(np.int64) << i
        keep = bits > 0
        g = (pd.DataFrame({
                "key": df["l_partkey"].to_numpy(dtype=np.int64)[keep],
                "bits": bits[keep],
                "rev_e4": _rev_e4(df)[keep],
                "n": np.int64(1),
             })
             .groupby(["key", "bits"], sort=False)
             .agg(rev_e4=("rev_e4", "sum"), n=("n", "sum"))
             .reset_index())
        return pa.table({
            "key": pa.array(g["key"].to_numpy(), pa.int64()),
            "bits": pa.array(g["bits"].to_numpy(), pa.int64()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(g), np.int64), pa.int64()),
        })

    def part_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        size = df["p_size"].to_numpy(dtype=np.int64)
        brand = df["p_brand"].to_numpy()
        pbits = np.zeros(len(df), np.int64)
        for i, (b, slo, shi, _, _) in enumerate(BANDS):
            pbits |= ((brand == b) & (size >= slo)
                      & (size <= shi)).astype(np.int64) << i
        keep = pbits > 0
        n = int(keep.sum())
        return pa.table({
            "key": pa.array(
                df["p_partkey"].to_numpy(dtype=np.int64)[keep],
                pa.int64()),
            "bits": pa.array(pbits[keep], pa.int64()),
            "rev_e4": pa.array(np.zeros(n, np.int64), pa.int64()),
            "n": pa.array(np.zeros(n, np.int64), pa.int64()),
            "kind": pa.array(np.zeros(n, np.int64), pa.int64()),
        })

    def band_partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        pmap = dict(zip(df.loc[df["kind"] == 0, "key"],
                        df.loc[df["kind"] == 0, "bits"]))
        li = df[df["kind"] == 1]
        pb = li["key"].map(pmap)
        li, pb = li[pb.notna()], pb.dropna()
        hit = li["bits"].to_numpy(dtype=np.int64) \
            & pb.to_numpy(dtype=np.int64)
        # brand arms are disjoint -> at most one bit survives the AND
        keep = hit > 0
        band = np.zeros(len(li), np.int64)
        for i in range(len(BANDS)):
            band[((hit >> i) & 1) == 1] = i + 1
        g = (pd.DataFrame({
                "band": band[keep],
                "rev_e4": li["rev_e4"].to_numpy()[keep],
                "n": li["n"].to_numpy()[keep],
             })
             .groupby("band", sort=False).sum().reset_index())
        return pa.table({
            "band": pa.array(g["band"].to_numpy(), pa.int64()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "n": pa.array(np.asarray(g["n"], np.int64), pa.int64()),
        })

    partials = (part.map_batches(part_rows, batch_format="pyarrow",
                                 batch_size=1 << 19)
                .union(lineitem.map_batches(li_combine,
                                            batch_format="pyarrow",
                                            batch_size=1 << 19))
                .sort("key")
                .map_batches(band_partials, batch_format="pyarrow",
                             batch_size=None))
    acc: dict[int, tuple[int, int]] = {}
    for r in partials.take_all():  # O(bands x blocks) — tiny
        rv, n = acc.get(r["band"], (0, 0))
        acc[r["band"]] = (rv + r["rev_e4"], n + r["n"])
    bands = sorted(acc)
    return pa.table({
        "band": pa.array(bands, pa.int64()),
        "revenue_e4": pa.array([acc[b][0] for b in bands], pa.int64()),
        "n_items": pa.array([acc[b][1] for b in bands], pa.int64()),
    })


def copurchased_parts(
    lineitem: rd.Dataset,
    *,
    min_count: int = 2,
) -> rd.Dataset:
    """Market-basket pair mining: unordered part pairs bought together
    in the same order, with support counts — the KG co-occurrence
    emitter's shape applied to relational data.

    Scale shape: ONE sort on the high-cardinality l_orderkey
    co-locates each order's lines (equal keys never split); the
    per-block pass dedups parts within the order and emits its
    C(n,2) pairs via vectorized index arithmetic (np.triu-style
    repeat/concat, no Python pair loop); a combine/sort/combine on the
    (part_a, part_b) composite finishes the counts.  The support
    filter runs in the completion block, AFTER counts are global.

    Output: (part_a, part_b, n_orders) with part_a < part_b and
    n_orders >= ``min_count``."""

    def proj(batch: pa.Table) -> pa.Table:
        return pa.table({
            "okey": batch.column("l_orderkey").cast(pa.int64()),
            "pkey": batch.column("l_partkey").cast(pa.int64()),
        })

    def emit_pairs(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas().drop_duplicates()
              .sort_values(["okey", "pkey"]))
        ok = df["okey"].to_numpy()
        pk = df["pkey"].to_numpy()
        starts = np.flatnonzero(
            np.concatenate(([True], ok[1:] != ok[:-1])))
        counts = np.diff(np.concatenate((starts, [len(ok)])))
        # vectorized upper-triangle pair emission per order run
        reps = counts - 1
        if not len(pk) or reps.max(initial=0) <= 0:
            return pa.table({
                "pa_": pa.array([], pa.int64()),
                "pb_": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            })
        # for each element i (except run-last), pair with every later
        # element of its run: left index repeats, right index counts up
        idx = np.arange(len(pk))
        run_id = np.repeat(np.arange(len(starts)), counts)
        pos = idx - starts[run_id]
        rem = (counts[run_id] - 1 - pos)      # pairs this element leads
        left = np.repeat(idx, rem)
        offs = np.arange(int(rem.sum())) - np.repeat(
            np.concatenate(([0], np.cumsum(rem)[:-1])), rem)
        right = left + 1 + offs
        g = (pd.DataFrame({"pa_": pk[left], "pb_": pk[right]})
             .groupby(["pa_", "pb_"], sort=False)
             .size().reset_index(name="n"))
        return pa.table({
            "pa_": pa.array(g["pa_"].to_numpy(), pa.int64()),
            "pb_": pa.array(g["pb_"].to_numpy(), pa.int64()),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64), pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["pa_", "pb_"], sort=False)["n"].sum()
             .reset_index())
        g = g[g["n"] >= min_count]
        return pa.table({
            "part_a": pa.array(g["pa_"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "part_b": pa.array(g["pb_"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "n_orders": pa.array(g["n"].to_numpy(dtype=np.int64),
                                 pa.int64()),
        })

    return (lineitem.map_batches(proj, batch_format="pyarrow",
                                 batch_size=1 << 19)
            .sort("okey")
            .map_batches(emit_pairs, batch_format="pyarrow",
                         batch_size=None)
            .sort(["pa_", "pb_"])
            .map_batches(complete, batch_format="pyarrow",
                         batch_size=None))


def lineitem_order_share(lineitem: rd.Dataset) -> rd.Dataset:
    """Windowed-total-joined-back-to-detail shape (SUM() OVER
    (PARTITION BY order)): every lineitem annotated with its order's
    total discounted revenue and its own share in basis points,
    ``share_bp = rev_e4 * 10000 // total_e4`` (non-negative ints, so
    numpy floor == DuckDB truncation).

    Domain precondition: per-order revenue totals must be POSITIVE —
    guaranteed on TPC-H-shaped data (extendedprice > 0, discount <=
    10%).  An all-zero-revenue order would make numpy emit 0 for the
    share where SQL yields NULL/error; the per-block pass raises
    instead of diverging silently.

    ONE sort on the high-cardinality l_orderkey; the per-block pass
    computes group totals with a vectorized transform('sum') and emits
    every detail row — no pre-aggregation is possible (the output IS
    the detail), so the shuffle moves the projected fact columns
    once."""

    def proj(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "okey": pa.array(df["l_orderkey"].to_numpy(dtype=np.int64),
                             pa.int64()),
            "lno": pa.array(df["l_linenumber"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "rev_e4": pa.array(_rev_e4(df), pa.int64()),
        })

    def share(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "l_orderkey": pa.array([], pa.int64()),
                "l_linenumber": pa.array([], pa.int64()),
                "rev_e4": pa.array([], pa.int64()),
                "order_rev_e4": pa.array([], pa.int64()),
                "share_bp": pa.array([], pa.int64()),
            })
        tot = (df.groupby("okey", sort=False)["rev_e4"]
               .transform("sum").to_numpy(dtype=np.int64))
        if len(tot) and tot.min() <= 0:
            raise ValueError(
                "lineitem_order_share: non-positive per-order revenue "
                "total — input violates the positive-revenue domain "
                "precondition (see docstring)")
        rev = df["rev_e4"].to_numpy(dtype=np.int64)
        return pa.table({
            "l_orderkey": pa.array(df["okey"].to_numpy(dtype=np.int64),
                                   pa.int64()),
            "l_linenumber": pa.array(
                df["lno"].to_numpy(dtype=np.int64), pa.int64()),
            "rev_e4": pa.array(rev, pa.int64()),
            "order_rev_e4": pa.array(tot, pa.int64()),
            "share_bp": pa.array(rev * 10_000 // tot, pa.int64()),
        })

    return (lineitem.map_batches(proj, batch_format="pyarrow",
                                 batch_size=1 << 19)
            .sort("okey")
            .map_batches(share, batch_format="pyarrow",
                         batch_size=None))


def customer_revenue_deciles(orders: rd.Dataset) -> rd.Dataset:
    """Distributed NTILE: bucket every customer into a revenue decile
    WITHOUT a global row-number — exact quantile boundary VALUES come
    from a (cents, count) histogram CDF walk on the driver (bounded by
    distinct revenue points, the value_quantiles precedent), broadcast
    into a final vectorized bucketing map.  Boundary rule on BOTH
    engines: b_k = value at 1-based sorted position (k*N + 9) // 10,
    decile(c) = 1 + #{k : c > b_k} — ties on a boundary value share a
    bucket, so the tie-order inside row_number never matters.

    Output: (o_custkey, revenue_cents, decile) — exact int64."""

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "cents" not in df.columns:
            df = pd.DataFrame({
                "o_custkey": df["o_custkey"].to_numpy(dtype=np.int64),
                "cents": _round_half_away(
                    df["o_totalprice"].to_numpy() * 100),
            })
        g = (df.groupby("o_custkey", sort=False)["cents"].sum()
             .reset_index())
        return pa.table({
            "o_custkey": pa.array(g["o_custkey"].to_numpy(), pa.int64()),
            "cents": pa.array(g["cents"].to_numpy(dtype=np.int64),
                              pa.int64()),
        })

    # read twice downstream (histogram + bucketing): materialize once
    per_cust = (orders.map_batches(combine, batch_format="pyarrow",
                                   batch_size=1 << 19)
                .sort("o_custkey")
                .map_batches(combine, batch_format="pyarrow",
                             batch_size=None)
                .materialize())

    def hist(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("cents", sort=False).size().reset_index(name="n")
        return pa.table({
            "cents": pa.array(g["cents"].to_numpy(dtype=np.int64),
                              pa.int64()),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64), pa.int64()),
        })

    acc: dict[int, int] = {}
    for r in per_cust.map_batches(hist, batch_format="pyarrow",
                                  batch_size=1 << 19).take_all():
        acc[r["cents"]] = acc.get(r["cents"], 0) + r["n"]
    vals = np.array(sorted(acc), dtype=np.int64)
    cdf = np.cumsum([acc[int(v)] for v in vals])
    n_total = int(cdf[-1]) if len(cdf) else 0
    bounds = np.array(
        [vals[np.searchsorted(cdf, (k * n_total + 9) // 10)]
         for k in range(1, 10)], dtype=np.int64) if n_total else \
        np.array([], dtype=np.int64)

    def bucket(batch: pa.Table) -> pa.Table:
        c = batch.column("cents").to_numpy(zero_copy_only=False)
        # searchsorted(left) over sorted bounds == #{k : b_k < c}
        dec = 1 + np.searchsorted(bounds, c, side="left")
        return pa.table({
            "o_custkey": batch.column("o_custkey"),
            "revenue_cents": batch.column("cents"),
            "decile": pa.array(dec.astype(np.int64), pa.int64()),
        })

    return per_cust.map_batches(bucket, batch_format="pyarrow")


def trade_matrix(
    lineitem: rd.Dataset,
    supplier: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    nation_names: dict[int, str],
) -> pa.Table:
    """TPC-H Q7-shaped trade-flow matrix: discounted revenue by
    (supplier nation, customer nation) — the longest join chain in the
    engine: lineitem ⋈ supplier (suppkey) ⋈ orders (orderkey) ⋈
    customer (custkey), all three as co-partition sort-merge joins
    (every dim here is SF-scaled; only the fixed 25-row nation map
    rides the closure).

    Scale shape: each hop pre-aggregates before the next shuffle —
    (suppkey, orderkey) partials into hop 1, (orderkey, supp_nat)
    partials out of it, (custkey, supp_nat) into hop 3 — so the
    shuffled row count shrinks monotonically toward the 25x25 matrix;
    the driver folds the final O(625 x blocks) partials (the promo
    precedent).

    Output: pa.Table (supp_nation, cust_nation, revenue_e4, n_items)."""

    def _sup(key, kind, rev, n, p1, p2) -> pa.Table:
        m = len(key)
        return pa.table({
            "key": pa.array(np.asarray(key, np.int64), pa.int64()),
            "kind": pa.array([kind] * m, pa.string()),
            "rev_e4": pa.array(np.asarray(rev, np.int64), pa.int64()),
            "n_items": pa.array(np.asarray(n, np.int64), pa.int64()),
            "p1": pa.array(np.asarray(p1, np.int64), pa.int64()),
            "p2": pa.array(np.asarray(p2, np.int64), pa.int64()),
        })

    def l_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        part = pd.DataFrame({
            "key": df["l_suppkey"].to_numpy(dtype=np.int64),
            "okey": df["l_orderkey"].to_numpy(dtype=np.int64),
            "rev_e4": _rev_e4(df),
            "n_items": np.ones(len(df), np.int64),
        })
        g = (part.groupby(["key", "okey"], sort=False)
             [["rev_e4", "n_items"]].sum().reset_index())
        return _sup(g["key"], "l", g["rev_e4"], g["n_items"],
                    g["okey"], np.zeros(len(g), np.int64))

    def s_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        return _sup(df["s_suppkey"], "s", z, z, z, df["s_nationkey"])

    def merge_supplier(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        s = df[df["kind"] == "s"]
        ln = df[df["kind"] == "l"]
        j = pd.merge(
            ln[["key", "p1", "rev_e4", "n_items"]],
            s[["key", "p2"]].rename(columns={"p2": "snat"}), on="key")
        g = (j.groupby(["p1", "snat"], sort=False)
             [["rev_e4", "n_items"]].sum().reset_index())
        # re-key on orderkey; supplier nation rides p2
        return _sup(g["p1"], "x", g["rev_e4"], g["n_items"],
                    np.zeros(len(g), np.int64), g["snat"])

    def o_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        return _sup(df["o_orderkey"], "o", z, z, df["o_custkey"], z)

    def merge_orders(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        o = df[df["kind"] == "o"]
        x = df[df["kind"] == "x"]
        j = pd.merge(
            x[["key", "p2", "rev_e4", "n_items"]],
            o[["key", "p1"]].rename(columns={"p1": "custkey"}),
            on="key")
        g = (j.groupby(["custkey", "p2"], sort=False)
             [["rev_e4", "n_items"]].sum().reset_index())
        return _sup(g["custkey"], "y", g["rev_e4"], g["n_items"],
                    np.zeros(len(g), np.int64), g["p2"])

    def c_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        return _sup(df["c_custkey"], "c", z, z, df["c_nationkey"], z)

    def merge_customer(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        c = df[df["kind"] == "c"]
        y = df[df["kind"] == "y"]
        j = pd.merge(
            y[["key", "p2", "rev_e4", "n_items"]],
            c[["key", "p1"]].rename(columns={"p1": "cnat"}), on="key")
        g = (j.groupby(["p2", "cnat"], sort=False)
             [["rev_e4", "n_items"]].sum().reset_index())
        return pa.table({
            "snat": pa.array(np.asarray(g["p2"], np.int64), pa.int64()),
            "cnat": pa.array(np.asarray(g["cnat"], np.int64),
                             pa.int64()),
            "rev_e4": pa.array(np.asarray(g["rev_e4"], np.int64),
                               pa.int64()),
            "n_items": pa.array(np.asarray(g["n_items"], np.int64),
                                pa.int64()),
        })

    hop1 = (lineitem.map_batches(l_side, batch_format="pyarrow",
                                 batch_size=1 << 19)
            .union(supplier.map_batches(s_side, batch_format="pyarrow",
                                        batch_size=1 << 19))
            .sort("key")
            .map_batches(merge_supplier, batch_format="pyarrow",
                         batch_size=None))
    hop2 = (hop1
            .union(orders.map_batches(o_side, batch_format="pyarrow",
                                      batch_size=1 << 19))
            .sort("key")
            .map_batches(merge_orders, batch_format="pyarrow",
                         batch_size=None))
    parts = (hop2
             .union(customer.map_batches(c_side, batch_format="pyarrow",
                                         batch_size=1 << 19))
             .sort("key")
             .map_batches(merge_customer, batch_format="pyarrow",
                          batch_size=None))
    acc: dict[tuple[int, int], list[int]] = {}
    for r in parts.take_all():  # O(625 x blocks) — tiny
        a = acc.setdefault((r["snat"], r["cnat"]), [0, 0])
        a[0] += r["rev_e4"]
        a[1] += r["n_items"]
    keys = sorted(acc)
    return pa.table({
        "supp_nation": pa.array([nation_names[k[0]] for k in keys],
                                pa.string()),
        "cust_nation": pa.array([nation_names[k[1]] for k in keys],
                                pa.string()),
        "revenue_e4": pa.array([acc[k][0] for k in keys], pa.int64()),
        "n_items": pa.array([acc[k][1] for k in keys], pa.int64()),
    })


def waiting_suppliers(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    supplier: rd.Dataset,
    *,
    late_days: int = 60,
) -> rd.Dataset:
    """TPC-H Q21-shaped suppliers-who-kept-orders-waiting: count, per
    supplier, the multi-supplier orders in which that supplier was the
    ONLY late one (late = any of its lines shipped more than
    ``late_days`` after the order date — the synth lineitem carries no
    commit/receipt dates, so shipdate-vs-orderdate stands in for Q21's
    receipt-vs-commit lateness; the EXISTS / NOT EXISTS shape is
    preserved exactly).

    Scale shape: lineitem pre-aggregates max(shipdate) per
    (orderkey, suppkey) in each batch (lateness is ANY-line-late ==
    max-shipdate-late, so the partial is max-combinable and the
    shuffle moves one row per (orderkey, suppkey, batch), never raw
    lines); the orderkey sort-merge block holds every supplier of an
    order plus its order row, so the only-late-supplier test completes
    per block and emits per-block (suppkey, c) count partials; the
    final suppkey exchange carries those tiny partials plus the
    supplier table for the name join.  All comparisons are int64
    microsecond arithmetic — hash-exact.

    Output: (s_suppkey, s_name, numwait)."""
    late_us = np.int64(late_days) * 86_400_000_000

    def l_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (pd.DataFrame({
                "key": df["l_orderkey"].to_numpy(),
                "supp": df["l_suppkey"].to_numpy(),
                "ship_us": df["l_shipdate"].astype("int64").to_numpy(),
             })
             .groupby(["key", "supp"], sort=False)["ship_us"].max()
             .reset_index())
        return pa.table({
            "key": pa.array(g["key"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "kind": pa.array(["l"] * len(g), pa.string()),
            "supp": pa.array(g["supp"].to_numpy(dtype=np.int64),
                             pa.int64()),
            "ship_us": pa.array(g["ship_us"].to_numpy(dtype=np.int64),
                                pa.int64()),
        })

    def o_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        m = len(df)
        return pa.table({
            "key": pa.array(df["o_orderkey"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "kind": pa.array(["o"] * m, pa.string()),
            "supp": pa.array(np.zeros(m, np.int64), pa.int64()),
            "ship_us": pa.array(
                df["o_orderdate"].astype("int64").to_numpy(),
                pa.int64()),
        })

    def only_late(batch: pa.Table) -> pa.Table:
        """Per-block orderkey completion: finish the per-(order, supp)
        max, flag lateness vs the in-block order row, keep the sole
        late supplier of each >=2-supplier order, emit count partials."""
        df = batch.to_pandas()
        ln = df[df["kind"] == "l"]
        o = df[df["kind"] == "o"][["key", "ship_us"]].rename(
            columns={"ship_us": "odate_us"})
        if ln.empty or o.empty:
            z = pa.array([], pa.int64())
            return pa.table({"key": z, "c": z,
                             "name": pa.array([], pa.string())})
        g = (ln.groupby(["key", "supp"], sort=False)["ship_us"].max()
             .reset_index())
        j = pd.merge(g, o, on="key")
        j["late"] = (j["ship_us"].to_numpy()
                     > j["odate_us"].to_numpy() + late_us)
        per_o = (j.groupby("key", sort=False)
                 .agg(n_supp=("supp", "size"), n_late=("late", "sum"))
                 .reset_index())
        ok = per_o[(per_o["n_supp"] >= 2) & (per_o["n_late"] == 1)]
        q = j[j["late"] & j["key"].isin(ok["key"])]
        c = q.groupby("supp", sort=False).size().reset_index(name="c")
        m = len(c)
        return pa.table({
            "key": pa.array(c["supp"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "c": pa.array(c["c"].to_numpy(dtype=np.int64), pa.int64()),
            "name": pa.nulls(m, pa.string()),
        })

    def s_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "key": pa.array(df["s_suppkey"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "c": pa.array(np.zeros(len(df), np.int64), pa.int64()),
            "name": pa.array(df["s_name"].tolist(), pa.string()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        s = df[df["name"].notna()][["key", "name"]]
        p = df[df["name"].isna()]
        c = p.groupby("key", sort=False)["c"].sum().reset_index()
        j = pd.merge(c[c["c"] > 0], s, on="key")
        return pa.table({
            "s_suppkey": pa.array(j["key"].to_numpy(dtype=np.int64),
                                  pa.int64()),
            "s_name": pa.array(j["name"].tolist(), pa.string()),
            "numwait": pa.array(j["c"].to_numpy(dtype=np.int64),
                                pa.int64()),
        })

    partials = (
        lineitem.map_batches(l_side, batch_format="pyarrow",
                             batch_size=1 << 19)
        .union(orders.map_batches(o_side, batch_format="pyarrow",
                                  batch_size=1 << 19))
        .sort("key")
        .map_batches(only_late, batch_format="pyarrow",
                     batch_size=None)
    )
    return (
        partials
        .union(supplier.map_batches(s_side, batch_format="pyarrow",
                                    batch_size=1 << 19))
        .sort("key")
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def supplier_part_variety(
    lineitem: rd.Dataset,
    part: rd.Dataset,
    supplier: rd.Dataset,
    *,
    exclude_name_suffix: str = "9",
    exclude_brand: str = "Brand#1",
    sizes: tuple[int, ...] = (1, 9, 19, 29, 39, 49),
) -> rd.Dataset:
    """TPC-H Q16-shaped part/supplier variety: per (brand, type, size)
    over the selected parts, how many DISTINCT suppliers ship it —
    excluding "complaint" suppliers (name ending in
    ``exclude_name_suffix``; the NOT IN anti-join of Q16).

    Scale shape, three exchanges all carrying pre-shrunk rows:
      1. suppkey sort-merge anti-join: lineitem's per-block DISTINCT
         (partkey, suppkey) partials against the excluded-supplier
         marker rows (never a broadcast — the exclusion set is
         SF-scaled).
      2. partkey sort-merge join onto the filtered part projection.
      3. suppkey sort groups every surviving row of a supplier into
         one block, so per-block drop_duplicates is GLOBALLY exact and
         the (brand, type, size) count partials sum without a distinct
         pass; the fixed-cardinality group table (brands x types x
         sizes) finishes in a trivial final sort.

    Output: (p_brand, p_type, p_size, supplier_cnt)."""

    def li_side(batch: pa.Table) -> pa.Table:
        df = (batch.to_pandas()[["l_suppkey", "l_partkey"]]
              .drop_duplicates())
        m = len(df)
        return pa.table({
            "key": pa.array(df["l_suppkey"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "part": pa.array(df["l_partkey"].to_numpy(dtype=np.int64),
                             pa.int64()),
            "excl": pa.array(np.zeros(m, np.int8), pa.int8()),
        })

    def excl_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["s_name"].str.endswith(exclude_name_suffix)]
        m = len(df)
        return pa.table({
            "key": pa.array(df["s_suppkey"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "part": pa.array(np.zeros(m, np.int64), pa.int64()),
            "excl": pa.array(np.ones(m, np.int8), pa.int8()),
        })

    def anti(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        bad = set(df[df["excl"] == 1]["key"].tolist())
        keep = df[(df["excl"] == 0) & ~df["key"].isin(bad)]
        keep = keep.drop_duplicates(["key", "part"])
        m = len(keep)
        return pa.table({
            "key": pa.array(keep["part"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "supp": pa.array(keep["key"].to_numpy(dtype=np.int64),
                             pa.int64()),
            "side": pa.array(np.zeros(m, np.int8), pa.int8()),
            "brand": pa.nulls(m, pa.string()),
            "type": pa.nulls(m, pa.string()),
            "size": pa.array(np.zeros(m, np.int64), pa.int64()),
        })

    def p_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[(df["p_brand"] != exclude_brand)
                & df["p_size"].isin(sizes)]
        m = len(df)
        return pa.table({
            "key": pa.array(df["p_partkey"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "supp": pa.array(np.zeros(m, np.int64), pa.int64()),
            "side": pa.array(np.ones(m, np.int8), pa.int8()),
            "brand": pa.array(df["p_brand"].tolist(), pa.string()),
            "type": pa.array(df["p_type"].tolist(), pa.string()),
            "size": pa.array(df["p_size"].to_numpy(dtype=np.int64),
                             pa.int64()),
        })

    def part_join(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ps = df[df["side"] == 0][["key", "supp"]]
        p = df[df["side"] == 1][["key", "brand", "type", "size"]]
        j = pd.merge(ps, p, on="key")
        return pa.table({
            "key": pa.array(j["supp"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "brand": pa.array(j["brand"].tolist(), pa.string()),
            "type": pa.array(j["type"].tolist(), pa.string()),
            "size": pa.array(j["size"].to_numpy(dtype=np.int64),
                             pa.int64()),
        })

    def count_partial(batch: pa.Table) -> pa.Table:
        """Equal suppkeys land whole per block, so drop_duplicates is
        globally exact here and the group partials sum cleanly."""
        df = (batch.to_pandas()
              .drop_duplicates(["key", "brand", "type", "size"]))
        g = (df.groupby(["brand", "type", "size"], sort=False)
             .size().reset_index(name="c"))
        return pa.table({
            "p_brand": pa.array(g["brand"].tolist(), pa.string()),
            "p_type": pa.array(g["type"].tolist(), pa.string()),
            "p_size": pa.array(g["size"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "c": pa.array(g["c"].to_numpy(dtype=np.int64), pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["p_brand", "p_type", "p_size"], sort=False)
             ["c"].sum().reset_index())
        return pa.table({
            "p_brand": pa.array(g["p_brand"].tolist(), pa.string()),
            "p_type": pa.array(g["p_type"].tolist(), pa.string()),
            "p_size": pa.array(g["p_size"].to_numpy(dtype=np.int64),
                               pa.int64()),
            "supplier_cnt": pa.array(g["c"].to_numpy(dtype=np.int64),
                                     pa.int64()),
        })

    survivors = (
        lineitem.map_batches(li_side, batch_format="pyarrow",
                             batch_size=1 << 19)
        .union(supplier.map_batches(excl_side, batch_format="pyarrow",
                                    batch_size=1 << 19))
        .sort("key")
        .map_batches(anti, batch_format="pyarrow", batch_size=None)
    )
    joined = (
        survivors
        .union(part.map_batches(p_side, batch_format="pyarrow",
                                batch_size=1 << 19))
        .sort("key")
        .map_batches(part_join, batch_format="pyarrow",
                     batch_size=None)
    )
    return (
        joined
        .sort("key")
        .map_batches(count_partial, batch_format="pyarrow",
                     batch_size=None)
        .sort(["p_brand", "p_type", "p_size"])
        .map_batches(complete, batch_format="pyarrow",
                     batch_size=None)
    )


def customer_order_distribution(
    orders: rd.Dataset,
    customer: rd.Dataset,
) -> rd.Dataset:
    """TPC-H Q13-shaped customer distribution: how many customers placed
    exactly N orders, INCLUDING the zero-order customers the left join
    contributes (the shape Q13 exists to test).

    Scale shape: orders pre-count per custkey per batch (the shuffle
    moves one partial per (custkey, batch)); the custkey sort-merge
    block completes each customer's count with left-join zero-fill and
    emits per-block histogram partials, so the final exchange carries
    O(distinct counts) rows per block — the order-count domain, not the
    customer count.

    Output: (c_count, custdist)."""

    def o_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby("o_custkey", sort=False)
             .size().reset_index(name="n"))
        return pa.table({
            "key": pa.array(g["o_custkey"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "n": pa.array(g["n"].to_numpy(dtype=np.int64), pa.int64()),
            "is_cust": pa.array(np.zeros(len(g), np.int8), pa.int8()),
        })

    def c_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        m = len(df)
        return pa.table({
            "key": pa.array(df["c_custkey"].to_numpy(dtype=np.int64),
                            pa.int64()),
            "n": pa.array(np.zeros(m, np.int64), pa.int64()),
            "is_cust": pa.array(np.ones(m, np.int8), pa.int8()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        """Equal custkeys land whole per block: finish each customer's
        order count (0 when only the customer row is present — orders
        with no matching customer row are dropped, mirroring the left
        join) and fold the block's histogram."""
        df = batch.to_pandas()
        c = df[df["is_cust"] == 1][["key"]]
        if c.empty:
            z = pa.array([], pa.int64())
            return pa.table({"c_count": z, "d": z})
        o = (df[df["is_cust"] == 0].groupby("key", sort=False)["n"]
             .sum().reset_index())
        j = pd.merge(c, o, on="key", how="left").fillna({"n": 0})
        h = (j.groupby("n", sort=False).size()
             .reset_index(name="d"))
        return pa.table({
            "c_count": pa.array(h["n"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "d": pa.array(h["d"].to_numpy(dtype=np.int64), pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("c_count", sort=False)["d"].sum().reset_index()
        return pa.table({
            "c_count": pa.array(g["c_count"].to_numpy(dtype=np.int64),
                                pa.int64()),
            "custdist": pa.array(g["d"].to_numpy(dtype=np.int64),
                                 pa.int64()),
        })

    return (
        orders.map_batches(o_side, batch_format="pyarrow",
                           batch_size=1 << 19)
        .union(customer.map_batches(c_side, batch_format="pyarrow",
                                    batch_size=1 << 19))
        .sort("key")
        .map_batches(complete, batch_format="pyarrow", batch_size=None)
        .sort("c_count")
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def value_concentration(
    lineitem: rd.Dataset,
    *,
    fraction_denom: int = 10_000,
) -> rd.Dataset:
    """TPC-H Q11-shaped value concentration: (supplier, part) cells
    whose discounted revenue exceeds ``1/fraction_denom`` of the
    GLOBAL total — the correlated-scalar-subquery shape (HAVING >
    SUM(...) * fraction), re-expressed without one.

    Scale shape: batch-local integer partial sums per (suppkey,
    partkey) pre-shuffle, one composite-key sort completes the cells
    per block, and the cell table is MATERIALIZED once (it feeds both
    the global total and the filter — Ray does no CSE).  The global
    total folds ONE partial row per block on the driver (order-free
    int64 sums), and the threshold broadcasts back into a stateless
    filter map.  Threshold arithmetic is integer: keep cells with
    ``value_e4 * fraction_denom > total`` (exactly Q11's
    ``value > total * (1/denom)`` without the float).

    Output: (l_suppkey, l_partkey, value_e4)."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        part = pd.DataFrame({
            "s": df["l_suppkey"].to_numpy(),
            "p": df["l_partkey"].to_numpy(),
            "v": _rev_e4(df),
        })
        g = (part.groupby(["s", "p"], sort=False)["v"].sum()
             .reset_index())
        return pa.table({
            "l_suppkey": pa.array(g["s"].to_numpy(dtype=np.int64),
                                  pa.int64()),
            "l_partkey": pa.array(g["p"].to_numpy(dtype=np.int64),
                                  pa.int64()),
            "value_e4": pa.array(g["v"].to_numpy(dtype=np.int64),
                                 pa.int64()),
        })

    def complete(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["l_suppkey", "l_partkey"], sort=False)
             ["value_e4"].sum().reset_index())
        return pa.table({
            "l_suppkey": pa.array(
                g["l_suppkey"].to_numpy(dtype=np.int64), pa.int64()),
            "l_partkey": pa.array(
                g["l_partkey"].to_numpy(dtype=np.int64), pa.int64()),
            "value_e4": pa.array(
                g["value_e4"].to_numpy(dtype=np.int64), pa.int64()),
        })

    cells = (lineitem.map_batches(partial, batch_format="pyarrow",
                                  batch_size=1 << 19)
             .sort(["l_suppkey", "l_partkey"])
             .map_batches(complete, batch_format="pyarrow",
                          batch_size=None)
             .materialize())  # consumed by total fold AND filter

    def total_partial(batch: pa.Table) -> pa.Table:
        return pa.table({"t": pa.array(
            [int(batch.column("value_e4").to_pandas().sum())],
            pa.int64())})

    total = sum(r["t"] for r in cells.map_batches(
        total_partial, batch_format="pyarrow").take_all())

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = batch.column("value_e4")
        mask = pc.greater(
            pc.multiply(v, pa.scalar(fraction_denom, pa.int64())),
            pa.scalar(total, pa.int64()))
        return batch.filter(mask)

    return cells.map_batches(keep, batch_format="pyarrow")


def small_qty_revenue(
    lineitem: rd.Dataset,
    part: rd.Dataset,
) -> rd.Dataset:
    """TPC-H Q17-shaped CORRELATED-threshold filter: revenue of lines
    whose quantity is below 20% of their part's average quantity,
    rolled up per brand (cf. reference-free small-order promotion
    analysis).  The per-group threshold is the shape Q17 exercises —
    a self-aggregate joined back against its own detail rows.

    Distributed shape: ONE sort on l_partkey.  Detail lines, batch-
    local per-part partials (n, sum_q100) and the part-dim brand rows
    all carry the same key, so the range partitioner co-locates a
    part's full evidence in one block; the per-block pass folds the
    partials, applies the integer-exact threshold
    ``5 * q100 * n < sum_q100`` (== quantity < 0.2 * avg, scaled by
    100) and emits tiny per-brand partials.  A second sort on the
    handful of brand partials completes.

    Domain: quantities are non-negative (TPC-H shape), so the integer
    comparison and the ``// 7`` floor agree with the SQL oracle.

    Output: (p_brand, n_lines, total_cents, avg_yearly_c7)."""

    def li_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        k = df["l_partkey"].to_numpy(np.int64)
        q100 = _round_half_away(df["l_quantity"].to_numpy() * 100)
        cents = _round_half_away(df["l_extendedprice"].to_numpy() * 100)
        # batch-local per-part partials ride along with the lines
        g = pd.DataFrame({"k": k, "n": 1, "sumq": q100}).groupby(
            "k", sort=False).sum().reset_index()
        return pa.table({
            "key": pa.array(np.concatenate([k, g["k"].to_numpy(np.int64)]),
                            pa.int64()),
            "kind": pa.array(np.concatenate(
                [np.ones(len(k), np.int64),
                 np.zeros(len(g), np.int64)]), pa.int64()),
            "a": pa.array(np.concatenate(
                [q100, g["n"].to_numpy(np.int64)]), pa.int64()),
            "b": pa.array(np.concatenate(
                [cents, g["sumq"].to_numpy(np.int64)]), pa.int64()),
            "s": pa.array([""] * (len(k) + len(g)), pa.string()),
        })

    def p_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        k = df["p_partkey"].to_numpy(np.int64)
        return pa.table({
            "key": pa.array(k, pa.int64()),
            "kind": pa.array(np.full(len(k), 2, np.int64), pa.int64()),
            "a": pa.array(np.zeros(len(k), np.int64), pa.int64()),
            "b": pa.array(np.zeros(len(k), np.int64), pa.int64()),
            "s": pa.array(df["p_brand"].tolist(), pa.string()),
        })

    def per_part(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "p_brand": pa.array([], pa.string()),
            "n_lines": pa.array([], pa.int64()),
            "total_cents": pa.array([], pa.int64()),
        })
        df = batch.to_pandas()
        lines = df[df["kind"] == 1]
        if lines.empty:
            return empty
        st = (df[df["kind"] == 0].groupby("key", sort=False)
              .agg(n=("a", "sum"), sumq=("b", "sum")))
        brand = df[df["kind"] == 2].set_index("key")["s"]
        n = st["n"].reindex(lines["key"]).to_numpy(np.int64)
        sumq = st["sumq"].reindex(lines["key"]).to_numpy(np.int64)
        mask = 5 * lines["a"].to_numpy(np.int64) * n < sumq
        qual = lines[mask]
        if qual.empty:
            return empty
        g = (pd.DataFrame({
            "p_brand": brand.reindex(qual["key"]).to_numpy(object),
            "cents": qual["b"].to_numpy(np.int64),
        }).groupby("p_brand", sort=False)
            .agg(n_lines=("cents", "size"), total_cents=("cents", "sum"))
            .reset_index())
        return pa.table({
            "p_brand": pa.array(g["p_brand"].tolist(), pa.string()),
            "n_lines": pa.array(g["n_lines"].to_numpy(np.int64),
                                pa.int64()),
            "total_cents": pa.array(g["total_cents"].to_numpy(np.int64),
                                    pa.int64()),
        })

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({
                "p_brand": pa.array([], pa.string()),
                "n_lines": pa.array([], pa.int64()),
                "total_cents": pa.array([], pa.int64()),
                "avg_yearly_c7": pa.array([], pa.int64()),
            })
        g = (df.groupby("p_brand", sort=False)
             .agg(n_lines=("n_lines", "sum"),
                  total_cents=("total_cents", "sum")).reset_index())
        tc = g["total_cents"].to_numpy(np.int64)
        return pa.table({
            "p_brand": pa.array(g["p_brand"].tolist(), pa.string()),
            "n_lines": pa.array(g["n_lines"].to_numpy(np.int64),
                                pa.int64()),
            "total_cents": pa.array(tc, pa.int64()),
            "avg_yearly_c7": pa.array(tc // 7, pa.int64()),
        })

    tagged = (lineitem.map_batches(li_rows, batch_format="pyarrow",
                                   batch_size=None)
              .union(part.map_batches(p_rows, batch_format="pyarrow")))
    return (tagged.sort("key")
            .map_batches(per_part, batch_format="pyarrow",
                         batch_size=None)
            .sort("p_brand")
            .map_batches(finish, batch_format="pyarrow",
                         batch_size=None))


def top_supplier(
    lineitem: rd.Dataset,
    supplier: rd.Dataset,
    *,
    date_from: str = "1996-01-01",
    date_to: str = "1996-04-01",
) -> rd.Dataset:
    """TPC-H Q15-shaped GLOBAL-MAX selection: the supplier(s) whose
    windowed revenue equals the corpus-wide maximum — a groupwise
    aggregate, a global max over it, and an equality join back (Q15's
    revenue view + its correlated ``= max(total_revenue)``).

    Scale shape, auto-selected by ``TOP_SUPPLIER_FOLD_ROWS`` (the
    market_share precedent): the aggregate is supplier-bounded, so
    when the supplier dim fits the cap the whole query is ONE
    streaming pass over lineitem — per-block (suppkey, rev) integer
    partials fold on the driver (compacted to O(n_suppliers) as they
    stream; integer sums are exactly associative, block-split
    invariant), the global max and winner set drop out of the fold,
    and winner names are fetched by a distributed supplier filter
    (tiny survivors): ZERO wide ops, vs two fixed-overhead sorts +
    a materialize on the chained path.  Above the cap it falls back
    to the sorted co-partition chain: partials combine batch-locally,
    ONE sort on suppkey completes exact totals in-block, the max
    folds O(blocks) per-block maxima, and the winners filter +
    supplier-name join run in a final sorted pass over totals ∪
    supplier rows.  Revenue is the exact integer
    rev_e4 = cents * (100 - disc_pct) on both paths.

    Output: (s_suppkey, s_name, total_revenue_e4) — every supplier
    tied at the maximum (deterministic, no arbitrary tie-break)."""
    lo, hi = _ts_us(date_from), _ts_us(date_to)

    def rev_partials(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if "rev" not in df.columns:
            ts = df["l_shipdate"].astype("int64").to_numpy()
            df = df[(ts >= lo) & (ts < hi)]
            cents = _round_half_away(df["l_extendedprice"].to_numpy()
                                     * 100)
            disc = _round_half_away(df["l_discount"].to_numpy() * 100)
            df = pd.DataFrame({
                "k": df["l_suppkey"].to_numpy(np.int64),
                "rev": cents * (100 - disc),
            })
        g = df.groupby("k", sort=False)["rev"].sum().reset_index()
        return pa.table({
            "k": pa.array(g["k"].to_numpy(np.int64), pa.int64()),
            "rev": pa.array(g["rev"].to_numpy(np.int64), pa.int64()),
        })

    _empty_out = pa.table({
        "s_suppkey": pa.array([], pa.int64()),
        "s_name": pa.array([], pa.string()),
        "total_revenue_e4": pa.array([], pa.int64()),
    })

    n_supp = supplier.count()
    if n_supp <= TOP_SUPPLIER_FOLD_ROWS:
        # ---- broadcast-fold path: one streaming pass, zero wide ops
        parts = lineitem.map_batches(rev_partials,
                                     batch_format="pyarrow",
                                     batch_size=None)
        uk = np.empty(0, np.int64)
        tot = np.empty(0, np.int64)
        pend_k, pend_r, pend_n = [uk], [tot], 0

        def _compact(ks: list, rs: list) -> tuple:
            k = np.concatenate(ks)
            r = np.concatenate(rs)
            u, inv = np.unique(k, return_inverse=True)
            t = np.zeros(len(u), np.int64)
            np.add.at(t, inv, r)
            return u, t

        for blk in parts.iter_batches(batch_format="pyarrow",
                                      batch_size=None):
            pend_k.append(blk.column("k").to_numpy(
                zero_copy_only=False).astype(np.int64))
            pend_r.append(blk.column("rev").to_numpy(
                zero_copy_only=False).astype(np.int64))
            pend_n += len(pend_k[-1])
            # keep driver state O(n_suppliers), not O(blocks × supp)
            if pend_n >= 4 * max(n_supp, 1):
                uk, tot = _compact(pend_k, pend_r)
                pend_k, pend_r, pend_n = [uk], [tot], len(uk)
        uk, tot = _compact(pend_k, pend_r)
        if len(uk) == 0:
            return rd.from_arrow(_empty_out)
        m_rev = int(tot.max())
        winners = np.sort(uk[tot == m_rev])

        def name_rows(batch: pa.Table) -> pa.Table:
            s = batch.column("s_suppkey").to_numpy(
                zero_copy_only=False).astype(np.int64)
            return batch.filter(pa.array(np.isin(s, winners)))

        rows = supplier.map_batches(name_rows,
                                    batch_format="pyarrow").take_all()
        names = {int(r["s_suppkey"]): r["s_name"] for r in rows}
        # inner-join semantics: winners without a supplier-dim row drop
        keep = [int(k) for k in winners if int(k) in names]
        return rd.from_arrow(pa.table({
            "s_suppkey": pa.array(keep, pa.int64()),
            "s_name": pa.array([names[k] for k in keep], pa.string()),
            "total_revenue_e4": pa.array([m_rev] * len(keep),
                                         pa.int64()),
        }))

    # ---- sorted co-partition chain (above-cap fallback)
    totals = (lineitem.map_batches(rev_partials, batch_format="pyarrow",
                                   batch_size=None)
              .sort("k")
              .map_batches(rev_partials, batch_format="pyarrow",
                           batch_size=None)
              .materialize())

    def block_max(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return pa.table({"m": pa.array([], pa.int64())})
        return pa.table({"m": pa.array([int(df["rev"].max())],
                                       pa.int64())})

    maxima = totals.map_batches(block_max, batch_format="pyarrow",
                                batch_size=None).take_all()
    if not maxima:
        return rd.from_arrow(pa.table({
            "s_suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "total_revenue_e4": pa.array([], pa.int64()),
        }))
    m = max(r["m"] for r in maxima)

    def t_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["rev"] == m]
        return pa.table({
            "k": pa.array(df["k"].to_numpy(np.int64), pa.int64()),
            "rev": pa.array(df["rev"].to_numpy(np.int64), pa.int64()),
            "name": pa.array([""] * len(df), pa.string()),
            "kind": pa.array(np.zeros(len(df), np.int64), pa.int64()),
        })

    def s_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table({
            "k": pa.array(df["s_suppkey"].to_numpy(np.int64), pa.int64()),
            "rev": pa.array(np.zeros(len(df), np.int64), pa.int64()),
            "name": pa.array(df["s_name"].tolist(), pa.string()),
            "kind": pa.array(np.ones(len(df), np.int64), pa.int64()),
        })

    def join_name(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "s_suppkey": pa.array([], pa.int64()),
            "s_name": pa.array([], pa.string()),
            "total_revenue_e4": pa.array([], pa.int64()),
        })
        df = batch.to_pandas()
        w = df[df["kind"] == 0]
        if w.empty:
            return empty
        names = df[df["kind"] == 1].set_index("k")["name"]
        # inner-join semantics: a winner suppkey with no supplier-dim
        # row is dropped (matches the oracle's INNER JOIN; reindex
        # would otherwise yield NaN and pa.array(..., string) raises)
        w = w[w["k"].isin(names.index)]
        if w.empty:
            return empty
        return pa.table({
            "s_suppkey": pa.array(w["k"].to_numpy(np.int64), pa.int64()),
            "s_name": pa.array(names.reindex(w["k"]).tolist(),
                               pa.string()),
            "total_revenue_e4": pa.array(w["rev"].to_numpy(np.int64),
                                         pa.int64()),
        })

    tagged = (totals.map_batches(t_rows, batch_format="pyarrow",
                                 batch_size=None)
              .union(supplier.map_batches(s_rows,
                                          batch_format="pyarrow")))
    return (tagged.sort("k")
            .map_batches(join_name, batch_format="pyarrow",
                         batch_size=None))


def market_share(
    lineitem: rd.Dataset,
    supplier: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    nation_map: dict[int, tuple[str, str]],
    *,
    target_nation: str = "NATION_3",
    region: str = "ASIA",
) -> pa.Table:
    """TPC-H Q8-shaped national MARKET SHARE: per order year, the
    fraction of revenue sold into ``region`` that was supplied by
    ``target_nation`` — the two-sided dimension chain (supplier nation
    at the fact side, customer region as the filter) with a
    share-of-total output.

    Scale shape, auto-selected by ``MARKET_SHARE_FOLD_KEYS`` (the
    top_supplier precedent): when the region-qualified
    order set and the supplier dim fit the cap, the dimension chain
    BROADCASTS — region custkeys and target suppkeys are fetched by
    distributed filters (tiny survivors, the load_queries pattern),
    the qualified (orderkey → year) map ships once via ``ray.put``,
    and the whole query is ONE streaming pass over lineitem with
    per-block (year, is_target) partials folded on the driver: ZERO
    wide ops (each chained sort costs seconds of fixed scheduling at
    any scale, measured r05).  Above the cap it falls back to the
    3-hop co-partition sort chain ordered MOST-SELECTIVE FIRST (r04
    judge finding): orders⋈customer(region) on custkey, then
    lineitem⋈qualified on orderkey (the only full-volume sort), then
    the supplier hop.  Share is the exact integer pair
    (nation_rev_e4, total_rev_e4) plus share_bp = nation*10^4 //
    total (non-negative); identical arithmetic on both paths.

    Output: pa.Table (o_year, nation_rev_e4, total_rev_e4, share_bp)."""
    tgt = {k for k, (n, _) in nation_map.items() if n == target_nation}
    in_region = {k for k, (_, r) in nation_map.items() if r == region}

    def _collect_keys(ds: rd.Dataset, key_col: str, filt_col: str,
                      keep: set[int]) -> np.ndarray | None:
        """Distributed dim filter (``filt_col`` in ``keep``) -> driver
        fetch of the (tiny) surviving ``key_col`` values, sorted;
        None when the survivors exceed the cap."""
        def f(batch: pa.Table) -> pa.Table:
            m = np.isin(
                batch.column(filt_col).to_numpy(zero_copy_only=False)
                .astype(np.int64), list(keep))
            return batch.select([key_col]).filter(pa.array(m))

        parts = ds.map_batches(f, batch_format="pyarrow").take_all()
        if len(parts) > MARKET_SHARE_FOLD_KEYS:
            return None
        return np.sort(np.asarray([r[key_col] for r in parts],
                                  np.int64))

    ck = _collect_keys(customer, "c_custkey", "c_nationkey", in_region)
    # supplier filter keeps TARGET-nation suppliers only; everything
    # else contributes to the denominator with is_target=0
    sk = (_collect_keys(supplier, "s_suppkey", "s_nationkey", tgt)
          if ck is not None else None)
    if ck is not None and sk is not None:

        def o_qual(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            c = df["o_custkey"].to_numpy(np.int64)
            df = df[_in_sorted(ck, c)]
            yr = pd.to_datetime(df["o_orderdate"]).dt.year
            return pa.table({
                "okey": pa.array(df["o_orderkey"].to_numpy(np.int64),
                                 pa.int64()),
                "yr": pa.array(yr.to_numpy(np.int64), pa.int64()),
            })

        qual = orders.map_batches(o_qual,
                                  batch_format="pyarrow").take_all()
        if len(qual) <= MARKET_SHARE_FOLD_KEYS:
            ok = np.asarray([r["okey"] for r in qual], np.int64)
            yv = np.asarray([r["yr"] for r in qual], np.int64)
            order_ix = np.argsort(ok, kind="stable")
            ok, yv = ok[order_ix], yv[order_ix]
            shipped = ray.put((ok, yv, sk))

            def l_fold(batch: pa.Table) -> pa.Table:
                o_keys, o_years, t_supp = ray.get(shipped)
                df = batch.to_pandas()
                k = df["l_orderkey"].to_numpy(np.int64)
                m = _in_sorted(o_keys, k)
                df = df[m]
                years = o_years[np.searchsorted(o_keys, k)[m]] \
                    if len(o_keys) else np.empty(0, np.int64)
                s = df["l_suppkey"].to_numpy(np.int64)
                is_t = _in_sorted(t_supp, s).astype(np.int64)
                g = (pd.DataFrame({"yr": years, "is_t": is_t,
                                   "rev_e4": _rev_e4(df)})
                     .groupby(["yr", "is_t"], sort=False)["rev_e4"]
                     .sum().reset_index())
                return pa.table({
                    "p1": pa.array(g["yr"].to_numpy(np.int64),
                                   pa.int64()),
                    "p2": pa.array(g["is_t"].to_numpy(np.int64),
                                   pa.int64()),
                    "rev_e4": pa.array(g["rev_e4"].to_numpy(np.int64),
                                       pa.int64()),
                })

            parts = lineitem.map_batches(
                l_fold, batch_format="pyarrow").take_all()
            acc: dict[tuple[int, int], int] = {}
            for r in parts:  # O(years x 2 x blocks) — tiny
                key = (r["p1"], r["p2"])
                acc[key] = acc.get(key, 0) + r["rev_e4"]
            return _market_share_finish(acc)

    def _sup(key, kind, rev, p1, p2) -> pa.Table:
        m = len(key)
        return pa.table({
            "key": pa.array(np.asarray(key, np.int64), pa.int64()),
            "kind": pa.array([kind] * m, pa.string()),
            "rev_e4": pa.array(np.asarray(rev, np.int64), pa.int64()),
            "p1": pa.array(np.asarray(p1, np.int64), pa.int64()),
            "p2": pa.array(np.asarray(p2, np.int64), pa.int64()),
        })

    def c_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keep = np.isin(df["c_nationkey"].to_numpy(np.int64),
                       list(in_region))
        df = df[keep]
        z = np.zeros(len(df), np.int64)
        return _sup(df["c_custkey"].to_numpy(np.int64), "c", z, z, z)

    def o_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        yr = pd.to_datetime(df["o_orderdate"]).dt.year
        return _sup(df["o_custkey"].to_numpy(np.int64), "o", z,
                    df["o_orderkey"].to_numpy(np.int64),
                    yr.to_numpy(np.int64))

    def hop1(batch: pa.Table) -> pa.Table:
        # custkey-sorted block: region-qualified orders only
        df = batch.to_pandas()
        c = df[df["kind"] == "c"]
        o = df[df["kind"] == "o"]
        if o.empty:
            return _sup([], "1", [], [], [])
        j = o[o["key"].isin(set(c["key"]))]
        # re-key on orderkey; carry year
        return _sup(j["p1"], "1",
                    np.zeros(len(j), np.int64),
                    j["p2"], np.zeros(len(j), np.int64))

    def l_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        part = pd.DataFrame({
            "key": df["l_orderkey"].to_numpy(np.int64),
            "sk": df["l_suppkey"].to_numpy(np.int64),
            "rev_e4": _rev_e4(df),
        })
        g = (part.groupby(["key", "sk"], sort=False)["rev_e4"]
             .sum().reset_index())
        return _sup(g["key"], "l", g["rev_e4"], g["sk"],
                    np.zeros(len(g), np.int64))

    def hop2(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        q = df[df["kind"] == "1"]
        ln = df[df["kind"] == "l"]
        if ln.empty or q.empty:
            return _sup([], "2", [], [], [])
        j = pd.merge(ln[["key", "p1", "rev_e4"]]
                     .rename(columns={"p1": "sk"}),
                     q[["key", "p1"]].rename(columns={"p1": "yr"}),
                     on="key")
        # re-key on suppkey; carry year
        g = (j.groupby(["sk", "yr"], sort=False)["rev_e4"]
             .sum().reset_index())
        return _sup(g["sk"], "2", g["rev_e4"], g["yr"],
                    np.zeros(len(g), np.int64))

    def s_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        is_t = np.isin(df["s_nationkey"].to_numpy(np.int64),
                       list(tgt)).astype(np.int64)
        return _sup(df["s_suppkey"], "s", z, z, is_t)

    def hop3(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        s = df[df["kind"] == "s"]
        f = df[df["kind"] == "2"]
        if f.empty:
            return _sup([], "3", [], [], [])
        j = pd.merge(f[["key", "p1", "rev_e4"]]
                     .rename(columns={"p1": "yr"}),
                     s[["key", "p2"]].rename(columns={"p2": "is_t"}),
                     on="key")
        g = (j.groupby(["yr", "is_t"], sort=False)["rev_e4"]
             .sum().reset_index())
        return _sup(np.zeros(len(g), np.int64), "3", g["rev_e4"],
                    g["yr"], g["is_t"])

    h1 = (orders.map_batches(o_side, batch_format="pyarrow",
                             batch_size=None)
          .union(customer.map_batches(c_side, batch_format="pyarrow"))
          .sort("key")
          .map_batches(hop1, batch_format="pyarrow", batch_size=None))
    h2 = (h1.union(lineitem.map_batches(l_side, batch_format="pyarrow",
                                        batch_size=None))
          .sort("key")
          .map_batches(hop2, batch_format="pyarrow", batch_size=None))
    h3 = (h2.union(supplier.map_batches(s_side,
                                        batch_format="pyarrow"))
          .sort("key")
          .map_batches(hop3, batch_format="pyarrow", batch_size=None))

    acc: dict[tuple[int, int], int] = {}
    for r in h3.take_all():
        k = (r["p1"], r["p2"])
        acc[k] = acc.get(k, 0) + r["rev_e4"]
    return _market_share_finish(acc)


def _in_sorted(sorted_keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``values`` in a SORTED key array
    (searchsorted probe); empty key sets yield all-False instead of a
    negative-index crash."""
    if len(sorted_keys) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_keys, values)
    return ((pos < len(sorted_keys))
            & (sorted_keys[np.minimum(pos, len(sorted_keys) - 1)]
               == values))


def _market_share_finish(acc: dict[tuple[int, int], int]) -> pa.Table:
    """Fold the (year, is_target) -> rev_e4 partials into the Q8
    output; shared by the broadcast and sorted market_share paths."""
    years = sorted({y for y, _ in acc})
    nat = np.asarray([acc.get((y, 1), 0) for y in years], np.int64)
    tot = np.asarray([acc.get((y, 0), 0) + acc.get((y, 1), 0)
                      for y in years], np.int64)
    return pa.table({
        "o_year": pa.array(np.asarray(years, np.int64), pa.int64()),
        "nation_rev_e4": pa.array(nat, pa.int64()),
        "total_rev_e4": pa.array(tot, pa.int64()),
        "share_bp": pa.array(nat * 10_000 // np.maximum(tot, 1),
                             pa.int64()),
    })


def returned_top(
    lineitem: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    nation_map: dict[int, tuple[str, str]],
    *,
    returnflag: str = "R",
    date_from: str = "1996-01-01",
    date_to: str = "1996-04-01",
    k: int = 20,
) -> pa.Table:
    """TPC-H Q10-shaped returned-item ranking: the ``k`` customers who
    generated the most revenue on RETURNED items ('R' lineitems) for
    orders placed in one quarter — the lost-revenue triage list.

    Scale shape (the Q5 co-partition template): returned lineitems
    pre-aggregate revenue per orderkey batch-locally BEFORE the first
    shuffle; the orderkey sort-merge join emits custkey partials that
    pre-aggregate again before the custkey join; customer rows carry
    (c_name, c_nationkey) through the union superset; nation names
    broadcast.  After the custkey sort every customer's total is
    block-complete, so each block emits only its LOCAL top-``k`` by
    (revenue DESC, custkey ASC) and the driver merges O(blocks x k)
    rows — no global sort of the customer dimension, no driver
    materialization of per-customer totals.  Revenue is the exact
    integer rev_e4 = cents x (100 - disc_pct).

    Output pa.Table: (c_custkey, c_name, n_name, revenue_e4, n_items),
    ordered (revenue_e4 DESC, c_custkey ASC), at most ``k`` rows."""
    lo, hi = _ts_us(date_from), _ts_us(date_to)

    def _sup(key, kind, rev, n, payload, name) -> pa.Table:
        m = len(key)
        return pa.table({
            "key": pa.array(np.asarray(key, np.int64), pa.int64()),
            "kind": pa.array([kind] * m, pa.string()),
            "rev_e4": pa.array(np.asarray(rev, np.int64), pa.int64()),
            "n_items": pa.array(np.asarray(n, np.int64), pa.int64()),
            "payload": pa.array(np.asarray(payload, np.int64),
                                pa.int64()),
            "name": pa.array(list(name), pa.string()),
        })

    def l_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["l_returnflag"].to_numpy() == returnflag]
        part = pd.DataFrame({
            "key": df["l_orderkey"].to_numpy(),
            "rev_e4": _rev_e4(df),
            "n_items": np.ones(len(df), np.int64),
        })
        g = part.groupby("key", sort=False).sum().reset_index()
        m = len(g)
        return _sup(g["key"], "l", g["rev_e4"], g["n_items"],
                    np.zeros(m, np.int64), [""] * m)

    def o_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts = df["o_orderdate"].astype("int64").to_numpy()
        df = df[(ts >= lo) & (ts < hi)]
        z = np.zeros(len(df), np.int64)
        return _sup(df["o_orderkey"], "o", z, z, df["o_custkey"],
                    [""] * len(df))

    def merge_orders(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        o = df[df["kind"] == "o"]
        ln = df[df["kind"] == "l"]
        j = pd.merge(
            ln[["key", "rev_e4", "n_items"]],
            o[["key", "payload"]].rename(
                columns={"payload": "custkey"}),
            on="key")
        g = (j.groupby("custkey", sort=False)
             [["rev_e4", "n_items"]].sum().reset_index())
        m = len(g)
        return _sup(g["custkey"], "x", g["rev_e4"], g["n_items"],
                    np.zeros(m, np.int64), [""] * m)

    def c_side(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        z = np.zeros(len(df), np.int64)
        return _sup(df["c_custkey"], "c", z, z, df["c_nationkey"],
                    df["c_name"].tolist())

    order = [("revenue_e4", "descending"), ("c_custkey", "ascending")]

    def totals(batch: pa.Table) -> pa.Table:
        """custkey totals are block-complete after the sort: emit the
        block's local top-k only."""
        df = batch.to_pandas()
        c = df[df["kind"] == "c"]
        x = df[df["kind"] == "x"]
        tot = (x.groupby("key", sort=False)
               [["rev_e4", "n_items"]].sum().reset_index())
        j = pd.merge(tot,
                     c[["key", "payload", "name"]].rename(
                         columns={"payload": "nationkey"}),
                     on="key")
        return grouped_topk(pa.table({
            "c_custkey": pa.array(j["key"].to_numpy(np.int64),
                                  pa.int64()),
            "c_name": pa.array(j["name"].tolist(), pa.string()),
            "nationkey": pa.array(j["nationkey"].to_numpy(np.int64),
                                  pa.int64()),
            "revenue_e4": pa.array(j["rev_e4"].to_numpy(np.int64),
                                   pa.int64()),
            "n_items": pa.array(j["n_items"].to_numpy(np.int64),
                                pa.int64()),
        }), [], order, k)

    joined = (
        lineitem.map_batches(l_side, batch_format="pyarrow",
                             batch_size=1 << 19)
        .union(orders.map_batches(o_side, batch_format="pyarrow",
                                  batch_size=1 << 19))
        .sort("key")
        .map_batches(merge_orders, batch_format="pyarrow",
                     batch_size=None)
        .union(customer.map_batches(c_side, batch_format="pyarrow",
                                    batch_size=1 << 19))
        .sort("key")
        .map_batches(totals, batch_format="pyarrow",
                     batch_size=None)
    )
    top = topk_complete(  # O(k + block) rows
        joined, [], order, k, empty=pa.schema([
            ("c_custkey", pa.int64()), ("c_name", pa.string()),
            ("nationkey", pa.int64()), ("revenue_e4", pa.int64()),
            ("n_items", pa.int64())]).empty_table())
    return pa.table({
        "c_custkey": top.column("c_custkey"),
        "c_name": top.column("c_name"),
        "n_name": pa.array(
            [nation_map.get(n, ("", ""))[0]
             for n in top.column("nationkey").to_pylist()], pa.string()),
        "revenue_e4": top.column("revenue_e4"),
        "n_items": top.column("n_items"),
    })
