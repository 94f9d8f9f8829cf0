"""Relational pipelines over the TPC-H-shaped side tables.

  pricing_summary    Q1-shaped scan + wide aggregate over `lineitem`
  revenue_by_nation  Q5-shaped multi-join: lineitem ⋈ orders ⋈
                     customer (two keyed joins, the fact side
                     pre-aggregated BEFORE each one) ⋈ nation ⋈ region
                     (driver-side broadcast of the fixed-25/5-row
                     dimensions)
  customers_without_orders  anti-join (NOT EXISTS shape): per-batch
                     distinct-key reduction of the probe side, then one
                     keyed join
  top_orders_per_customer  grouped top-k (window row_number() <= k):
                     per-batch local top-k partials, one keyed
                     completion with the final rank
  promo_revenue_by_month  Q14-shaped promo report: fact pre-aggregated
                     per (partkey, month), ONE keyed join with part
                     (which scales with SF — never broadcast),
                     month-bounded driver fold
  top_unshipped_orders  Q3-shaped top-10: segment semi-join, orderkey
                     join, per-group local top-k partials
  revenue_by_supplier_nation  supply-side revenue per supplier nation
                     (covers the supplier table; fixed-25 driver fold)
  order_priority_counts  Q4-shaped EXISTS semi-join aggregate: probe
                     side reduced to distinct qualifying orderkeys per
                     batch, semi-join, tiny count finish
  revenue_rollup     GROUP BY ROLLUP in one join: the join emits every
                     group row at all three hierarchy levels ('ALL'
                     sentinel), facts never re-scanned

Join strategy: `ray.data.Dataset.join` is unusable at 2.49 (see
CLAUDE.md rule 5), so every equi-join is one
:func:`arrowutil.cogroup`: the rows of each side with equal keys meet
in one completion, which joins them with ``pa.Table.join``,
``pc.is_in`` or ``pc.index_in``.  Under ``FOLD_MAX_BYTES`` the sides
fold on the driver; above it they meet in one keyed exchange.  A
single-input keyed step is :func:`arrowutil.keyed_complete`, a bounded
result (per nation, per month, per band) is an
:func:`arrowutil.agg_fold`, and every combine and finish is a
:func:`arrowutil.grouped_agg`, whose null-key rule (a row with a null
key is dropped) is the one these ops follow.  What a join moves is the
PRE-AGGREGATED fact side: revenue partials per orderkey, then per
custkey — never raw lineitem rows twice.

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

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from clinicaltransformerner_ray.arrowutil import (
    agg_fold, cogroup, grouped_agg, grouped_topk, keyed_complete,
    sorted_runs, topk_complete, triu_pairs, typed_map)
from clinicaltransformerner_ray.pipelines.events import (
    _np, _ones, _round_half_away, _sum_by)


def _ts_us(iso_date: str) -> int:
    return int(np.datetime64(iso_date, "us").astype(np.int64))


def _i64(t: pa.Table, c: str) -> np.ndarray:
    return _np(t, c).astype(np.int64)


def _cents(t: pa.Table, c: str) -> np.ndarray:
    return _round_half_away(_np(t, c) * 100)


def _rev_e4(t: pa.Table) -> np.ndarray:
    """THE discounted-revenue kernel: cents * (100 - disc_pct), both
    recovered exactly from the cent-integral doubles via half-away
    rounding.  Single shared definition — every revenue pipeline
    derives its integer sums from it, so the exactness rule cannot
    drift."""
    return _cents(t, "l_extendedprice") * (100 - _cents(t, "l_discount"))


def _window(t: pa.Table, c: str, lo: int, hi: int) -> pa.Table:
    """The rows of ``t`` whose timestamp ``c`` is in [lo, hi) epoch-us."""
    ts = _np(t, c)
    return t.filter(pa.array((ts >= lo) & (ts < hi)))


def _eq(col, value):
    """``col == value`` with a null as False."""
    return pc.fill_null(pc.equal(col, value), False)


def _distinct(col, name: str = "key") -> pa.Table:
    return pa.table({name: pc.unique(col).cast(pa.int64())})


def _lookup(mapping: dict, keys) -> pa.Array:
    """``mapping[k]`` for each int key of ``keys``; null for a key it
    lacks (the fixed-25 nation broadcast)."""
    ks = sorted(mapping)
    return pa.array([mapping[k] for k in ks], pa.string()).take(
        pc.index_in(keys, value_set=pa.array(ks, pa.int64())))


def _join(left: pa.Table, right: pa.Table, key: str) -> pa.Table:
    """The inner equi-join of two tables on ``key`` (``pa.Table.join``
    defaults to a left outer join)."""
    return left.join(right, key, join_type="inner")


def pricing_summary(
    lineitem: rd.Dataset,
    *,
    ship_cutoff: str = "2000-09-02",
) -> rd.Dataset:
    """TPC-H Q1-shaped pricing summary: per (l_returnflag,
    l_linestatus), integer-exact sums of quantity / base price /
    discounted price / charge plus float averages derived from them.

    Shape: a per-block combine sums each block to ~6 partial rows,
    then one ``keyed_complete`` on the key combines and finishes them
    (a fold on the driver under the cap: a range Sort on ~4 key values
    would leave most partitions empty and schema-less); reads only the
    7 columns it needs (callers pass ``columns=`` at the read)."""
    cutoff = _ts_us(ship_cutoff)
    keys = ["l_returnflag", "l_linestatus"]
    sums = ["sum_qty", "sum_base_price_cents", "sum_disc_price_e4",
            "sum_charge_e6", "sum_disc_pct", "count_order"]

    def combine(t: pa.Table) -> pa.Table:
        if "sum_qty" not in t.column_names:
            t = t.filter(pa.array(_np(t, "l_shipdate") <= cutoff))
            price_c = _cents(t, "l_extendedprice")
            disc = _cents(t, "l_discount")
            t = pa.table({
                **{k: t.column(k) for k in keys},
                "sum_qty": _round_half_away(_np(t, "l_quantity")),
                "sum_base_price_cents": price_c,
                "sum_disc_price_e4": price_c * (100 - disc),
                "sum_charge_e6": price_c * (100 - disc)
                * (100 + _cents(t, "l_tax")),
                "sum_disc_pct": disc,
                "count_order": _ones(t),
            })
        return _sum_by(keys, sums)(t)

    def finish(t: pa.Table) -> pa.Table:
        t = combine(t)
        cnt = np.maximum(_np(t, "count_order"), 1)
        return t.drop_columns(["sum_disc_pct"]).append_column(
            "avg_qty", pa.array(_np(t, "sum_qty") / cnt)).append_column(
            "avg_price_cents",
            pa.array(_np(t, "sum_base_price_cents") / cnt)).append_column(
            "avg_disc_pct", pa.array(_np(t, "sum_disc_pct") / cnt))

    # combine per BLOCK (batch_size=None): a fixed 512k batch coalesced
    # bench-scale inputs (sf0.1 = 600k rows, 64 read blocks) into 1-2
    # tasks, starving 31 CPUs for ~9 s; the combine output (~6
    # rows/task) stays trivial either way
    return keyed_complete(typed_map(lineitem, combine), keys, finish,
                          op="pricing_summary")


def customers_without_orders(
    customer: rd.Dataset,
    orders: rd.Dataset,
    *,
    date_from: str = "1996-01-01",
    date_to: str = "1997-01-01",
) -> rd.Dataset:
    """ANTI-join: customers with NO order inside the date window
    (completing the join family: inner = revenue_by_nation, as-of/range
    = events.py, anti = here).

    Shape: orders reduce to DISTINCT custkeys per batch before the join
    (at most one row per custkey per batch, never the orders), then one
    :func:`cogroup` on custkey drops every customer with such a key.

    Output: (c_custkey, c_nationkey)."""
    lo, hi = _ts_us(date_from), _ts_us(date_to)

    def anti(c: pa.Table, o: pa.Table) -> pa.Table:
        return c.filter(pc.invert(pc.is_in(
            c.column("c_custkey"), value_set=o.column("c_custkey"))))

    return cogroup([
        typed_map(customer, lambda t: pa.table({
            "c_custkey": t.column("c_custkey").cast(pa.int64()),
            "c_nationkey": t.column("c_nationkey").cast(pa.int64())})),
        typed_map(orders, lambda t: _distinct(_window(
            t, "o_orderdate", lo, hi).column("o_custkey"), "c_custkey"))],
        ["c_custkey"], anti, op="customers_without_orders")


def _nation_region_map(sf_dir: str) -> dict[int, tuple[str, str]]:
    """Driver-side broadcast build of the fixed-size dimension join:
    nationkey -> (n_name, r_name).  25 + 5 rows — the canonical
    small-side broadcast instead of a shuffle join."""
    rname = {r["r_regionkey"]: r["r_name"] for r in
             pq.read_table(f"{sf_dir}/region.parquet").to_pylist()}
    return {int(r["n_nationkey"]): (r["n_name"], rname[r["n_regionkey"]])
            for r in pq.read_table(f"{sf_dir}/nation.parquet").to_pylist()}


def _order_rows(orders: rd.Dataset, lo: int, hi: int) -> rd.Dataset:
    """(key=orderkey, c_custkey) of the orders placed in [lo, hi)."""
    def f(t: pa.Table) -> pa.Table:
        t = _window(t, "o_orderdate", lo, hi)
        return pa.table({"key": t.column("o_orderkey").cast(pa.int64()),
                         "c_custkey": t.column("o_custkey").cast(pa.int64())})
    return typed_map(orders, f)


def _per_customer(l: pa.Table, o: pa.Table) -> pa.Table:
    """Orderkey revenue partials joined to their order, summed per
    customer: the first hop of the Q5 / Q10 chains."""
    return _sum_by(["c_custkey"], ["rev_e4", "n_items"])(_join(l, o, "key"))


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

    Shape: lineitem pre-aggregates revenue per orderkey in each batch
    BEFORE the orderkey :func:`cogroup`, which emits custkey partials;
    a custkey :func:`cogroup` rolls them up per nation, and a
    ``keyed_complete`` on nationkey finishes; the nation/region
    dimensions never move (broadcast dict)."""
    lo, hi = _ts_us(date_from), _ts_us(date_to)
    sums = ["rev_e4", "n_items"]
    region_of = {k: r for k, (_, r) in nation_map.items()}

    def finish(t: pa.Table) -> pa.Table:
        g = _sum_by(["nationkey"], sums)(t)
        g = g.filter(_eq(_lookup(region_of, g.column("nationkey")), region))
        return pa.table({
            "n_name": _lookup({k: n for k, (n, _) in nation_map.items()},
                              g.column("nationkey")),
            "revenue_e4": g.column("rev_e4"),
            "n_items": g.column("n_items")})

    per_cust = cogroup([
        typed_map(lineitem, lambda t: _sum_by(["key"], sums)(pa.table({
            "key": _i64(t, "l_orderkey"), "rev_e4": _rev_e4(t),
            "n_items": _ones(t)}))),
        _order_rows(orders, lo, hi)],
        ["key"], _per_customer, op="revenue_by_nation.orders")
    per_nation = cogroup([per_cust, typed_map(customer, lambda t: pa.table({
        "c_custkey": t.column("c_custkey").cast(pa.int64()),
        "nationkey": t.column("c_nationkey").cast(pa.int64())}))],
        ["c_custkey"], lambda x, c: _sum_by(["nationkey"], sums)(
            _join(x, c, "c_custkey")), op="revenue_by_nation.customers")
    return keyed_complete(per_nation, ["nationkey"], finish,
                          op="revenue_by_nation")


def top_orders_per_customer(orders: rd.Dataset, *, k: int = 3) -> rd.Dataset:
    """Grouped top-k (the window-rank `row_number() <= k` shape the
    reference and the engine both lacked): each customer's ``k``
    highest-value orders, rank attached.

    Shape: per-batch LOCAL top-k per custkey — a valid partial, since a
    group's global top-k is contained in the union of its local
    top-ks — so the exchange moves at most k rows per (custkey, block);
    then the final rank on the HIGH-CARDINALITY custkey
    (``grouped_topk`` at both cuts, ``topk_complete`` for the second).

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
            "total_cents": _cents(batch, "o_totalprice"),
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

    Shape: part SCALES WITH SF (200k x SF rows — unlike Q5's fixed
    25/5 dims it must NOT broadcast).  The fact side combines to
    per-(partkey, month) revenue partials, ONE :func:`cogroup` on the
    partkey joins them with part and emits per-month partials, and the
    month-bounded ``agg_fold`` finishes (months ~ O(100)).

    Output: small pa.Table (ship_month = year*100+month BIGINT,
    promo_rev_e4, total_rev_e4)."""

    def li_combine(t: pa.Table) -> pa.Table:
        ts = t.column("l_shipdate")
        return _sum_by(["key", "month"], ["rev_e4"])(pa.table({
            "key": _i64(t, "l_partkey"),
            "month": pc.add(pc.multiply(pc.year(ts), 100), pc.month(ts)),
            "rev_e4": _rev_e4(t)}))

    def annotate(p: pa.Table, li: pa.Table) -> pa.Table:
        # inner join: a fact key with NO dim row drops (the oracle's)
        j = _join(li, p, "key")
        rev = _np(j, "rev_e4")
        return _sum_by(["month"], ["promo_rev_e4", "total_rev_e4"])(
            pa.table({"month": j.column("month"),
                      "promo_rev_e4": rev * _np(j, "promo"),
                      "total_rev_e4": rev}))

    partials = cogroup([
        # NULL p_type = matched-but-not-promo (the oracle's CASE)
        typed_map(part, lambda t: pa.table({
            "key": t.column("p_partkey").cast(pa.int64()),
            "promo": _eq(t.column("p_type"), "PROMO").cast(pa.int64())})),
        typed_map(lineitem, li_combine)],
        ["key"], annotate, op="promo_revenue_by_month")
    return agg_fold(partials, ["month"], [("promo_rev_e4", "sum"),
                                          ("total_rev_e4", "sum")],
                    op="promo_revenue_by_month.months").rename_columns(
        ["ship_month", "promo_rev_e4", "total_rev_e4"])


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

    Three SF-scaled tables, zero broadcasts, two :func:`cogroup` joins:

      1. semi-join orders -> customer on custkey (customer reduces to
         DISTINCT segment custkeys per batch)
      2. join on orderkey: lineitem pre-aggregated to per-orderkey
         revenue partials (l_shipdate > cutoff filter at the read side)
         against the surviving orders
      3. per-group LOCAL top-k (a valid partial — the global top-k is
         inside the union of block top-ks) -> driver fold of <= k x
         blocks rows; tie rule (revenue_e4 DESC, o_orderkey ASC) is a
         total order on both engines.

    Output: small pa.Table (o_orderkey, revenue_e4, o_orderdate,
    o_orderpriority), k rows."""
    cut = _ts_us(cutoff)
    order = [("rev_e4", "descending"), ("okey", "ascending")]

    def o_rows(t: pa.Table) -> pa.Table:
        t = _window(t, "o_orderdate", np.iinfo(np.int64).min, cut)
        return pa.table({"key": t.column("o_custkey").cast(pa.int64()),
                         "okey": t.column("o_orderkey").cast(pa.int64()),
                         "odate": _np(t, "o_orderdate"),
                         "oprio": t.column("o_orderpriority")})

    def li_combine(t: pa.Table) -> pa.Table:
        t = t.filter(pa.array(_np(t, "l_shipdate") > cut))
        return _sum_by(["okey"], ["rev_e4"])(pa.table({
            "okey": _i64(t, "l_orderkey"), "rev_e4": _rev_e4(t)}))

    surviving = cogroup([
        typed_map(customer, lambda t: _distinct(t.column("c_custkey").filter(
            _eq(t.column("c_mktsegment"), segment)))),
        typed_map(orders, o_rows)],
        ["key"], lambda c, o: o.filter(pc.is_in(
            o.column("key"), value_set=c.column("key"))).drop_columns(["key"]),
        op="top_unshipped_orders.segment")
    # no >0 filter: the oracle's inner join ranks zero-revenue orders
    # too (fully-discounted lineitems), so must we
    rows = cogroup([surviving, typed_map(lineitem, li_combine)], ["okey"],
                   lambda o, li: grouped_topk(_join(_sum_by(
                       ["okey"], ["rev_e4"])(li), o, "okey"), [], order, k),
                   op="top_unshipped_orders")
    top = topk_complete(rows, [], order, k)
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
    revenue partials per l_suppkey, one :func:`cogroup` with supplier
    (SF-scaled — never broadcast) on the suppkey, then an ``agg_fold``
    over the fixed-25 nation keys.

    Output: small pa.Table (s_nationkey, revenue_e4, n_items) —
    integer-exact."""
    sums = ["rev_e4", "n"]
    partials = cogroup([
        typed_map(supplier, lambda t: pa.table({
            "key": t.column("s_suppkey").cast(pa.int64()),
            "nation": t.column("s_nationkey").cast(pa.int64())})),
        typed_map(lineitem, lambda t: _sum_by(["key"], sums)(pa.table({
            "key": _i64(t, "l_suppkey"), "rev_e4": _rev_e4(t),
            "n": _ones(t)})))],
        # inner join: unmatched fact keys drop (oracle semantics)
        ["key"], lambda s, li: _sum_by(["nation"], sums)(_join(li, s, "key")),
        op="revenue_by_supplier_nation")
    return agg_fold(partials, ["nation"], [(c, "sum") for c in sums],
                    op="revenue_by_supplier_nation.nations"
                    ).rename_columns(["s_nationkey", "revenue_e4",
                                      "n_items"])


def order_priority_counts(
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    *,
    date_from: str = "1996-01-01",
    date_to: str = "1996-07-01",
    returnflag: str = "R",
) -> rd.Dataset:
    """SEMI-join aggregate (TPC-H Q4 shape, ref has no analog — this
    completes the join family: inner/anti/as-of/range exist elsewhere):
    orders inside the date window that have AT LEAST ONE lineitem with
    the given returnflag, counted per priority.

    The testdata lineitem carries no commitdate/receiptdate, so the
    EXISTS predicate is `l_returnflag = returnflag` — same Q4 shape
    (EXISTS over the fact table), different column.

    Shape: the lineitem probe side reduces to DISTINCT qualifying
    orderkeys per batch (≤ one row per orderkey per batch, never raw
    lines); one :func:`cogroup` on orderkey with the window-filtered
    orders semi-joins them and emits (priority, partial count) — ≤ 5
    rows per group — then a ``keyed_complete`` on the priority
    finishes the count.

    Output: (o_orderpriority, order_count) sorted by priority."""
    lo, hi = _ts_us(date_from), _ts_us(date_to)
    count = _sum_by(["o_orderpriority"], ["order_count"])

    def semi_count(o: pa.Table, li: pa.Table) -> pa.Table:
        o = o.filter(pc.is_in(o.column("key"), value_set=li.column("key")))
        return count(pa.table({
            "o_orderpriority": o.column("o_orderpriority"),
            "order_count": _ones(o)}))

    partials = cogroup([
        typed_map(orders, lambda t: _window(t, "o_orderdate", lo, hi).select(
            ["o_orderkey", "o_orderpriority"]).rename_columns(
            ["key", "o_orderpriority"])),
        typed_map(lineitem, lambda t: _distinct(t.column("l_orderkey").filter(
            _eq(t.column("l_returnflag"), returnflag))))],
        ["key"], semi_count, op="order_priority_counts")
    return keyed_complete(partials, ["o_orderpriority"], count,
                          op="order_priority_counts.priorities")


def revenue_rollup(
    orders: rd.Dataset,
    customer: rd.Dataset,
    nation_map: dict[int, tuple[str, str]],
) -> rd.Dataset:
    """Hierarchical ROLLUP aggregate in ONE join: order revenue at the
    (region, nation), (region, ALL) and (ALL, ALL) levels — the GROUP
    BY ROLLUP shape a reporting pipeline needs, expressed as
    multi-level emission inside the join instead of three separate
    aggregation passes over the fact table.

    Shape: orders pre-aggregate per custkey (sum cents + count, one
    row per custkey per batch); one :func:`cogroup` on custkey joins
    them with customer, maps nationkey -> (n_name, r_name) via the
    fixed-25 broadcast and emits every group row at ALL THREE levels
    ('ALL' sentinel, never NULL); the finishing ``keyed_complete`` then
    moves <= (25 + 5 + 1) rows per group of customers regardless of
    fact size.  For a high-cardinality hierarchy (domain/url,
    dataset/shard) the same single-join shape holds — level rows just
    stay proportional to the hierarchy, never the facts.

    Output: (r_name, n_name, revenue_cents, n_orders) where n_name =
    'ALL' marks the region subtotal and r_name = n_name = 'ALL' the
    grand total."""
    keys, sums = ["r_name", "n_name"], ["cents", "n"]

    def merge_emit(o: pa.Table, c: pa.Table) -> pa.Table:
        j = _join(o, c, "key")
        nk = j.column("nationkey")
        r = _lookup({k: r for k, (_, r) in nation_map.items()}, nk)
        n = _lookup({k: n for k, (n, _) in nation_map.items()}, nk)
        every = pa.array(["ALL"] * j.num_rows, pa.string())
        return _sum_by(keys, sums)(pa.concat_tables([
            pa.table([a, b, j.column("cents"), j.column("n")],
                     names=keys + sums)
            for a, b in ((r, n), (r, every), (every, every))]))

    partials = cogroup([
        typed_map(orders, lambda t: _sum_by(["key"], sums)(pa.table({
            "key": _i64(t, "o_custkey"), "cents": _cents(t, "o_totalprice"),
            "n": _ones(t)}))),
        typed_map(customer, lambda t: pa.table({
            "key": t.column("c_custkey").cast(pa.int64()),
            "nationkey": t.column("c_nationkey").cast(pa.int64())}))],
        ["key"], merge_emit, op="revenue_rollup")
    return keyed_complete(partials, keys, lambda t: _sum_by(keys, sums)(
        t).rename_columns(keys + ["revenue_cents", "n_orders"]),
        op="revenue_rollup.levels")


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

    Shape: lineitem pre-aggregates quantity per orderkey in each batch
    (one partial per (orderkey, batch), never raw lines); the orderkey
    :func:`cogroup` completes the sum and applies the HAVING filter, so
    only qualifying orders — a tiny fraction — enter the custkey
    :func:`cogroup` with the customer side.  Quantities are integral
    doubles recovered exactly via half-away rounding, so sums are int64
    and hash-exact.

    Output: (c_custkey, c_name, o_orderkey, total_cents, sum_qty)."""

    def having_join(li: pa.Table, o: pa.Table) -> pa.Table:
        """Equal orderkeys meet whole, so the summed quantity is final
        here."""
        g = _sum_by(["key"], ["qty"])(li)
        return _join(g.filter(pc.greater(g.column("qty"), qty_threshold)),
                     o, "key")

    def cust_join(x: pa.Table, c: pa.Table) -> pa.Table:
        j = _join(x, c, "c_custkey")
        return pa.table({"c_custkey": j.column("c_custkey"),
                         "c_name": j.column("c_name"),
                         "o_orderkey": j.column("key"),
                         "total_cents": j.column("cents"),
                         "sum_qty": j.column("qty")})

    qualified = cogroup([
        typed_map(lineitem, lambda t: _sum_by(["key"], ["qty"])(pa.table({
            "key": _i64(t, "l_orderkey"),
            "qty": _round_half_away(_np(t, "l_quantity"))}))),
        typed_map(orders, lambda t: pa.table({
            "key": t.column("o_orderkey").cast(pa.int64()),
            "c_custkey": t.column("o_custkey").cast(pa.int64()),
            "cents": _cents(t, "o_totalprice")}))],
        ["key"], having_join, op="large_volume_orders")
    return cogroup([qualified, typed_map(customer, lambda t: pa.table({
        "c_custkey": t.column("c_custkey").cast(pa.int64()),
        "c_name": t.column("c_name")}))],
        ["c_custkey"], cust_join, op="large_volume_orders.customers")


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
    streaming pass emits a (count, sum) partial PER BLOCK, a keyless
    ``agg_fold`` folds them on the driver, and the resulting two
    integers are captured in the filter closure — no second scan.  The
    mean comparison is exact integer cross-multiplication (cents * n >
    total_cents), so no float average ever exists to diverge from the
    SQL oracle.

    The anti-join reuses the distinct-probe shape: orders reduce to
    distinct recent custkeys per batch, one :func:`cogroup` on custkey
    with the pre-filtered customer side drops them and emits segment
    partials, and a ``keyed_complete`` on the segment finishes.

    Output: (c_mktsegment, n_custs, sum_acctbal_cents)."""
    lo = _ts_us(idle_since)
    sums = ["n_custs", "cents"]

    def bal_partial(t: pa.Table) -> pa.Table:
        cents = _cents(t, "c_acctbal")
        pos = cents[cents > 0]
        return pa.table({"n": pa.array([len(pos)], pa.int64()),
                         "tot": pa.array([int(pos.sum())], pa.int64())})

    bal = agg_fold(typed_map(customer, bal_partial), [],
                   [("n", "sum"), ("tot", "sum")], op="idle_rich_customers")
    n_pos, tot_cents = bal.column("n")[0].as_py(), bal.column("tot")[0].as_py()

    def c_side(t: pa.Table) -> pa.Table:
        cents = _cents(t, "c_acctbal")
        keep = pa.array((cents > 0) & (cents * n_pos > tot_cents))
        return pa.table({"key": t.column("c_custkey").cast(pa.int64()),
                         "cents": cents,
                         "segment": t.column("c_mktsegment")}).filter(keep)

    def anti(c: pa.Table, o: pa.Table) -> pa.Table:
        c = c.filter(pc.invert(pc.is_in(c.column("key"),
                                        value_set=o.column("key"))))
        return _sum_by(["segment"], sums)(pa.table({
            "segment": c.column("segment"), "n_custs": _ones(c),
            "cents": c.column("cents")}))

    partials = cogroup([
        typed_map(customer, c_side),
        typed_map(orders, lambda t: _distinct(t.column("o_custkey").filter(
            pa.array(_np(t, "o_orderdate") >= lo))))],
        ["key"], anti, op="idle_rich_customers.anti")
    return keyed_complete(partials, ["segment"], lambda t: _sum_by(
        ["segment"], sums)(t).rename_columns(
        ["c_mktsegment", "n_custs", "sum_acctbal_cents"]),
        op="idle_rich_customers.segments")


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

    Shape: the argmin is ALGEBRAIC (min composes), so each batch emits
    at most one row per partkey (``grouped_topk`` with k=1); one
    :func:`cogroup` on partkey attaches the SF-scaled part dim (the Q14
    precedent — part must NOT broadcast), a second on suppkey attaches
    the SF-scaled supplier dim, and only the fixed 25-row nation map
    rides the task closure.

    Output: (p_partkey, p_brand, min_price_cents, s_suppkey, s_name,
    n_name)."""
    argmin = functools.partial(
        grouped_topk, keys=["p_partkey"], k=1,
        order=[("min_price_cents", "ascending"), ("s_suppkey", "ascending")])

    def join_supp(r: pa.Table, s: pa.Table) -> pa.Table:
        j = _join(r, s, "s_suppkey")
        return j.select(["p_partkey", "p_brand", "min_price_cents",
                         "s_suppkey", "s_name"]).append_column(
            "n_name", _lookup(nation_names, j.column("nat")))

    best = cogroup([
        typed_map(part, lambda t: pa.table({
            "p_partkey": t.column("p_partkey").cast(pa.int64()),
            "p_brand": t.column("p_brand").cast(pa.string())})),
        typed_map(lineitem, lambda t: argmin(pa.table({
            "p_partkey": _i64(t, "l_partkey"),
            "min_price_cents": _cents(t, "l_extendedprice"),
            "s_suppkey": _i64(t, "l_suppkey")})))],
        ["p_partkey"], lambda p, li: _join(argmin(li), p, "p_partkey"),
        op="min_cost_supplier")
    return cogroup([best, typed_map(supplier, lambda t: pa.table({
        "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
        "s_name": t.column("s_name").cast(pa.string()),
        "nat": t.column("s_nationkey").cast(pa.int64())}))],
        ["s_suppkey"], join_supp, op="min_cost_supplier.suppliers")


def disjunctive_revenue(
    lineitem: rd.Dataset,
    part: rd.Dataset,
) -> pa.Table:
    """TPC-H Q19-shaped disjunctive-predicate join: revenue from
    lineitems matching any of three (brand, size-range, qty-range)
    bands.  The brand arms are mutually exclusive, so each joined row
    lands in at most one band.

    Shape: the fact side evaluates the QTY half of every band
    vectorized and pre-aggregates to per-(partkey, qty-bitmask)
    partials (rows matching no qty window drop at the read-side map);
    the part side reduces each part to a band bitmask and ships only
    parts eligible for >= 1 band.  One :func:`cogroup` on the partkey
    ANDs the masks, and an ``agg_fold`` finishes the per-band partials
    (3 rows).

    Output: (band, revenue_e4, n_items), bands 1..3."""

    BANDS = (  # (brand, size_lo, size_hi, qty_lo, qty_hi)
        ("Brand#1", 1, 5, 1, 11),
        ("Brand#2", 1, 10, 10, 20),
        ("Brand#3", 1, 15, 20, 30),
    )
    sums = ["rev_e4", "n"]

    def li_combine(t: pa.Table) -> pa.Table:
        qty = _round_half_away(_np(t, "l_quantity"))
        bits = np.zeros(t.num_rows, np.int64)
        for i, (_, _, _, qlo, qhi) in enumerate(BANDS):
            bits |= ((qty >= qlo) & (qty <= qhi)).astype(np.int64) << i
        keep = bits > 0
        return _sum_by(["key", "bits"], sums)(pa.table({
            "key": _i64(t, "l_partkey")[keep], "bits": bits[keep],
            "rev_e4": _rev_e4(t)[keep], "n": _ones(t)[keep]}))

    def part_rows(t: pa.Table) -> pa.Table:
        size = _i64(t, "p_size")
        brand = _np(t, "p_brand")
        pbits = np.zeros(t.num_rows, np.int64)
        for i, (b, slo, shi, _, _) in enumerate(BANDS):
            pbits |= ((brand == b) & (size >= slo)
                      & (size <= shi)).astype(np.int64) << i
        keep = pbits > 0
        return pa.table({"key": _i64(t, "p_partkey")[keep],
                         "pbits": pbits[keep]})

    def band_partials(p: pa.Table, li: pa.Table) -> pa.Table:
        j = _join(li, p, "key")
        hit = _np(j, "bits") & _np(j, "pbits")
        # brand arms are disjoint -> at most one bit survives the AND
        keep = hit > 0
        band = np.zeros(j.num_rows, np.int64)
        for i in range(len(BANDS)):
            band[((hit >> i) & 1) == 1] = i + 1
        return _sum_by(["band"], sums)(pa.table({
            "band": band[keep], "rev_e4": _np(j, "rev_e4")[keep],
            "n": _np(j, "n")[keep]}))

    partials = cogroup([typed_map(part, part_rows),
                        typed_map(lineitem, li_combine)],
                       ["key"], band_partials, op="disjunctive_revenue")
    return agg_fold(partials, ["band"], [(c, "sum") for c in sums],
                    op="disjunctive_revenue.bands").rename_columns(
        ["band", "revenue_e4", "n_items"])


def copurchased_parts(
    lineitem: rd.Dataset,
    *,
    min_count: int = 2,
) -> rd.Dataset:
    """Market-basket pair mining: unordered part pairs bought together
    in the same order, with support counts — the KG co-occurrence
    emitter's shape applied to relational data.

    Shape: ONE ``keyed_complete`` on the high-cardinality l_orderkey
    co-locates each order's lines (equal keys never split); its
    completion dedups parts within the order and emits its C(n,2) pairs
    via :func:`arrowutil.triu_pairs` (no Python pair loop); a second
    ``keyed_complete`` on the (part_a, part_b) composite finishes the
    counts.  The support filter runs in the completion, AFTER counts
    are global.

    Output: (part_a, part_b, n_orders) with part_a < part_b and
    n_orders >= ``min_count``."""
    count = _sum_by(["pa_", "pb_"], ["n"])

    def emit_pairs(t: pa.Table) -> pa.Table:
        t, start = sorted_runs(grouped_agg(t, ["okey", "pkey"], []),
                               ["okey"], [("pkey", "ascending")])
        s = np.flatnonzero(start)
        i, j = triu_pairs(s, np.diff(np.append(s, t.num_rows)))
        pk = _np(t, "pkey")
        return count(pa.table({"pa_": pk[i], "pb_": pk[j],
                               "n": np.ones(len(i), np.int64)}))

    def complete(t: pa.Table) -> pa.Table:
        g = count(t)
        return g.filter(pc.greater_equal(g.column("n"), min_count)
                        ).rename_columns(["part_a", "part_b", "n_orders"])

    pairs = keyed_complete(
        typed_map(lineitem, lambda t: pa.table({
            "okey": t.column("l_orderkey").cast(pa.int64()),
            "pkey": t.column("l_partkey").cast(pa.int64())})),
        ["okey"], emit_pairs, op="copurchased_parts.pairs")
    return keyed_complete(pairs, ["pa_", "pb_"], complete, combine=count,
                          op="copurchased_parts")


def lineitem_order_share(lineitem: rd.Dataset) -> rd.Dataset:
    """Windowed-total-joined-back-to-detail shape (SUM() OVER
    (PARTITION BY order)): every lineitem annotated with its order's
    total discounted revenue and its own share in basis points,
    ``share_bp = rev_e4 * 10000 // total_e4`` (non-negative ints, so
    numpy floor == DuckDB truncation).

    Domain precondition: per-order revenue totals must be POSITIVE —
    guaranteed on TPC-H-shaped data (extendedprice > 0, discount <=
    10%).  An all-zero-revenue order would make numpy emit 0 for the
    share where SQL yields NULL/error; the completion raises instead
    of diverging silently.

    ONE ``keyed_complete`` on the high-cardinality l_orderkey; the
    completion computes order totals with ``grouped_agg``, attaches
    them back with ``index_in`` and emits every detail row — no
    pre-aggregation is possible (the output IS the detail), so the
    exchange moves the projected fact columns once."""

    def share(t: pa.Table) -> pa.Table:
        g = grouped_agg(t, ["okey"], [("rev_e4", "sum")])
        tot = _np(g, "rev_e4")[pc.index_in(
            t.column("okey"), value_set=g.column("okey")).to_numpy()]
        if len(tot) and tot.min() <= 0:
            raise ValueError(
                "lineitem_order_share: non-positive per-order revenue "
                "total — input violates the positive-revenue domain "
                "precondition (see docstring)")
        return pa.table({"l_orderkey": t.column("okey"),
                         "l_linenumber": t.column("lno"),
                         "rev_e4": t.column("rev_e4"),
                         "order_rev_e4": tot,
                         "share_bp": _np(t, "rev_e4") * 10_000 // tot})

    return keyed_complete(typed_map(lineitem, lambda t: pa.table({
        "okey": t.column("l_orderkey").cast(pa.int64()),
        "lno": t.column("l_linenumber").cast(pa.int64()),
        "rev_e4": _rev_e4(t)})), ["okey"], share,
        op="lineitem_order_share")


def customer_revenue_deciles(orders: rd.Dataset) -> rd.Dataset:
    """Distributed NTILE: bucket every customer into a revenue decile
    WITHOUT a global row-number — exact quantile boundary VALUES come
    from a (cents, count) histogram CDF walk on the driver (an
    ``agg_fold`` bounded by distinct revenue points, the
    value_quantiles precedent), broadcast into a final vectorized
    bucketing map.  Boundary rule on BOTH engines: b_k = value at
    1-based sorted position (k*N + 9) // 10, decile(c) = 1 + #{k : c >
    b_k} — ties on a boundary value share a bucket, so the tie-order
    inside row_number never matters.

    Output: (o_custkey, revenue_cents, decile) — exact int64."""

    def combine(t: pa.Table) -> pa.Table:
        if "cents" not in t.column_names:
            t = pa.table({"o_custkey": _i64(t, "o_custkey"),
                          "cents": _cents(t, "o_totalprice")})
        return grouped_agg(t, ["o_custkey"], [("cents", "sum")])

    # read twice downstream (histogram + bucketing): materialize once
    per_cust = keyed_complete(orders, ["o_custkey"], combine,
                              combine=combine,
                              op="customer_revenue_deciles").materialize()
    hist = agg_fold(typed_map(per_cust, lambda t: pa.table({
        "cents": t.column("cents"), "n": _ones(t)})), ["cents"],
        [("n", "sum")], op="customer_revenue_deciles.hist")
    vals = _np(hist, "cents")
    cdf = np.cumsum(_np(hist, "n"))
    n_total = int(cdf[-1]) if len(cdf) else 0
    bounds = np.array(
        [vals[np.searchsorted(cdf, (k * n_total + 9) // 10)]
         for k in range(1, 10)], dtype=np.int64) if n_total else \
        np.array([], dtype=np.int64)

    def bucket(batch: pa.Table) -> pa.Table:
        c = _np(batch, "cents")
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
    customer (custkey), all three :func:`cogroup` joins (every dim here
    is SF-scaled; only the fixed 25-row nation map rides the closure).

    Shape: each hop pre-aggregates before the next join —
    (suppkey, orderkey) partials into hop 1, (orderkey, supp_nat)
    partials out of it, (custkey, supp_nat) into hop 3 — so the joined
    row count shrinks monotonically toward the 25x25 matrix, which an
    ``agg_fold`` finishes.

    Output: pa.Table (supp_nation, cust_nation, revenue_e4, n_items)."""
    sums = ["rev_e4", "n_items"]

    def dim(ds: rd.Dataset, key: str, val: str, k: str, v: str):
        return typed_map(ds, lambda t: pa.table({
            k: t.column(key).cast(pa.int64()),
            v: t.column(val).cast(pa.int64())}))

    def hop(keys: list[str], on: str):
        return lambda x, d: _sum_by(keys, sums)(_join(x, d, on))

    hop1 = cogroup([
        typed_map(lineitem, lambda t: _sum_by(["key", "okey"], sums)(pa.table({
            "key": _i64(t, "l_suppkey"), "okey": _i64(t, "l_orderkey"),
            "rev_e4": _rev_e4(t), "n_items": _ones(t)}))),
        dim(supplier, "s_suppkey", "s_nationkey", "key", "snat")],
        ["key"], hop(["okey", "snat"], "key"), op="trade_matrix.suppliers")
    hop2 = cogroup([hop1, dim(orders, "o_orderkey", "o_custkey", "okey",
                              "custkey")],
                   ["okey"], hop(["custkey", "snat"], "okey"),
                   op="trade_matrix.orders")
    hop3 = cogroup([hop2, dim(customer, "c_custkey", "c_nationkey",
                              "custkey", "cnat")],
                   ["custkey"], hop(["snat", "cnat"], "custkey"),
                   op="trade_matrix.customers")
    acc = agg_fold(hop3, ["snat", "cnat"], [(c, "sum") for c in sums],
                   op="trade_matrix")
    return pa.table({
        "supp_nation": _lookup(nation_names, acc.column("snat")),
        "cust_nation": _lookup(nation_names, acc.column("cnat")),
        "revenue_e4": acc.column("rev_e4"),
        "n_items": acc.column("n_items"),
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

    Shape: lineitem pre-aggregates max(shipdate) per (orderkey,
    suppkey) in each batch (lateness is ANY-line-late ==
    max-shipdate-late, so the partial is max-combinable: one row per
    (orderkey, suppkey, batch), never raw lines); the orderkey
    :func:`cogroup` holds every supplier of an order plus its order
    row, so the only-late-supplier test completes there and emits
    (suppkey, c) count partials; the suppkey :func:`cogroup` sums
    those and joins the supplier names.  All comparisons are int64
    microsecond arithmetic — hash-exact.

    Output: (s_suppkey, s_name, numwait)."""
    late_us = np.int64(late_days) * 86_400_000_000
    ship = functools.partial(grouped_agg, keys=["key", "s_suppkey"],
                             aggs=[("ship_us", "max")])
    count = _sum_by(["s_suppkey"], ["numwait"])

    def only_late(li: pa.Table, o: pa.Table) -> pa.Table:
        """Finish the per-(order, supp) max, flag lateness against the
        order row, keep the sole late supplier of each >=2-supplier
        order, emit count partials."""
        j = _join(ship(li), o, "key")
        late = _np(j, "ship_us") > _np(j, "odate_us") + late_us
        per_o = _sum_by(["key"], ["n_supp", "n_late"])(pa.table({
            "key": j.column("key"), "n_supp": _ones(j),
            "n_late": late.astype(np.int64)}))
        ok = per_o.filter(pa.array((_np(per_o, "n_supp") >= 2)
                                   & (_np(per_o, "n_late") == 1)))
        q = j.filter(pa.array(late & pc.is_in(
            j.column("key"), value_set=ok.column("key")).to_numpy(
            zero_copy_only=False)))
        return count(pa.table({"s_suppkey": q.column("s_suppkey"),
                               "numwait": _ones(q)}))

    def finish(p: pa.Table, s: pa.Table) -> pa.Table:
        c = count(p)
        return _join(c.filter(pc.greater(c.column("numwait"), 0)), s,
                     "s_suppkey").select(["s_suppkey", "s_name", "numwait"])

    partials = cogroup([
        typed_map(lineitem, lambda t: ship(pa.table({
            "key": _i64(t, "l_orderkey"), "s_suppkey": _i64(t, "l_suppkey"),
            "ship_us": _np(t, "l_shipdate")}))),
        typed_map(orders, lambda t: pa.table({
            "key": t.column("o_orderkey").cast(pa.int64()),
            "odate_us": _np(t, "o_orderdate")}))],
        ["key"], only_late, op="waiting_suppliers")
    return cogroup([partials, typed_map(supplier, lambda t: pa.table({
        "s_suppkey": t.column("s_suppkey").cast(pa.int64()),
        "s_name": t.column("s_name")}))],
        ["s_suppkey"], finish, op="waiting_suppliers.suppliers")


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

    Shape, three keyed steps all carrying pre-shrunk rows:
      1. suppkey :func:`cogroup` anti-join: lineitem's per-batch
         DISTINCT (partkey, suppkey) partials against the
         excluded-supplier keys (never a broadcast — the exclusion set
         is SF-scaled).
      2. partkey :func:`cogroup` join onto the filtered part projection.
      3. ``keyed_complete`` on (brand, type, size): every supplier row
         of a group meets whole, so the distinct-supplier count is
         exact; the combine drops duplicates batch-locally first.

    Output: (p_brand, p_type, p_size, supplier_cnt)."""
    groups = ["p_brand", "p_type", "p_size"]
    distinct = functools.partial(grouped_agg, keys=groups + ["supp"],
                                 aggs=[])

    def anti(li: pa.Table, ex: pa.Table) -> pa.Table:
        li = li.filter(pc.invert(pc.is_in(li.column("key"),
                                          value_set=ex.column("key"))))
        # re-keyed on the part for the next join
        return grouped_agg(li, ["key", "part"], []).rename_columns(
            ["supp", "key"])

    def p_side(t: pa.Table) -> pa.Table:
        size = t.column("p_size").cast(pa.int64())
        return pa.table({
            "key": t.column("p_partkey").cast(pa.int64()),
            "p_brand": t.column("p_brand"), "p_type": t.column("p_type"),
            "p_size": size}).filter(pc.and_(
                pc.fill_null(pc.not_equal(t.column("p_brand"),
                                          exclude_brand), True),
                pc.is_in(size, value_set=pa.array(sizes, pa.int64()))))

    def complete(t: pa.Table) -> pa.Table:
        d = distinct(t)
        return _sum_by(groups, ["supplier_cnt"])(
            d.select(groups).append_column("supplier_cnt", pa.array(_ones(d))))

    survivors = cogroup([
        typed_map(lineitem, lambda t: grouped_agg(pa.table({
            "key": _i64(t, "l_suppkey"), "part": _i64(t, "l_partkey")}),
            ["key", "part"], [])),
        typed_map(supplier, lambda t: _distinct(t.column("s_suppkey").filter(
            pc.fill_null(pc.ends_with(t.column("s_name"),
                                      exclude_name_suffix), False))))],
        ["key"], anti, op="supplier_part_variety")
    joined = cogroup([survivors, typed_map(part, p_side)], ["key"],
                     lambda s, p: _join(s, p, "key").select(groups + ["supp"]),
                     op="supplier_part_variety.parts")
    return keyed_complete(joined, groups, complete, combine=distinct,
                          op="supplier_part_variety.groups")


def customer_order_distribution(
    orders: rd.Dataset,
    customer: rd.Dataset,
) -> rd.Dataset:
    """TPC-H Q13-shaped customer distribution: how many customers placed
    exactly N orders, INCLUDING the zero-order customers the left join
    contributes (the shape Q13 exists to test).

    Shape: orders pre-count per custkey per batch (one partial per
    (custkey, batch)); the custkey :func:`cogroup` completes each
    customer's count with left-join zero-fill and emits histogram
    partials, so the finishing ``keyed_complete`` carries
    O(distinct counts) rows per group — the order-count domain, not
    the customer count.

    Output: (c_count, custdist)."""
    orders_of = _sum_by(["key"], ["n"])
    hist = _sum_by(["c_count"], ["d"])

    def complete(o: pa.Table, c: pa.Table) -> pa.Table:
        """Orders with no matching customer row drop, as the left join
        drops them."""
        j = c.join(orders_of(o), "key", join_type="left outer")
        return hist(pa.table({"c_count": j.column("n").fill_null(0),
                              "d": _ones(j)}))

    partials = cogroup([
        typed_map(orders, lambda t: orders_of(pa.table({
            "key": _i64(t, "o_custkey"), "n": _ones(t)}))),
        typed_map(customer, lambda t: pa.table({
            "key": t.column("c_custkey").cast(pa.int64())}))],
        ["key"], complete, op="customer_order_distribution")
    return keyed_complete(partials, ["c_count"], lambda t: hist(
        t).rename_columns(["c_count", "custdist"]),
        op="customer_order_distribution.counts")


def value_concentration(
    lineitem: rd.Dataset,
    *,
    fraction_denom: int = 10_000,
) -> rd.Dataset:
    """TPC-H Q11-shaped value concentration: (supplier, part) cells
    whose discounted revenue exceeds ``1/fraction_denom`` of the
    GLOBAL total — the correlated-scalar-subquery shape (HAVING >
    SUM(...) * fraction), re-expressed without one.

    Shape: one ``keyed_complete`` on (suppkey, partkey), whose combine
    sums integer partials per batch and whose completion finishes the
    cells; the cell table is MATERIALIZED once (it feeds both the
    global total and the filter — Ray does no CSE).  The global total
    is a keyless ``agg_fold`` (order-free int64 sums), and the
    threshold broadcasts back into a stateless filter map.  Threshold
    arithmetic is integer: keep cells with ``value_e4 * fraction_denom
    > total`` (exactly Q11's ``value > total * (1/denom)`` without the
    float).

    Output: (l_suppkey, l_partkey, value_e4)."""
    agg = _sum_by(["l_suppkey", "l_partkey"], ["value_e4"])
    cells = keyed_complete(typed_map(lineitem, lambda t: pa.table({
        "l_suppkey": _i64(t, "l_suppkey"), "l_partkey": _i64(t, "l_partkey"),
        "value_e4": _rev_e4(t)})), ["l_suppkey", "l_partkey"], agg,
        combine=agg, op="value_concentration").materialize()
    total = sum(agg_fold(cells.select_columns(["value_e4"]), [],
                         [("value_e4", "sum")],
                         op="value_concentration.total")
                .column("value_e4").to_pylist())

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.greater(
            pc.multiply(batch.column("value_e4"),
                        pa.scalar(fraction_denom, pa.int64())),
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

    Shape: ONE :func:`cogroup` on the partkey.  A part's detail lines
    and its part-dim brand row meet whole, so the completion computes
    the per-part (n, sum_q100), applies the integer-exact threshold
    ``5 * q100 * n < sum_q100`` (== quantity < 0.2 * avg, scaled by
    100) and emits tiny per-brand partials.  A ``keyed_complete``, on
    the handful of brand partials, completes.

    Domain: quantities are non-negative (TPC-H shape), so the integer
    comparison and the ``// 7`` floor agree with the SQL oracle.

    Output: (p_brand, n_lines, total_cents, avg_yearly_c7)."""
    per_brand = _sum_by(["p_brand"], ["n_lines", "total_cents"])

    def per_part(li: pa.Table, p: pa.Table) -> pa.Table:
        st = _sum_by(["key"], ["n", "sumq"])(pa.table({
            "key": li.column("key"), "n": _ones(li),
            "sumq": li.column("q100")}))
        pos = pc.index_in(li.column("key"),
                          value_set=st.column("key")).to_numpy()
        j = _join(li.filter(pa.array(5 * _np(li, "q100") * _np(st, "n")[pos]
                                     < _np(st, "sumq")[pos])), p, "key")
        return per_brand(pa.table({"p_brand": j.column("p_brand"),
                                   "n_lines": _ones(j),
                                   "total_cents": j.column("cents")}))

    def finish(t: pa.Table) -> pa.Table:
        g = per_brand(t)
        return g.append_column("avg_yearly_c7",
                               pa.array(_np(g, "total_cents") // 7))

    partials = cogroup([
        typed_map(lineitem, lambda t: pa.table({
            "key": _i64(t, "l_partkey"),
            "q100": _round_half_away(_np(t, "l_quantity") * 100),
            "cents": _cents(t, "l_extendedprice")})),
        typed_map(part, lambda t: pa.table({
            "key": t.column("p_partkey").cast(pa.int64()),
            "p_brand": t.column("p_brand")}))],
        ["key"], per_part, op="small_qty_revenue")
    return keyed_complete(partials, ["p_brand"], finish,
                          op="small_qty_revenue_brands")


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

    Shape: per-supplier revenue is one ``keyed_complete`` on the
    suppkey (integer partials combine batch-locally; integer sums are
    exactly associative, block-split invariant), materialized once; the
    global max is a keyless ``agg_fold`` over it; the winners (the
    totals equal to the max) meet the supplier names in one
    :func:`cogroup`.  Under ``FOLD_MAX_BYTES`` every step folds on the
    driver, with no wide op.  Revenue is the exact integer rev_e4 =
    cents * (100 - disc_pct).

    Output: (s_suppkey, s_name, total_revenue_e4) — every supplier
    tied at the maximum (deterministic, no arbitrary tie-break)."""
    lo, hi = _ts_us(date_from), _ts_us(date_to)

    def rev_partials(t: pa.Table) -> pa.Table:
        if "rev" not in t.column_names:
            t = _window(t, "l_shipdate", lo, hi)
            t = pa.table({"k": _i64(t, "l_suppkey"), "rev": _rev_e4(t)})
        return _sum_by(["k"], ["rev"])(t)

    totals = keyed_complete(typed_map(lineitem, rev_partials), ["k"],
                            rev_partials, op="top_supplier").materialize()
    top = agg_fold(totals.select_columns(["rev"]), [], [("rev", "max")],
                   op="top_supplier.max").column("rev").to_pylist()
    m_rev = pa.scalar(top[0] if top else None, pa.int64())

    def join_name(w: pa.Table, s: pa.Table) -> pa.Table:
        # inner join: a winner with no supplier-dim row drops
        j = _join(w, s, "k")
        return pa.table({"s_suppkey": j.column("k"),
                         "s_name": j.column("s_name"),
                         "total_revenue_e4": j.column("rev")})

    return cogroup([
        typed_map(totals, lambda t: t.filter(
            pc.equal(t.column("rev"), m_rev))),
        typed_map(supplier, lambda t: pa.table({
            "k": t.column("s_suppkey").cast(pa.int64()),
            "s_name": t.column("s_name")}))],
        ["k"], join_name, op="top_supplier.names")


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

    Shape: a 3-hop :func:`cogroup` chain ordered MOST-SELECTIVE FIRST
    (r04 judge finding): orders ⋈ customer(region) on custkey, then
    lineitem ⋈ qualified orders on orderkey (the only full-volume
    join), then the supplier hop, which emits (year, target revenue,
    total revenue) partials that an ``agg_fold`` finishes.  Under
    ``FOLD_MAX_BYTES`` every hop folds on the driver, with no wide op.
    Share is the exact integer pair (nation_rev_e4, total_rev_e4) plus
    share_bp = nation*10^4 // total (non-negative).

    Output: pa.Table (o_year, nation_rev_e4, total_rev_e4, share_bp)."""
    tgt = [k for k, (n, _) in nation_map.items() if n == target_nation]
    in_region = [k for k, (_, r) in nation_map.items() if r == region]
    sums = ["nation_rev_e4", "total_rev_e4"]

    def hop3(f: pa.Table, s: pa.Table) -> pa.Table:
        j = _join(f, s, "sk")
        rev = _np(j, "rev_e4")
        return _sum_by(["o_year"], sums)(pa.table({
            "o_year": j.column("o_year"),
            "nation_rev_e4": rev * _np(j, "is_t"), "total_rev_e4": rev}))

    qualified = cogroup([
        typed_map(orders, lambda t: pa.table({
            "custkey": t.column("o_custkey").cast(pa.int64()),
            "okey": t.column("o_orderkey").cast(pa.int64()),
            "o_year": pc.year(t.column("o_orderdate"))})),
        typed_map(customer, lambda t: pa.table({
            "custkey": _i64(t, "c_custkey")[
                np.isin(_i64(t, "c_nationkey"), in_region)]}))],
        ["custkey"], lambda o, c: o.filter(pc.is_in(
            o.column("custkey"), value_set=c.column("custkey"))).select(
            ["okey", "o_year"]), op="market_share.customers")
    per_supp = cogroup([
        qualified,
        typed_map(lineitem, lambda t: _sum_by(["okey", "sk"], ["rev_e4"])(
            pa.table({"okey": _i64(t, "l_orderkey"),
                      "sk": _i64(t, "l_suppkey"), "rev_e4": _rev_e4(t)})))],
        ["okey"], lambda q, li: _sum_by(["sk", "o_year"], ["rev_e4"])(
            _join(li, q, "okey")), op="market_share.orders")
    acc = agg_fold(cogroup([per_supp, typed_map(supplier, lambda t: pa.table({
        "sk": t.column("s_suppkey").cast(pa.int64()),
        "is_t": np.isin(_i64(t, "s_nationkey"), tgt).astype(np.int64)}))],
        ["sk"], hop3, op="market_share.suppliers"),
        ["o_year"], [(c, "sum") for c in sums], op="market_share")
    return acc.append_column("share_bp", pa.array(
        _np(acc, "nation_rev_e4") * 10_000
        // np.maximum(_np(acc, "total_rev_e4"), 1)))


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

    Shape (the Q5 template): returned lineitems pre-aggregate revenue
    per orderkey batch-locally; the orderkey :func:`cogroup` emits
    custkey partials; the custkey :func:`cogroup` completes every
    customer's total, attaches (c_name, c_nationkey), and emits only
    its LOCAL top-``k`` by (revenue DESC, custkey ASC), so the driver
    merges O(blocks x k) rows — no global sort of the customer
    dimension.  Nation names broadcast.  Revenue is the exact integer
    rev_e4 = cents x (100 - disc_pct).

    Output pa.Table: (c_custkey, c_name, n_name, revenue_e4, n_items),
    ordered (revenue_e4 DESC, c_custkey ASC), at most ``k`` rows."""
    lo, hi = _ts_us(date_from), _ts_us(date_to)
    sums = ["rev_e4", "n_items"]
    order = [("revenue_e4", "descending"), ("c_custkey", "ascending")]

    def l_side(t: pa.Table) -> pa.Table:
        t = t.filter(_eq(t.column("l_returnflag"), returnflag))
        return _sum_by(["key"], sums)(pa.table({
            "key": _i64(t, "l_orderkey"), "rev_e4": _rev_e4(t),
            "n_items": _ones(t)}))

    def totals(x: pa.Table, c: pa.Table) -> pa.Table:
        """custkey totals are complete here: emit the local top-k."""
        j = _join(_sum_by(["c_custkey"], sums)(x), c, "c_custkey")
        return grouped_topk(pa.table({
            "c_custkey": j.column("c_custkey"), "c_name": j.column("c_name"),
            "nationkey": j.column("nationkey"),
            "revenue_e4": j.column("rev_e4"),
            "n_items": j.column("n_items")}), [], order, k)

    per_cust = cogroup([typed_map(lineitem, l_side),
                        _order_rows(orders, lo, hi)],
                       ["key"], _per_customer, op="returned_top")
    customers = typed_map(customer, lambda t: pa.table({
        "c_custkey": t.column("c_custkey").cast(pa.int64()),
        "c_name": t.column("c_name"),
        "nationkey": t.column("c_nationkey").cast(pa.int64())}))
    top = topk_complete(cogroup([per_cust, customers], ["c_custkey"], totals,
                                op="returned_top.customers"), [], order, k)
    return pa.table({
        "c_custkey": top.column("c_custkey"),
        "c_name": top.column("c_name"),
        "n_name": _lookup({nk: n for nk, (n, _) in nation_map.items()},
                          top.column("nationkey")).fill_null(""),
        "revenue_e4": top.column("revenue_e4"),
        "n_items": top.column("n_items"),
    })
