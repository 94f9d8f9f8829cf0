"""Relational pipelines (TPC-H-shaped tables): oracle parity, hand-built
join semantics, and forced-path parity: every ``cogroup`` and
``keyed_complete`` folds at a huge cap and takes its exchange at cap
0, and both legs give the same rows."""

from __future__ import annotations

import logging

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
HUGE = 1 << 40

TABLES = ["lineitem", "orders", "customer", "nation", "region", "part",
          "supplier"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _legs(monkeypatch, caplog, run) -> list:
    """``run()`` at a huge cap, where every keyed step must log ``fold``,
    then at cap 0, where at least one must log ``exchange``.  A keyed
    ``agg_fold`` has no exchange to force: it is a driver fold whose
    accumulator the cap bounds, so it runs at the huge cap on both
    legs.  Returns each leg's result, a Dataset as a frame."""
    from clinicaltransformerner_ray import arrowutil
    from clinicaltransformerner_ray.pipelines import relational

    real = relational.agg_fold

    def agg_fold(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(arrowutil, "FOLD_MAX_BYTES", HUGE)
            return real(*args, **kwargs)

    monkeypatch.setattr(relational, "agg_fold", agg_fold)
    caplog.set_level(logging.INFO, logger="ray_kg")
    out = []
    for cap in (HUGE, 0):
        monkeypatch.setattr(arrowutil, "FOLD_MAX_BYTES", cap)
        caplog.clear()
        res = run()
        out.append(res if isinstance(res, pa.Table) else res.to_pandas())
        msgs = [r.getMessage() for r in caplog.records if r.name == "ray_kg"]
        assert msgs, cap
        if cap == HUGE:
            assert all(": fold (" in m for m in msgs), msgs
        else:
            assert any(": exchange (" in m for m in msgs), msgs
    return out


@pytest.mark.parametrize("name", ["tpch_pricing", "tpch_revenue_nation",
                                  "tpch_antijoin", "tpch_top_orders",
                                  "tpch_promo", "tpch_top_unshipped",
                                  "tpch_supplier_revenue",
                                  "tpch_order_priority",
                                  "tpch_rollup", "tpch_large_orders",
                                  "tpch_idle_rich",
                                  "tpch_min_cost_supplier",
                                  "tpch_disjunctive",
                                  "tpch_copurchase",
                                  "tpch_line_share",
                                  "tpch_revenue_deciles",
                                  "tpch_trade_matrix", "tpch_q6",
                                  "tpch_segment_stats",
                                  "tpch_waiting_suppliers",
                                  "tpch_part_variety",
                                  "tpch_custdist",
                                  "tpch_value_conc",
                                  "tpch_small_qty",
                                  "tpch_top_supplier",
                                  "tpch_market_share",
                                  "tpch_returned_top"])
def test_relational_oracle_parity(ray_session, con, name):
    import __ray_entry__ as E

    rdf = E.queries()[name](SF).to_pandas()
    odf = con.execute(E.oracle_sql_for(SF)[name]).df()
    a, b = _canon(rdf), _canon(odf)
    assert len(a) == len(b), name
    pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=name)


def test_revenue_by_nation_join_semantics(ray_session):
    """Hand-built micro-warehouse: date window drops order 2, region
    filter drops nation 1's customer, multi-lineitem orders aggregate,
    and an orderless customer contributes nothing."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        revenue_by_nation)

    def ts(s):
        return pd.Timestamp(s)

    lineitem = rd.from_arrow(pa.table({
        "l_orderkey": pa.array([10, 10, 20, 30], pa.int64()),
        "l_extendedprice": pa.array([100.0, 200.0, 50.0, 400.0]),
        "l_discount": pa.array([0.10, 0.00, 0.05, 0.02]),
    }))
    orders = rd.from_arrow(pa.table({
        "o_orderkey": pa.array([10, 20, 30], pa.int64()),
        "o_custkey": pa.array([1, 1, 2], pa.int64()),
        "o_orderdate": pa.array(
            [ts("1996-06-01"), ts("1995-06-01"), ts("1996-07-01")],
            pa.timestamp("us")),
    }))
    customer = rd.from_arrow(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_nationkey": pa.array([0, 1, 0], pa.int32()),
    }))
    nation_map = {0: ("ALPHA", "ASIA"), 1: ("BETA", "EUROPE")}
    out = (revenue_by_nation(lineitem, orders, customer, nation_map,
                             region="ASIA")
           .to_pandas().sort_values("n_name").reset_index(drop=True))
    # order 10 (cust 1, nation ALPHA): 100*90e2 wait — revenue_e4 =
    # cents * (100 - disc_pct): 10000*90 + 20000*100 = 2_900_000;
    # order 20 is outside the window; order 30 belongs to nation BETA
    # (filtered region); customer 3 has no orders.
    assert out["n_name"].tolist() == ["ALPHA"]
    assert out["revenue_e4"].tolist() == [10000 * 90 + 20000 * 100]
    assert out["n_items"].tolist() == [2]
    assert np.issubdtype(out["revenue_e4"].dtype, np.integer)


def test_antijoin_semantics(ray_session):
    """Anti-join on a micro-warehouse: a customer with an in-window
    order is excluded, one with only out-of-window orders survives,
    one with no orders survives."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        customers_without_orders)

    def ts(s):
        return pd.Timestamp(s)

    customer = rd.from_arrow(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_nationkey": pa.array([7, 8, 9], pa.int32()),
    }))
    orders = rd.from_arrow(pa.table({
        "o_custkey": pa.array([1, 1, 2], pa.int64()),
        "o_orderdate": pa.array(
            [ts("1996-03-01"), ts("1995-01-01"), ts("1995-06-01")],
            pa.timestamp("us")),
    }))
    out = (customers_without_orders(customer, orders)
           .to_pandas().sort_values("c_custkey").reset_index(drop=True))
    assert out["c_custkey"].tolist() == [2, 3]
    assert out["c_nationkey"].tolist() == [8, 9]


def test_pricing_summary_cutoff_and_groups(ray_session):
    """Ship-date cutoff excludes late rows; sums are exact integers."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        pricing_summary)

    def ts(s):
        return pd.Timestamp(s)

    li = rd.from_arrow(pa.table({
        "l_returnflag": pa.array(["A", "A", "N"]),
        "l_linestatus": pa.array(["F", "F", "O"]),
        "l_quantity": pa.array([3.0, 5.0, 7.0]),
        "l_extendedprice": pa.array([10.00, 20.00, 30.00]),
        "l_discount": pa.array([0.05, 0.10, 0.00]),
        "l_tax": pa.array([0.02, 0.00, 0.08]),
        "l_shipdate": pa.array(
            [ts("1998-01-01"), ts("2001-01-01"), ts("1999-06-01")],
            pa.timestamp("us")),
    }))
    out = (pricing_summary(li, ship_cutoff="2000-09-02").to_pandas()
           .sort_values(["l_returnflag", "l_linestatus"])
           .reset_index(drop=True))
    # the 2001 row is excluded -> group (A,F) has ONE row
    af = out[out["l_returnflag"] == "A"].iloc[0]
    assert af["count_order"] == 1 and af["sum_qty"] == 3
    assert af["sum_base_price_cents"] == 1000
    assert af["sum_disc_price_e4"] == 1000 * 95
    assert af["sum_charge_e6"] == 1000 * 95 * 102
    assert af["avg_disc_pct"] == 5.0
    no = out[out["l_returnflag"] == "N"].iloc[0]
    assert no["sum_charge_e6"] == 3000 * 100 * 108


def test_top_orders_per_customer_semantics(ray_session):
    """Grouped top-k on a hand-built orders table: ties break by
    orderkey ASC, a customer with < k orders keeps them all, and the
    result is invariant to how blocks split a customer's orders (the
    local-top-k partial argument)."""
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        top_orders_per_customer)

    # cust 1: five orders, two tied at the k boundary (30.00 twice)
    # cust 2: one order only
    keys = [101, 102, 103, 104, 105, 201]
    cust = [1, 1, 1, 1, 1, 2]
    price = [10.0, 40.0, 30.0, 30.0, 20.0, 7.5]
    tbl = pa.table({
        "o_orderkey": pa.array(keys, pa.int64()),
        "o_custkey": pa.array(cust, pa.int64()),
        "o_totalprice": pa.array(price, pa.float64()),
    })
    for parts in (1, 4):
        out = (top_orders_per_customer(
                   rd.from_arrow(tbl).repartition(parts), k=3)
               .to_pandas()
               .sort_values(["o_custkey", "rk"]).reset_index(drop=True))
        assert out["o_orderkey"].tolist() == [102, 103, 104, 201]
        assert out["rk"].tolist() == [1, 2, 3, 1]
        assert out["total_cents"].tolist() == [4000, 3000, 3000, 750]


@pytest.mark.parametrize("name", ["tpch_promo", "tpch_top_unshipped",
                                  "tpch_supplier_revenue",
                                  "tpch_order_priority",
                                  "tpch_min_cost_supplier",
                                  "tpch_disjunctive",
                                  "tpch_copurchase",
                                  "tpch_line_share",
                                  "tpch_revenue_deciles",
                                  "tpch_trade_matrix",
                                  "tpch_waiting_suppliers",
                                  "tpch_part_variety",
                                  "tpch_custdist",
                                  "tpch_value_conc",
                                  "tpch_small_qty",
                                  "tpch_top_supplier",
                                  "tpch_market_share",
                                  "tpch_returned_top"])
def test_new_joins_block_split_invariance(ray_session, con, monkeypatch,
                                          caplog, name):
    """The join pipelines must produce oracle-identical output when
    every input is split across multiple blocks, on both legs of
    ``_legs``: the fold concatenates the blocks, and the exchange at
    cap 0 is the leg that exercises the cogroup / semi-join /
    local-top-k block-boundary logic (the sf0.001 parquet reads are
    single-block)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    import __ray_entry__ as E
    from clinicaltransformerner_ray.pipelines.relational import (
        order_priority_counts, promo_revenue_by_month,
        revenue_by_supplier_nation, top_unshipped_orders)

    def ds(table, cols, parts=5):
        t = pq.read_table(f"{SF}/{table}.parquet", columns=cols)
        return rd.from_arrow(t).repartition(parts)

    def run():
        if name == "tpch_promo":
            res = promo_revenue_by_month(
                ds("lineitem", ["l_partkey", "l_extendedprice",
                                "l_discount", "l_shipdate"]),
                ds("part", ["p_partkey", "p_type"], 3))
        elif name == "tpch_top_unshipped":
            res = top_unshipped_orders(
                ds("lineitem", ["l_orderkey", "l_extendedprice",
                                "l_discount", "l_shipdate"]),
                ds("orders", ["o_orderkey", "o_custkey", "o_orderdate",
                              "o_orderpriority"], 4),
                ds("customer", ["c_custkey", "c_mktsegment"], 3))
        elif name == "tpch_order_priority":
            res = order_priority_counts(
                ds("orders", ["o_orderkey", "o_orderdate",
                              "o_orderpriority"], 4),
                ds("lineitem", ["l_orderkey", "l_returnflag"]))
        elif name == "tpch_trade_matrix":
            from clinicaltransformerner_ray.pipelines.relational import (
                _nation_region_map, trade_matrix)

            nn = {k: v[0] for k, v in _nation_region_map(SF).items()}
            res = trade_matrix(
                ds("lineitem", ["l_suppkey", "l_orderkey",
                                "l_extendedprice", "l_discount"], 6),
                ds("supplier", ["s_suppkey", "s_nationkey"], 2),
                ds("orders", ["o_orderkey", "o_custkey"], 4),
                ds("customer", ["c_custkey", "c_nationkey"], 3),
                nn)
        elif name == "tpch_revenue_deciles":
            from clinicaltransformerner_ray.pipelines.relational import (
                customer_revenue_deciles)

            res = customer_revenue_deciles(
                ds("orders", ["o_custkey", "o_totalprice"], 5))
        elif name == "tpch_line_share":
            from clinicaltransformerner_ray.pipelines.relational import (
                lineitem_order_share)

            res = lineitem_order_share(
                ds("lineitem", ["l_orderkey", "l_linenumber",
                                "l_extendedprice", "l_discount"], 6))
        elif name == "tpch_copurchase":
            from clinicaltransformerner_ray.pipelines.relational import (
                copurchased_parts)

            res = copurchased_parts(
                ds("lineitem", ["l_orderkey", "l_partkey"], 7), min_count=2)
        elif name == "tpch_disjunctive":
            from clinicaltransformerner_ray.pipelines.relational import (
                disjunctive_revenue)

            res = disjunctive_revenue(
                ds("lineitem", ["l_partkey", "l_quantity",
                                "l_extendedprice", "l_discount"]),
                ds("part", ["p_partkey", "p_brand", "p_size"], 3))
        elif name == "tpch_min_cost_supplier":
            from clinicaltransformerner_ray.pipelines.relational import (
                _nation_region_map, min_cost_supplier)

            nn = {k: v[0] for k, v in _nation_region_map(SF).items()}
            res = min_cost_supplier(
                ds("lineitem", ["l_partkey", "l_suppkey",
                                "l_extendedprice"]),
                ds("part", ["p_partkey", "p_brand"], 3),
                ds("supplier", ["s_suppkey", "s_name", "s_nationkey"], 2),
                nn)
        elif name == "tpch_waiting_suppliers":
            from clinicaltransformerner_ray.pipelines.relational import (
                waiting_suppliers)

            res = waiting_suppliers(
                ds("lineitem", ["l_orderkey", "l_suppkey",
                                "l_shipdate"], 6),
                ds("orders", ["o_orderkey", "o_orderdate"], 4),
                ds("supplier", ["s_suppkey", "s_name"], 2))
        elif name == "tpch_value_conc":
            from clinicaltransformerner_ray.pipelines.relational import (
                value_concentration)

            res = value_concentration(
                ds("lineitem", ["l_suppkey", "l_partkey",
                                "l_extendedprice", "l_discount"], 6))
        elif name == "tpch_custdist":
            from clinicaltransformerner_ray.pipelines.relational import (
                customer_order_distribution)

            res = customer_order_distribution(
                ds("orders", ["o_custkey"], 5),
                ds("customer", ["c_custkey"], 3))
        elif name == "tpch_part_variety":
            from clinicaltransformerner_ray.pipelines.relational import (
                supplier_part_variety)

            res = supplier_part_variety(
                ds("lineitem", ["l_partkey", "l_suppkey"], 7),
                ds("part", ["p_partkey", "p_brand", "p_type",
                            "p_size"], 3),
                ds("supplier", ["s_suppkey", "s_name"], 2))
        elif name == "tpch_small_qty":
            from clinicaltransformerner_ray.pipelines.relational import (
                small_qty_revenue)

            res = small_qty_revenue(
                ds("lineitem", ["l_partkey", "l_quantity",
                                "l_extendedprice"], 6),
                ds("part", ["p_partkey", "p_brand"], 3))
        elif name == "tpch_top_supplier":
            from clinicaltransformerner_ray.pipelines.relational import (
                top_supplier)

            res = top_supplier(
                ds("lineitem", ["l_suppkey", "l_extendedprice",
                                "l_discount", "l_shipdate"], 6),
                ds("supplier", ["s_suppkey", "s_name"], 2))
        elif name == "tpch_market_share":
            from clinicaltransformerner_ray.pipelines.relational import (
                _nation_region_map, market_share)

            res = market_share(
                ds("lineitem", ["l_orderkey", "l_suppkey",
                                "l_extendedprice", "l_discount"], 6),
                ds("supplier", ["s_suppkey", "s_nationkey"], 2),
                ds("orders", ["o_orderkey", "o_custkey", "o_orderdate"], 4),
                ds("customer", ["c_custkey", "c_nationkey"], 3),
                _nation_region_map(SF))
        elif name == "tpch_returned_top":
            from clinicaltransformerner_ray.pipelines.relational import (
                _nation_region_map, returned_top)

            res = returned_top(
                ds("lineitem", ["l_orderkey", "l_returnflag",
                                "l_extendedprice", "l_discount"], 6),
                ds("orders", ["o_orderkey", "o_custkey",
                              "o_orderdate"], 4),
                ds("customer", ["c_custkey", "c_name", "c_nationkey"], 3),
                _nation_region_map(SF))
        else:
            res = revenue_by_supplier_nation(
                ds("lineitem", ["l_suppkey", "l_extendedprice",
                                "l_discount"]),
                ds("supplier", ["s_suppkey", "s_nationkey"], 2))
        return res

    odf = con.execute(E.oracle_sql_for(SF)[name]).df()
    for res in _legs(monkeypatch, caplog, run):
        rdf = res.to_pandas() if isinstance(res, pa.Table) else res
        pd.testing.assert_frame_equal(_canon(rdf), _canon(odf),
                                      check_dtype=False, obj=name)


def test_order_priority_semi_join_semantics(ray_session):
    """Semi-join rules: an order with MULTIPLE returned lines counts
    ONCE; an order with no returned line never counts; the date window
    excludes orders outside it even with returned lines."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        order_priority_counts)

    def ts(s):
        return pd.Timestamp(s)

    orders = rd.from_arrow(pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_orderdate": pa.array([ts("1996-02-01"), ts("1996-03-01"),
                                 ts("1995-02-01"), ts("1996-04-01")]),
        "o_orderpriority": pa.array(["1-URGENT", "1-URGENT",
                                     "1-URGENT", "5-LOW"], pa.string()),
    })).repartition(2)
    lineitem = rd.from_arrow(pa.table({
        # order 1: two R lines (counts once); order 2: only N (no
        # count); order 3: R but outside window; order 4: one R
        "l_orderkey": pa.array([1, 1, 2, 3, 4], pa.int64()),
        "l_returnflag": pa.array(["R", "R", "N", "R", "R"], pa.string()),
    })).repartition(3)
    out = (order_priority_counts(orders, lineitem)
           .to_pandas().sort_values("o_orderpriority")
           .reset_index(drop=True))
    assert out["o_orderpriority"].tolist() == ["1-URGENT", "5-LOW"]
    assert out["order_count"].tolist() == [1, 1]


def test_revenue_rollup_levels_consistent(ray_session):
    """The three ROLLUP levels must be internally consistent: nation
    rows sum to their region row, region rows sum to the grand total —
    and the result is block-split invariant."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        _nation_region_map, revenue_rollup)

    def ds(table, cols, parts):
        t = pq.read_table(f"{SF}/{table}.parquet", columns=cols)
        return rd.from_arrow(t).repartition(parts)

    out = revenue_rollup(
        ds("orders", ["o_custkey", "o_totalprice"], 5),
        ds("customer", ["c_custkey", "c_nationkey"], 3),
        _nation_region_map(SF)).to_pandas()
    grand = out[(out["r_name"] == "ALL")]
    assert len(grand) == 1
    nat = out[(out["n_name"] != "ALL")]
    reg = out[(out["n_name"] == "ALL") & (out["r_name"] != "ALL")]
    for col in ["revenue_cents", "n_orders"]:
        assert nat[col].sum() == grand[col].iloc[0]
        assert reg[col].sum() == grand[col].iloc[0]
        per_region = nat.groupby("r_name")[col].sum()
        for r, v in per_region.items():
            assert reg.loc[reg["r_name"] == r, col].iloc[0] == v


def test_large_volume_orders_semantics(ray_session):
    """HAVING boundary is strict (> threshold), multi-batch partials
    complete, and the customer join attaches the right name."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        large_volume_orders)

    # order 1: 100+60=160 qty (qualifies); order 2: 150 exactly (no);
    # order 3: 10 (no)
    lineitem = rd.from_arrow(pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], pa.int64()),
        "l_quantity": pa.array([100.0, 60.0, 150.0, 10.0]),
    }))
    orders = rd.from_arrow(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([7, 7, 8], pa.int64()),
        "o_totalprice": pa.array([1000.50, 20.0, 5.0]),
    }))
    customer = rd.from_arrow(pa.table({
        "c_custkey": pa.array([7, 8], pa.int64()),
        "c_name": pa.array(["alice", "bob"], pa.string()),
    }))
    out = large_volume_orders(
        lineitem, orders, customer, qty_threshold=150).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.c_custkey, r.c_name, r.o_orderkey,
            r.total_cents, r.sum_qty) == (7, "alice", 1, 100050, 160)


def test_idle_rich_customers_semantics(ray_session):
    """Mean is over POSITIVE balances only, comparison is strict and
    integer-exact, and any order past the cutoff disqualifies."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        idle_rich_customers)

    # positive balances: 100, 200, 300 -> mean 200; negative ignored
    customer = rd.from_arrow(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_acctbal": pa.array([1.00, 2.00, 3.00, -50.0]),
        "c_mktsegment": pa.array(["A", "A", "B", "B"], pa.string()),
    }))
    # cust 3 (above mean) ordered recently -> excluded;
    # cust 2 == mean -> strict > excludes
    orders = rd.from_arrow(pa.table({
        "o_custkey": pa.array([3], pa.int64()),
        "o_orderdate": pa.array([pd.Timestamp("2001-05-01")],
                                pa.timestamp("us")),
    }))
    out = idle_rich_customers(
        customer, orders, idle_since="2001-01-01").to_pandas()
    assert len(out) == 0

    # move cust 3's order BEFORE the cutoff -> cust 3 qualifies
    orders_old = rd.from_arrow(pa.table({
        "o_custkey": pa.array([3], pa.int64()),
        "o_orderdate": pa.array([pd.Timestamp("2000-05-01")],
                                pa.timestamp("us")),
    }))
    out = idle_rich_customers(
        customer, orders_old, idle_since="2001-01-01").to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.c_mktsegment, r.n_custs, r.sum_acctbal_cents) == ("B", 1, 300)


def _parquet(table: str, cols: list[str], parts: int):
    import pyarrow.parquet as pq
    import ray.data as rd

    return rd.from_arrow(pq.read_table(f"{SF}/{table}.parquet",
                                       columns=cols)).repartition(parts)


def test_market_share_fold_matches_exchange(ray_session, monkeypatch,
                                            caplog):
    """Forced-path bit-parity: ``market_share``'s one path folds every
    hop at a huge cap and exchanges at cap 0, and the two legs give
    equal tables."""
    from clinicaltransformerner_ray.pipelines.relational import (
        _nation_region_map, market_share)

    fold, exch = _legs(monkeypatch, caplog, lambda: market_share(
        _parquet("lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice",
                              "l_discount"], 6),
        _parquet("supplier", ["s_suppkey", "s_nationkey"], 2),
        _parquet("orders", ["o_orderkey", "o_custkey", "o_orderdate"], 4),
        _parquet("customer", ["c_custkey", "c_nationkey"], 3),
        nation_map=_nation_region_map(SF)))
    assert fold.equals(exch)
    assert fold.num_rows > 0


def test_top_supplier_fold_matches_exchange(ray_session, monkeypatch,
                                            caplog):
    """Forced-path parity: ``top_supplier``'s one path folds at a huge
    cap and exchanges at cap 0, and the two legs give the same rows."""
    from clinicaltransformerner_ray.pipelines.relational import (
        top_supplier)

    fold, exch = _legs(monkeypatch, caplog, lambda: top_supplier(
        _parquet("lineitem", ["l_suppkey", "l_extendedprice", "l_discount",
                              "l_shipdate"], 6),
        _parquet("supplier", ["s_suppkey", "s_name"], 2)))
    assert len(fold) > 0
    pd.testing.assert_frame_equal(_canon(fold), _canon(exch),
                                  check_dtype=False)


def test_market_share_empty_region(ray_session):
    """A region with no customers must yield an empty (not crashing)
    result on the broadcast path — empty key sets short-circuit the
    sorted-membership probes."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from clinicaltransformerner_ray.pipelines.relational import (
        _nation_region_map, market_share)

    def ds(table, cols, parts):
        t = pq.read_table(f"{SF}/{table}.parquet", columns=cols)
        return rd.from_arrow(t).repartition(parts)

    out = market_share(
        ds("lineitem", ["l_orderkey", "l_suppkey",
                        "l_extendedprice", "l_discount"], 3),
        ds("supplier", ["s_suppkey", "s_nationkey"], 2),
        ds("orders", ["o_orderkey", "o_custkey", "o_orderdate"], 2),
        ds("customer", ["c_custkey", "c_nationkey"], 2),
        _nation_region_map(SF), region="NO_SUCH_REGION")
    assert out.num_rows == 0
    assert out.schema.names == ["o_year", "nation_rev_e4",
                                "total_rev_e4", "share_bp"]
