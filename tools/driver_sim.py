"""Driver-style correctness sim: every queries() entry vs its oracle at sf0.01.

Mirrors the driver compare: sort columns by name, sort rows, hash values.
Usage: python tools/driver_sim.py [sf_dir] [query ...]

Each query argument is an exact name or an ``fnmatch`` pattern, so
``'kg_*'`` runs one family.

The last stdout line is one JSON object: the PASS/ROWS_ONLY/BAD counts
and ``results``, each query's status, rows, seconds and the md5 of its
canonical (column- and row-sorted) output, so a diff of two runs' last
lines shows what a change moved.
"""
import fnmatch
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

import ray

SF = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
ONLY = set(sys.argv[2:])

ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
         include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)

import __ray_entry__ as E  # noqa: E402

qs = E.queries()
sqls = E.oracle_sql_for(SF)
con = duckdb.connect()
for t in ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{SF}/{t}.parquet')")


def _json_text(v):
    """A list/array/dict cell as JSON text; nested arrays and numpy
    scalars go through ``tolist``."""
    return json.dumps(v, sort_keys=True, default=lambda o: (
        o.tolist() if hasattr(o, "tolist") else str(o)))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Columns sorted by name, then rows by every column.  A column
    holding lists, arrays or dicts is compared as each cell's JSON text,
    since those cells do not sort."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object and df[c].map(
                lambda v: isinstance(v, (list, tuple, dict, np.ndarray))
        ).any():
            df[c] = df[c].map(_json_text)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def vhash(df: pd.DataFrame) -> str:
    return hashlib.md5(
        df.to_csv(index=False, float_format="%.9g").encode()).hexdigest()


def safe_hash(df) -> str | None:
    """Canonical hash of an unchecked output, or None when its rows
    still do not sort (a column mixing types)."""
    try:
        return vhash(canon(df))
    except (TypeError, ValueError, AttributeError):
        return None


results = {}
n_pass = n_rows_only = n_bad = 0
for name, fn in qs.items():
    if ONLY and not any(fnmatch.fnmatchcase(name, q) for q in ONLY):
        continue
    t0 = time.time()
    try:
        out = fn(SF)
        rdf = out.to_pandas() if hasattr(out, "to_pandas") else out
        dt = time.time() - t0
        if name not in sqls:
            results[name] = {"status": "ROWS_ONLY", "rows": len(rdf),
                             "sec": round(dt, 1), "hash": safe_hash(rdf)}
            n_rows_only += 1
            print(f"{name}: ROWS_ONLY rows={len(rdf)} {dt:.1f}s", flush=True)
            continue
        odf = con.execute(sqls[name]).df()
        a, b = canon(rdf), canon(odf)
        ok = (list(a.columns) == list(b.columns) and len(a) == len(b))
        if ok:
            try:
                pd.testing.assert_frame_equal(a, b, check_dtype=False)
            except AssertionError:
                ok = False
        status = "PASS" if ok else "BAD"
        if ok:
            n_pass += 1
        else:
            n_bad += 1
        results[name] = {"status": status, "rows": len(a),
                         "oracle_rows": len(b), "sec": round(dt, 1),
                         "hash": vhash(a)}
        print(f"{name}: {status} rows={len(a)}/{len(b)} {dt:.1f}s",
              flush=True)
    except Exception as exc:
        n_bad += 1
        results[name] = {"status": "ERROR", "error": repr(exc)[:200],
                         "sec": round(time.time() - t0, 1)}
        print(f"{name}: ERROR {exc!r}", flush=True)

print(json.dumps({"pass": n_pass, "rows_only": n_rows_only, "bad": n_bad,
                  "total": len(results), "results": results}))
ray.shutdown()
