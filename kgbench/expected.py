"""Expected answers that do not come from the engine, and the canonical
hash both sides are compared by.

The answers are the repository's DuckDB oracle SQL (``__ray_entry__.
oracle_sql_for``) with one change: its mention CTE, which re-derives
mentions by cross-joining every turn with every alias, is replaced by the
generator's own record of injected mentions (``mentions.parquet``).  That
keeps each query's definition exactly as the oracle states it while the
cost stays linear in the mentions, not turns x lexicon.
"""

from __future__ import annotations

import hashlib
import json
import os

import duckdb
import pandas as pd
import pyarrow as pa

#: graph-suite function -> oracle query name
GRAPH_QUERIES = {
    "pagerank": "kg_pagerank",
    "label_propagation": "kg_lpa",
    "kcore": "kg_kcore",
    "ktruss": "kg_ktruss",
    "hits_scores": "kg_hits",
    "random_walks": "kg_walks",
    "local_bridges": "kg_local_bridges",
    "link_prediction_ra": "kg_link_ra",
    "degree_assortativity": "kg_assortativity",
    "jaccard_links": "kg_jaccard_links",
}
BUILD_QUERIES = {"triples": "kg_triples", "entities": "kg_entities"}


def canon_hash(tbl: pa.Table) -> dict:
    """Row count plus an order-free content hash: columns by name, integer
    widths and string kinds unified, rows sorted on every column."""
    cols = sorted(tbl.column_names)
    arrays = {}
    for c in cols:
        a = tbl.column(c).combine_chunks()
        if pa.types.is_dictionary(a.type):
            a = a.dictionary_decode()
        if pa.types.is_integer(a.type):
            a = a.cast(pa.int64())
        elif pa.types.is_large_string(a.type):
            a = a.cast(pa.string())
        arrays[c] = a
    t = pa.table(arrays).sort_by([(c, "ascending") for c in cols])
    h = hashlib.sha256("\x1f".join(cols).encode())
    if t.num_rows:
        h.update(pd.util.hash_pandas_object(
            t.to_pandas(), index=False).to_numpy().tobytes())
    return {"rows": t.num_rows, "hash": h.hexdigest()[:24]}


def oracle_queries(sf_dir: str, names: list[str]) -> dict[str, str]:
    """The oracle SQL for ``names`` over the generated inputs in
    ``sf_dir``, reading mentions from the generator's record."""
    import __ray_entry__ as entry

    from clinicaltransformerner_ray.synth import ensure_synth

    paths = ensure_synth(sf_dir)
    cte = entry._MENTION_CTE.format(turns=paths["turns_sql"],
                                    aliases=paths["aliases"])
    record = os.path.join(paths["dir"], "mentions.parquet")
    mm = f"\nWITH mm AS (SELECT * FROM read_parquet('{record}'))\n"
    sql = entry.oracle_sql_for(sf_dir)
    out = {}
    for name in names:
        if sql[name].count(cte) != 1:
            raise RuntimeError(f"oracle SQL for {name} no longer starts "
                               "from the shared mention CTE")
        out[name] = sql[name].replace(cte, mm)
    return out


def run_sql(queries: dict[str, str]) -> dict[str, pa.Table]:
    con = duckdb.connect(config={"threads": 4, "memory_limit": "2GB"})
    try:
        return {k: con.execute(q).arrow() for k, q in queries.items()}
    finally:
        con.close()


def ensure_expected(sf_dir: str, outputs: dict[str, str]) -> dict:
    """Canonical hashes of the expected ``outputs`` (output name -> oracle
    query name), computed once and cached beside the inputs."""
    path = os.path.join(sf_dir, "expected.json")
    cached = {}
    if os.path.exists(path):
        with open(path) as f:
            cached = json.load(f)
    missing = {k: q for k, q in outputs.items() if k not in cached}
    if missing:
        tables = run_sql(oracle_queries(sf_dir, sorted(set(missing.values()))))
        for k, q in missing.items():
            cached[k] = canon_hash(tables[q])
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(cached, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return {k: cached[k] for k in outputs}
