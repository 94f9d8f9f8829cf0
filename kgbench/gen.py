"""Seeded transcript-table generator for the KG benchmark.

Writes ``turns/`` (sharded parquet) and ``aliases.parquet`` in the layout
``synth.ensure_synth`` reads (``synth.CACHE_ROOT/<name>``), plus
``mentions.parquet``: the generator's own record of every alias it
injected, one row per (conv_id, turn_idx, alias) with its count.  That
record, not the engine, is the source of every expected answer.

The construction keeps the invariants under which tagger output equals the
injected record exactly:

  - every word is used by at most one alias and never as a filler, so an
    alias phrase occurs in a turn iff it was injected, and no alias is a
    sub-phrase of another;
  - each injected alias sits in its own gap between filler words, so at
    least one filler separates any two injected aliases (greedy
    longest-match tagging equals word-boundary counting, and the tagger's
    B->I noise is repaired back to the same spans).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ENTITY_TYPES = ["problem", "treatment", "test", "drug"]
ROLES = ["user", "assistant", "tool"]
TOOLS = ["search", "retrieve", "calc", "chart_lookup"]
SYLLABLES = ["ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "ne",
             "pa", "qui", "ro", "su", "ti", "vo", "wa", "xe", "yo", "zu"]
EMBED_DIM = 16
N_FILLERS = 400
#: bump when the generated bytes change, so stale caches are never reused
GEN_VERSION = 1


@dataclasses.dataclass(frozen=True)
class Shape:
    """What one workload's transcript table looks like."""

    n_turns: int
    n_entities: int
    #: Zipf exponent of entity popularity (0 = uniform)
    zipf: float
    #: share of all turns in the single mega-conversation
    mega_frac: float
    #: lognormal (mu, sigma) of the other conversations' turn counts
    conv_mu: float
    conv_sigma: float
    #: share of turns that are long (many windows per turn)
    long_frac: float
    #: filler words per ordinary turn, drawn uniformly from [lo, hi]
    fill_lo: int
    fill_hi: int
    #: entities per turn: ``ent_base + Poisson(ent_lam)``
    ent_base: int
    ent_lam: float


def input_name(shape: Shape, seed: int) -> str:
    """Cache directory name of one input: starts with "sf", as
    ``synth.ensure_synth`` requires, and changes with the generator
    version and every shape field."""
    key = hashlib.sha1(repr((GEN_VERSION, shape)).encode()).hexdigest()[:10]
    return f"sfkgb-{key}-s{seed}"


def _unique_words(rng: np.random.RandomState, n: int, lengths: list[int],
                  taken: set[str]) -> list[str]:
    """``n`` new words of ``lengths`` syllables each, none in ``taken``.
    A syllable is a consonant group followed by vowels, so distinct
    syllable sequences spell distinct words."""
    out: list[str] = []
    while len(out) < n:
        k = 2 * (n - len(out))
        lens = rng.choice(lengths, size=k)
        sy = rng.randint(0, len(SYLLABLES), size=(k, max(lengths)))
        for length, row in zip(lens, sy):
            w = "".join(SYLLABLES[j] for j in row[:length])
            if w not in taken:
                taken.add(w)
                out.append(w)
                if len(out) == n:
                    break
    return out


def build_lexicon(rng: np.random.RandomState, n_entities: int
                  ) -> tuple[pa.Table, list[str]]:
    """(aliases table, filler words).  One or two aliases per entity, one
    to three words per alias."""
    n_alias = 1 + (rng.random_sample(n_entities) < 1 / 3)
    n_words = rng.randint(1, 4, size=int(n_alias.sum()))
    taken: set[str] = set()
    fillers = _unique_words(rng, N_FILLERS, [1, 2, 3], taken)
    words = _unique_words(rng, int(n_words.sum()), [2, 3, 4], taken)
    alias, etype, eid = [], [], []
    w = a = 0
    for k in range(n_entities):
        for _ in range(n_alias[k]):
            alias.append(" ".join(words[w:w + n_words[a]]))
            w += n_words[a]
            a += 1
            etype.append(ENTITY_TYPES[k % len(ENTITY_TYPES)])
            eid.append(f"E{k:05d}")
    emb = rng.normal(size=(len(alias), EMBED_DIM)).astype(np.float32)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    table = pa.table({
        "alias": pa.array(alias, pa.string()),
        "type": pa.array(etype, pa.string()),
        "entity_id": pa.array(eid, pa.string()),
        "embedding": pa.array(list(emb), pa.list_(pa.float32())),
    })
    return table, fillers


def _conv_sizes(rng: np.random.RandomState, shape: Shape) -> list[int]:
    mega = max(50, int(shape.n_turns * shape.mega_frac))
    sizes = [mega]
    remaining = shape.n_turns - mega
    while remaining > 0:
        s = int(min(remaining, max(2, rng.lognormal(shape.conv_mu,
                                                      shape.conv_sigma))))
        sizes.append(s)
        remaining -= s
    return sizes


def generate(shape: Shape, seed: int) -> tuple[pa.Table, pa.Table, pa.Table]:
    """(turns, aliases, mentions) for one seed; the same seed gives the
    same bytes."""
    rng = np.random.RandomState(seed)
    aliases, fillers = build_lexicon(rng, shape.n_entities)
    alias_str = aliases.column("alias").to_pylist()
    alias_words = [a.split(" ") for a in alias_str]
    alias_eid = np.asarray(aliases.column("entity_id").to_pylist())
    # entity popularity: Zipf over a seeded ranking of the entities
    eid_alias: dict[str, list[int]] = {}
    for i, e in enumerate(alias_eid):
        eid_alias.setdefault(e, []).append(i)
    ents = sorted(eid_alias)
    weights = 1.0 / np.arange(1, len(ents) + 1) ** shape.zipf
    rank = rng.permutation(len(ents))
    p = weights[rank] / weights.sum()

    n = shape.n_turns
    sizes = _conv_sizes(rng, shape)
    conv_of = np.repeat(np.arange(len(sizes)), sizes)
    turn_of = np.concatenate([np.arange(s) for s in sizes])
    # exact counts for the rare kinds of turn, so every seed does the same
    # amount of work: 0.5% empty, long_frac long, the rest ordinary
    kind = np.zeros(n, dtype=np.int8)
    special = rng.permutation(n)
    n_empty = n // 200
    n_long = int(n * shape.long_frac)
    kind[special[:n_empty]] = 1
    kind[special[n_empty:n_empty + n_long]] = 2
    n_fill = rng.randint(shape.fill_lo, shape.fill_hi + 1, size=n)
    n_fill[kind == 2] = rng.randint(200, 500, size=n_long)
    n_ent = shape.ent_base + rng.poisson(shape.ent_lam, size=n)
    n_ent = np.minimum(n_ent, n_fill + 1)
    n_ent[kind == 1] = 0
    picks = rng.choice(len(ents), size=int(n_ent.sum()), p=p)
    alias_pick = rng.randint(0, 2, size=len(picks))
    fill_idx = rng.randint(0, len(fillers), size=int(n_fill.sum()))
    caps = rng.random_sample(size=len(picks) * 3) < 0.3
    newline = rng.random_sample(size=n) < 0.05
    nl_pos = rng.randint(1, 1 << 30, size=n)

    texts: list[str] = []
    m_conv, m_turn, m_alias = [], [], []
    pk = fo = 0
    for i in range(n):
        if kind[i] == 1:
            texts.append("")
            continue
        toks = [fillers[j] for j in fill_idx[fo:fo + n_fill[i]]]
        fo += n_fill[i]
        k = int(n_ent[i])
        gaps = np.sort(rng.choice(len(toks) + 1, size=k, replace=False))[::-1]
        for g in gaps:
            cands = eid_alias[ents[picks[pk]]]
            a = cands[alias_pick[pk] % len(cands)]
            words = [w.capitalize() if caps[3 * pk + q] else w
                     for q, w in enumerate(alias_words[a])]
            toks[g:g] = words
            m_conv.append(conv_of[i])
            m_turn.append(turn_of[i])
            m_alias.append(a)
            pk += 1
        if newline[i] and len(toks) > 4:
            j = 1 + nl_pos[i] % (len(toks) - 2)
            texts.append(" ".join(toks[:j]) + "\n" + " ".join(toks[j:]))
        else:
            texts.append(" ".join(toks))

    conv_ids = np.asarray([f"c{c:07d}" for c in range(len(sizes))],
                          dtype=object)
    role = np.where(rng.random_sample(n) < 0.08, 2, turn_of % 2)
    tool = np.where(role == 2, rng.randint(0, len(TOOLS), size=n), -1)
    base_ts = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z in microseconds
    ts = base_ts + conv_of * 3_600_000_000 + turn_of * 7_000_000
    # shuffled row order, so the engine's ordering sorts do real work
    perm = rng.permutation(n)
    turns = pa.table({
        "conv_id": pa.array(conv_ids[conv_of][perm], pa.string()),
        "turn_idx": pa.array(turn_of[perm].astype(np.int32), pa.int32()),
        "role": pa.array(np.asarray(ROLES, dtype=object)[role][perm],
                         pa.string()),
        "text": pa.array(np.asarray(texts, dtype=object)[perm], pa.string()),
        "tool": pa.array(np.asarray(TOOLS + [""], dtype=object)[tool][perm],
                         pa.string()),
        "ts": pa.array(ts[perm].astype(np.int64), pa.timestamp("us")),
    })
    mentions = _mention_record(conv_ids, np.asarray(m_conv, np.int64),
                               np.asarray(m_turn, np.int64),
                               np.asarray(m_alias, np.int64), aliases)
    return turns, aliases, mentions


def _mention_record(conv_ids, conv, turn, alias, aliases: pa.Table
                    ) -> pa.Table:
    """Injected aliases counted per (conv_id, turn_idx, alias): the ``mm``
    relation of the repository's oracle SQL (surface_norm, type,
    entity_id, n)."""
    if len(conv):
        key = np.stack([conv, turn, alias], axis=1)
        uniq, counts = np.unique(key, axis=0, return_counts=True)
    else:
        uniq, counts = np.zeros((0, 3), np.int64), np.zeros(0, np.int64)
    a = uniq[:, 2]
    return pa.table({
        "conv_id": pa.array(conv_ids[uniq[:, 0]], pa.string()),
        "turn_idx": pa.array(uniq[:, 1].astype(np.int32), pa.int32()),
        "surface_norm": aliases.column("alias").take(a),
        "type": aliases.column("type").take(a),
        "entity_id": aliases.column("entity_id").take(a),
        "n": pa.array(counts.astype(np.int64), pa.int64()),
    })


def write_inputs(out_dir: str, shape: Shape, seed: int) -> None:
    """Generate and write one input directory atomically (write to a
    temporary sibling, then rename)."""
    if os.path.isdir(out_dir):
        return
    turns, aliases, mentions = generate(shape, seed)
    tmp = f"{out_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "turns"))
    n_shards = min(64, max(4, turns.num_rows // 8192))
    per = -(-turns.num_rows // n_shards)
    for i in range(n_shards):
        pq.write_table(turns.slice(i * per, per),
                       os.path.join(tmp, "turns", f"part-{i:04d}.parquet"),
                       row_group_size=4096)
    pq.write_table(aliases, os.path.join(tmp, "aliases.parquet"))
    pq.write_table(mentions, os.path.join(tmp, "mentions.parquet"))
    try:
        os.rename(tmp, out_dir)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # a concurrent writer won
