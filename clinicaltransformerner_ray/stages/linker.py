"""Entity-linking stage: alias dictionary + embedding-similarity.

The north rule's linking stage: "stateful entity-linking (alias
dictionary + embedding-similarity scoring)".  Load-once state: the
distinct aliases with their entity ids and the alias embedding matrix,
built once per worker process from the columns of the alias table
(one ``ray.put``, ``stages/stage_map.py``), never per batch.  The
flagship runs it inside the tagger (``MentionTagger(emit="linked")``).

Per batch (Arrow and numpy):
  1. dict hit: surface_norm -> entity_id, one ``pc.index_in`` against the
     distinct aliases (a repeated alias links to its last row's entity,
     as a dict built row by row would),
  2. dict miss: deterministic char-trigram hash embedding of the surface,
     cosine against the alias matrix (one numpy matmul per batch), link to
     the argmax alias when similarity >= threshold (Python per miss;
     lexicon-tagged surfaces rarely miss),
  3. still unlinked: self-canonical id ``ent:<surface_norm>`` (NIL entity).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from clinicaltransformerner_ray.functions.lexicon import alias_table

EMBED_DIM_DEFAULT = 16


def hash_embed(surfaces: list[str], dim: int) -> np.ndarray:
    """Deterministic char-trigram bag embedding, L2-normalized. Pure
    content hash — stable across processes and nodes."""
    out = np.zeros((len(surfaces), dim), dtype=np.float32)
    for i, s in enumerate(surfaces):
        s = f"^{s}$"
        for j in range(len(s) - 2):
            tri = s[j:j + 3]
            h = hash_trigram(tri)
            out[i, h % dim] += 1.0 if (h >> 16) % 2 == 0 else -1.0
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return out / norms


def hash_trigram(tri: str) -> int:
    h = 2166136261
    for ch in tri.encode("utf-8"):
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


class EntityLinker:
    def __init__(self, alias_rows, sim_threshold: float = 0.99):
        aliases = alias_table(alias_rows)
        alias = aliases.column("alias").combine_chunks()
        self.eids = aliases.column("entity_id").combine_chunks()
        # dict semantics: a repeated alias links to its last row's entity
        self.keys = pc.unique(alias)
        last = np.full(len(self.keys), -1, np.int64)
        np.maximum.at(last, pc.index_in(alias, value_set=self.keys)
                      .to_numpy(zero_copy_only=False).astype(np.int64),
                      np.arange(len(alias)))
        self.key_eids = self.eids.take(pa.array(last))
        if len(alias):
            emb = pc.list_flatten(aliases.column("embedding")
                                  .combine_chunks())
            emb = emb.to_numpy(zero_copy_only=False).astype(np.float32)
            self.emb_matrix = emb.reshape(len(alias), -1)
        else:
            self.emb_matrix = np.zeros((0, EMBED_DIM_DEFAULT), np.float32)
        n = np.linalg.norm(self.emb_matrix, axis=1, keepdims=True)
        n[n == 0] = 1.0
        self.emb_matrix = self.emb_matrix / n
        self.sim_threshold = sim_threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        norm = batch.column("surface_norm").combine_chunks()
        eid = self.key_eids.take(pc.index_in(norm, value_set=self.keys))
        miss = pc.is_null(eid).to_numpy(zero_copy_only=False)
        if miss.any():
            surfaces = norm.filter(pa.array(miss)).to_pylist()
            fill = ["ent:" + s for s in surfaces]
            if len(self.eids):
                q = hash_embed(surfaces, self.emb_matrix.shape[1])
                sims = q @ self.emb_matrix.T          # (miss, n_alias)
                best = sims.argmax(axis=1)
                near = np.flatnonzero(sims[np.arange(len(surfaces)), best]
                                      >= self.sim_threshold)
                for k, e in zip(near.tolist(), self.eids.take(
                        pa.array(best[near])).to_pylist()):
                    fill[k] = e
            eid = pc.replace_with_mask(eid, pa.array(miss),
                                       pa.array(fill, pa.string()))
        return batch.append_column("entity_id", eid.cast(pa.string()))
