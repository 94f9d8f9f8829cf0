"""Entity-linking stage: alias dictionary + embedding-similarity.

The north rule's linking stage: "stateful entity-linking (alias
dictionary + embedding-similarity scoring)".  Load-once state: the
normalized-alias -> entity_id dict and the alias embedding matrix, built
once per worker process from one ``ray.put`` of the alias rows
(``stages/stage_map.py``), never per batch.  The flagship runs it inside
the tagger (``MentionTagger(emit="linked")``).

Per batch (vectorized, pandas/numpy):
  1. dict hit: surface_norm -> entity_id,
  2. dict miss: deterministic char-trigram hash embedding of the surface,
     cosine against the alias matrix (one numpy matmul per batch), link to
     the argmax alias when similarity >= threshold,
  3. still unlinked: self-canonical id ``ent:<surface_norm>`` (NIL entity).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

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
    def __init__(self, alias_rows: list[dict], sim_threshold: float = 0.99):
        self.alias2eid: dict[str, str] = {}
        embs = []
        self.eids: list[str] = []
        for r in alias_rows:
            self.alias2eid[r["alias"]] = r["entity_id"]
            embs.append(np.asarray(r["embedding"], dtype=np.float32))
            self.eids.append(r["entity_id"])
        self.emb_matrix = np.stack(embs) if embs else np.zeros((0, EMBED_DIM_DEFAULT), np.float32)
        n = np.linalg.norm(self.emb_matrix, axis=1, keepdims=True)
        n[n == 0] = 1.0
        self.emb_matrix = self.emb_matrix / n
        self.sim_threshold = sim_threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        norm = batch.column("surface_norm").to_pylist()
        eid = np.asarray([self.alias2eid.get(s) for s in norm], dtype=object)
        missing = [i for i, e in enumerate(eid) if e is None]
        if missing and len(self.eids):
            q = hash_embed([norm[i] for i in missing], self.emb_matrix.shape[1])
            sims = q @ self.emb_matrix.T          # (miss, n_alias)
            best = sims.argmax(axis=1)
            best_sim = sims[np.arange(len(missing)), best]
            for k, i in enumerate(missing):
                if best_sim[k] >= self.sim_threshold:
                    eid[i] = self.eids[int(best[k])]
                else:
                    eid[i] = "ent:" + norm[i]
        elif missing:
            for i in missing:
                eid[i] = "ent:" + norm[i]
        return batch.append_column("entity_id", pa.array(eid.tolist(), pa.string()))
