"""Ray-Data-native knowledge-graph construction engine.

From-scratch re-expression of uf-hobi-informatics-lab/ClinicalTransformerNER's
BIO-scheme transformer tagging semantics (subword->word label realignment,
sentence-window chunking, BIO repair, span assembly) as the mention-detection
stage of a KG-construction pipeline over Parquet transcript tables
(conv_id, turn_idx, role, text, tool, ts), built on ray.data.Dataset +
map_batches over zero-copy Arrow batches; stateful stages are built once per
worker process and run as task maps (``stages/stage_map.py``).

Nothing in this package is a port: all reference citations (path:line into
/root/reference) document *semantics parity*, not code provenance.
"""

__version__ = "0.1.0"
