"""Mention-detection stage (T1+T2+M1-M11 fused).

One callable class, run as a task map by
``stages.stage_map.map_stage(ds, MentionTagger, {...}, batch_size=N)``.
All load-once state (tokenizer with caches, lexicon, label vocab, and with
``emit="linked"`` the entity linker) is built in ``__init__``, once per
worker process — the Ray analog of the reference's load-model-once,
stream-files production loop
(`src/run_transformer_batch_prediction.py:32-69`).

Per batch the stage runs the full reference inference lifecycle:

  word tokenize (offsets) -> subword expand + guards -> window chunking
  ([next]/NEXT_GUARD) -> batched mock-model forward (stacked numpy logits,
  the contract of `src/transformer_ner/task.py:359-432`) -> argmax over
  log_softmax (M7) -> guard-walk decode merging continuation windows (M6)
  -> system-label fix (M8) -> BIO repair (M9) -> span assembly (M11).

Every step runs over the whole Arrow batch at once, not turn by turn.
The text column is split into words from its UTF-8 buffer
(``functions.text.tokenize_batch``), the batch's words are
dictionary-encoded, and the per-word work (normalization, subword split
and ids, alias-word id) runs once per distinct word and is cached for
the stage's lifetime.  The lexicon match runs on integer alias-word ids
(``functions.lexicon.PhraseIndex``).  The window grid of every turn is
built with index arithmetic; only turns longer than one window run
make_windows' word-boundary cut loop.  The guard walk of M6 selects, per
word, the prediction at its first subtoken, so decode gathers the
logits there and, on the argmax route, runs log_softmax and argmax on
those rows only; M8/M9 are array rules (``BioLabels``), spans come from
the run starts of the repaired labels, and their surfaces and types are
Arrow ``binary_join`` and ``take``.  Python work is left per distinct
word, per lexicon match that overlaps an earlier one, and per turn
longer than one window; none is left per turn, per mention or per
alias.
``tests/tagger_reference.py`` keeps the per-turn composition of
``make_windows``/``decode_windows``/``fix_bio``/``tag2entity_turn`` that
the property tests hold this stage to.

Per-turn failures are quarantined, not fatal (the reference's per-file
try/except-skip-but-LOG, `run_transformer_batch_prediction.py:70-72`):
when the batch pass raises, the batch is re-run one turn at a time
through the same code, and only the turns that raise are dropped.  Bad
rows are counted per stage (``n_failed``), every batch with failures
emits one WARNING naming the turns, and when ``quarantine_dir`` is set
each task also writes the failed keys, the stage that failed
(``featurize`` or ``decode``) and the error strings as a parquet side
table (one small file per failing batch) that `read_quarantine` loads
back as a Dataset.

MULTI-NODE NOTE: tasks write with local-filesystem calls, so on a
real cluster ``quarantine_dir`` must be a path every node mounts (NFS
etc.); a driver-local /tmp path collects only driver-node failures.
Single-node (this sandbox) is unaffected.
"""

from __future__ import annotations

import logging
import os
import uuid
from dataclasses import dataclass
from itertools import chain, islice
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_LOG = logging.getLogger(__name__)

from clinicaltransformerner_ray.labels import (
    NEXT_GUARD,
    NEXT_TOKEN,
    O,
    X,
    build_label_vocab,
    invert,
)
from clinicaltransformerner_ray.functions.decode import BioLabels, argmax_decode
from clinicaltransformerner_ray.functions.lexicon import (
    PhraseIndex,
    alias_table,
    flips_to_inside,
    ids_to_logits,
)
from clinicaltransformerner_ray.functions.subword import tokenizer_for_family
from clinicaltransformerner_ray.functions.text import (
    normalize_surface,
    tokenize_batch,
)
from clinicaltransformerner_ray.functions.windowing import (
    FAMILIES,
    word_boundary_cut,
)

MENTION_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("ment_id", pa.int32()),
    ("surface", pa.string()),
    ("surface_norm", pa.string()),
    ("start", pa.int32()),
    ("end", pa.int32()),
    ("type", pa.string()),
])

#: ``emit="labels"`` output: one row per turn with the decoded BIO
#: label sequence (the training-data assembly surface, T6).
LABELS_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int64()),
    ("tokens", pa.list_(pa.string())),
    ("labels", pa.list_(pa.string())),
])

#: bound of the per-stage distinct-word cache (the tokenizer's piece
#: cache uses the same bound)
WORD_CACHE_MAX = 500_000


def read_quarantine(quarantine_dir: str):
    """Load the quarantine side table written by MentionTagger tasks
    as a Dataset (conv_id, turn_idx, stage, error); empty Dataset if no
    turn ever failed."""
    import glob

    import ray.data as rd

    files = sorted(glob.glob(os.path.join(quarantine_dir,
                                          "part-*.parquet")))
    if not files:
        return rd.from_arrow(pa.table({
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "stage": pa.array([], pa.string()),
            "error": pa.array([], pa.string()),
        }))
    return rd.read_parquet(files)


def _import_hf():
    """Import-guarded torch/transformers for the real-checkpoint scorer
    path.  This sandbox ships neither, so the guard raises a pointed
    error instead of a bare ModuleNotFoundError; every default path
    (mock scorer) never reaches this."""
    try:
        import torch
        import transformers
    except ImportError as exc:  # pragma: no cover - no torch here
        raise ImportError(
            "MentionTagger(model_dir=...) needs torch + transformers "
            "installed on every Ray worker; install them or drop "
            "model_dir to use the deterministic mock scorer"
        ) from exc
    return torch, transformers


def _starts(counts: np.ndarray) -> np.ndarray:
    """Offset of each group's first element, for groups laid end to end."""
    return np.cumsum(counts) - counts


def _window_cuts(guards: list[int], limit: int) -> list[tuple[int, int, bool]]:
    """make_windows' chunking of one turn's subtoken guards, as
    ``(first subtoken, subtokens, ends in [next])`` per window."""
    out = []
    off, left = 0, len(guards)
    while left > limit:
        # at the last word boundary; a word that fills the whole window
        # is cut at the window's edge
        cut = word_boundary_cut(guards[off:off + limit], limit - 1)
        out.append((off, cut, True))
        off += cut
        left -= cut
    out.append((off, left, False))
    return out


class _Word(NamedTuple):
    """What the tagger needs of one distinct word."""

    norm: str        # normalize_surface(word)
    alias_id: int    # the norm's id among alias words, 0 for none
    flip: bool       # perturb_tags turns a B- tag here into I-
    ids: list[int]   # subtoken ids


def _join_runs(values: pa.Array, first: np.ndarray, last: np.ndarray,
               codes: np.ndarray | None = None) -> pa.Array:
    """``" ".join(words[i:j + 1])`` for each ``(i, j)`` of ``first`` and
    ``last``, where ``words`` is ``values``, or ``values[codes]``: one
    ``binary_join`` over list slices."""
    n = last - first + 1
    offsets = np.zeros(len(n) + 1, np.int32)
    np.cumsum(n, out=offsets[1:])
    idx = np.repeat(first - offsets[:-1], n) + np.arange(offsets[-1])
    if codes is not None:
        idx = codes[idx]
    return pc.binary_join(pa.ListArray.from_arrays(
        pa.array(offsets), values.take(pa.array(idx, pa.int64()))), " ")


class _StageError(Exception):
    """A batch pass failed in ``stage``; the cause is the real error."""

    def __init__(self, stage: str):
        super().__init__(stage)
        self.stage = stage


@dataclass
class _Featurized:
    """One batch of turns as words, subtokens and the stacked window
    grid.  Word (token) arrays are concatenated over the batch's turns,
    subtoken arrays over its words, window rows over its turns."""

    n_words: np.ndarray     # (turns,) words per turn
    first_word: np.ndarray  # (turns,) index of each turn's first word
    words: pa.StringArray   # (words,) the words themselves
    codes: np.ndarray       # (words,) index into ``norms``
    norms: pa.StringArray   # the batch's distinct words, normalized
    starts: np.ndarray      # (words,) char span in the turn
    ends: np.ndarray
    n_pieces: np.ndarray    # (words,) subtokens per word
    piece_ids: np.ndarray   # (subtokens,) token ids
    win_n: np.ndarray       # (windows,) subtokens in each window
    win_next: np.ndarray    # (windows,) window ends in [next]
    col0: np.ndarray        # (windows,) column of the first subtoken
    pos_piece: np.ndarray   # (windows, L) subtoken at each position, or
    #                         the subtoken count where there is none
    guards: np.ndarray      # (windows, L) make_windows' guards
    mask: np.ndarray        # (windows, L) attention mask
    target: np.ndarray | None  # (windows, L) mock-model label ids


class MentionTagger:
    def __init__(
        self,
        alias_rows: pa.Table | list[dict],
        max_seq_length: int = 64,
        noise_mod: int = 5,
        decode: str = "argmax",
        family: str = "bert",
        label2idx: dict[str, int] | None = None,
        quarantine_dir: str | None = None,
        model_dir: str | None = None,
        device: str = "cpu",
        forward_window_batch: int = 64,
        emit: str = "mentions",
    ):
        # emit="labels": per-turn (tokens, BIO labels) rows instead of
        # the span table — the fix_bio'd y_pred round-trips exactly to
        # spans_to_bio(tag2entity_turn(y_pred)), so this is the same
        # decode with the mention projection skipped (zero extra wide
        # ops for training-data assembly, pipelines/train.py).
        # emit="linked": the mention table plus ``entity_id`` from an
        # EntityLinker over the same alias rows, so mentions are linked
        # in this stage instead of a second operator.
        if emit not in ("mentions", "labels", "linked"):
            raise ValueError(f"unknown emit: {emit!r}")
        if family not in FAMILIES:
            raise ValueError(f"unknown model family {family!r}; known: "
                             f"{sorted(FAMILIES)}")
        self.emit = emit
        aliases = alias_table(alias_rows)
        self.phrases = PhraseIndex(aliases.column("alias"))
        self.linker = None
        if emit == "linked":
            from clinicaltransformerner_ray.stages.linker import EntityLinker

            self.linker = EntityLinker(aliases)
        alias_type = aliases.column("type")
        types = sorted(pc.unique(alias_type).to_pylist())
        # a persisted label2idx.json (state/artifacts.load_label_vocab,
        # the reference's frozen train-time vocab, task.py:556-577) can
        # replace the synthesized vocab; the keyset must agree — the
        # resume discipline of check_resume_vocab
        if label2idx is not None:
            from clinicaltransformerner_ray.state.artifacts import (
                check_resume_vocab)

            self.label2idx = check_resume_vocab(
                build_label_vocab(types), label2idx)
        else:
            self.label2idx = build_label_vocab(types)
        # real-checkpoint scorer (T1/T2 parity, import-guarded): load
        # tokenizer + token-classification head ONCE per process — the
        # Ray analog of the reference's load-model-once production loop
        # (`src/transformer_ner/task.py:75-98`: config/tokenizer/model
        # from the checkpoint dir, plus the added [next] token,
        # `task.py:646-651`).  Absent torch/transformers (this
        # sandbox), model_dir=None keeps the deterministic mock and
        # nothing below imports anything.
        self.model = None
        self.device = device
        self.forward_window_batch = forward_window_batch
        if model_dir is not None:
            torch, transformers = _import_hf()
            self._torch = torch
            self.hf_tokenizer = transformers.AutoTokenizer.from_pretrained(
                model_dir, use_fast=False)
            self.hf_tokenizer.add_tokens(NEXT_TOKEN)
            self.model = (transformers.AutoModelForTokenClassification
                          .from_pretrained(model_dir))
            self.model.resize_token_embeddings(len(self.hf_tokenizer))
            self.model.to(device).eval()
            if label2idx is None:
                # the checkpoint's frozen train-time vocab replaces the
                # alias-synthesized one (the reference persists and
                # reloads label2idx the same way, task.py:556-577)
                self.label2idx = {str(k): int(v) for k, v in
                                  self.model.config.label2id.items()}
        self.idx2label = invert(self.label2idx)
        self.n_labels = len(self.label2idx)
        self.bio = BioLabels(
            [self.idx2label[i] for i in range(self.n_labels)])
        self._type_names = pa.array(self.bio.type, pa.string())
        if self.model is None:
            # each alias row's B- and I- label ids, for the mock targets
            type_code = pc.index_in(alias_type, value_set=pa.array(
                types, alias_type.type)).to_numpy(
                zero_copy_only=False).astype(np.int64)
            self._alias_b, self._alias_i = (
                np.asarray([self.label2idx[p + t] for t in types],
                           np.int64)[type_code] for p in ("B-", "I-"))
        # tokenizer-family strategy (M3/M5/M19 variance): framing,
        # padding side, continuation-label policy and partial-token
        # convention all come from one strategy object
        self.family = FAMILIES[family]
        # the windowing layer needs exactly tokenize(word) +
        # convert_tokens_to_ids(tokens) — the HF slow-tokenizer
        # interface — so a real checkpoint tokenizer drops in where the
        # deterministic mock otherwise sits (same word-by-word split as
        # the reference featurizer, data_utils.py:287-299)
        self.tokenizer = (self.hf_tokenizer if self.model is not None
                          else tokenizer_for_family(family))
        if max_seq_length - self.family.shifts < 2:
            # windows need room for a subtoken plus [next]
            raise ValueError(f"max_seq_length {max_seq_length} is too "
                             f"short for the {family} framing")
        self.max_seq_length = max_seq_length
        self.noise_mod = noise_mod
        # decode route: "argmax" (M7) or "crf" (T3) — the reference's
        # --use_crf model option (`src/run_transformer_ner.py`,
        # `src/common_utils/model_utils.py:582-657`); CRF runs Viterbi
        # over emissions + a fixed BIO transition matrix built once here
        assert decode in ("argmax", "crf"), decode
        self.decode = decode
        if decode == "crf":
            from clinicaltransformerner_ray.functions.crf import bio_transitions

            self.transitions = bio_transitions(self.label2idx)
        self.n_failed = 0
        self.quarantine_dir = quarantine_dir
        #: distinct word -> its _Word facts
        self._word_facts: dict[str, _Word] = {}

    def _report_failures(self, failures: list[tuple]) -> None:
        """Surface quarantined turns — never silently drop (reference
        logs the traceback before skipping a file)."""
        if not failures:
            return
        self.n_failed += len(failures)
        _LOG.warning(
            "MentionTagger: quarantined %d turn(s) in batch "
            "(stage total %d): %s",
            len(failures), self.n_failed,
            [(c, t, err.splitlines()[0][:120]) for c, t, _st, err
             in failures[:5]])
        if self.quarantine_dir is not None:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            tbl = pa.table({
                "conv_id": pa.array([str(f[0]) for f in failures],
                                    pa.string()),
                "turn_idx": pa.array([int(f[1]) for f in failures],
                                     pa.int32()),
                "stage": pa.array([f[2] for f in failures], pa.string()),
                "error": pa.array([f[3] for f in failures], pa.string()),
            })
            import pyarrow.parquet as pq

            pq.write_table(tbl, os.path.join(
                self.quarantine_dir, f"part-{uuid.uuid4().hex}.parquet"))

    # -- model -------------------------------------------------------------
    def _logits_real(self, input_ids: np.ndarray, mask: np.ndarray,
                     segment_ids: np.ndarray) -> np.ndarray:
        """Real-checkpoint batched forward (task.py:359-432): stack ALL
        the batch's windows and run them through the token-classification
        head in bounded sub-batches; (windows, L, labels) logits."""
        torch = self._torch
        outs = []
        step = self.forward_window_batch
        with torch.no_grad():
            for i in range(0, len(input_ids), step):
                kwargs = {
                    "input_ids": torch.as_tensor(
                        input_ids[i:i + step], dtype=torch.long,
                        device=self.device),
                    "attention_mask": torch.as_tensor(
                        mask[i:i + step], dtype=torch.long,
                        device=self.device),
                }
                if self.family.uses_token_type_ids:
                    kwargs["token_type_ids"] = torch.as_tensor(
                        segment_ids[i:i + step], dtype=torch.long,
                        device=self.device)
                outs.append(self.model(**kwargs).logits
                            .detach().cpu().numpy())
        return np.concatenate(outs, axis=0)

    def _logits(self, f: _Featurized, win: np.ndarray | None = None,
                col: np.ndarray | None = None) -> np.ndarray:
        """The model's logits over the whole (windows, L) grid, or only
        at the positions ``(win, col)``.  The mock computes just those
        rows (its logit rows depend only on the target id and the
        column); the real model runs the whole grid and is gathered."""
        if self.model is None:
            if win is None:
                return ids_to_logits(f.target, self.n_labels)
            return ids_to_logits(f.target[win, col], self.n_labels, cols=col)
        input_ids, segment_ids = self._model_inputs(f)
        logits = self._logits_real(input_ids, f.mask, segment_ids)
        return logits if win is None else logits[win, col]

    # -- featurize ---------------------------------------------------------
    def _facts(self, distinct: list[str]) -> list[_Word]:
        """Per distinct word, from the stage-lifetime cache; the words
        it misses get their alias-word ids in one ``index_in``."""
        cache = self._word_facts
        new = [w for w in distinct if w not in cache]
        norms = [normalize_surface(w) for w in new]
        alias_ids = self.phrases.word_ids(pa.array(norms, pa.string()))
        made = {w: _Word(norm, aid,
                         bool(aid) and bool(self.noise_mod)
                         and flips_to_inside(norm, self.noise_mod),
                         self.tokenizer.convert_tokens_to_ids(
                             self.tokenizer.tokenize(w)))
                for w, norm, aid in zip(new, norms, alias_ids.tolist())}
        cache.update(islice(made.items(), max(0, WORD_CACHE_MAX - len(cache))))
        return [made.get(w) or cache[w] for w in distinct]

    def _word_tags(self, codes: np.ndarray, facts: list[_Word],
                   turn_end: np.ndarray) -> np.ndarray:
        """Lexicon.tag_words + perturb_tags over the batch's words, as
        label ids: ``PhraseIndex.match`` over the words' alias-word ids,
        B- (I- where perturb_tags flips the first word) on each match's
        first word and I- on the rest."""
        n = len(facts)
        alias_id = np.fromiter((f.alias_id for f in facts), np.int64, n)
        flip = np.fromiter((f.flip for f in facts), bool, n)
        start, length, row = self.phrases.match(alias_id[codes], turn_end)
        tags = np.full(len(codes), self.label2idx[O], dtype=np.int64)
        tags[start] = np.where(flip[codes[start]], self._alias_i[row],
                               self._alias_b[row])
        inner = length - 1
        pos = np.repeat(start + 1 - _starts(inner), inner) + np.arange(
            inner.sum())
        tags[pos] = np.repeat(self._alias_i[row], inner)
        return tags

    def _featurize(self, texts: pa.Array | pa.ChunkedArray) -> _Featurized:
        """Words, subtokens and the window grid of a batch of turns (an
        Arrow string column) — make_windows' fields for every turn, by
        index arithmetic.  A binary column or invalid UTF-8 raises."""
        fam = self.family
        L = self.max_seq_length
        words, n_words, starts, ends = tokenize_batch(texts)
        enc = words.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        distinct = enc.dictionary.to_pylist()
        facts = self._facts(distinct)
        first_word = _starts(n_words)
        word_turn = np.repeat(np.arange(len(n_words)), n_words)

        # subtokens: a ragged gather of the distinct words' id lists
        n_pc = np.fromiter((len(f.ids) for f in facts), np.int64, len(facts))
        ids_u = np.fromiter(chain.from_iterable(f.ids for f in facts),
                            np.int64, int(n_pc.sum()))
        n_pieces = n_pc[codes]
        piece_word = np.repeat(np.arange(len(codes)), n_pieces)
        piece_k = np.arange(len(piece_word)) - _starts(n_pieces)[piece_word]
        piece_ids = ids_u[_starts(n_pc)[codes][piece_word] + piece_k]
        # guard = 1-based word index in the turn (data_utils.py:287-299)
        piece_guard = (np.arange(len(codes)) - first_word[word_turn]
                       + 1)[piece_word]

        # windows: one per non-empty turn unless it needs the cut loop
        csum = np.concatenate([[0], np.cumsum(n_pieces)])
        turn_p0 = csum[first_word]
        turn_np = csum[first_word + n_words] - turn_p0
        limit = L - fam.shifts
        n_win = (n_words > 0).astype(np.int64)
        cuts = {}
        for t in np.flatnonzero(turn_np > limit).tolist():
            p0 = turn_p0[t]
            cuts[t] = _window_cuts(
                piece_guard[p0:p0 + turn_np[t]].tolist(), limit)
            n_win[t] = len(cuts[t])
        win_turn = np.repeat(np.arange(len(n_words)), n_win)
        win_p0 = turn_p0[win_turn]
        win_n = turn_np[win_turn]
        win_next = np.zeros(len(win_turn), dtype=bool)
        w0 = _starts(n_win)
        for t, cut in cuts.items():
            for j, (off, n, nxt) in enumerate(cut):
                win_p0[w0[t] + j] += off
                win_n[w0[t] + j] = n
                win_next[w0[t] + j] = nxt

        # the grid: framing puts a window's content after one leading
        # special, and XLNet's pre-padding shifts it right
        # (data_utils.py:174-265)
        content = win_n + win_next
        if fam.pre_pad:
            col0 = L - content - fam.shifts + 1
        else:
            col0 = np.ones_like(win_n)
        rel = np.arange(L)[None, :] - col0[:, None]
        is_piece = (rel >= 0) & (rel < win_n[:, None])
        n_all = len(piece_word)
        pos_piece = np.where(is_piece, win_p0[:, None] + rel, n_all)
        guards = np.append(piece_guard, 0)[pos_piece]
        guards[win_next[:, None] & (rel == win_n[:, None])] = NEXT_GUARD
        mask = ((rel >= -1) & (rel < (content + fam.shifts - 1)[:, None])
                ).astype(np.int8)

        target = None
        if self.model is None:
            # what a trained model would emit per subtoken: word tag on
            # the first piece of each run of equal guards, X on
            # continuations (XLNet: the tag again), O on specials
            tags = self._word_tags(codes, facts,
                                   (first_word + n_words)[word_turn])
            l2i = self.label2idx
            pos_tag = np.append(tags, l2i[O])[
                np.append(piece_word, len(codes))[pos_piece]]
            first = np.ones(guards.shape, dtype=bool)
            first[:, 1:] = guards[:, 1:] != guards[:, :-1]
            cont = (pos_tag if fam.repeat_label_on_continuation
                    else l2i[X])
            target = np.where(guards <= 0, l2i[O],
                              np.where(first, pos_tag, cont))
        return _Featurized(
            n_words=n_words, first_word=first_word, words=words,
            codes=codes,
            norms=pa.array([f.norm for f in facts], pa.string()),
            starts=starts, ends=ends,
            n_pieces=n_pieces, piece_ids=piece_ids, win_n=win_n,
            win_next=win_next, col0=col0, pos_piece=pos_piece,
            guards=guards, mask=mask, target=target)

    def _model_inputs(self, f: _Featurized) -> tuple[np.ndarray, np.ndarray]:
        """``input_ids`` and ``segment_ids`` of the window grid, framed
        and padded as make_windows frames each window."""
        fam = self.family
        L = self.max_seq_length

        def tid(tok: str) -> int:
            return self.tokenizer.convert_tokens_to_ids([tok])[0]

        if fam.pre_pad:  # ``<s> X </s> <sep> <cls>``, pre-padded
            lead, tail = "<s>", ["</s>", fam.end_tok, fam.start_tok]
        else:  # ``start X end``, post-padded
            lead, tail = fam.start_tok, [fam.end_tok]
        rel = np.arange(L)[None, :] - f.col0[:, None]
        content = (f.win_n + f.win_next)[:, None]
        ids = np.append(f.piece_ids, tid(fam.pad_tok))[f.pos_piece]
        ids[rel == -1] = tid(lead)
        ids[f.win_next[:, None] & (rel == f.win_n[:, None])] = tid(NEXT_TOKEN)
        for k, tok in enumerate(tail):
            ids[rel == content + k] = tid(tok)
        segment_ids = np.zeros_like(ids)
        if fam.pre_pad:
            # single sequence: pad segment 3, content 0, trailing <cls> 2
            # (data_utils.py:243-247)
            segment_ids[rel < -1] = 3
            segment_ids[:, -1] = 2
        return ids, segment_ids

    # -- decode ------------------------------------------------------------
    def _bio(self, f: _Featurized):
        """The repaired BIO label ids of every turn, concatenated, and
        the label count per turn.

        The guard walk (task.py:406-429) keeps, per word, the prediction
        at its first subtoken.  On the argmax route (M7) only those rows
        of the logits are decoded: log_softmax and argmax work row by
        row, so this equals decoding the whole grid and gathering.  The
        CRF route runs Viterbi over the whole grid (task.py:390-391) and
        gathers after.  Words without subtokens get no label; as in the
        walk plus ``tag2entity_turn``'s zip, a turn's labels pair with
        its first words in order."""
        piece_win = np.repeat(np.arange(len(f.win_n)), f.win_n)
        piece_col = (f.col0[piece_win] + np.arange(len(piece_win))
                     - _starts(f.win_n)[piece_win])
        firsts = _starts(f.n_pieces)[f.n_pieces > 0]
        win, col = piece_win[firsts], piece_col[firsts]
        if not len(win):
            y = np.zeros(0, np.int64)
        elif self.decode == "crf":
            from clinicaltransformerner_ray.functions.crf import viterbi_decode

            y = viterbi_decode(self._logits(f), self.transitions,
                               f.mask)[win, col]
        else:
            y = argmax_decode(self._logits(f, win, col))
        word_turn = np.repeat(np.arange(len(f.n_words)), f.n_words)
        n_labels = np.bincount(word_turn[f.n_pieces > 0],
                               minlength=len(f.n_words))
        is_start = np.zeros(len(y), dtype=bool)
        is_start[_starts(n_labels)[n_labels > 0]] = True
        y = self.bio.fix_bio(self.bio.fix_system(y), is_start)
        return y, n_labels

    def _mentions(self, f: _Featurized, y: np.ndarray,
                  n_labels: np.ndarray, batch: pa.Table) -> pa.Table:
        """M11 span assembly: after fix_bio every I- label continues the
        span its predecessor opened, so spans are the B- positions, each
        extended over the I- run that follows it.  ``surface`` joins the
        span's words and ``surface_norm`` their normalized forms (the
        normalization of the joined surface: lowercasing never looks
        across whitespace, and the words hold none)."""
        lab = self.bio
        bad = ~lab.valid[y]
        if bad.any():
            raise ValueError("BIO scheme supports B/I but got "
                             f"{lab.names[int(y[bad][0])]}")
        label_turn = np.repeat(np.arange(len(n_labels)), n_labels)
        label_word = (f.first_word[label_turn] + np.arange(len(y))
                      - _starts(n_labels)[label_turn])
        breaks = np.flatnonzero(~lab.inside[y])
        run_last = np.append(breaks[1:] - 1, len(y) - 1)
        b = np.flatnonzero(lab.is_begin[y])
        first_w = label_word[b]
        last_w = label_word[run_last[np.searchsorted(breaks, b)]]
        turn = label_turn[b]
        ment_id = np.arange(len(b)) - _starts(
            np.bincount(turn, minlength=len(n_labels)))[turn]
        take = pa.array(turn, pa.int64())
        return pa.table({
            "conv_id": batch.column("conv_id").take(take).cast(pa.string()),
            "turn_idx": batch.column("turn_idx").take(take).cast(pa.int32()),
            "ment_id": pa.array(ment_id, pa.int32()),
            "surface": _join_runs(f.words, first_w, last_w),
            "surface_norm": _join_runs(f.norms, first_w, last_w, f.codes),
            "start": pa.array(f.starts[first_w], pa.int32()),
            "end": pa.array(f.ends[last_w], pa.int32()),
            "type": self._type_names.take(pa.array(y[b], pa.int64())),
        }, schema=MENTION_SCHEMA)

    def _labels_table(self, f: _Featurized, y: np.ndarray,
                      n_labels: np.ndarray, batch: pa.Table) -> pa.Table:
        """emit="labels" output: one row per turn, empty lists for empty
        turns; explicit types so empty blocks never infer a `null`
        column."""
        def lists(counts, values):
            offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
            return pa.ListArray.from_arrays(pa.array(offsets), values)

        names = pa.array(self.bio.names, pa.string())
        return pa.table({
            "conv_id": batch.column("conv_id").cast(pa.string()),
            "turn_idx": batch.column("turn_idx").cast(pa.int64()),
            "tokens": lists(f.n_words, f.words),
            "labels": lists(n_labels, names.take(pa.array(y, pa.int64()))),
        }, schema=LABELS_SCHEMA)

    # -- batch entry -------------------------------------------------------
    def _tag(self, batch: pa.Table) -> pa.Table:
        """One pass over ``batch``; a failure raises ``_StageError``
        naming the stage."""
        stage = "featurize"
        try:
            f = self._featurize(batch.column("text"))
            stage = "decode"
            y, n_labels = self._bio(f)
            if self.emit == "labels":
                return self._labels_table(f, y, n_labels, batch)
            return self._mentions(f, y, n_labels, batch)
        except Exception as exc:
            raise _StageError(stage) from exc

    def __call__(self, batch: pa.Table) -> pa.Table:
        try:
            out = self._tag(batch)
        except _StageError as batch_err:
            # poison-row quarantine, reference skip semantics
            # (run_transformer_batch_prediction.py:70-72): re-run the
            # batch turn by turn and drop only the turns that fail
            _LOG.warning("MentionTagger: batch pass failed in %s (%r); "
                         "re-running its %d turns one at a time",
                         batch_err.stage, batch_err.__cause__,
                         batch.num_rows)
            parts, failures = [], []
            conv = batch.column("conv_id").to_pylist()
            tidx = batch.column("turn_idx").to_pylist()
            for i in range(batch.num_rows):
                try:
                    parts.append(self._tag(batch.slice(i, 1)))
                except _StageError as err:
                    failures.append((conv[i], tidx[i], err.stage,
                                     repr(err.__cause__)))
            self._report_failures(failures)
            schema = LABELS_SCHEMA if self.emit == "labels" else MENTION_SCHEMA
            out = pa.concat_tables([schema.empty_table()] + parts)
        if self.linker is not None:
            out = self.linker(out)
        return out
