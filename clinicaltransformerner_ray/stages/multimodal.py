"""Multimodal (image/audio) columns as opaque binary + typed metadata.

The engine treats media as ``payload: binary`` columns with sidecar
metadata (``media_type``, ``width/height`` or ``sample_rate`` …) and runs
decode / feature-extraction as actor-pool ``map_batches`` stages — the
same load-once-state pattern as the NER scorer (SURVEY.md §2.4 T2).

The decode kernel is REAL for the container-decodable formats: WAV
(PCM), BMP (24-bit), PPM (P6) via the pure-Python codecs in
``functions/codecs.py`` — genuine bytes to genuine samples/pixels to
features, no external libraries.  Formats that require codec libraries
absent from this environment (JPEG/PNG/MP3/video) hit a clearly marked
``NotImplementedError`` boundary; corrupt payloads of a KNOWN format
are quarantined per row (``decode_ok=False``), not fatal — the
reference's skip-but-report semantics.

``fake=True`` selects the legacy deterministic pseudo-decode (content
hash expanded to a float stream), kept for synthetic pipelines that
need features for arbitrary bytes.

Scale notes: binary payloads dominate block size; callers should pass a
small ``batch_size`` (e.g. 32-64 for images) so batch x concurrency fits
the worker heap, and keep ``DataContext.target_max_block_size`` at the
default 128 MiB so blocks with large payloads split early.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data as rd

from clinicaltransformerner_ray.functions import codecs

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),     # "image" | "audio"
    ("payload", pa.binary()),
    ("meta_width", pa.int32()),      # image: pixels; audio: 0
    ("meta_height", pa.int32()),
    ("meta_sample_rate", pa.int32()),  # audio: Hz; image: 0
])

FEATURE_DIM = 32


def synth_media_table(docs: pa.Table) -> pa.Table:
    """Deterministic REAL media rows derived from document text — WAV
    sine mixes for odd doc_ids, BMP/PPM gradient images for even ones;
    every 25th row is a deliberately corrupt payload so decode_ok has
    both values in any realistic run."""
    ids, types, payloads, ws, hs, srs = [], [], [], [], [], []
    for did, text in zip(docs.column("doc_id").to_pylist(),
                         docs.column("text").to_pylist()):
        seed = int.from_bytes(
            hashlib.blake2b((text or "").encode(), digest_size=8).digest(),
            "little")
        ids.append(did)
        if did % 2 == 0:
            w = 32 + (did % 8) * 8
            h = 24
            types.append("image")
            ws.append(w)
            hs.append(h)
            srs.append(0)
            xx, yy = np.meshgrid(np.arange(w), np.arange(h))
            img = np.stack([
                (xx * (1 + seed % 7)) % 256,
                (yy * (1 + seed % 5)) % 256,
                (xx + yy + seed) % 256,
            ], axis=-1).astype(np.uint8)
            enc = codecs.encode_bmp if did % 4 == 0 else codecs.encode_ppm
            payloads.append(enc(img))
        else:
            sr = 8000
            types.append("audio")
            ws.append(0)
            hs.append(0)
            srs.append(sr)
            t = np.arange(sr // 4) / sr           # 250 ms
            f = 200 + (seed % 1000)
            wave_ = (0.6 * np.sin(2 * np.pi * f * t)
                     + 0.3 * np.sin(2 * np.pi * 2.1 * f * t))
            payloads.append(codecs.encode_wav(wave_, sr))
        if did % 25 == 7:
            # corrupt a known-format payload: right magic, torn header
            # (24 bytes keeps RIFF/BM/P6 sniffable but unparseable —
            # WAV bodies merely truncate without error, headers do not)
            payloads[-1] = payloads[-1][:24]
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "media_type": pa.array(types, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "meta_width": pa.array(ws, pa.int32()),
        "meta_height": pa.array(hs, pa.int32()),
        "meta_sample_rate": pa.array(srs, pa.int32()),
    }, schema=MEDIA_SCHEMA)


class MediaDecoder:
    """Actor-pool decode/feature stage.

    __init__ is the load-once slot (a heavier implementation would load
    an ONNX feature model here).  __call__ is per batch.

    Real path (``fake=False``, the default): sniff the container (WAV /
    BMP / PPM), decode with `functions/codecs.py`, then extract a
    ``feature_dim`` vector — images: grayscale histogram (fraction of
    pixels per bin); audio: per-window RMS energy.  Unknown containers
    raise NotImplementedError (the codec-library boundary); corrupt
    payloads of a known container yield ``decode_ok=False``.
    """

    def __init__(self, fake: bool = False, feature_dim: int = FEATURE_DIM):
        self.fake = fake
        self.feature_dim = feature_dim

    # -- kernels -----------------------------------------------------------
    def _fake_decode(self, payload: bytes) -> np.ndarray:
        """Deterministic pseudo-decode: expand a content hash to a float
        stream (stands in for pixel/sample values)."""
        h = hashlib.blake2b(payload or b"\x00", digest_size=32).digest()
        raw = np.frombuffer(
            (h * ((4 * self.feature_dim) // 32 + 1))[: 4 * self.feature_dim],
            dtype=np.uint32,
        )
        return (raw % 1000).astype(np.float32) / 1000.0

    def _image_features(self, img: np.ndarray) -> np.ndarray:
        gray = img.astype(np.float32).mean(axis=-1)
        hist, _ = np.histogram(gray, bins=self.feature_dim, range=(0, 256))
        return (hist / max(1, gray.size)).astype(np.float32)

    def _audio_features(self, samples: np.ndarray) -> np.ndarray:
        n = self.feature_dim
        L = len(samples)
        if L == 0:
            return np.zeros(n, dtype=np.float32)
        pad = (-L) % n
        x = np.pad(samples, (0, pad)).reshape(n, -1)
        return np.sqrt((x.astype(np.float64) ** 2).mean(axis=1)).astype(
            np.float32)

    def _decode(self, payload: bytes, media_type: str) -> np.ndarray:
        if self.fake:
            return self._fake_decode(payload)
        kind = codecs.sniff(payload or b"")
        if kind == "wav":
            samples, _rate = codecs.decode_wav(payload)
            return self._audio_features(samples)
        if kind == "bmp":
            return self._image_features(codecs.decode_bmp(payload))
        if kind == "ppm":
            return self._image_features(codecs.decode_ppm(payload))
        raise NotImplementedError(
            "unrecognized media container (only WAV/BMP/PPM decode "
            "without codec libraries); drop a real decoder into "
            "MediaDecoder._decode or construct MediaDecoder(fake=True)")

    # -- the plumbing ------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = np.empty((batch.num_rows, self.feature_dim), dtype=np.float32)
        ids = batch.column("media_id").to_pylist()
        types = batch.column("media_type").to_pylist()
        payloads = batch.column("payload").to_pylist()
        ok = []
        for i, (mid, mt, pl) in enumerate(zip(ids, types, payloads)):
            try:
                feats[i] = self._decode(pl, mt)
                ok.append(True)
            except NotImplementedError:
                raise
            except Exception:
                feats[i] = 0.0
                ok.append(False)  # poison-row quarantine, not fatal
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "media_type": pa.array(types, pa.string()),
            "feature": pa.array(
                [row.tolist() for row in feats], pa.list_(pa.float32())),
            "decode_ok": pa.array(ok, pa.bool_()),
        })


class ImageResizer:
    """Actor-pool image resize stage: decode (BMP/PPM), nearest-neighbor
    resample to ``(out_w, out_h)``, re-encode as PPM.

    Non-image rows pass through untouched (payload and meta preserved);
    corrupt image payloads are quarantined (``decode_ok=False``, empty
    payload) per the engine's no-silent-drops rule.  Nearest-neighbor
    keeps the kernel pure-numpy (two integer index gathers) — the
    drop-in slot for a real resampler is :meth:`_resize`."""

    def __init__(self, out_w: int = 16, out_h: int = 16):
        self.out_w = out_w
        self.out_h = out_h

    def _resize(self, img: np.ndarray) -> np.ndarray:
        h, w = img.shape[:2]
        yi = (np.arange(self.out_h) * h) // self.out_h
        xi = (np.arange(self.out_w) * w) // self.out_w
        return img[yi][:, xi]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_pylist()
        types = batch.column("media_type").to_pylist()
        payloads = batch.column("payload").to_pylist()
        ws = batch.column("meta_width").to_pylist()
        hs = batch.column("meta_height").to_pylist()
        out_pl, out_w, out_h, ok = [], [], [], []
        for mt, pl, w, h in zip(types, payloads, ws, hs):
            if mt != "image":
                out_pl.append(pl)
                out_w.append(w)
                out_h.append(h)
                ok.append(True)
                continue
            try:
                kind = codecs.sniff(pl or b"")
                if kind == "bmp":
                    img = codecs.decode_bmp(pl)
                elif kind == "ppm":
                    img = codecs.decode_ppm(pl)
                else:
                    raise NotImplementedError(
                        "unrecognized image container (BMP/PPM only "
                        "without codec libraries)")
                out_pl.append(codecs.encode_ppm(self._resize(img)))
                out_w.append(self.out_w)
                out_h.append(self.out_h)
                ok.append(True)
            except NotImplementedError:
                raise
            except Exception:
                out_pl.append(b"")
                out_w.append(0)
                out_h.append(0)
                ok.append(False)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "media_type": pa.array(types, pa.string()),
            "payload": pa.array(out_pl, pa.binary()),
            "meta_width": pa.array(
                np.asarray(out_w, np.int32), pa.int32()),
            "meta_height": pa.array(
                np.asarray(out_h, np.int32), pa.int32()),
            "decode_ok": pa.array(ok, pa.bool_()),
        })


def resize_images(
    media: rd.Dataset,
    *,
    out_w: int = 16,
    out_h: int = 16,
    batch_size: int = 64,
    concurrency: int = 4,
) -> rd.Dataset:
    """Image payloads -> resized PPM payloads via the resize actor
    pool (same heap-sizing rules as :func:`extract_media_features`)."""
    return media.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"out_w": out_w, "out_h": out_h},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


class AudioFrameSampler:
    """Actor-pool audio frame-sampling stage: decode WAV, slice fixed
    ``frame_ms`` windows every ``hop_ms``, emit ONE ROW PER FRAME with
    its RMS energy — the flat-map expansion shape (a video
    frame-sampler would look identical with a frame decoder in the
    `_frames` slot).  Non-audio rows produce no frames; corrupt WAVs
    quarantine as a single decode_ok=False row with frame_idx = -1."""

    def __init__(self, frame_ms: int = 25, hop_ms: int = 10):
        self.frame_ms = frame_ms
        self.hop_ms = hop_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("media_id").to_pylist()
        types = batch.column("media_type").to_pylist()
        payloads = batch.column("payload").to_pylist()
        o_id, o_idx, o_start, o_rms, o_ok = [], [], [], [], []
        for mid, mt, pl in zip(ids, types, payloads):
            if mt != "audio":
                continue
            try:
                samples, rate = codecs.decode_wav(pl)
            except Exception:
                o_id.append(mid)
                o_idx.append(-1)
                o_start.append(0)
                o_rms.append(0.0)
                o_ok.append(False)
                continue
            flen = max(1, (rate * self.frame_ms) // 1000)
            hop = max(1, (rate * self.hop_ms) // 1000)
            n_frames = max(0, (len(samples) - flen) // hop + 1)
            if n_frames:
                # strided window view -> one vectorized RMS per frame
                idx = (np.arange(n_frames)[:, None] * hop
                       + np.arange(flen)[None, :])
                frames = samples[idx].astype(np.float64)
                rms = np.sqrt((frames ** 2).mean(axis=1))
                o_id.extend([mid] * n_frames)
                o_idx.extend(range(n_frames))
                o_start.extend(
                    (np.arange(n_frames) * hop * 1000 // rate).tolist())
                o_rms.extend(rms.astype(np.float32).tolist())
                o_ok.extend([True] * n_frames)
        return pa.table({
            "media_id": pa.array(o_id, pa.int64()),
            "frame_idx": pa.array(o_idx, pa.int64()),
            "start_ms": pa.array(o_start, pa.int64()),
            "rms": pa.array(o_rms, pa.float32()),
            "decode_ok": pa.array(o_ok, pa.bool_()),
        })


def sample_audio_frames(
    media: rd.Dataset,
    *,
    frame_ms: int = 25,
    hop_ms: int = 10,
    batch_size: int = 64,
    concurrency: int = 4,
) -> rd.Dataset:
    """Audio payloads -> per-frame RMS rows via the frame-sampling
    actor pool."""
    return media.map_batches(
        AudioFrameSampler,
        fn_constructor_kwargs={"frame_ms": frame_ms, "hop_ms": hop_ms},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def extract_media_features(
    media: rd.Dataset,
    *,
    batch_size: int = 64,
    concurrency: int = 4,
    fake: bool = False,
) -> rd.Dataset:
    """Binary payloads -> feature vectors via the decode actor pool.
    Small batches by design: payload bytes x batch x concurrency must fit
    the worker heap (see module docstring)."""
    return media.map_batches(
        MediaDecoder,
        fn_constructor_kwargs={"fake": fake},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )
