"""Versioned run artifacts: label-vocab persistence and checkpoint
retention (SURVEY.md §2 S8/K6/J8 and S9/K5/A7).

Replicates the reference's model-directory contract:

  - ``label2idx.json`` frozen at train time and reloaded for prediction
    (`src/transformer_ner/task.py:259-266`, `common_io.py:31-40`),
  - resume keyset check: resuming training requires the new data's
    vocab keys to equal the stored one, and the STORED mapping wins so
    label ids stay consistent (`task.py:563-571`),
  - ``checkpoint_{step}.bin`` artifacts sorted by integer step; keep
    only the ``latest`` newest (`task.py:135-151`); load-latest
    (`task.py:75-98`),
  - ``base_model_name.txt`` run-config sidecar (`task.py:262-266`).

These are driver-side utilities — tiny metadata, no Dataset involved;
stages receive the loaded vocab via their constructor broadcast.
"""

from __future__ import annotations

import json
import os
import pickle
from glob import glob


# ---------------------------------------------------------------------------
# label vocab (S8 load / K6 save / J8 resume check)

def save_label_vocab(label2idx: dict[str, int], model_dir: str) -> str:
    os.makedirs(model_dir, exist_ok=True)
    path = os.path.join(model_dir, "label2idx.json")
    with open(path, "w") as f:
        json.dump(label2idx, f)
    return path


def load_label_vocab(model_dir: str) -> dict[str, int]:
    with open(os.path.join(model_dir, "label2idx.json")) as f:
        return {k: int(v) for k, v in json.load(f).items()}


def check_resume_vocab(new: dict[str, int],
                       old: dict[str, int]) -> dict[str, int]:
    """J8: the resume keyset equality check (task.py:563-571).  Same
    size and every new key present in old, else ValueError; returns the
    OLD mapping (the reference overwrites so ids stay stable)."""
    if len(old) != len(new):
        raise ValueError(
            f"expect same label2idx but resume model has {old} "
            f"and current data gives {new}")
    for k in new:
        if k not in old:
            raise ValueError(
                f"the label {k} is not in the resume model's label2idx; "
                "check your data — annotations must match across runs")
    return dict(old)


def save_run_config(model_dir: str, **meta: str) -> str:
    """K6: the ``base_model_name.txt`` sidecar (task.py:262-266)."""
    os.makedirs(model_dir, exist_ok=True)
    path = os.path.join(model_dir, "base_model_name.txt")
    with open(path, "w") as f:
        f.write("\n".join(f"{k}: {v}" for k, v in meta.items()))
    return path


# ---------------------------------------------------------------------------
# checkpoints (K5 save+retention / S9 load-latest / A7 top-k)

def _step_of(path: str) -> int:
    return int(os.path.basename(path).rsplit(".", 1)[0].split("_")[-1])


def checkpoint_files(model_dir: str) -> list[str]:
    """All checkpoint artifacts sorted by integer step (task.py:80-82 —
    numeric, so checkpoint_10 sorts after checkpoint_9)."""
    return sorted(glob(os.path.join(model_dir, "checkpoint_*.bin")),
                  key=_step_of)


def save_checkpoint(model_dir: str, step: int, payload,
                    *, latest: int = 3) -> str:
    """K5/A7: write ``checkpoint_{step}.bin`` and retain only the
    ``latest`` newest by step (task.py:135-151 — exactly one unlink per
    save, like the reference)."""
    os.makedirs(model_dir, exist_ok=True)
    path = os.path.join(model_dir, f"checkpoint_{step}.bin")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        pickle.dump(payload, f)
    os.replace(tmp, path)
    files = checkpoint_files(model_dir)
    if len(files) > latest:
        os.unlink(files[0])  # remove earliest
    return path


def load_latest_checkpoint(model_dir: str):
    """S9: load the newest checkpoint_{step}.bin; fall back to a single
    whole-model ``.bin`` when no step checkpoints exist (the reference's
    state_dict-vs-whole-model fallback, task.py:84-98)."""
    files = checkpoint_files(model_dir)
    if not files:
        others = sorted(glob(os.path.join(model_dir, "*.bin")))
        if not others:
            raise FileNotFoundError(f"no checkpoints under {model_dir}")
        files = others[-1:]
    with open(files[-1], "rb") as f:
        return pickle.load(f), files[-1]
