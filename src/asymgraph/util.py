"""Small shared helpers: seeded RNG derivation, file digests, atomic file
replacement."""

from __future__ import annotations

import contextlib
import hashlib
import os
import secrets
from pathlib import Path

import numpy as np

# Stream tags so every consumer of randomness gets an independent,
# reconstructible generator from one root seed.
STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_NEGATIVES = 2
STREAM_BLOCKS = 3
STREAM_COVIEW = 4
STREAM_SPLIT = 5
STREAM_EVAL = 6
STREAM_SYNTH = 7


def derive_rng(*tokens: int) -> np.random.Generator:
    """Build a generator from a tuple of non-negative integer tokens.

    The same tokens always yield the same stream, which is what makes
    resumed training and repeated pipelines bit-reproducible.
    """
    toks = [int(t) for t in tokens]
    if any(t < 0 for t in toks):
        raise ValueError(f"seed tokens must be non-negative, got {toks}")
    return np.random.default_rng(np.random.SeedSequence(toks))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temp file beside `path` for writing; on success it replaces
    `path` in one `os.replace`, on any error it is removed.

    Readers see either the old file or the complete new one, never a
    partial write. `mode` is "w" (UTF-8 text) or "wb".
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    encoding = None if "b" in mode else "utf-8"
    f = open(tmp, mode.replace("w", "x"), encoding=encoding)
    try:
        with f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
