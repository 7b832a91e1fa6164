"""Frozen embedding providers for sentences and conditions.

Two provider kinds exist: a precomputed store loaded from JSONL, and a
deterministic hashing encoder for synthetic/desk-scale work. Providers are
immutable after construction and never updated by training.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError, FormatError, MissingEmbeddingError

__all__ = [
    "hash_encode",
    "text_lines",
    "EmbeddingStore",
    "load_embeddings",
    "save_embeddings",
    "StoreProvider",
    "HashingProvider",
]


def _token_hash(token: str, seed: int, salt: bytes) -> int:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(token.encode("utf-8"), key=key, salt=salt, digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def hash_encode(text: str, dim: int, seed: int) -> np.ndarray:
    """Deterministic bag-of-words signed-hash embedding, L2-normalized.

    Tokens are lowercase whitespace splits; each token lands in a bucket
    chosen by a 64-bit keyed hash, with a sign bit from a second hash.
    Empty or whitespace-only text maps to the unit vector e_0.
    """
    if dim < 2:
        raise ValueError("hash_encode requires dim >= 2")
    tokens = text.lower().split()
    v = np.zeros(dim, dtype=np.float64)
    if not tokens:
        v[0] = 1.0
        return v
    for tok in tokens:
        idx = _token_hash(tok, seed, b"idx") % dim
        sign = 1.0 if _token_hash(tok, seed, b"sgn") & 1 else -1.0
        v[idx] += sign
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        # Signed counts can cancel exactly; fall back to the defined empty case.
        v[0] = 1.0
        return v
    return v / norm


class EmbeddingStore:
    """Exact-string map from text to a fixed-dimension embedding.

    Keying is deliberately raw (no normalization): cache-correctness
    analyses depend on exact identity of inputs.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("store dim must be positive")
        self.dim = int(dim)
        self._entries: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, text: str) -> bool:
        return text in self._entries

    def __getitem__(self, text: str) -> np.ndarray:
        try:
            return self._entries[text]
        except KeyError:
            raise MissingEmbeddingError(f"no embedding stored for text: {text!r}") from None

    def items(self):
        return self._entries.items()

    def add(self, text: str, vec) -> None:
        v = np.asarray(vec, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"embedding for {text!r} has dim {v.shape}, store dim is {self.dim}"
            )
        if text in self._entries:
            raise FormatError(f"duplicate text in store: {text!r}")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        self._entries[text] = v

    def snapshot_bytes(self) -> bytes:
        """Concatenated raw payload, usable to assert the store is unchanged."""
        return b"".join(v.tobytes() for v in self._entries.values())


def text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """The 1-based numbered lines of a UTF-8 text file, split as text-mode
    reading splits them; a line that is not valid UTF-8 raises FormatError."""
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # undecodable bytes came through as lone surrogates
            except UnicodeEncodeError:
                raise FormatError(f"{path}:{lineno}: invalid UTF-8") from None
            yield lineno, line


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load an embedding store from JSONL ({"text": ..., "embedding": [...]}).

    Floats are parsed at 32-bit precision then widened to float64. The
    dimension is fixed by the first record; inconsistent dims, duplicate
    texts, values that are not numbers (booleans included), non-finite
    values (NaN, inf, or beyond float32 range), invalid UTF-8 and malformed
    lines are errors (with 1-based line numbers).
    """
    path = Path(path)
    store: EmbeddingStore | None = None
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            # Every JSON number parses to a float (an integer beyond range to inf);
            # true and false parse to bool.
            rec = json.loads(line, parse_int=float)
            text = rec["text"]
            emb = rec["embedding"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed embedding record: {exc}") from exc
        if not isinstance(text, str) or not isinstance(emb, list) or not emb:
            raise FormatError(f"{path}:{lineno}: expected string text and nonempty list embedding")
        if not set(map(type, emb)) <= {float}:
            raise FormatError(f"{path}:{lineno}: embedding values must be numbers")
        vec = np.asarray(emb, dtype=np.float32).astype(np.float64)
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"{path}:{lineno}: embedding holds non-finite values")
        if store is None:
            store = EmbeddingStore(vec.shape[0])
        if vec.shape[0] != store.dim:
            raise FormatError(
                f"{path}:{lineno}: inconsistent dimension {vec.shape[0]} (store dim {store.dim})"
            )
        try:
            store.add(text, vec)
        except FormatError:
            raise FormatError(f"{path}:{lineno}: duplicate text: {text!r}") from None
    if store is None:
        raise FormatError(f"{path}: no embedding records found")
    return store


def save_embeddings(store: EmbeddingStore, path: str | Path) -> None:
    """Write a store as JSONL, one record per line, at 32-bit precision."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for text, vec in store.items():
            rounded = [float(np.float32(x)) for x in vec]
            fh.write(json.dumps({"text": text, "embedding": rounded}) + "\n")


class StoreProvider:
    """Provider backed by a precomputed store; misses are hard errors."""

    def __init__(self, store: EmbeddingStore):
        self.store = store

    @property
    def dim(self) -> int:
        return self.store.dim

    def embed(self, text: str) -> np.ndarray:
        return self.store[text]


class HashingProvider:
    """Deterministic hashing encoder.

    `rounds` repeats the hash accumulation with derived seeds, mixing each
    round into the result. It exists so benchmarks can realize a genuinely
    expensive encode step; at the default rounds=1 the output is exactly
    hash_encode(text, dim, seed).
    """

    def __init__(self, dim: int, seed: int = 0, rounds: int = 1):
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.dim = int(dim)
        self.seed = int(seed)
        self.rounds = int(rounds)

    def embed(self, text: str) -> np.ndarray:
        v = hash_encode(text, self.dim, self.seed)
        if self.rounds == 1:
            return v
        for r in range(1, self.rounds):
            v = v + hash_encode(text, self.dim, self.seed + r)
        norm = float(np.linalg.norm(v))
        return v / norm if norm > 0.0 else hash_encode("", self.dim, self.seed)
