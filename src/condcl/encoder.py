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
from .linalg import is_integer

__all__ = [
    "text_lines",
    "EmbeddingStore",
    "load_embeddings",
    "save_embeddings",
    "StoreProvider",
    "HashingProvider",
]


HASH_BLOCK = 64  # rounds hashed per pass: bounds a provider's hashers and an embed's matrix


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
        with np.errstate(over="ignore"):  # beyond float32 range: inf, refused just below
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
            rounded = vec.astype(np.float32).tolist()
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
    """Deterministic hashing encoder: in round r each lowercase whitespace token
    adds a sign (a blake2b hash keyed by seed + r) to a bucket (a second one);
    each round's counts are L2-normalized (all zero, as for empty text: e_0) and
    rounds > 1 are summed in order and normalized again. Cost model: 2 keyed
    hashes per token per round, no memo across texts, so one embed is the heavy
    op per cache miss that bi / tri / hyper count. Only the first HASH_BLOCK
    rounds' hashers are kept and rounds are hashed a block at a time, so set-up
    and memory do not grow with `rounds`."""

    def __init__(self, dim: int, seed: int = 0, rounds: int = 1):
        if not (is_integer(dim) and is_integer(seed) and is_integer(rounds)) or dim < 2 or rounds < 1:
            got = f"dim={dim!r}, seed={seed!r}, rounds={rounds!r}"
            raise ValueError(f"HashingProvider needs integers, dim >= 2 and rounds >= 1: {got}")
        self.dim, self.seed, self.rounds = int(dim), int(seed), int(rounds)
        self._hashers = self._keyed(range(min(self.rounds, HASH_BLOCK)))

    def _keyed(self, rounds: range) -> list:
        """Each round's idx and sgn blake2b hashers, keyed by seed + r modulo 2**64."""
        keys = [((self.seed + r) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little") for r in rounds]
        return [hashlib.blake2b(key=k, salt=s, digest_size=8) for k in keys for s in (b"idx", b"sgn")]

    def _round_vectors(self, tokens: list[bytes], hashers: list) -> np.ndarray:
        """One block's (rounds x dim) unit vectors, read from one join of its digests."""
        digests = []
        for h in hashers:
            for tok in tokens:
                c = h.copy()  # the keyed state, without compressing the key block again
                c.update(tok)
                digests.append(c.digest())
        words = np.frombuffer(b"".join(digests), "<u8").reshape(-1, 2, len(tokens))
        n, dim = len(words), self.dim
        buckets = (words[:, 0] % np.uint64(dim)).astype(np.intp) + np.arange(0, n * dim, dim)[:, None]
        signs = (words[:, 1] & np.uint64(1)).astype(np.float64) * 2.0 - 1.0
        counts = np.bincount(buckets.ravel(), signs.ravel(), n * dim).reshape(n, dim)
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))  # exact: small integer counts
        cancelled = norms == 0.0
        counts[cancelled, 0] = norms[cancelled] = 1.0
        counts /= norms[:, None]
        return counts

    def embed(self, text: str) -> np.ndarray:
        tokens = [tok.encode("utf-8") for tok in text.lower().split()]
        if not tokens:
            return np.eye(1, self.dim)[0]
        v = np.zeros(self.dim)  # 0.0 + x == x for all but -0.0, which no round holds
        for start in range(0, self.rounds, HASH_BLOCK):
            block = range(start, min(start + HASH_BLOCK, self.rounds))
            u = self._round_vectors(tokens, self._keyed(block) if start else self._hashers)
            u[0] += v
            v = u.sum(axis=0)  # along axis 0 numpy adds row after row, in round order
        if self.rounds == 1:
            return v
        norm = float(np.linalg.norm(v))
        return v / norm if norm > 0.0 else np.eye(1, self.dim)[0]
