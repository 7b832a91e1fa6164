"""Content-addressed caches plus the heavy/light cost model.

Three execution architectures are compared over a stream of
(sentence, condition) requests:

  - ``bi``: one cache keyed by the joint (sentence, condition) string; every
    distinct pairing costs one heavy encoder call.
  - ``tri``: one cache keyed by individual texts; each miss is a heavy call,
    and each request additionally performs one light composition.
  - ``hyper``: like tri for sentences, but conditions are cached apart, as
    generated operators: one-condition stacks, through which each request
    sends its sentence as one row (the condition embedding is transient).
    A call resolves all its conditions first, generating every uncached one
    in one ``generate_operators`` call, then serves its requests one row at
    a time.

Caches are unbounded and never evict: misses equal the number of distinct
keys, exactly. Byte accounting counts stored payload floats at 8 bytes;
key strings are tracked separately as bookkeeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .hypernet import (
    ConditionOperator,
    HyperNetParams,
    apply_stack,
    diagonal_operator,
    generate_operators,
    operator_payload_bytes,
)

__all__ = [
    "CacheStats",
    "TextKeyedCache",
    "cached_embed",
    "cached_operators",
    "run_architecture",
    "bench_report",
    "BenchRow",
    "bench_rows_to_tsv",
    "BENCH_COLUMNS",
    "JOINT_KEY_SEP",
]

JOINT_KEY_SEP = "\x1f"
FLOAT_BYTES = 8


@dataclass
class CacheStats:
    lookups: int = 0
    hits: int = 0
    misses: int = 0
    heavy_ops: int = 0
    light_ops: int = 0
    gen_ops: int = 0
    resident_bytes: int = 0
    key_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )


class TextKeyedCache:
    """Unbounded text-keyed cache of embeddings or operators, with counters.

    Lookups and inserts are serialized by a lock.
    """

    def __init__(self):
        self._store: dict[str, object] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, key: str):
        found, _ = self.lookup_all([key])
        return key in found, found.get(key)

    def lookup_all(self, keys: Sequence[str]) -> tuple[dict[str, object], list[str]]:
        """One counted lookup per key, under one lock acquisition.

        Returns the stored values found and the distinct missing keys in
        first-seen order. A missing key counts as a miss at its first
        occurrence and as a hit after that, as sequential lookups that insert
        each miss would count it.
        """
        with self._lock:
            found = {k: self._store[k] for k in keys if k in self._store}
            missing = list(dict.fromkeys(k for k in keys if k not in found))
            self.stats.lookups += len(keys)
            self.stats.hits += len(keys) - len(missing)
            self.stats.misses += len(missing)
            return found, missing

    def insert(self, key: str, value, payload_bytes: int, heavy_ops: int, gen_ops: int = 0):
        with self._lock:
            self.stats.heavy_ops += heavy_ops
            self.stats.gen_ops += gen_ops
            if key in self._store:
                return
            self._store[key] = value
            self.stats.resident_bytes += payload_bytes
            self.stats.key_bytes += len(key.encode("utf-8"))


def cached_embed(cache: TextKeyedCache, provider, text: str) -> np.ndarray:
    """Embedding lookup through an unbounded cache; misses cost a heavy op."""
    hit, value = cache.lookup(text)
    if hit:
        return value
    vec = provider.embed(text)
    cache.insert(text, vec, vec.size * FLOAT_BYTES, heavy_ops=1)
    return vec


def cached_operators(
    cache: TextKeyedCache, params: HyperNetParams, provider, condition_texts: Sequence[str]
) -> list[ConditionOperator]:
    """Condition-operator lookups keyed by condition text: one operator per text.

    Each text is one counted lookup. The distinct misses are embedded (one
    heavy op each) and generated in one ``generate_operators`` call, which
    yields one operator per miss; each is stored as it comes (one generation
    op). The condition embeddings are not retained. A text repeated in the
    call returns the same object.
    """
    if params.mode not in ("full", "lowrank"):
        raise ValueError("cached_operators requires full or lowrank params")
    found, missing = cache.lookup_all(condition_texts)
    if missing:
        H = np.stack([provider.embed(c) for c in missing])
        for key, op in zip(missing, generate_operators(params, H)):
            cache.insert(key, op, operator_payload_bytes(op), heavy_ops=1, gen_ops=1)
            found[key] = op
    return [found[c] for c in condition_texts]


def run_architecture(
    architecture: str,
    requests: Sequence[tuple[str, str]],
    provider,
    params: HyperNetParams | None = None,
    sink: Callable[[np.ndarray], None] | None = None,
) -> CacheStats:
    """Execute a request stream for real through fresh caches.

    Requests are served one at a time, in order; hyper first resolves the
    conditions of the whole request list in one ``cached_operators`` call,
    then sends each request's sentence through its operator as one row. The
    optional sink receives each conditioned embedding, once per request.
    """
    if architecture == "bi":
        cache = TextKeyedCache()
        for s, c in requests:
            vec = cached_embed(cache, provider, s + JOINT_KEY_SEP + c)
            if sink:
                sink(vec)
        return cache.stats
    if architecture == "tri":
        cache = TextKeyedCache()
        for s, c in requests:
            hs = cached_embed(cache, provider, s)
            hc = cached_embed(cache, provider, c)
            out = apply_stack(diagonal_operator(hc[None]), hs, (0, 1)).data[0]
            cache.stats.light_ops += 1
            if sink:
                sink(out)
        return cache.stats
    if architecture == "hyper":
        if params is None:
            raise ValueError("hyper architecture needs generator params")
        vec_cache = TextKeyedCache()
        op_cache = TextKeyedCache()
        ops = cached_operators(op_cache, params, provider, [c for _, c in requests])
        for (s, _), op in zip(requests, ops):
            hs = cached_embed(vec_cache, provider, s)
            out = apply_stack(op, hs, (0, 1)).data[0]
            vec_cache.stats.light_ops += 1
            if sink:
                sink(out)
        return vec_cache.stats.merged_with(op_cache.stats)
    raise ValueError(f"unknown architecture {architecture!r}")


@dataclass
class BenchRow:
    architecture: str
    requests: int
    stats: CacheStats
    wall_ms: float


BENCH_COLUMNS = (
    "architecture",
    "requests",
    "heavy_ops",
    "light_ops",
    "gen_ops",
    "hits",
    "misses",
    "hit_rate",
    "resident_bytes",
    "wall_ms",
)


def bench_report(
    requests: Sequence[tuple[str, str]],
    params: Sequence[HyperNetParams],
    provider,
    repetitions: int = 1,
) -> list[BenchRow]:
    """Time real cached execution of the stream under every architecture.

    Each repetition starts from cold caches, so wall time scales with the
    repetition count; reported stats are those of a single pass. One hyper
    row is emitted per supplied params object, labeled by its mode.
    """
    if not requests:
        raise ValueError("workload requests must be nonempty")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    runs: list[tuple[str, HyperNetParams | None]] = [("bi", None), ("tri", None)]
    for p in params:
        runs.append((f"hyper-{p.mode}", p))
    rows: list[BenchRow] = []
    for label, p in runs:
        arch = "hyper" if label.startswith("hyper") else label
        stats = CacheStats()
        t0 = time.perf_counter()
        for _ in range(repetitions):
            stats = run_architecture(arch, requests, provider, params=p)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            BenchRow(
                architecture=label,
                requests=len(requests),
                stats=stats,
                wall_ms=wall_ms,
            )
        )
    return rows


def bench_rows_to_tsv(rows: Sequence[BenchRow]) -> str:
    lines = ["\t".join(BENCH_COLUMNS)]
    for row in rows:
        s = row.stats
        lines.append(
            "\t".join(
                [
                    row.architecture,
                    str(row.requests),
                    str(s.heavy_ops),
                    str(s.light_ops),
                    str(s.gen_ops),
                    str(s.hits),
                    str(s.misses),
                    f"{s.hit_rate:.6f}",
                    str(s.resident_bytes),
                    f"{row.wall_ms:.3f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def full_cross_requests(
    n_sentences: int, n_conditions: int, replays: int = 1
) -> list[tuple[str, str]]:
    """Every sentence paired with every condition, optionally replayed."""
    if n_sentences < 1 or n_conditions < 1 or replays < 1:
        raise ConfigError("workload generator needs positive sizes")
    base = [
        (f"s-{i:04d}", f"c-{j:04d}")
        for i in range(n_sentences)
        for j in range(n_conditions)
    ]
    return base * replays
