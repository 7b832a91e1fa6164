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

``cached_values`` is the one way to read a cache: one counted lookup over a
call's keys, then one call that makes every distinct miss (for hyper's
conditions, one ``generate_operators`` call). A stream is served by
resolving its keys first, once per cache, then composing it COMPOSE_BLOCK
requests at a time: within a block, one stacked product per condition.

Caches are unbounded and never evict: misses equal the number of distinct
keys, exactly. Byte accounting counts the stored payload arrays' bytes; key
strings are tracked separately as bookkeeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .hypernet import (
    ConditionOperator,
    HyperNetParams,
    apply_stack,
    diagonal_operator,
    generate_operators,
)

__all__ = [
    "CacheStats",
    "TextKeyedCache",
    "cached_values",
    "cached_operators",
    "run_architecture",
    "bench_report",
    "BenchRow",
    "bench_rows_to_tsv",
    "BENCH_COLUMNS",
    "JOINT_KEY_SEP",
]

JOINT_KEY_SEP = "\x1f"
COMPOSE_BLOCK = 1024  # requests composed together; bounds memory to ~2 x block x nh floats


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

    def insert(self, key: str, value, gen_ops: int = 0):
        """Store a value made for a missed key: one heavy op, plus ``gen_ops``."""
        with self._lock:
            self.stats.heavy_ops += 1
            self.stats.gen_ops += gen_ops
            if key in self._store:
                return
            self._store[key] = value
            self.stats.resident_bytes += _payload_bytes(value)
            self.stats.key_bytes += len(key.encode("utf-8"))


def _payload_bytes(value) -> int:
    """Stored payload size of a cached vector or operator (keys excluded).

    Cached operators are full or lowrank, so their arrays are all they hold."""
    arrays = value.arrays.values() if isinstance(value, ConditionOperator) else (value,)
    return sum(a.nbytes for a in arrays)


def cached_values(
    cache: TextKeyedCache,
    keys: Sequence[str],
    make: Callable[[list[str]], Iterable],
    gen_ops: int = 0,
) -> list:
    """The value of each key, read through the cache: one value per key.

    One counted ``lookup_all`` covers the keys. The distinct misses, in
    first-seen order, are made by one ``make(missing)`` call, which yields
    one value per miss; each is stored as it comes at one heavy op (plus
    ``gen_ops``). A key repeated in the call returns the same object.
    """
    found, missing = cache.lookup_all(keys)
    if missing:
        for key, value in zip(missing, make(missing), strict=True):
            cache.insert(key, value, gen_ops)
            found[key] = value
    return [found[k] for k in keys]


def cached_operators(
    cache: TextKeyedCache, params: HyperNetParams, provider, condition_texts: Sequence[str]
) -> list[ConditionOperator]:
    """Condition-operator lookups keyed by condition text: one operator per text.

    The distinct misses are embedded (one heavy op each) and generated in one
    ``generate_operators`` call (one generation op each). The condition
    embeddings are not retained.
    """
    if params.mode not in ("full", "lowrank"):
        raise ValueError("cached_operators requires full or lowrank params")

    def make(missing):
        return generate_operators(params, np.stack([provider.embed(c) for c in missing]))

    return cached_values(cache, condition_texts, make, gen_ops=1)


def _compose(cache: TextKeyedCache, requests, operator, sentences, sink) -> CacheStats:
    """Each request's sentence through its condition's operator: one light op each.

    COMPOSE_BLOCK requests at a time, grouped by condition key in first-seen
    order: one stacked product per group, through ``operator(i)``, i its first request."""
    for lo in range(0, len(requests), COMPOSE_BLOCK):
        block = range(lo, min(lo + COMPOSE_BLOCK, len(requests)))
        groups: dict[str, list[int]] = {}
        for i in block:
            groups.setdefault(requests[i][1], []).append(i)
        rows = {}
        for group in groups.values():
            stacked = np.stack([sentences[i] for i in group])
            rows.update(zip(group, apply_stack(operator(group[0]), stacked, (0, len(group))).data))
        cache.stats.light_ops += len(block)
        if sink:
            for i in block:
                sink(rows[i])
    return cache.stats


def run_architecture(
    architecture: str,
    requests: Sequence[tuple[str, str]],
    provider,
    params: HyperNetParams | None = None,
    sink: Callable[[np.ndarray], None] | None = None,
) -> CacheStats:
    """Execute a request stream for real through fresh caches.

    The stream's keys are resolved first, with one ``cached_values`` call
    per cache, so every heavy op happens before the first request is
    served. Then the requests are composed a block at a time, and the
    optional sink receives each conditioned embedding, in request order.
    A block's rows are all computed before its first sink call, and each
    row is a view of its condition group's output.
    """

    def embed(missing):
        return map(provider.embed, missing)

    cache = TextKeyedCache()
    if architecture == "bi":
        keys = [s + JOINT_KEY_SEP + c for s, c in requests]
        for vec in cached_values(cache, keys, embed):
            if sink:
                sink(vec)
        return cache.stats
    if architecture == "tri":
        vecs = cached_values(cache, [t for request in requests for t in request], embed)
        h_c = vecs[1::2]
        return _compose(cache, requests, lambda i: diagonal_operator(h_c[i][None]), vecs[::2], sink)
    if architecture == "hyper":
        if params is None:
            raise ValueError("hyper architecture needs generator params")
        op_cache = TextKeyedCache()
        ops = cached_operators(op_cache, params, provider, [c for _, c in requests])
        vecs = cached_values(cache, [s for s, _ in requests], embed)
        return _compose(cache, requests, ops.__getitem__, vecs, sink).merged_with(op_cache.stats)
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
    runs = [("bi", None), ("tri", None)] + [(f"hyper-{p.mode}", p) for p in params]
    rows: list[BenchRow] = []
    for label, p in runs:
        arch = "hyper" if label.startswith("hyper") else label
        stats = CacheStats()
        t0 = time.perf_counter()
        for _ in range(repetitions):
            stats = run_architecture(arch, requests, provider, params=p)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(BenchRow(label, len(requests), stats, wall_ms))
    return rows


def bench_rows_to_tsv(rows: Sequence[BenchRow]) -> str:
    """One TSV line per row: each column of BENCH_COLUMNS read from the row or its stats."""
    formats = {"hit_rate": "{:.6f}", "wall_ms": "{:.3f}"}

    def field(row: BenchRow, name: str) -> str:
        value = getattr(row if hasattr(row, name) else row.stats, name)
        return formats.get(name, "{}").format(value)

    lines = ["\t".join(BENCH_COLUMNS)]
    lines += ["\t".join(field(row, name) for name in BENCH_COLUMNS) for row in rows]
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
