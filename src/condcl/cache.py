"""Content-addressed caches plus the heavy/light cost model.

Three execution architectures are compared over a stream of
(sentence, condition) requests:

  - ``bi``: one cache keyed by the joint (sentence, condition) string; every
    distinct pairing costs one heavy encoder call.
  - ``tri``: one cache keyed by individual texts; each miss is a heavy call,
    and each request additionally performs one light composition.
  - ``hyper``: like tri for sentences, but conditions are cached apart, as
    generated operators (the condition embedding itself is transient).

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

from .errors import CondclError
from .hypernet import (
    ConditionOperator,
    HyperNetParams,
    diagonal_operator,
    generate_condition_matrix,
    operator_payload_bytes,
    project,
)

__all__ = [
    "CacheStats",
    "WorkloadSpec",
    "TextKeyedCache",
    "cached_embed",
    "cached_operator",
    "simulate_workload",
    "run_architecture",
    "bench_report",
    "BenchRow",
    "bench_rows_to_tsv",
    "BENCH_COLUMNS",
    "JOINT_KEY_SEP",
]

JOINT_KEY_SEP = "\x1f"
ARCHITECTURES = ("bi", "tri", "hyper")
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


@dataclass
class WorkloadSpec:
    architecture: str
    requests: list[tuple[str, str]]

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        if not self.requests:
            raise ValueError("workload requests must be nonempty")


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
        with self._lock:
            self.stats.lookups += 1
            if key in self._store:
                self.stats.hits += 1
                return True, self._store[key]
            self.stats.misses += 1
            return False, None

    def insert(self, key: str, value, payload_bytes: int) -> None:
        with self._lock:
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
    cache.stats.heavy_ops += 1
    cache.insert(text, vec, vec.size * FLOAT_BYTES)
    return vec


def cached_operator(
    cache: TextKeyedCache, params: HyperNetParams, provider, condition_text: str
) -> ConditionOperator:
    """Condition-operator lookup keyed by condition text.

    A miss embeds the condition (one heavy op), generates the operator (one
    generation op), and stores the operator itself; the intermediate
    condition embedding is not retained.
    """
    if params.mode not in ("full", "lowrank"):
        raise ValueError("cached_operator requires full or lowrank params")
    hit, value = cache.lookup(condition_text)
    if hit:
        return value
    h_c = provider.embed(condition_text)
    cache.stats.heavy_ops += 1
    op = generate_condition_matrix(params, h_c)
    cache.stats.gen_ops += 1
    cache.insert(condition_text, op, operator_payload_bytes(op, FLOAT_BYTES))
    return op


def simulate_workload(spec: WorkloadSpec, nh: int, nk: int | None = None) -> CacheStats:
    """Count cache traffic and heavy/light operations without executing.

    Mirrors the unbounded caches above: bi does one joint-keyed lookup per
    request; tri and hyper do two lookups (sentence key, condition key) and
    one light composition per request. Tri keeps every text in one cache.
    Hyper keeps conditions in a cache of their own, as operators rather
    than embeddings (dense nh^2 floats, or 2*nh*nk when a rank is given), so
    a text used both as a sentence and as a condition misses in each.
    """
    if nh <= 0:
        raise ValueError("nh must be positive")
    stats = CacheStats()
    if spec.architecture == "bi":
        seen: set[str] = set()
        for s, c in spec.requests:
            key = s + JOINT_KEY_SEP + c
            stats.lookups += 1
            if key in seen:
                stats.hits += 1
            else:
                stats.misses += 1
                stats.heavy_ops += 1
                stats.resident_bytes += nh * FLOAT_BYTES
                stats.key_bytes += len(key.encode("utf-8"))
                seen.add(key)
        return stats

    texts: set[str] = set()
    conditions = set() if spec.architecture == "hyper" else texts
    cond_bytes = (2 * nh * nk if nk else nh * nh) * FLOAT_BYTES
    for s, c in spec.requests:
        for key, keys in ((s, texts), (c, conditions)):
            stats.lookups += 1
            if key in keys:
                stats.hits += 1
                continue
            stats.misses += 1
            stats.heavy_ops += 1
            stats.key_bytes += len(key.encode("utf-8"))
            keys.add(key)
            if keys is not texts:
                stats.gen_ops += 1
                stats.resident_bytes += cond_bytes
            else:
                stats.resident_bytes += nh * FLOAT_BYTES
        stats.light_ops += 1
    return stats


def run_architecture(
    architecture: str,
    requests: Sequence[tuple[str, str]],
    provider,
    params: HyperNetParams | None = None,
    sink: Callable[[np.ndarray], None] | None = None,
) -> CacheStats:
    """Execute a request stream for real through fresh caches.

    Requests are served one at a time (batch of 1). The optional sink
    receives each conditioned embedding, keeping the work observable.
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
            out = project(diagonal_operator(hc), hs)
            cache.stats.light_ops += 1
            if sink:
                sink(out)
        return cache.stats
    if architecture == "hyper":
        if params is None:
            raise ValueError("hyper architecture needs generator params")
        vec_cache = TextKeyedCache()
        op_cache = TextKeyedCache()
        for s, c in requests:
            hs = cached_embed(vec_cache, provider, s)
            op = cached_operator(op_cache, params, provider, c)
            out = project(op, hs)
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
    "hits",
    "misses",
    "hit_rate",
    "resident_bytes",
    "wall_ms",
)


def bench_report(
    spec: WorkloadSpec,
    params: HyperNetParams | Sequence[HyperNetParams],
    provider,
    repetitions: int = 1,
) -> list[BenchRow]:
    """Time real cached execution of the stream under every architecture.

    Each repetition starts from cold caches, so wall time scales with the
    repetition count; reported stats are those of a single pass. One hyper
    row is emitted per supplied params object, labeled by its mode.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    params_list = [params] if isinstance(params, HyperNetParams) else list(params)
    runs: list[tuple[str, HyperNetParams | None]] = [("bi", None), ("tri", None)]
    for p in params_list:
        runs.append((f"hyper-{p.mode}", p))
    rows: list[BenchRow] = []
    for label, p in runs:
        arch = "hyper" if label.startswith("hyper") else label
        stats = CacheStats()
        t0 = time.perf_counter()
        for _ in range(repetitions):
            stats = run_architecture(arch, spec.requests, provider, params=p)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            BenchRow(
                architecture=label,
                requests=len(spec.requests),
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
        raise CondclError("workload generator needs positive sizes")
    base = [
        (f"s-{i:04d}", f"c-{j:04d}")
        for i in range(n_sentences)
        for j in range(n_conditions)
    ]
    return base * replays
