"""Request-stream serving plus the heavy/light cost model.

Three execution architectures are compared over a stream of
(sentence, condition) requests:

  - ``bi``: keys are the joint (sentence, condition) strings; every
    distinct pairing costs one heavy encoder call.
  - ``tri``: keys are individual texts; each distinct text is a heavy call,
    and each request additionally performs one light composition.
  - ``hyper``: like tri for sentences, but conditions are a key space of
    their own, resolved to generated operators: one-condition stacks,
    through which each request sends its sentence as one row (the condition
    embedding is transient).

``run_architecture`` resolves a stream's keys first, with one ``_cached``
call per key space: each distinct key is made once, and counted as one miss
and one heavy op; every later occurrence is a hit. It then composes the
stream COMPOSE_BLOCK requests at a time: within a block, one stacked product
per condition. Nothing outlives one call, so misses equal the number of
distinct keys, exactly. Byte accounting counts the made payload arrays'
bytes; key strings are tracked separately as bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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


def _payload_bytes(value) -> int:
    """Payload size of a made vector or operator (keys excluded).

    Made operators are full or lowrank, so their arrays are all they hold."""
    arrays = value.arrays.values() if isinstance(value, ConditionOperator) else (value,)
    return sum(a.nbytes for a in arrays)


def _cached(
    stats: CacheStats,
    keys: Sequence[str],
    make: Callable[[list[str]], Iterable],
    gen_ops: int = 0,
) -> list:
    """The value of each key, each distinct key made once: one value per key.

    One ``make(distinct)`` call, over the distinct keys in first-seen order,
    yields one value per key. Into ``stats``, a key's first occurrence counts
    as a miss at one heavy op (plus ``gen_ops``), every later one as a hit.
    A repeated key returns the same object.
    """
    distinct = list(dict.fromkeys(keys))
    made = dict(zip(distinct, make(distinct), strict=True)) if distinct else {}
    stats.lookups += len(keys)
    stats.hits += len(keys) - len(distinct)
    stats.misses += len(distinct)
    stats.heavy_ops += len(distinct)
    stats.gen_ops += gen_ops * len(distinct)
    stats.resident_bytes += sum(_payload_bytes(v) for v in made.values())
    stats.key_bytes += sum(len(k.encode("utf-8")) for k in distinct)
    return [made[k] for k in keys]


def _compose(stats: CacheStats, requests, operator, sentences, sink) -> CacheStats:
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
            rows.update(zip(group, apply_stack(operator(group[0]), stacked, 0)))
        stats.light_ops += len(block)
        if sink:
            for i in block:
                sink(rows[i])
    return stats


def run_architecture(
    architecture: str,
    requests: Sequence[tuple[str, str]],
    provider,
    params: HyperNetParams | None = None,
    sink: Callable[[np.ndarray], None] | None = None,
) -> CacheStats:
    """Execute a request stream for real, counting into one fresh CacheStats.

    The stream's keys are resolved first, with one ``_cached`` call per key
    space, so every heavy op happens before the first request is served.
    Hyper's conditions are embedded and generated in one
    ``generate_operators`` call (one generation op each), and their
    embeddings are not retained. Then the requests are composed a block at
    a time, and the optional sink receives each conditioned embedding, in
    request order. A block's rows are all computed before its first sink
    call, and each row is a view of its condition group's output.
    """

    def embed(missing):
        return map(provider.embed, missing)

    stats = CacheStats()
    if architecture == "bi":
        for vec in _cached(stats, [s + JOINT_KEY_SEP + c for s, c in requests], embed):
            if sink:
                sink(vec)
        return stats
    if architecture == "tri":
        vecs = _cached(stats, [t for request in requests for t in request], embed)
        h_c = vecs[1::2]
        return _compose(stats, requests, lambda i: diagonal_operator(h_c[i][None]), vecs[::2], sink)
    if architecture == "hyper":
        if params is None or params.mode not in ("full", "lowrank"):
            raise ValueError("hyper architecture needs full or lowrank generator params")

        def generate(missing):
            return generate_operators(params, np.stack([provider.embed(c) for c in missing]))

        ops = _cached(stats, [c for _, c in requests], generate, gen_ops=1)
        vecs = _cached(stats, [s for s, _ in requests], embed)
        return _compose(stats, requests, ops.__getitem__, vecs, sink)
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
