"""Request-stream serving plus the heavy/light cost model.

Three execution architectures are compared over a stream of
(sentence, condition) requests:

  - ``bi``: keys are the joint (sentence, condition) strings; every
    distinct pairing costs one heavy encoder call.
  - ``tri``: keys are individual texts; each distinct text is a heavy call,
    and each request additionally performs one light composition.
  - ``hyper``: like tri for sentences, but conditions are a key space of
    their own, resolved to generated operators (the condition embeddings
    are transient).

``run_architecture`` resolves a stream's keys first, with one ``_cached``
call per key space: the distinct keys' values are made at once as one stack
(an array of rows, or one ``generate_stack`` operator of R conditions), and
each key becomes its index into it. Each distinct key counts as one miss and
one heavy op; every later occurrence is a hit, and every made row is checked
finite. Requests are then composed as training composes: ``apply_stack`` sends
each sentence row through the operator its condition index names (tri: one
hadamard ``generate_stack``), one call per COMPOSE_BLOCK requests,
whose sentence rows are gathered only then. Nothing outlives one call, so
misses equal the number of distinct keys, exactly. Byte accounting counts the
made stacks' bytes; key strings are tracked separately as bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .hypernet import (
    ConditionOperator,
    HyperNetParams,
    apply_stack,
    generate_stack,
)
from .linalg import as_float_array, as_vector

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
COMPOSE_BLOCK = 1024  # requests composed together; bounds memory to ~2.5 x block x nh floats


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


def _cached(stats: CacheStats, keys: Sequence[str], make: Callable, gen_ops: int = 0):
    """The distinct keys' values as one stack, and each key's index into it.

    One ``make(distinct)`` call, over the distinct keys in first-seen order,
    returns their values as one stack: an array of rows, or an operator of R
    conditions. Into ``stats``, a key's first occurrence counts as a miss at
    one heavy op (plus ``gen_ops``), every later one as a hit; the stack's
    arrays (a made operator is full or lowrank: its arrays are all it holds)
    count as resident bytes.
    """
    position: dict[str, int] = {}
    index = np.array([position.setdefault(k, len(position)) for k in keys], dtype=np.intp)
    made = make(list(position))
    stats.lookups += len(keys)
    stats.hits += len(keys) - len(position)
    stats.misses += len(position)
    stats.heavy_ops += len(position)
    stats.gen_ops += gen_ops * len(position)
    arrays = made.arrays.values() if isinstance(made, ConditionOperator) else (made,)
    stats.resident_bytes += sum(a.nbytes for a in arrays)
    stats.key_bytes += sum(len(k.encode("utf-8")) for k in position)
    return made, index


def _compose(stats: CacheStats, op, which, sentences, rows, sink) -> CacheStats:
    """Request i's sentence ``sentences[rows[i]]`` through operator ``which[i]`` of
    op: one light op each, and one ``apply_stack`` call per COMPOSE_BLOCK requests,
    whose sentence rows are gathered only for that call."""
    for lo in range(0, len(which), COMPOSE_BLOCK):
        block = slice(lo, lo + COMPOSE_BLOCK)
        out = apply_stack(op, sentences[rows[block]], which[block])
        stats.light_ops += len(out)
        if sink:
            for i in range(len(out)):
                sink(out[i])
        del out  # the next block is composed with no earlier block held
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
    Hyper's conditions are generated as one operator (one generation op
    each), and their embeddings are not retained. Then the requests are
    composed a block at a time, and the optional sink receives each
    conditioned embedding, in request order: a view of its block's output,
    all of which is computed before the block's first sink call.
    """
    if architecture not in ("bi", "tri", "hyper"):
        raise ValueError(f"unknown architecture {architecture!r}")
    if architecture == "hyper":
        if params is None or params.mode not in ("full", "lowrank"):
            raise ValueError("hyper architecture needs full or lowrank generator params")
        if provider.dim != params.nh:
            raise DimensionMismatchError(f"h_c has dim {provider.dim}, generator expects {params.nh}")
    stats = CacheStats()
    if not requests:
        return stats

    def embed(texts, name="embeddings"):  # one matrix of rows, finite and provider.dim wide
        rows = as_float_array([provider.embed(t) for t in texts], "embeddings")
        if rows.shape[1:] != (provider.dim,):
            raise DimensionMismatchError(f"embeddings have shape {rows.shape}, dim {provider.dim}")
        return as_vector(rows, name, ndims=(2,))

    if architecture == "bi":
        vecs, index = _cached(stats, [s + JOINT_KEY_SEP + c for s, c in requests], embed)
        for i in index if sink else ():
            sink(vecs[i])
        return stats
    if architecture == "tri":
        vecs, index = _cached(stats, [t for q in requests for t in q], lambda t: embed(t, "H"))
        diag = generate_stack("hadamard", {}, vecs)
        return _compose(stats, diag, index[1::2], vecs, index[::2], sink)

    def generate(conditions):
        return generate_stack(params.mode, params.tensors, embed(conditions, "H"))

    ops, which = _cached(stats, [c for _, c in requests], generate, gen_ops=1)
    vecs, index = _cached(stats, [s for s, _ in requests], embed)
    return _compose(stats, ops, which, vecs, index, sink)


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
