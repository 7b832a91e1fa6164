"""Task metrics and analysis tools.

Covers rank correlations for the similarity task, filtered ranking metrics
(MRR, Hits@K) for link prediction, seen/unseen condition partitioning,
k-means clustering with a condition-weighted entropy (impurity) score, and
the operator-norm variance comparison between generated operators and the
diagonal (elementwise) composition.

Ranking, C-STS prediction and the norm report generate a call's distinct
conditions with ``generate_blocks`` and reach each condition's operator by
its index in its block. Params from ``load_checkpoint`` keep the operators
of the last GENERATE_BLOCK conditions they generated and restack a block they
hold in full: evaluating a loaded checkpoint again, or a query at a time,
makes each condition's operator once. A call's rows (candidates, anchors,
sentences) of unequal width raise DimensionMismatchError. C-STS prediction
stacks a condition's s1 and s2 rows RANK_BYTES at a time, each stack checked
once. Ranking scores each generation block's queries by direction, across its
relations, RANK_BYTES of scores at a time: a block of tail anchors is one
``apply_stack`` and one product against the candidate matrix, checked once per
call; head anchors meet the candidates composed once per relation, one
relation at a time. Both tasks score through ``factored_projection``, so
lowrank stays in rank-nk space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CondclError, DimensionMismatchError
from .hypernet import (
    HyperNetParams,
    apply_stack,
    factored_projection,
    generate_blocks,
    generate_stack,
    operator_frobenius_normalized,
)
from .linalg import as_vector
from .losses import CstsQuadruplet, KgTriple, similarity_to_label

__all__ = [
    "spearman",
    "pearson",
    "RankingResult",
    "rank_entities",
    "mrr_hits",
    "split_seen_unseen",
    "kmeans",
    "impurity",
    "frobenius_variance_report",
    "csts_predictions",
    "evaluate_csts",
    "evaluate_kgc",
]

TIE_TOL = 1e-9  # a score this close to gold's ties with it; ties rank by name
RANK_BYTES = 1 << 22  # score or sentence-row bytes held at a time: bounds memory, reused per call
DEFAULT_KS = (1, 3, 10)  # the Hits@k cutoffs reported when none are given
KMEANS_ITERS = 100  # kmeans' cap on Lloyd iterations


def _check_xy(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(list(xs), dtype=np.float64)
    y = np.asarray(list(ys), dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatchError("inputs must be equal-length 1-D lists")
    if x.size < 2:
        raise ValueError("need at least two points")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("correlation undefined for constant input")
    return x, y


def pearson(xs, ys) -> float:
    """Pearson correlation coefficient."""
    x, y = _check_xy(xs, ys)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc @ yc) / (np.linalg.norm(xc) * np.linalg.norm(yc)))


def _fractional_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank of their block."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse.reshape(-1)]


def spearman(xs, ys) -> float:
    """Spearman correlation: Pearson over fractional ranks."""
    x, y = _check_xy(xs, ys)
    return pearson(_fractional_ranks(x), _fractional_ranks(y))


@dataclass(frozen=True)
class RankingResult:
    """A query's (entity, relation) and ``gold_rank``, its gold's filtered 1-based rank:
    one plus the number of candidates that are not known-true and rank ahead of
    gold, ties resolved as ``rank_entities`` says."""

    query: tuple[str, str]
    gold_rank: int


def _cosines(dots: np.ndarray, norms, other_norms) -> np.ndarray:
    """Cosines from dot products and norms; zero norms and non-finite values raise."""
    if not (np.all(norms) and np.all(other_norms)):
        raise ValueError("cosines: zero-norm input")
    out = dots / (norms * other_norms)
    if not np.all(np.isfinite(out)):
        raise ValueError("cosines: non-finite input")
    return out


def _filtered_ranks(scores: np.ndarray, queries, index, order) -> np.ndarray:
    """Filtered gold rank of each query against its row of scores (queries x
    candidates). A candidate is ahead of gold if it scores more than TIE_TOL
    higher, or within TIE_TOL and first by name (``order``); known-true
    candidates are struck, which leaves gold's own entry (never ahead) alone."""
    rows = np.arange(len(queries))
    golds = np.array([index[gold] for _, gold, _, _ in queries])
    drop = [(k, index[e]) for k, (_, _, known, _) in enumerate(queries) for e in known if e in index]
    gold = scores[rows, golds][:, None]
    tied = np.abs(scores - gold) <= TIE_TOL
    ahead = (scores > gold + TIE_TOL) | (tied & (order < order[golds][:, None]))
    ahead[tuple(np.array(drop, dtype=np.intp).reshape(-1, 2).T)] = False
    return ahead.sum(axis=1) + 1


def _rank_queries(params, provider, candidates, queries) -> list[RankingResult]:
    """Filtered ranks of (query, gold, filter_set, direction) tuples, in order, ranked by
    direction across each generation block's relations (see the module docstring)."""
    names = list(dict.fromkeys(candidates))
    index = {name: i for i, name in enumerate(names)}
    groups: dict[str, dict[str, list[int]]] = {}  # relation -> direction -> query positions
    for i, ((_, relation), gold, _, direction) in enumerate(queries):
        if direction not in ("tail", "head"):
            raise ValueError("direction must be 'tail' or 'head'")
        if gold not in index:
            raise CondclError(f"gold entity {gold!r} not among candidates")
        groups.setdefault(relation, {}).setdefault(direction, []).append(i)
    order = np.argsort(sorted(range(len(names)), key=names.__getitem__))  # tie-break key
    E = as_vector([provider.embed(name) for name in names], "candidates", ndims=(2,))
    norms = np.sqrt(np.einsum("ij,ij->i", E, E))
    H = [provider.embed(relation) for relation in groups]  # checked by generate_blocks
    rows = max(1, RANK_BYTES // (8 * len(names)))  # queries per score block
    ranks = np.empty(len(queries), dtype=np.int64)
    for span, op in generate_blocks(params, H):
        by_relation, composed = list(groups.values())[span], {}
        for direction in ("tail", "head"):
            members = [(i, r) for r, by in enumerate(by_relation) for i in by.get(direction, ())]
            for lo in range(0, len(members), rows):
                block, which = (np.array(x) for x in zip(*members[lo : lo + rows]))
                A = as_vector([provider.embed(queries[i][0][0]) for i in block], "anchor", (2,))
                if direction == "tail":
                    P = apply_stack(op, A, which)
                    scores = _cosines(P @ E.T, np.linalg.norm(P, axis=1)[:, None], norms)
                else:
                    scores, a_norms = np.empty((len(block), len(names))), np.linalg.norm(A, axis=1)
                    for r in np.unique(which):  # in relation order: one composition held
                        if r not in composed:
                            composed = {r: factored_projection(op, E, r)}
                        W1, Z, _, head_norms = composed[r]
                        k = which == r
                        AW1 = A[k] if W1 is None else A[k] @ W1
                        scores[k] = _cosines(AW1 @ Z.T, a_norms[k][:, None], head_norms)
                ranks[block] = _filtered_ranks(scores, [queries[i] for i in block], index, order)
                del scores  # hold one block's scores at a time
    return [RankingResult(q[0], rank) for q, rank in zip(queries, ranks.tolist())]


def rank_entities(
    params: HyperNetParams,
    provider,
    query: tuple[str, str],
    gold: str,
    candidates: Sequence[str],
    filter_set: Iterable[str] = (),
    direction: str = "tail",
) -> RankingResult:
    """Rank candidate entities for one (entity, relation) query.

    direction="tail": candidates complete (anchor, relation, ?) and are
    scored by cosine of the relation-composed anchor against each
    candidate. direction="head": candidates complete (?, relation, anchor)
    and each candidate is relation-composed before scoring against the
    anchor. Known-true entities other than gold are filtered out before
    ranking. A competitor whose score is within TIE_TOL of gold's ties with
    it, and ties break lexicographically by candidate text: rounding then
    decides no rank, so equal embeddings, rank-1 operators (whose head
    scores are equal in exact arithmetic) and one relation generated alone
    or with others all rank alike. This is the one-query case of
    ``evaluate_kgc``.
    """
    return _rank_queries(params, provider, candidates, [(query, gold, filter_set, direction)])[0]


def mrr_hits(results: Sequence[RankingResult], ks: Sequence[int]) -> dict:
    """Mean reciprocal rank and Hits@k over ranking results."""
    if not results:
        raise ValueError("mrr_hits needs at least one result")
    ranks = np.array([r.gold_rank for r in results], dtype=np.float64)
    return {
        "mrr": float(np.mean(1.0 / ranks)),
        "hits": {int(k): float(np.mean(ranks <= k)) for k in ks},
    }


def split_seen_unseen(
    train_conditions: Iterable[str], instances: Sequence[CstsQuadruplet]
) -> tuple[list[CstsQuadruplet], list[CstsQuadruplet]]:
    """Partition instances by exact-string condition membership."""
    known = set(train_conditions)
    seen = [q for q in instances if q.c in known]
    unseen = [q for q in instances if q.c not in known]
    return seen, unseen


def kmeans(points, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted (k-means++) seeding.

    Deterministic for a fixed seed; stops at an assignment fixpoint or
    after KMEANS_ITERS iterations. Returns the cluster index per point.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("points must be a nonempty 2-D array")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, #points], got k={k}, n={n}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[i] = X[rng.integers(n)]
        else:
            centroids[i] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centroids[i]) ** 2, axis=1))

    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        dists = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
        new_assign = np.argmin(dists, axis=1)
        for j in range(k):
            mask = new_assign == j
            if np.any(mask):
                centroids[j] = X[mask].mean(axis=0)
            else:
                # Re-seed an emptied cluster at the currently worst-fit point.
                worst = int(np.argmax(np.min(dists, axis=1)))
                centroids[j] = X[worst]
                new_assign[worst] = j
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    return assignments


def impurity(assignments, condition_labels) -> float:
    """Condition-group-weighted entropy of cluster assignments.

    Zero when every condition group sits wholly inside one cluster; log(k)
    when every group is split uniformly over k clusters. Natural log;
    0*log(0) is taken as 0.
    """
    assign = list(assignments)
    labels = list(condition_labels)
    if len(assign) != len(labels):
        raise DimensionMismatchError("assignments and labels differ in length")
    if not assign:
        raise ValueError("impurity of empty input")
    n = len(assign)
    groups: dict = {}
    for a, lab in zip(assign, labels):
        groups.setdefault(lab, []).append(a)
    total = 0.0
    for members in groups.values():
        size = len(members)
        _, counts = np.unique(np.asarray(members), return_counts=True)
        p = counts / size
        entropy = float(-(p * np.log(p)).sum())
        total += (size / n) * entropy
    return total


def frobenius_variance_report(
    params: HyperNetParams, provider, conditions: Sequence[str]
) -> tuple[float, float]:
    """Variance of normalized operator norms: generated vs diagonal.

    For each condition, the generated operator's Frobenius norm is
    normalized by sqrt(#stored scalars) and the diagonal construction's by
    sqrt(nh); returns the population variance (``np.var``, mean of squared
    deviations) of each list.
    """
    if not conditions:
        raise ValueError("need at least one condition")
    H = as_vector([provider.embed(c) for c in conditions], "H", ndims=(2,))
    hyper = [n for _, op in generate_blocks(params, H) for n in operator_frobenius_normalized(op)]
    diag_norms = operator_frobenius_normalized(generate_stack("hadamard", {}, H))
    return float(np.var(hyper)), float(np.var(diag_norms))


# -- task-level evaluation helpers ---------------------------------------------


def csts_predictions(
    params: HyperNetParams, provider, quads: Sequence[CstsQuadruplet]
) -> tuple[list[float], list[float]]:
    """Native-range predicted similarities and gold labels, per instance: the cosine
    of a record's sentences projected by its condition's operator, z1 (W1^T W1) z2^T
    over their norms for a lowrank W1 W2^T (z = s @ W2, ``factored_projection``)."""
    groups: dict[str, list[int]] = {}
    for i, q in enumerate(quads):
        groups.setdefault(q.c, []).append(i)
    if not groups:
        return [], []
    H = [provider.embed(c) for c in groups]  # checked by generate_blocks
    phi, pairs = np.empty(len(quads)), max(1, RANK_BYTES // (16 * params.nh))  # records per stack
    for span, op in generate_blocks(params, H):
        for r, members in enumerate(list(groups.values())[span]):
            for block in (members[lo : lo + pairs] for lo in range(0, len(members), pairs)):
                rows = [provider.embed(getattr(quads[i], s)) for s in ("s1", "s2") for i in block]
                _, Z, ZG, norms = factored_projection(op, rows, r)
                n = len(block)
                phi[block] = _cosines(np.einsum("ij,ij->i", ZG[:n], Z[n:]), norms[:n], norms[n:])
    return [similarity_to_label(p) for p in phi], [q.y for q in quads]


def evaluate_csts(
    params: HyperNetParams, provider, quads: Sequence[CstsQuadruplet]
) -> dict[str, float]:
    preds, golds = csts_predictions(params, provider, quads)
    return {"spearman": spearman(preds, golds), "pearson": pearson(preds, golds)}


def evaluate_kgc(
    params: HyperNetParams,
    provider,
    eval_triples: Sequence[KgTriple],
    known_triples: Sequence[KgTriple],
    entities: Sequence[str],
    ks: Sequence[int] = DEFAULT_KS,
) -> dict:
    """Filtered ranking metrics over both prediction directions.

    Filter sets are derived from known_triples (all splits): when ranking
    tails for (h, r), every other known-true tail of (h, r) is removed, and
    symmetrically for heads.
    """
    if not eval_triples:
        raise ValueError("no evaluation triples")
    tails_of = {(t.h, t.r): set() for t in eval_triples}  # only the keys queried
    heads_of = {(t.t, t.r): set() for t in eval_triples}
    for t in known_triples:
        if (t.h, t.r) in tails_of:
            tails_of[t.h, t.r].add(t.t)
        if (t.t, t.r) in heads_of:
            heads_of[t.t, t.r].add(t.h)
    queries = []
    for t in eval_triples:
        queries.append(((t.h, t.r), t.t, tails_of[t.h, t.r], "tail"))
        queries.append(((t.t, t.r), t.h, heads_of[t.t, t.r], "head"))
    results = _rank_queries(params, provider, entities, queries)
    metrics = mrr_hits(results, ks)
    metrics["queries"] = len(results)
    return metrics
