"""Task metrics and analysis tools.

Covers rank correlations for the similarity task, filtered ranking metrics
(MRR, Hits@K) for link prediction, seen/unseen condition partitioning,
k-means clustering with a condition-weighted entropy (impurity) score, and
the operator-norm variance comparison between generated operators and the
diagonal (elementwise) composition.

Ranking and C-STS prediction are batched: one call takes one operator per
condition from ``generate_operators`` and sends rows through it with
``apply_stack``: a tail query's anchor as one row, the candidate matrix once
per relation for head queries, and each condition's C-STS rows in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CondclError, DimensionMismatchError
from .hypernet import (
    HyperNetParams,
    apply_stack,
    diagonal_operator,
    generate_operators,
    operator_frobenius_normalized,
)
from .linalg import as_vector, variance
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
DEFAULT_KS = (1, 3, 10)  # the Hits@k cutoffs reported when none are given


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
    query: tuple[str, str]
    gold_rank: int
    candidate_count: int


def _cosines(dots: np.ndarray, norms, other_norms) -> np.ndarray:
    """Cosines from dot products and norms; zero norms and non-finite values raise."""
    if not (np.all(norms) and np.all(other_norms)):
        raise ValueError("cosines: zero-norm input")
    out = dots / (norms * other_norms)
    if not np.all(np.isfinite(out)):
        raise ValueError("cosines: non-finite input")
    return out


def _rank_queries(params, provider, candidates, queries) -> list[RankingResult]:
    """Filtered ranks of (query, gold, filter_set, direction) tuples, in order."""
    names = list(dict.fromkeys(candidates))
    index = {name: i for i, name in enumerate(names)}
    by_relation: dict[str, list[int]] = {}
    for i, ((_, relation), gold, _, direction) in enumerate(queries):
        if direction not in ("tail", "head"):
            raise ValueError("direction must be 'tail' or 'head'")
        if gold not in index:
            raise CondclError(f"gold entity {gold!r} not among candidates")
        by_relation.setdefault(relation, []).append(i)
    order = np.argsort(sorted(range(len(names)), key=names.__getitem__))  # tie-break key
    E = as_vector(np.stack([provider.embed(name) for name in names]), "candidates", ndims=(2,))
    norms = np.linalg.norm(E, axis=1)
    H = np.stack([provider.embed(relation) for relation in by_relation])
    results: list = [None] * len(queries)
    for members, op in zip(by_relation.values(), generate_operators(params, H)):
        heads = None  # the relation's projected entity matrix and its row norms
        for i in members:
            query, gold, filter_set, direction = queries[i]
            anchor = as_vector(provider.embed(query[0]), "anchor")
            if direction == "tail":
                base = apply_stack(op, anchor, (0, 1))[0]
                scores = _cosines(E @ base, norms, np.linalg.norm(base))
            else:
                if heads is None:
                    P = apply_stack(op, E, (0, len(E)))
                    heads = P, np.linalg.norm(P, axis=1)
                scores = _cosines(heads[0] @ anchor, heads[1], np.linalg.norm(anchor))
            g = index[gold]
            kept = np.ones(len(names), dtype=bool)
            kept[[index[name] for name in filter_set if name in index and name != gold]] = False
            tied = np.abs(scores - scores[g]) <= TIE_TOL
            ahead = (scores > scores[g] + TIE_TOL) | (tied & (order < order[g]))
            results[i] = RankingResult(query, int((ahead & kept).sum()) + 1, int(kept.sum()))
    return results


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


def kmeans(points, k: int, seed: int = 0, max_iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted (k-means++) seeding.

    Deterministic for a fixed seed; stops at an assignment fixpoint or
    after max_iters. Returns the cluster index per point.
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
    for _ in range(max_iters):
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
    sqrt(nh); returns the population variance of each list.
    """
    if not conditions:
        raise ValueError("need at least one condition")
    H = np.stack([provider.embed(c) for c in conditions])
    stacks = generate_operators(params, H)
    hyper_norms = np.concatenate([operator_frobenius_normalized(op) for op in stacks])
    diag_norms = operator_frobenius_normalized(diagonal_operator(H))
    return variance(hyper_norms), variance(diag_norms)


# -- task-level evaluation helpers ---------------------------------------------


def csts_predictions(
    params: HyperNetParams, provider, quads: Sequence[CstsQuadruplet]
) -> tuple[list[float], list[float]]:
    """Native-range predicted similarities and gold labels, per instance."""
    groups: dict[str, list[int]] = {}
    for i, q in enumerate(quads):
        groups.setdefault(q.c, []).append(i)
    if not groups:
        return [], []
    H = np.stack([provider.embed(c) for c in groups])
    phi = np.empty(len(quads))
    for members, op in zip(groups.values(), generate_operators(params, H)):
        bounds = (0, len(members))
        a = apply_stack(op, [provider.embed(quads[i].s1) for i in members], bounds)
        b = apply_stack(op, [provider.embed(quads[i].s2) for i in members], bounds)
        dots = np.einsum("ij,ij->i", a, b)
        phi[members] = _cosines(dots, np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
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
    tails_of: dict[tuple[str, str], set[str]] = {}
    heads_of: dict[tuple[str, str], set[str]] = {}
    for t in known_triples:
        tails_of.setdefault((t.h, t.r), set()).add(t.t)
        heads_of.setdefault((t.t, t.r), set()).add(t.h)
    queries = []
    for t in eval_triples:
        queries.append(((t.h, t.r), t.t, tails_of.get((t.h, t.r), ()), "tail"))
        queries.append(((t.t, t.r), t.h, heads_of.get((t.t, t.r), ()), "head"))
    results = _rank_queries(params, provider, entities, queries)
    metrics = mrr_hits(results, ks)
    metrics["queries"] = len(results)
    return metrics
