"""Task metrics and analysis tools.

Covers rank correlations for the similarity task, filtered ranking metrics
(MRR, Hits@K) for link prediction, seen/unseen condition partitioning,
k-means clustering with a condition-weighted entropy (impurity) score, and
the operator-norm variance comparison between generated operators and the
diagonal (elementwise) composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CondclError, DimensionMismatchError
from .hypernet import (
    ConditionOperator,
    HyperNetParams,
    diagonal_operator,
    generate_condition_matrix,
    operator_frobenius_normalized,
    project,
)
from .linalg import cosine_similarity, variance
from .losses import CstsQuadruplet, KgTriple, similarity_to_label

__all__ = [
    "spearman",
    "pearson",
    "RankingResult",
    "rank_entities",
    "mrr_hits",
    "split_seen_unseen",
    "kmeans",
    "ClusterReport",
    "impurity",
    "frobenius_variance_report",
    "csts_predictions",
    "evaluate_csts",
    "evaluate_kgc",
]


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
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = avg
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman correlation: Pearson over fractional ranks."""
    x, y = _check_xy(xs, ys)
    return pearson(_fractional_ranks(x), _fractional_ranks(y))


@dataclass(frozen=True)
class RankingResult:
    query: tuple[str, str]
    gold_rank: int
    candidate_count: int


def _rank_from_scores(
    scores: dict[str, float], gold: str, filter_set: Iterable[str]
) -> tuple[int, int]:
    """Filtered rank of gold under a deterministic lexicographic tie rule."""
    removed = set(filter_set) - {gold}
    kept = {text: s for text, s in scores.items() if text not in removed}
    if gold not in kept:
        raise CondclError(f"gold candidate {gold!r} missing from scored set")
    gold_score = kept[gold]
    greater = sum(1 for s in kept.values() if s > gold_score)
    tied = sorted(text for text, s in kept.items() if s == gold_score)
    return greater + tied.index(gold) + 1, len(kept)


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
    ranking; ties break lexicographically by candidate text.
    """
    if direction not in ("tail", "head"):
        raise ValueError("direction must be 'tail' or 'head'")
    anchor_text, relation_text = query
    if gold not in candidates:
        raise CondclError(f"gold entity {gold!r} not among candidates")
    op = generate_condition_matrix(params, provider.embed(relation_text))
    anchor = provider.embed(anchor_text)
    scores: dict[str, float] = {}
    if direction == "tail":
        base = project(op, anchor)
        for cand in candidates:
            scores[cand] = cosine_similarity(base, provider.embed(cand))
    else:
        for cand in candidates:
            scores[cand] = cosine_similarity(project(op, provider.embed(cand)), anchor)
    gold_rank, count = _rank_from_scores(scores, gold, filter_set)
    return RankingResult(query=query, gold_rank=gold_rank, candidate_count=count)


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


@dataclass
class ClusterReport:
    assignments: np.ndarray
    impurity: float
    k: int


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
    hyper_norms = []
    diag_norms = []
    for c in conditions:
        h_c = provider.embed(c)
        hyper_norms.append(operator_frobenius_normalized(generate_condition_matrix(params, h_c)))
        diag_norms.append(operator_frobenius_normalized(diagonal_operator(h_c)))
    return variance(hyper_norms), variance(diag_norms)


# -- task-level evaluation helpers ---------------------------------------------


def csts_predictions(
    params: HyperNetParams, provider, quads: Sequence[CstsQuadruplet]
) -> tuple[list[float], list[float]]:
    """Native-range predicted similarities and gold labels, per instance."""
    ops: dict[str, ConditionOperator] = {}
    preds: list[float] = []
    golds: list[float] = []
    for q in quads:
        if q.c not in ops:
            ops[q.c] = generate_condition_matrix(params, provider.embed(q.c))
        a = project(ops[q.c], provider.embed(q.s1))
        b = project(ops[q.c], provider.embed(q.s2))
        preds.append(similarity_to_label(cosine_similarity(a, b)))
        golds.append(q.y)
    return preds, golds


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
    ks: Sequence[int] = (1, 3, 10),
    directions: Sequence[str] = ("tail", "head"),
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
    results: list[RankingResult] = []
    for t in eval_triples:
        if "tail" in directions:
            results.append(
                rank_entities(
                    params,
                    provider,
                    query=(t.h, t.r),
                    gold=t.t,
                    candidates=entities,
                    filter_set=tails_of.get((t.h, t.r), set()),
                    direction="tail",
                )
            )
        if "head" in directions:
            results.append(
                rank_entities(
                    params,
                    provider,
                    query=(t.t, t.r),
                    gold=t.h,
                    candidates=entities,
                    filter_set=heads_of.get((t.t, t.r), set()),
                    direction="head",
                )
            )
    metrics = mrr_hits(results, ks)
    metrics["queries"] = len(results)
    return metrics
