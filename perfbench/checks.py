"""Independent references and the checks that compare condcl's outputs to them.

The references read the generated files with json and numpy alone (the
checkpoint through its documented HYPERCL1 layout) and compute scores as
whole matrices, so they share no code path with the program under test.
Every checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

TIE_TOL = 1e-9  # a competitor this close to the gold score may rank either side
VECTOR_TOL = 1e-12  # relative to the largest reference entry, at least 1
AGGREGATE_TOL = 1e-12  # summation order of a mean over ranks


# -- reading inputs --------------------------------------------------------------


def read_embeddings(path: Path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[rec["text"]] = np.asarray(rec["embedding"], dtype=np.float32).astype(np.float64)
    return out


def read_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_triples(path: Path) -> list[tuple[str, str, str]]:
    with path.open("r", encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


class LowrankCheckpoint:
    """Memory-mapped lowrank generator read straight from the file layout."""

    def __init__(self, path: Path):
        with path.open("rb") as fh:
            if fh.read(8) != b"HYPERCL1":
                raise ValueError(f"{path}: not a HYPERCL1 checkpoint")
            (header_len,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(header_len).decode("utf-8"))
        if header["mode"] != "lowrank":
            raise ValueError(f"{path}: reference expects a lowrank checkpoint")
        self.nh = int(header["nh"])
        self.nk = int(header["nk"])
        base = 16 + header_len
        self.tensors = {
            e["name"]: np.memmap(
                path, dtype="<f4", mode="r", offset=base + e["offset"], shape=tuple(e["shape"])
            )
            for e in header["tensors"]
        }

    def factors(self, conditions: np.ndarray, chunk: int = 4096) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W1, W2) for each row of ``conditions``, one pass over the weights."""
        H = np.ascontiguousarray(conditions.T)
        out = []
        for w, b in (("U1", "U1_bias"), ("U2", "U2_bias")):
            U = self.tensors[w]
            prod = np.empty((U.shape[0], H.shape[1]))
            for start in range(0, U.shape[0], chunk):
                prod[start : start + chunk] = np.asarray(U[start : start + chunk], np.float64) @ H
            prod += np.asarray(self.tensors[b], np.float64)[:, None]
            out.append(prod)
        return [
            (out[0][:, j].reshape(self.nh, self.nk), out[1][:, j].reshape(self.nh, self.nk))
            for j in range(H.shape[1])
        ]


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


# -- link prediction -------------------------------------------------------------


def rank_bounds(scores: np.ndarray, gold: int, removed: np.ndarray) -> tuple[int, int]:
    """Filtered rank range of ``gold``: exact unless competitors tie within TIE_TOL."""
    g = scores[gold]
    competitors = ~removed
    competitors[gold] = False
    s = scores[competitors]
    return 1 + int(np.sum(s > g + TIE_TOL)), 1 + int(np.sum(s >= g - TIE_TOL))


def exact_rank(scores: np.ndarray, gold: int, removed: np.ndarray, names: list[str]) -> int:
    """Rank under the documented rule: higher score first, ties by candidate text."""
    g = scores[gold]
    competitors = ~removed
    competitors[gold] = False
    tied_before = sum(
        1 for j in np.flatnonzero(competitors & (scores == g)) if names[j] < names[gold]
    )
    return 1 + int(np.sum(scores[competitors] > g)) + tied_before


class KgcReference:
    """Per-query rank bounds for filtered ranking in both directions."""

    def __init__(self, ckpt: LowrankCheckpoint, emb: dict, triples: list, entities: list[str]):
        self.entities = entities
        index = {e: i for i, e in enumerate(entities)}
        E = np.stack([emb[e] for e in entities])
        relations = sorted({r for _, r, _ in triples})
        ops = dict(zip(relations, ckpt.factors(np.stack([emb[r] for r in relations]))))
        self._index = index
        self._E_unit = _unit_rows(E)
        self._E = E
        self._ops = ops
        self._tails: dict[tuple[str, str], set[str]] = {}
        self._heads: dict[tuple[str, str], set[str]] = {}
        for h, r, t in triples:
            self._tails.setdefault((h, r), set()).add(t)
            self._heads.setdefault((t, r), set()).add(h)
        self._head_scores: dict[str, np.ndarray] = {}

    def _removed(self, known: set[str], gold: str) -> np.ndarray:
        mask = np.zeros(len(self.entities), dtype=bool)
        for text in known - {gold}:
            mask[self._index[text]] = True
        return mask

    def scores(self, triple, direction: str) -> tuple[np.ndarray, int, np.ndarray]:
        h, r, t = triple
        W1, W2 = self._ops[r]
        if direction == "tail":
            q = W1 @ (W2.T @ self._E[self._index[h]])
            scores = self._E_unit @ (q / np.linalg.norm(q))
            return scores, self._index[t], self._removed(self._tails[(h, r)], t)
        if r not in self._head_scores:
            self._head_scores[r] = _unit_rows((self._E @ W2) @ W1.T)
        anchor = self._E_unit[self._index[t]]
        return self._head_scores[r] @ anchor, self._index[h], self._removed(self._heads[(t, r)], h)

    def bounds(self, triples) -> list[tuple[int, int]]:
        """Rank bounds in evaluate_kgc's query order: tail then head per triple."""
        out = []
        for tr in triples:
            for direction in ("tail", "head"):
                out.append(rank_bounds(*self.scores(tr, direction)))
        return out

    def ranks(self, triples) -> list[int]:
        out = []
        for tr in triples:
            for direction in ("tail", "head"):
                out.append(exact_rank(*self.scores(tr, direction), self.entities))
        return out


def check_ranks(ranks, bounds) -> list[str]:
    if len(ranks) != len(bounds):
        return [f"{len(ranks)} ranks for {len(bounds)} queries"]
    return [
        f"query {i}: rank {r} outside reference [{lo}, {hi}]"
        for i, (r, (lo, hi)) in enumerate(zip(ranks, bounds))
        if not lo <= r <= hi
    ]


def check_kgc_metrics(metrics: dict, bounds, ks) -> list[str]:
    """evaluate_kgc's aggregates must follow from ranks inside the bounds."""
    problems = []
    lo = np.array([b[0] for b in bounds], dtype=np.float64)
    hi = np.array([b[1] for b in bounds], dtype=np.float64)
    if metrics.get("queries") != len(bounds):
        problems.append(f"queries {metrics.get('queries')} != {len(bounds)}")
    mrr_lo, mrr_hi = float(np.mean(1.0 / hi)), float(np.mean(1.0 / lo))
    if not mrr_lo - AGGREGATE_TOL <= metrics["mrr"] <= mrr_hi + AGGREGATE_TOL:
        problems.append(f"mrr {metrics['mrr']!r} outside [{mrr_lo!r}, {mrr_hi!r}]")
    for k in ks:
        got = metrics["hits"].get(int(k))
        h_lo, h_hi = float(np.mean(hi <= k)), float(np.mean(lo <= k))
        if got is None or not h_lo - AGGREGATE_TOL <= got <= h_hi + AGGREGATE_TOL:
            problems.append(f"hits@{k} {got!r} outside [{h_lo!r}, {h_hi!r}]")
    return problems


# -- conditioned similarity ----------------------------------------------------


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    _, first, counts = np.unique(sorted_x, return_index=True, return_counts=True)
    avg = first + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(avg, counts)
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def csts_reference(ckpt: LowrankCheckpoint, emb: dict, records: list[dict]) -> dict[str, float]:
    conditions = sorted({r["condition"] for r in records})
    ops = dict(zip(conditions, ckpt.factors(np.stack([emb[c] for c in conditions]))))
    preds = np.empty(len(records))
    for i, rec in enumerate(records):
        W1, W2 = ops[rec["condition"]]
        a = W1 @ (W2.T @ emb[rec["sentence1"]])
        b = W1 @ (W2.T @ emb[rec["sentence2"]])
        preds[i] = 1.0 + 4.0 * float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    golds = np.array([float(r["label"]) for r in records])
    return {
        "spearman": _pearson(_average_ranks(preds), _average_ranks(golds)),
        "pearson": _pearson(preds, golds),
    }


def check_csts_metrics(metrics: dict, reference: dict) -> list[str]:
    return [
        f"{key} {metrics.get(key)!r} != reference {ref!r}"
        for key, ref in reference.items()
        if metrics.get(key) is None or abs(metrics[key] - ref) > TIE_TOL
    ]


# -- served vectors and cache counts ----------------------------------------------------


def check_vectors(outputs, references) -> list[str]:
    problems = []
    for i, (out, ref) in enumerate(zip(outputs, references)):
        out = np.asarray(out, dtype=np.float64)
        scale = max(1.0, float(np.max(np.abs(ref))))
        if out.shape != ref.shape or float(np.max(np.abs(out - ref))) > VECTOR_TOL * scale:
            problems.append(f"sampled output {i} differs from the reference")
    if len(outputs) != len(references):
        problems.append(f"{len(outputs)} sampled outputs for {len(references)} references")
    return problems


def check_cache_counts(stats, lookups: int, misses: int) -> list[str]:
    problems = []
    if stats.misses != misses:
        problems.append(f"misses {stats.misses} != distinct keys {misses}")
    if stats.lookups != lookups:
        problems.append(f"lookups {stats.lookups} != {lookups}")
    if stats.hits != lookups - misses:
        problems.append(f"hits {stats.hits} != {lookups - misses}")
    return problems


# -- training --------------------------------------------------------------------------


def check_losses(losses, first) -> list[str]:
    problems = []
    if not losses or not all(np.isfinite(x) for x in losses):
        problems.append(f"non-finite or missing losses {losses!r}")
    if first is not None and list(losses) != list(first):
        problems.append(f"losses {losses!r} differ from the first run {first!r}")
    return problems
