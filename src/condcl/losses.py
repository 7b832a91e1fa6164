"""Training objectives with analytic gradients.

Two loss families: a similarity-regression task over sentence pairs whose
instances carry twin contrasting conditions (an InfoNCE term over the twin
pair plus squared-error terms against labels), and a link-prediction task
over (head, relation, tail) triples (InfoNCE with an additive margin and a
pool of negative tails).

Both are written over whole batches: the similarity loss over row-wise
cosines phi of shape (B, 2), the link-prediction loss over the score matrix
of the row-normalised projected heads against one candidate matrix (the
batch's tails, its heads as self-negatives and the pre-batch tails), with a
boolean mask built once per batch from the texts' row ids
(``kgc_candidates``). Each loss is one autodiff node: its forward arrays are
computed once in numpy, and its vector-Jacobian product is a closed form
built from them, so a loss value and the gradients used in training share one
evaluation. Over plain ndarrays a loss is a plain value; one instance is the
B=1 case. The gradient checker compares those analytic gradients against
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .errors import CondclError, ConfigError
from .linalg import is_finite_real, is_integer

__all__ = [
    "CstsQuadruplet",
    "KgTriple",
    "LossConfig",
    "TwinPair",
    "LABEL_LOW",
    "LABEL_HIGH",
    "rescale_label",
    "similarity_to_label",
    "pair_twins",
    "csts_loss",
    "kgc_loss",
    "kgc_candidates",
    "GradCheckReport",
    "grad_check",
]

# Native label range for the similarity task; the squared-error term
# compares cosine values against labels affinely mapped onto [0, 1].
LABEL_LOW = 1.0
LABEL_HIGH = 5.0

TAU_FLOOR = 1e-3


@dataclass(frozen=True)
class CstsQuadruplet:
    """One labeled record: a sentence pair, a condition, and a similarity."""

    s1: str
    s2: str
    c: str
    y: float
    pair_id: int


@dataclass(frozen=True)
class KgTriple:
    h: str
    r: str
    t: str

    def __post_init__(self):
        if not (self.h and self.r and self.t):
            raise ValueError("triple fields must be nonempty")


@dataclass
class LossConfig:
    tau_csts: float = 1.5
    tau_kgc: float = 0.05
    gamma: float = 0.02
    use_self_neg: bool = True
    use_prebatch_neg: bool = True
    prebatch_size: int = 2

    def validate(self) -> None:
        for name in ("tau_csts", "tau_kgc", "gamma"):
            if not is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if self.tau_csts <= 0:
            raise ConfigError("tau_csts must be positive")
        if self.tau_kgc < TAU_FLOOR:
            raise ConfigError(f"tau_kgc must be >= {TAU_FLOOR}")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if not is_integer(self.prebatch_size):
            raise ConfigError(f"prebatch_size must be an integer, got {self.prebatch_size!r}")
        if self.prebatch_size < 0:
            raise ConfigError("prebatch_size must be >= 0")


@dataclass(frozen=True)
class TwinPair:
    """The two records of one instance: contrasting conditions, same pair."""

    high: CstsQuadruplet
    low: CstsQuadruplet


def rescale_label(y: float) -> float:
    """Map a native-range label onto [0, 1] for the squared-error term."""
    return (float(y) - LABEL_LOW) / (LABEL_HIGH - LABEL_LOW)


def similarity_to_label(phi: float) -> float:
    """Map a predicted cosine back onto the native label range."""
    return LABEL_LOW + (LABEL_HIGH - LABEL_LOW) * float(phi)


def pair_twins(quads: Sequence[CstsQuadruplet]) -> list[TwinPair]:
    """Group records into twin instances by pair_id.

    Each pair_id must occur exactly twice, with identical sentences and
    distinct conditions; the record with the larger label is the high twin.
    """
    by_id: dict[int, list[CstsQuadruplet]] = {}
    for q in quads:
        by_id.setdefault(q.pair_id, []).append(q)
    out: list[TwinPair] = []
    for pid, members in by_id.items():
        if len(members) != 2:
            raise CondclError(f"pair_id {pid} has {len(members)} records, expected twins")
        a, b = members
        if (a.s1, a.s2) != (b.s1, b.s2):
            raise CondclError(f"pair_id {pid}: twins disagree on the sentence pair")
        if a.c == b.c:
            raise CondclError(f"pair_id {pid}: twins share the same condition {a.c!r}")
        hi, lo = (a, b) if a.y >= b.y else (b, a)
        out.append(TwinPair(high=hi, low=lo))
    return out


# -- the batch losses, one autodiff node each -------------------------------------

HIGH_TWIN = np.array([1.0, 0.0])  # selects the high twin's column of a (B, 2) array


def _unit_rows(x: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Each row of a 2-D array over its Euclidean norm, and the (rows, 1) norms."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    if np.any(norms == 0.0):
        raise ValueError(f"{name}: zero-norm input")
    return x / norms, norms


def _logsumexp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's max-shifted log-sum-exp, and its softmax; -inf entries take no part."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    total = e.sum(axis=1, keepdims=True)
    return (m + np.log(total))[:, 0], e / total


def csts_loss(left, right, y01: np.ndarray, tau: float):
    """Mean twin loss of B instances, plus its per-instance mse and cl terms.

    Rows 2i and 2i+1 of ``left`` and ``right`` are the two projected sides of
    instance i's high and low twin, and phi_i (2,) the cosines of those row
    pairs; ``y01`` (B, 2) holds the rescaled labels. Instance i scores
    mse_i = sum_j (phi_ij - y01_ij)^2 plus cl_i = logsumexp(phi_i / tau) -
    phi_i0 / tau (-log softmax of the high twin). The mean is one autodiff
    node over ``left`` and ``right`` (a plain value when neither is a
    Tensor); mse and cl are (B,) ndarrays.
    """
    l_hat, l_norms = _unit_rows(ad.value(left), "csts_loss")
    r_hat, r_norms = _unit_rows(ad.value(right), "csts_loss")
    cos = np.einsum("ij,ij->i", l_hat, r_hat)
    phi = cos.reshape(y01.shape)
    d = phi - y01
    mse = (d * d) @ np.ones(2)
    s = phi / tau
    lse, softmax = _logsumexp(s)
    cl = lse - s @ HIGH_TWIN
    d_cos = ((2.0 * d + (softmax - HIGH_TWIN) / tau) / len(d)).reshape(-1, 1)  # d mean / d phi

    def vjp(own_hat, other_hat, norms):  # d cos_k / d row k = (other_hat - cos_k own_hat) / |row k|
        return lambda g: g * d_cos * (other_hat - cos[:, None] * own_hat) / norms

    loss = ad.node(
        (mse + cl).mean(),
        (left, vjp(l_hat, r_hat, l_norms)),
        (right, vjp(r_hat, l_hat, r_norms)),
    )
    return loss, mse, cl


def kgc_loss(q, cands: np.ndarray, mask: np.ndarray | None, gamma: float, tau):
    """Mean margin InfoNCE of B projected heads against one candidate matrix.

    The first B rows of ``cands`` are the heads' gold tails, so entry (i, i)
    is row i's positive and carries the -gamma margin; ``mask`` (B, C) keeps
    each row's positive and negatives (None keeps every entry). With logits
    z_ij = (cos(q_i, cands_j) - gamma [i == j]) / tau, row i scores the
    logsumexp of its kept z_ij minus z_ii. The mean is one autodiff node over
    ``q`` and ``tau`` (a plain value when neither is a Tensor).
    """
    q_hat, q_norms = _unit_rows(ad.value(q), "kgc_loss")
    c_hat, _ = _unit_rows(ad.value(cands), "kgc_loss")
    t = ad.value(tau)
    n = q_hat.shape[0]
    logits = (q_hat @ c_hat.T - gamma * np.eye(n, c_hat.shape[0])) / t
    pos = (np.einsum("ij,ij->i", q_hat, c_hat[:n]) - gamma) / t
    if mask is not None and not mask.any(axis=1).all():
        raise ValueError("kgc_loss: a row keeps no candidate")
    lse, softmax = _logsumexp(logits if mask is None else np.where(mask, logits, -np.inf))
    w = softmax / n  # d mean / d logits; a masked entry's is 0, and d mean / d pos is -1/n

    def grad_q(g):
        d_hat = g * (w @ c_hat - c_hat[:n] / n) / t
        return (d_hat - q_hat * np.einsum("ij,ij->i", d_hat, q_hat)[:, None]) / q_norms

    def grad_tau(g):  # logits and pos are both over tau: d / d tau = -(.) / tau
        return np.asarray(g * (pos.sum() / n - np.einsum("ij,ij->", w, logits)) / t)

    return ad.node((lse - pos).mean(), (q, grad_q), (tau, grad_tau))


def kgc_candidates(triples: Sequence[KgTriple], ids: np.ndarray, cfg: LossConfig, past=()):
    """The candidates of a batch of triples, as row ids, and the mask of each row.

    ``ids`` (B, 3) holds the triples' heads, relations and tails as rows of one
    embedding matrix with one row per distinct text, ``past`` the rows of the
    pre-batch tails. Candidates are the tails, then the heads (self-negatives,
    when enabled), then the pre-batch tails (when enabled). Row i keeps its own
    tail (the positive), every other tail whose text differs from its gold tail,
    and its own head when that differs from the gold tail. A row left with no
    negative raises ValueError naming its triple.
    """
    heads, gold = ids[:, 0], ids[:, 2]
    cands = [gold]
    blocks = [(gold[:, None] != gold[None, :]) | np.eye(len(gold), dtype=bool)]
    if cfg.use_self_neg:
        cands.append(heads)
        blocks.append(np.diag(heads != gold))
    if cfg.use_prebatch_neg:
        past = np.asarray(past, dtype=np.intp)
        cands.append(past)
        blocks.append(gold[:, None] != past[None, :])
    mask = np.concatenate(blocks, axis=1)
    lonely = np.flatnonzero(mask.sum(axis=1) < 2)
    if lonely.size:
        raise ValueError(
            f"no negatives available for triple {triples[lonely[0]]}; "
            "enable self/pre-batch negatives or grow the batch"
        )
    return np.concatenate(cands), mask


# -- gradient checking -------------------------------------------------------

LossFn = Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]]


@dataclass
class GradCheckReport:
    max_rel_err: float
    n_checked: int
    epsilon: float
    seed: int
    per_param: dict[str, float] = field(default_factory=dict)


def grad_check(
    loss_fn: LossFn,
    params: dict[str, np.ndarray],
    epsilon: float = 1e-5,
    n_probes: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn maps a parameter dict to (loss, gradient dict). With
    n_probes=None every learnable scalar is probed; otherwise n_probes (at
    least 1) coordinates are sampled without replacement from a seeded stream.
    Relative error per coordinate is |a - n| / max(1, |a|, |n|).
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    if n_probes is not None and n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    loss0, grads = loss_fn(base)
    if not np.isfinite(loss0):
        raise CondclError(f"grad_check: non-finite loss {loss0}")

    # A flat coordinate maps to (tensor, offset) through the cumulative sizes.
    names = list(base)
    sizes = np.array([base[name].size for name in names], dtype=np.int64)
    ends, total = np.cumsum(sizes), int(sizes.sum())
    if n_probes is not None and n_probes < total:
        rng = np.random.default_rng(seed)
        picked = np.sort(rng.choice(total, size=n_probes, replace=False))
    else:
        picked = np.arange(total)
    which = np.searchsorted(ends, picked, side="right")
    offsets = picked - (ends - sizes)[which]
    coords = [(names[w], int(i)) for w, i in zip(which, offsets)]

    max_rel = 0.0
    per_param: dict[str, float] = {name: 0.0 for name in base}
    for name, idx in coords:
        arr = base[name]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + epsilon
        lplus, _ = loss_fn(base)
        arr.flat[idx] = orig - epsilon
        lminus, _ = loss_fn(base)
        arr.flat[idx] = orig
        numeric = (lplus - lminus) / (2.0 * epsilon)
        analytic = float(grads[name].flat[idx]) if name in grads else 0.0
        rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        per_param[name] = max(per_param[name], rel)
        max_rel = max(max_rel, rel)
    return GradCheckReport(
        max_rel_err=max_rel,
        n_checked=len(coords),
        epsilon=epsilon,
        seed=seed,
        per_param=per_param,
    )
