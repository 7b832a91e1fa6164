"""Training objectives with analytic gradients.

Two loss families: a similarity-regression task over sentence pairs whose
instances carry twin contrasting conditions (an InfoNCE term over the twin
pair plus squared-error terms against labels), and a link-prediction task
over (head, relation, tail) triples (InfoNCE with an additive margin and a
pool of negative tails).

Every loss is evaluated through the autodiff graph, so the public float
functions and the gradients used in training share one formula. The
gradient checker compares those analytic gradients against central finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .errors import CondclError, DimensionMismatchError
from .linalg import as_vector, is_finite_real

__all__ = [
    "CstsQuadruplet",
    "KgTriple",
    "LossConfig",
    "TwinPair",
    "TwinEmbeddings",
    "KgBatchItem",
    "LABEL_LOW",
    "LABEL_HIGH",
    "rescale_label",
    "similarity_to_label",
    "pair_twins",
    "loss_csts_cl",
    "loss_csts_mse",
    "loss_csts_total",
    "loss_kgc",
    "assemble_negatives",
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
                raise ValueError(f"{name} must be a finite number")
        if self.tau_csts <= 0:
            raise ValueError("tau_csts must be positive")
        if self.tau_kgc < TAU_FLOOR:
            raise ValueError(f"tau_kgc must be >= {TAU_FLOOR}")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.prebatch_size < 0:
            raise ValueError("prebatch_size must be >= 0")


@dataclass(frozen=True)
class TwinPair:
    """The two records of one instance: contrasting conditions, same pair."""

    high: CstsQuadruplet
    low: CstsQuadruplet


@dataclass
class TwinEmbeddings:
    """Projected embeddings plus labels for both twins of one instance."""

    h1_high: np.ndarray
    h2_high: np.ndarray
    h1_low: np.ndarray
    h2_low: np.ndarray
    y_high: float
    y_low: float


@dataclass
class KgBatchItem:
    triple: KgTriple
    h_head: np.ndarray
    h_tail: np.ndarray


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


# -- graph-level loss terms (shared by float API and trainer) ---------------


def cl_pair_term(phi_hi, phi_lo, tau):
    """-log softmax of the high twin against the low twin, at temperature tau."""
    s_hi = phi_hi / tau
    s_lo = phi_lo / tau
    return ad.logsumexp([s_hi, s_lo]) - s_hi


def mse_term(phi, y01: float):
    d = phi - y01
    return d * d


def kgc_term(phi_pos, phi_negs: list, gamma: float, tau):
    s_pos = (phi_pos - gamma) / tau
    scores = [s_pos] + [p / tau for p in phi_negs]
    return ad.logsumexp(scores) - s_pos


def _cos(a, b):
    return ad.cosine(ad.constant(as_vector(a)), ad.constant(as_vector(b)))


# -- public float API --------------------------------------------------------


def loss_csts_cl(h1_hi, h2_hi, h1_lo, h2_lo, tau: float) -> float:
    """Twin-pair InfoNCE on projected embeddings; ln 2 when the twins tie."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return cl_pair_term(_cos(h1_hi, h2_hi), _cos(h1_lo, h2_lo), tau).item()


def loss_csts_mse(h1c, h2c, y: float) -> float:
    """Squared error between the pair's cosine and the target value."""
    return mse_term(_cos(h1c, h2c), float(y)).item()


def loss_csts_total(batch: Sequence[TwinEmbeddings], cfg: LossConfig) -> float:
    """Mean over instances of both twins' squared errors plus the twin InfoNCE.

    Labels are given in the native range and rescaled internally.
    """
    cfg.validate()
    if not batch:
        raise ValueError("empty batch")
    total = 0.0
    for item in batch:
        phi_hi = _cos(item.h1_high, item.h2_high)
        phi_lo = _cos(item.h1_low, item.h2_low)
        mse = mse_term(phi_hi, rescale_label(item.y_high)) + mse_term(
            phi_lo, rescale_label(item.y_low)
        )
        total += (mse + cl_pair_term(phi_hi, phi_lo, cfg.tau_csts)).item()
    return total / len(batch)


def loss_kgc(h_hr, h_t, negatives: Sequence, gamma: float, tau: float) -> float:
    """Margin InfoNCE of a projected head against its tail and negatives."""
    if tau < TAU_FLOOR:
        raise ValueError(f"tau must be >= {TAU_FLOOR}")
    if len(negatives) == 0:
        raise ValueError("loss_kgc needs at least one negative")
    hr = ad.constant(as_vector(h_hr))
    pos = ad.cosine(hr, ad.constant(as_vector(h_t)))
    negs = [ad.cosine(hr, ad.constant(as_vector(n))) for n in negatives]
    return kgc_term(pos, negs, gamma, tau).item()


def assemble_negatives(
    batch: Sequence[KgBatchItem],
    index: int,
    cfg: LossConfig,
    prebatch_queue: Iterable[Sequence[tuple[str, np.ndarray]]] = (),
) -> list[np.ndarray]:
    """Collect negative tail embeddings for one batch item.

    In-batch negatives are the other items' tails; the self-negative is the
    item's own head embedding; pre-batch negatives come from previously
    completed batches. Any candidate whose source text equals the gold tail
    text is excluded.
    """
    if not batch:
        raise ValueError("empty batch")
    gold = batch[index].triple.t
    negs: list[np.ndarray] = []
    for j, other in enumerate(batch):
        if j == index or other.triple.t == gold:
            continue
        negs.append(other.h_tail)
    if cfg.use_self_neg and batch[index].triple.h != gold:
        negs.append(batch[index].h_head)
    if cfg.use_prebatch_neg:
        for past in prebatch_queue:
            for text, vec in past:
                if text != gold:
                    negs.append(vec)
    return negs


# -- gradient checking -------------------------------------------------------

LossFn = Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]]


@dataclass
class GradCheckReport:
    max_rel_err: float
    n_checked: int
    epsilon: float
    seed: int
    per_param: dict[str, float] = field(default_factory=dict)

    def passed(self, threshold: float = 1e-4) -> bool:
        return self.max_rel_err < threshold


def grad_check(
    loss_fn: LossFn,
    params: dict[str, np.ndarray],
    epsilon: float = 1e-5,
    n_probes: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn maps a parameter dict to (loss, gradient dict). With
    n_probes=None every learnable scalar is probed; otherwise n_probes
    coordinates are sampled without replacement from a seeded stream.
    Relative error per coordinate is |a - n| / max(1, |a|, |n|).
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    loss0, grads = loss_fn(base)
    if not np.isfinite(loss0):
        raise CondclError(f"grad_check: non-finite loss {loss0}")

    coords: list[tuple[str, int]] = []
    for name in base:
        coords.extend((name, i) for i in range(base[name].size))
    if n_probes is not None and n_probes < len(coords):
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(coords), size=n_probes, replace=False)
        coords = [coords[i] for i in sorted(picked)]

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
