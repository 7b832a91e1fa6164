"""Optimization over composition parameters, with frozen embeddings.

The encoder is never updated: training only adjusts the operator generator
(or the concat baseline's merge matrix) and, for the link-prediction task,
the learnable temperature. Gradients come from the reverse-mode graph in
``autodiff``; every run is a deterministic function of its seed.

File formats owned here:
  - similarity data: JSONL records {"sentence1", "sentence2", "condition",
    "label", "pair_id"};
  - triples: UTF-8 TSV ``head<TAB>relation<TAB>tail``;
  - run config: a JSON object mirroring TrainConfig field names.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .encoder import EmbeddingStore
from .errors import CondclError, ConfigError, FormatError, TrainingDivergedError
from .hypernet import (
    MODES,
    HyperNetParams,
    apply_operator,
    default_nk,
    dropout_mask,
    init_params,
    make_operator,
    save_checkpoint,
)
from .linalg import is_finite_real
from .losses import (
    CstsQuadruplet,
    KgBatchItem,
    KgTriple,
    LossConfig,
    TAU_FLOOR,
    TwinPair,
    assemble_negatives,
    cl_pair_term,
    kgc_term,
    mse_term,
    pair_twins,
    rescale_label,
)

__all__ = [
    "TrainConfig",
    "TrainReport",
    "Adam",
    "train",
    "fit",
    "make_loss_closure",
    "make_synthetic_csts",
    "make_synthetic_kg",
    "KgDataset",
    "split_csts_holdout",
    "load_csts_jsonl",
    "save_csts_jsonl",
    "load_kg_tsv",
    "save_kg_tsv",
]

TASKS = ("csts", "kgc")


@dataclass
class TrainConfig:
    task: str
    mode: str
    nh: int
    nk: int | None = None
    lr: float = 1e-3
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    dropout_p: float = 0.1
    zero_bias: bool = False

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.nh <= 0:
            raise ConfigError("nh must be positive")
        if self.mode == "lowrank" and self.nk is not None and not 1 <= self.nk <= self.nh:
            raise ConfigError("lowrank requires 1 <= nk <= nh")
        for name in ("lr", "eps", "weight_decay", "dropout_p"):
            if not is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if not (
            isinstance(self.betas, (tuple, list))
            and len(self.betas) == 2
            and all(is_finite_real(b) for b in self.betas)
        ):
            raise ConfigError("betas must be two finite numbers")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError("dropout_p must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        self.loss.validate()

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        loss_d = d.pop("loss", {})
        if not isinstance(loss_d, dict):
            raise ConfigError("'loss' must be an object")
        known_loss = {f for f in LossConfig.__dataclass_fields__}
        unknown = set(loss_d) - known_loss
        if unknown:
            raise ConfigError(f"unknown loss config keys: {sorted(unknown)}")
        known = {f for f in cls.__dataclass_fields__ if f != "loss"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        if "betas" in d:
            d["betas"] = tuple(d["betas"])
        try:
            cfg = cls(loss=LossConfig(**loss_d), **d)
        except TypeError as exc:
            raise ConfigError(f"bad train config: {exc}") from exc
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d

    @property
    def nk_effective(self) -> int | None:
        if self.mode != "lowrank":
            return None
        return self.nk if self.nk is not None else default_nk(self.nh)


@dataclass
class TrainReport:
    task: str
    mode: str
    nh: int
    nk: int | None
    seed: int
    epoch_losses: list[float]
    wall_time_s: float
    checkpoint_path: str | None = None

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["final_loss"] = self.final_loss
        return d


class Adam:
    """Adam with decoupled weight decay; decay skips names in decay_exempt."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decay_exempt: tuple[str, ...] = (),
    ):
        self.params = params
        self.lr = float(lr)
        self.b1, self.b2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.decay_exempt = set(decay_exempt)
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            if self.weight_decay and name not in self.decay_exempt:
                p -= (self.lr * self.weight_decay) * p
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# -- loss closures ------------------------------------------------------------

LossClosure = Callable[..., tuple[float, dict[str, np.ndarray]]]


def _grads_from_leaves(leaves: dict[str, ad.Tensor], arrays: dict[str, np.ndarray]):
    return {
        k: (leaves[k].grad if leaves[k].grad is not None else np.zeros_like(arrays[k]))
        for k in arrays
    }


def _csts_closure(
    batch: Sequence[TwinPair],
    emb: dict[str, np.ndarray],
    cfg: TrainConfig,
    masks: list[dict[str, np.ndarray]] | None,
) -> LossClosure:
    mode, nh, nk = cfg.mode, cfg.nh, cfg.nk_effective
    tau = cfg.loss.tau_csts
    conds = sorted({q.c for tp in batch for q in (tp.high, tp.low)})

    def fn(arrays, components_out=None):
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        ops = {c: make_operator(mode, leaves, emb[c], nh, nk) for c in conds}

        def side(cond_text, sent_text, mask):
            return apply_operator(ops[cond_text], emb[sent_text], mask)

        mse_sum = 0.0
        cl_sum = 0.0
        terms = []
        for i, tp in enumerate(batch):
            m = masks[i] if masks is not None else {}
            a_hi = side(tp.high.c, tp.high.s1, m.get("s1_hi"))
            b_hi = side(tp.high.c, tp.high.s2, m.get("s2_hi"))
            a_lo = side(tp.low.c, tp.low.s1, m.get("s1_lo"))
            b_lo = side(tp.low.c, tp.low.s2, m.get("s2_lo"))
            phi_hi = ad.cosine(a_hi, b_hi)
            phi_lo = ad.cosine(a_lo, b_lo)
            mse = mse_term(phi_hi, rescale_label(tp.high.y)) + mse_term(
                phi_lo, rescale_label(tp.low.y)
            )
            cl = cl_pair_term(phi_hi, phi_lo, tau)
            mse_sum += mse.item()
            cl_sum += cl.item()
            terms.append(mse + cl)
        total = ad.add_n(terms) * (1.0 / len(terms))
        total.backward()
        if components_out is not None:
            components_out["mse"] = mse_sum / len(terms)
            components_out["cl"] = cl_sum / len(terms)
        return total.item(), _grads_from_leaves(leaves, arrays)

    return fn


def _kgc_closure(
    batch: Sequence[KgBatchItem],
    emb: dict[str, np.ndarray],
    cfg: TrainConfig,
    prebatch_snapshot: list,
    masks: list[np.ndarray | None] | None,
) -> LossClosure:
    mode, nh, nk = cfg.mode, cfg.nh, cfg.nk_effective
    gamma = cfg.loss.gamma
    relations = sorted({item.triple.r for item in batch})
    negatives = [
        assemble_negatives(batch, i, cfg.loss, prebatch_snapshot) for i in range(len(batch))
    ]
    for i, negs in enumerate(negatives):
        if not negs:
            raise ValueError(
                f"no negatives available for triple {batch[i].triple}; "
                "enable self/pre-batch negatives or grow the batch"
            )

    def fn(arrays, components_out=None):
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        tau = leaves.get("tau_kgc", ad.constant(cfg.loss.tau_kgc))
        ops = {r: make_operator(mode, leaves, emb[r], nh, nk) for r in relations}

        terms = []
        for i, item in enumerate(batch):
            mask = masks[i] if masks is not None else None
            hhr = apply_operator(ops[item.triple.r], item.h_head, mask)
            pos = ad.cosine(hhr, ad.constant(item.h_tail))
            negs = [ad.cosine(hhr, ad.constant(v)) for v in negatives[i]]
            terms.append(kgc_term(pos, negs, gamma, tau))
        total = ad.add_n(terms) * (1.0 / len(terms))
        total.backward()
        if components_out is not None:
            components_out["cl"] = total.item()
        return total.item(), _grads_from_leaves(leaves, arrays)

    return fn


def make_loss_closure(
    cfg: TrainConfig,
    batch,
    provider,
    prebatch: list | None = None,
) -> LossClosure:
    """Deterministic loss-and-gradient closure over one fixed batch.

    For the similarity task the batch is a list of TwinPair; for link
    prediction a list of KgTriple. Dropout is disabled here so repeated
    evaluations (as in finite differencing) see an identical function.
    """
    cfg.validate()
    emb = _embedding_table(cfg.task, batch, provider)
    if cfg.task == "csts":
        return _csts_closure(batch, emb, cfg, masks=None)
    items = [KgBatchItem(triple=t, h_head=emb[t.h], h_tail=emb[t.t]) for t in batch]
    return _kgc_closure(items, emb, cfg, prebatch_snapshot=list(prebatch or []), masks=None)


def initial_arrays(cfg: TrainConfig) -> tuple[HyperNetParams, dict[str, np.ndarray]]:
    """Seeded parameters plus the flat learnable-array dict used by training."""
    params = init_params(
        cfg.mode,
        cfg.nh,
        cfg.nk_effective,
        seed=cfg.seed,
        dropout_p=cfg.dropout_p,
        zero_bias=cfg.zero_bias,
    )
    arrays = dict(params.tensors())
    if cfg.task == "kgc":
        arrays["tau_kgc"] = np.array(cfg.loss.tau_kgc, dtype=np.float64)
    return params, arrays


def _embedding_table(task: str, instances, provider) -> dict[str, np.ndarray]:
    """Every text of the TwinPairs (csts) or KgTriples (kgc), embedded once."""
    emb: dict[str, np.ndarray] = {}
    for x in instances:
        texts = (x.high.s1, x.high.s2, x.high.c, x.low.c) if task == "csts" else (x.h, x.r, x.t)
        for text in texts:
            if text not in emb:
                emb[text] = provider.embed(text)
    return emb


def train(cfg: TrainConfig, data, provider, checkpoint_path: str | None = None) -> TrainReport:
    """Run the optimization loop; returns per-epoch mean losses.

    ``data`` is a list of CstsQuadruplet (twins resolved internally, both
    twins always share a batch) or a list of KgTriple. The provider is
    read-only throughout. Aborts with TrainingDivergedError, naming the epoch
    and batch, on a non-finite or undefined loss.
    """
    _, _, report = fit(cfg, data, provider, checkpoint_path)
    return report


def fit(
    cfg: TrainConfig, data, provider, checkpoint_path: str | None = None
) -> tuple[HyperNetParams, dict[str, np.ndarray], TrainReport]:
    """Like train(), but also returns the trained params and extra tensors."""
    cfg.validate()
    if not data:
        raise CondclError("train: empty dataset")
    if provider.dim != cfg.nh:
        raise CondclError(f"provider dim {provider.dim} != configured nh {cfg.nh}")

    t0 = time.perf_counter()
    params, arrays = initial_arrays(cfg)
    trainable = cfg.mode != "hadamard"
    opt = Adam(
        arrays,
        lr=cfg.lr,
        betas=cfg.betas,
        eps=cfg.eps,
        weight_decay=cfg.weight_decay,
        decay_exempt=("tau_kgc",),
    )
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    dropout_rng = np.random.default_rng([cfg.seed, 2])

    instances = pair_twins(data) if cfg.task == "csts" else list(data)
    emb = _embedding_table(cfg.task, instances, provider)

    use_dropout = cfg.mode == "concat" and cfg.dropout_p > 0.0
    prebatch: deque = deque(maxlen=max(cfg.loss.prebatch_size, 1))

    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(instances))
        total = 0.0
        seen = 0
        prebatch.clear()
        for start in range(0, len(order), cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            batch = [instances[i] for i in chunk]
            if cfg.task == "csts":
                masks = None
                if use_dropout:
                    masks = [
                        {
                            key: dropout_mask(dropout_rng, 2 * cfg.nh, cfg.dropout_p)
                            for key in ("s1_hi", "s2_hi", "s1_lo", "s2_lo")
                        }
                        for _ in batch
                    ]
                fn = _csts_closure(batch, emb, cfg, masks)
            else:
                items = [
                    KgBatchItem(triple=t, h_head=emb[t.h], h_tail=emb[t.t]) for t in batch
                ]
                masks = None
                if use_dropout:
                    masks = [dropout_mask(dropout_rng, 2 * cfg.nh, cfg.dropout_p) for _ in batch]
                fn = _kgc_closure(items, emb, cfg, list(prebatch), masks)
            components: dict[str, float] = {}
            where = f"epoch {epoch} batch {start // cfg.batch_size}"
            try:
                loss, grads = fn(arrays, components)
            except ValueError as exc:
                # A degenerate value inside the loss, such as a zero-norm projection.
                raise TrainingDivergedError(f"loss undefined at {where}: {exc}") from exc
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at {where}: loss={loss} components={components}"
                )
            if trainable:
                opt.step(grads)
                if "tau_kgc" in arrays:
                    np.maximum(arrays["tau_kgc"], TAU_FLOOR, out=arrays["tau_kgc"])
            total += loss * len(batch)
            seen += len(batch)
            if cfg.task == "kgc" and cfg.loss.use_prebatch_neg and cfg.loss.prebatch_size > 0:
                prebatch.append([(t.t, emb[t.t]) for t in batch])
        epoch_losses.append(total / seen)

    extras = {"tau_kgc": arrays["tau_kgc"]} if "tau_kgc" in arrays else {}
    saved_path = None
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, params, extras or None)
        saved_path = str(checkpoint_path)
    report = TrainReport(
        task=cfg.task,
        mode=cfg.mode,
        nh=cfg.nh,
        nk=cfg.nk_effective,
        seed=cfg.seed,
        epoch_losses=epoch_losses,
        wall_time_s=time.perf_counter() - t0,
        checkpoint_path=saved_path,
    )
    return params, extras, report


# -- synthetic datasets --------------------------------------------------------


def make_synthetic_csts(
    n_pairs: int, n_conditions: int, nh: int, seed: int
) -> tuple[list[CstsQuadruplet], EmbeddingStore]:
    """Block-structured similarity data with twin contrasting conditions.

    Each condition owns one contiguous block of the embedding; the label of
    (s1, s2, c_k) is the cosine of block k mapped onto [1, 5]. The twins of
    a pair are the conditions with the largest and smallest block cosines,
    so y_high >= y_low always holds. Condition embeddings are random unit
    vectors, deliberately unrelated to the block layout: recovering the
    block structure from them is the learning problem.
    """
    if n_pairs <= 0 or n_conditions <= 1:
        raise ValueError("need n_pairs >= 1 and n_conditions >= 2")
    if nh % n_conditions != 0:
        raise ValueError(f"nh={nh} must be divisible by n_conditions={n_conditions}")
    block = nh // n_conditions
    rng = np.random.default_rng(seed)

    def unit(v):
        return v / np.linalg.norm(v)

    store = EmbeddingStore(nh)
    cond_texts = [f"cond-{k:02d}" for k in range(n_conditions)]
    for ct in cond_texts:
        store.add(ct, unit(rng.normal(size=nh)))

    quads: list[CstsQuadruplet] = []
    for i in range(n_pairs):
        s1, s2 = f"sent-{i:05d}-a", f"sent-{i:05d}-b"
        v1 = unit(rng.normal(size=nh))
        v2 = unit(rng.normal(size=nh))
        store.add(s1, v1)
        store.add(s2, v2)
        cosines = []
        for k in range(n_conditions):
            a = v1[k * block : (k + 1) * block]
            b = v2[k * block : (k + 1) * block]
            denom = np.linalg.norm(a) * np.linalg.norm(b)
            cosines.append(float(np.clip(a @ b / denom, -1.0, 1.0)))
        k_hi = int(np.argmax(cosines))
        k_lo = int(np.argmin(cosines))
        quads.append(
            CstsQuadruplet(s1, s2, cond_texts[k_hi], 3.0 + 2.0 * cosines[k_hi], pair_id=i)
        )
        quads.append(
            CstsQuadruplet(s1, s2, cond_texts[k_lo], 3.0 + 2.0 * cosines[k_lo], pair_id=i)
        )
    return quads, store


@dataclass
class KgDataset:
    train: list[KgTriple]
    valid: list[KgTriple]
    test: list[KgTriple]
    entities: list[str]
    relations: list[str]
    # Ground-truth relation maps kept for verification of the generator only;
    # nothing in training or evaluation may read these.
    generator_maps: dict[str, np.ndarray] = field(default_factory=dict)

    def all_triples(self) -> list[KgTriple]:
        return self.train + self.valid + self.test


def make_synthetic_kg(
    n_entities: int, n_relations: int, nh: int, seed: int
) -> tuple[KgDataset, EmbeddingStore]:
    """Link-prediction data driven by per-relation orthogonal maps.

    Each relation r carries a random orthogonal matrix Q_r over the shared
    embedding space. Head entities come in small clusters around random
    unit centers; for sampled (cluster, relation) links a fresh tail entity
    is planted near the rotated center Q_r c, so every member of the
    cluster scores highly against that tail. The triple set is then the
    full scan of all (h, r, t) combinations whose generating score
    cos(Q_r z_h, z_t) exceeds 0.9, restricted per (h, r) to the argmax
    tail, so every gold tail is top-1 under the generating scoring.
    Splits are 8:1:1 over distinct triples; cluster siblings of a held-out
    triple typically remain in train, which is what makes the task
    learnable at this scale.
    """
    if n_entities < 4 or n_relations < 2:
        raise ValueError("need n_entities >= 4 and n_relations >= 2")
    rng = np.random.default_rng(seed)

    def unit(v):
        return v / np.linalg.norm(v)

    def jitter(center, magnitude):
        g = rng.normal(size=nh)
        return unit(center + magnitude * unit(g - (g @ center) * center))

    def random_orthogonal(n):
        q, r = np.linalg.qr(rng.normal(size=(n, n)))
        return q * np.sign(np.diag(r))

    relations = [f"rel-{j:02d}" for j in range(n_relations)]
    maps = {rt: random_orthogonal(nh) for rt in relations}

    # Entity budget: roughly one planted tail per six entities; remaining
    # entities are clustered heads (about four members per cluster). Most
    # tails are cross-wired: the tail of (cluster i, r) is also the target
    # of (cluster j, r') where cluster j's center is the pullback of the
    # tail under r'. Such crossings cannot be resolved by scoring head and
    # relation additively, which is what separates the operator model from
    # the concatenation baseline here.
    n_tails = max(n_relations, n_entities // 6)
    n_heads = n_entities - n_tails
    n_clusters = max(2, n_heads // 4)
    n_seed_clusters = max(1, n_clusters // 3)
    member_spread = 0.15
    tail_spread = 0.10
    cross_fraction = 0.8

    centers: list[np.ndarray] = [unit(rng.normal(size=nh)) for _ in range(n_seed_clusters)]
    tail_latents: list[np.ndarray] = []
    links: set[tuple[int, str]] = set()
    for ti in range(n_tails):
        rt = relations[ti % n_relations]  # guarantees coverage of every relation
        for _ in range(64):
            cluster = int(rng.integers(0, len(centers)))
            if (cluster, rt) not in links:
                break
        t_latent = jitter(maps[rt] @ centers[cluster], tail_spread)
        tail_latents.append(t_latent)
        links.add((cluster, rt))
        if len(centers) < n_clusters and rng.random() < cross_fraction:
            rt2 = relations[int(rng.integers(0, n_relations - 1))]
            if rt2 == rt:
                rt2 = relations[n_relations - 1]
            centers.append(unit(maps[rt2].T @ t_latent))
            links.add((len(centers) - 1, rt2))
    while len(centers) < n_clusters:
        centers.append(unit(rng.normal(size=nh)))

    latents = np.zeros((n_entities, nh))
    for e in range(n_heads):
        latents[e] = jitter(centers[e % n_clusters], member_spread)
    for ti, t_latent in enumerate(tail_latents):
        latents[n_heads + ti] = t_latent

    entities = [f"ent-{i:04d}" for i in range(n_entities)]
    store = EmbeddingStore(nh)
    for i, et in enumerate(entities):
        store.add(et, latents[i])
    for rt in relations:
        store.add(rt, unit(rng.normal(size=nh)))

    threshold = 0.9
    triples: list[KgTriple] = []
    for rt in relations:
        scores = (latents @ maps[rt].T) @ latents.T  # scores[h, t] = cos(Q_r z_h, z_t)
        np.fill_diagonal(scores, -np.inf)
        best = np.argmax(scores, axis=1)
        for h in range(n_entities):
            t = int(best[h])
            if scores[h, t] > threshold:
                triples.append(KgTriple(entities[h], rt, entities[t]))

    per_relation = {rt: 0 for rt in relations}
    for tr in triples:
        per_relation[tr.r] += 1
    if any(count == 0 for count in per_relation.values()):
        raise CondclError(f"degenerate graph: relations without triples: {per_relation}")

    order = rng.permutation(len(triples))
    shuffled = [triples[i] for i in order]
    n = len(shuffled)
    n_train = int(round(0.8 * n))
    n_valid = int(round(0.1 * n))
    train_t = shuffled[:n_train]
    valid_t = shuffled[n_train : n_train + n_valid]
    test_t = shuffled[n_train + n_valid :]
    if not train_t or not valid_t or not test_t:
        raise CondclError(f"degenerate graph: empty split from {n} triples")
    train_set = set(train_t)
    if any(t in train_set for t in test_t):
        raise CondclError("split invariant violated: test triple present in train")
    return (
        KgDataset(
            train=train_t,
            valid=valid_t,
            test=test_t,
            entities=entities,
            relations=relations,
            generator_maps=maps,
        ),
        store,
    )


def split_csts_holdout(
    quads: Sequence[CstsQuadruplet], train_fraction: float = 0.8
) -> tuple[list[CstsQuadruplet], list[CstsQuadruplet]]:
    """Split by pair (twins stay together), first fraction of pairs to train."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    seen: list[int] = []
    for q in quads:
        if q.pair_id not in seen:
            seen.append(q.pair_id)
    cut = int(round(train_fraction * len(seen)))
    train_ids = set(seen[:cut])
    train = [q for q in quads if q.pair_id in train_ids]
    held = [q for q in quads if q.pair_id not in train_ids]
    return train, held


# -- file formats ---------------------------------------------------------------


def load_csts_jsonl(path: str | Path) -> list[CstsQuadruplet]:
    path = Path(path)
    out: list[CstsQuadruplet] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                quad = CstsQuadruplet(
                    s1=rec["sentence1"],
                    s2=rec["sentence2"],
                    c=rec["condition"],
                    y=float(rec["label"]),
                    pair_id=int(rec["pair_id"]),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if not np.isfinite(quad.y):
                raise FormatError(f"{path}:{lineno}: non-finite label")
            out.append(quad)
    if not out:
        raise FormatError(f"{path}: no records found")
    return out


def save_csts_jsonl(quads: Sequence[CstsQuadruplet], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for q in quads:
            fh.write(
                json.dumps(
                    {
                        "sentence1": q.s1,
                        "sentence2": q.s2,
                        "condition": q.c,
                        "label": q.y,
                        "pair_id": q.pair_id,
                    }
                )
                + "\n"
            )


def load_kg_tsv(path: str | Path) -> list[KgTriple]:
    path = Path(path)
    out: list[KgTriple] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(parts):
                raise FormatError(f"{path}:{lineno}: expected head<TAB>relation<TAB>tail")
            out.append(KgTriple(*parts))
    if not out:
        raise FormatError(f"{path}: no triples found")
    return out


def save_kg_tsv(triples: Sequence[KgTriple], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(f"{t.h}\t{t.r}\t{t.t}\n")
