"""Optimization over composition parameters, with frozen embeddings.

The encoder is never updated: training only adjusts the operator generator
(or the concat baseline's merge matrix) and, for the link-prediction task,
the learnable temperature. Gradients come from the reverse-mode graph in
``autodiff``; every run is a deterministic function of its seed.

A batch is one matrix graph, built by one function, ``_batch_closure``, for
both ``fit`` and ``make_loss_closure``: its rows are grouped by condition, one
``generate_stack`` (the formula inference uses) makes the operators of its
conditions, ``apply_stack`` projects each group through its operator, and
``losses.csts_loss`` or ``losses.kgc_loss`` scores the (B, nh) projections as
one node, with one backward pass and one ``Adam.step`` (over cache-sized
chunks) per batch. Only the learnable arrays are graph leaves, so a loss that
reads none (hadamard similarity) is a plain value and runs no backward pass.
The pre-batch window of a link-prediction batch is the tails of the last
``loss.prebatch_size`` batches of the epoch (none when it is 0).

File formats owned here:
  - similarity data: JSONL records of strings "sentence1", "sentence2" and
    "condition", a finite number "label" and an integer "pair_id";
  - triples: UTF-8 TSV ``head<TAB>relation<TAB>tail``;
  - run config: a JSON object mirroring TrainConfig field names.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .encoder import EmbeddingStore, text_lines
from .errors import CondclError, ConfigError, FormatError, TrainingDivergedError
from .hypernet import (
    DEFAULT_DROPOUT_P,
    HyperNetParams,
    apply_stack,
    dropout_mask,
    generate_stack,
    generator_problem,
    init_params,
    save_checkpoint,
)
from .linalg import is_finite_real, is_integer
from .losses import (
    CstsQuadruplet,
    KgTriple,
    LossConfig,
    TAU_FLOOR,
    csts_loss,
    kgc_candidates,
    kgc_loss,
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
ADAM_CHUNK = 32768  # values per Adam slice: the slices of p, m, v, g and scratch fit in L2


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
    dropout_p: float = DEFAULT_DROPOUT_P
    zero_bias: bool = False  # start the generator's biases at zero; they stay learnable

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        problem = generator_problem(self.mode, self.nh, self.nk, self.dropout_p)
        if problem is not None:
            raise ConfigError(problem)
        for name in ("epochs", "batch_size", "seed"):
            if not is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("lr", "eps", "weight_decay"):
            if not is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if not (
            isinstance(self.betas, (tuple, list))
            and len(self.betas) == 2
            and all(is_finite_real(b) and 0.0 <= b < 1.0 for b in self.betas)
        ):
            raise ConfigError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
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


@dataclass
class TrainReport:
    task: str
    mode: str
    nh: int
    nk: int | None
    seed: int
    epoch_losses: list[float]
    # Per-epoch means of the loss terms: mse and cl (similarity), cl (link prediction).
    epoch_components: list[dict[str, float]]
    # Training examples (twin instances or triples) per second of the epoch loop.
    examples_per_s: float
    # Per-epoch seconds: "graph" (each batch up to its gradients) and "step" (Adam).
    epoch_stage_s: list[dict[str, float]]
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
    """Adam with decoupled weight decay; decay skips the temperature tau_kgc."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        betas: tuple[float, float] = TrainConfig.betas,
        eps: float = TrainConfig.eps,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = float(lr)
        self.b1, self.b2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        if not all(v.flags.c_contiguous for v in params.values()):
            raise ValueError("Adam updates parameters in place and needs C-contiguous arrays")
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self._scratch = np.empty((2, ADAM_CHUNK))

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update over contiguous ADAM_CHUNK slices: p -= lr_t * m / (sqrt(v) + eps_t),
        with the bias corrections folded into lr_t = lr * sqrt(bc2) / bc1 and
        eps_t = eps * sqrt(bc2) (Kingma & Ba 2015, section 2)."""
        self.t += 1
        sqrt_bc2 = math.sqrt(1.0 - self.b2**self.t)
        lr_t = self.lr * sqrt_bc2 / (1.0 - self.b1**self.t)
        eps_t = self.eps * sqrt_bc2
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                continue
            decay = self.weight_decay and name != "tau_kgc"
            flat = [a.reshape(-1) for a in (p, self.m[name], self.v[name], np.asarray(g))]
            for i in range(0, p.size, ADAM_CHUNK):
                pc, mc, vc, gc = (a[i : i + ADAM_CHUNK] for a in flat)
                tmp, tmp2 = self._scratch[:, : pc.size]
                mc *= self.b1
                mc += np.multiply(1.0 - self.b1, gc, out=tmp)
                vc *= self.b2
                np.multiply(gc, gc, out=tmp)
                tmp *= 1.0 - self.b2
                vc += tmp
                if decay:
                    pc -= np.multiply(self.lr * self.weight_decay, pc, out=tmp)
                step = np.sqrt(vc, out=tmp)
                step += eps_t
                pc -= np.divide(np.multiply(lr_t, mc, out=tmp2), step, out=step)


# -- loss closures ------------------------------------------------------------

LossClosure = Callable[..., tuple[float, dict[str, np.ndarray]]]


def _closure(loss_of) -> LossClosure:
    """The loss-and-gradient closure of ``loss_of(leaves) -> (loss, components)``;
    a learnable array the loss does not read gets a zero gradient."""

    def fn(arrays, components_out=None):
        leaves = {k: ad.leaf(v) for k, v in arrays.items()}
        total, components = loss_of(leaves)
        if isinstance(total, ad.Tensor):  # a loss that reads no leaf (hadamard csts) is a value
            total.backward()
        if components_out is not None:
            components_out.update(components)
        grads = {k: leaves[k].grad for k in arrays}
        unused = {k: np.zeros_like(v) for k, v in arrays.items() if grads[k] is None}
        return total.item(), {**grads, **unused}

    return fn


def _grouped(conds: np.ndarray, rows: np.ndarray, masks: np.ndarray | None, E, cfg):
    """Group rows by condition (row ids of E) in first-seen order: (projected,
    where), where ``projected(leaves)`` is the grouped rows through one stack of
    their conditions' operators and ``where`` the position of each input row in it."""
    _, first, inverse = np.unique(conds, return_index=True, return_inverse=True)
    order = np.argsort(first[inverse], kind="stable")
    conds = conds[order]
    starts = np.flatnonzero(np.diff(conds, prepend=-1))  # row ids are >= 0
    bounds = np.append(starts, len(conds))
    H, rows = E[conds[starts]], E[rows[order]]
    masks = None if masks is None else masks[order]

    def projected(leaves):
        op = generate_stack(cfg.mode, leaves, H)
        return apply_stack(op, rows, bounds, masks)

    return projected, np.argsort(order)


def _batch_closure(cfg: TrainConfig, batch, ids, E, past=(), rng=None) -> LossClosure:
    """The one batch builder, of ``fit`` and ``make_loss_closure``: the loss closure of
    ``batch``, TwinPairs (csts: rows s1_hi, s2_hi, s1_lo, s2_lo each) or KgTriples (kgc:
    each head through its relation), with ``ids`` their texts as rows of E. ``past``
    is the pre-batch window, the tail rows of earlier batches (kgc only); ``rng``, if
    given, draws the concat dropout masks, one (rows, 2nh) draw in row order."""
    csts = cfg.task == "csts"
    conds = np.repeat(ids[:, 2:], 2, axis=1).ravel() if csts else ids[:, 1]
    sents = np.tile(ids[:, :2], 2).ravel() if csts else ids[:, 0]
    use_dropout = rng is not None and cfg.mode == "concat" and cfg.dropout_p > 0.0
    masks = dropout_mask(rng, (len(sents), 2 * cfg.nh), cfg.dropout_p) if use_dropout else None
    projected, where = _grouped(conds, sents, masks, E, cfg)
    if csts:
        y01 = np.array([[rescale_label(tp.high.y), rescale_label(tp.low.y)] for tp in batch])

        def loss_of(leaves):
            rows = projected(leaves)
            left, right = (ad.take_rows(rows, where[k::2]) for k in (0, 1))
            total, mse, cl = csts_loss(left, right, y01, cfg.loss.tau_csts)
            return total, {"mse": float(mse.mean()), "cl": float(cl.mean())}

    else:
        past = np.concatenate([np.empty(0, dtype=np.intp), *past])
        cand_ids, neg_mask = kgc_candidates(batch, ids, cfg.loss, past)
        cands = E[cand_ids]

        def loss_of(leaves):
            tau = leaves.get("tau_kgc", cfg.loss.tau_kgc)
            q = ad.take_rows(projected(leaves), where)
            total = kgc_loss(q, cands, neg_mask, cfg.loss.gamma, tau)
            return total, {"cl": total.item()}

    return _closure(loss_of)


def make_loss_closure(
    cfg: TrainConfig, batch, provider, prebatch: list | None = None
) -> LossClosure:
    """Deterministic loss-and-gradient closure over one fixed batch, built by
    ``_batch_closure`` as ``fit`` builds its batches.

    For the similarity task the batch is a list of TwinPair; for link
    prediction a list of KgTriple, and ``prebatch`` a list of past batches,
    oldest first, each a list of (tail text, tail embedding); as in training,
    only the last ``cfg.loss.prebatch_size`` of them are the pre-batch window,
    and a text the batch also holds keeps the provider's embedding. Dropout is
    disabled here so repeated evaluations (as in finite differencing) see an
    identical function.
    """
    cfg.validate()
    if not batch:
        raise ValueError("make_loss_closure: the batch is empty")
    window = deque(prebatch or (), maxlen=cfg.loss.prebatch_size)
    ids, E, row_of = _embedding_matrix(cfg.task, batch, provider, [p for c in window for p in c])
    past = [np.array([row_of[text] for text, _ in chunk], dtype=np.intp) for chunk in window]
    return _batch_closure(cfg, batch, ids, E, past)


def initial_arrays(cfg: TrainConfig) -> tuple[HyperNetParams, dict[str, np.ndarray]]:
    """Seeded parameters plus the flat learnable-array dict used by training."""
    params = init_params(
        cfg.mode,
        cfg.nh,
        cfg.nk,
        seed=cfg.seed,
        dropout_p=cfg.dropout_p,
        zero_bias=cfg.zero_bias,
    )
    arrays = dict(params.tensors)
    if cfg.task == "kgc":
        arrays["tau_kgc"] = np.array(cfg.loss.tau_kgc, dtype=np.float64)
    return params, arrays


def _embedding_matrix(task: str, instances, provider, given=()):
    """Every text of the TwinPairs (csts) or KgTriples (kgc) embedded once.

    Returns (ids, E, row_of): E (T, nh) holds one row per distinct text, in
    first-seen order, then the (text, vector) pairs of ``given`` whose text is
    new; ``row_of`` maps each text to its row; ``ids`` holds each instance's
    texts as rows: (N, 4) s1, s2, c_high, c_low, or (N, 3) h, r, t.
    """

    def texts(x):
        return (x.high.s1, x.high.s2, x.high.c, x.low.c) if task == "csts" else (x.h, x.r, x.t)

    row_of: dict[str, int] = {}
    ids = [[row_of.setdefault(t, len(row_of)) for t in texts(x)] for x in instances]
    ids = np.array(ids, dtype=np.intp).reshape(len(instances), 4 if task == "csts" else 3)
    vectors = [provider.embed(text) for text in row_of]
    for text, vec in given:
        if text not in row_of:
            row_of[text] = len(vectors)
            vectors.append(vec)
    return ids, np.array(vectors, dtype=np.float64), row_of


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
    opt = Adam(
        arrays,
        lr=cfg.lr,
        betas=cfg.betas,
        eps=cfg.eps,
        weight_decay=cfg.weight_decay,
    )
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    dropout_rng = np.random.default_rng([cfg.seed, 2])

    instances = pair_twins(data) if cfg.task == "csts" else list(data)
    ids, E, _ = _embedding_matrix(cfg.task, instances, provider)
    past: deque = deque(maxlen=cfg.loss.prebatch_size)  # the pre-batch window

    epoch_losses: list[float] = []
    epoch_components: list[dict[str, float]] = []
    epoch_stage_s: list[dict[str, float]] = []
    t_loop = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(instances))
        sums: dict[str, float] = {}  # the loss and its components, weighted by batch size
        seen = 0
        past.clear()
        stage = {"graph": 0.0, "step": 0.0}
        t_stepped = time.perf_counter()
        for start in range(0, len(order), cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            batch = [instances[i] for i in chunk]
            fn = _batch_closure(cfg, batch, ids[chunk], E, past, dropout_rng)
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
            t_graphed = time.perf_counter()
            opt.step(grads)
            if "tau_kgc" in arrays:
                np.maximum(arrays["tau_kgc"], TAU_FLOOR, out=arrays["tau_kgc"])
            stage["graph"] += t_graphed - t_stepped
            t_stepped = time.perf_counter()
            stage["step"] += t_stepped - t_graphed
            for name, value in {"loss": loss, **components}.items():
                sums[name] = sums.get(name, 0.0) + value * len(chunk)
            seen += len(chunk)
            past.append(ids[chunk, 2])  # a triple's tail; the window is read for kgc only
        epoch_losses.append(sums.pop("loss") / seen)
        epoch_components.append({k: v / seen for k, v in sums.items()})
        epoch_stage_s.append(stage)
    examples_per_s = cfg.epochs * len(instances) / (time.perf_counter() - t_loop)

    extras = {"tau_kgc": arrays["tau_kgc"]} if "tau_kgc" in arrays else {}
    saved_path = None
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, params, extras or None)
        saved_path = str(checkpoint_path)
    report = TrainReport(
        task=cfg.task,
        mode=cfg.mode,
        nh=cfg.nh,
        nk=params.nk,
        seed=cfg.seed,
        epoch_losses=epoch_losses,
        epoch_components=epoch_components,
        examples_per_s=examples_per_s,
        epoch_stage_s=epoch_stage_s,
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
    if n_entities < 4 or n_relations < 2 or nh < 2:
        raise ValueError("need n_entities >= 4, n_relations >= 2 and nh >= 2")
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
    """Split by pair (twins stay together), first fraction of pairs to train.

    A fraction that rounds to no pair on either side is refused with a
    ValueError naming the pair count and the fraction."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    seen = list(dict.fromkeys(q.pair_id for q in quads))
    cut = int(round(train_fraction * len(seen)))
    if cut in (0, len(seen)):
        side = "train" if cut == 0 else "eval"
        raise ValueError(
            f"{len(seen)} pairs at train_fraction={train_fraction} leave the {side} split empty"
        )
    train_ids = set(seen[:cut])
    train = [q for q in quads if q.pair_id in train_ids]
    held = [q for q in quads if q.pair_id not in train_ids]
    return train, held


# -- file formats ---------------------------------------------------------------


def load_csts_jsonl(path: str | Path) -> list[CstsQuadruplet]:
    path = Path(path)
    out: list[CstsQuadruplet] = []
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            texts = (rec["sentence1"], rec["sentence2"], rec["condition"])
            label, pair_id = rec["label"], rec["pair_id"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
        if not all(isinstance(t, str) for t in texts):
            raise FormatError(f"{path}:{lineno}: sentence1/sentence2/condition must be strings")
        if not is_finite_real(label):
            raise FormatError(f"{path}:{lineno}: label must be a finite number, got {label!r}")
        if not is_integer(pair_id):
            raise FormatError(f"{path}:{lineno}: pair_id must be an integer, got {pair_id!r}")
        out.append(CstsQuadruplet(*texts, y=float(label), pair_id=pair_id))
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
    for lineno, line in text_lines(path):
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
