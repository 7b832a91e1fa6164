"""Batch command-line interface.

Subcommands: train, eval, bench-cache, analyze clusters|frobenius,
sweep-rank, gradcheck, make-synthetic csts|kg. train, eval, analyze and
sweep-rank read a JSON config (--config) whose keys mirror TrainConfig plus
input/output paths (any other key is refused); explicit flags win over
config values. bench-cache, gradcheck and make-synthetic take flags only,
with --seed defaulting to 0. Exit codes: 0 success, 1 check failure,
2 usage/config error (a path that cannot be read or written, and an input
that disagrees with the config or its own format, included), 3 runtime abort
(running out of memory included). Set CONDCL_LOG=debug|info for progress
output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import cache as cache_mod
from . import evaluation as eval_mod
from . import hypernet, losses, trainer
from .encoder import EmbeddingStore, HashingProvider, StoreProvider
from .encoder import load_embeddings, save_embeddings, text_lines
from .errors import (
    CondclError,
    ConfigError,
    FormatError,
    MissingEmbeddingError,
    TrainingDivergedError,
)
from .linalg import as_float_array, is_integer

log = logging.getLogger("condcl")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ABORT = 3

GRADCHECK_THRESHOLD = 1e-4
DEFAULT_DIVISORS = (1, 4, 8, 12, 16, 24)
# Every key a run config may hold: the TrainConfig fields, input/output paths and ks.
RUN_CONFIG_KEYS = set(trainer.TrainConfig.__dataclass_fields__) | {
    "data", "embeddings", "out", "report", "checkpoint", "conditions",
    "train_data", "eval_data", "filter_data", "ks",
}


def _setup_logging() -> None:
    level_name = os.environ.get("CONDCL_LOG", "").lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: invalid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    unknown = sorted(set(cfg) - RUN_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{p}: unknown config keys: {unknown}")
    return cfg


def _settings(args) -> dict:
    """The run config, with every config-key flag that was given laid over it.
    Its output paths (``out``, ``report``) are checked by ``_output``."""
    flags = {k: v for k, v in vars(args).items() if k in RUN_CONFIG_KEYS and v is not None}
    cfg = {**_load_config(args.config), **flags}
    for key in ("out", "report"):
        _output(cfg.get(key), key)
    return cfg


def _output(value, key: str) -> None:
    """Refuse, before any work, an output path that is not a string or whose folder is missing."""
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key!r} must be a path string, got {value!r}")
    if value and not Path(value).parent.is_dir():
        raise ConfigError(f"{key}: directory does not exist: {Path(value).parent}")


def _existing_path(value, key: str) -> Path:
    p = Path(str(value))
    if not p.exists():
        raise ConfigError(f"{key}: path does not exist: {p}")
    return p


def _input(cfg: dict, key: str) -> Path:
    """The path cfg names under key; a missing key or path is a ConfigError."""
    if cfg.get(key) in (None, ""):
        raise ConfigError(f"missing required config key: {key!r}")
    return _existing_path(cfg[key], key)


def _task_data(task: str, path: Path) -> list:
    """The records of a task's data file: similarity JSONL for csts, triple TSV for kgc."""
    return trainer.load_csts_jsonl(path) if task == "csts" else trainer.load_kg_tsv(path)


def _train_config_from(cfg: dict) -> trainer.TrainConfig:
    fields = {k: v for k, v in cfg.items() if k in trainer.TrainConfig.__dataclass_fields__}
    if "task" not in fields:
        raise ConfigError("config must set 'task' (csts or kgc)")
    return trainer.TrainConfig.from_dict(fields)


def _store_provider(cfg: dict) -> StoreProvider:
    return StoreProvider(load_embeddings(_input(cfg, "embeddings")))


def _load_model(cfg: dict) -> tuple[hypernet.HyperNetParams, StoreProvider]:
    """The params of cfg's checkpoint and a provider over its embeddings; their nh must agree."""
    provider = _store_provider(cfg)
    params, _ = hypernet.load_checkpoint(_input(cfg, "checkpoint"))
    if params.nh != provider.dim:
        raise ConfigError(
            f"checkpoint dimension {params.nh} does not match provider dimension {provider.dim}"
        )
    return params, provider


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


# -- train -----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _settings(args)
    tc = _train_config_from(cfg)
    provider = _store_provider(cfg)
    data = _task_data(tc.task, _input(cfg, "data"))
    report_path = cfg.get("report")
    log.info("training task=%s mode=%s nh=%d seed=%d", tc.task, tc.mode, tc.nh, tc.seed)
    report = trainer.train(tc, data, provider, checkpoint_path=cfg.get("out") or None)
    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    if report_path:
        Path(report_path).write_text(payload, encoding="utf-8")
    sys.stdout.write(payload)
    return EXIT_OK


# -- eval ------------------------------------------------------------------


def _kgc_filter(cfg: dict, *triple_lists) -> tuple[list, list[str]]:
    """The known triples (the given lists plus each ``filter_data`` TSV) and their entities."""
    filter_paths = cfg.get("filter_data") or []
    if not isinstance(filter_paths, list):
        raise ConfigError("'filter_data' must be a list of TSV paths")
    known = [t for triples in triple_lists for t in triples]
    for fp in filter_paths:
        known.extend(trainer.load_kg_tsv(_existing_path(fp, "filter_data")))
    return known, sorted({e for t in known for e in (t.h, t.t)})


def cmd_eval(args) -> int:
    cfg = _settings(args)
    task = cfg.get("task")
    if task not in trainer.TASKS:
        raise ConfigError("config must set 'task' (csts or kgc)")
    params, provider = _load_model(cfg)
    data_path = _input(cfg, "data")
    split = args.split or "overall"
    if task == "kgc" and split != "overall":
        raise ConfigError("seen/unseen splits apply to the csts task only")
    data = _task_data(task, data_path)

    if task == "csts":
        if split != "overall":
            train_conditions = {q.c for q in trainer.load_csts_jsonl(_input(cfg, "train_data"))}
            seen, unseen = eval_mod.split_seen_unseen(train_conditions, data)
            data = seen if split == "seen" else unseen
            if not data:
                raise ConfigError(f"split {split!r} selected zero instances")
        metrics = eval_mod.evaluate_csts(params, provider, data)
        metrics["instances"] = len(data)
    else:
        known, entities = _kgc_filter(cfg, data)
        ks = cfg.get("ks", eval_mod.DEFAULT_KS)
        if not (isinstance(ks, (list, tuple)) and ks and all(is_integer(k) and k >= 1 for k in ks)):
            raise ConfigError(f"'ks' must be a non-empty list of positive integers, got {ks!r}")
        metrics = eval_mod.evaluate_kgc(params, provider, data, known, entities, ks=ks)
    _emit(json.dumps(metrics, indent=2) + "\n", cfg.get("out"))
    return EXIT_OK


# -- bench-cache --------------------------------------------------------------


def _load_workload(path: Path) -> list[tuple[str, str]]:
    requests: list[tuple[str, str]] = []
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected sentence<TAB>condition")
        requests.append((parts[0], parts[1]))
    return requests


def cmd_bench_cache(args) -> int:
    _output(args.out, "out")
    if args.workload:
        requests = _load_workload(_existing_path(args.workload, "workload"))
    else:
        requests = cache_mod.full_cross_requests(
            args.gen_sentences, args.gen_conditions, args.gen_replays
        )
    if not requests:
        raise ConfigError("empty workload")
    nh, seed = args.nh, args.seed
    provider = HashingProvider(dim=nh, seed=seed, rounds=args.heavy_rounds)
    trainer.refuse_above_memory(["full", "lowrank"], nh, args.nk, 1, "their params")
    params_full = hypernet.init_params("full", nh, seed=seed)
    params_lowrank = hypernet.init_params("lowrank", nh, args.nk, seed=seed)
    rows = cache_mod.bench_report(
        requests, [params_full, params_lowrank], provider, repetitions=args.repetitions
    )
    _emit(cache_mod.bench_rows_to_tsv(rows), args.out)
    return EXIT_OK


# -- analyze -------------------------------------------------------------------


def _cluster_points(quads, k, per_group):
    """Pick the k most frequent conditions and up to per_group sentences each."""
    by_cond: dict[str, dict[str, None]] = {}
    for q in quads:
        by_cond.setdefault(q.c, {}).update(dict.fromkeys((q.s1, q.s2)))
    ranked = sorted(by_cond.items(), key=lambda kv: (-len(kv[1]), kv[0]))[:k]
    if len(ranked) < k:
        raise ConfigError(f"only {len(ranked)} conditions available, need k={k}")
    sentences: list[str] = []
    labels: list[str] = []
    for cond, members in ranked:
        for s in list(members)[:per_group]:
            sentences.append(s)
            labels.append(cond)
    return sentences, labels


def cmd_analyze_clusters(args) -> int:
    for flag, n in (("--k", args.k), ("--per-group", args.per_group)):
        if n < 1:
            raise ConfigError(f"{flag} must be >= 1, got {n}")
    cfg = _settings(args)
    seed = cfg.get("seed", 0)
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    params, provider = _load_model(cfg)
    quads = trainer.load_csts_jsonl(_input(cfg, "data"))
    k = args.k
    sentences, labels = _cluster_points(quads, k, args.per_group)
    if len(sentences) < k:
        raise ConfigError(f"{len(sentences)} points cannot support k={k}")

    before = as_float_array([provider.embed(s) for s in sentences], "sentences")
    conditions = {c: i for i, c in enumerate(dict.fromkeys(labels))}
    which = np.array([conditions[c] for c in labels])
    H = [provider.embed(c) for c in conditions]  # checked by generate_blocks
    after = np.empty_like(before)
    for span, op in hypernet.generate_blocks(params, H):
        rows = np.flatnonzero((which >= span.start) & (which < span.stop))
        after[rows] = hypernet.apply_stack(op, before[rows], which[rows] - span.start)
    assign_before = eval_mod.kmeans(before, k, seed=seed)
    assign_after = eval_mod.kmeans(after, k, seed=seed)
    report = {
        "k": k,
        "points": len(sentences),
        "impurity_before": eval_mod.impurity(assign_before, labels),
        "impurity_after": eval_mod.impurity(assign_after, labels),
    }

    prefix = cfg.get("out") or "clusters"
    for tag, assign in (("before", assign_before), ("after", assign_after)):
        lines = ["point_id\tcondition\tcluster"]
        lines += [
            f"{i}\t{labels[i]}\t{int(assign[i])}" for i in range(len(sentences))
        ]
        Path(f"{prefix}.{tag}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = json.dumps(report, indent=2) + "\n"
    Path(f"{prefix}.impurity.json").write_text(payload, encoding="utf-8")
    sys.stdout.write(payload)
    return EXIT_OK


def cmd_analyze_frobenius(args) -> int:
    cfg = _settings(args)
    params, provider = _load_model(cfg)
    cond_path = _input(cfg, "conditions")
    conditions = [c for _, line in text_lines(cond_path) if (c := line.rstrip("\n"))]
    if not conditions:
        raise ConfigError(f"{cond_path}: no conditions listed")
    var_hyper, var_diag = eval_mod.frobenius_variance_report(params, provider, conditions)
    _emit(
        json.dumps({"var_hyper": var_hyper, "var_diag": var_diag, "conditions": len(conditions)})
        + "\n",
        cfg.get("out"),
    )
    return EXIT_OK


# -- sweep-rank -----------------------------------------------------------------


def cmd_sweep_rank(args) -> int:
    cfg = _settings(args)
    base = _train_config_from(cfg)
    provider = _store_provider(cfg)
    paths = [_input(cfg, "data"), _input(cfg, "eval_data")]
    divisors = [int(d) for d in args.divisors.split(",") if d]
    if not divisors or any(d < 1 for d in divisors):
        raise ConfigError("divisors must be positive integers")
    train_data, eval_data = (_task_data(base.task, p) for p in paths)
    if base.task == "kgc":
        known, entities = _kgc_filter(cfg, eval_data, train_data)

    lines = ["nk\tparam_count\tmetric"]
    ranks: dict[int, list[int]] = {}  # each distinct rank's divisors, first seen first
    for d in divisors:
        if base.nh % d != 0:
            log.warning("nh=%d not divisible by %d; rounding rank down", base.nh, d)
        ranks.setdefault(max(1, base.nh // d), []).append(d)
    for nk, ds in ranks.items():
        if len(ds) > 1:
            log.warning("divisors %s all give nk=%d; training it once", ds, nk)
        run_cfg = dataclasses.replace(base, mode="lowrank", nk=nk)
        params, _extras, _report = trainer.fit(run_cfg, train_data, provider)
        if base.task == "csts":
            metric = eval_mod.evaluate_csts(params, provider, eval_data)["spearman"]
        else:
            metric = eval_mod.evaluate_kgc(params, provider, eval_data, known, entities)["mrr"]
        lines.append(f"{nk}\t{hypernet.param_count(params)}\t{metric:.6f}")
        log.info("sweep divisors=%s nk=%d metric=%.4f", ds, nk, metric)
    _emit("\n".join(lines) + "\n", cfg.get("out"))
    return EXIT_OK


# -- gradcheck -------------------------------------------------------------------


def _gradcheck_batches(nh: int, seed: int):
    """Small deterministic batches for both loss families, embedded as seeded
    Gaussian vectors: dense, so no mode projects a row to zero norm."""
    rng = np.random.default_rng(seed)
    low, high = losses.LABEL_LOW, losses.LABEL_HIGH
    quads = []
    for i in range(3):
        y_hi = float(rng.uniform((low + high) / 2, high))
        y_lo = float(rng.uniform(low, (low + high) / 2))
        quads.append(losses.CstsQuadruplet(f"qs-{i}-a", f"qs-{i}-b", f"qc-{2 * i}", y_hi, i))
        quads.append(losses.CstsQuadruplet(f"qs-{i}-a", f"qs-{i}-b", f"qc-{2 * i + 1}", y_lo, i))
    twin_batch = losses.pair_twins(quads)
    triples = [
        losses.KgTriple("qe-1", "qr-1", "qe-2"),
        losses.KgTriple("qe-2", "qr-2", "qe-3"),
        losses.KgTriple("qe-3", "qr-1", "qe-4"),
        losses.KgTriple("qe-4", "qr-2", "qe-1"),
    ]
    store = EmbeddingStore(nh)
    texts = [t for q in quads for t in (q.s1, q.s2, q.c)] + ["qr-1", "qr-2"]
    for text in dict.fromkeys(texts + [f"qe-{i}" for i in range(1, 7)]):
        store.add(text, rng.normal(size=nh))
    prebatch = [[(text, store[text]) for text in ("qe-5", "qe-6")]]
    return StoreProvider(store), twin_batch, triples, prebatch


def cmd_gradcheck(args) -> int:
    nh, seed = args.nh, args.seed
    nk = args.nk if args.nk is not None else max(1, nh // 4)
    provider, twin_batch, triples, prebatch = _gradcheck_batches(nh, seed)
    worst = 0.0
    for task in ("csts", "kgc"):
        for mode in hypernet.MODES:
            cfg = trainer.TrainConfig(
                task=task, mode=mode, nh=nh, nk=nk, seed=seed, epochs=1, batch_size=4
            )
            batch = twin_batch if task == "csts" else triples
            closure = trainer.make_loss_closure(
                cfg, batch, provider, prebatch=prebatch if task == "kgc" else None
            )
            params, arrays = trainer.initial_arrays(cfg)
            report = losses.grad_check(
                closure, arrays, epsilon=args.epsilon, n_probes=args.probes, seed=seed
            )
            worst = max(worst, report.max_rel_err)
            rank = f" nk={params.nk}" if params.nk else ""
            print(
                f"gradcheck task={task} mode={mode} nh={nh}{rank} "
                f"probes={report.n_checked} max_rel_err={report.max_rel_err:.3e}"
            )
    print(f"gradcheck overall max_rel_err={worst:.3e} threshold={GRADCHECK_THRESHOLD:.0e}")
    return EXIT_OK if worst < GRADCHECK_THRESHOLD else EXIT_CHECK_FAILED


# -- make-synthetic ---------------------------------------------------------------


def cmd_make_synthetic(args) -> int:
    if args.dataset == "csts":
        quads, store = trainer.make_synthetic_csts(args.pairs, args.conditions, args.nh, args.seed)
        train, held = trainer.split_csts_holdout(quads, args.train_fraction)
        save = trainer.save_csts_jsonl
        splits = {"csts_train.jsonl": train, "csts_eval.jsonl": held}
        counts = {"train_records": len(train), "eval_records": len(held), "embeddings": len(store)}
    else:
        dataset, store = trainer.make_synthetic_kg(args.entities, args.relations, args.nh, args.seed)
        save = trainer.save_kg_tsv
        names = ("train", "valid", "test")
        splits = {f"{name}.tsv": getattr(dataset, name) for name in names}
        counts = {f"{name}_triples": len(getattr(dataset, name)) for name in names}
        counts.update(entities=len(dataset.entities), relations=len(dataset.relations))
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in splits.items():
        save(split, out_dir / name)
    save_embeddings(store, out_dir / "embeddings.jsonl")
    print(json.dumps({**counts, "out_dir": str(out_dir)}))
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condcl",
        description="Conditioned sentence-embedding projection: train, evaluate, benchmark, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "config": {"help": "JSON config path"},
        "seed": {"type": int},
        "mode": {"choices": hypernet.MODES},
        "nh": {"type": int},
        "nk": {"type": int},
        "out": {},
        "checkpoint": {},
        "embeddings": {},
    }

    def common(p, *names):
        """The shared flags that p's command reads."""
        for name in names:
            p.add_argument(f"--{name}", **shared[name])

    p = sub.add_parser("train", help="train composition parameters")
    common(p, "config", "seed", "mode", "nh", "nk", "out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p, "config", "out")
    p.add_argument("--split", choices=["seen", "unseen", "overall"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench-cache", help="benchmark cached execution per architecture")
    common(p, "seed", "nh", "nk", "out")
    p.add_argument("--workload", help="TSV of sentence<TAB>condition requests")
    p.add_argument("--gen-sentences", type=int, default=0)
    p.add_argument("--gen-conditions", type=int, default=0)
    p.add_argument("--gen-replays", type=int, default=1)
    rounds_help = "hash rounds per embed: 2 keyed hashes per token per round, no memo across texts"
    p.add_argument("--heavy-rounds", type=int, default=64, help=rounds_help)
    p.add_argument("--repetitions", type=int, default=1)
    p.set_defaults(func=cmd_bench_cache, nh=64, seed=0)

    p_an = sub.add_parser("analyze", help="clustering and operator-norm analyses")
    an_sub = p_an.add_subparsers(dest="analysis", required=True)

    p = an_sub.add_parser("clusters", help="k-means impurity before/after projection")
    common(p, "config", "seed", "out", "checkpoint", "embeddings")
    p.add_argument("--data", help="similarity JSONL supplying sentence/condition groups")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--per-group", type=int, default=20)
    p.set_defaults(func=cmd_analyze_clusters)

    p = an_sub.add_parser("frobenius", help="operator-norm variance: generated vs diagonal")
    common(p, "config", "out", "checkpoint", "embeddings")
    p.add_argument("--conditions", help="file with one condition per line")
    p.set_defaults(func=cmd_analyze_frobenius)

    p = sub.add_parser("sweep-rank", help="train/evaluate across rank divisors")
    common(p, "config", "seed", "nh", "out")
    p.add_argument("--divisors", default=",".join(str(d) for d in DEFAULT_DIVISORS))
    p.set_defaults(func=cmd_sweep_rank)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check: each task and mode")
    common(p, "seed", "nh", "nk")
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradcheck, nh=16, seed=0)

    p_mk = sub.add_parser("make-synthetic", help="generate desk-scale datasets")
    mk_sub = p_mk.add_subparsers(dest="dataset", required=True)

    p = mk_sub.add_parser("csts", help="block-structured similarity data")
    common(p, "seed", "nh", "out")
    p.add_argument("--pairs", type=int, default=500)
    p.add_argument("--conditions", type=int, default=4)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.set_defaults(func=cmd_make_synthetic, nh=64, seed=0)

    p = mk_sub.add_parser("kg", help="orthogonal-map link-prediction data")
    common(p, "seed", "nh", "out")
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--relations", type=int, default=4)
    p.set_defaults(func=cmd_make_synthetic, nh=64, seed=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if (getattr(args, "seed", None) or 0) < 0:  # numpy's own refusal names no seed
            parser.error(f"argument --seed: seed must be a non-negative integer, got {args.seed}")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    _setup_logging()
    try:
        return args.func(args)
    except (ValueError, MissingEmbeddingError, OSError) as exc:
        # ConfigError, FormatError and DimensionMismatchError are ValueErrors; an
        # OSError is a path that cannot be read or written as given.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except TrainingDivergedError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except CondclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
