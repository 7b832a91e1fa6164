"""Span tracing applied from outside the program.

The tracer wraps public functions of condcl modules for the length of a
traced run and restores them afterwards; nothing under ``src/`` knows about
it. Each span records (name, start, end, parent span, operation id) in
memory; ``write`` dumps them as TSV when the run ends. A target that a later
version of condcl no longer has is skipped, so its counts read 0.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Distinct keys seen inside the current top-level call, and their
        # running total over all top-level calls (the base of the waste ratios).
        self._call_keys: dict[str, set] = defaultdict(set)
        self.distinct: dict[str, int] = defaultdict(int)
        self.op = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._open.append(idx)
        self.span_start.append(_clock())
        return idx

    def _end(self, idx: int) -> None:
        self.span_end[idx] = _clock()
        self._open.pop()

    def see(self, kind: str, key) -> None:
        """Record that the current top-level call touched ``key`` of ``kind``."""
        self._call_keys[kind].add(key)

    def _close_call(self) -> None:
        for kind, keys in self._call_keys.items():
            self.distinct[kind] += len(keys)
        self._call_keys.clear()

    # -- wrapping --------------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until ``restore``."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spanned(self, name: str, top_level: bool = False, after=None):
        """Wrapper factory: record a span named ``name`` around each call.

        ``after(result, args)`` may record counts from the call's result.
        A top-level span delimits one public call for the distinct-key totals.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self._begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._end(idx)
                    if top_level:
                        self._close_call()
                self.counts[name + ".calls"] += 1
                if after is not None:
                    after(result, args)
                return result

            return wrapper

        return make

    def counted(self, name: str):
        def make(fn):
            counts = self.counts

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        child = [0.0] * len(self.span_name)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.span_name):
            out[self.names[nid]] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.span_name):
            out[self.names[nid]] += self.span_end[i] - self.span_start[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, nid in enumerate(self.span_name):
                fh.write(
                    f"{i}\t{self.names[nid]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
            # Written back now rather than during whatever runs next.
            fh.flush()
            os.fsync(fh.fileno())


class TracedProvider:
    """Proxy around a provider that records one span per ``embed``."""

    def __init__(self, provider, tracer: Tracer):
        self._provider = provider
        self._tracer = tracer
        self._embed = tracer.spanned("encoder.embed")(provider.embed)

    @property
    def dim(self) -> int:
        return self._provider.dim

    def embed(self, text: str):
        self._tracer.see("text", text)
        return self._embed(text)


# -- the condcl layer map ---------------------------------------------------------------

FLOAT_BYTES = 8


def _generate_cost(params) -> tuple[float, float]:
    """(bytes read, flops) of one operator generation, computed from nh and nk."""
    nh, nk = params.nh, getattr(params, "nk", None)
    if params.mode == "lowrank":
        rows = 2 * nh * nk
    else:
        rows = nh * nh
    return float(rows * (nh + 1) * FLOAT_BYTES + nh * FLOAT_BYTES), float(2 * rows * nh)


def _project_cost(op) -> tuple[float, float]:
    """(bytes read, flops) of applying one operator to one vector."""
    if getattr(op, "form", None) == "factored":
        nh, nk = op.W1.shape
        return float((2 * nh * nk + nh) * FLOAT_BYTES), float(4 * nh * nk)
    if getattr(op, "form", None) == "dense":
        nh = op.W.shape[0]
        return float((nh * nh + nh) * FLOAT_BYTES), float(2 * nh * nh)
    return 0.0, 0.0


def instrument(tracer: Tracer, cd, loaders_only: bool = False) -> None:
    """Wrap condcl's layer boundaries; ``tracer.restore()`` undoes it."""
    counts = tracer.counts

    def end_op(*_):
        tracer.op += 1

    tracer.patch(cd.encoder, "load_embeddings", tracer.spanned("encoder.load_embeddings"))
    tracer.patch(cd.hypernet, "load_checkpoint", tracer.spanned("hypernet.load_checkpoint"))
    tracer.patch(cd.trainer, "load_csts_jsonl", tracer.spanned("trainer.load_csts_jsonl"))
    tracer.patch(cd.trainer, "load_kg_tsv", tracer.spanned("trainer.load_kg_tsv"))
    if loaders_only:
        return

    def generated(op, args):
        params, h_c = args[0], args[1]
        tracer.see("condition", np.asarray(h_c).tobytes())
        nbytes, flops = _generate_cost(params)
        counts["hypernet.generate.bytes"] += nbytes
        counts["hypernet.generate.flops"] += flops

    def projected(out, args):
        nbytes, flops = _project_cost(args[0])
        counts["hypernet.project.bytes"] += nbytes
        counts["hypernet.project.flops"] += flops

    def negatives(negs, args):
        counts["losses.negatives"] += len(negs)

    for mod in (cd.evaluation, cd.cache):
        tracer.patch(mod, "generate_condition_matrix", tracer.spanned("hypernet.generate", after=generated))
        tracer.patch(mod, "project", tracer.spanned("hypernet.project", after=projected))
        tracer.patch(mod, "cosine_similarity", tracer.spanned("linalg.cosine_similarity"))
    ad = cd.autodiff
    tracer.patch(ad.Tensor, "__init__", tracer.counted("autodiff.tensors"))
    tracer.patch(ad.Tensor, "backward", tracer.spanned("autodiff.backward"))
    tracer.patch(ad, "cosine", tracer.counted("autodiff.cosine.calls"))
    tracer.patch(cd.trainer.Adam, "step", tracer.spanned("trainer.Adam.step", after=end_op))
    tracer.patch(cd.trainer, "assemble_negatives", tracer.spanned("losses.assemble_negatives", after=negatives))
    tracer.patch(cd.trainer, "train", tracer.spanned("trainer.train", top_level=True))
    tracer.patch(cd.evaluation, "rank_entities", tracer.spanned("evaluation.rank_entities", after=end_op))
    tracer.patch(cd.evaluation, "evaluate_kgc", tracer.spanned("evaluation.evaluate_kgc", top_level=True))
    tracer.patch(cd.evaluation, "evaluate_csts", tracer.spanned("evaluation.evaluate_csts", top_level=True))
    tracer.patch(cd.cache, "run_architecture", tracer.spanned("cache.run_architecture", top_level=True))


# Per-layer metrics and their units; every traced run reports all of them, and
# a layer that did no work on a workload reads 0 there.
PER_LAYER_UNITS = {
    "autodiff.tensors": "count",
    "autodiff.cosine.calls": "count",
    "autodiff.backward.self_s": "s",
    "losses.assemble_negatives.calls": "count",
    "losses.assemble_negatives.self_s": "s",
    "losses.negatives_per_triple": "count",
    "trainer.Adam.step.calls": "count",
    "trainer.Adam.step.self_s": "s",
    "trainer.train.self_s": "s",
    "hypernet.generate.calls": "count",
    "hypernet.generate.self_s": "s",
    "hypernet.generate.calls_per_condition": "ratio",
    "hypernet.generate.gbytes_computed": "GB",
    "hypernet.generate.bytes_per_call_computed": "bytes",
    "hypernet.generate.flops_per_call_computed": "flop",
    "hypernet.project.calls": "count",
    "hypernet.project.self_s": "s",
    "hypernet.project.bytes_per_call_computed": "bytes",
    "hypernet.project.flops_per_call_computed": "flop",
    "linalg.cosine_similarity.calls": "count",
    "linalg.cosine_similarity.self_s": "s",
    "evaluation.rank_entities.calls": "count",
    "evaluation.rank_entities.self_s": "s",
    "evaluation.evaluate_kgc.self_s": "s",
    "evaluation.evaluate_csts.self_s": "s",
    "encoder.embed.calls": "count",
    "encoder.embed.self_s": "s",
    "encoder.embed.calls_per_text": "ratio",
    "encoder.load_embeddings.s": "s",
    "hypernet.load_checkpoint.s": "s",
    **{
        f"cache.{arch}.{key}": unit
        for arch in ("hyper", "bi")
        for key, unit in (
            ("lookups", "count"),
            ("hits", "count"),
            ("misses", "count"),
            ("hit_ratio", "ratio"),
            ("heavy_ops", "count"),
            ("gen_ops", "count"),
            ("light_ops", "count"),
            ("resident_bytes", "bytes"),
        )
    },
    "cache.run_architecture.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, setup_reps: int, overhead_s: float, cache_counts: dict) -> dict:
    counts = tracer.counts
    self_s = tracer.self_times()
    total = tracer.total_times()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gen_calls = counts["hypernet.generate.calls"]
    proj_calls = counts["hypernet.project.calls"]
    out = {
        "autodiff.tensors": counts["autodiff.tensors"],
        "autodiff.cosine.calls": counts["autodiff.cosine.calls"],
        "autodiff.backward.self_s": self_s["autodiff.backward"],
        "losses.assemble_negatives.calls": counts["losses.assemble_negatives.calls"],
        "losses.assemble_negatives.self_s": self_s["losses.assemble_negatives"],
        "losses.negatives_per_triple": ratio(
            counts["losses.negatives"], counts["losses.assemble_negatives.calls"]
        ),
        "trainer.Adam.step.calls": counts["trainer.Adam.step.calls"],
        "trainer.Adam.step.self_s": self_s["trainer.Adam.step"],
        "trainer.train.self_s": self_s["trainer.train"],
        "hypernet.generate.calls": gen_calls,
        "hypernet.generate.self_s": self_s["hypernet.generate"],
        "hypernet.generate.calls_per_condition": ratio(gen_calls, tracer.distinct["condition"]),
        "hypernet.generate.gbytes_computed": counts["hypernet.generate.bytes"] / 1e9,
        "hypernet.generate.bytes_per_call_computed": ratio(counts["hypernet.generate.bytes"], gen_calls),
        "hypernet.generate.flops_per_call_computed": ratio(counts["hypernet.generate.flops"], gen_calls),
        "hypernet.project.calls": proj_calls,
        "hypernet.project.self_s": self_s["hypernet.project"],
        "hypernet.project.bytes_per_call_computed": ratio(counts["hypernet.project.bytes"], proj_calls),
        "hypernet.project.flops_per_call_computed": ratio(counts["hypernet.project.flops"], proj_calls),
        "linalg.cosine_similarity.calls": counts["linalg.cosine_similarity.calls"],
        "linalg.cosine_similarity.self_s": self_s["linalg.cosine_similarity"],
        "evaluation.rank_entities.calls": counts["evaluation.rank_entities.calls"],
        "evaluation.rank_entities.self_s": self_s["evaluation.rank_entities"],
        "evaluation.evaluate_kgc.self_s": self_s["evaluation.evaluate_kgc"],
        "evaluation.evaluate_csts.self_s": self_s["evaluation.evaluate_csts"],
        "encoder.embed.calls": counts["encoder.embed.calls"],
        "encoder.embed.self_s": self_s["encoder.embed"],
        "encoder.embed.calls_per_text": ratio(counts["encoder.embed.calls"], tracer.distinct["text"]),
        "encoder.load_embeddings.s": total["encoder.load_embeddings"] / setup_reps,
        "hypernet.load_checkpoint.s": total["hypernet.load_checkpoint"] / setup_reps,
        "cache.run_architecture.self_s": self_s["cache.run_architecture"],
        "trace.spans": float(len(tracer.span_name)),
        "trace.overhead_s": overhead_s,
    }
    return {name: float(out.get(name, cache_counts.get(name, 0.0))) for name in PER_LAYER_UNITS}
