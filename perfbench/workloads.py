"""The three benchmark workloads.

Each workload loads its generated inputs through condcl's own loaders
(``load``, the timed set-up), then offers two phases, ``a`` and ``b``. A
phase is a closed loop run by a single caller: the next round starts when
the previous public call returns. A round returns what the checks need; the
checks run after the timed loop, against references from ``checks``.

Every call into condcl goes through a module attribute (``cd.trainer.train``,
not a name imported once), so a traced run can wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

import checks
import inputs as inp

KS = (1, 3, 10)
GRAD_CHECK_LIMIT = 1e-4
GRAD_PROBES = 24


@dataclass
class Round:
    ops: int  # training batches, ranking queries, evaluated records or requests
    units: int  # what the phase's throughput counts
    output: object = None
    latencies: list[float] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the round, set by the runner


def _identity(provider):
    return provider


class Workload:
    name = ""
    phase_names = ("a", "b")

    def __init__(self, cd, sizes: inp.Sizes, seed: int, data: Path):
        self.cd = cd
        self.sizes = sizes
        self.seed = seed
        self.data = data
        # A traced run replaces these to wrap providers and mark operation ends.
        self.wrap_provider = _identity
        self.end_op = None

    def round(self, phase: str, k: int) -> Round:
        return getattr(self, f"round_{phase}")(k)

    def check(self, phase: str, rounds: list[Round]) -> list[list[str]]:
        """Problems per round of ``phase`` (an empty list for a correct round)."""
        return getattr(self, f"check_{phase}")(rounds)

    def extra_checks(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) of checks outside the timed loop."""
        return 0, 0, []

    def layer_counts(self, rounds: dict[str, list[Round]]) -> dict[str, float]:
        return {}

    def named_metrics(self, results: dict) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


# -- train-small --------------------------------------------------------------------------


class TrainSmall(Workload):
    """C-STS (phase a) and KGC (phase b) training, full and lowrank each round."""

    name = "train-small"
    MODES = ("full", "lowrank")

    def load(self):
        cd, d = self.cd, self.data
        self.csts = cd.trainer.load_csts_jsonl(d / inp.CSTS_DATA)
        self.csts_provider = cd.encoder.StoreProvider(cd.encoder.load_embeddings(d / inp.CSTS_EMB))
        self.kg = cd.trainer.load_kg_tsv(d / "train.tsv")
        self.kg_provider = cd.encoder.StoreProvider(cd.encoder.load_embeddings(d / inp.KG_EMB))
        self.n_pairs = len({q.pair_id for q in self.csts})
        self._first: dict[tuple[str, str], list[float]] = {}

    def _cfg(self, task: str, mode: str):
        return self.cd.trainer.TrainConfig(
            task=task,
            mode=mode,
            nh=self.sizes.train_nh,
            epochs=1,
            batch_size=self.sizes.train_batch,
            seed=self.seed,
        )

    def _train(self, task: str, data, provider, n: int) -> Round:
        losses = {}
        for mode in self.MODES:
            report = self.cd.trainer.train(self._cfg(task, mode), data, self.wrap_provider(provider))
            losses[mode] = list(report.epoch_losses)
        batches = math.ceil(n / self.sizes.train_batch)
        return Round(ops=batches * len(self.MODES), units=n * len(self.MODES), output=losses)

    def round_a(self, k: int) -> Round:
        return self._train("csts", self.csts, self.csts_provider, self.n_pairs)

    def round_b(self, k: int) -> Round:
        return self._train("kgc", self.kg, self.kg_provider, len(self.kg))

    def _check(self, task: str, rounds: list[Round]) -> list[list[str]]:
        out = []
        for r in rounds:
            problems = []
            for mode, losses in r.output.items():
                first = self._first.setdefault((task, mode), losses)
                problems += [f"{task}/{mode}: {p}" for p in checks.check_losses(losses, first)]
            out.append(problems)
        return out

    def check_a(self, rounds):
        return self._check("csts", rounds)

    def check_b(self, rounds):
        return self._check("kgc", rounds)

    def extra_checks(self):
        """grad_check on one probe batch per task and mode."""
        cd = self.cd
        twins = cd.losses.pair_twins(self.csts)[:3]
        triples = self.kg[:4]
        prebatch = [[(t.t, self.kg_provider.embed(t.t)) for t in self.kg[4:6]]]
        problems = []
        attempted = failed = 0
        for task, batch, provider, pre in (
            ("csts", twins, self.csts_provider, None),
            ("kgc", triples, self.kg_provider, prebatch),
        ):
            for mode in self.MODES:
                attempted += 1
                cfg = self._cfg(task, mode)
                try:
                    closure = cd.trainer.make_loss_closure(cfg, batch, provider, prebatch=pre)
                    _, arrays = cd.trainer.initial_arrays(cfg)
                    report = cd.losses.grad_check(
                        closure, arrays, n_probes=GRAD_PROBES, seed=self.seed
                    )
                except Exception as exc:  # a failing program fails the probe
                    failed += 1
                    problems.append(f"grad_check {task}/{mode}: raised {exc!r}")
                    continue
                if not report.max_rel_err < GRAD_CHECK_LIMIT:
                    failed += 1
                    problems.append(
                        f"grad_check {task}/{mode}: max_rel_err {report.max_rel_err:.3e}"
                    )
        return attempted, failed, problems

    def named_metrics(self, results):
        return {
            "train_csts_ex_per_s": (results["a_per_s"], "1/s"),
            "train_kgc_ex_per_s": (results["b_per_s"], "1/s"),
        }


# -- eval-paper -----------------------------------------------------------------------------


class EvalPaper(Workload):
    """Filtered KGC ranking (phase a) and C-STS evaluation (phase b), paper scale."""

    name = "eval-paper"

    def load(self):
        cd, d = self.cd, self.data
        self.params, _ = cd.hypernet.load_checkpoint(d / inp.CHECKPOINT)
        self.kg_provider = cd.encoder.StoreProvider(cd.encoder.load_embeddings(d / inp.KG_EMB))
        self.csts_provider = cd.encoder.StoreProvider(cd.encoder.load_embeddings(d / inp.CSTS_EMB))
        splits = {s: cd.trainer.load_kg_tsv(d / f"{s}.tsv") for s in inp.KG_SPLITS}
        self.quads = cd.trainer.load_csts_jsonl(d / inp.CSTS_DATA)
        self.known = [t for s in inp.KG_SPLITS for t in splits[s]]
        self.entities = sorted({e for t in self.known for e in (t.h, t.t)})
        m = self.sizes.eval_triples_per_call
        test = splits["test"]
        self.slices = [test[i : i + m] for i in range(0, len(test), m)]

    def round_a(self, k: int) -> Round:
        part = self.slices[k % len(self.slices)]
        metrics = self.cd.evaluation.evaluate_kgc(
            self.params,
            self.wrap_provider(self.kg_provider),
            part,
            self.known,
            self.entities,
            ks=KS,
        )
        return Round(ops=2 * len(part), units=2 * len(part), output=(k, metrics))

    def round_b(self, k: int) -> Round:
        metrics = self.cd.evaluation.evaluate_csts(
            self.params, self.wrap_provider(self.csts_provider), self.quads
        )
        if self.end_op:
            self.end_op()
        return Round(ops=len(self.quads), units=len(self.quads), output=metrics)

    @cached_property
    def _slice_bounds(self) -> list:
        """Reference rank bounds for every slice of the test split."""
        ref = checks.KgcReference(
            checks.LowrankCheckpoint(self.data / inp.CHECKPOINT),
            checks.read_embeddings(self.data / inp.KG_EMB),
            [t for s in inp.KG_SPLITS for t in checks.read_triples(self.data / f"{s}.tsv")],
            self.entities,
        )
        return [ref.bounds([(t.h, t.r, t.t) for t in part]) for part in self.slices]

    @cached_property
    def _csts_reference(self) -> dict:
        return checks.csts_reference(
            checks.LowrankCheckpoint(self.data / inp.CHECKPOINT),
            checks.read_embeddings(self.data / inp.CSTS_EMB),
            checks.read_jsonl(self.data / inp.CSTS_DATA),
        )

    def check_a(self, rounds):
        out = []
        for r in rounds:
            k, metrics = r.output
            bounds = self._slice_bounds[k % len(self.slices)]
            out.append(checks.check_kgc_metrics(metrics, bounds, KS))
        return out

    def check_b(self, rounds):
        return [checks.check_csts_metrics(r.output, self._csts_reference) for r in rounds]

    def named_metrics(self, results):
        return {
            "eval_kgc_queries_per_s": (results["a_per_s"], "1/s"),
            "eval_csts_ex_per_s": (results["b_per_s"], "1/s"),
        }


# -- serve-stream ---------------------------------------------------------------------------


class ServeStream(Workload):
    """The same request stream served by ``hyper`` (phase a) and ``bi`` (phase b)."""

    name = "serve-stream"
    ARCH = {"a": "hyper", "b": "bi"}

    def load(self):
        cd, d = self.cd, self.data
        self.params, _ = cd.hypernet.load_checkpoint(d / inp.CHECKPOINT)
        with (d / inp.REQUESTS).open("r", encoding="utf-8") as fh:
            self.requests = [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]
        self.provider = cd.encoder.HashingProvider(
            dim=self.params.nh, seed=0, rounds=self.sizes.serve_heavy_rounds
        )
        rng = np.random.default_rng([self.seed, 11])
        n = min(self.sizes.serve_sample, len(self.requests))
        self.sample = sorted(int(i) for i in rng.choice(len(self.requests), size=n, replace=False))
        self._refs: dict[str, list[np.ndarray]] = {}

    def _serve(self, architecture: str) -> Round:
        clock = _clock
        times: list[float] = []
        captured: dict[int, np.ndarray] = {}
        sample = set(self.sample)
        end_op = self.end_op

        def sink(vec):
            i = len(times)
            times.append(clock())
            if i in sample:
                captured[i] = np.array(vec, dtype=np.float64)
            if end_op:
                end_op()

        start = clock()
        stats = self.cd.cache.run_architecture(
            architecture,
            self.requests,
            self.wrap_provider(self.provider),
            params=self.params if architecture == "hyper" else None,
            sink=sink,
        )
        latencies = list(np.diff(np.array([start] + times))) if times else []
        n = len(self.requests)
        return Round(
            ops=n, units=n, output=(stats, len(times), captured), latencies=latencies
        )

    def round_a(self, k: int) -> Round:
        return self._serve("hyper")

    def round_b(self, k: int) -> Round:
        return self._serve("bi")

    def _references(self, architecture: str) -> list[np.ndarray]:
        """Reference outputs for the sampled requests, computed once per architecture.

        Embeddings come from a fresh provider, so nothing cached in the run is reused.
        """
        if architecture in self._refs:
            return self._refs[architecture]
        embed = self.cd.encoder.HashingProvider(
            dim=self.params.nh, seed=0, rounds=self.sizes.serve_heavy_rounds
        ).embed
        picked = [self.requests[i] for i in self.sample]
        if architecture == "bi":
            sep = getattr(self.cd.cache, "JOINT_KEY_SEP", "\x1f")
            refs = [embed(s + sep + c) for s, c in picked]
        else:
            conditions = sorted({c for _, c in picked})
            ckpt = checks.LowrankCheckpoint(self.data / inp.CHECKPOINT)
            ops = dict(zip(conditions, ckpt.factors(np.stack([embed(c) for c in conditions]))))
            refs = [ops[c][0] @ (ops[c][1].T @ embed(s)) for s, c in picked]
        self._refs[architecture] = refs
        return refs

    def _check(self, phase: str, rounds: list[Round]) -> list[list[str]]:
        architecture = self.ARCH[phase]
        n = len(self.requests)
        if architecture == "hyper":
            lookups = 2 * n
            misses = len({s for s, _ in self.requests}) + len({c for _, c in self.requests})
        else:
            lookups = n
            misses = len(set(self.requests))
        refs = self._references(architecture)
        out = []
        for r in rounds:
            stats, sunk, captured = r.output
            problems = checks.check_cache_counts(stats, lookups, misses)
            if sunk != n:
                problems.append(f"{sunk} outputs for {n} requests")
            problems += checks.check_vectors([captured.get(i) for i in self.sample], refs)
            out.append([f"{architecture}: {p}" for p in problems])
        return out

    def check_a(self, rounds):
        return self._check("a", rounds)

    def check_b(self, rounds):
        return self._check("b", rounds)

    def layer_counts(self, rounds):
        out = {}
        for phase, architecture in self.ARCH.items():
            if not rounds[phase]:
                continue  # every round of the phase raised; its counters stay 0
            stats = rounds[phase][0].output[0]
            for key in (
                "lookups",
                "hits",
                "misses",
                "heavy_ops",
                "gen_ops",
                "light_ops",
                "resident_bytes",
            ):
                out[f"cache.{architecture}.{key}"] = float(getattr(stats, key))
            out[f"cache.{architecture}.hit_ratio"] = (
                stats.hits / stats.lookups if stats.lookups else 0.0
            )
        return out

    def named_metrics(self, results):
        out = {"serve_hyper_req_per_s": (results["a_per_s"], "1/s")}
        lat = np.array(results["latencies_a"]) * 1e6
        if lat.size:  # no latencies when every hyper round raised
            out["serve_hyper_req_us_p50"] = (float(np.percentile(lat, 50)), "us")
            out["serve_hyper_req_us_p99"] = (float(np.percentile(lat, 99)), "us")
        out["serve_bi_req_per_s"] = (results["b_per_s"], "1/s")
        return out


WORKLOADS = {w.name: w for w in (TrainSmall, EvalPaper, ServeStream)}
