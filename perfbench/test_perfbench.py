"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cd():
    return run.import_condcl()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(cd, workload, trace):
    out = run.run(cd, workload, seed=3, seconds=0.2, trace=trace, sizes=inputs.TINY)
    result = out["result"]
    assert out["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(out["named"]) <= {
        "setup_s",
        "peak_rss_mb",
        "train_csts_ex_per_s",
        "train_kgc_ex_per_s",
        "eval_kgc_queries_per_s",
        "eval_csts_ex_per_s",
        "serve_hyper_req_per_s",
        "serve_hyper_req_us_p50",
        "serve_hyper_req_us_p99",
        "serve_bi_req_per_s",
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_a_raising_program_is_reported_not_crashed(cd, monkeypatch, workload, trace):
    def broken(self, k):
        raise RuntimeError("broken program")

    monkeypatch.setattr(workloads.WORKLOADS[workload], "round_a", broken)
    out = run.run(cd, workload, seed=3, seconds=0.2, trace=trace, sizes=inputs.TINY)
    result = out["result"]
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("broken program" in p for p in out["problems"])
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"] for m in spec} == set(result["metrics"])


def test_request_stream_has_the_calibrated_cache_mix():
    """hyper misses about 9.3% of its lookups and bi about 34.4% (see Sizes)."""
    sizes = inputs.Sizes()
    for seed in (101, 102, 103):
        stream = inputs.request_stream(sizes, seed)
        n = len(stream)
        hyper = (len({s for s, _ in stream}) + len({c for _, c in stream})) / (2 * n)
        bi = len(set(stream)) / n
        assert abs(hyper - 0.093) < 0.005, hyper
        assert abs(bi - 0.344) < 0.02, bi


def test_kgc_training_set_has_the_same_size_for_every_seed(cd, tmp_path):
    """train-small trains on ``train_kg_triples`` triples whatever the seed (see Sizes)."""
    for seed in (0, 5, 6):  # the generator gives 36, 30 and 30 train triples here
        out = tmp_path / str(seed)
        inputs.make_inputs("train-small", seed, inputs.TINY, out)
        assert len(cd.trainer.load_kg_tsv(out / "train.tsv")) == inputs.TINY.train_kg_triples


def test_traced_run_restores_every_wrapped_function(cd):
    before = {
        (mod.__name__, name): getattr(mod, name)
        for mod in (cd.evaluation, cd.cache, cd.trainer, cd.autodiff, cd.encoder, cd.hypernet)
        for name in dir(mod)
        if callable(getattr(mod, name))
    }
    init = cd.autodiff.Tensor.__init__
    t = tracer.Tracer()
    tracer.instrument(t, cd)
    assert cd.evaluation.evaluate_kgc is not before[("condcl.evaluation", "evaluate_kgc")]
    t.restore()
    after = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
    assert after == before
    assert cd.autodiff.Tensor.__init__ is init


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    outer = t._begin("outer")
    inner = t._begin("inner")
    t._end(inner)
    t._end(outer)
    t.span_start[outer], t.span_end[outer] = 0.0, 10.0
    t.span_start[inner], t.span_end[inner] = 2.0, 5.0
    assert t.self_times() == {"outer": 7.0, "inner": 3.0}


# -- each checker rejects a perturbed result --------------------------------------------


def metrics_from_ranks(ranks, ks) -> dict:
    """evaluate_kgc's aggregates, as the program computes them from ranks."""
    r = np.asarray(ranks, dtype=np.float64)
    return {
        "mrr": float(np.mean(1.0 / r)),
        "hits": {int(k): float(np.mean(r <= k)) for k in ks},
        "queries": len(ranks),
    }


def test_rank_check_rejects_a_shifted_rank():
    rng = np.random.default_rng(0)
    names = [f"e{i}" for i in range(50)]
    bounds, ranks = [], []
    for gold in range(6):
        scores = rng.normal(size=50)
        removed = np.zeros(50, dtype=bool)
        removed[[10, 11]] = True
        bounds.append(checks.rank_bounds(scores, gold, removed))
        ranks.append(checks.exact_rank(scores, gold, removed, names))
    ks = (1, 3, 10)
    assert checks.check_ranks(ranks, bounds) == []
    assert checks.check_kgc_metrics(metrics_from_ranks(ranks, ks), bounds, ks) == []
    shifted = list(ranks)
    shifted[2] += 1
    assert checks.check_ranks(shifted, bounds)
    assert checks.check_kgc_metrics(metrics_from_ranks(shifted, ks), bounds, ks)


def test_rank_bounds_admit_only_near_ties():
    scores = np.array([0.5, 0.5 + 5e-10, 0.9, 0.1])
    removed = np.zeros(4, dtype=bool)
    assert checks.rank_bounds(scores, 0, removed) == (2, 3)
    removed[2] = True
    assert checks.rank_bounds(scores, 0, removed) == (1, 2)


def test_vector_check_rejects_a_perturbed_output():
    rng = np.random.default_rng(1)
    refs = [rng.normal(size=8) for _ in range(4)]
    outputs = [r.copy() for r in refs]
    assert checks.check_vectors(outputs, refs) == []
    outputs[1][3] += 1e-9
    assert checks.check_vectors(outputs, refs)
    assert checks.check_vectors(outputs[:3], refs)


def test_cache_check_rejects_a_miscounted_miss_total(cd):
    stats = cd.cache.CacheStats(lookups=10, hits=6, misses=4)
    assert checks.check_cache_counts(stats, lookups=10, misses=4) == []
    assert checks.check_cache_counts(stats, lookups=10, misses=5)
    stats.misses = 5
    assert checks.check_cache_counts(stats, lookups=10, misses=4)


def test_loss_check_rejects_non_finite_and_unrepeatable_losses():
    assert checks.check_losses([0.5], [0.5]) == []
    assert checks.check_losses([float("nan")], None)
    assert checks.check_losses([0.5], [0.5000000001])


def test_csts_check_rejects_a_shifted_correlation():
    ref = {"spearman": 0.8, "pearson": 0.7}
    assert checks.check_csts_metrics(dict(ref), ref) == []
    assert checks.check_csts_metrics({"spearman": 0.8, "pearson": 0.7 + 1e-6}, ref)


def test_reference_ranks_match_the_program(cd, tmp_path):
    """The independent reference agrees with rank_entities query by query."""
    sizes = inputs.TINY
    inputs.make_inputs("eval-paper", 5, sizes, tmp_path)
    wl = workloads.EvalPaper(cd, sizes, 5, tmp_path)
    wl.load()
    triples = [(t.h, t.r, t.t) for t in wl.known]
    ref = checks.KgcReference(
        checks.LowrankCheckpoint(tmp_path / inputs.CHECKPOINT),
        checks.read_embeddings(tmp_path / inputs.KG_EMB),
        triples,
        wl.entities,
    )
    tails, heads = {}, {}
    for h, r, t in triples:
        tails.setdefault((h, r), set()).add(t)
        heads.setdefault((t, r), set()).add(h)
    got = []
    part = wl.slices[0]
    for t in part:
        for query, gold, known, direction in (
            ((t.h, t.r), t.t, tails[(t.h, t.r)], "tail"),
            ((t.t, t.r), t.h, heads[(t.t, t.r)], "head"),
        ):
            res = cd.evaluation.rank_entities(
                wl.params, wl.kg_provider, query, gold, wl.entities, known, direction
            )
            got.append(res.gold_rank)
    part_triples = [(t.h, t.r, t.t) for t in part]
    assert checks.check_ranks(got, ref.bounds(part_triples)) == []
    assert got == ref.ranks(part_triples)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
