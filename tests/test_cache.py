import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condcl.cache import (
    TextKeyedCache,
    WorkloadSpec,
    bench_report,
    bench_rows_to_tsv,
    cached_embed,
    cached_operator,
    full_cross_requests,
    run_architecture,
    simulate_workload,
)
from condcl.encoder import HashingProvider
from condcl.hypernet import init_params


def replay_oracle(requests_keys):
    """Independent hash-set simulation of an unbounded cache."""
    seen = set()
    hits = misses = 0
    for k in requests_keys:
        if k in seen:
            hits += 1
        else:
            misses += 1
            seen.add(k)
    return hits, misses, len(seen)


class TestCachedEmbed:
    def test_miss_then_hit(self):
        cache = TextKeyedCache()
        provider = HashingProvider(dim=8, seed=0)
        a = cached_embed(cache, provider, "x")
        b = cached_embed(cache, provider, "x")
        assert np.array_equal(a, b)
        s = cache.stats
        assert (s.lookups, s.hits, s.misses, s.heavy_ops) == (2, 1, 1, 1)

    def test_resident_bytes_accounting(self):
        cache = TextKeyedCache()
        provider = HashingProvider(dim=16, seed=0)
        for i in range(5):
            cached_embed(cache, provider, f"text-{i}")
        assert cache.stats.resident_bytes == 5 * 16 * 8
        assert cache.stats.key_bytes == sum(len(f"text-{i}") for i in range(5))

    def test_stats_match_replay_oracle(self):
        rng = np.random.default_rng(3)
        texts = [f"t{rng.integers(0, 20)}" for _ in range(200)]
        cache = TextKeyedCache()
        provider = HashingProvider(dim=8, seed=0)
        for t in texts:
            cached_embed(cache, provider, t)
        hits, misses, distinct = replay_oracle(texts)
        s = cache.stats
        assert (s.hits, s.misses, s.heavy_ops) == (hits, misses, misses)
        assert len(cache) == distinct


class TestCachedOperator:
    def test_full_mode_bytes_per_condition(self):
        nh = 12
        cache = TextKeyedCache()
        provider = HashingProvider(dim=nh, seed=0)
        params = init_params("full", nh, seed=0)
        cached_operator(cache, params, provider, "c1")
        assert cache.stats.resident_bytes == nh * nh * 8
        assert cache.stats.gen_ops == 1
        assert cache.stats.heavy_ops == 1

    def test_lowrank_bytes_ratio(self):
        nh, nk = 16, 2
        cache_full = TextKeyedCache()
        cache_low = TextKeyedCache()
        provider = HashingProvider(dim=nh, seed=0)
        cached_operator(cache_full, init_params("full", nh, seed=0), provider, "c1")
        cached_operator(cache_low, init_params("lowrank", nh, nk, seed=0), provider, "c1")
        assert cache_low.stats.resident_bytes == 2 * nh * nk * 8
        ratio = cache_low.stats.resident_bytes / cache_full.stats.resident_bytes
        assert ratio == pytest.approx(2 * nk / nh)

    def test_hit_returns_identical_object(self):
        cache = TextKeyedCache()
        provider = HashingProvider(dim=8, seed=0)
        params = init_params("full", 8, seed=0)
        op1 = cached_operator(cache, params, provider, "c")
        op2 = cached_operator(cache, params, provider, "c")
        assert op1 is op2
        assert cache.stats.heavy_ops == 1

    def test_requires_generating_mode(self):
        cache = TextKeyedCache()
        provider = HashingProvider(dim=8, seed=0)
        with pytest.raises(ValueError):
            cached_operator(cache, init_params("hadamard", 8), provider, "c")


class TestSimulateWorkload:
    def test_full_cross_counting(self):
        S, C = 10, 5
        requests = full_cross_requests(S, C)
        bi = simulate_workload(WorkloadSpec("bi", requests), nh=8)
        tri = simulate_workload(WorkloadSpec("tri", requests), nh=8)
        assert bi.hits == 0
        assert bi.heavy_ops == S * C
        assert bi.hit_rate == 0.0
        assert tri.misses == S + C
        assert tri.heavy_ops == S + C
        assert tri.hit_rate == pytest.approx(1 - (S + C) / (2 * S * C))

    def test_double_replay_rates(self):
        S, C = 10, 5
        requests = full_cross_requests(S, C, replays=2)
        bi = simulate_workload(WorkloadSpec("bi", requests), nh=8)
        tri = simulate_workload(WorkloadSpec("tri", requests), nh=8)
        assert bi.hit_rate == pytest.approx(0.5)
        assert tri.hit_rate == pytest.approx(1 - (S + C) / (4 * S * C))

    def test_single_request_all_miss(self):
        requests = [("s", "c")]
        for arch in ("bi", "tri", "hyper"):
            st = simulate_workload(WorkloadSpec(arch, requests), nh=8, nk=2)
            assert st.hits == 0
            assert st.misses == st.lookups

    def test_hyper_stores_operators(self):
        requests = full_cross_requests(3, 2)
        nh = 8
        full = simulate_workload(WorkloadSpec("hyper", requests), nh=nh)
        low = simulate_workload(WorkloadSpec("hyper", requests), nh=nh, nk=2)
        tri = simulate_workload(WorkloadSpec("tri", requests), nh=nh)
        assert full.resident_bytes == 3 * nh * 8 + 2 * nh * nh * 8
        assert low.resident_bytes == 3 * nh * 8 + 2 * (2 * nh * 2) * 8
        assert tri.resident_bytes == 5 * nh * 8
        assert full.gen_ops == 2

    def test_tri_heavy_never_exceeds_bi(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            requests = [
                (f"s{rng.integers(0, 6)}", f"c{rng.integers(0, 4)}") for _ in range(50)
            ]
            bi = simulate_workload(WorkloadSpec("bi", requests), nh=4)
            tri = simulate_workload(WorkloadSpec("tri", requests), nh=4)
            assert tri.heavy_ops <= bi.heavy_ops

    def test_relabeling_invariance(self):
        requests = [("a", "x"), ("b", "x"), ("a", "y"), ("a", "x")]
        renamed = [("sent one", "CX"), ("other", "CX"), ("sent one", "CY"), ("sent one", "CX")]
        for arch in ("bi", "tri", "hyper"):
            a = simulate_workload(WorkloadSpec(arch, requests), nh=8, nk=2)
            b = simulate_workload(WorkloadSpec(arch, renamed), nh=8, nk=2)
            assert a.hit_rate == b.hit_rate
            assert (a.hits, a.misses) == (b.hits, b.misses)

    def test_hyper_keeps_sentence_and_condition_keys_apart(self):
        requests = [("x", "x"), ("y", "x"), ("x", "y")]
        hyper = simulate_workload(WorkloadSpec("hyper", requests), nh=8)
        tri = simulate_workload(WorkloadSpec("tri", requests), nh=8)
        assert (hyper.gen_ops, hyper.heavy_ops, hyper.misses) == (2, 4, 4)
        assert (tri.gen_ops, tri.heavy_ops, tri.misses) == (0, 2, 2)

    def test_unbounded_misses_equal_distinct_keys(self):
        rng = np.random.default_rng(6)
        requests = [(f"s{rng.integers(0, 9)}", f"c{rng.integers(0, 3)}") for _ in range(300)]
        bi = simulate_workload(WorkloadSpec("bi", requests), nh=4)
        joint = {s + "\x1f" + c for s, c in requests}
        assert bi.misses == len(joint)
        tri = simulate_workload(WorkloadSpec("tri", requests), nh=4)
        texts = {t for sc in requests for t in sc}
        assert tri.misses == len(texts)


TEXTS = ("x", "y", "z", "x y")


class TestRunArchitecture:
    @given(
        requests=st.lists(
            st.tuples(st.sampled_from(TEXTS), st.sampled_from(TEXTS)), min_size=1, max_size=12
        ),
        nk=st.sampled_from([None, 2]),
    )
    @example(requests=full_cross_requests(6, 3, replays=2), nk=None)
    @settings(max_examples=40, deadline=None)
    def test_execution_matches_simulation(self, requests, nk):
        # Sentences and conditions share one small alphabet, so texts recur in both roles.
        provider = HashingProvider(dim=8, seed=1)
        params = init_params("lowrank" if nk else "full", 8, nk, seed=0)
        for arch in ("bi", "tri", "hyper"):
            executed = run_architecture(arch, requests, provider, params=params)
            simulated = simulate_workload(WorkloadSpec(arch, requests), nh=8, nk=nk)
            assert executed.lookups == simulated.lookups
            assert executed.hits == simulated.hits
            assert executed.misses == simulated.misses
            assert executed.heavy_ops == simulated.heavy_ops
            assert executed.light_ops == simulated.light_ops
            assert executed.gen_ops == simulated.gen_ops
            assert executed.resident_bytes == simulated.resident_bytes

    def test_hyper_needs_params(self):
        with pytest.raises(ValueError):
            run_architecture("hyper", [("s", "c")], HashingProvider(dim=4, seed=0))


class TestBenchReport:
    def test_rows_and_tsv_shape(self):
        requests = full_cross_requests(4, 3)
        provider = HashingProvider(dim=8, seed=0)
        rows = bench_report(
            WorkloadSpec("tri", requests),
            [init_params("full", 8, seed=0), init_params("lowrank", 8, 2, seed=0)],
            provider,
        )
        assert [r.architecture for r in rows] == ["bi", "tri", "hyper-full", "hyper-lowrank"]
        tsv = bench_rows_to_tsv(rows)
        lines = tsv.strip().split("\n")
        assert lines[0].split("\t") == [
            "architecture",
            "requests",
            "heavy_ops",
            "light_ops",
            "hits",
            "misses",
            "hit_rate",
            "resident_bytes",
            "wall_ms",
        ]
        assert len(lines) == 5

    def test_tri_hit_rate_beats_bi_with_shared_conditions(self):
        requests = full_cross_requests(5, 3)
        provider = HashingProvider(dim=8, seed=0)
        rows = bench_report(WorkloadSpec("tri", requests), init_params("full", 8, seed=0), provider)
        by_arch = {r.architecture: r.stats for r in rows}
        assert by_arch["tri"].hit_rate > by_arch["bi"].hit_rate

    def test_repetitions_scale_wall_time_roughly_linearly(self):
        requests = full_cross_requests(8, 4, replays=2)
        provider = HashingProvider(dim=32, seed=0, rounds=96)
        params = init_params("full", 32, seed=0)
        spec = WorkloadSpec("tri", requests)

        def wall(reps):
            rows = bench_report(spec, params, provider, repetitions=reps)
            return sum(r.wall_ms for r in rows)

        wall(1)  # warm caches of the allocator and hash layer
        w1 = wall(1)
        w4 = wall(4)
        assert 2.0 <= w4 / w1 <= 6.0
