import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condcl import hypernet
from condcl.cache import (
    COMPOSE_BLOCK,
    JOINT_KEY_SEP,
    CacheStats,
    _cached,
    bench_report,
    bench_rows_to_tsv,
    full_cross_requests,
    run_architecture,
)
from condcl.encoder import HashingProvider
from condcl.errors import DimensionMismatchError
from condcl.hypernet import (
    apply_stack,
    generate_stack,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

FLOAT_BYTES = 8
COMPOSE_TOL = 1e-12  # served rows against per-request formulas, relative


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


def simulate_workload(
    architecture: str, requests: list[tuple[str, str]], nh: int, nk: int | None = None
) -> CacheStats:
    """Count cache traffic and heavy/light operations without executing.

    Mirrors the key resolution of ``condcl.cache``: bi does one
    joint-keyed lookup per request; tri and hyper do two lookups (sentence
    key, condition key) and one light composition per request. Tri keeps every text in one cache.
    Hyper keeps conditions in a cache of their own, as operators rather
    than embeddings (dense nh^2 floats, or 2*nh*nk when a rank is given), so
    a text used both as a sentence and as a condition misses in each.
    """
    if nh <= 0:
        raise ValueError("nh must be positive")
    stats = CacheStats()
    texts: set[str] = set()
    conditions = set() if architecture == "hyper" else texts
    cond_bytes = (2 * nh * nk if nk else nh * nh) * FLOAT_BYTES
    for s, c in requests:
        if architecture == "bi":
            keyed = [(s + JOINT_KEY_SEP + c, texts)]
        else:
            keyed = [(s, texts), (c, conditions)]
            stats.light_ops += 1
        for key, keys in keyed:
            stats.lookups += 1
            if key in keys:
                stats.hits += 1
                continue
            stats.misses += 1
            stats.heavy_ops += 1
            stats.key_bytes += len(key.encode("utf-8"))
            keys.add(key)
            if keys is not texts:
                stats.gen_ops += 1
                stats.resident_bytes += cond_bytes
            else:
                stats.resident_bytes += nh * FLOAT_BYTES
    return stats


def cached_embeddings(stats, provider, texts):
    return _cached(stats, texts, lambda missing: np.stack([provider.embed(t) for t in missing]))


class TestCached:
    def test_miss_then_hit(self):
        stats = CacheStats()
        provider = HashingProvider(dim=8, seed=0)
        vecs, index = cached_embeddings(stats, provider, ["x", "x"])
        assert index.tolist() == [0, 0] and np.array_equal(vecs, [provider.embed("x")])
        assert (stats.lookups, stats.hits, stats.misses, stats.heavy_ops) == (2, 1, 1, 1)

    def test_resident_bytes_accounting(self):
        stats = CacheStats()
        provider = HashingProvider(dim=16, seed=0)
        cached_embeddings(stats, provider, [f"text-{i}" for i in range(5)])
        assert stats.resident_bytes == 5 * 16 * 8
        assert stats.key_bytes == sum(len(f"text-{i}") for i in range(5))

    def test_stats_match_replay_oracle(self):
        rng = np.random.default_rng(3)
        texts = [f"t{rng.integers(0, 20)}" for _ in range(200)]
        made = []

        def make(missing):
            made.append(list(missing))
            return np.stack([np.full(3, float(t[1:])) for t in missing])

        s = CacheStats()
        values, index = _cached(s, texts, make, gen_ops=2)
        hits, misses, distinct = replay_oracle(texts)
        assert (s.lookups, s.hits, s.misses, s.heavy_ops) == (200, hits, misses, misses)
        # One make call, over the distinct keys in first-seen order.
        assert made == [list(dict.fromkeys(texts))] and len(made[0]) == distinct
        assert s.gen_ops == 2 * distinct and s.resident_bytes == distinct * 3 * FLOAT_BYTES
        # Each key's index names its row: one row per distinct key, first seen first.
        assert index.tolist() == [made[0].index(t) for t in texts]
        assert values[:, 0].tolist() == [float(t[1:]) for t in made[0]]

    def test_an_empty_stream_makes_nothing(self):
        provider = HashingProvider(dim=8, seed=0)
        params = init_params("full", 8, seed=0)
        for arch in ("bi", "tri", "hyper"):
            assert run_architecture(arch, [], provider, params, pytest.fail) == CacheStats()

    def test_concurrent_runs_count_and_serve_as_one_run(self):
        # Each run_architecture call owns its own key spaces and stats.
        requests = [(f"s{(i * 7) % 50}", f"c{i % 40}") for i in range(400)]
        provider = HashingProvider(dim=8, seed=0)
        params = init_params("lowrank", 8, 2, seed=0)
        alone = []
        want = run_architecture("hyper", requests, provider, params, alone.append)
        results = []

        def worker():
            served = []
            stats = run_architecture("hyper", requests, provider, params, served.append)
            results.append((stats, served))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and len(results) == 4
        for stats, served in results:
            assert stats == want
            assert all(np.array_equal(a, b) for a, b in zip(served, alone, strict=True))


CONDITIONS = ("x", "y", "x y", *(f"c{i}" for i in range(hypernet.GENERATE_BLOCK + 3)))


def operator_formula(params, h_c):
    """One condition's generated arrays by the per-condition formula:
    (W,) for full, (W1, W2) for lowrank."""
    t, nh, nk = params.tensors, params.nh, params.nk
    if params.mode == "full":
        return ((t["U"] @ h_c + t["U_bias"]).reshape(nh, nh),)
    return tuple((t[u] @ h_c + t[u + "_bias"]).reshape(nh, nk) for u in ("U1", "U2"))


def composition_formula(arch, params, h_s, h_c):
    """One request's served vector by the per-request formula."""
    if arch == "tri":
        return h_c * h_s
    arrays = operator_formula(params, h_c)
    return arrays[0] @ h_s if params.mode == "full" else arrays[0] @ (arrays[1].T @ h_s)


def assert_rel_close(out, want):
    """Equal within COMPOSE_TOL of the reference's largest entry."""
    assert out.shape == want.shape
    assert np.max(np.abs(out - want)) <= COMPOSE_TOL * np.max(np.abs(want))


def recording(applied):
    """apply_stack, appending each operator it applies to ``applied``."""

    def apply(op, rows, which, mask=None):
        applied.append(op)
        return apply_stack(op, rows, which, mask)

    return apply


def hyper_stats(params, provider, requests, **patches):
    with mock.patch.multiple("condcl.cache", **patches):
        return run_architecture("hyper", requests, provider, params)


class TestHyperOperators:
    def test_full_mode_bytes_per_condition(self):
        nh = 12
        provider = HashingProvider(dim=nh, seed=0)
        stats = run_architecture("hyper", [("s", "c1")], provider, init_params("full", nh, seed=0))
        assert stats.resident_bytes == nh * 8 + nh * nh * 8
        assert stats.gen_ops == 1
        assert stats.heavy_ops == 2

    def test_lowrank_bytes_ratio(self):
        nh, nk = 16, 2
        provider = HashingProvider(dim=nh, seed=0)
        full = run_architecture("hyper", [("s", "c1")], provider, init_params("full", nh, seed=0))
        low = run_architecture("hyper", [("s", "c1")], provider, init_params("lowrank", nh, nk))
        assert low.resident_bytes - nh * 8 == 2 * nh * nk * 8
        ratio = (low.resident_bytes - nh * 8) / (full.resident_bytes - nh * 8)
        assert ratio == pytest.approx(2 * nk / nh)

    @pytest.mark.parametrize("mode,nk", [("full", None), ("lowrank", 2)])
    def test_a_loaded_checkpoint_is_generated_for_every_run(self, tmp_path, mode, nk):
        # Serving generates with generate_stack, not from generate_blocks' memo of
        # frozen params, so its counted misses and gen_ops are the work it does.
        nh = 6
        save_checkpoint(tmp_path / "m.ckpt", init_params(mode, nh, nk, seed=0))
        params, _ = load_checkpoint(tmp_path / "m.ckpt")
        provider = HashingProvider(dim=nh, seed=3)
        requests = [("s1", "c1"), ("s2", "c2"), ("s1", "c2"), ("s3", "c1"), ("s2", "c3")]
        generated = []

        def generating(mode, tensors, H):
            generated.append(len(H))
            return generate_stack(mode, tensors, H)

        for _ in range(2):
            s = hyper_stats(params, provider, requests, generate_stack=generating)
            assert (s.gen_ops, s.misses) == (3, 3 + 3)  # 3 conditions, 3 sentences
        assert generated == [3, 3]

    def test_hit_returns_identical_object(self):
        # Two compose blocks, so the one condition's operator is applied twice.
        applied = []
        provider = HashingProvider(dim=8, seed=0)
        requests = [("s", "c")] * (COMPOSE_BLOCK + 1)
        params = init_params("full", 8, seed=0)
        stats = hyper_stats(params, provider, requests, apply_stack=recording(applied))
        assert len(applied) == 2 and applied[0] is applied[1]
        assert (stats.heavy_ops, stats.gen_ops) == (2, 1)

    def test_a_provider_of_another_width_is_refused(self):
        params = init_params("full", 8, seed=0)
        with pytest.raises(DimensionMismatchError, match="^h_c has dim 6, generator expects 8$"):
            run_architecture("hyper", [("s", "c")], HashingProvider(dim=6, seed=0), params)

    @pytest.mark.parametrize("mode", ["full", "lowrank"])
    def test_serving_holds_one_block_of_rows_at_a_time(self, mode):
        # Four blocks over few distinct texts, so resident bytes are small: gathering
        # the whole stream's sentence rows at once would hold three blocks more.
        nh = 256
        params = init_params(mode, nh, 8, seed=0)
        provider = HashingProvider(dim=nh, seed=0)
        requests = [(f"s{i % 16}", f"c{i % 5}") for i in range(4 * COMPOSE_BLOCK)]
        tracemalloc.start()
        try:
            stats = run_architecture("hyper", requests, provider, params, lambda row: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stats.resident_bytes + 3 * COMPOSE_BLOCK * nh * FLOAT_BYTES

    @pytest.mark.parametrize("mode", [None, "hadamard", "concat"])
    def test_requires_generating_params(self, mode):
        params = init_params(mode, 8) if mode else None
        with pytest.raises(ValueError, match="full or lowrank"):
            run_architecture("hyper", [("s", "c")], HashingProvider(dim=8, seed=0), params)

    @given(
        texts=st.lists(st.sampled_from(CONDITIONS), min_size=1, max_size=60),
        nk=st.sampled_from([None, 2]),
    )
    @example(texts=[*CONDITIONS, "x", "c1", "c1"], nk=2)
    @example(texts=[*CONDITIONS, *CONDITIONS], nk=None)
    @settings(max_examples=60, deadline=None)
    def test_conditions_are_generated_once_each_by_the_formula(self, texts, nk):
        # CONDITIONS is larger than GENERATE_BLOCK, so generation can span blocks.
        nh = 6
        provider = HashingProvider(dim=nh, seed=3)
        params = init_params("lowrank" if nk else "full", nh, nk, seed=0)
        generated, applied = [], []

        def generating(mode, tensors, H):
            generated.append(H)
            return generate_stack(mode, tensors, H)

        requests = [("s", t) for t in texts]
        patches = {"generate_stack": generating, "apply_stack": recording(applied)}
        s = hyper_stats(params, provider, requests, **patches)
        hits, misses, distinct = replay_oracle(texts)
        # The one sentence "s" is a key space of its own: one miss, then hits.
        assert (s.lookups, s.hits, s.misses) == (2 * len(texts), hits + len(texts) - 1, misses + 1)
        assert s.heavy_ops == misses + 1 and s.gen_ops == misses
        op_bytes = (2 * nh * nk if nk else nh * nh) * FLOAT_BYTES
        assert s.resident_bytes == distinct * op_bytes + nh * FLOAT_BYTES
        # One generating call over the distinct conditions in first-seen order,
        # and one stack of them applied (one compose block).
        conditions = list(dict.fromkeys(texts))
        assert len(generated) == 1
        assert np.array_equal(generated[0], np.stack([provider.embed(c) for c in conditions]))
        assert len(applied) == 1 and applied[0].shape == (len(conditions), nh)
        for r, t in enumerate(conditions):
            got = [a[r] for a in applied[0].arrays.values()]
            for g, want in zip(got, operator_formula(params, provider.embed(t)), strict=True):
                np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)


class TestSimulateWorkload:
    def test_full_cross_counting(self):
        S, C = 10, 5
        requests = full_cross_requests(S, C)
        bi = simulate_workload("bi", requests, nh=8)
        tri = simulate_workload("tri", requests, nh=8)
        assert bi.hits == 0
        assert bi.heavy_ops == S * C
        assert bi.hit_rate == 0.0
        assert tri.misses == S + C
        assert tri.heavy_ops == S + C
        assert tri.hit_rate == pytest.approx(1 - (S + C) / (2 * S * C))

    def test_double_replay_rates(self):
        S, C = 10, 5
        requests = full_cross_requests(S, C, replays=2)
        bi = simulate_workload("bi", requests, nh=8)
        tri = simulate_workload("tri", requests, nh=8)
        assert bi.hit_rate == pytest.approx(0.5)
        assert tri.hit_rate == pytest.approx(1 - (S + C) / (4 * S * C))

    def test_single_request_all_miss(self):
        requests = [("s", "c")]
        for arch in ("bi", "tri", "hyper"):
            st = simulate_workload(arch, requests, nh=8, nk=2)
            assert st.hits == 0
            assert st.misses == st.lookups

    def test_hyper_stores_operators(self):
        requests = full_cross_requests(3, 2)
        nh = 8
        full = simulate_workload("hyper", requests, nh=nh)
        low = simulate_workload("hyper", requests, nh=nh, nk=2)
        tri = simulate_workload("tri", requests, nh=nh)
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
            bi = simulate_workload("bi", requests, nh=4)
            tri = simulate_workload("tri", requests, nh=4)
            assert tri.heavy_ops <= bi.heavy_ops

    def test_relabeling_invariance(self):
        requests = [("a", "x"), ("b", "x"), ("a", "y"), ("a", "x")]
        renamed = [("sent one", "CX"), ("other", "CX"), ("sent one", "CY"), ("sent one", "CX")]
        for arch in ("bi", "tri", "hyper"):
            a = simulate_workload(arch, requests, nh=8, nk=2)
            b = simulate_workload(arch, renamed, nh=8, nk=2)
            assert a.hit_rate == b.hit_rate
            assert (a.hits, a.misses) == (b.hits, b.misses)

    def test_hyper_keeps_sentence_and_condition_keys_apart(self):
        requests = [("x", "x"), ("y", "x"), ("x", "y")]
        hyper = simulate_workload("hyper", requests, nh=8)
        tri = simulate_workload("tri", requests, nh=8)
        assert (hyper.gen_ops, hyper.heavy_ops, hyper.misses) == (2, 4, 4)
        assert (tri.gen_ops, tri.heavy_ops, tri.misses) == (0, 2, 2)

    def test_unbounded_misses_equal_distinct_keys(self):
        rng = np.random.default_rng(6)
        requests = [(f"s{rng.integers(0, 9)}", f"c{rng.integers(0, 3)}") for _ in range(300)]
        bi = simulate_workload("bi", requests, nh=4)
        joint = {s + "\x1f" + c for s, c in requests}
        assert bi.misses == len(joint)
        tri = simulate_workload("tri", requests, nh=4)
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
            simulated = simulate_workload(arch, requests, nh=8, nk=nk)
            assert executed.lookups == simulated.lookups
            assert executed.hits == simulated.hits
            assert executed.misses == simulated.misses
            assert executed.heavy_ops == simulated.heavy_ops
            assert executed.light_ops == simulated.light_ops
            assert executed.gen_ops == simulated.gen_ops
            assert executed.resident_bytes == simulated.resident_bytes

    @pytest.mark.parametrize("mode", ["full", "lowrank"])
    def test_served_vectors_are_the_composition_formulas(self, mode):
        # Each served vector is its condition's operator (or, for tri, the
        # elementwise product) applied to its sentence: tri to the last bit,
        # hyper within COMPOSE_TOL. A hyper row is exactly the matching row of
        # its condition group's stacked product, which rounds as one gemm
        # where a single row alone would round as a gemv.
        nh, nk = 8, 3
        provider = HashingProvider(dim=nh, seed=2)
        params = init_params(mode, nh, nk, seed=1)
        requests = full_cross_requests(3, 2, replays=2)
        assert len(requests) <= COMPOSE_BLOCK
        conditions = list(dict.fromkeys(c for _, c in requests))
        H = np.stack([provider.embed(c) for c in conditions])
        op = generate_stack(params.mode, params.tensors, H)
        for arch in ("tri", "hyper"):
            served = []
            run_architecture(arch, requests, provider, params=params, sink=served.append)
            assert len(served) == len(requests)
            for i, ((s, c), out) in enumerate(zip(requests, served)):
                h_s, h_c = provider.embed(s), provider.embed(c)
                assert_rel_close(out, composition_formula(arch, params, h_s, h_c))
                if arch == "tri":
                    assert np.array_equal(out, h_c * h_s)
                    continue
                group = [j for j, (_, cj) in enumerate(requests) if cj == c]
                stacked = np.stack([provider.embed(requests[j][0]) for j in group])
                want = apply_stack(op, stacked, conditions.index(c))[group.index(i)]
                assert np.array_equal(out, want)

    @pytest.mark.parametrize("arch, mode", [("hyper", "full"), ("hyper", "lowrank"), ("tri", None)])
    def test_groups_spanning_two_blocks_serve_every_request_in_order(self, arch, mode):
        # Conditions interleave and sentences repeat, so every condition's
        # group has members on both sides of the block boundary.
        nh, nk = 8, 3
        n = COMPOSE_BLOCK + 3
        requests = [(f"s{i % 7}", f"c{i % 3}") for i in range(n)]
        provider = HashingProvider(dim=nh, seed=4)
        params = init_params(mode or "full", nh, nk, seed=2)
        served = []
        stats = run_architecture(arch, requests, provider, params=params, sink=served.append)
        assert len(served) == n
        assert stats.light_ops == n
        nk_oracle = nk if mode == "lowrank" else None
        assert stats == simulate_workload(arch, requests, nh=nh, nk=nk_oracle)
        for (s, c), out in zip(requests, served):
            want = composition_formula(arch, params, provider.embed(s), provider.embed(c))
            assert_rel_close(out, want)

    @pytest.mark.parametrize("arch, mode", [("hyper", "full"), ("hyper", "lowrank"), ("tri", None)])
    def test_each_compose_block_is_one_apply_stack_call(self, arch, mode, monkeypatch):
        # Counted, not timed: composing per condition or per request would make more calls.
        requests = full_cross_requests(5, 3, replays=2) * (COMPOSE_BLOCK // 30 + 1)
        n = len(requests)
        assert COMPOSE_BLOCK < n <= 2 * COMPOSE_BLOCK
        calls = []

        def counting(op, rows, which, mask=None):
            calls.append(len(rows))
            return apply_stack(op, rows, which, mask)

        monkeypatch.setattr("condcl.cache.apply_stack", counting)
        params = init_params(mode or "full", 8, 3, seed=0)
        served = []
        run_architecture(arch, requests, HashingProvider(dim=8, seed=0), params, served.append)
        assert calls == [COMPOSE_BLOCK, n - COMPOSE_BLOCK]
        assert len(served) == n

    def test_tri_refuses_a_non_finite_condition_vector(self):
        # Rows are checked where they enter apply_stack; tri's condition side is
        # the elementwise operator, so it is checked where the stack is made.
        class NanConditions(HashingProvider):
            def embed(self, text):
                return np.full(self.dim, np.nan) if text.startswith("cond") else super().embed(text)

        with pytest.raises(ValueError, match="H contains non-finite entries"):
            run_architecture("tri", [("a sentence", "cond 1")], NanConditions(dim=8, seed=0))

    def test_hyper_refuses_a_non_finite_condition_vector(self):
        # Hyper's conditions go to generate_stack, which checks nothing: they are
        # checked where they are embedded, as tri's are, before any request is served.
        class NanCondition(HashingProvider):
            def embed(self, text):
                return np.full(self.dim, np.nan) if text == "cond 2" else super().embed(text)

        requests = [("a sentence", "cond 1"), ("another", "cond 2")]
        served = []
        with pytest.raises(ValueError, match="H contains non-finite entries"):
            run_architecture(
                "hyper", requests, NanCondition(dim=8, seed=0), init_params("full", 8), served.append
            )
        assert served == []

    @pytest.mark.parametrize("arch", ["bi", "tri", "hyper"])
    @pytest.mark.parametrize("bad", ["sentence", "condition"])
    def test_a_non_finite_provider_vector_is_refused_before_any_request_is_served(self, arch, bad):
        # The bad text comes last, after more than a block of good requests.
        class NanText(HashingProvider):
            def embed(self, text):
                return np.full(self.dim, np.nan) if "bad" in text else super().embed(text)

        requests = [(f"s{i}", "cond 1") for i in range(COMPOSE_BLOCK + 1)]
        requests.append(("bad s", "cond 1") if bad == "sentence" else ("s0", "bad cond"))
        served = []
        with pytest.raises(ValueError, match="contains non-finite entries"):
            run_architecture(
                arch, requests, NanText(dim=8, seed=0), init_params("lowrank", 8, 2), served.append
            )
        assert served == []

    @pytest.mark.parametrize("arch", ["bi", "tri", "hyper"])
    @pytest.mark.parametrize("short", ["a sentence", "cond 1"])
    def test_a_provider_vector_of_the_wrong_width_is_a_dimension_mismatch(self, arch, short):
        class Short(HashingProvider):
            def embed(self, text):
                return super().embed(text)[:-1] if short in text else super().embed(text)

        params = init_params("lowrank", 8, 2, seed=0)
        for requests in ([("a sentence", "cond 1")], [("a sentence", "cond 1"), ("s2", "c2")]):
            with pytest.raises(DimensionMismatchError, match="7"):
                run_architecture(arch, requests, Short(dim=8, seed=0), params)


class TestBenchReport:
    def test_rows_and_tsv_shape(self):
        requests = full_cross_requests(4, 3)
        provider = HashingProvider(dim=8, seed=0)
        rows = bench_report(
            requests,
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
            "gen_ops",
            "hits",
            "misses",
            "hit_rate",
            "resident_bytes",
            "wall_ms",
        ]
        assert len(lines) == 5
        for line, row in zip(lines[1:], rows):
            s = row.stats
            assert line.split("\t") == [
                row.architecture,
                str(row.requests),
                str(s.heavy_ops),
                str(s.light_ops),
                str(s.gen_ops),
                str(s.hits),
                str(s.misses),
                f"{s.hit_rate:.6f}",
                str(s.resident_bytes),
                f"{row.wall_ms:.3f}",
            ]

    def test_empty_workload_is_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            bench_report([], [init_params("full", 8, seed=0)], HashingProvider(dim=8, seed=0))

    def test_tri_hit_rate_beats_bi_with_shared_conditions(self):
        requests = full_cross_requests(5, 3)
        provider = HashingProvider(dim=8, seed=0)
        rows = bench_report(requests, [init_params("full", 8, seed=0)], provider)
        by_arch = {r.architecture: r.stats for r in rows}
        assert by_arch["tri"].hit_rate > by_arch["bi"].hit_rate

    def test_each_repetition_starts_from_cold_caches(self):
        # Counted, not timed: every repetition re-embeds every distinct text,
        # so 4 repetitions make exactly 4x the embed calls of one.
        requests = full_cross_requests(8, 4, replays=2)
        params = init_params("full", 8, seed=0)

        class CountingProvider(HashingProvider):
            calls = 0

            def embed(self, text):
                CountingProvider.calls += 1
                return super().embed(text)

        def embed_calls(reps):
            CountingProvider.calls = 0
            bench_report(requests, [params], CountingProvider(dim=8, seed=0), repetitions=reps)
            return CountingProvider.calls

        one = embed_calls(1)
        assert one > 0
        assert embed_calls(4) == 4 * one
