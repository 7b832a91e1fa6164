import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from condcl import evaluation, hypernet
from condcl.cache import run_architecture
from condcl.encoder import EmbeddingStore, HashingProvider, StoreProvider
from condcl.errors import CondclError, DimensionMismatchError
from condcl.evaluation import (
    TIE_TOL,
    RankingResult,
    csts_predictions,
    evaluate_kgc,
    frobenius_variance_report,
    impurity,
    kmeans,
    mrr_hits,
    pearson,
    rank_entities,
    spearman,
    split_seen_unseen,
)
from condcl.hypernet import MODES, diagonal_operator, init_params, operator_frobenius_normalized
from condcl.losses import CstsQuadruplet, KgTriple, similarity_to_label
from condcl.trainer import make_synthetic_csts, make_synthetic_kg

rng = np.random.default_rng(0)


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors: the plain-numpy reference score."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"cosine_similarity: dims differ ({a.shape} vs {b.shape})")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine_similarity: zero-norm input")
    return float(a @ b) / (na * nb)


VECTOR6 = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, width=64), min_size=6, max_size=6
)


class TestCosineReference:
    def test_identity(self):
        v = np.array([0.3, -0.7, 2.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self):
        v = np.array([0.3, -0.7, 2.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_closed_form(self):
        assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([0, 0], [1, 1])

    @given(VECTOR6, VECTOR6, st.floats(0.1, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_scale_invariant(self, a, b, lam):
        a, b = np.array(a), np.array(b)
        if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
            return
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)
        assert cosine_similarity(lam * a, b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-12
        )


def mode_formula(params, h_c, h_s):
    """One condition's operator applied to one vector, by the mode's formula
    over ``params.tensors`` in plain numpy."""
    t, nh, nk = params.tensors, params.nh, params.nk
    if params.mode == "full":
        return (t["U"] @ h_c + t["U_bias"]).reshape(nh, nh) @ h_s
    if params.mode == "lowrank":
        W1 = (t["U1"] @ h_c + t["U1_bias"]).reshape(nh, nk)
        W2 = (t["U2"] @ h_c + t["U2_bias"]).reshape(nh, nk)
        return W1 @ (W2.T @ h_s)
    if params.mode == "hadamard":
        return h_c * h_s
    return t["Wcat"] @ np.concatenate([h_c, h_s])


def brute_force_ranks(xs):
    """O(n^2) fractional ranks, independent of the argsort implementation."""
    n = len(xs)
    out = []
    for i in range(n):
        less = sum(1 for j in range(n) if xs[j] < xs[i])
        equal = sum(1 for j in range(n) if j != i and xs[j] == xs[i])
        out.append(1 + less + equal / 2.0)
    return out


class TestCorrelations:
    def test_spearman_identity(self):
        xs = rng.normal(size=30).tolist()
        assert spearman(xs, xs) == pytest.approx(1.0)

    def test_spearman_reversed(self):
        xs = sorted(rng.normal(size=30).tolist())
        assert spearman(xs, xs[::-1]) == pytest.approx(-1.0)

    def test_spearman_against_rank_then_pearson_oracle(self):
        r = np.random.default_rng(1)
        for _ in range(300):
            xs = r.normal(size=50)
            ys = r.normal(size=50) + 0.5 * xs
            rx, ry = brute_force_ranks(xs.tolist()), brute_force_ranks(ys.tolist())
            assert spearman(xs, ys) == pytest.approx(pearson(rx, ry), abs=1e-12)

    def test_spearman_with_ties_matches_scipy(self):
        r = np.random.default_rng(2)
        for _ in range(50):
            xs = r.integers(0, 6, size=40).astype(float)
            ys = r.integers(0, 6, size=40).astype(float)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            expected = scipy.stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_pearson_affine(self):
        xs = rng.normal(size=25)
        assert pearson(xs, 2 * xs + 3) == pytest.approx(1.0)

    def test_pearson_negated(self):
        xs = rng.normal(size=25)
        assert pearson(xs, -xs) == pytest.approx(-1.0)

    def test_pearson_against_covariance_oracle(self):
        r = np.random.default_rng(3)
        xs = r.normal(size=60)
        ys = r.normal(size=60)
        cov = np.mean((xs - xs.mean()) * (ys - ys.mean()))
        expected = cov / (xs.std() * ys.std())
        assert pearson(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [5.0, 5.0])

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=5, max_size=20, unique=True),
        st.floats(0.1, 10),
        st.floats(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_spearman_monotone_invariance(self, xs, a, b):
        ys = [x**3 for x in xs]  # strictly monotone transform
        zs = [a * x + b for x in xs]
        # float rounding can merge distinct inputs; the property only holds
        # when the transform really is injective on the sample
        if len(set(ys)) < len(xs) or len(set(zs)) < len(xs):
            return
        assert spearman(xs, ys) == pytest.approx(1.0, abs=1e-9)
        assert spearman(zs, xs) == pytest.approx(1.0, abs=1e-9)


def tiny_graph(nh=8, n_entities=6, seed=0):
    r = np.random.default_rng(seed)
    store = EmbeddingStore(nh)
    entities = [f"e{i}" for i in range(n_entities)]
    for e in entities:
        v = r.normal(size=nh)
        store.add(e, v / np.linalg.norm(v))
    store.add("r0", np.ones(nh) / np.sqrt(nh))
    return StoreProvider(store), entities


class TestRankEntities:
    def test_unique_argmax_is_rank_one(self):
        provider, entities = tiny_graph()
        params = init_params("full", 8, seed=0)
        # bias-only identity operator: scores are raw cosines with the head
        params.tensors["U"][:] = 0.0
        res = rank_entities(params, provider, ("e0", "r0"), gold="e0", candidates=entities)
        assert res.gold_rank == 1  # cosine with itself is maximal

    def test_all_tied_uses_lexicographic_order(self):
        nh = 4
        store = EmbeddingStore(nh)
        same = np.array([1.0, 0.0, 0.0, 0.0])
        for name in ("b", "a", "c", "gold"):
            store.add(name, same)
        store.add("rel", np.full(nh, 0.5))
        provider = StoreProvider(store)
        params = init_params("full", nh, seed=0)
        params.tensors["U"][:] = 0.0
        res = rank_entities(
            params, provider, ("a", "rel"), gold="gold", candidates=["b", "a", "c", "gold"]
        )
        # tied block sorted lexicographically: a, b, c, gold
        assert res.gold_rank == 4

    def test_matches_exhaustive_sort_oracle(self):
        provider, entities = tiny_graph(n_entities=10, seed=4)
        params = init_params("full", 8, seed=2)
        base = mode_formula(params, provider.embed("r0"), provider.embed("e3"))
        scored = sorted(
            ((cosine_similarity(base, provider.embed(e)), e) for e in entities),
            key=lambda t: (-t[0], t[1]),
        )
        for gold in entities:
            res = rank_entities(params, provider, ("e3", "r0"), gold=gold, candidates=entities)
            assert res.gold_rank == [e for _, e in scored].index(gold) + 1

    def test_filtering_removes_known_true_but_never_gold(self):
        provider, entities = tiny_graph(n_entities=8, seed=5)
        params = init_params("full", 8, seed=1)
        full = rank_entities(params, provider, ("e0", "r0"), gold="e4", candidates=entities)
        filtered = rank_entities(
            params,
            provider,
            ("e0", "r0"),
            gold="e4",
            candidates=entities,
            filter_set={"e1", "e2", "e4"},
        )
        assert filtered.candidate_count == full.candidate_count - 2
        assert filtered.gold_rank <= full.gold_rank

    def test_filtering_preserves_relative_order(self):
        provider, entities = tiny_graph(n_entities=9, seed=6)
        params = init_params("full", 8, seed=3)
        base = mode_formula(params, provider.embed("r0"), provider.embed("e0"))
        keep = [e for e in entities if e not in {"e2", "e5"}]
        order_all = sorted(keep, key=lambda e: (-cosine_similarity(base, provider.embed(e)), e))
        ranks = {
            g: rank_entities(
                params, provider, ("e0", "r0"), gold=g, candidates=entities,
                filter_set={"e2", "e5", g},
            ).gold_rank
            for g in keep
        }
        assert sorted(keep, key=lambda e: ranks[e]) == order_all

    def test_gold_missing_is_error(self):
        provider, entities = tiny_graph()
        params = init_params("full", 8, seed=0)
        with pytest.raises(CondclError):
            rank_entities(params, provider, ("e0", "r0"), gold="nope", candidates=entities)


class TestMrrHits:
    def test_all_rank_one(self):
        results = [RankingResult(("h", "r"), 1, 10) for _ in range(5)]
        m = mrr_hits(results, ks=[1, 3, 10])
        assert m["mrr"] == 1.0
        assert all(v == 1.0 for v in m["hits"].values())

    def test_hand_arithmetic(self):
        results = [RankingResult(("h", "r"), k, 10) for k in (1, 2, 4)]
        m = mrr_hits(results, ks=[3])
        assert m["mrr"] == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert m["hits"][3] == pytest.approx(2 / 3)

    def test_hits_nondecreasing_in_k(self):
        r = np.random.default_rng(7)
        results = [RankingResult(("h", "r"), int(r.integers(1, 30)), 30) for _ in range(50)]
        m = mrr_hits(results, ks=[1, 3, 10, 30])
        hits = [m["hits"][k] for k in (1, 3, 10, 30)]
        assert hits == sorted(hits)
        assert m["mrr"] <= 1.0


class TestSplitSeenUnseen:
    def _quads(self, conds):
        return [CstsQuadruplet("a", "b", c, 3.0, i) for i, c in enumerate(conds)]

    def test_all_seen(self):
        quads = self._quads(["c1", "c2", "c1"])
        seen, unseen = split_seen_unseen({"c1", "c2"}, quads)
        assert len(seen) == 3 and not unseen

    def test_all_unseen(self):
        quads = self._quads(["c1", "c2"])
        seen, unseen = split_seen_unseen({"x"}, quads)
        assert not seen and len(unseen) == 2

    def test_partition_sums(self):
        r = np.random.default_rng(8)
        quads = self._quads([f"c{r.integers(0, 5)}" for _ in range(40)])
        seen, unseen = split_seen_unseen({"c0", "c1"}, quads)
        assert len(seen) + len(unseen) == 40


class TestKmeans:
    def test_k_equals_n_gives_singletons(self):
        X = rng.normal(size=(6, 3))
        assignments = kmeans(X, k=6, seed=0)
        assert len(set(int(a) for a in assignments)) == 6

    def test_two_blobs_recovered(self):
        r = np.random.default_rng(9)
        a = r.normal(size=(30, 4)) * 0.05 + np.array([5, 0, 0, 0])
        b = r.normal(size=(30, 4)) * 0.05 + np.array([-5, 0, 0, 0])
        X = np.vstack([a, b])
        labels = np.array([0] * 30 + [1] * 30)
        assignments = kmeans(X, k=2, seed=3)
        # blob labels recovered up to permutation
        first = assignments[:30]
        second = assignments[30:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]
        assert impurity(assignments, labels) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        X = rng.normal(size=(40, 5))
        a = kmeans(X, k=4, seed=11)
        b = kmeans(X, k=4, seed=11)
        assert np.array_equal(a, b)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), k=4)


class TestImpurity:
    def test_pure_groups_are_zero(self):
        assignments = [0, 0, 1, 1, 2, 2]
        labels = ["a", "a", "b", "b", "c", "c"]
        assert impurity(assignments, labels) == 0.0

    def test_uniform_split_is_log_k(self):
        k = 4
        assignments = list(range(k)) * 6
        labels = ["g"] * (k * 6)
        assert impurity(assignments, labels) == pytest.approx(np.log(k), abs=1e-12)

    def test_matches_counting_oracle(self):
        r = np.random.default_rng(10)
        assignments = r.integers(0, 3, size=60).tolist()
        labels = [f"g{r.integers(0, 4)}" for _ in range(60)]
        expected = 0.0
        n = len(labels)
        for g in set(labels):
            members = [assignments[i] for i in range(n) if labels[i] == g]
            h = 0.0
            for j in set(members):
                p = members.count(j) / len(members)
                h -= p * np.log(p)
            expected += (len(members) / n) * h
        assert impurity(assignments, labels) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_log_k(self):
        r = np.random.default_rng(12)
        k = 5
        assignments = r.integers(0, k, size=200).tolist()
        labels = [f"g{r.integers(0, 7)}" for _ in range(200)]
        assert impurity(assignments, labels) <= np.log(k) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            impurity([0, 1], ["a"])


class TestFrobeniusVarianceReport:
    def test_single_condition_gives_zero_variances(self):
        provider = HashingProvider(dim=8, seed=0)
        params = init_params("full", 8, seed=0)
        vh, vd = frobenius_variance_report(params, provider, ["only condition"])
        assert vh == 0.0 and vd == 0.0

    def test_diag_value_is_norm_over_sqrt_nh(self):
        provider = HashingProvider(dim=8, seed=1)
        H = np.stack([provider.embed(text) for text in ("alpha", "beta", "gamma")])
        got = operator_frobenius_normalized(diagonal_operator(H))
        assert got == pytest.approx(np.linalg.norm(H, axis=1) / np.sqrt(8), rel=1e-12)

    def test_variances_match_manual_recompute(self):
        from condcl.linalg import variance

        provider = HashingProvider(dim=8, seed=2)
        params = init_params("lowrank", 8, nk=2, seed=3)
        conds = [f"cond {i}" for i in range(6)]
        vh, vd = frobenius_variance_report(params, provider, conds)
        t = params.tensors
        hs, ds = [], []
        for c in conds:
            h = provider.embed(c)
            W1 = (t["U1"] @ h + t["U1_bias"]).reshape(8, 2)
            W2 = (t["U2"] @ h + t["U2_bias"]).reshape(8, 2)
            hs.append(np.linalg.norm(W1 @ W2.T) / np.sqrt(2 * 8 * 2))
            ds.append(np.linalg.norm(h) / np.sqrt(8))
        assert vh == pytest.approx(variance(hs), rel=1e-12)
        assert vd == pytest.approx(variance(ds), rel=1e-12)


class TestNearTies:
    def test_rank_one_head_scores_tie_and_rank_by_name(self):
        # A recorded Hypothesis example: a rank-1 operator maps both candidates
        # onto multiples of W1 with the same sign, so both head scores equal
        # cos(W1, anchor) in exact arithmetic and only rounding separates them.
        r = np.random.default_rng(8)
        store = EmbeddingStore(2)
        for name in ("a", "b", "r0"):
            store.add(name, r.normal(size=2))
        provider = StoreProvider(store)
        params = init_params("lowrank", 2, nk=1, seed=8)
        w2 = params.tensors["U2"] @ provider.embed("r0") + params.tensors["U2_bias"]
        assert (w2 @ provider.embed("a")) * (w2 @ provider.embed("b")) > 0
        for candidates in (["a", "b"], ["b", "a"]):
            for gold, rank in (("a", 1), ("b", 2)):
                got = rank_entities(params, provider, ("a", "r0"), gold, candidates, (), "head")
                assert got.gold_rank == rank

    def test_rank_entities_equals_evaluate_kgc_per_query_at_rank_one(self, monkeypatch):
        # rank_entities generates one relation's operator (a gemv), evaluate_kgc
        # all of them in one product (a gemm): the last bits differ, and with
        # nk=1 every head query is decided by near-ties.
        ds, store = make_synthetic_kg(40, 3, 8, seed=1)
        provider = StoreProvider(store)
        params = init_params("lowrank", 8, nk=1, seed=3)
        known = ds.all_triples()
        batched = []
        monkeypatch.setattr(
            evaluation, "mrr_hits", lambda results, ks: batched.extend(results) or {}
        )
        evaluate_kgc(params, provider, ds.test, known, ds.entities)
        one_by_one = []
        for t in ds.test:
            tails = {k.t for k in known if (k.h, k.r) == (t.h, t.r)}
            heads = {k.h for k in known if (k.t, k.r) == (t.t, t.r)}
            one_by_one.append(rank_entities(params, provider, (t.h, t.r), t.t, ds.entities, tails))
            one_by_one.append(
                rank_entities(params, provider, (t.t, t.r), t.h, ds.entities, heads, "head")
            )
        assert len({t.r for t in ds.test}) > 1
        assert batched == one_by_one


# -- batched paths against per-candidate references ------------------------------


def reference_rank(params, provider, query, gold, candidates, filter_set, direction):
    """Brute force: project and score each candidate alone, then count the kept
    candidates ahead of gold: scoring more than TIE_TOL higher, or within
    TIE_TOL and sorting first by name."""
    h_c, anchor = provider.embed(query[1]), provider.embed(query[0])
    scores = {}
    for e in candidates:
        if direction == "tail":
            scores[e] = cosine_similarity(mode_formula(params, h_c, anchor), provider.embed(e))
        else:
            scores[e] = cosine_similarity(mode_formula(params, h_c, provider.embed(e)), anchor)
    kept = [e for e in scores if e == gold or e not in filter_set]
    g = scores[gold]
    ahead = [
        e for e in kept if scores[e] > g + TIE_TOL or (abs(scores[e] - g) <= TIE_TOL and e < gold)
    ]
    return len(ahead) + 1, len(kept)


def mode_params(mode, nh, seed):
    # nh // 2 is rank 1 for nh < 4: every head projection is then parallel,
    # so all head scores are equal in exact arithmetic and tie within TIE_TOL.
    return init_params(mode, nh, nk=nh // 2 if mode == "lowrank" else None, seed=seed)


@st.composite
def kg_cases(draw):
    """Entities drawn from a small pool of vectors, so several names share one
    embedding (exact ties), and known triples beyond the evaluated ones (filters).

    Vector values come from a seeded generator: continuous values keep ties
    between distinct vectors out, where the order of summation would decide them.
    """
    mode = draw(st.sampled_from(MODES))
    nh = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    name = st.text("abc", min_size=1, max_size=3)
    names = draw(st.lists(name, min_size=2, max_size=9, unique=True))
    pool = draw(st.lists(st.integers(0, len(names) - 1), min_size=len(names), max_size=len(names)))
    r = np.random.default_rng(seed)
    vectors = r.normal(size=(len(names), nh))
    store = EmbeddingStore(nh)
    for name, k in zip(names, pool):
        store.add(name, vectors[k])
    relations = ["r0", "r1", "r2"]
    for rel in relations:
        store.add(rel, r.normal(size=nh))
    triple = st.builds(
        KgTriple, st.sampled_from(names), st.sampled_from(relations), st.sampled_from(names)
    )
    evaluated = draw(st.lists(triple, min_size=1, max_size=5))
    known = evaluated + draw(st.lists(triple, max_size=8))
    return mode_params(mode, nh, seed % 1000), StoreProvider(store), names, evaluated, known


class TestBatchedEqualsReference:
    @settings(max_examples=80, deadline=None)
    @given(kg_cases())
    def test_ranks_and_metrics_equal_brute_force(self, case):
        params, provider, names, evaluated, known = case
        results = []  # tail then head per triple, the order evaluate_kgc queries in
        for t in evaluated:
            for direction in ("tail", "head"):
                if direction == "tail":
                    query, gold = (t.h, t.r), t.t
                    known_true = {k.t for k in known if (k.h, k.r) == query}
                else:
                    query, gold = (t.t, t.r), t.h
                    known_true = {k.h for k in known if (k.t, k.r) == query}
                expected = reference_rank(
                    params, provider, query, gold, names, known_true, direction
                )
                got = rank_entities(params, provider, query, gold, names, known_true, direction)
                assert (got.gold_rank, got.candidate_count) == expected
                results.append(RankingResult(query, *expected))
        metrics = evaluate_kgc(params, provider, evaluated, known, names, ks=(1, 3))
        assert metrics == {**mrr_hits(results, (1, 3)), "queries": len(results)}

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(MODES),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)), min_size=1),
    )
    def test_csts_predictions_equal_per_record_reference(self, mode, nh, seed, records):
        r = np.random.default_rng(seed)
        store = EmbeddingStore(nh)
        for i in range(6):
            store.add(f"s{i}", r.normal(size=nh))
        for i in range(3):
            store.add(f"c{i}", r.normal(size=nh))
        provider = StoreProvider(store)
        params = mode_params(mode, nh, seed % 1000)
        quads = [
            CstsQuadruplet(f"s{a}", f"s{b}", f"c{c}", 1.0 + i % 5, i)
            for i, (a, b, c) in enumerate(records)
        ]
        preds, golds = csts_predictions(params, provider, quads)
        assert golds == [q.y for q in quads]
        for q, pred in zip(quads, preds):
            h_c = provider.embed(q.c)
            a = mode_formula(params, h_c, provider.embed(q.s1))
            b = mode_formula(params, h_c, provider.embed(q.s2))
            assert abs(pred - similarity_to_label(cosine_similarity(a, b))) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_stacks_of_any_size_give_the_same_results(self, monkeypatch, mode, block):
        # The generating block is private to hypernet: patching it there alone
        # changes no rank, metric or counter of any inference caller. Values
        # may move in the last bits: numpy sends a one-row product to BLAS
        # gemv rather than gemm, so a block of one condition rounds apart.
        ds, store = make_synthetic_kg(40, 3, 8, seed=1)
        quads, cstore = make_synthetic_csts(20, 4, 8, seed=1)
        params = mode_params(mode, 8, 1)
        conditions = list(dict.fromkeys(q.c for q in quads))

        def outputs():
            kg = evaluate_kgc(params, StoreProvider(store), ds.test, ds.all_triples(), ds.entities)
            ranks = [
                rank_entities(params, StoreProvider(store), (t.h, t.r), t.t, ds.entities, (), d)
                for t in ds.test
                for d in ("tail", "head")
            ]
            preds = csts_predictions(params, StoreProvider(cstore), quads)
            if mode == "concat":  # no Frobenius norm, and no generated operators
                return kg, ranks, preds, (), None, []
            variances = frobenius_variance_report(params, StoreProvider(cstore), conditions)
            if mode == "hadamard":
                return kg, ranks, preds, variances, None, []
            provider, served = StoreProvider(cstore), []
            requests = [(q.s1, q.c) for q in quads]
            stats = run_architecture("hyper", requests, provider, params, served.append)
            H = np.stack([provider.embed(c) for c in conditions])
            arrays = [a for op in hypernet.generate_operators(params, H) for a in op.arrays.values()]
            return kg, ranks, preds, variances, stats, arrays + served

        kg, ranks, (preds, golds), variances, stats, arrays = outputs()
        monkeypatch.setattr(hypernet, "GENERATE_BLOCK", block)  # more than one block per call
        kg_b, ranks_b, (preds_b, golds_b), variances_b, stats_b, arrays_b = outputs()
        assert kg_b == kg and ranks_b == ranks and golds_b == golds
        assert stats_b == stats and len(arrays_b) == len(arrays)
        for b, a in zip([preds_b, variances_b, *arrays_b], [preds, variances, *arrays]):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_norm_candidate_raises(self, mode):
        provider, entities = tiny_graph()
        provider.store.add("zero", np.zeros(8))
        params = mode_params(mode, 8, 0)
        candidates = entities + ["zero"]
        triples = [KgTriple("e0", "r0", "e1")]
        directions = ("tail",) if mode == "concat" else ("tail", "head")
        for direction in directions:
            with pytest.raises(ValueError, match="zero-norm"):
                rank_entities(params, provider, ("e0", "r0"), "e1", candidates, (), direction)
        with pytest.raises(ValueError, match="zero-norm"):
            evaluate_kgc(params, provider, triples, triples, candidates, (1,))

    def test_zero_norm_sentence_raises(self):
        provider, _ = tiny_graph()
        provider.store.add("zero", np.zeros(8))
        quads = [CstsQuadruplet("e0", "zero", "r0", 3.0, 0)]
        with pytest.raises(ValueError, match="zero-norm"):
            csts_predictions(init_params("full", 8, seed=0), provider, quads)

    def test_non_finite_candidate_raises(self):
        provider, entities = tiny_graph()
        provider.store.add("inf", np.full(8, np.inf))
        params = init_params("lowrank", 8, nk=2, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            rank_entities(params, provider, ("e0", "r0"), "e1", entities + ["inf"])
