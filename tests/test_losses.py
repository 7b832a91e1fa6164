import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condcl.encoder import HashingProvider
from condcl.errors import CondclError
from condcl import autodiff as ad
from condcl.losses import (
    CstsQuadruplet,
    KgTriple,
    LossConfig,
    TwinEmbeddings,
    grad_check,
    kgc_candidates,
    kgc_loss,
    loss_csts_cl,
    loss_csts_mse,
    loss_csts_total,
    loss_kgc,
    pair_twins,
    rescale_label,
    row_cosines,
)
from condcl import trainer

rng = np.random.default_rng(0)
LN2 = float(np.log(2.0))


def unit(v):
    return v / np.linalg.norm(v)


def orthogonal_pair(dim=8, seed=0):
    r = np.random.default_rng(seed)
    a = unit(r.normal(size=dim))
    b = r.normal(size=dim)
    b = unit(b - (b @ a) * a)
    return a, b


class TestCstsCl:
    def test_equal_similarity_is_ln2(self):
        v = unit(rng.normal(size=8))
        w = unit(rng.normal(size=8))
        # identical twin pairs: phi_hi == phi_lo
        assert loss_csts_cl(v, w, v, w, tau=1.5) == pytest.approx(LN2, abs=1e-9)

    def test_closed_form_extremes(self):
        v = unit(rng.normal(size=8))
        # phi_hi = 1 (same vector), phi_lo = -1 (antipodal), tau = 1
        got = loss_csts_cl(v, v, v, -v, tau=1.0)
        assert got == pytest.approx(np.log(1 + np.exp(-2.0)), abs=1e-9)

    def test_monotone_in_tau_toward_ln2(self):
        v = unit(rng.normal(size=8))
        a, b = orthogonal_pair(8, 3)
        taus = [0.5, 1.0, 1.5, 2.0, 4.0, 8.0]
        vals = [loss_csts_cl(v, v, a, b, tau=t) for t in taus]
        # phi_hi=1 > phi_lo=0: loss rises with tau and approaches ln 2
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert all(v_ < LN2 for v_ in vals)
        assert vals[-1] == pytest.approx(LN2, abs=0.15)

    def test_scale_invariance_of_inputs(self):
        h = [unit(rng.normal(size=6)) for _ in range(4)]
        base = loss_csts_cl(h[0], h[1], h[2], h[3], tau=1.5)
        scaled = loss_csts_cl(3.7 * h[0], h[1], h[2], 0.2 * h[3], tau=1.5)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_positive(self):
        for seed in range(20):
            r = np.random.default_rng(seed)
            h = [unit(r.normal(size=5)) for _ in range(4)]
            val = loss_csts_cl(h[0], h[1], h[2], h[3], tau=1.5)
            assert 0.0 < val < LN2 + 2.0 / 1.5

    def test_tau_must_be_positive(self):
        v = unit(rng.normal(size=4))
        with pytest.raises(ValueError):
            loss_csts_cl(v, v, v, v, tau=0.0)


class TestCstsMse:
    def test_zero_at_target(self):
        a, b = orthogonal_pair(6, 1)
        assert loss_csts_mse(a, b, y=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_gap(self):
        v = unit(rng.normal(size=6))
        assert loss_csts_mse(v, v, y=0.0) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        a0 = rng.normal(size=6)
        b0 = rng.normal(size=6)

        def fn(arrays):
            at = ad.leaf(arrays["a"])
            d = row_cosines(at.reshape((1, 6)), b0[None]) - 0.3
            out = ad.mean(d * d)
            out.backward()
            return out.item(), {"a": at.grad}

        report = grad_check(fn, {"a": a0}, epsilon=1e-6)
        assert report.max_rel_err < 1e-5


class TestCstsTotal:
    def _twin(self, phi_equal=True, seed=0):
        r = np.random.default_rng(seed)
        v = unit(r.normal(size=8))
        w = unit(r.normal(size=8))
        phi = float(v @ w)
        y = 1.0 + 4.0 * phi if 0 <= phi <= 1 else 3.0
        return TwinEmbeddings(
            h1_high=v, h2_high=w, h1_low=v, h2_low=w, y_high=y, y_low=y
        )

    def test_perfect_fit_leaves_ln2(self):
        # all phi equal their (rescaled) labels and phi_hi == phi_lo
        items = []
        for seed in range(3):
            r = np.random.default_rng(seed)
            v = unit(r.normal(size=8))
            w = unit(r.normal(size=8))
            phi = float(v @ w)
            y_native = 1.0 + 4.0 * phi
            items.append(
                TwinEmbeddings(h1_high=v, h2_high=w, h1_low=v, h2_low=w, y_high=y_native, y_low=y_native)
            )
            assert rescale_label(y_native) == pytest.approx(phi, abs=1e-12)
        assert loss_csts_total(items, LossConfig()) == pytest.approx(LN2, abs=1e-9)

    def test_duplication_keeps_mean(self):
        items = [self._twin(seed=s) for s in range(4)]
        a = loss_csts_total(items, LossConfig())
        b = loss_csts_total(items + items, LossConfig())
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_hand_summed_items(self):
        cfg = LossConfig()
        items = []
        expected = 0.0
        for seed in range(3):
            r = np.random.default_rng(seed + 50)
            h = [unit(r.normal(size=8)) for _ in range(4)]
            y_hi, y_lo = float(r.uniform(3, 5)), float(r.uniform(1, 3))
            items.append(
                TwinEmbeddings(
                    h1_high=h[0], h2_high=h[1], h1_low=h[2], h2_low=h[3],
                    y_high=y_hi, y_low=y_lo,
                )
            )
            expected += (
                loss_csts_mse(h[0], h[1], rescale_label(y_hi))
                + loss_csts_mse(h[2], h[3], rescale_label(y_lo))
                + loss_csts_cl(h[0], h[1], h[2], h[3], cfg.tau_csts)
            )
        assert loss_csts_total(items, cfg) == pytest.approx(expected / 3, abs=1e-12)


class TestKgcLoss:
    def test_balanced_is_ln2(self):
        # one negative with phi_pos - gamma == phi_neg
        a, b = orthogonal_pair(8, 7)
        gamma = 0.0
        assert loss_kgc(a, b, [b], gamma=gamma, tau=0.7) == pytest.approx(LN2, abs=1e-9)

    def test_closed_form(self):
        v = unit(rng.normal(size=8))
        got = loss_kgc(v, v, [-v], gamma=0.0, tau=1.0)
        assert got == pytest.approx(np.log(1 + np.exp(-2.0)), abs=1e-9)

    def test_adding_negative_never_decreases(self):
        r = np.random.default_rng(9)
        hr = unit(r.normal(size=8))
        t = unit(r.normal(size=8))
        negs = [unit(r.normal(size=8)) for _ in range(8)]
        losses = [loss_kgc(hr, t, negs[: k + 1], gamma=0.02, tau=0.5) for k in range(8)]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_bounded_by_pool_size_plus_margin_slack(self):
        r = np.random.default_rng(11)
        for n in (1, 3, 7):
            hr = unit(r.normal(size=6))
            t = unit(r.normal(size=6))
            negs = [unit(r.normal(size=6)) for _ in range(n)]
            tau, gamma = 0.3, 0.05
            val = loss_kgc(hr, t, negs, gamma=gamma, tau=tau)
            assert 0.0 < val < np.log(1 + n) + (2.0 + gamma) / tau

    def test_finite_at_tau_floor(self):
        v = unit(rng.normal(size=8))
        val = loss_kgc(v, v, [-v], gamma=0.02, tau=1e-3)
        assert np.isfinite(val)

    def test_empty_negatives_rejected(self):
        v = unit(rng.normal(size=4))
        with pytest.raises(ValueError):
            loss_kgc(v, v, [], gamma=0.0, tau=0.5)

    def test_tau_floor_enforced(self):
        v = unit(rng.normal(size=4))
        with pytest.raises(ValueError):
            loss_kgc(v, v, [-v], gamma=0.0, tau=1e-4)


class TestAssembleNegatives:
    """The negatives each row of a batch keeps, read from its candidate mask."""

    def _mask(self, tails, cfg, heads=None, prebatch=()):
        heads = heads or [f"h{i}" for i in range(len(tails))]
        triples = [KgTriple(h, "r", t) for h, t in zip(heads, tails)]
        emb = {text: np.full(4, float(i)) for i, text in enumerate(heads + tails)}
        cands, mask = kgc_candidates(triples, emb, cfg, prebatch)
        # candidate rows: the tails, then the heads (self-negatives), then the pre-batch
        want = tails + (heads if cfg.use_self_neg else [])
        want = [emb[t] for t in want] + ([v for _, v in prebatch] if cfg.use_prebatch_neg else [])
        assert np.array_equal(cands, np.stack(want))
        return mask

    def test_in_batch_count(self):
        cfg = LossConfig(use_self_neg=False, use_prebatch_neg=False)
        mask = self._mask(["t0", "t1", "t2", "t3"], cfg)
        assert mask.sum(axis=1).tolist() == [4, 4, 4, 4]  # the positive plus 3 negatives

    def test_batch_of_one_has_no_negatives(self):
        cfg = LossConfig(use_self_neg=False, use_prebatch_neg=False)
        with pytest.raises(ValueError, match="no negatives available for triple"):
            self._mask(["t0"], cfg)

    def test_duplicate_gold_tail_excluded(self):
        cfg = LossConfig(use_self_neg=False, use_prebatch_neg=False)
        mask = self._mask(["t0", "t0", "t2", "t3"], cfg)
        assert mask[0].tolist() == [True, False, True, True]
        assert mask[1].tolist() == [False, True, True, True]

    def test_self_negative_added(self):
        cfg = LossConfig(use_self_neg=True, use_prebatch_neg=False)
        mask = self._mask(["t0", "t1"], cfg)
        # columns: tails t0, t1, then heads h0, h1; a head is only its own row's negative
        assert mask.tolist() == [[True, True, True, False], [True, True, False, True]]

    def test_self_negative_skipped_when_head_is_gold(self):
        cfg = LossConfig(use_self_neg=True, use_prebatch_neg=False)
        mask = self._mask(["h0", "t1"], cfg)  # head text h0 == gold tail text
        assert mask[0].tolist() == [True, True, False, False]

    def test_prebatch_included_minus_gold(self):
        cfg = LossConfig(use_self_neg=False, use_prebatch_neg=True, prebatch_size=2)
        prebatch = [("t0", np.zeros(4)), ("x", np.ones(4))]
        mask = self._mask(["t0", "t1"], cfg, prebatch=prebatch)
        assert mask[0].tolist() == [True, True, False, True]  # in-batch t1 + pre-batch x


def reference_kgc(q, triples, emb, prebatch, cfg, gamma, tau):
    """Per-triple margin InfoNCE in plain numpy: (loss, d loss / d q, d loss / d tau)."""
    n = len(triples)
    loss, grad_q, grad_tau = 0.0, np.zeros_like(q), 0.0
    for i, tr in enumerate(triples):
        negs = [emb[o.t] for j, o in enumerate(triples) if j != i and o.t != tr.t]
        if cfg.use_self_neg and tr.h != tr.t:
            negs.append(emb[tr.h])
        if cfg.use_prebatch_neg:
            negs += [vec for text, vec in prebatch if text != tr.t]
        if not negs:
            raise ValueError(f"no negatives available for triple {tr}")
        cands = [emb[tr.t]] + negs
        nq = np.linalg.norm(q[i])
        cos = np.array([q[i] @ c / (nq * np.linalg.norm(c)) for c in cands])
        a = cos - gamma * (np.arange(len(cands)) == 0)
        z = a / tau
        p = np.exp(z - z.max())
        p /= p.sum()
        loss += (z.max() + np.log(np.sum(np.exp(z - z.max()))) - z[0]) / n
        dz = p - (np.arange(len(cands)) == 0)
        for k, c in enumerate(cands):
            dcos = c / (nq * np.linalg.norm(c)) - cos[k] * q[i] / nq**2
            grad_q[i] += dz[k] / tau * dcos / n
        grad_tau += float(np.sum(dz * -a / tau**2)) / n
    return loss, grad_q, grad_tau


TEXTS = st.sampled_from(["a", "b", "c", "d"])


class TestBatchedKgcEqualsReference:
    """The masked batch loss equals a per-triple reference, gradients included."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(TEXTS, TEXTS), min_size=1, max_size=6),
        prebatch_texts=st.lists(TEXTS, max_size=5),
        use_self_neg=st.booleans(),
        use_prebatch_neg=st.booleans(),
        gamma=st.floats(0.0, 0.3),
        tau=st.floats(0.02, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_loss_and_gradients(
        self, pairs, prebatch_texts, use_self_neg, use_prebatch_neg, gamma, tau, seed
    ):
        nh = 5
        rng = np.random.default_rng(seed)
        emb = {text: rng.normal(size=nh) for text in "abcd"}
        prebatch = [(text, rng.normal(size=nh)) for text in prebatch_texts]
        triples = [KgTriple(h, "r", t) for h, t in pairs]  # h == t and repeated tails occur
        q = rng.normal(size=(len(triples), nh))
        cfg = LossConfig(use_self_neg=use_self_neg, use_prebatch_neg=use_prebatch_neg)
        try:
            want = reference_kgc(q, triples, emb, prebatch, cfg, gamma, tau)
        except ValueError as exc:
            with pytest.raises(ValueError, match="no negatives available") as got:
                kgc_candidates(triples, emb, cfg, prebatch)
            assert str(exc) in str(got.value)
            return
        cands, mask = kgc_candidates(triples, emb, cfg, prebatch)
        q_leaf, tau_leaf = ad.leaf(q), ad.leaf(np.array(tau))
        out = kgc_loss(q_leaf, cands, mask, gamma, tau_leaf)
        out.backward()
        assert out.item() == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(q_leaf.grad, want[1], rtol=1e-9, atol=1e-11)
        assert float(tau_leaf.grad) == pytest.approx(want[2], rel=1e-9, abs=1e-11)


class TestPairTwins:
    def test_pairs_by_id_and_orders_by_label(self):
        quads = [
            CstsQuadruplet("a", "b", "c1", 2.0, 0),
            CstsQuadruplet("a", "b", "c2", 4.0, 0),
        ]
        twins = pair_twins(quads)
        assert len(twins) == 1
        assert twins[0].high.c == "c2"

    def test_missing_twin_rejected(self):
        with pytest.raises(CondclError):
            pair_twins([CstsQuadruplet("a", "b", "c1", 2.0, 0)])

    def test_sentence_mismatch_rejected(self):
        quads = [
            CstsQuadruplet("a", "b", "c1", 2.0, 0),
            CstsQuadruplet("a", "x", "c2", 4.0, 0),
        ]
        with pytest.raises(CondclError):
            pair_twins(quads)

    def test_same_condition_rejected(self):
        quads = [
            CstsQuadruplet("a", "b", "c1", 2.0, 0),
            CstsQuadruplet("a", "b", "c1", 4.0, 0),
        ]
        with pytest.raises(CondclError):
            pair_twins(quads)


class TestGradCheck:
    def _closure(self, nh=6):
        b0 = unit(np.random.default_rng(1).normal(size=nh))

        def fn(arrays):
            w = ad.leaf(arrays["w"])
            tau = ad.leaf(arrays["tau"])
            hhr = ad.matmul(w, ad.constant(b0)).reshape((1, nh))
            cands = np.stack([np.roll(b0, 1), np.roll(b0, 2)])
            out = kgc_loss(hhr, cands, None, 0.02, tau)
            out.backward()
            return out.item(), {
                "w": w.grad,
                "tau": tau.grad,
                "unused": np.zeros_like(arrays["unused"]),
            }

        arrays = {
            "w": np.eye(nh) + 0.01 * np.random.default_rng(2).normal(size=(nh, nh)),
            "tau": np.array(0.5),
            "unused": np.ones(3),
        }
        return fn, arrays

    def test_passes_and_probes_all(self):
        fn, arrays = self._closure()
        report = grad_check(fn, arrays, epsilon=1e-5)
        assert report.n_checked == sum(a.size for a in arrays.values())
        assert report.max_rel_err < 1e-6

    def test_unused_param_reports_exact_zero(self):
        fn, arrays = self._closure()
        report = grad_check(fn, arrays, epsilon=1e-5)
        assert report.per_param["unused"] == 0.0

    def test_deterministic_probe_selection(self):
        fn, arrays = self._closure()
        a = grad_check(fn, arrays, epsilon=1e-5, n_probes=10, seed=4)
        b = grad_check(fn, arrays, epsilon=1e-5, n_probes=10, seed=4)
        assert a.max_rel_err == b.max_rel_err
        assert a.n_checked == b.n_checked == 10

    def test_epsilon_window(self):
        fn, arrays = self._closure()
        with pytest.raises(ValueError):
            grad_check(fn, arrays, epsilon=0.0)
        with pytest.raises(ValueError):
            grad_check(fn, arrays, epsilon=1e-2)


class TestTrainerClosureGradients:
    """Analytic vs numeric gradients across random small configurations."""

    @pytest.mark.parametrize("task", ["csts", "kgc"])
    @pytest.mark.parametrize("mode", ["full", "lowrank", "concat"])
    def test_modes_and_tasks(self, task, mode):
        nh = 12
        provider = HashingProvider(dim=nh, seed=5)
        worst = 0.0
        for seed in range(4):
            cfg = trainer.TrainConfig(
                task=task, mode=mode, nh=nh, nk=3, seed=seed, epochs=1, batch_size=4
            )
            if task == "csts":
                r = np.random.default_rng(seed)
                quads = []
                for i in range(2):
                    quads.append(
                        CstsQuadruplet(f"s{i}a", f"s{i}b", f"c{2 * i}", float(r.uniform(3, 5)), i)
                    )
                    quads.append(
                        CstsQuadruplet(f"s{i}a", f"s{i}b", f"c{2 * i + 1}", float(r.uniform(1, 3)), i)
                    )
                batch = pair_twins(quads)
                closure = trainer.make_loss_closure(cfg, batch, provider)
            else:
                triples = [
                    KgTriple("e1", "r1", "e2"),
                    KgTriple("e2", "r2", "e3"),
                    KgTriple("e3", "r1", "e1"),
                ]
                closure = trainer.make_loss_closure(
                    cfg, triples, provider, prebatch=[[("e9", provider.embed("e9"))]]
                )
            _, arrays = trainer.initial_arrays(cfg)
            report = grad_check(closure, arrays, epsilon=1e-5, n_probes=40, seed=seed)
            worst = max(worst, report.max_rel_err)
        assert worst < 1e-4
