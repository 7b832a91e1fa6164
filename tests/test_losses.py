import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condcl.encoder import EmbeddingStore, HashingProvider, StoreProvider
from condcl.errors import CondclError
from condcl import autodiff as ad
from condcl.losses import (
    CstsQuadruplet,
    GradCheckReport,
    KgTriple,
    LossConfig,
    csts_loss,
    grad_check,
    kgc_candidates,
    kgc_loss,
    pair_twins,
    rescale_label,
)
from condcl import trainer
from condcl.hypernet import MODES

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


def twin_rows(h1_hi, h2_hi, h1_lo, h2_lo):
    """One twin instance as the rows ``csts_loss`` takes: each twin's two sides."""
    return np.stack([h1_hi, h2_hi, h1_lo, h2_lo])


NO_LABELS = np.zeros((1, 2))  # the cl term does not read the labels


class TestCstsCl:
    """The twin InfoNCE term of ``csts_loss`` on one instance."""

    def test_equal_similarity_is_ln2(self):
        v = unit(rng.normal(size=8))
        w = unit(rng.normal(size=8))
        # identical twin pairs: phi_hi == phi_lo
        _, _, cl = csts_loss(twin_rows(v, w, v, w), NO_LABELS, tau=1.5)
        assert cl[0] == pytest.approx(LN2, abs=1e-9)

    def test_closed_form_extremes(self):
        v = unit(rng.normal(size=8))
        # phi_hi = 1 (same vector), phi_lo = -1 (antipodal), tau = 1
        _, _, cl = csts_loss(twin_rows(v, v, v, -v), NO_LABELS, tau=1.0)
        assert cl[0] == pytest.approx(np.log(1 + np.exp(-2.0)), abs=1e-9)

    def test_monotone_in_tau_toward_ln2(self):
        v = unit(rng.normal(size=8))
        a, b = orthogonal_pair(8, 3)
        taus = [0.5, 1.0, 1.5, 2.0, 4.0, 8.0]
        vals = [csts_loss(twin_rows(v, v, a, b), NO_LABELS, t)[2][0] for t in taus]
        # phi_hi=1 > phi_lo=0: loss rises with tau and approaches ln 2
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert all(v_ < LN2 for v_ in vals)
        assert vals[-1] == pytest.approx(LN2, abs=0.15)

    def test_scale_invariance_of_inputs(self):
        h = [unit(rng.normal(size=6)) for _ in range(4)]
        base = csts_loss(twin_rows(*h), NO_LABELS, tau=1.5)[2][0]
        scaled_rows = twin_rows(3.7 * h[0], h[1], h[2], 0.2 * h[3])
        scaled = csts_loss(scaled_rows, NO_LABELS, tau=1.5)[2][0]
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_finite_for_a_small_tau(self):
        v = unit(rng.normal(size=8))
        a, b = orthogonal_pair(8, 3)
        rows = ad.leaf(twin_rows(v, v, a, b))
        total, _, cl = csts_loss(rows, NO_LABELS, tau=1e-3)
        total.backward()
        assert cl[0] == pytest.approx(0.0, abs=1e-12)  # phi_hi - phi_lo = 1, scaled by 1000
        assert np.isfinite(total.item())
        assert np.isfinite(rows.grad).all()

    def test_positive(self):
        for seed in range(20):
            r = np.random.default_rng(seed)
            h = [unit(r.normal(size=5)) for _ in range(4)]
            val = csts_loss(twin_rows(*h), NO_LABELS, tau=1.5)[2][0]
            assert 0.0 < val < LN2 + 2.0 / 1.5


class TestCstsMse:
    """The squared-error term of ``csts_loss``: both twins' errors, summed."""

    def test_zero_at_target(self):
        a, b = orthogonal_pair(6, 1)
        _, mse, _ = csts_loss(twin_rows(a, b, a, b), np.zeros((1, 2)), tau=1.5)
        assert mse[0] == pytest.approx(0.0, abs=1e-12)

    def test_unit_gap(self):
        v = unit(rng.normal(size=6))
        a, b = orthogonal_pair(6, 1)
        # the high twin's cosine is 1 against a target of 0; the low twin's is on target
        _, mse, _ = csts_loss(twin_rows(v, v, a, b), np.zeros((1, 2)), tau=1.5)
        assert mse[0] == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rows0 = rng.normal(size=(4, 6))
        y01 = np.array([[0.3, 0.1]])

        def fn(arrays):
            rows = ad.leaf(arrays["rows"])
            out, _, _ = csts_loss(rows, y01, tau=1.5)
            out.backward()
            return out.item(), {"rows": rows.grad}

        report = grad_check(fn, {"rows": rows0}, epsilon=1e-6)
        assert report.max_rel_err < 1e-5

    def test_zero_norm_row_raises(self):
        for k in range(4):  # either side of either twin
            rows = np.ones((4, 4))
            rows[k] = 0.0
            with pytest.raises(ValueError, match="zero-norm"):
                csts_loss(rows, NO_LABELS, tau=1.5)


class TestCstsTotal:
    """The mean over a batch of instances of both twins' squared errors plus the twin InfoNCE."""

    @staticmethod
    def _batch(items):
        """Rows and rescaled labels of (h1_hi, h2_hi, h1_lo, h2_lo, y_hi, y_lo) items."""
        rows = np.stack([v for it in items for v in it[:4]])
        y01 = np.array([[rescale_label(it[4]), rescale_label(it[5])] for it in items])
        return rows, y01

    def _twin(self, seed=0):
        r = np.random.default_rng(seed)
        v = unit(r.normal(size=8))
        w = unit(r.normal(size=8))
        phi = float(v @ w)
        y = 1.0 + 4.0 * phi if 0 <= phi <= 1 else 3.0
        return v, w, v, w, y, y

    def test_perfect_fit_leaves_ln2(self):
        # all phi equal their (rescaled) labels and phi_hi == phi_lo
        items = []
        for seed in range(3):
            r = np.random.default_rng(seed)
            v = unit(r.normal(size=8))
            w = unit(r.normal(size=8))
            phi = float(v @ w)
            y_native = 1.0 + 4.0 * phi
            items.append((v, w, v, w, y_native, y_native))
            assert rescale_label(y_native) == pytest.approx(phi, abs=1e-12)
        total, _, _ = csts_loss(*self._batch(items), LossConfig().tau_csts)
        assert not isinstance(total, ad.Tensor)  # over ndarrays the loss is a plain value
        assert total.item() == pytest.approx(LN2, abs=1e-9)

    def test_duplication_keeps_mean(self):
        items = [self._twin(seed=s) for s in range(4)]
        tau = LossConfig().tau_csts
        a = csts_loss(*self._batch(items), tau)[0].item()
        b = csts_loss(*self._batch(items + items), tau)[0].item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_hand_summed_items(self):
        tau = LossConfig().tau_csts
        items = []
        expected = 0.0
        for seed in range(3):
            r = np.random.default_rng(seed + 50)
            h = [unit(r.normal(size=8)) for _ in range(4)]
            y_hi, y_lo = float(r.uniform(3, 5)), float(r.uniform(1, 3))
            items.append((h[0], h[1], h[2], h[3], y_hi, y_lo))
            phi_hi, phi_lo = float(h[0] @ h[1]), float(h[2] @ h[3])  # unit rows: cosines
            expected += (
                (phi_hi - rescale_label(y_hi)) ** 2
                + (phi_lo - rescale_label(y_lo)) ** 2
                + np.log(np.exp(phi_hi / tau) + np.exp(phi_lo / tau)) - phi_hi / tau
            )
        total, _, _ = csts_loss(*self._batch(items), tau)
        assert total.item() == pytest.approx(expected / 3, abs=1e-12)


class TestKgcLoss:
    """``kgc_loss`` of one projected head (a one-row stack) against the candidate
    rows of its tail and negatives, every entry kept."""

    def test_balanced_is_ln2(self):
        # one negative with phi_pos - gamma == phi_neg
        a, b = orthogonal_pair(8, 7)
        gamma = 0.0
        got = kgc_loss(a[None], np.stack([b, b]), None, gamma, 0.7).item()
        assert got == pytest.approx(LN2, abs=1e-9)

    def test_closed_form(self):
        v = unit(rng.normal(size=8))
        got = kgc_loss(v[None], np.stack([v, -v]), None, 0.0, 1.0).item()
        assert got == pytest.approx(np.log(1 + np.exp(-2.0)), abs=1e-9)

    def test_adding_negative_never_decreases(self):
        r = np.random.default_rng(9)
        hr = unit(r.normal(size=8))
        t = unit(r.normal(size=8))
        negs = [unit(r.normal(size=8)) for _ in range(8)]
        losses = [
            kgc_loss(hr[None], np.stack([t, *negs[: k + 1]]), None, 0.02, 0.5).item()
            for k in range(8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_bounded_by_pool_size_plus_margin_slack(self):
        r = np.random.default_rng(11)
        for n in (1, 3, 7):
            hr = unit(r.normal(size=6))
            t = unit(r.normal(size=6))
            negs = [unit(r.normal(size=6)) for _ in range(n)]
            tau, gamma = 0.3, 0.05
            val = kgc_loss(hr[None], np.stack([t, *negs]), None, gamma, tau).item()
            assert 0.0 < val < np.log(1 + n) + (2.0 + gamma) / tau

    def test_finite_at_tau_floor(self):
        v = unit(rng.normal(size=8))
        val = kgc_loss(v[None], np.stack([v, -v]), None, 0.02, 1e-3).item()
        assert np.isfinite(val)

    def test_zero_norm_row_raises(self):
        rows = np.ones((2, 4))
        zero = np.ones((2, 4))
        zero[1] = 0.0
        for q, cands in ((zero, rows), (rows, zero)):
            with pytest.raises(ValueError, match="zero-norm"):
                kgc_loss(q, cands, None, 0.02, 0.5)

    def test_a_row_keeping_no_candidate_raises(self):
        q, cands = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(ValueError, match="keeps no candidate"):
            kgc_loss(q, cands, mask, 0.02, 0.5)


class TestLossConfig:
    @pytest.mark.parametrize(
        "field,value", [("tau_csts", 0.0), ("tau_csts", -1.0), ("tau_kgc", 1e-4)]
    )
    def test_temperature_out_of_range_rejected(self, field, value):
        loss = LossConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            loss.validate()
        with pytest.raises(ValueError, match=field):  # every training run validates its config
            trainer.TrainConfig(task="csts", mode="full", nh=4, loss=loss).validate()


def candidates(triples, emb, cfg, prebatch_texts=()):
    """``kgc_candidates`` over texts, each key of ``emb`` one row: (candidate matrix, mask)."""
    row_of = {text: i for i, text in enumerate(emb)}
    # the relation's row is not read
    ids = np.array([[row_of[t.h], 0, row_of[t.t]] for t in triples], dtype=np.intp)
    past = [row_of[text] for text in prebatch_texts]
    cand, mask = kgc_candidates(triples, ids, cfg, past)
    return np.stack(list(emb.values()))[cand], mask


class TestAssembleNegatives:
    """The negatives each row of a batch keeps, read from its candidate mask."""

    def _mask(self, tails, cfg, heads=None, prebatch=()):
        heads = heads or [f"h{i}" for i in range(len(tails))]
        triples = [KgTriple(h, "r", t) for h, t in zip(heads, tails)]
        emb = {text: np.full(4, float(i)) for i, text in enumerate(heads + tails + list(prebatch))}
        cands, mask = candidates(triples, emb, cfg, prebatch)
        # candidate rows: the tails, then the heads (self-negatives), then the pre-batch
        want = tails + (heads if cfg.use_self_neg else []) + list(prebatch)
        assert np.array_equal(cands, np.stack([emb[t] for t in want]))
        return mask

    def test_in_batch_count(self):
        cfg = LossConfig(use_self_neg=False, prebatch_size=0)
        mask = self._mask(["t0", "t1", "t2", "t3"], cfg)
        assert mask.sum(axis=1).tolist() == [4, 4, 4, 4]  # the positive plus 3 negatives

    def test_batch_of_one_has_no_negatives(self):
        cfg = LossConfig(use_self_neg=False, prebatch_size=0)
        with pytest.raises(ValueError, match="no negatives available for triple"):
            self._mask(["t0"], cfg)

    def test_duplicate_gold_tail_excluded(self):
        cfg = LossConfig(use_self_neg=False, prebatch_size=0)
        mask = self._mask(["t0", "t0", "t2", "t3"], cfg)
        assert mask[0].tolist() == [True, False, True, True]
        assert mask[1].tolist() == [False, True, True, True]

    def test_self_negative_added(self):
        cfg = LossConfig(use_self_neg=True, prebatch_size=0)
        mask = self._mask(["t0", "t1"], cfg)
        # columns: tails t0, t1, then heads h0, h1; a head is only its own row's negative
        assert mask.tolist() == [[True, True, True, False], [True, True, False, True]]

    def test_self_negative_skipped_when_head_is_gold(self):
        cfg = LossConfig(use_self_neg=True, prebatch_size=0)
        mask = self._mask(["h0", "t1"], cfg)  # head text h0 == gold tail text
        assert mask[0].tolist() == [True, True, False, False]

    def test_prebatch_included_minus_gold(self):
        cfg = LossConfig(use_self_neg=False, prebatch_size=2)
        mask = self._mask(["t0", "t1"], cfg, prebatch=["t0", "x"])
        assert mask[0].tolist() == [True, True, False, True]  # in-batch t1 + pre-batch x


def reference_kgc(q, triples, emb, prebatch, cfg, gamma, tau):
    """Per-triple margin InfoNCE in plain numpy: (loss, d loss / d q, d loss / d tau)."""
    n = len(triples)
    loss, grad_q, grad_tau = 0.0, np.zeros_like(q), 0.0
    for i, tr in enumerate(triples):
        negs = [emb[o.t] for j, o in enumerate(triples) if j != i and o.t != tr.t]
        if cfg.use_self_neg and tr.h != tr.t:
            negs.append(emb[tr.h])
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


def list_based_grad_check(loss_fn, params, epsilon, n_probes, seed):
    """The grad_check reference that lists every coordinate before sampling."""
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    _, grads = loss_fn(base)
    coords = [(name, i) for name in base for i in range(base[name].size)]
    if n_probes is not None and n_probes < len(coords):
        picked = np.random.default_rng(seed).choice(len(coords), size=n_probes, replace=False)
        coords = [coords[i] for i in sorted(picked)]
    max_rel, per_param = 0.0, {name: 0.0 for name in base}
    for name, idx in coords:
        arr = base[name]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + epsilon
        lplus, _ = loss_fn(base)
        arr.flat[idx] = orig - epsilon
        lminus, _ = loss_fn(base)
        arr.flat[idx] = orig
        numeric = (lplus - lminus) / (2.0 * epsilon)
        analytic = float(np.asarray(grads[name]).flat[idx])
        rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        per_param[name] = max(per_param[name], rel)
        max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel, len(coords), epsilon, seed, per_param)


TEXTS = st.sampled_from(["a", "b", "c", "d"])


class TestBatchedKgcEqualsReference:
    """The masked batch loss equals a per-triple reference, gradients included."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(TEXTS, TEXTS), min_size=1, max_size=6),
        prebatch_texts=st.lists(TEXTS, max_size=5),
        use_self_neg=st.booleans(),
        use_prebatch=st.booleans(),
        gamma=st.floats(0.0, 0.3),
        tau=st.floats(0.02, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_loss_and_gradients(
        self, pairs, prebatch_texts, use_self_neg, use_prebatch, gamma, tau, seed
    ):
        nh = 5
        rng = np.random.default_rng(seed)
        emb = {text: rng.normal(size=nh) for text in "abcd"}
        prebatch_texts = prebatch_texts if use_prebatch else []  # an empty pre-batch window
        prebatch = [(text, emb[text]) for text in prebatch_texts]  # a text has one row
        triples = [KgTriple(h, "r", t) for h, t in pairs]  # h == t and repeated tails occur
        q = rng.normal(size=(len(triples), nh))
        cfg = LossConfig(use_self_neg=use_self_neg)
        try:
            want = reference_kgc(q, triples, emb, prebatch, cfg, gamma, tau)
        except ValueError as exc:
            with pytest.raises(ValueError, match="no negatives available") as got:
                candidates(triples, emb, cfg, prebatch_texts)
            assert str(exc) in str(got.value)
            return
        cands, mask = candidates(triples, emb, cfg, prebatch_texts)
        q_leaf, tau_leaf = ad.leaf(q), ad.leaf(np.array(tau))
        out = kgc_loss(q_leaf, cands, mask, gamma, tau_leaf)
        out.backward()
        assert out.item() == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(q_leaf.grad, want[1], rtol=1e-9, atol=1e-11)
        assert float(tau_leaf.grad) == pytest.approx(want[2], rel=1e-9, abs=1e-11)


def reference_csts(left, right, y01, tau):
    """Per-instance twin loss in plain numpy: (loss, d loss / d left, d loss / d right)."""
    n = len(y01)
    loss, grad_left, grad_right = 0.0, np.zeros_like(left), np.zeros_like(right)
    for i in range(n):
        rows = (2 * i, 2 * i + 1)  # the high twin's row, then the low twin's
        norms = [(np.linalg.norm(left[k]), np.linalg.norm(right[k])) for k in rows]
        phi = np.array([left[k] @ right[k] / (nl * nr) for k, (nl, nr) in zip(rows, norms)])
        z = phi / tau
        p = np.exp(z - z.max())
        lse = z.max() + np.log(p.sum())
        p /= p.sum()
        loss += (np.sum((phi - y01[i]) ** 2) + lse - z[0]) / n
        dphi = (2.0 * (phi - y01[i]) + (p - np.array([1.0, 0.0])) / tau) / n
        for j, (k, (nl, nr)) in enumerate(zip(rows, norms)):
            grad_left[k] = dphi[j] * (right[k] / (nl * nr) - phi[j] * left[k] / nl**2)
            grad_right[k] = dphi[j] * (left[k] / (nl * nr) - phi[j] * right[k] / nr**2)
    return loss, grad_left, grad_right


class TestBatchedCstsEqualsReference:
    """The twin loss node equals a per-instance reference, gradients included."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 5),
        tied=st.integers(0, 4),
        scale=st.floats(1e-3, 1e3),
        tau=st.floats(0.05, 4.0),
        seed=st.integers(0, 2**16),
    )
    def test_loss_and_gradients(self, n, tied, scale, tau, seed):
        nh = 5
        r = np.random.default_rng(seed)
        left, right = r.normal(size=(2 * n, nh)), r.normal(size=(2 * n, nh))
        i = tied % n
        left[2 * i + 1], right[2 * i + 1] = left[2 * i], right[2 * i]  # a tied twin pair
        left[-1] *= scale  # a scaled row: its cosine is unchanged, its gradient scaled by 1/scale
        y01 = r.uniform(0.0, 1.0, size=(n, 2))
        want = reference_csts(left, right, y01, tau)
        rows = np.empty((4 * n, nh))
        rows[0::2], rows[1::2] = left, right  # each twin's two sides, side by side
        leaf = ad.leaf(rows)
        out, mse, cl = csts_loss(leaf, y01, tau)
        out.backward()
        assert out.item() == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        assert float(np.mean(mse + cl)) == out.item()
        np.testing.assert_allclose(leaf.grad[0::2], want[1], rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(leaf.grad[1::2], want[2], rtol=1e-9, atol=1e-11)


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
            hhr = ad.linear(b0[None, :], w)  # the row w @ b0
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

    @pytest.mark.parametrize("n_probes", [1, 7, 36, 39, 40, 41, None])
    def test_probes_and_error_equal_the_list_based_selection(self, n_probes):
        # 40 coordinates over a (6, 6), a () and a (3,) tensor
        fn, arrays = self._closure()
        runs = []
        for check in (grad_check, list_based_grad_check):
            probed = []

            def recording(a, probed=probed):
                probed.append(
                    [(k, int(i)) for k in a for i in np.flatnonzero(a[k] != arrays[k])]
                )
                return fn(a)

            report = check(recording, arrays, epsilon=1e-5, n_probes=n_probes, seed=9)
            runs.append((probed, report))
        (got_probed, got), (want_probed, want) = runs
        assert got_probed == want_probed
        assert got.n_checked == want.n_checked == min(n_probes or 40, 40)
        assert got.max_rel_err.hex() == want.max_rel_err.hex()
        assert {k: v.hex() for k, v in got.per_param.items()} == {
            k: v.hex() for k, v in want.per_param.items()
        }

    @pytest.mark.parametrize("n_probes", [0, -1])
    def test_a_probe_count_below_one_is_refused(self, n_probes):
        fn, arrays = self._closure()
        with pytest.raises(ValueError, match="n_probes"):
            grad_check(fn, arrays, n_probes=n_probes)

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

    @pytest.mark.parametrize("task", ["csts", "kgc"])
    @pytest.mark.parametrize("mode", MODES)
    def test_probes_evaluate_the_loss_alone(self, monkeypatch, task, mode):
        # The gradients take one backward pass; each probe reads the closure's
        # loss over plain arrays, which builds no graph. Dense random embeddings:
        # hashed ones make a hadamard C-STS projection all zero.
        nh = 8
        g = np.random.default_rng(3)
        store = EmbeddingStore(nh)
        for text in ["s0a", "s0b", "s1a", "s1b", "c0", "c1", "c2", "c3", "e1", "e2", "e3", "e9", "r1", "r2"]:
            store.add(text, g.normal(size=nh))
        provider = StoreProvider(store)
        cfg = trainer.TrainConfig(task=task, mode=mode, nh=nh, nk=3, seed=1, epochs=1, batch_size=4)
        if task == "csts":
            quads = [
                CstsQuadruplet(f"s{i}a", f"s{i}b", f"c{2 * i + k}", 4.0 - 2 * k, i)
                for i in range(2)
                for k in range(2)
            ]
            closure = trainer.make_loss_closure(cfg, pair_twins(quads), provider)
        else:
            triples = [KgTriple("e1", "r1", "e2"), KgTriple("e2", "r2", "e3"), KgTriple("e3", "r1", "e1")]
            closure = trainer.make_loss_closure(
                cfg, triples, provider, prebatch=[[("e9", provider.embed("e9"))]]
            )
        _, arrays = trainer.initial_arrays(cfg)
        calls = []
        backward = ad.Tensor.backward
        monkeypatch.setattr(ad.Tensor, "backward", lambda t: calls.append(1) or backward(t))
        report = grad_check(closure, arrays, epsilon=1e-5, n_probes=12, seed=2)
        # A hadamard C-STS loss reads no learnable array: it is a value, with no pass.
        assert len(calls) == (0 if (task, mode) == ("csts", "hadamard") else 1)
        calls.clear()
        full = grad_check(lambda a: closure(a), arrays, epsilon=1e-5, n_probes=12, seed=2)
        assert len(calls) == (0 if (task, mode) == ("csts", "hadamard") else 1 + 2 * full.n_checked)
        assert report.max_rel_err.hex() == full.max_rel_err.hex()
        assert report.per_param == full.per_param and report.n_checked == full.n_checked

    def test_factored_gradients_are_read_from_their_factors(self, monkeypatch):
        # The probes perturb one copy of the params; multiplying out each factored
        # generator gradient would hold about as much again.
        nh = 128
        quads, store = trainer.make_synthetic_csts(12, 4, nh, seed=3)
        cfg = trainer.TrainConfig(task="csts", mode="lowrank", nh=nh, nk=16, seed=5, batch_size=4)
        closure = trainer.make_loss_closure(cfg, pair_twins(quads)[:3], StoreProvider(store))
        _, arrays = trainer.initial_arrays(cfg)
        want = list_based_grad_check(closure, arrays, 1e-5, 24, 0)
        for t in arrays.values():  # probes perturb a copy, never the caller's arrays
            t.flags.writeable = False

        def refused(self, dtype=None, copy=None):
            raise AssertionError("a factored gradient was multiplied out")

        monkeypatch.setattr(ad.Factored, "__array__", refused)
        tracemalloc.start()
        try:
            got = grad_check(closure, arrays, epsilon=1e-5, n_probes=24, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * sum(t.nbytes for t in arrays.values())
        assert got.n_checked == want.n_checked == 24
        assert abs(got.max_rel_err - want.max_rel_err) <= 1e-12
        for name, err in want.per_param.items():
            assert abs(got.per_param[name] - err) <= 1e-12, name
