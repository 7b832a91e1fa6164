"""Per-op finite-difference checks for the reverse-mode tape."""

import numpy as np
import pytest

from condcl import autodiff as ad


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += eps
        xm.flat[i] -= eps
        g.flat[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check_unary(build, x0):
    leaf = ad.leaf(x0)
    out = build(leaf)
    out.backward()
    analytic = leaf.grad

    def f(x):
        return build(ad.constant(x)).item()

    assert analytic == pytest.approx(numeric_grad(f, x0), abs=1e-6)


rng = np.random.default_rng(0)


def test_add_sub_mul_div_scalars():
    a0, b0 = np.array(1.3), np.array(-0.4)
    a, b = ad.leaf(a0), ad.leaf(b0)
    out = (a + b) * (a - b) / (b * b + 2.0)
    out.backward()

    def f(av, bv):
        return float((av + bv) * (av - bv) / (bv * bv + 2.0))

    eps = 1e-6
    ga = (f(a0 + eps, b0) - f(a0 - eps, b0)) / (2 * eps)
    gb = (f(a0, b0 + eps) - f(a0, b0 - eps)) / (2 * eps)
    assert float(a.grad) == pytest.approx(ga, abs=1e-6)
    assert float(b.grad) == pytest.approx(gb, abs=1e-6)


def test_elementwise_mul_same_tensor_accumulates():
    x0 = rng.normal(size=4)
    x = ad.leaf(x0)
    out = ad.matmul(x * x, np.ones(4))  # sum of squares
    out.backward()
    assert x.grad == pytest.approx(2 * x0, abs=1e-10)


def test_matmul_matrix_vector():
    m0 = rng.normal(size=(3, 4))
    v0 = rng.normal(size=4)
    w = rng.normal(size=3)
    m = ad.leaf(m0)
    out = ad.matmul(ad.constant(w), ad.matmul(m, ad.constant(v0)))
    out.backward()
    assert m.grad == pytest.approx(np.outer(w, v0), abs=1e-12)
    check_unary(lambda t: ad.matmul(ad.constant(w), ad.matmul(t, ad.constant(v0))), m0)


def test_matmul_matrix_matrix():
    a0 = rng.normal(size=(3, 2))
    b0 = rng.normal(size=(2, 3))
    check_unary(
        lambda t: ad.matmul(ad.constant(np.ones(3)), ad.matmul(ad.matmul(t, ad.constant(b0)), ad.constant(np.ones(3)))),
        a0,
    )


def test_transpose_and_reshape():
    x0 = rng.normal(size=(2, 3))
    check_unary(
        lambda t: ad.matmul(ad.constant(np.ones(3)), ad.matmul(t.T, ad.constant(np.ones(2)))),
        x0,
    )
    check_unary(
        lambda t: ad.matmul(t.reshape((6,)), ad.constant(np.arange(6.0))),
        x0,
    )


def test_cosine_gradients():
    a0 = rng.normal(size=5)
    b0 = rng.normal(size=5)
    check_unary(lambda t: ad.cosine(t, ad.constant(b0)), a0)
    check_unary(lambda t: ad.cosine(ad.constant(a0), t), b0)


def test_cosine_zero_norm_raises():
    with pytest.raises(ValueError):
        ad.cosine(ad.constant(np.zeros(3)), ad.constant(np.ones(3)))


def test_logsumexp_value_and_grads():
    vals = [2.0, -1.0, 0.5]
    leaves = [ad.leaf(np.array(v)) for v in vals]
    out = ad.logsumexp(leaves)
    out.backward()
    expected = np.log(np.sum(np.exp(vals)))
    assert out.item() == pytest.approx(expected, abs=1e-12)
    soft = np.exp(vals) / np.sum(np.exp(vals))
    for leaf, s in zip(leaves, soft):
        assert float(leaf.grad) == pytest.approx(s, abs=1e-12)


def test_logsumexp_is_stable_for_large_scores():
    out = ad.logsumexp([ad.constant(np.array(1000.0)), ad.constant(np.array(999.0))])
    assert np.isfinite(out.item())
    assert out.item() == pytest.approx(1000.0 + np.log(1 + np.exp(-1.0)), abs=1e-9)


def test_add_n_fan_in():
    x0 = rng.normal(size=3)
    x = ad.leaf(x0)
    out = ad.matmul(ad.add_n([x, x, x]), ad.constant(np.ones(3)))
    out.backward()
    assert x.grad == pytest.approx(3 * np.ones(3), abs=1e-12)


def test_diamond_graph_accumulation():
    x = ad.leaf(np.array(0.7))
    y = x * 2.0
    z = x * 3.0
    out = y * z  # 6 x^2 -> d/dx = 12 x
    out.backward()
    assert float(x.grad) == pytest.approx(12 * 0.7, abs=1e-10)


def test_constants_collect_no_grad():
    c = ad.constant(np.ones(3))
    x = ad.leaf(rng.normal(size=3))
    out = ad.cosine(c, x)
    out.backward()
    assert c.grad is None
    assert x.grad is not None


def test_backward_requires_scalar():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ValueError):
        (x * 2.0).backward()
