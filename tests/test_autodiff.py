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
        return build(x).item()  # over an ndarray every op gives an ndarray

    assert analytic == pytest.approx(numeric_grad(f, x0), abs=1e-6)


def weighted_mean(t, c):
    """The mean of t * c (c has t's shape) as one node: a scalar."""
    w = np.asarray(c) / np.size(c)
    return ad.node(np.sum(ad.value(t) * w), (t, lambda g: g * w))


def dot(p, q):
    """The sum of p * q as one node over both operands: a scalar."""
    pd, qd = ad.value(p), ad.value(q)
    return ad.node(np.sum(pd * qd), (p, lambda g: g * qd), (q, lambda g: g * pd))


rng = np.random.default_rng(0)


def test_linear_values_are_the_layer_formula_bit_for_bit():
    x0, w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(10, 3)), rng.normal(size=10)
    assert np.array_equal(ad.linear(x0, w0), x0 @ w0.T)
    assert np.array_equal(ad.linear(x0, w0, b0), x0 @ w0.T + b0)
    shaped = ad.linear(x0, ad.leaf(w0), ad.leaf(b0), shape=(4, 5, -1))
    assert shaped.shape == (4, 5, 2)
    assert np.array_equal(shaped.data, (x0 @ w0.T + b0).reshape(4, 5, 2))


@pytest.mark.parametrize("shape", [None, (4, 5, 1)], ids=["2-D", "reshaped"])
def test_linear_gradients(shape):
    x0, w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=5)
    c = rng.normal(size=(4, 5)).reshape(shape or (4, 5))
    check_unary(lambda t: weighted_mean(ad.linear(x0, t, b0, shape), c), w0)
    check_unary(lambda t: weighted_mean(ad.linear(x0, w0, t, shape), c), b0)
    check_unary(lambda t: weighted_mean(ad.linear(t, w0, b0, shape), c), x0)
    w, b = ad.leaf(w0), ad.leaf(b0)
    weighted_mean(ad.linear(x0, w, b, shape), c).backward()
    G = c.reshape(4, 5) / c.size
    w_grad = np.asarray(w.grad)
    assert np.array_equal(w_grad, G.T @ x0) and np.array_equal(b.grad, G.sum(axis=0))
    # x @ W.T hands the leaf W a C-contiguous gradient, ready for the optimizer.
    assert w_grad.shape == w0.shape and w_grad.flags.c_contiguous


# (stack size, which) over five rows
GROUPED_WHICH = {
    "one-operator": (1, [0, 0, 0, 0, 0]),
    "one-int": (2, 1),
    "one-row-groups": (5, [0, 1, 2, 3, 4]),
    "grouped": (3, [0, 0, 1, 2, 2]),
    "empty-group": (3, [0, 0, 2, 2, 2]),
    "empty-ends": (3, [1, 1, 1, 1, 1]),
    "interleaved": (3, [2, 0, 2, 1, 0]),
    "interleaved-empty-group": (4, [3, 0, 3, 0, 3]),
}


@pytest.mark.parametrize("transpose", [False, True], ids=["W", "W.T"])
@pytest.mark.parametrize("R,which", GROUPED_WHICH.values(), ids=GROUPED_WHICH.keys())
def test_grouped_matmul_values_and_gradients(R, which, transpose):
    n, m = 3, 4
    x0 = rng.normal(size=(5, n))
    W0 = rng.normal(size=(R, m, n) if transpose else (R, n, m))
    c = rng.normal(size=(5, m))
    out = ad.grouped_matmul(x0, W0, which, transpose=transpose)
    rows = np.broadcast_to(which, 5)
    for i, r in enumerate(rows):
        want = x0[i] @ (W0[r].T if transpose else W0[r])
        np.testing.assert_allclose(out[i], want, rtol=0, atol=1e-12)
    check_unary(lambda t: weighted_mean(ad.grouped_matmul(t, W0, which, transpose), c), x0)
    check_unary(lambda t: weighted_mean(ad.grouped_matmul(x0, t, which, transpose), c), W0)
    W = ad.leaf(W0)
    weighted_mean(ad.grouped_matmul(x0, W, which, transpose), c).backward()
    for r in range(R):
        assert (r in rows) == bool(W.grad[r].any())  # an empty group's gradient is exact zeros


def test_grouped_matmul_of_unordered_rows_is_the_grouped_product_reordered():
    # The same rows and operators, grouped or interleaved, give the same values bit
    # for bit, in row order, forward and backward.
    which = np.array([1, 0, 1, 0, 0])
    order = np.argsort(which, kind="stable")
    x0, W0, c = rng.normal(size=(5, 3)), rng.normal(size=(2, 3, 4)), rng.normal(size=(5, 4))
    x, W, xg, Wg = (ad.leaf(a) for a in (x0, W0, x0[order], W0))
    out = ad.grouped_matmul(x, W, which)
    assert np.array_equal(out.data[order], ad.grouped_matmul(xg, Wg, which[order]).data)
    weighted_mean(out, c).backward()
    weighted_mean(ad.grouped_matmul(xg, Wg, which[order]), c[order]).backward()
    assert np.array_equal(x.grad[order], xg.grad) and np.array_equal(W.grad, Wg.grad)


def test_grouped_matmul_chains_through_both_operands():
    # the factored form: (x @ W2[r]) @ W1[r].T per row, every operand a leaf
    which = [1, 0, 1, 1]
    x0, W1, W2 = rng.normal(size=(4, 3)), rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2))
    c = rng.normal(size=(4, 3))

    def build(x, a, b):
        return weighted_mean(ad.grouped_matmul(ad.grouped_matmul(x, b, which), a, which, True), c)

    check_unary(lambda t: build(t, W1, W2), x0)
    check_unary(lambda t: build(x0, t, W2), W1)
    check_unary(lambda t: build(x0, W1, t), W2)


BAD_WHICH = {
    "short": [0, 1, 1],
    "long": [0, 1, 1, 0, 0],
    "two-d": [[0, 1, 1, 0]],
    "float": [0.0, 1.0, 1.0, 0.0],
    "bool": [False, True, True, False],
    "negative": [0, -1, 1, 0],
    "past-the-stack": [0, 2, 1, 0],
    "negative-int": -1,
    "int-past-the-stack": 2,
    "float-scalar": 0.0,
    "none": None,
}


@pytest.mark.parametrize("which", BAD_WHICH.values(), ids=BAD_WHICH.keys())
def test_grouped_matmul_refuses_a_which_that_names_no_operator_per_row(which):
    x0, W0 = np.ones((4, 2)), np.ones((2, 2, 2))
    with pytest.raises(ValueError, match="which"):
        ad.grouped_matmul(x0, W0, which)


def test_diamond_graph_accumulation():
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    x0 = rng.normal(size=(1, 3))
    x = ad.leaf(x0)
    out = dot(ad.linear(x, a), ad.linear(x, b))  # x a.T b x.T: x feeds two paths
    out.backward()
    assert x.grad == pytest.approx(x0 @ (a.T @ b + b.T @ a), abs=1e-10)


def test_ndarray_operands_make_no_node():
    x0, w0 = rng.normal(size=(4, 3)), rng.normal(size=(2, 3, 3))
    plain = [
        ad.linear(x0, w0[0]),
        ad.linear(x0, w0[0], np.ones(3), shape=(4, 3, 1)),
        ad.grouped_matmul(x0, w0, [0, 1, 1, 1]),
        ad.grouped_matmul(x0, w0, 1),
    ]
    assert all(type(out) is np.ndarray for out in plain)
    x = ad.leaf(x0)
    out = ad.linear(x, w0[0])
    assert len(out._parents) == 1 and out._parents[0] is x  # the ndarray is a constant
    weighted_mean(out, np.ones((4, 3))).backward()
    assert x.grad is not None
    w = ad.leaf(w0[0])
    for b in (None, np.ones(3)):  # no bias, or an ndarray bias, makes no parent
        out = ad.linear(x0, w, b)
        assert len(out._parents) == 1 and out._parents[0] is w


def test_tensor_defines_no_arithmetic_operator():
    x = ad.leaf(np.ones((2, 2)))
    for op in (lambda: x + 1.0, lambda: np.ones((2, 2)) + x, lambda: np.ones((2, 2)) @ x):
        with pytest.raises(TypeError):
            op()


def test_backward_requires_scalar():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ValueError):
        ad.grouped_matmul(x, np.ones((1, 3, 2)), 0).backward()
