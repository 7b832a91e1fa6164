"""Per-op finite-difference checks for the reverse-mode tape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """The mean of t * c (a scalar), as one matrix product."""
    return ad.matmul(t.reshape((-1,)), np.ravel(c) / np.size(c))


rng = np.random.default_rng(0)


def test_matmul_matrix_vector():
    m0 = rng.normal(size=(3, 4))
    v0 = rng.normal(size=4)
    w = rng.normal(size=3)
    m = ad.leaf(m0)
    out = ad.matmul(w, ad.matmul(m, v0))
    out.backward()
    assert m.grad == pytest.approx(np.outer(w, v0), abs=1e-12)
    check_unary(lambda t: ad.matmul(w, ad.matmul(t, v0)), m0)


def test_matmul_matrix_matrix():
    a0 = rng.normal(size=(3, 2))
    b0 = rng.normal(size=(2, 3))
    check_unary(
        lambda t: ad.matmul(np.ones(3), ad.matmul(ad.matmul(t, b0), np.ones(3))),
        a0,
    )


def test_matmul_right_operand_gradient_and_linear_layer_layout():
    x0 = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(5, 3))
    c = rng.normal(size=(4, 5))
    check_unary(lambda t: weighted_mean(ad.matmul(x0, t), c), w0.T.copy())
    check_unary(lambda t: weighted_mean(ad.matmul(x0, t.T), c), w0)
    # x @ W.T hands the leaf W a C-contiguous gradient, ready for the optimizer.
    w = ad.leaf(w0)
    weighted_mean(ad.matmul(x0, w.T), c).backward()
    assert w.grad.shape == w0.shape and w.grad.flags.c_contiguous


GROUPED_BOUNDS = {
    "one-segment": [0, 5],
    "one-row-segments": [0, 1, 2, 3, 4, 5],
    "mixed": [0, 2, 3, 5],
    "empty-segment": [0, 2, 2, 5],
    "empty-ends": [0, 0, 5, 5],
}


@pytest.mark.parametrize("transpose", [False, True], ids=["W", "W.T"])
@pytest.mark.parametrize("bounds", GROUPED_BOUNDS.values(), ids=GROUPED_BOUNDS.keys())
def test_grouped_matmul_values_and_gradients(bounds, transpose):
    R, n, m = len(bounds) - 1, 3, 4
    x0 = rng.normal(size=(5, n))
    W0 = rng.normal(size=(R, m, n) if transpose else (R, n, m))
    c = rng.normal(size=(5, m))
    out = ad.grouped_matmul(x0, W0, bounds, transpose=transpose)
    for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        want = x0[lo:hi] @ (W0[r].T if transpose else W0[r])
        np.testing.assert_allclose(out[lo:hi], want, rtol=0, atol=1e-12)
    check_unary(lambda t: weighted_mean(ad.grouped_matmul(t, W0, bounds, transpose), c), x0)
    check_unary(lambda t: weighted_mean(ad.grouped_matmul(x0, t, bounds, transpose), c), W0)
    W = ad.leaf(W0)
    weighted_mean(ad.grouped_matmul(x0, W, bounds, transpose), c).backward()
    for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert (hi > lo) == bool(W.grad[r].any())  # an empty segment's gradient is exact zeros


def test_grouped_matmul_chains_through_both_operands():
    # the factored form: (x @ W2[r]) @ W1[r].T per segment, every operand a leaf
    bounds = [0, 1, 4]
    x0, W1, W2 = rng.normal(size=(4, 3)), rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2))
    c = rng.normal(size=(4, 3))

    def build(x, a, b):
        return weighted_mean(ad.grouped_matmul(ad.grouped_matmul(x, b, bounds), a, bounds, True), c)

    check_unary(lambda t: build(t, W1, W2), x0)
    check_unary(lambda t: build(x0, t, W2), W1)
    check_unary(lambda t: build(x0, W1, t), W2)


def test_grouped_matmul_rejects_mismatched_bounds():
    x0, W0 = np.ones((4, 2)), np.ones((2, 2, 2))
    for bounds in ([0, 4], [0, 2, 3], [1, 2, 4], [0, 1, 2, 4]):
        with pytest.raises(ValueError, match="bounds"):
            ad.grouped_matmul(x0, W0, bounds)


def test_transpose_and_reshape():
    x0 = rng.normal(size=(2, 3))
    check_unary(lambda t: ad.matmul(np.ones(3), ad.matmul(t.T, np.ones(2))), x0)
    check_unary(lambda t: ad.matmul(t.reshape((6,)), np.arange(6.0)), x0)


def test_take_rows_rejects_a_repeated_index():
    x = ad.leaf(rng.normal(size=(3, 2)))
    for idx in ([2, 0, 2], [0, -3]):  # -3 is row 0 again
        with pytest.raises(ValueError, match="repeated row index"):
            ad.take_rows(x, idx)


def add_at_backward(shape, idx, g):
    """The scatter-add backward of a row take: zeros, then np.add.at."""
    out = np.zeros(shape)
    np.add.at(out, idx, g)
    return out


FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), width=st.integers(1, 3))
def test_take_rows_backward_equals_add_at_bit_for_bit(data, n, width):
    # permutations (k == n) and partial permutations (k < n), signed zeros included
    k = data.draw(st.integers(0, n))
    idx = np.array(data.draw(st.permutations(range(n)))[:k], dtype=np.intp)
    g = np.array(data.draw(st.lists(FLOATS, min_size=k * width, max_size=k * width)))
    g = g.reshape(k, width)
    x = ad.leaf(np.zeros((n, width)))
    picked = ad.take_rows(x, idx)
    (got,) = (vjp(g) for vjp in picked._vjps)
    want = add_at_backward((n, width), idx, g)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_take_rows_gradient_of_a_permutation():
    x0 = rng.normal(size=(3, 2))
    x = ad.leaf(x0)
    picked = ad.take_rows(x, [2, 0, 1])
    assert np.array_equal(picked.data, x0[[2, 0, 1]])
    c = rng.normal(size=(3, 2))
    weighted_mean(picked, c).backward()
    assert np.array_equal(x.grad[[2, 0, 1]], c / 6)


def test_broadcasting_gradients_reduce_to_operand_shapes():
    m0 = rng.normal(size=(3, 4))
    row = rng.normal(size=4)
    c = rng.normal(size=(3, 4))
    s = ad.leaf(np.array(0.7))
    v = ad.leaf(row)
    weighted_mean(m0 + v + s, c).backward()
    assert v.grad.shape == (4,) and s.grad.shape == ()
    assert v.grad == pytest.approx(c.sum(axis=0) / 12, abs=1e-12)
    assert float(s.grad) == pytest.approx(c.sum() / 12, abs=1e-12)
    check_unary(lambda t: weighted_mean(ad.matmul(m0 + t, np.ones((4, 2))), c[:, :2]), row)


def test_diamond_graph_accumulation():
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    x0 = rng.normal(size=3)
    x = ad.leaf(x0)
    out = ad.matmul(ad.matmul(a, x), ad.matmul(b, x))  # x.T a.T b x: x feeds two paths
    out.backward()
    assert x.grad == pytest.approx((a.T @ b + b.T @ a) @ x0, abs=1e-10)


def test_ndarray_operands_make_no_node():
    x0, w0 = rng.normal(size=(4, 3)), rng.normal(size=(2, 3, 3))
    plain = [
        x0 + 1.0,
        ad.matmul(x0, w0[0]),
        ad.grouped_matmul(x0, w0, [0, 1, 4]),
        ad.take_rows(x0, [3, 1]),
    ]
    assert all(type(out) is np.ndarray for out in plain)
    x = ad.leaf(x0)
    out = ad.matmul(x, w0[0])
    assert len(out._parents) == 1 and out._parents[0] is x  # the ndarray is a constant
    weighted_mean(out, np.ones((4, 3))).backward()
    assert x.grad is not None


def test_backward_requires_scalar():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ValueError):
        (x + 2.0).backward()
