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


def test_matmul_right_operand_gradient_and_linear_layer_layout():
    x0 = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(5, 3))
    c = rng.normal(size=(4, 5))
    check_unary(lambda t: ad.mean(ad.matmul(ad.constant(x0), t) * c), w0.T.copy())
    check_unary(lambda t: ad.mean(ad.matmul(ad.constant(x0), t.T) * c), w0)
    # x @ W.T hands the leaf W a C-contiguous gradient, ready for the optimizer.
    w = ad.leaf(w0)
    ad.mean(ad.matmul(x0, w.T) * c).backward()
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
        np.testing.assert_allclose(out.data[lo:hi], want, rtol=0, atol=1e-12)
    check_unary(lambda t: ad.mean(ad.grouped_matmul(t, W0, bounds, transpose) * c), x0)
    check_unary(lambda t: ad.mean(ad.grouped_matmul(x0, t, bounds, transpose) * c), W0)
    W = ad.leaf(W0)
    ad.mean(ad.grouped_matmul(x0, W, bounds, transpose) * c).backward()
    for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        assert (hi > lo) == bool(W.grad[r].any())  # an empty segment's gradient is exact zeros


def test_grouped_matmul_chains_through_both_operands():
    # the factored form: (x @ W2[r]) @ W1[r].T per segment, every operand a leaf
    bounds = [0, 1, 4]
    x0, W1, W2 = rng.normal(size=(4, 3)), rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2))
    c = rng.normal(size=(4, 3))

    def build(x, a, b):
        return ad.mean(ad.grouped_matmul(ad.grouped_matmul(x, b, bounds), a, bounds, True) * c)

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
    check_unary(
        lambda t: ad.matmul(ad.constant(np.ones(3)), ad.matmul(t.T, ad.constant(np.ones(2)))),
        x0,
    )
    check_unary(
        lambda t: ad.matmul(t.reshape((6,)), ad.constant(np.arange(6.0))),
        x0,
    )


def test_cosine_gradients():
    # row-wise cosines: normalize_rows then row_dot
    a0 = rng.normal(size=(3, 5))
    b0 = rng.normal(size=(3, 5))
    w = rng.normal(size=3)

    def cos(a, b):
        return ad.matmul(ad.row_dot(ad.normalize_rows(a), ad.normalize_rows(b)), ad.constant(w))

    check_unary(lambda t: cos(t, ad.constant(b0)), a0)
    check_unary(lambda t: cos(ad.constant(a0), t), b0)
    want = np.sum(a0 * b0, axis=1) / (np.linalg.norm(a0, axis=1) * np.linalg.norm(b0, axis=1))
    got = ad.row_dot(ad.normalize_rows(a0), ad.normalize_rows(b0)).data
    assert got == pytest.approx(want, abs=1e-14)


def test_cosine_zero_norm_raises():
    x = np.ones((3, 4))
    x[1] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        ad.normalize_rows(ad.constant(x))


def test_normalize_rows_and_row_dot_gradients():
    x0 = rng.normal(size=(4, 3))
    g = rng.normal(size=(4, 3))
    check_unary(lambda t: ad.mean(ad.normalize_rows(t) * g), x0)
    y0 = rng.normal(size=(4, 3))
    check_unary(lambda t: ad.mean(ad.row_dot(t, ad.constant(y0)) * ad.row_dot(t, t)), x0)
    with pytest.raises(ValueError):
        ad.row_dot(ad.constant(x0), ad.constant(x0[:2]))


def test_logsumexp_value_and_grads():
    vals = np.array([[2.0, -1.0, 0.5], [0.3, 0.3, -4.0]])
    x = ad.leaf(vals)
    out = ad.matmul(ad.logsumexp(x), ad.constant(np.ones(2)))
    out.backward()
    expected = np.log(np.sum(np.exp(vals), axis=1))
    assert ad.logsumexp(vals).data == pytest.approx(expected, abs=1e-12)
    soft = np.exp(vals) / np.sum(np.exp(vals), axis=1, keepdims=True)
    assert x.grad == pytest.approx(soft, abs=1e-12)


def test_masked_logsumexp_ignores_masked_entries():
    vals = rng.normal(size=(3, 4))
    mask = np.array([[True, False, True, True], [False, False, True, False], [True] * 4])
    got = ad.logsumexp(vals, mask).data
    for i in range(3):
        assert got[i] == pytest.approx(np.log(np.sum(np.exp(vals[i][mask[i]]))), abs=1e-12)
    x = ad.leaf(vals)
    ad.mean(ad.logsumexp(x, mask)).backward()
    assert np.all(x.grad[~mask] == 0.0)
    check_unary(lambda t: ad.mean(ad.logsumexp(t, mask)), vals)
    with pytest.raises(ValueError, match="no entries"):
        ad.logsumexp(vals, np.zeros((3, 4), dtype=bool))


def test_logsumexp_is_stable_for_large_scores():
    out = ad.logsumexp(np.array([[1000.0, 999.0], [-1000.0, -1001.0]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1000.0 + np.log(1 + np.exp(-1.0)), abs=1e-9)
    assert out.data[1] == pytest.approx(-1000.0 + np.log(1 + np.exp(-1.0)), abs=1e-9)


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
    ad.mean(picked * picked).backward()
    assert x.grad == pytest.approx(x0 / 3, abs=1e-12)


def test_broadcasting_gradients_reduce_to_operand_shapes():
    m0 = rng.normal(size=(3, 4))
    row = rng.normal(size=4)
    s = ad.leaf(np.array(0.7))
    v = ad.leaf(row)
    out = ad.mean((ad.constant(m0) - v) / s)
    out.backward()
    assert v.grad.shape == (4,) and s.grad.shape == ()
    assert v.grad == pytest.approx(np.full(4, -1 / (4 * 0.7)), abs=1e-12)
    assert float(s.grad) == pytest.approx(-np.mean(m0 - row) / 0.7**2, abs=1e-12)
    check_unary(lambda t: ad.mean((ad.constant(m0) - t) * (ad.constant(m0) * t)), row)


def test_diamond_graph_accumulation():
    x = ad.leaf(np.array(0.7))
    y = x * 2.0
    z = x * 3.0
    out = y * z  # 6 x^2 -> d/dx = 12 x
    out.backward()
    assert float(x.grad) == pytest.approx(12 * 0.7, abs=1e-10)


def test_constants_collect_no_grad():
    c = ad.constant(np.ones((1, 3)))
    x = ad.leaf(rng.normal(size=(1, 3)))
    out = ad.mean(ad.row_dot(c, ad.normalize_rows(x)))
    out.backward()
    assert c.grad is None
    assert x.grad is not None


def test_backward_requires_scalar():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ValueError):
        (x * 2.0).backward()
