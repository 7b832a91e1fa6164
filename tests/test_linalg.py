import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condcl.errors import DimensionMismatchError
from condcl.hypernet import (
    ConditionOperator,
    apply_stack,
    diagonal_operator,
    operator_frobenius_normalized,
)
from condcl.linalg import is_finite_real, variance


def matvec(m, v):
    op = ConditionOperator("full", {"W": np.asarray(m, dtype=np.float64)[None]})
    return apply_stack(op, v, (0, 1))[0]


class TestMatvec:
    """Matrix-vector products, as a one-operator dense stack computes them."""

    def test_identity_matrix(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(matvec(np.eye(3), v), v)

    def test_scaling(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(matvec(2 * np.eye(3), v), 2 * v)

    def test_against_naive_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = rng.normal(size=(5, 7))
            v = rng.normal(size=7)
            expected = np.zeros(5)
            for i in range(5):
                for j in range(7):
                    expected[i] += m[i, j] * v[j]
            assert matvec(m, v) == pytest.approx(expected, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matvec(np.eye(3), np.ones(4))

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_distributes_over_addition(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        u, v = rng.normal(size=n), rng.normal(size=n)
        assert matvec(m, u + v) == pytest.approx(matvec(m, u) + matvec(m, v), abs=1e-10)


class TestFrobeniusNormalized:
    """Operator norms divided by sqrt(#stored scalars) of the operator's form."""

    def test_identity_diagonal_convention(self):
        for n in (2, 5, 9):
            op = diagonal_operator(np.ones((2, n)))
            assert operator_frobenius_normalized(op) == pytest.approx([1.0, 1.0])

    def test_identity_dense_convention(self):
        for n in (2, 5, 9):
            op = ConditionOperator("full", {"W": np.eye(n)[None]})
            assert operator_frobenius_normalized(op) == pytest.approx([1 / np.sqrt(n)])

    def test_diag_vector_norm(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=6)
        got = operator_frobenius_normalized(diagonal_operator(h[None]))
        assert got == pytest.approx([np.linalg.norm(h) / np.sqrt(6)], rel=1e-12)

    def test_nonnegative_zero_iff_zero(self):
        rng = np.random.default_rng(3)
        stack = np.stack([np.zeros((3, 3)), rng.normal(size=(3, 3))])
        norms = operator_frobenius_normalized(ConditionOperator("full", {"W": stack}))
        assert norms[0] == 0.0 and norms[1] > 0.0


class TestIsFiniteReal:
    def test_finite_numbers(self):
        assert all(is_finite_real(x) for x in (0, -3, 1e-8, 2.5, np.float32(1.0), np.int64(4)))

    def test_rejects_non_finite_and_non_numbers(self):
        for x in (float("nan"), float("inf"), -np.inf, 10**400, True, "1.0", None, [1.0]):
            assert not is_finite_real(x)


class TestVariance:
    def test_constant(self):
        assert variance([4.2, 4.2, 4.2]) == 0.0

    def test_two_point(self):
        assert variance([0.0, 2.0]) == pytest.approx(1.0)

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=97).tolist()
        mean = sum(xs) / len(xs)
        expected = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert variance(xs) == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            variance([])
