"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers how it was produced; calling
backward() on a scalar output accumulates vector-Jacobian products into the
leaves that were created with requires_grad=True. The op set is exactly what
the projection/loss graphs need: affine maps, cosine similarity, and a
stabilized log-sum-exp.

Gradients flow only through Tensors; plain ndarrays and floats are treated
as constants.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "constant", "leaf", "matmul", "cosine", "logsumexp", "add_n"]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    # Keep numpy from absorbing Tensor operands into object arrays; reflected
    # operators below handle ndarray-on-the-left expressions instead.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, parents=(), vjps=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        self.grad: np.ndarray | None = None
        if self.requires_grad:
            self._parents = tuple(parents)
            self._vjps = tuple(vjps)
        else:
            self._parents = ()
            self._vjps = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # -- graph construction ------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, constant(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __rmatmul__(self, other):
        return matmul(_as_tensor(other), self)

    def reshape(self, shape) -> "Tensor":
        old_shape = self.data.shape
        out = self.data.reshape(shape)
        return Tensor(out, parents=(self,), vjps=(lambda g: g.reshape(old_shape),))

    @property
    def T(self) -> "Tensor":
        if self.data.ndim != 2:
            raise ValueError("transpose expects a 2-D tensor")
        return Tensor(self.data.T, parents=(self,), vjps=(lambda g: g.T,))

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into all requires_grad leaves."""
        if self.data.shape != ():
            raise ValueError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                if not parent.requires_grad:
                    continue
                contrib = vjp(g)
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad = parent.grad + contrib


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


def leaf(x) -> Tensor:
    return Tensor(x, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _scalar_aware(pair_shape_a, pair_shape_b):
    if pair_shape_a == pair_shape_b:
        return
    if pair_shape_a == () or pair_shape_b == ():
        return
    raise ValueError(f"shape mismatch: {pair_shape_a} vs {pair_shape_b}")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # Only ()-with-array broadcasting is permitted, so a full sum suffices.
    if g.shape == shape:
        return g
    return np.asarray(np.sum(g), dtype=np.float64)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _scalar_aware(a.data.shape, b.data.shape)
    return Tensor(
        a.data + b.data,
        parents=(a, b),
        vjps=(lambda g: _reduce_to(g, a.data.shape), lambda g: _reduce_to(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _scalar_aware(a.data.shape, b.data.shape)
    return Tensor(
        a.data - b.data,
        parents=(a, b),
        vjps=(lambda g: _reduce_to(g, a.data.shape), lambda g: _reduce_to(-g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _scalar_aware(a.data.shape, b.data.shape)
    return Tensor(
        a.data * b.data,
        parents=(a, b),
        vjps=(
            lambda g: _reduce_to(g * b.data, a.data.shape),
            lambda g: _reduce_to(g * a.data, b.data.shape),
        ),
    )


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _scalar_aware(a.data.shape, b.data.shape)
    return Tensor(
        a.data / b.data,
        parents=(a, b),
        vjps=(
            lambda g: _reduce_to(g / b.data, a.data.shape),
            lambda g: _reduce_to(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 1:
        vjps = (lambda g: np.outer(g, bd), lambda g: ad.T @ g)
    elif ad.ndim == 2 and bd.ndim == 2:
        vjps = (lambda g: g @ bd.T, lambda g: ad.T @ g)
    elif ad.ndim == 1 and bd.ndim == 1:
        vjps = (lambda g: g * bd, lambda g: g * ad)
    else:
        raise ValueError(f"unsupported matmul ranks: {ad.ndim} @ {bd.ndim}")
    return Tensor(ad @ bd, parents=(a, b), vjps=vjps)


def add_n(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("add_n of empty list")
    shape = parts[0].data.shape
    for p in parts:
        if p.data.shape != shape:
            raise ValueError("add_n expects equal shapes")
    total = parts[0].data.copy()
    for p in parts[1:]:
        total += p.data
    return Tensor(total, parents=tuple(parts), vjps=tuple(lambda g: g for _ in parts))


def cosine(a, b) -> Tensor:
    """Fused cosine similarity with its analytic vector-Jacobian products."""
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.data, b.data
    if av.ndim != 1 or bv.ndim != 1 or av.shape != bv.shape:
        raise ValueError("cosine expects equal-length 1-D tensors")
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine: zero-norm input")
    phi = float(av @ bv) / (na * nb)

    def vjp_a(g):
        return g * (bv / (na * nb) - phi * av / (na * na))

    def vjp_b(g):
        return g * (av / (na * nb) - phi * bv / (nb * nb))

    return Tensor(phi, parents=(a, b), vjps=(vjp_a, vjp_b))


def logsumexp(values: list[Tensor]) -> Tensor:
    """log(sum(exp(v_i))) over scalar tensors, max-shifted for stability."""
    if not values:
        raise ValueError("logsumexp of empty list")
    vals = np.array([float(v.data) for v in values], dtype=np.float64)
    m = float(vals.max())
    shifted = np.exp(vals - m)
    total = float(shifted.sum())
    out = m + float(np.log(total))
    weights = shifted / total

    def make_vjp(i: int):
        w = weights[i]
        return lambda g: np.asarray(g * w, dtype=np.float64)

    return Tensor(out, parents=tuple(values), vjps=tuple(make_vjp(i) for i in range(len(values))))
