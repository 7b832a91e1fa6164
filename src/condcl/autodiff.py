"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and remembers how it was produced; calling
backward() on a scalar output accumulates vector-Jacobian products into the
leaves that were created with requires_grad=True. The ops work on whole
matrices, so one training batch is a graph of a few dozen nodes: broadcasting
arithmetic, matrix products, a grouped product (row segment r times matrix r
of a stack: a batch's rows through their conditions' generated operators),
row normalisation, row-wise dot products, a masked log-sum-exp along the
last axis, the mean, and row take (distinct rows).

Gradients flow only through Tensors; plain ndarrays and floats are treated
as constants.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "constant", "leaf", "matmul", "grouped_matmul", "normalize_rows", "row_dot",
    "logsumexp", "mean", "take_rows",
]


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

    # Arithmetic operators (__add__, __rsub__, __matmul__, ...) are attached
    # below the op functions they call.

    def __neg__(self):
        return mul(self, -1.0)

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
                # Gradients are never updated in place, so contrib can be shared.
                parent.grad = contrib if parent.grad is None else parent.grad + contrib


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


def leaf(x) -> Tensor:
    return Tensor(x, requires_grad=True)


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(data, *operands) -> Tensor:
    """A Tensor over ``data`` with a parent per (operand, vjp) pair whose
    operand is a Tensor; ndarray and float operands are constants and make
    no node."""
    live = [(x, vjp) for x, vjp in operands if isinstance(x, Tensor)]
    return Tensor(data, parents=[x for x, _ in live], vjps=[vjp for _, vjp in live])


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back onto an operand of ``shape``."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return np.asarray(g.sum(axis=axes, keepdims=True) if axes else g, dtype=np.float64)


def add(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _node(
        ad + bd,
        (a, lambda g: _reduce_to(g, ad.shape)),
        (b, lambda g: _reduce_to(g, bd.shape)),
    )


def sub(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _node(
        ad - bd,
        (a, lambda g: _reduce_to(g, ad.shape)),
        (b, lambda g: _reduce_to(-g, bd.shape)),
    )


def mul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _node(
        ad * bd,
        (a, lambda g: _reduce_to(g * bd, ad.shape)),
        (b, lambda g: _reduce_to(g * ad, bd.shape)),
    )


def div(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _node(
        ad / bd,
        (a, lambda g: _reduce_to(g / bd, ad.shape)),
        (b, lambda g: _reduce_to(-g * ad / (bd * bd), bd.shape)),
    )


def matmul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    if ad.ndim == 2 and bd.ndim == 1:
        vjp_a, vjp_b = (lambda g: np.outer(g, bd)), (lambda g: ad.T @ g)
    elif ad.ndim == 2 and bd.ndim == 2:
        # (g.T @ a).T rather than a.T @ g: when b is W.T of a leaf W (the
        # linear-layer form x @ W.T), W then receives a C-contiguous gradient.
        vjp_a, vjp_b = (lambda g: g @ bd.T), (lambda g: (g.T @ ad).T)
    elif ad.ndim == 1 and bd.ndim == 1:
        vjp_a, vjp_b = (lambda g: g * bd), (lambda g: g * ad)
    else:
        raise ValueError(f"unsupported matmul ranks: {ad.ndim} @ {bd.ndim}")
    return _node(ad @ bd, (a, vjp_a), (b, vjp_b))


def grouped_matmul(x, W, bounds, transpose: bool = False) -> Tensor:
    """Rows bounds[r]:bounds[r+1] of x (B x n) times matrix r of the stack W:
    ``x[lo:hi] @ W[r]``, or ``x[lo:hi] @ W[r].T`` when ``transpose``. One
    product per nonempty segment forward and two backward (an empty segment's
    W gradient is zeros); no per-row copies of W."""
    xd, Wd = _data(x), _data(W)
    if len(bounds) != Wd.shape[0] + 1 or bounds[0] != 0 or bounds[-1] != xd.shape[0]:
        raise ValueError("grouped_matmul: bounds do not split x into one segment per matrix")
    segs = [(r, lo, hi) for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo]
    Ws = Wd.transpose(0, 2, 1) if transpose else Wd
    out = np.empty((xd.shape[0], Ws.shape[2]))
    for r, lo, hi in segs:  # in place: concatenating the products costs more
        np.matmul(xd[lo:hi], Ws[r], out=out[lo:hi])

    def grad_x(g):
        gx = np.empty(xd.shape)
        for r, lo, hi in segs:
            np.matmul(g[lo:hi], Ws[r].T, out=gx[lo:hi])
        return gx

    def grad_W(g):
        gW = np.zeros(Wd.shape)
        for r, lo, hi in segs:
            gW[r] = g[lo:hi].T @ xd[lo:hi] if transpose else xd[lo:hi].T @ g[lo:hi]
        return gW

    return _node(out, (x, grad_x), (W, grad_W))


def normalize_rows(x) -> Tensor:
    """Each row of a 2-D tensor divided by its Euclidean norm."""
    xd = _data(x)
    norms = np.sqrt(np.einsum("ij,ij->i", xd, xd))[:, None]
    if np.any(norms == 0.0):
        raise ValueError("normalize_rows: zero-norm input")
    y = xd / norms
    return _node(y, (x, lambda g: (g - y * np.einsum("ij,ij->i", g, y)[:, None]) / norms))


def row_dot(a, b) -> Tensor:
    """Dot product of matching rows of two equal-shape 2-D tensors: shape (B,)."""
    ad, bd = _data(a), _data(b)
    return _node(
        np.einsum("ij,ij->i", ad, bd),
        (a, lambda g: g[:, None] * bd),
        (b, lambda g: g[:, None] * ad),
    )


def logsumexp(x, mask=None) -> Tensor:
    """log(sum(exp(x))) along the last axis of a 2-D tensor, max-shifted.

    ``mask`` (boolean, x's shape) keeps the entries that take part; a row
    with no kept entry raises ValueError. Masked entries get zero gradient.
    """
    xd = _data(x)
    if mask is None:
        mask = np.ones(xd.shape, dtype=bool)
    if not np.all(mask.any(axis=1)):
        raise ValueError("logsumexp over a row with no entries")
    kept = np.where(mask, xd, -np.inf)
    m = kept.max(axis=1, keepdims=True)
    e = np.exp(kept - m)
    total = e.sum(axis=1, keepdims=True)
    weights = e / total
    return _node((m + np.log(total))[:, 0], (x, lambda g: g[:, None] * weights))


def mean(x) -> Tensor:
    """Mean of all entries: a scalar."""
    xd = _data(x)
    return _node(xd.mean(), (x, lambda g: np.full(xd.shape, g / xd.size)))


def take_rows(x, idx) -> Tensor:
    """Rows ``idx`` of a 2-D tensor, in that order; ``idx`` must not repeat a row."""
    xd = _data(x)
    idx = np.asarray(idx, dtype=np.intp)
    taken = np.zeros(xd.shape[0], dtype=bool)
    taken[idx] = True
    if np.count_nonzero(taken) != idx.size:
        raise ValueError("take_rows: repeated row index")

    def vjp(g):
        out = np.zeros(xd.shape)
        out[idx] = g + 0.0  # + 0.0 turns -0.0 into 0.0, as adding into zeros does
        return out

    return _node(xd[idx], (x, vjp))


for _name, _op in (("add", add), ("sub", sub), ("mul", mul), ("truediv", div), ("matmul", matmul)):
    setattr(Tensor, f"__{_name}__", lambda self, other, op=_op: op(self, other))
    setattr(Tensor, f"__r{_name}__", lambda self, other, op=_op: op(other, self))
