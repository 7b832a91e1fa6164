"""Minimal reverse-mode automatic differentiation over numpy arrays, for training.

A Tensor wraps a float64 ndarray and remembers how it was produced; calling
backward() on a scalar output accumulates vector-Jacobian products into the
leaves of its graph. Only the generator and projection of a training batch
are built from generic ops: broadcasting addition and matrix products (the
linear layers ``H @ U.T + bias``), transpose and reshape, a grouped product
(row segment r times matrix r of a stack: a batch's rows through their
conditions' generated operators) and row take (distinct rows). Each batch
loss is then one node with a closed-form vector-Jacobian product
(``losses.csts_loss``, ``losses.kgc_loss``), made through ``node``.

Gradients flow only through Tensors; plain ndarrays and floats are constants,
and an op whose operands are all constants returns the plain ndarray, so
inference never builds a Tensor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "leaf", "value", "node", "matmul", "grouped_matmul", "take_rows"]


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjps")

    # Keep numpy from absorbing Tensor operands into object arrays; reflected
    # operators below handle ndarray-on-the-left expressions instead.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjps=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = tuple(parents)
        self._vjps = tuple(vjps)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # -- graph construction ------------------------------------------------

    # The operators __add__, __radd__, __matmul__ and __rmatmul__ are attached
    # below the op functions they call.

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
        """Accumulate gradients of this scalar into every leaf of its graph."""
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
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):  # every node is reached, and so has a gradient
            for parent, vjp in zip(node._parents, node._vjps):
                contrib = vjp(node.grad)
                # Gradients are never updated in place, so contrib can be shared.
                parent.grad = contrib if parent.grad is None else parent.grad + contrib


def leaf(x) -> Tensor:
    return Tensor(x)


def value(x) -> np.ndarray:
    """The array of a Tensor, or an array-like as a float64 ndarray."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def node(data, *operands):
    """``data`` as a Tensor with a parent per (operand, vjp) pair whose operand
    is a Tensor; with no Tensor operand, ``data`` itself: ndarray and float
    operands are constants and make no node."""
    live = [(x, vjp) for x, vjp in operands if isinstance(x, Tensor)]
    if not live:
        return data
    return Tensor(data, parents=[x for x, _ in live], vjps=[vjp for _, vjp in live])


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back onto an operand of ``shape``."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return np.asarray(g.sum(axis=axes, keepdims=True) if axes else g, dtype=np.float64)


def add(a, b) -> Tensor | np.ndarray:
    ad, bd = value(a), value(b)
    return node(
        ad + bd,
        (a, lambda g: _reduce_to(g, ad.shape)),
        (b, lambda g: _reduce_to(g, bd.shape)),
    )


def matmul(a, b) -> Tensor | np.ndarray:
    ad, bd = value(a), value(b)
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
    return node(ad @ bd, (a, vjp_a), (b, vjp_b))


def grouped_matmul(x, W, bounds, transpose: bool = False) -> Tensor | np.ndarray:
    """Rows bounds[r]:bounds[r+1] of x (B x n) times matrix r of the stack W:
    ``x[lo:hi] @ W[r]``, or ``x[lo:hi] @ W[r].T`` when ``transpose``. One
    product per nonempty segment forward and two backward (an empty segment's
    W gradient is zeros); no per-row copies of W."""
    xd, Wd = value(x), value(W)
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

    return node(out, (x, grad_x), (W, grad_W))


def take_rows(x, idx) -> Tensor | np.ndarray:
    """Rows ``idx`` of a 2-D array, in that order; ``idx`` must not repeat a row."""
    xd = value(x)
    idx = np.asarray(idx, dtype=np.intp)
    taken = np.zeros(xd.shape[0], dtype=bool)
    taken[idx] = True
    if np.count_nonzero(taken) != idx.size:
        raise ValueError("take_rows: repeated row index")

    def vjp(g):
        out = np.zeros(xd.shape)
        out[idx] = g + 0.0  # + 0.0 turns -0.0 into 0.0, as adding into zeros does
        return out

    return node(xd[idx], (x, vjp))


for _name, _op in (("add", add), ("matmul", matmul)):
    setattr(Tensor, f"__{_name}__", lambda self, other, op=_op: op(self, other))
    setattr(Tensor, f"__r{_name}__", lambda self, other, op=_op: op(other, self))
