"""Minimal reverse-mode automatic differentiation over numpy arrays, for training.

A Tensor wraps a float64 ndarray and remembers how it was produced; calling
backward() on a scalar output accumulates vector-Jacobian products into the
leaves of its graph. A training batch is built from three ops: the linear
layer ``x @ W.T + b`` (a generator tensor over condition embeddings, and
concat's merge), a grouped product (row segment r times matrix r of a stack:
a batch's rows through their conditions' generated operators) and row take
(distinct rows). Each batch loss is then one node with a closed-form
vector-Jacobian product (``losses.csts_loss``, ``losses.kgc_loss``), made
through ``node``.

The linear layer's weight gradient ``G.T @ x`` stays as its factor pair (G, x),
a ``Factored`` that ``np.asarray`` multiplies out; the optimizer forms it a
slice of rows at a time, so no U-sized generator gradient is ever held.

Gradients flow only through Tensors; plain ndarrays and floats are constants,
and an op whose operands are all constants returns the plain ndarray, so
inference never builds a Tensor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Factored", "Tensor", "leaf", "value", "node", "linear", "grouped_matmul", "take_rows"]


class Factored:
    """The matrix ``G.T @ x`` as its two factors, G (B x m) and x (B x n):
    ``np.asarray`` gives the C-contiguous m x n product."""

    __slots__ = ("G", "x")

    def __init__(self, G: np.ndarray, x: np.ndarray):
        self.G, self.x = G, x

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.G.T @ self.x, dtype=dtype)


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_vjps")

    # Keep numpy from absorbing Tensor operands into object arrays: Tensor
    # defines no arithmetic operator, so ``ndarray op Tensor`` raises TypeError.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), vjps=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | Factored | None = None
        self._parents = tuple(parents)
        self._vjps = tuple(vjps)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

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


def linear(x, W, b=None, shape=None) -> Tensor | np.ndarray:
    """The linear layer ``x @ W.T + b`` of rows x (B x n), weights W (m x n) and an
    optional bias b (m,), reshaped to ``shape`` if given. With G the output
    gradient as B x m, the vjps are ``G @ W`` for x, ``G.sum(axis=0)`` for b and,
    for W, ``Factored(G, x)``: the factors of ``G.T @ x``, not their product. So W
    must be a leaf, used once, whose gradient the optimizer reads."""
    xd, Wd = value(x), value(W)
    out = xd @ Wd.T if b is None else xd @ Wd.T + value(b)
    shape_2d = out.shape
    return node(
        out if shape is None else out.reshape(shape),
        (x, lambda g: g.reshape(shape_2d) @ Wd),
        (W, lambda g: Factored(g.reshape(shape_2d), xd)),
        (b, lambda g: g.reshape(shape_2d).sum(axis=0)),
    )


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
