"""Minimal reverse-mode automatic differentiation over numpy arrays, for training.

A Tensor wraps a float64 ndarray and remembers how it was produced; calling
backward() on a scalar output accumulates vector-Jacobian products into the
leaves of its graph. A training batch is built from two ops: the linear
layer ``x @ W.T + b`` (a generator tensor over condition embeddings, and
concat's merge) and a grouped product (row i times matrix ``which[i]`` of a
stack, each group of rows multiplied straight into its rows: a batch's rows,
in batch order, through their conditions' generated operators). Each batch
loss is then one node with a closed-form vector-Jacobian product
(``losses.csts_loss``, ``losses.kgc_loss``), made through ``node``.

The linear layer's weight gradient ``G.T @ x`` stays as its factor pair (G, x),
a ``Factored`` that ``np.asarray`` multiplies out; the optimizer forms it a
slice of rows at a time, so no U-sized generator gradient is ever held.

Gradients flow only through Tensors; plain ndarrays and floats are constants,
and an op whose operands are all constants returns the plain ndarray, so
inference never builds a Tensor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Factored", "Tensor", "leaf", "value", "node", "linear", "check_which", "grouped_matmul"]


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
    must be a leaf, used once, whose gradient the optimizer reads. b is added in
    place, so the layer peaks at the memory of its output, not twice that."""
    xd, Wd = value(x), value(W)
    out = xd @ Wd.T
    if b is not None:
        out += value(b)
    shape_2d = out.shape
    return node(
        out if shape is None else out.reshape(shape),
        (x, lambda g: g.reshape(shape_2d) @ Wd),
        (W, lambda g: Factored(g.reshape(shape_2d), xd)),
        (b, lambda g: g.reshape(shape_2d).sum(axis=0)),
    )


def check_which(which, size: int, rows: int):
    """``which`` as one int for every row, or an intp array of one index per row, each
    an operator of a stack of ``size``; anything else, a negative index included
    (numpy would wrap it), raises ValueError."""
    arr = np.asarray(which)
    if arr.shape not in ((), (rows,)) or (
        arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= size)
    ):
        raise ValueError(f"which must be an int or {rows} integers in [0, {size}), got {which!r}")
    return int(arr) if arr.ndim == 0 else arr.astype(np.intp, copy=False)


def grouped_matmul(x, W, which, transpose: bool = False) -> Tensor | np.ndarray:
    """Row i of x (B x n) times matrix ``which[i]`` of the stack W, in row order:
    ``x[i] @ W[which[i]]``, or ``x[i] @ W[which[i]].T`` when ``transpose``; ``which``
    is one index per row, or one int for every row (one product over all rows,
    also taken when every index names one matrix). Otherwise each nonempty
    group's rows are gathered, multiplied by its matrix and written straight back
    to those rows, forward and for the x gradient; its W gradient reads the
    group's rows of g and x (an empty group's is zeros). So beyond the output one
    group's rows are held at a time, and W is not copied."""
    xd, Wd = value(x), value(W)
    which = check_which(which, len(Wd), len(xd))
    if not isinstance(which, int) and which.size and (which == which[0]).all():
        which = int(which[0])
    if isinstance(which, int):
        groups = [(which, slice(None))]
    else:
        order = np.argsort(which, kind="stable")
        cuts = np.searchsorted(which[order], np.arange(len(Wd) + 1)).tolist()
        groups = [(r, order[lo:hi]) for r, (lo, hi) in enumerate(zip(cuts, cuts[1:])) if hi > lo]
    Ws = Wd.transpose(0, 2, 1) if transpose else Wd

    def products(a, mats):  # row i of a times mats[which[i]], in row order
        if isinstance(which, int):
            return a @ mats[which]
        out = np.empty((len(a), mats.shape[2]))
        for r, rows in groups:
            out[rows] = a[rows] @ mats[r]
        return out

    def grad_W(g):
        gW = np.zeros(Wd.shape)
        for r, rows in groups:
            gW[r] = g[rows].T @ xd[rows] if transpose else xd[rows].T @ g[rows]
        return gW

    return node(
        products(xd, Ws),
        (x, lambda g: products(g, Ws.transpose(0, 2, 1))),
        (W, grad_W),
    )
