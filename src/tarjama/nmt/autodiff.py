"""Reverse-mode automatic differentiation on a dynamic tape.

Every operation builds a Var node holding the forward value, its parent
nodes, and a vector-Jacobian closure.  backward() walks the tape in
reverse topological order and accumulates gradients into the leaves.
All values are float64 ndarrays; vectors are 1-d, weight matrices 2-d.
"""

import numpy as np


class Var:
    """One tape node: a value, its parents, and the local vjp."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def backward(self):
        # Iterative postorder; recursion depth would scale with sequence
        # length otherwise.
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, piece in zip(node._parents, node._vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.value)
                parent.grad = parent.grad + piece


def _unbroadcast(g, shape):
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    return Var(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def mul(a, b):
    return Var(
        a.value * b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def neg(a):
    return Var(-a.value, (a,), lambda g: (-g,))


def matmul(a, b):
    av, bv = a.value, b.value

    def vjp(g):
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv), av.T @ g
        if av.ndim == 1 and bv.ndim == 2:
            return bv @ g, np.outer(av, g)
        return g * bv, g * av

    return Var(av @ bv, (a, b), vjp)


def tanh(a):
    out = np.tanh(a.value)
    return Var(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.value))
    return Var(out, (a,), lambda g: (g * out * (1.0 - out),))


def one_minus(a):
    return Var(1.0 - a.value, (a,), lambda g: (-g,))


def transpose(a):
    return Var(a.value.T, (a,), lambda g: (g.T,))


def concat(a, b):
    split = a.value.shape[0]
    return Var(
        np.concatenate([a.value, b.value]),
        (a, b),
        lambda g: (g[:split], g[split:]),
    )


def stack_rows(rows):
    rows = tuple(rows)
    return Var(
        np.stack([r.value for r in rows]),
        rows,
        lambda g: tuple(g[i] for i in range(len(rows))),
    )


def mean_rows(a):
    n = a.value.shape[0]

    def vjp(g):
        return (np.broadcast_to(g / n, a.value.shape).copy(),)

    return Var(a.value.mean(axis=0), (a,), vjp)


def row(a, index):
    def vjp(g):
        out = np.zeros_like(a.value)
        out[index] = g
        return (out,)

    return Var(a.value[index], (a,), vjp)


def pick(a, index):
    def vjp(g):
        out = np.zeros_like(a.value)
        out[index] = g
        return (out,)

    return Var(a.value[index], (a,), vjp)


def log_softmax(a):
    x = a.value
    shifted = x - x.max()
    out = shifted - np.log(np.exp(shifted).sum())

    def vjp(g):
        return (g - np.exp(out) * g.sum(),)

    return Var(out, (a,), vjp)


def masked_softmax(scores, mask):
    """Softmax over positions where mask is 1; zero probability elsewhere.

    mask is a plain {0,1} ndarray, not a tape node.
    """
    x = scores.value
    live = mask > 0
    shifted = x - x[live].max()
    e = np.exp(shifted) * mask
    p = e / e.sum()

    def vjp(g):
        return (p * (g - (g * p).sum()),)

    return Var(p, (scores,), vjp)
