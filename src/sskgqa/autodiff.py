"""Minimal reverse-mode autodiff over dense 2-D float64 arrays.

Vectors are (1, d) arrays; scalars are (1, 1). Parameters are leaf nodes whose
values persist across steps; a fresh graph is built per forward pass, unless
the pass runs under no_grad().
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np


class ShapeError(Exception):
    pass


class ContractError(Exception):
    pass


def _as_value(x) -> np.ndarray:
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype == np.float64:
        return x  # what np.asarray would return; most op outputs take this path
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got {arr.ndim}")
    return arr


# Whether ops record their inputs and backward function; off inside no_grad().
# One flag for the whole process, not per thread.
_recording = True
# Stored in place of the backward function of an op output made under
# no_grad(); backward() refuses any loss that reaches one.
_UNRECORDED = object()


@contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording a graph: each output keeps its value but no
    parents and no backward function, so an intermediate is freed as soon as
    nothing else refers to it. Nests; the previous mode is restored on exit,
    also when the block raises."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Node:
    __slots__ = ("value", "parents", "grad", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = _as_value(value)
        self.grad: np.ndarray | None = None
        if _recording or backward is None:
            self.parents = tuple(parents)
            self._backward = backward
        else:
            self.parents = ()
            self._backward = _UNRECORDED

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        """Add g to this node's gradient. The node takes g as it is, without a
        copy: the engine never writes to a gradient array it was handed, so
        one array may be the gradient of several nodes (add passes g to both
        operands). Later gradients are added out of place."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g


def constant(x) -> Node:
    return Node(x)


def parameter(x) -> Node:
    return Node(x)


def _same_shape(a: Node, b: Node, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Node, b: Node) -> Node:
    """Elementwise sum; a (1, d) operand broadcasts over (n, d) rows."""
    if a.shape != b.shape:
        if not (a.shape[1] == b.shape[1] and 1 in (a.shape[0], b.shape[0])):
            raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def backward(g):
        ga = g.sum(axis=0, keepdims=True) if a.shape[0] == 1 and g.shape[0] > 1 else g
        gb = g.sum(axis=0, keepdims=True) if b.shape[0] == 1 and g.shape[0] > 1 else g
        a.accumulate(ga)
        b.accumulate(gb)

    return Node(a.value + b.value, (a, b), backward)


def sub(a: Node, b: Node) -> Node:
    _same_shape(a, b, "sub")

    def backward(g):
        a.accumulate(g)
        b.accumulate(-g)

    return Node(a.value - b.value, (a, b), backward)


def mul(a: Node, b: Node) -> Node:
    _same_shape(a, b, "mul")

    def backward(g):
        a.accumulate(g * b.value)
        b.accumulate(g * a.value)

    return Node(a.value * b.value, (a, b), backward)


def matmul(a: Node, b: Node) -> Node:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ {a.shape} vs {b.shape}")

    def backward(g):
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    return Node(a.value @ b.value, (a, b), backward)


def _block_views(a: Node, b: Node, blocks: int, op: str) -> tuple[np.ndarray, np.ndarray]:
    """a and b as stacks of `blocks` equal row blocks, (blocks, rows, cols)."""
    if blocks < 1 or a.shape[0] % blocks or b.shape[0] % blocks:
        raise ShapeError(f"{op}: {a.shape} and {b.shape} do not split into {blocks} row blocks")
    return (
        a.value.reshape(blocks, -1, a.shape[1]),
        b.value.reshape(blocks, -1, b.shape[1]),
    )


def block_matmul_t(a: Node, b: Node, blocks: int) -> Node:
    """a_i @ b_i.T for each of `blocks` row blocks, stacked:
    (blocks*m, k) and (blocks*l, k) -> (blocks*m, l)."""
    a3, b3 = _block_views(a, b, blocks, "block_matmul_t")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"block_matmul_t: column counts differ {a.shape} vs {b.shape}")

    def backward(g):
        g3 = g.reshape(blocks, a3.shape[1], b3.shape[1])
        a.accumulate(np.matmul(g3, b3).reshape(a.shape))
        b.accumulate(np.matmul(g3.transpose(0, 2, 1), a3).reshape(b.shape))

    return Node(np.matmul(a3, b3.transpose(0, 2, 1)).reshape(a.shape[0], -1), (a, b), backward)


def block_matmul(a: Node, b: Node, blocks: int) -> Node:
    """a_i @ b_i for each of `blocks` row blocks, stacked:
    (blocks*m, l) and (blocks*l, k) -> (blocks*m, k)."""
    a3, b3 = _block_views(a, b, blocks, "block_matmul")
    if a3.shape[2] != b3.shape[1]:
        raise ShapeError(f"block_matmul: inner dims differ {a3.shape[1:]} vs {b3.shape[1:]}")

    def backward(g):
        g3 = g.reshape(blocks, a3.shape[1], b3.shape[2])
        a.accumulate(np.matmul(g3, b3.transpose(0, 2, 1)).reshape(a.shape))
        b.accumulate(np.matmul(a3.transpose(0, 2, 1), g3).reshape(b.shape))

    return Node(np.matmul(a3, b3).reshape(a.shape[0], -1), (a, b), backward)


def transpose(a: Node) -> Node:
    return Node(a.value.T.copy(), (a,), lambda g: a.accumulate(g.T))


def scale(a: Node, c: float) -> Node:
    return Node(a.value * c, (a,), lambda g: a.accumulate(g * c))


def sum_all(a: Node) -> Node:
    return Node(a.value.sum(), (a,), lambda g: a.accumulate(np.full_like(a.value, g[0, 0])))


def softmax(a: Node) -> Node:
    """Row-wise max-shifted softmax."""
    e = np.exp(a.value - a.value.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return Node(y, (a,), lambda g: a.accumulate(y * (g - (g * y).sum(axis=1, keepdims=True))))


def log(a: Node) -> Node:
    return Node(np.log(a.value), (a,), lambda g: a.accumulate(g / a.value))


def relu(a: Node) -> Node:
    mask = a.value > 0
    return Node(a.value * mask, (a,), lambda g: a.accumulate(g * mask))


def logsigmoid(a: Node) -> Node:
    """log(sigmoid(x)), computed stably as min(x, 0) - log1p(exp(-|x|))."""
    x = a.value
    y = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    return Node(y, (a,), lambda g: a.accumulate(g / (1.0 + np.exp(x))))


def cos(a: Node) -> Node:
    return Node(np.cos(a.value), (a,), lambda g: a.accumulate(-g * np.sin(a.value)))


def sin(a: Node) -> Node:
    return Node(np.sin(a.value), (a,), lambda g: a.accumulate(g * np.cos(a.value)))


def l2norm(a: Node) -> Node:
    """Euclidean norm of the whole array, as a (1, 1) scalar."""
    norm = float(np.sqrt((a.value**2).sum()))

    def backward(g):
        if norm > 0.0:
            a.accumulate(g[0, 0] * a.value / norm)
        # zero-norm subgradient: 0

    return Node(norm, (a,), backward)


def euclid(a: Node, b: Node) -> Node:
    """Euclidean distance ||a - b||, zero-distance gradient defined as 0."""
    _same_shape(a, b, "euclid")
    diff = a.value - b.value
    dist = float(np.sqrt((diff**2).sum()))

    def backward(g):
        if dist > 0.0:
            d = g[0, 0] * diff / dist
            a.accumulate(d)
            b.accumulate(-d)

    return Node(dist, (a, b), backward)


def rownorm(a: Node) -> Node:
    """(n, d) -> (n, 1) per-row Euclidean norms (zero rows get zero gradient)."""
    norms = np.sqrt((a.value**2).sum(axis=1, keepdims=True))

    def backward(g):
        safe = np.where(norms > 0.0, norms, 1.0)
        a.accumulate(np.where(norms > 0.0, g / safe, 0.0) * a.value)

    return Node(norms, (a,), backward)


def rowsum(a: Node) -> Node:
    """(n, d) -> (n, 1) row sums."""

    def backward(g):
        a.accumulate(np.repeat(g, a.shape[1], axis=1))

    return Node(a.value.sum(axis=1, keepdims=True), (a,), backward)


def _check_even(a: Node, op: str) -> int:
    if a.shape[1] % 2 != 0:
        raise ShapeError(f"{op}: column count must be even, got {a.shape[1]}")
    return a.shape[1] // 2


def split_halves(a: Node) -> tuple[Node, Node]:
    """x -> (lower-half columns, higher-half columns)."""
    h = _check_even(a, "split_halves")

    def half(cols: slice) -> Node:
        def backward(g):
            full = np.zeros_like(a.value)
            full[:, cols] = g
            a.accumulate(full)

        return Node(a.value[:, cols].copy(), (a,), backward)

    return half(slice(None, h)), half(slice(h, None))


def concat_halves(lo: Node, hi: Node) -> Node:
    _same_shape(lo, hi, "concat_halves")
    return concat_cols(lo, hi)


def concat_cols(a: Node, b: Node) -> Node:
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: row counts differ {a.shape} vs {b.shape}")
    ca = a.shape[1]

    def backward(g):
        a.accumulate(g[:, :ca])
        b.accumulate(g[:, ca:])

    return Node(np.concatenate([a.value, b.value], axis=1), (a, b), backward)


def complex_mul_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise complex product of half-split (n, d) arrays.

    Columns [0, d/2) hold real parts, [d/2, d) imaginary parts:
    (a_lh*b_lh - a_hh*b_hh, a_hh*b_lh + a_lh*b_hh).
    """
    h = a.shape[1] // 2
    ar, ai = a[:, :h], a[:, h:]
    br, bi = b[:, :h], b[:, h:]
    return np.concatenate([ar * br - ai * bi, ai * br + ar * bi], axis=1)


def complex_mul(a: Node, b: Node) -> Node:
    """Differentiable complex_mul_packed of two half-split nodes."""
    _same_shape(a, b, "complex_mul")
    h = _check_even(a, "complex_mul")

    def backward(g):
        gr, gi = g[:, :h], g[:, h:]
        ar, ai = a.value[:, :h], a.value[:, h:]
        br, bi = b.value[:, :h], b.value[:, h:]
        # grad wrt a = "conj(b) * g" in the packed layout, and symmetrically
        a.accumulate(
            np.concatenate([gr * br + gi * bi, gi * br - gr * bi], axis=1)
        )
        b.accumulate(
            np.concatenate([gr * ar + gi * ai, gi * ar - gr * ai], axis=1)
        )

    return Node(complex_mul_packed(a.value, b.value), (a, b), backward)


def rows(matrix: Node, indices) -> Node:
    """Gather rows by index; the gradient scatter-adds into the matrix."""
    idx = np.asarray(indices, dtype=np.int64)

    def backward(g):
        # One bincount over flat cell numbers. Each cell sums its rows'
        # contributions one after another in index order, starting from 0.0,
        # as np.add.at into zeros does, so the bits are the same.
        n, d = matrix.shape
        if idx.size == 0:  # bincount would give integer zeros
            matrix.accumulate(np.zeros_like(matrix.value))
            return
        pos = idx % n if idx.min() < 0 else idx  # the gather takes negative indices too
        cells = pos.reshape(-1, 1) * d + np.arange(d)
        matrix.accumulate(np.bincount(cells.ravel(), weights=g.ravel(), minlength=n * d).reshape(n, d))

    return Node(matrix.value[idx], (matrix,), backward)


def dropout(a: Node, p: float, rng: np.random.Generator, training: bool) -> Node:
    """Inverted-scaling dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return a
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    return Node(a.value * mask, (a,), lambda g: a.accumulate(g * mask))


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) for every node reachable from loss.

    Raises ContractError, before any gradient changes, when the loss reaches
    an op output made under no_grad(): the graph past it was not recorded.
    """
    if loss.shape != (1, 1):
        raise ContractError(f"loss must be a (1, 1) scalar, got {loss.shape}")
    topo: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        if node._backward is _UNRECORDED:
            raise ContractError("backward through a node built under no_grad(): no graph was recorded")
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    loss.accumulate(np.ones((1, 1)))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
