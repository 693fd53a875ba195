"""Minimal reverse-mode autodiff over dense 2-D float64 arrays.

Vectors are (1, d) arrays; scalars are (1, 1). Parameters are leaf nodes whose
values persist across steps; a training forward builds a few fused nodes, each
with a hand-written backward, and there is no graph walk: a node hands its
gradient on as soon as it gets one. The encoder's fused ops
(`block_attention`, `feed_forward`, `block_pool`) take and return plain
arrays: each returns its value and a backward that returns gradients, and a
model's forward makes one node of them.
"""

from __future__ import annotations

import math

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


class Node:
    """A value and, unless it is a parameter, the backward that hands a
    gradient of it on. Each such node has one consumer, so the one gradient
    it gets is its whole gradient; a parameter adds its gradients up."""

    __slots__ = ("value", "grad", "_backward")

    def __init__(self, value, backward=None):
        self.value = _as_value(value)
        self.grad: np.ndarray | None = None
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        """Hand g on through the backward, or add it to the gradient. A
        parameter takes g as it is, without a copy: no backward writes to a
        gradient array it was handed, so one array may be the gradient of
        several parameters. Later gradients are added out of place."""
        if self._backward is not None:
            self._backward(g)
        elif self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g


def parameter(x) -> Node:
    return Node(x)


def _row_grad(g: np.ndarray) -> np.ndarray:
    """The gradient of a (1, w) operand broadcast over the rows of g."""
    return g.sum(axis=0, keepdims=True) if g.shape[0] > 1 else g


def block_attention(x: np.ndarray, weights: list[np.ndarray], mask: np.ndarray, blocks: int):
    """Multi-head self-attention within each of `blocks` equal row blocks of
    x: (blocks*L, d) -> (blocks*L, heads*dh), returned with its backward.

    `weights` is [wq0, wk0, wv0, wq1, ...], three (d, dh) projections per
    head. `mask` is the (blocks, L) additive key mask: row i (0 for a key,
    -inf for padding) is added to every score row of block i. Per head, with
    q, k, v = x@wq, x@wk, x@wv, each block i gets
    softmax(q_i k_i^T / sqrt(dh) + mask_i) @ v_i; the heads' outputs are
    returned side by side.

    backward(g, held) gives, from the output's gradient g, x's gradient and
    the list of the weights' gradients in the order of `weights`. x's is
    the projections' gradients added in the order of `weights`, after
    `held`, the gradient x already holds (None for none), as the walk of a
    chain of matmul, block product, scale, mask add, row softmax and block
    product nodes per head adds them.

    All heads run together, as (heads, blocks, L, .) stacks: each batched
    product is one matmul per (head, block), the same products that chain
    runs, and the elementwise steps and row sums are that chain's, step for
    step. The projections are one product of x with the (3*heads, d, dh)
    stack of the weights, and the backward takes the weights' gradients and
    x's each as one product with the stack of the projections' gradients;
    each item is the 2-D product that chain takes. The row max is one
    reduction over a transposed copy of the scores, which is faster than a
    reduction over each short row; max is exact, so it has the same bits.
    So the values and gradients have that chain's bits.
    """
    n_rows, d = x.shape
    if not weights or len(weights) % 3:
        raise ShapeError(f"block_attention: {len(weights)} weights are not [wq, wk, wv] per head")
    dh = weights[0].shape[1]
    if any(w.shape != (d, dh) for w in weights):
        raise ShapeError(f"block_attention: every weight must be ({d}, {dh}) for x of {x.shape}")
    if blocks < 1 or n_rows % blocks:
        raise ShapeError(f"block_attention: {x.shape} does not split into {blocks} row blocks")
    width = n_rows // blocks
    if mask.shape != (blocks, width):
        raise ShapeError(f"block_attention: mask is {mask.shape}, expected {(blocks, width)}")
    heads = len(weights) // 3
    c = 1.0 / math.sqrt(dh)
    # every head's wq, then every wk, then every wv; weights[i] is stack item order[i]
    w3 = np.array(weights[0::3] + weights[1::3] + weights[2::3])
    order = [(i % 3) * heads + i // 3 for i in range(len(weights))]
    qkv = np.matmul(x, w3)  # (3*heads, n_rows, dh)
    q, k, v = qkv.reshape(3, heads, blocks, width, dh)
    att = np.matmul(q, k.transpose(0, 1, 3, 2))
    att *= c
    att += mask.reshape(blocks, 1, width)
    # row softmax, in place
    att -= np.ascontiguousarray(att.transpose(3, 0, 1, 2)).max(axis=0)[..., None]
    np.exp(att, out=att)
    att /= att.sum(axis=3, keepdims=True)
    out = np.matmul(att, v)  # (heads, blocks, L, dh)

    def backward(g: np.ndarray, held: np.ndarray | None):
        g4 = g.reshape(blocks, width, heads, dh).transpose(2, 0, 1, 3)
        g_qkv = np.empty_like(qkv)
        gq, gk, gv = g_qkv.reshape(3, heads, blocks, width, dh)
        gs = np.matmul(g4, v.transpose(0, 1, 3, 2))  # the scores' gradient, in place
        np.matmul(att.transpose(0, 1, 3, 2), g4, out=gv)
        gs -= (gs * att).sum(axis=3, keepdims=True)
        gs *= att
        gs *= c
        np.matmul(gs, k, out=gq)
        np.matmul(gs.transpose(0, 1, 3, 2), q, out=gk)
        gw = np.matmul(x.T, g_qkv)
        gx = np.matmul(g_qkv, w3.transpose(0, 2, 1))  # (3*heads, n_rows, d)
        total = gx[order[0]]
        if held is not None:
            total += held
        for i in order[1:]:
            total += gx[i]
        return total, [gw[i] for i in order]

    return np.ascontiguousarray(out.transpose(1, 2, 0, 3)).reshape(n_rows, heads * dh), backward


def block_pool(x: np.ndarray, weights: np.ndarray):
    """Weighted sums of the rows of each of n equal row blocks of x: row i
    is weights[i] @ block i, (n*L, d) -> (n, d) for (n, L) weights, returned
    with its backward, which gives x's gradient from the output's: the one a
    block product of the weights as a constant node gives it, with the same
    bits."""
    n, width = weights.shape
    if x.shape[0] != n * width:
        raise ShapeError(f"block_pool: {x.shape} does not split into {n} blocks of {width} rows")
    w3 = weights.reshape(n, 1, width)

    def backward(g: np.ndarray) -> np.ndarray:
        return np.matmul(w3.transpose(0, 2, 1), g.reshape(n, 1, -1)).reshape(x.shape)

    return np.matmul(w3, x.reshape(n, width, -1)).reshape(n, -1), backward


def feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
    """relu(x @ w1 + b1) @ w2 + b2, returned with its backward, which gives
    the gradients of x, w1, b1, w2 and b2 from the output's; the biases are
    (1, width) rows added to every row. Same arithmetic, step for step, as
    the chain of matmul, add, relu, matmul and add nodes, so the value and
    the gradients have the same bits."""
    if not (x.shape[1] == w1.shape[0] and w1.shape[1] == w2.shape[0]):
        raise ShapeError(f"feed_forward: inner dims differ {x.shape}, {w1.shape}, {w2.shape}")
    if b1.shape != (1, w1.shape[1]) or b2.shape != (1, w2.shape[1]):
        raise ShapeError(f"feed_forward: biases {b1.shape} and {b2.shape} are not rows of its widths")
    pre = x @ w1 + b1
    active = pre > 0
    hidden = pre * active

    def backward(g: np.ndarray):
        g_pre = (g @ w2.T) * active
        return g_pre @ w1.T, x.T @ g_pre, _row_grad(g_pre), hidden.T @ g, _row_grad(g)

    return hidden @ w2 + b2, backward


def triplet_hinge(f: Node, alpha: float) -> Node:
    """Mean triplet hinge of one (k+2, d) batch as one (1, 1) node: row 0 of
    f is the anchor, row 1 the positive and rows 2.. the k negatives; per
    negative max(||f0 - f1|| - ||f0 - fn|| + alpha, 0), then the sum times
    1/k.

    Same arithmetic, step for step, as the chain of rows gathers, sub,
    rownorm, add of the margin, relu, sum_all and scale nodes, so the value
    and the gradient have the same bits. Where a row gather's backward
    scatters into row 0, this adds the same terms in the same order, from
    0.0 (a running sum, then + 0.0 for the sign of a zero); every other row
    gets 0.0 minus its term, as a scatter of a negated gradient onto 0.0.

    When no hinge is active and every distance is finite, that gradient is
    0.0 in every cell for any finite incoming gradient, so the loss is a node
    with no backward and the gradient stops there. A nan or inf distance
    keeps the backward, so a non-finite batch still reaches the gradient
    check.
    """
    k = f.shape[0] - 2
    if k < 1:
        raise ShapeError(f"triplet_hinge: needs an anchor, a positive and a negative, got {f.shape}")
    c = 1.0 / k
    diff = f.value[0] - f.value[1:]
    norms = np.sqrt((diff**2).sum(axis=1, keepdims=True))
    v = (norms[0] - norms[1:]) + alpha
    mask = v > 0
    value = (v * mask).sum() * c
    if not mask.any() and np.isfinite(norms).all():
        return Node(value)

    def backward(g):
        gh = (g * c) * mask
        gdist = np.empty_like(norms)
        gdist[0] = np.cumsum(gh)[-1] + 0.0
        gdist[1:] = 0.0 - gh
        safe = np.where(norms > 0.0, norms, 1.0)
        gd = np.where(norms > 0.0, gdist / safe, 0.0) * diff
        grad = np.empty_like(f.value)
        grad[0] = np.cumsum(gd, axis=0)[-1] + 0.0
        grad[1:] = 0.0 - gd
        f.accumulate(grad)

    return Node(value, backward)


def complex_mul_packed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise complex product of half-split (n, d) arrays.

    Columns [0, d/2) hold real parts, [d/2, d) imaginary parts:
    (a_lh*b_lh - a_hh*b_hh, a_hh*b_lh + a_lh*b_hh).
    """
    h = a.shape[1] // 2
    ar, ai = a[:, :h], a[:, h:]
    br, bi = b[:, :h], b[:, h:]
    return np.concatenate([ar * br - ai * bi, ai * br + ar * bi], axis=1)


def conj_mul_packed(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conj(b) * g rowwise, in complex_mul_packed's half-split layout:
    (g_lh*b_lh + g_hh*b_hh, g_hh*b_lh - g_lh*b_hh), the gradient of a*b with
    respect to a when g is the product's."""
    h = g.shape[1] // 2
    gr, gi = g[:, :h], g[:, h:]
    br, bi = b[:, :h], b[:, h:]
    return np.concatenate([gr * br + gi * bi, gi * br - gr * bi], axis=1)


def scatter_rows(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """The gradient of an (n, d) matrix whose rows `idx` were gathered, from
    the gathered rows' gradient g: one bincount over flat cell numbers. Each
    cell sums its rows' contributions one after another in index order,
    starting from 0.0, as np.add.at into zeros does, so the bits are the
    same."""
    d = g.shape[1]
    if idx.size == 0:  # bincount would give integer zeros
        return np.zeros((n, d))
    pos = idx % n if idx.min() < 0 else idx  # the gather takes negative indices too
    cells = pos.reshape(-1, 1) * d + np.arange(d)
    return np.bincount(cells.ravel(), weights=g.ravel(), minlength=n * d).reshape(n, d)


def backward(loss: Node) -> None:
    """Hand d(loss)/d(loss) = 1 to the loss, which hands it on."""
    if loss.shape != (1, 1):
        raise ContractError(f"loss must be a (1, 1) scalar, got {loss.shape}")
    loss.accumulate(np.ones((1, 1)))
