"""Gradient clipping and the Adam optimizer that every trainer packs its
model into and steps on a loss."""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from . import autodiff as ad

# Adam's moment decay rates and denominator guard (Kingma & Ba)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# every trainer clips its gradient to this global L2 norm
MAX_NORM = 1.0


class NonFiniteGradientError(ValueError):
    """The global gradient norm is nan or inf, so no step can be clipped."""


def clip_global_norm(grad: np.ndarray, offsets: list[int]) -> np.ndarray:
    """Scale the flat gradient `grad` in place so that its global L2 norm is at
    most MAX_NORM, and return it.

    The norm squares grad once, sums each segment offsets[i]:offsets[i + 1]
    (one per parameter) on its own and then adds the sums in order, as a
    norm of the per-parameter gradients does: one sum over the whole array
    rounds differently. Raises NonFiniteGradientError, before scaling
    anything, when the norm is nan or inf.
    """
    sq = grad * grad
    # Python floats: adding two finite sums past float64's range gives inf
    # without numpy's overflow warning, and the check below refuses it
    norm = math.sqrt(sum(float(sq[a:b].sum()) for a, b in zip(offsets, offsets[1:])))
    if not np.isfinite(norm):
        raise NonFiniteGradientError(f"gradient norm is {norm}")
    if norm > MAX_NORM:
        grad *= MAX_NORM / norm
    return grad


class AdamW:
    """Bias-corrected Adam over a model's parameter nodes, packed into one
    flat float64 array. AdamW's decoupled weight decay is zero, so the
    update is Adam's.

    Each node's value is copied into `value` in the order given, and the node
    is rebound to its view of it, with the same shape: an update of `value`
    in place is an update of every parameter. Each node's `grad` is bound,
    for good, to its view of the flat `grad`, so every gradient a backward
    hands a parameter is added straight into it. Parameter i is
    value[offsets[i]:offsets[i + 1]], and its gradient the same slice of grad.
    """

    def __init__(self, params: list[ad.Node], lr: float):
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed twice")
        self.lr = lr
        self.step_count = 0
        self.offsets = [0, *accumulate(p.value.size for p in params)]
        self.value = np.concatenate([p.value.ravel() for p in params])
        self.grad = np.zeros_like(self.value)
        for p, a, b in zip(params, self.offsets, self.offsets[1:]):
            p.value = self.value[a:b].reshape(p.value.shape)
            p.grad = self.grad[a:b].reshape(p.value.shape)
        self._m = np.zeros_like(self.value)
        self._v = np.zeros_like(self.value)
        self._scratch = (np.empty_like(self.value), np.empty_like(self.value))

    def step(self, loss: ad.Node) -> None:
        """One update on `loss`: zero the flat gradient, backpropagate into
        it, clip its global norm to MAX_NORM and apply Adam to every
        parameter at once.

        A parameter the loss does not reach steps with a zero gradient, so
        Adam's moments still decay for it. When the gradient is all zeros, as
        for a loss that reaches no parameter, clipping, a no-op at norm 0, is
        skipped. A nan or inf norm raises NonFiniteGradientError before
        anything is updated. The update is the arithmetic of
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, mhat = m / (1 - b1**t),
        vhat = v / (1 - b2**t) and p -= lr * (mhat / (sqrt(vhat) + eps)), one
        operation at a time in that order, with the intermediates in two
        scratch arrays the optimizer keeps.
        """
        g = self.grad
        g.fill(0.0)
        ad.backward(loss)
        if g.any():
            clip_global_norm(g, self.offsets)
        self.step_count += 1
        m, v = self._m, self._v
        a, b = self._scratch
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        v += a
        mhat = np.divide(m, 1.0 - BETA1**self.step_count, out=a)
        root = np.sqrt(np.divide(v, 1.0 - BETA2**self.step_count, out=b), out=b)
        root += EPS
        mhat /= root
        mhat *= self.lr
        self.value -= mhat
