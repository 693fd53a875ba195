"""Gradient clipping, the Adam update rule, the parameter buffer a trainer
packs its model into, and the training step that combines them."""

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
    """Bias-corrected Adam on one parameter array. AdamW's decoupled weight
    decay is zero, so the update is Adam's."""

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        """One update of `p` in place by its gradient `g`. The arithmetic of
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, mhat = m / (1 - b1**t),
        vhat = v / (1 - b2**t) and p -= lr * (mhat / (sqrt(vhat) + eps)), one
        operation at a time in that order, with the intermediates in two
        scratch arrays the optimizer keeps."""
        if p.shape != g.shape:
            raise ValueError(f"param shape {p.shape} vs grad {g.shape}")
        if self._m is None:
            self._m = np.zeros_like(p)
            self._v = np.zeros_like(p)
            self._scratch = (np.empty_like(p), np.empty_like(p))
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
        p -= mhat


class ParameterBuffer:
    """A model's parameter nodes packed into one flat float64 array, with
    one flat gradient beside it.

    Each node's value is copied into `value` in the order given, and the node
    is rebound to its view of the buffer, with the same shape: an update of
    the buffer in place is an update of every parameter. Each node's `grad`
    is bound, for good, to its view of `grad`, so every gradient a backward
    hands a parameter is added straight into the flat gradient. Parameter i
    is value[offsets[i]:offsets[i + 1]], and its gradient the same slice of
    grad.
    """

    def __init__(self, params: list[ad.Node]):
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed twice")
        self.offsets = [0, *accumulate(p.value.size for p in params)]
        self.value = np.concatenate([p.value.ravel() for p in params])
        self.grad = np.zeros_like(self.value)
        for p, a, b in zip(params, self.offsets, self.offsets[1:]):
            p.value = self.value[a:b].reshape(p.value.shape)
            p.grad = self.grad[a:b].reshape(p.value.shape)


def train_step(opt: AdamW, buffer: ParameterBuffer, loss: ad.Node) -> None:
    """One optimizer step on `loss`: zero the flat gradient, backpropagate
    into it, clip its global norm to MAX_NORM and apply opt.step to the whole
    buffer at once.

    A parameter the loss does not reach steps with a zero gradient, so Adam's
    moments still decay for it. When the gradient is all zeros, as for a loss
    that reaches no parameter, clipping, a no-op at norm 0, is skipped. A nan
    or inf norm raises NonFiniteGradientError before anything is updated.
    """
    buffer.grad.fill(0.0)
    ad.backward(loss)
    if buffer.grad.any():
        clip_global_norm(buffer.grad, buffer.offsets)
    opt.step(buffer.value, buffer.grad)
