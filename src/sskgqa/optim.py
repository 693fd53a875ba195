"""Gradient clipping, the AdamW update rule, the parameter buffer a trainer
packs its model into, and the training step that combines them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import autodiff as ad


class NonFiniteGradientError(ValueError):
    """The global gradient norm is nan or inf, so no step can be clipped."""


def clip_global_norm(grad: np.ndarray, offsets: list[int], max_norm: float = 1.0) -> np.ndarray:
    """Scale the flat gradient `grad` in place so that its global L2 norm is at
    most max_norm, and return it.

    The norm squares grad once, sums each segment offsets[i]:offsets[i + 1]
    (one per parameter) on its own and then adds the sums in order, as a
    norm of the per-parameter gradients does: one sum over the whole array
    rounds differently. Raises NonFiniteGradientError, before scaling
    anything, when the norm is nan or inf.
    """
    sq = grad * grad
    norm = math.sqrt(sum(float(sq[a:b].sum()) for a, b in zip(offsets, offsets[1:])))
    if not np.isfinite(norm):
        raise NonFiniteGradientError(f"gradient norm is {norm}")
    if norm > max_norm:
        grad *= max_norm / norm
    return grad


@dataclass
class AdamW:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    _m: dict[int, np.ndarray] = field(default_factory=dict)
    _v: dict[int, np.ndarray] = field(default_factory=dict)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """One bias-corrected AdamW update, in place on the parameter arrays."""
        if len(params) != len(grads):
            raise ValueError("params and grads must align")
        self.step_count += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            if p.shape != g.shape:
                raise ValueError(f"param {i}: shape {p.shape} vs grad {g.shape}")
            if i not in self._m:
                self._m[i] = np.zeros_like(p)
                self._v[i] = np.zeros_like(p)
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            mhat = m / (1.0 - self.beta1**self.step_count)
            vhat = v / (1.0 - self.beta2**self.step_count)
            p -= self.lr * (mhat / (np.sqrt(vhat) + self.eps)) + self.lr * self.weight_decay * p


class ParameterBuffer:
    """A model's parameter nodes packed into one flat float64 array.

    Each node's value is copied into `value` in the order given, and the node
    is rebound to its view of the buffer, with the same shape: an update of
    the buffer in place is an update of every parameter. Parameter i is
    value[offsets[i]:offsets[i + 1]].
    """

    def __init__(self, params: list[ad.Node]):
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed twice")
        self.params = list(params)
        self.offsets = [0, *accumulate(p.value.size for p in self.params)]
        self.value = np.concatenate([p.value.ravel() for p in self.params])
        for p, a, b in zip(self.params, self.offsets, self.offsets[1:]):
            p.value = self.value[a:b].reshape(p.value.shape)

    def gradient(self) -> np.ndarray:
        """The parameters' gradients concatenated in order into a new array,
        zeros for a parameter the loss did not reach."""
        return np.concatenate(
            [np.zeros(p.value.size) if p.grad is None else p.grad.ravel() for p in self.params]
        )


def train_step(opt: AdamW, buffer: ParameterBuffer, loss: ad.Node, max_norm: float) -> None:
    """One optimizer step on `loss`: clear the parameters' gradients,
    backpropagate, clip the global norm of the flat gradient to max_norm and
    apply opt.step to the whole buffer at once.

    A parameter the loss does not reach steps with a zero gradient, so AdamW's
    moments still decay for it. The flat gradient is a copy, so clipping it
    in place never reaches an array the engine handed out, even one that
    several parameters share. A nan or inf norm raises
    NonFiniteGradientError before anything is updated.
    """
    for p in buffer.params:
        p.zero_grad()
    ad.backward(loss)
    grad = buffer.gradient()
    clip_global_norm(grad, buffer.offsets, max_norm)
    opt.step([buffer.value], [grad])
