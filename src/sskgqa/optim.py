"""Gradient clipping, the AdamW update rule and the training step that
combines them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad


def global_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g**2).sum()) for g in grads)))


def clip_global_norm(grads: list[np.ndarray], max_norm: float = 1.0) -> list[np.ndarray]:
    """Scale all gradients in place so the global L2 norm is at most max_norm."""
    norm = global_norm(grads)
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return grads


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


def train_step(opt: AdamW, params: list[ad.Node], loss: ad.Node, max_norm: float) -> None:
    """One optimizer step on `loss`: clear the parameters' gradients,
    backpropagate, clip the global norm to max_norm and apply opt.step.

    A parameter the loss does not reach steps with a zero gradient, so AdamW's
    moments still decay for it. Clipping scales the gradients in place, and
    the engine may hand two parameters one array (add(p1, p2) does) or views
    of one array, so a gradient whose memory belongs to the same array as an
    earlier one's is copied first: each parameter's gradient is scaled once.
    """
    for p in params:
        p.zero_grad()
    ad.backward(loss)
    grads, owners = [], set()
    for p in params:
        if p.grad is None:
            grads.append(np.zeros_like(p.value))
            continue
        owner = id(p.grad if p.grad.base is None else p.grad.base)
        if owner in owners:
            p.grad = p.grad.copy()
        owners.add(owner)
        grads.append(p.grad)
    clip_global_norm(grads, max_norm)
    opt.step([p.value for p in params], grads)
