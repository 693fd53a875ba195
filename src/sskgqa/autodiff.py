"""Minimal reverse-mode autodiff over dense 2-D float64 arrays.

Vectors are (1, d) arrays; scalars are (1, 1). Parameters are leaf nodes whose
values persist across steps; a training forward builds a few fused nodes, each
with a hand-written backward beside the model that runs it, and there is no
graph walk: a node hands its gradient on as soon as it gets one. The engine
also keeps `scatter_rows`, the gradient of a row gather, which the encoder
and the embeddings both call.
"""
from __future__ import annotations

import numpy as np


class ShapeError(Exception):
    pass


class ContractError(Exception):
    pass


def _as_value(x) -> np.ndarray:
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

    def accumulate(self, g: np.ndarray) -> None:
        """Hand g on through the backward, or add it into the gradient in
        place. A leaf without a gradient array yet takes a copy of g, so g,
        which may be the gradient of other nodes too, is never written."""
        if self._backward is not None:
            self._backward(g)
        elif self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g


def parameter(x) -> Node:
    return Node(x)


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
