"""Loss functions.

``binary_cross_entropy_with_logits`` implements the numerically stable
log-loss used both for the unsupervised edge-reconstruction objective
(Eq. 5 / Eq. 12) and for the supervised CVR head (Eq. 7).  Targets and
weights take the dtype of the predictions they meet.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "binary_cross_entropy_with_logits",
    "binary_cross_entropy",
    "mse_loss",
    "l2_penalty",
]


def binary_cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray | Tensor,
    weights: np.ndarray | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Stable BCE on raw scores: max(x,0) - x*y + log(1 + exp(-|x|)).

    ``weights`` optionally re-weights each sample (used for the
    gamma-weighted negative terms of Eq. 5).
    """
    x = logits
    y = _constant(targets, x)
    relu_x = x.relu()
    loss = relu_x - x * y + (1.0 + (-x.abs()).exp()).log()
    if weights is not None:
        loss = loss * _constant(weights, x)
    return _reduce(loss, reduction)


def binary_cross_entropy(
    probs: Tensor,
    targets: np.ndarray | Tensor,
    eps: float = 1e-12,
    reduction: str = "mean",
) -> Tensor:
    """BCE on probabilities already passed through a sigmoid (Eq. 7)."""
    y = _constant(targets, probs)
    p = probs.clip(eps, 1.0 - eps)
    loss = -(y * p.log() + (1.0 - y) * (1.0 - p).log())
    return _reduce(loss, reduction)


def mse_loss(pred: Tensor, target: np.ndarray | Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    diff = pred - _constant(target, pred)
    return _reduce(diff * diff, reduction)


def l2_penalty(params: list[Tensor], coefficient: float) -> Tensor:
    """L2 regulariser 0.5 * c * sum ||p||^2 over trainable parameters."""
    if coefficient < 0:
        raise ValueError("coefficient must be non-negative")
    total: Tensor | None = None
    for p in params:
        term = (p * p).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total * (0.5 * coefficient)


def _constant(value: np.ndarray | Tensor, like: Tensor) -> np.ndarray:
    """A target or weight array in the dtype of the tensor ``like``."""
    data = value.data if isinstance(value, Tensor) else value
    return np.asarray(data, dtype=like.data.dtype)


def _reduce(loss: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")
