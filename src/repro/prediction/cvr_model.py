"""The supervised deep network of Fig. 2 and its training loop (Eq. 7).

A plain MLP (paper sizes 256/128/64, Leaky ReLU, sigmoid output) over
the assembled features, trained with log loss.  The same class serves
CVR and CTR prediction — only the labels differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import MLP, Module
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.optim import build_optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import derive_rng, ensure_rng

__all__ = ["CVRModel", "CVRTrainConfig", "CVRTrainResult", "train_cvr_model"]


@dataclass
class CVRTrainConfig:
    """Optimisation settings for the prediction head.

    Paper defaults (Section IV-B-2): layers 256/128/64, lr 1e-3,
    batch 1024, L2 regularisation, Leaky ReLU.  ``hidden`` is scaled
    down by default to match the mini datasets; pass (256, 128, 64) to
    match the paper exactly.
    """

    hidden: tuple[int, ...] = (128, 64, 32)
    epochs: int = 15
    batch_size: int = 256
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    l2: float = 1e-5
    dropout: float = 0.0
    gradient_clip: float | None = 5.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class CVRTrainResult:
    """Per-epoch training losses."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class CVRModel(Module):
    """MLP scoring p(purchase | click) for assembled feature rows."""

    def __init__(
        self,
        in_features: int,
        hidden: tuple[int, ...] = (128, 64, 32),
        dropout: float = 0.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.net = MLP(
            in_features=in_features,
            hidden=hidden,
            out_features=1,
            activation="leaky_relu",
            dropout=dropout,
            rng=rng,
        )

    def forward(self, x: Tensor) -> Tensor:
        """Raw logits, shape (n,)."""
        return self.net(x).reshape(-1)

    def predict_proba(self, features: np.ndarray, batch_size: int = 8192) -> np.ndarray:
        """p(x) of Eq. 7 for a design matrix, computed without autograd."""
        self.eval()
        outputs = []
        with no_grad():
            for start in range(0, len(features), batch_size):
                chunk = Tensor(features[start : start + batch_size].astype(self.dtype))
                outputs.append(self(chunk).sigmoid().data)
        self.train()
        return np.concatenate(outputs) if outputs else np.zeros(0)


def train_cvr_model(
    features: np.ndarray,
    labels: np.ndarray,
    config: CVRTrainConfig | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[CVRModel, CVRTrainResult]:
    """Fit a :class:`CVRModel` on (features, labels) with Eq. 7's loss."""
    config = config or CVRTrainConfig()
    rng = ensure_rng(rng)
    features, labels = np.asarray(features), np.asarray(labels)
    if len(features) != len(labels):
        raise ValueError("features and labels must align")
    if len(features) == 0:
        raise ValueError("empty training set")

    model = CVRModel(
        in_features=features.shape[1],
        hidden=config.hidden,
        dropout=config.dropout,
        rng=derive_rng(rng, 1),
    )
    # The design matrix and labels enter in the parameters' dtype.
    features = features.astype(model.dtype, copy=False)
    labels = labels.astype(model.dtype, copy=False)
    optimizer = build_optimizer(
        config.optimizer, model.parameters(), config.learning_rate
    )
    result = CVRTrainResult()
    shuffle_rng = derive_rng(rng, 2)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(features))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            logits = model(Tensor(features[batch]))
            loss = binary_cross_entropy_with_logits(logits, labels[batch])
            optimizer.zero_grad()
            loss.backward()
            value = loss.item()
            if config.l2 > 0:
                value += optimizer.l2_penalty(optimizer.params, config.l2)
            if config.gradient_clip:
                optimizer.clip_grad_norm(config.gradient_clip)
            optimizer.step()
            losses.append(value)
        result.epoch_losses.append(float(np.mean(losses)))
    return model, result
