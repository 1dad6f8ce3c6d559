"""DIN — Deep Interest Network baseline (Zhou et al., KDD 2018).

The paper uses DIN as the graph-free baseline ("a popular deep neural
network method without graph structure information and hierarchical
information", Section IV-B-2) and treats it as HiGNN at level 0.

This implementation keeps DIN's defining component: a *local activation
unit* that attends over the user's clicked-item history conditioned on
the candidate item.  Item id embeddings are learned end-to-end; user
profile and item statistics enter the top MLP alongside the attention-
pooled interest vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import EcommerceDataset
from repro.graph.bipartite import BipartiteGraph
from repro.nn.layers import MLP, Embedding, Module
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.optim import build_optimizer
from repro.nn.tensor import Tensor, concat, no_grad
from repro.prediction.cvr_model import CVRTrainConfig, CVRTrainResult
from repro.utils.rng import derive_rng, ensure_rng

__all__ = ["DINConfig", "DIN", "build_user_histories", "train_din"]


@dataclass
class DINConfig:
    """DIN hyper-parameters."""

    embedding_dim: int = 32
    history_length: int = 20
    attention_hidden: tuple[int, ...] = (32,)
    top_hidden: tuple[int, ...] = (128, 64, 32)

    def __post_init__(self) -> None:
        if self.embedding_dim < 1 or self.history_length < 1:
            raise ValueError("embedding_dim and history_length must be >= 1")


def build_user_histories(graph: BipartiteGraph, history_length: int) -> np.ndarray:
    """(num_users, H) click-history matrix, -1 padded.

    Items are taken in descending click-weight order — the strongest
    interactions represent the user's interest best when truncating.
    """
    histories = np.full((graph.num_users, history_length), -1, dtype=np.int64)
    for user in range(graph.num_users):
        items = graph.item_neighbors(user)
        if len(items) == 0:
            continue
        weights = graph.item_neighbor_weights(user)
        order = np.argsort(-weights, kind="mergesort")
        top = items[order][:history_length]
        histories[user, : len(top)] = top
    return histories


class DIN(Module):
    """Deep Interest Network over (history, candidate, side features)."""

    def __init__(
        self,
        num_items: int,
        side_feature_dim: int,
        config: DINConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.config = config or DINConfig()
        cfg = self.config
        rng = ensure_rng(rng)
        d = cfg.embedding_dim
        self.item_embedding = Embedding(num_items, d, rng=rng)
        self.attention = MLP(
            in_features=3 * d,
            hidden=cfg.attention_hidden,
            out_features=1,
            activation="leaky_relu",
            rng=rng,
        )
        self.top = MLP(
            in_features=2 * d + side_feature_dim,
            hidden=cfg.top_hidden,
            out_features=1,
            activation="leaky_relu",
            rng=rng,
        )

    def forward(
        self,
        histories: np.ndarray,
        candidates: np.ndarray,
        side_features: np.ndarray,
    ) -> Tensor:
        """Logits for each (history row, candidate, side-feature row)."""
        n, h = histories.shape
        d = self.config.embedding_dim
        mask = histories >= 0
        safe_hist = np.where(mask, histories, 0)

        cand_emb = self.item_embedding(candidates)  # (n, d)
        hist_emb = self.item_embedding(safe_hist.reshape(-1)).reshape(n, h, d)
        cand_tiled = cand_emb.gather_rows(np.repeat(np.arange(n), h)).reshape(n, h, d)

        att_in = concat([hist_emb, cand_tiled, hist_emb * cand_tiled], axis=-1)
        att_logits = self.attention(att_in.reshape(n * h, 3 * d)).reshape(n, h)
        # Masked softmax over the history axis.
        att_logits = att_logits + np.where(mask, 0.0, -1e9)
        shifted = att_logits - att_logits.max(axis=1, keepdims=True).detach().data
        exp = shifted.exp() * mask
        denom = exp.sum(axis=1, keepdims=True) + 1e-12
        weights = exp / denom  # (n, h)

        interest = (hist_emb * weights.reshape(n, h, 1)).sum(axis=1)  # (n, d)
        # Side features enter in the parameters' dtype.
        side = Tensor(np.asarray(side_features, dtype=self.dtype))
        top_in = concat([interest, cand_emb, side], axis=-1)
        return self.top(top_in).reshape(-1)

    def predict_proba(
        self,
        histories: np.ndarray,
        candidates: np.ndarray,
        side_features: np.ndarray,
        batch_size: int = 4096,
    ) -> np.ndarray:
        """Purchase probabilities, computed in inference mode."""
        self.eval()
        outputs = []
        with no_grad():
            for start in range(0, len(candidates), batch_size):
                sl = slice(start, start + batch_size)
                outputs.append(
                    self(histories[sl], candidates[sl], side_features[sl]).sigmoid().data
                )
        self.train()
        return np.concatenate(outputs) if outputs else np.zeros(0)


def train_din(
    dataset: EcommerceDataset,
    din_config: DINConfig | None = None,
    train_config: CVRTrainConfig | None = None,
    rng: int | np.random.Generator | None = None,
) -> tuple[DIN, np.ndarray, CVRTrainResult]:
    """Train DIN on a dataset's train split.

    Returns (model, histories, result); histories are reused at test
    time since they come from the training-period graph only.
    """
    din_config = din_config or DINConfig()
    train_config = train_config or CVRTrainConfig()
    rng = ensure_rng(rng)
    histories = build_user_histories(dataset.graph, din_config.history_length)
    profile_table = _standard(dataset.user_profiles)
    stats_table = _standard(dataset.item_stats)
    model = DIN(
        num_items=dataset.num_items,
        side_feature_dim=profile_table.shape[1] + stats_table.shape[1],
        config=din_config,
        rng=derive_rng(rng, 1),
    )
    optimizer = build_optimizer(
        train_config.optimizer, model.parameters(), train_config.learning_rate
    )
    samples = dataset.train
    labels = samples.labels.astype(np.float64)
    result = CVRTrainResult()
    shuffle_rng = derive_rng(rng, 2)
    for _ in range(train_config.epochs):
        order = shuffle_rng.permutation(len(samples))
        losses = []
        for start in range(0, len(order), train_config.batch_size):
            batch = order[start : start + train_config.batch_size]
            users = samples.users[batch]
            items = samples.items[batch]
            side = np.concatenate(
                [profile_table[users], stats_table[items]], axis=1
            )
            logits = model(histories[users], items, side)
            loss = binary_cross_entropy_with_logits(logits, labels[batch])
            optimizer.zero_grad()
            loss.backward()
            value = loss.item()
            if train_config.l2 > 0:
                value += optimizer.l2_penalty(optimizer.params, train_config.l2)
            if train_config.gradient_clip:
                optimizer.clip_grad_norm(train_config.gradient_clip)
            optimizer.step()
            losses.append(value)
        result.epoch_losses.append(float(np.mean(losses)))
    return model, histories, result


def din_side_features(
    dataset: EcommerceDataset, users: np.ndarray, items: np.ndarray
) -> np.ndarray:
    """Profile + item-stat rows for aligned (user, item) ids."""
    return np.concatenate(
        [_standard(dataset.user_profiles)[users], _standard(dataset.item_stats)[items]],
        axis=1,
    )


def _standard(block: np.ndarray) -> np.ndarray:
    block = np.asarray(block, dtype=np.float64)
    mean = block.mean(axis=0)
    std = block.std(axis=0)
    std[std < 1e-12] = 1.0
    return (block - mean) / std
