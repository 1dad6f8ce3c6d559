"""HOP-Rec baseline (Yang et al., RecSys 2018).

The paper's related-work section (Section II-B) singles out HOP-Rec as
the random-walk approach to graph-based collaborative filtering: it
"performs random walks to enrich the interactions of a user with
multi-hop connected items".  We provide it as an additional comparison
point for the unsupervised stage: matrix-factorisation embeddings
trained with a BPR-style ranking loss whose positives are drawn from
k-hop random walks on the user-item graph, with per-hop decay weights.

It is *not* part of the paper's Table III (the authors compare against
DIN/CGNN/GE and their own submodels), but it slots into the same
``FeatureAssembler`` interface so the experiment harness can evaluate
it alongside the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.sampling import NeighborSampler
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng, ensure_rng

__all__ = ["HopRecConfig", "HopRec", "HopRecResult"]

logger = get_logger("prediction.hoprec")


def _sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class HopRecConfig:
    """HOP-Rec hyper-parameters.

    ``hop_weights`` follow the paper's 1/k decay: the k-th hop's pairs
    contribute with weight ``hop_weights[k-1]``.
    """

    embedding_dim: int = 32
    num_hops: int = 2
    hop_weights: tuple[float, ...] = (1.0, 0.5)
    walks_per_user: int = 20
    epochs: int = 5
    learning_rate: float = 0.05
    regularization: float = 1e-4
    margin: float = 1.0  # BPR indicator threshold epsilon

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        if len(self.hop_weights) < self.num_hops:
            raise ValueError("need one hop weight per hop")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class HopRecResult:
    """Training diagnostics."""

    epoch_losses: list[float] = field(default_factory=list)


class HopRec:
    """Random-walk enriched matrix factorisation on a bipartite graph."""

    def __init__(
        self,
        graph: BipartiteGraph,
        config: HopRecConfig | None = None,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        self.graph = graph
        self.config = config or HopRecConfig()
        self.rng = ensure_rng(rng)
        d = self.config.embedding_dim
        init_rng = derive_rng(self.rng, 1)
        scale = 1.0 / np.sqrt(d)
        self.user_embeddings = init_rng.normal(scale=scale, size=(graph.num_users, d))
        self.item_embeddings = init_rng.normal(scale=scale, size=(graph.num_items, d))
        self._sampler = NeighborSampler(graph, rng=derive_rng(self.rng, 2))

    # ------------------------------------------------------------------
    def _walk_targets(self, users: np.ndarray) -> list[list[tuple[int, float]]]:
        """k-hop item targets (item, hop_weight) for each user via walks."""
        cfg = self.config
        targets: list[list[tuple[int, float]]] = [[] for _ in users]
        current_users = users.copy()
        for hop in range(cfg.num_hops):
            items = self._sampler.sample_items_for_users(current_users, 1)[:, 0]
            weight = cfg.hop_weights[hop]
            for row, item in enumerate(items):
                if item >= 0:
                    targets[row].append((int(item), weight))
            if hop + 1 < cfg.num_hops:
                next_users = self._sampler.sample_users_for_items(
                    np.maximum(items, 0), 1
                )[:, 0]
                next_users = np.where(items >= 0, next_users, -1)
                current_users = np.maximum(next_users, 0)
        return targets

    def fit(self) -> HopRecResult:
        """Train with BPR updates over walk-derived positive pairs."""
        cfg = self.config
        result = HopRecResult()
        neg_rng = derive_rng(self.rng, 3)
        for epoch in range(cfg.epochs):
            losses = []
            lr = cfg.learning_rate * (1.0 - epoch / max(cfg.epochs, 1) * 0.5)
            for _ in range(cfg.walks_per_user):
                users = np.arange(self.graph.num_users)
                all_targets = self._walk_targets(users)
                for user, pairs in zip(users, all_targets):
                    for item, weight in pairs:
                        negative = int(neg_rng.integers(self.graph.num_items))
                        losses.append(
                            self._bpr_update(int(user), item, negative, weight, lr)
                        )
            result.epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
            logger.info("hoprec epoch %d loss %.4f", epoch, result.epoch_losses[-1])
        return result

    def _bpr_update(
        self, user: int, pos: int, neg: int, weight: float, lr: float
    ) -> float:
        u = self.user_embeddings[user]
        i = self.item_embeddings[pos]
        j = self.item_embeddings[neg]
        diff = float(u @ i - u @ j)
        if diff > self.config.margin:
            return 0.0  # confidently ordered; HOP-Rec skips these
        g = _sigmoid(-diff) * weight  # d/d(diff) of -log sigmoid(diff)
        reg = self.config.regularization
        grad_u = g * (i - j) - reg * u
        grad_i = g * u - reg * i
        grad_j = -g * u - reg * j
        self.user_embeddings[user] += lr * grad_u
        self.item_embeddings[pos] += lr * grad_i
        self.item_embeddings[neg] += lr * grad_j
        return float(-np.log(_sigmoid(diff) + 1e-12)) * weight

    # ------------------------------------------------------------------
    def score(self, user: int, item: int) -> float:
        """Dot-product preference score."""
        return float(self.user_embeddings[user] @ self.item_embeddings[item])

    def representations(self) -> tuple[np.ndarray, np.ndarray]:
        """(user, item) embedding matrices for the FeatureAssembler."""
        return self.user_embeddings.copy(), self.item_embeddings.copy()
