"""NGCF — Neural Graph Collaborative Filtering (Wang et al., SIGIR 2019).

The paper's introduction builds directly on NGCF ([18]): "a neural graph
collaborative filtering method to explicitly integrate the user-item
interactions into the embedding process", and Section II-B criticises
this family for depending on full-matrix operations "which makes it less
scalable on large-scale graphs".  We implement it as an additional
unsupervised comparator so that criticism is testable: NGCF propagates
over the *full normalised adjacency* each forward pass (dense here,
faithful to the matrix formulation), while HiGNN's sampled aggregation
touches only K1*K2 neighbours per vertex.

Propagation rule per layer (Eqs. 7-8 of the NGCF paper, simplified to
the symmetric-normalised form):

    E^(l+1) = LeakyReLU( (L + I) E^l W1 + (L E^l) * E^l W2 )

with L = D^-1/2 A D^-1/2 over the bipartite adjacency, * elementwise.
Training uses BPR over observed edges vs sampled negative items.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.nn.layers import Linear, Module, Parameter
from repro.nn.optim import build_optimizer
from repro.nn.tensor import Tensor, concat, no_grad
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng, ensure_rng

__all__ = ["NGCFConfig", "NGCF", "NGCFResult", "train_ngcf"]

logger = get_logger("prediction.ngcf")


@dataclass
class NGCFConfig:
    """NGCF hyper-parameters (scaled to mini graphs)."""

    embedding_dim: int = 32
    num_layers: int = 2
    epochs: int = 10
    batch_size: int = 512
    learning_rate: float = 1e-2
    l2: float = 1e-4
    max_dense_vertices: int = 20_000  # guardrail for the dense adjacency

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class NGCFResult:
    """Training diagnostics."""

    epoch_losses: list[float] = field(default_factory=list)


class NGCF(Module):
    """Dense-propagation NGCF over one bipartite graph.

    The final representation of a vertex is the concatenation of its
    embeddings at every propagation depth (as in the NGCF paper), so the
    output dimension is ``embedding_dim * (num_layers + 1)``.
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        config: NGCFConfig | None = None,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__()
        self.config = config or NGCFConfig()
        cfg = self.config
        total = graph.num_users + graph.num_items
        if total > cfg.max_dense_vertices:
            raise ValueError(
                f"graph has {total} vertices; dense NGCF is capped at "
                f"{cfg.max_dense_vertices} (the scalability criticism the "
                "paper makes of this method family)"
            )
        rng = ensure_rng(rng)
        self.graph = graph
        self.num_users = graph.num_users
        self.num_items = graph.num_items
        d = cfg.embedding_dim
        init = derive_rng(rng, 1)
        self.embeddings = Parameter(
            init.normal(scale=0.1, size=(total, d)).astype(np.float32), name="ego_embeddings"
        )
        self.w1 = [Linear(d, d, rng=derive_rng(rng, 10 + l)) for l in range(cfg.num_layers)]
        self.w2 = [Linear(d, d, rng=derive_rng(rng, 20 + l)) for l in range(cfg.num_layers)]
        # The Laplacian enters in the parameters' dtype.
        self._laplacian = self._build_laplacian(graph).astype(self.dtype)

    @staticmethod
    def _build_laplacian(graph: BipartiteGraph) -> np.ndarray:
        """Symmetric-normalised adjacency over the joint vertex set."""
        n_u, n_i = graph.num_users, graph.num_items
        total = n_u + n_i
        adj = np.zeros((total, total))
        users = graph.edges[:, 0]
        items = graph.edges[:, 1] + n_u
        adj[users, items] = graph.edge_weights
        adj[items, users] = graph.edge_weights
        degrees = adj.sum(axis=1)
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
        return adj * inv_sqrt[:, None] * inv_sqrt[None, :]

    def propagate(self) -> Tensor:
        """All-layer concatenated representations, shape (U+I, d*(L+1))."""
        ego = self.embeddings
        layers = [ego]
        lap = self._laplacian
        for w1, w2 in zip(self.w1, self.w2):
            side = Tensor(lap) @ layers[-1]  # L E^l (dense matmul)
            message = w1(side + layers[-1]) + w2(side * layers[-1])
            layers.append(message.leaky_relu(0.2))
        return concat(layers, axis=-1)

    def user_item_representations(self) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode (user, item) matrices for the FeatureAssembler."""
        self.eval()
        with no_grad():
            rep = self.propagate().data
        self.train()
        return rep[: self.num_users].copy(), rep[self.num_users :].copy()

    def score_pairs(self, rep: Tensor, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Dot-product scores for aligned id arrays on a propagated rep."""
        z_u = rep.gather_rows(np.asarray(users))
        z_i = rep.gather_rows(np.asarray(items) + self.num_users)
        return (z_u * z_i).sum(axis=-1)


def train_ngcf(
    graph: BipartiteGraph,
    config: NGCFConfig | None = None,
    rng: int | np.random.Generator | None = 0,
) -> tuple[NGCF, NGCFResult]:
    """Fit NGCF with BPR over the graph's observed edges."""
    config = config or NGCFConfig()
    rng = ensure_rng(rng)
    model = NGCF(graph, config, rng=derive_rng(rng, 1))
    optimizer = build_optimizer("adam", model.parameters(), config.learning_rate)
    result = NGCFResult()
    data_rng = derive_rng(rng, 2)
    edges = graph.edges
    for epoch in range(config.epochs):
        order = data_rng.permutation(len(edges))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            users = edges[batch, 0]
            pos_items = edges[batch, 1]
            neg_items = data_rng.integers(0, graph.num_items, size=len(batch))
            rep = model.propagate()
            pos_scores = model.score_pairs(rep, users, pos_items)
            neg_scores = model.score_pairs(rep, users, neg_items)
            # BPR: -log sigmoid(pos - neg), numerically via softplus.
            diff = pos_scores - neg_scores
            loss = ((-diff).relu() + (1.0 + (-(diff.abs())).exp()).log()).mean()
            if config.l2 > 0:
                reg = (model.embeddings * model.embeddings).sum() * (
                    config.l2 / max(len(batch), 1)
                )
                loss = loss + reg
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        result.epoch_losses.append(float(np.mean(losses)))
        logger.info("ngcf epoch %d loss %.4f", epoch, result.epoch_losses[-1])
    return model, result
