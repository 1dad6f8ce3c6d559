"""Configuration dataclasses shared across the library.

These mirror the hyper-parameters reported in the paper (Section IV-B-2):
embedding dimension 32, hierarchy depth L=3 (L=4 for taxonomy), K-means
decay alpha=5, fully connected sizes 256/128/64, learning rate 1e-3,
batch size 1024, Leaky ReLU activations, L2 regularisation.
The defaults here are the paper's values scaled where noted for
laptop-sized graphs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, asdict
from typing import Any

__all__ = ["SageConfig", "KMeansConfig", "HiGNNConfig", "TrainConfig"]


@dataclass
class SageConfig:
    """Hyper-parameters of one bipartite GraphSAGE module (Section III-B)."""

    embedding_dim: int = 32
    num_steps: int = 2  # P, aggregation depth
    neighbor_samples: tuple[int, ...] = (10, 5)  # K1, K2 fan-outs
    aggregator: str = "mean"  # mean | sum | max
    activation: str = "leaky_relu"
    negative_samples_user: int = 5  # Q_u in Eq. 5
    negative_samples_item: int = 5  # Q_i in Eq. 5
    # gamma in Eq. 5 — the edge-weight feature fed to f for negative
    # pairs.  Default 1.0 (= a single click) so the weight channel alone
    # cannot separate positives from negatives.  The tiny-world ablation
    # (EXPERIMENTS.md "Ablations") reads better purity at gamma 0.1, so
    # a small gamma is not shown to starve the embeddings.
    negative_weight: float = 1.0
    negative_distribution: str = "degree"  # degree (deg^0.75) | uniform
    similarity_head: str = "hybrid"  # mlp (paper-literal) | dot | hybrid
    shared_space: bool = False  # query-item variant (Section V-B)
    l2: float = 1e-5

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_steps < 1:
            raise ValueError("num_steps (P) must be >= 1")
        if len(self.neighbor_samples) < self.num_steps:
            raise ValueError(
                "neighbor_samples must provide a fan-out for each of the "
                f"{self.num_steps} aggregation steps"
            )
        for fanout in self.neighbor_samples:
            if isinstance(fanout, bool) or not isinstance(fanout, numbers.Integral) or fanout < 1:
                raise ValueError(f"neighbor_samples must be positive integers, got {fanout!r}")
        if self.aggregator not in {"mean", "sum", "max"}:
            raise ValueError(f"unknown aggregator {self.aggregator!r}; use 'mean', 'sum' or 'max'")
        if self.negative_distribution not in {"degree", "uniform"}:
            raise ValueError(
                f"unknown negative_distribution {self.negative_distribution!r}"
            )
        if self.similarity_head not in {"mlp", "dot", "hybrid"}:
            raise ValueError(f"unknown similarity_head {self.similarity_head!r}")


@dataclass
class KMeansConfig:
    """Hyper-parameters of the deterministic clustering stage."""

    algorithm: str = "lloyd"  # lloyd | minibatch | single_pass
    max_iter: int = 50
    tol: float = 1e-4
    batch_size: int = 1024  # minibatch variant only
    chunk_size: int = 256  # single_pass variant: points assigned per chunk
    n_init: int = 1
    auto_k: bool = False  # pick k via Calinski-Harabasz (Eq. 13)
    auto_k_candidates: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.algorithm not in {"lloyd", "minibatch", "single_pass"}:
            raise ValueError(f"unknown kmeans algorithm {self.algorithm!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass
class TrainConfig:
    """Optimisation settings for the unsupervised GraphSAGE stage."""

    epochs: int = 5
    batch_size: int = 1024
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    gradient_clip: float | None = 5.0
    log_every: int = 0  # 0 disables progress logging

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class HiGNNConfig:
    """Full HiGNN stack configuration (Algorithm 1).

    ``levels`` is L; ``cluster_decay`` is alpha with K_l = K_{l-1} / alpha
    (Section IV-B-4); ``initial_clusters`` gives K_1 per side as a fraction
    of the vertex count when expressed in (0, 1), or an absolute count when
    >= 1.
    """

    levels: int = 3
    cluster_decay: float = 5.0
    initial_user_clusters: float = 0.25
    initial_item_clusters: float = 0.25
    min_clusters: int = 2
    sage: SageConfig = field(default_factory=SageConfig)
    kmeans: KMeansConfig = field(default_factory=KMeansConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("levels (L) must be >= 1")
        if self.cluster_decay < 1.0:
            raise ValueError("cluster_decay (alpha) must be >= 1")
        if self.min_clusters < 1:
            raise ValueError("min_clusters must be >= 1")

    def clusters_at(self, level: int, n_vertices: int, side: str) -> int:
        """Resolve the K-means cluster count for ``level`` (1-based).

        Implements the paper's geometric decay K_l = K_{l-1} / alpha
        (Section IV-B-4).  At level 1, a fractional ``initial_*_clusters``
        means "this fraction of the level-0 vertex count"; at deeper
        levels the *current* graph already has ~K_{l-1} vertices, so the
        rule reduces to ``n_vertices / alpha``.  The result is clamped to
        ``[min_clusters, n_vertices]``.
        """
        if side not in {"user", "item"}:
            raise ValueError(f"side must be 'user' or 'item', got {side!r}")
        initial = (
            self.initial_user_clusters
            if side == "user"
            else self.initial_item_clusters
        )
        if level == 1:
            k = initial * n_vertices if initial < 1.0 else initial
        elif initial < 1.0:
            k = n_vertices / self.cluster_decay
        else:
            k = initial / (self.cluster_decay ** (level - 1))
        k_int = int(round(k))
        return max(self.min_clusters, min(n_vertices, max(1, k_int)))

    def to_dict(self) -> dict[str, Any]:
        """Flatten to a plain dict (for experiment manifests)."""
        return asdict(self)
