"""Unsupervised training loop for bipartite GraphSAGE (Section III-B).

One epoch visits every edge once in shuffled mini-batches.  For each
batch the trainer draws Q_u negative users and Q_i negative items from
P_n, embeds positives and negatives together as one GraphSAGE block
(:meth:`BipartiteGraphSAGE.embed_block`, with neighbour draws keyed by
``(epoch, batch)``), and minimises J_BG with the
optimiser named in :class:`repro.utils.config.TrainConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.loss import EdgeSimilarityHead, bipartite_graph_loss
from repro.core.sage import BipartiteGraphSAGE
from repro.graph.bipartite import BipartiteGraph
from repro.graph.sampling import NegativeSampler, sample_edge_batches
from repro.obs import span
from repro.obs.metrics import counter_add
from repro.obs.monitor import heartbeat
from repro.nn.optim import build_optimizer
from repro.utils.config import SageConfig, TrainConfig
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng, ensure_rng

__all__ = ["SageTrainer", "SageTrainResult"]

logger = get_logger("core.trainer")


@dataclass
class SageTrainResult:
    """Training diagnostics: per-epoch mean batch losses."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class SageTrainer:
    """Fits one :class:`BipartiteGraphSAGE` module on one graph."""

    def __init__(
        self,
        module: BipartiteGraphSAGE,
        graph: BipartiteGraph,
        train_config: TrainConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.module = module
        self.graph = graph
        self.train_config = train_config or TrainConfig()
        self.rng = ensure_rng(rng)
        cfg: SageConfig = module.config
        self.head = EdgeSimilarityHead(
            cfg.embedding_dim, mode=cfg.similarity_head, rng=derive_rng(self.rng, 1)
        )
        self.negative_sampler = NegativeSampler(
            graph, distribution=cfg.negative_distribution, rng=derive_rng(self.rng, 2)
        )
        # The module's parameters lead the optimiser's list: the run the L2
        # penalty covers.
        self._penalized = self.module.parameters()
        self.optimizer = build_optimizer(
            self.train_config.optimizer,
            self._penalized + self.head.parameters(),
            self.train_config.learning_rate,
        )

    def fit(self) -> SageTrainResult:
        """Run the configured number of epochs; returns loss history."""
        result = SageTrainResult()
        tcfg = self.train_config
        for epoch in range(tcfg.epochs):
            losses = []
            edges_seen = 0
            t0 = perf_counter()
            with span("train.epoch", epoch=epoch) as epoch_span:
                batches = sample_edge_batches(
                    self.graph, tcfg.batch_size, rng=derive_rng(self.rng, 10 + epoch)
                )
                for step, (users, items, weights) in enumerate(batches):
                    losses.append(self._step(users, items, weights, key=(epoch, step)))
                    edges_seen += len(users)
                    if tcfg.log_every and (step + 1) % tcfg.log_every == 0:
                        logger.info(
                            "epoch %d step %d loss %.4f", epoch, step + 1, losses[-1]
                        )
                mean_loss = float(np.mean(losses)) if losses else float("nan")
                elapsed = perf_counter() - t0
                epoch_span.set(
                    loss=mean_loss,
                    edges=edges_seen,
                    edges_per_sec=edges_seen / elapsed if elapsed > 0 else 0.0,
                )
            counter_add("train.edges_seen", edges_seen)
            counter_add("train.epochs", 1)
            heartbeat(
                "train.fit",
                epoch + 1,
                tcfg.epochs,
                loss=round(mean_loss, 4),
                edges=edges_seen,
            )
            result.epoch_losses.append(mean_loss)
            logger.info("epoch %d mean loss %.4f", epoch, mean_loss)
        return result

    def _step(self, users: np.ndarray, items: np.ndarray, weights: np.ndarray, key) -> float:
        cfg = self.module.config
        batch = len(users)
        neg_users = self.negative_sampler.sample_users(batch * cfg.negative_samples_user)
        neg_items = self.negative_sampler.sample_items(batch * cfg.negative_samples_item)
        # One block per batch: positives and negatives share each side's
        # frontiers, neighbour draws and step matrices.
        (z_users, z_neg_users), (z_items, z_neg_items) = self.module.embed_block(
            self.graph, users=[users, neg_users], items=[items, neg_items], key=key
        )

        loss = bipartite_graph_loss(
            self.head,
            z_users,
            z_items,
            weights,
            z_neg_users,
            z_neg_items,
            gamma=cfg.negative_weight,
            q_user_weight=float(cfg.negative_samples_user),
            q_item_weight=float(cfg.negative_samples_item),
        )
        self.optimizer.zero_grad()
        loss.backward()
        value = loss.item()
        if cfg.l2 > 0:
            value += self.optimizer.l2_penalty(self._penalized, cfg.l2)
        if self.train_config.gradient_clip:
            self.optimizer.clip_grad_norm(self.train_config.gradient_clip)
        self.optimizer.step()
        return value
