"""The unsupervised bipartite-graph loss J_BG (Eq. 5 / Eq. 12).

A trainable similarity head ``f`` (an MLP) scores the concatenation of a
user embedding, an item embedding, and the edge-weight feature.  The
loss pushes the score of observed (u, i) pairs up and the score of
negative-sampled pairs down, with the negatives' edge-weight slot filled
by the hyper-parameter gamma and their terms weighted by the sample
counts Q_u / Q_i.

Note on fidelity: Eq. 5 as printed applies ``log sigma(f(...))`` to the
negative terms as well, which would reward *high* scores for negatives;
we read it with the standard negative-sampling sign convention
(``log sigma(-f)`` for negatives), matching the GraphSAGE loss the
construction is borrowed from and the stated intent that "embeddings of
disparate users and items are highly distinct".
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import MLP, Module
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.tensor import Tensor, concat

__all__ = ["EdgeSimilarityHead", "bipartite_graph_loss"]


class EdgeSimilarityHead(Module):
    """The similarity network ``f`` of Eq. 5.

    Three modes:

    * ``"mlp"``   — the paper-literal reading: an MLP over
      ``CONCAT(z_u, z_i, w)`` where ``w`` is the log-scaled edge weight
      (gamma for negatives).
    * ``"dot"``   — the classic GraphSAGE similarity ``z_u . z_i``
      (ignores the weight input).
    * ``"hybrid"`` (default) — dot product plus the MLP refinement.  The
      dot term anchors a metric embedding geometry, which the K-means
      stage of Algorithm 1 depends on; a pure MLP similarity can score
      edges well while leaving embeddings poorly clusterable (see
      DESIGN.md, substitution notes).
    """

    def __init__(
        self,
        embedding_dim: int,
        hidden: tuple[int, ...] = (32,),
        mode: str = "hybrid",
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if mode not in {"mlp", "dot", "hybrid"}:
            raise ValueError(f"unknown head mode {mode!r}")
        self.mode = mode
        self.scale = 1.0 / np.sqrt(embedding_dim)
        self.net = (
            MLP(
                in_features=2 * embedding_dim + 1,
                hidden=hidden,
                out_features=1,
                activation="leaky_relu",
                rng=rng,
            )
            if mode != "dot"
            else None
        )

    def forward(self, z_left: Tensor, z_right: Tensor, weights: np.ndarray) -> Tensor:
        """Logits of shape (n,) for n aligned (left, right, weight) rows."""
        if self.mode == "dot":
            return (z_left * z_right).sum(axis=-1) * self.scale
        w = np.log1p(np.asarray(weights, dtype=np.float64)).reshape(-1, 1)
        joined = concat([z_left, z_right, Tensor(w)], axis=-1)
        mlp_logit = self.net(joined).reshape(-1)
        if self.mode == "mlp":
            return mlp_logit
        return (z_left * z_right).sum(axis=-1) * self.scale + mlp_logit


def bipartite_graph_loss(
    head: EdgeSimilarityHead,
    z_users: Tensor,
    z_items: Tensor,
    edge_weights: np.ndarray,
    z_neg_users: Tensor,
    z_neg_items: Tensor,
    gamma: float,
    q_user_weight: float = 1.0,
    q_item_weight: float = 1.0,
) -> Tensor:
    """Assemble J_BG for one mini-batch.

    ``z_users``/``z_items`` are aligned positive pairs (B rows).
    ``z_neg_users`` holds negative users paired against the batch items
    (and symmetrically for ``z_neg_items``); both must already be aligned
    row-by-row with their positive counterpart (B * Q rows, produced by
    repeating each positive edge Q times).
    """
    batch = len(edge_weights)
    if batch == 0:
        raise ValueError("empty batch")
    pos_logits = head(z_users, z_items, edge_weights)
    pos_loss = binary_cross_entropy_with_logits(
        pos_logits, np.ones(batch), reduction="sum"
    )

    total = pos_loss
    if len(z_neg_users):
        n = z_neg_users.shape[0]
        reps = n // batch
        items_rep = _repeat_rows(z_items, reps)
        neg_user_logits = head(
            z_neg_users, items_rep, np.full(n, gamma, dtype=np.float64)
        )
        neg_loss_u = binary_cross_entropy_with_logits(
            neg_user_logits, np.zeros(n), reduction="sum"
        )
        total = total + neg_loss_u * (q_user_weight / max(reps, 1))
    if len(z_neg_items):
        n = z_neg_items.shape[0]
        reps = n // batch
        users_rep = _repeat_rows(z_users, reps)
        neg_item_logits = head(
            users_rep, z_neg_items, np.full(n, gamma, dtype=np.float64)
        )
        neg_loss_i = binary_cross_entropy_with_logits(
            neg_item_logits, np.zeros(n), reduction="sum"
        )
        total = total + neg_loss_i * (q_item_weight / max(reps, 1))
    return total * (1.0 / batch)


def _repeat_rows(t: Tensor, reps: int) -> Tensor:
    """Tile a (B, d) tensor to (B * reps, d) preserving gradients.

    Row ``r * B + b`` is a copy of row ``b``, so the backward pass folds
    the ``reps`` gradient blocks back with one reshaped sum instead of a
    scatter — the same sequential additions, in the same order.
    """
    if reps <= 1:
        return t

    def backward(grad: np.ndarray) -> None:
        if t.requires_grad:
            t._accumulate(grad.reshape(reps, *t.shape).sum(axis=0), owned=True)

    return Tensor._make(np.tile(t.data, (reps, 1)), (t,), backward)
