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

from repro.nn.layers import MLP, Module, _linear_params, _stack_backward, _stack_forward
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.tensor import Tensor, concat, is_grad_enabled

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

    In ``mlp`` and ``hybrid`` modes the MLP's first layer over the
    concatenation is split: ``CONCAT(z_u, z_i, w) @ W`` is
    ``z_u @ A + z_i @ B + w c`` for ``W = [A; B; c]``, so each embedded
    row is multiplied once however many pairs it takes part in, and the
    whole head is one autograd node (:func:`_split_head`).
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
        return self.score(z_left, z_right, weights)

    def score(
        self,
        z_users: Tensor,
        z_items: Tensor,
        weights: np.ndarray,
        z_neg_users: Tensor | None = None,
        z_neg_items: Tensor | None = None,
        gamma: float = 0.0,
    ) -> Tensor:
        """Logits of a mini-batch's pairs, as one vector: the B aligned
        positive pairs, then each negative user row ``q * B + b`` against
        item ``b``, then each negative item row ``q * B + b`` against user
        ``b``.  Negatives carry the edge weight ``gamma``."""
        batch, dim = z_users.shape
        empty = Tensor(np.zeros((0, dim), dtype=z_users.data.dtype))
        z_neg_users = empty if z_neg_users is None else z_neg_users
        z_neg_items = empty if z_neg_items is None else z_neg_items
        for negatives in (z_neg_users, z_neg_items):
            if len(negatives) and (batch == 0 or len(negatives) % batch):
                raise ValueError(
                    f"{len(negatives)} negative rows do not tile a batch of {batch}"
                )
        if self.mode != "dot":
            log_w = np.log1p(np.asarray(weights, dtype=np.float64))
            return _split_head(
                self, z_users, z_items, log_w, z_neg_users, z_neg_items, float(np.log1p(gamma))
            )
        reps_u, reps_i = len(z_neg_users) // max(batch, 1), len(z_neg_items) // max(batch, 1)
        dots = [(z_users * z_items).sum(axis=-1)]
        if reps_u:
            dots.append((z_neg_users * _repeat_rows(z_items, reps_u)).sum(axis=-1))
        if reps_i:
            dots.append((_repeat_rows(z_users, reps_i) * z_neg_items).sum(axis=-1))
        return concat(dots, axis=0) * self.scale


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
    ``z_neg_users`` holds B * Q negative users, row ``q * B + b`` paired
    against batch item ``b`` (and symmetrically for ``z_neg_items``).
    Each negative block's log-loss sum is weighted by ``Q_u / Q`` (resp.
    ``Q_i / Q``) and the total is averaged over the batch.
    """
    batch = len(edge_weights)
    if batch == 0:
        raise ValueError("empty batch")
    logits = head.score(z_users, z_items, edge_weights, z_neg_users, z_neg_items, gamma)
    n_u, n_i = len(z_neg_users), len(z_neg_items)
    targets = np.zeros(len(logits), dtype=logits.data.dtype)
    targets[:batch] = 1.0
    coef = np.empty_like(targets)
    coef[:batch] = 1.0 / batch
    coef[batch : batch + n_u] = q_user_weight / max(n_u // batch, 1) / batch
    coef[batch + n_u :] = q_item_weight / max(n_i // batch, 1) / batch
    return binary_cross_entropy_with_logits(logits, targets, weights=coef, reduction="sum")


def _split_head(
    head: EdgeSimilarityHead,
    z_u: Tensor,
    z_i: Tensor,
    log_w: np.ndarray,
    z_nu: Tensor,
    z_ni: Tensor,
    log_gamma: float,
) -> Tensor:
    """The ``mlp``/``hybrid`` head over a batch's pairs as one autograd
    node (the layout of :meth:`EdgeSimilarityHead.score`).

    The first layer's pre-activation is ``z_u @ A + z_i @ B + log1p(w) c
    + b``: ``A`` and ``B`` multiply each of the B positive and B * Q
    negative rows once, and the positive rows' products are broadcast
    over the Q negative blocks by reshape.  The rest of the MLP runs in
    numpy (:func:`repro.nn.layers._stack_forward`), and the backward is
    the hand-derived VJP: the Q blocks' gradients fold back onto the
    positive rows with one reshaped sum.  The Tensor-composed head over
    the concatenation (``tests/oracles.py``) is its gradient oracle.
    """
    layers = head.net.net.layers
    first = layers[0]
    weight, bias = first.weight, first.bias
    params = _linear_params(layers)
    inputs = (z_u, z_i, z_nu, z_ni)
    record = is_grad_enabled() and any(t.requires_grad for t in (*inputs, *params))
    dtype = weight.data.dtype
    batch, dim = z_u.shape
    qu, qi = len(z_nu) // max(batch, 1), len(z_ni) // max(batch, 1)
    a, b, c = weight.data[:dim], weight.data[dim : 2 * dim], weight.data[2 * dim]
    hidden = weight.shape[1]
    log_w = log_w.astype(dtype)

    # Pre-activations: [positives | Q_u negative-user blocks | Q_i negative-item blocks].
    ua, ib = z_u.data @ a, z_i.data @ b
    z1 = np.empty((batch * (1 + qu + qi), hidden), dtype=dtype)
    pos = z1[:batch]
    neg_u = z1[batch : batch * (1 + qu)].reshape(qu, batch, hidden)
    neg_i = z1[batch * (1 + qu) :].reshape(qi, batch, hidden)
    np.add(ua, ib, out=pos)
    pos += np.multiply.outer(log_w, c)
    np.add((z_nu.data @ a).reshape(qu, batch, hidden), ib, out=neg_u)
    np.add(ua, (z_ni.data @ b).reshape(qi, batch, hidden), out=neg_i)
    z1[batch:] += log_gamma * c
    z1 += bias.data
    out, tape = _stack_forward(z1, layers[1:], record)
    logits = out.reshape(-1)

    hybrid = head.mode == "hybrid"
    if hybrid:
        zu, zi = z_u.data, z_i.data
        znu, zni = z_nu.data.reshape(qu, batch, dim), z_ni.data.reshape(qi, batch, dim)
        dots = np.concatenate(
            [
                np.einsum("bj,bj->b", zu, zi),
                np.einsum("qbj,bj->qb", znu, zi).reshape(-1),
                np.einsum("bj,qbj->qb", zu, zni).reshape(-1),
            ]
        )
        dots *= head.scale
        logits += dots

    def backward(grad: np.ndarray) -> None:
        g1 = _stack_backward(grad.reshape(-1, 1), tape, input_grad=True)
        g_pos = g1[:batch]
        g_nu = g1[batch : batch * (1 + qu)]
        g_ni = g1[batch * (1 + qu) :]
        # The positive rows' products feed their own pairs and, broadcast,
        # every negative block of the other side.
        g_ua = g_pos + g_ni.reshape(qi, batch, hidden).sum(axis=0)
        g_ib = g_pos + g_nu.reshape(qu, batch, hidden).sum(axis=0)
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            gw[:dim] = z_u.data.T @ g_ua + z_nu.data.T @ g_nu
            gw[dim : 2 * dim] = z_i.data.T @ g_ib + z_ni.data.T @ g_ni
            gw[2 * dim] = log_w @ g_pos + log_gamma * g1[batch:].sum(axis=0)
            weight._accumulate(gw, owned=True)
        if bias.requires_grad:
            bias._accumulate(g1.sum(axis=0), owned=True)
        grads = [g_ua @ a.T, g_ib @ b.T, g_nu @ a.T, g_ni @ b.T]
        if hybrid:
            gd = grad * head.scale
            gd_pos = gd[:batch, None]
            gd_nu = gd[batch : batch * (1 + qu)].reshape(qu, batch, 1)
            gd_ni = gd[batch * (1 + qu) :].reshape(qi, batch, 1)
            grads[0] += gd_pos * zi + (gd_ni * zni).sum(axis=0)
            grads[1] += gd_pos * zu + (gd_nu * znu).sum(axis=0)
            grads[2] += (gd_nu * zi).reshape(-1, dim)
            grads[3] += (gd_ni * zu).reshape(-1, dim)
        for t, g in zip(inputs, grads):
            if t.requires_grad and g.size:
                t._accumulate(g, owned=True)

    return Tensor._make(logits, (*inputs, *params), backward)


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
