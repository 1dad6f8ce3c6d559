"""The unsupervised J_BG loss and similarity head."""

import numpy as np
import pytest

from repro.core.loss import EdgeSimilarityHead, bipartite_graph_loss, _repeat_rows
from repro.nn.gradcheck import check_gradient
from repro.nn.tensor import Tensor


def _embeddings(n, d=6, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(n, d)), requires_grad=True)


class TestHead:
    @pytest.mark.parametrize("mode", ["mlp", "dot", "hybrid"])
    def test_output_shape(self, mode):
        head = EdgeSimilarityHead(6, mode=mode, rng=0)
        out = head(_embeddings(5), _embeddings(5, seed=1), np.ones(5))
        assert out.shape == (5,)

    def test_dot_mode_matches_scaled_dot(self):
        head = EdgeSimilarityHead(4, mode="dot")
        a, b = _embeddings(3, 4), _embeddings(3, 4, seed=1)
        out = head(a, b, np.ones(3))
        expected = (a.data * b.data).sum(axis=1) / 2.0  # 1/sqrt(4)
        assert np.allclose(out.data, expected)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            EdgeSimilarityHead(4, mode="bilinear")

    def test_dot_mode_has_no_parameters(self):
        assert EdgeSimilarityHead(4, mode="dot").parameters() == []

    def test_weight_feature_influences_mlp(self):
        head = EdgeSimilarityHead(4, mode="mlp", rng=0)
        a, b = _embeddings(3, 4), _embeddings(3, 4, seed=1)
        out1 = head(a, b, np.ones(3))
        out2 = head(a, b, np.full(3, 100.0))
        assert not np.allclose(out1.data, out2.data)


class TestLoss:
    def _compute(self, mode="hybrid", q=2, batch=4):
        head = EdgeSimilarityHead(6, mode=mode, rng=0)
        zu, zi = _embeddings(batch), _embeddings(batch, seed=1)
        znu = _embeddings(batch * q, seed=2)
        zni = _embeddings(batch * q, seed=3)
        return bipartite_graph_loss(
            head, zu, zi, np.ones(batch), znu, zni,
            gamma=1.0, q_user_weight=float(q), q_item_weight=float(q),
        )

    def test_scalar_and_positive(self):
        loss = self._compute()
        assert loss.size == 1
        assert loss.item() > 0

    def test_backward_flows_to_embeddings(self):
        head = EdgeSimilarityHead(6, mode="hybrid", rng=0)
        zu, zi = _embeddings(4), _embeddings(4, seed=1)
        znu, zni = _embeddings(8, seed=2), _embeddings(8, seed=3)
        loss = bipartite_graph_loss(head, zu, zi, np.ones(4), znu, zni, gamma=1.0)
        loss.backward()
        assert zu.grad is not None and np.any(zu.grad != 0)
        assert zni.grad is not None and np.any(zni.grad != 0)

    def test_empty_batch_raises(self):
        head = EdgeSimilarityHead(6, rng=0)
        with pytest.raises(ValueError):
            bipartite_graph_loss(
                head, _embeddings(0), _embeddings(0), np.zeros(0),
                _embeddings(0), _embeddings(0), gamma=1.0,
            )

    def test_aligned_positives_score_lower_loss(self):
        # Identical user/item embeddings (perfect similarity) should give
        # lower loss under the dot head than anti-aligned ones.
        head = EdgeSimilarityHead(6, mode="dot")
        z = _embeddings(8)
        zeros = Tensor(np.zeros((0, 6)))
        aligned = bipartite_graph_loss(
            head, z, Tensor(z.data), np.ones(8), zeros, zeros, gamma=1.0
        )
        anti = bipartite_graph_loss(
            head, z, Tensor(-z.data), np.ones(8), zeros, zeros, gamma=1.0
        )
        assert aligned.item() < anti.item()

    def test_more_negatives_increase_loss(self):
        small = self._compute(q=1)
        large = self._compute(q=4)
        assert large.item() > small.item()


class TestRepeatRows:
    def test_tiles_preserving_rows(self):
        t = _embeddings(3, 2)
        out = _repeat_rows(t, 2)
        assert out.shape == (6, 2)
        assert np.allclose(out.data[:3], t.data)
        assert np.allclose(out.data[3:], t.data)

    def test_reps_one_is_identity(self):
        t = _embeddings(3, 2)
        assert _repeat_rows(t, 1) is t

    def test_gradient_accumulates_over_copies(self):
        t = _embeddings(2, 2)
        _repeat_rows(t, 3).sum().backward()
        assert np.allclose(t.grad, 3.0)

    def test_matches_gather_path_exactly(self):
        # The tiled node replaces ``gather_rows(np.tile(arange(B), reps))``;
        # forward rows and the folded-back gradient are the same values.
        rng = np.random.default_rng(4)
        data = rng.normal(size=(5, 3))
        upstream = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-6, 7, size=(20, 3))
        tiled = Tensor(data, requires_grad=True)
        gathered = Tensor(data, requires_grad=True)
        out_tiled = _repeat_rows(tiled, 4)
        out_gathered = gathered.gather_rows(np.tile(np.arange(5), 4))
        np.testing.assert_array_equal(out_tiled.data, out_gathered.data)
        out_tiled.backward(upstream)
        out_gathered.backward(upstream)
        np.testing.assert_array_equal(tiled.grad, gathered.grad)

    def test_gradient_check(self):
        t = _embeddings(4, 3)
        weights = Tensor(np.random.default_rng(5).normal(size=(12, 3)))
        check_gradient(lambda: (_repeat_rows(t, 3) * weights).tanh().sum(), [t])
