"""The supervised CVR head (Fig. 2, Eq. 7)."""

import numpy as np
import pytest

from repro.metrics.auc import auc
from repro.prediction.cvr_model import CVRModel, CVRTrainConfig, train_cvr_model


def _separable_problem(n=600, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6))
    logits = 2.0 * x[:, 0] - 1.5 * x[:, 1] + 0.5 * x[:, 2] * 0
    y = (logits + rng.normal(scale=0.3, size=n) > 0).astype(float)
    return x, y


class TestTraining:
    def test_learns_separable_data(self):
        x, y = _separable_problem()
        model, result = train_cvr_model(
            x, y, CVRTrainConfig(hidden=(16,), epochs=20, batch_size=64), rng=0
        )
        assert auc(y, model.predict_proba(x)) > 0.9
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_learns_interaction_feature(self):
        # Labels depend on x0*x1 — an MLP must pick up the non-linearity.
        rng = np.random.default_rng(1)
        x = rng.normal(size=(800, 4))
        y = (x[:, 0] * x[:, 1] > 0).astype(float)
        model, _ = train_cvr_model(
            x, y, CVRTrainConfig(hidden=(32, 16), epochs=40, batch_size=64), rng=0
        )
        assert auc(y, model.predict_proba(x)) > 0.8

    def test_probabilities_in_range(self):
        x, y = _separable_problem(100)
        model, _ = train_cvr_model(x, y, CVRTrainConfig(epochs=1), rng=0)
        probs = model.predict_proba(x)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_empty_training_raises(self):
        with pytest.raises(ValueError):
            train_cvr_model(np.zeros((0, 3)), np.zeros(0))

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            train_cvr_model(np.zeros((5, 3)), np.zeros(4))

    def test_deterministic(self):
        x, y = _separable_problem(150)
        cfg = CVRTrainConfig(hidden=(8,), epochs=2, batch_size=32)
        a, _ = train_cvr_model(x, y, cfg, rng=5)
        b, _ = train_cvr_model(x, y, cfg, rng=5)
        assert np.allclose(a.predict_proba(x), b.predict_proba(x))

    def test_dropout_config_runs(self):
        x, y = _separable_problem(100)
        model, _ = train_cvr_model(
            x, y, CVRTrainConfig(hidden=(8,), epochs=2, dropout=0.3), rng=0
        )
        assert np.all(np.isfinite(model.predict_proba(x)))


class TestPinnedLosses:
    @pytest.mark.parametrize(
        "options, want",
        [
            (
                {"dropout": 0.0},
                ["0x1.bbd7c2d39aa72p-1", "0x1.b17fc939eb673p-1", "0x1.a7d6af6ee1322p-1"],
            ),
            (
                {"dropout": 0.3},
                ["0x1.c2ff672d8a256p-1", "0x1.bf2ac6c3798b0p-1", "0x1.c227bc79f869dp-1"],
            ),
            (
                {"optimizer": "sgd", "gradient_clip": 0.5},
                ["0x1.bf6ac550407cbp-1", "0x1.beab6521dc378p-1", "0x1.bd702bbf5cb2dp-1"],
            ),
            (
                {"optimizer": "adagrad", "dropout": 0.2},
                ["0x1.bcb4ecc9958eap-1", "0x1.b785a14d46d85p-1", "0x1.cb0eb014365dbp-1"],
            ),
        ],
    )
    def test_seeded_losses_pinned(self, options, want):
        # Exact per-epoch losses of Eq. 7's training loop (L2 on, Adam
        # unless named): any change to the forward, the backward or the
        # optimiser's arithmetic moves them.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 10))
        y = (x[:, 0] - x[:, 1] * x[:, 2] + rng.normal(scale=0.5, size=300) > 0).astype(float)
        cfg = CVRTrainConfig(hidden=(16, 8), epochs=3, batch_size=64, **options)
        _, result = train_cvr_model(x, y, cfg, rng=3)
        assert [loss.hex() for loss in result.epoch_losses] == want


class TestConfig:
    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            CVRTrainConfig(epochs=0)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            CVRTrainConfig(batch_size=0)


class TestModel:
    def test_logit_shape(self):
        from repro.nn.tensor import Tensor

        model = CVRModel(4, hidden=(8,), rng=0)
        out = model(Tensor(np.ones((3, 4))))
        assert out.shape == (3,)

    def test_predict_batching_consistent(self):
        x, y = _separable_problem(100)
        model, _ = train_cvr_model(x, y, CVRTrainConfig(epochs=1), rng=0)
        assert np.allclose(
            model.predict_proba(x, batch_size=7), model.predict_proba(x, batch_size=100)
        )
