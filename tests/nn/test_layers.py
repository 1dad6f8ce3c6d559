"""Layer modules: shapes, parameter traversal, state dicts, gradients."""

import numpy as np
import pytest

from repro.nn.gradcheck import check_gradient
from repro.nn.layers import (
    MLP,
    Activation,
    Dropout,
    Embedding,
    Linear,
    Module,
    Parameter,
    Sequential,
)
from repro.nn.tensor import Tensor
from tests.float64 import float64


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_bad_dims_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_gradcheck(self):
        layer = float64(Linear(3, 2, rng=0))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        check_gradient(lambda: (layer(x) ** 2.0).sum(), layer.parameters())

    def test_deterministic_init(self):
        a = Linear(4, 3, rng=42)
        b = Linear(4, 3, rng=42)
        assert np.allclose(a.weight.data, b.weight.data)


class TestActivation:
    def test_known_names(self):
        for name in ("relu", "leaky_relu", "tanh", "sigmoid", "identity"):
            Activation(name)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            Activation("swish")

    def test_identity_passthrough(self):
        x = Tensor(np.array([-1.0, 2.0]))
        assert np.allclose(Activation("identity")(x).data, x.data)


class TestMLP:
    def test_shapes_through_hidden(self):
        mlp = MLP(6, (8, 4), 2, rng=0)
        out = mlp(Tensor(np.ones((3, 6))))
        assert out.shape == (3, 2)

    def test_gradcheck(self):
        mlp = float64(MLP(3, (4,), 1, activation="tanh", rng=0))
        x = Tensor(np.random.default_rng(0).normal(size=(5, 3)))
        check_gradient(lambda: (mlp(x) ** 2.0).sum(), mlp.parameters())

    def test_output_activation(self):
        mlp = MLP(3, (4,), 2, output_activation="sigmoid", rng=0)
        out = mlp(Tensor(np.random.default_rng(0).normal(size=(10, 3)) * 5))
        assert np.all((out.data > 0) & (out.data < 1))

    def test_parameter_count(self):
        mlp = MLP(3, (4,), 2, rng=0)
        # two Linear layers, each weight+bias
        assert len(mlp.parameters()) == 4


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng=0)
        out = emb(np.array([1, 3, 3]))
        assert out.shape == (3, 4)

    def test_out_of_range_raises(self):
        emb = Embedding(10, 4, rng=0)
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_accumulates_on_duplicates(self):
        emb = Embedding(5, 2, rng=0)
        out = emb(np.array([2, 2])).sum()
        out.backward()
        grad = emb.weight.grad
        assert np.allclose(grad[2], [2.0, 2.0])
        assert np.allclose(grad[[0, 1, 3, 4]], 0.0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = Dropout(0.5, rng=0)
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        assert np.allclose(drop(x).data, 1.0)

    def test_training_scales_kept_units(self):
        drop = Dropout(0.5, rng=0)
        x = Tensor(np.ones((2000,)))
        out = drop(x).data
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scaling
        assert 0.3 < len(kept) / 2000 < 0.7

    def test_rate_zero_identity(self):
        drop = Dropout(0.0)
        x = Tensor(np.ones(5))
        assert drop(x) is x

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestModuleTraversal:
    def test_nested_named_parameters(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 2, rng=0)
                self.blocks = [Linear(2, 2, rng=1), Linear(2, 2, rng=2)]
                self.table = {"x": Linear(2, 2, rng=3)}

        names = [n for n, _ in Net().named_parameters()]
        assert "a.weight" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert "table.x.weight" in names

    def test_train_eval_propagates(self):
        seq = Sequential(Linear(2, 2, rng=0), Dropout(0.5))
        seq.eval()
        assert not seq.layers[1].training
        seq.train()
        assert seq.layers[1].training

    def test_zero_grad_clears_all(self):
        mlp = MLP(2, (3,), 1, rng=0)
        (mlp(Tensor(np.ones((2, 2)))) ** 2.0).sum().backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestStateDict:
    def test_roundtrip(self):
        a = MLP(3, (4,), 2, rng=0)
        b = MLP(3, (4,), 2, rng=99)
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        assert np.allclose(a(x).data, b(x).data)

    def test_missing_key_raises(self):
        a = MLP(3, (4,), 2, rng=0)
        state = a.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        a = MLP(3, (4,), 2, rng=0)
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_state_dict_is_copy(self):
        a = Linear(2, 2, rng=0)
        state = a.state_dict()
        state["weight"][:] = 0.0
        assert not np.allclose(a.weight.data, 0.0)


class TestParameter:
    def test_requires_grad(self):
        p = Parameter(np.ones(3))
        assert p.requires_grad
