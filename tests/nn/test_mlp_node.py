"""The fused MLP node against its oracle, the Tensor-op composition.

``MLP.forward`` runs the whole stack as one autograd node; outputs,
parameter gradients and input gradients must equal those of
``tests.oracles.mlp_tensor_ops`` bitwise, for every activation, with and
without dropout (from the same draws).
"""

import numpy as np
import pytest

from repro.nn.layers import _ACTIVATIONS, MLP
from repro.nn.tensor import Tensor, no_grad
from tests.oracles import mlp_tensor_ops


def _run(forward, mlp, x_data, upstream):
    mlp.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    out = forward(x)
    out.backward(upstream)
    return [out.data, x.grad, *(p.grad for p in mlp.parameters())]


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("output_activation", sorted(_ACTIVATIONS))
@pytest.mark.parametrize("activation", sorted(_ACTIVATIONS))
def test_node_equals_tensor_ops_bitwise(activation, output_activation, dropout):
    rng = np.random.default_rng(3)
    mlp = MLP(
        7,
        (6, 5),
        2,
        activation=activation,
        output_activation=output_activation,
        dropout=dropout,
        rng=1,
    )
    x_data = rng.normal(size=(11, 7)) * 3.0
    x_data[0, :3] = 0.0  # exact zeros reach the activations' boundaries
    upstream = rng.normal(size=(11, 2))
    draws = mlp.net.layers[2].rng.bit_generator.state if dropout else None

    got = _run(mlp, mlp, x_data, upstream)
    if draws is not None:
        mlp.net.layers[2].rng.bit_generator.state = draws
    want = _run(lambda x: mlp_tensor_ops(mlp, x), mlp, x_data, upstream)
    for a, b in zip(got, want):
        assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())


def test_node_without_input_gradient():
    # A constant input (the CVR design matrix) gets no gradient; the
    # parameters' still match the oracle.
    mlp = MLP(4, (3,), 1, rng=0)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
    mlp(x).sum().backward()
    got = [p.grad.copy() for p in mlp.parameters()]
    mlp.zero_grad()
    mlp_tensor_ops(mlp, x).sum().backward()
    assert x.grad is None
    assert all(a.tobytes() == p.grad.tobytes() for a, p in zip(got, mlp.parameters()))


def test_no_grad_records_no_tape():
    mlp = MLP(4, (3,), 1, dropout=0.2, rng=0)
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    with no_grad():
        out = mlp(x)
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()


def test_one_node_per_call():
    mlp = MLP(4, (3, 3), 1, rng=0)
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    out = mlp(x)
    assert out._parents[0] is x
    assert set(map(id, out._parents[1:])) == set(map(id, mlp.parameters()))
