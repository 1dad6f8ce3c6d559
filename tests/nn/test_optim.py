"""Optimisers: convergence on known problems and bookkeeping."""

import numpy as np
import pytest

from repro.nn.layers import MLP, Parameter
from repro.nn.losses import l2_penalty
from repro.nn.optim import SGD, Adam, AdaGrad, build_optimizer, clip_grad_norm
from repro.nn.tensor import Tensor


def _quadratic_loss(p: Tensor) -> Tensor:
    # f(p) = ||p - 3||^2, minimum at 3.
    diff = p - 3.0
    return (diff * diff).sum()


def _run(optimizer_factory, steps=300):
    p = Parameter(np.zeros(4))
    opt = optimizer_factory([p])
    for _ in range(steps):
        opt.zero_grad()
        _quadratic_loss(p).backward()
        opt.step()
    return p.data


class TestConvergence:
    def test_sgd(self):
        assert np.allclose(_run(lambda ps: SGD(ps, lr=0.1)), 3.0, atol=1e-3)

    def test_sgd_momentum(self):
        assert np.allclose(_run(lambda ps: SGD(ps, lr=0.05, momentum=0.9)), 3.0, atol=1e-3)

    def test_adam(self):
        assert np.allclose(_run(lambda ps: Adam(ps, lr=0.1)), 3.0, atol=1e-2)

    def test_adagrad(self):
        assert np.allclose(_run(lambda ps: AdaGrad(ps, lr=1.0), steps=800), 3.0, atol=1e-2)


class TestMechanics:
    def test_none_grad_skipped(self):
        p = Parameter(np.ones(3))
        before = p.data.copy()
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, before)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.ones(3) * 10)
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(3)
        opt.step()
        assert np.all(p.data < 10)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(1))], lr=0.0)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(1))], lr=0.1, momentum=1.5)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], betas=(1.0, 0.999))

    def test_adam_bias_correction_first_step(self):
        # After one step with constant gradient g, Adam moves by ~lr.
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([5.0])
        opt.step()
        assert p.data[0] == pytest.approx(-0.01, rel=1e-3)


class TestClip:
    def test_clip_reduces_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.ones(4) * 10  # norm 20
        norm = clip_grad_norm([p], 5.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)

    def test_clip_noop_below_threshold(self):
        p = Parameter(np.zeros(4))
        p.grad = np.ones(4) * 0.1
        clip_grad_norm([p], 5.0)
        assert np.allclose(p.grad, 0.1)

    def test_clip_invalid(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], 0.0)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [("adam", Adam), ("sgd", SGD), ("adagrad", AdaGrad)])
    def test_build(self, name, cls):
        opt = build_optimizer(name, [Parameter(np.ones(1))], lr=0.1)
        assert isinstance(opt, cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_optimizer("lbfgs", [], lr=0.1)


def _mlp_loss(model, seed=0):
    x = np.random.default_rng(seed).normal(size=(6, 4))
    return (model(Tensor(x)) ** 2.0).sum()


class TestFlatParameters:
    def test_parameters_are_views_of_one_buffer(self):
        model = MLP(4, (3,), 2, rng=0)
        before = [p.data.copy() for p in model.parameters()]
        opt = Adam(model.parameters())
        for p, want in zip(model.parameters(), before):
            assert np.shares_memory(p.data, opt._flat)
            assert p.data.tobytes() == want.tobytes()

    def test_duplicate_parameter_rejected(self):
        p = Parameter(np.ones(2))
        with pytest.raises(ValueError):
            SGD([p, p], lr=0.1)

    def test_load_state_dict_keeps_the_optimizer_view(self):
        # Loading after the optimiser packed the parameters must update
        # the packed values, not detach the parameters from the buffer.
        source = MLP(4, (3,), 2, rng=5)
        model = MLP(4, (3,), 2, rng=0)
        opt = Adam(model.parameters(), lr=0.1)
        model.load_state_dict(source.state_dict())
        opt.zero_grad()
        _mlp_loss(model).backward()
        opt.step()

        fresh = MLP(4, (3,), 2, rng=5)
        fresh_opt = Adam(fresh.parameters(), lr=0.1)
        fresh_opt.zero_grad()
        _mlp_loss(fresh).backward()
        fresh_opt.step()
        for p, want in zip(model.parameters(), fresh.parameters()):
            assert np.shares_memory(p.data, opt._flat)
            assert p.data.tobytes() == want.data.tobytes()

    def test_l2_penalty_equals_tensor_penalty_bitwise(self):
        ref = MLP(4, (3,), 2, rng=2)
        ref_opt = Adam(ref.parameters())
        loss = _mlp_loss(ref)
        total = loss + l2_penalty(ref.parameters(), 0.3)
        ref_opt.zero_grad()
        total.backward()

        model = MLP(4, (3,), 2, rng=2)
        opt = Adam(model.parameters())
        loss = _mlp_loss(model)
        opt.zero_grad()
        loss.backward()
        value = loss.item() + opt.l2_penalty(opt.params, 0.3)
        assert value.hex() == total.item().hex()
        for p, q in zip(model.parameters(), ref.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes()

    def test_l2_penalty_on_a_parameter_without_gradient(self):
        used, unused = Parameter(np.array([1.5, -2.0])), Parameter(np.array([0.25, -0.0]))
        opt = SGD([used, unused], lr=0.1)
        (used * used).sum().backward()
        opt.l2_penalty([used, unused], 0.5)
        ref = Parameter(unused.data.copy())
        (ref * ref).sum().__mul__(0.25).backward()
        assert unused.grad.tobytes() == ref.grad.tobytes()

    def test_l2_penalty_needs_a_contiguous_run(self):
        a, b, c = (Parameter(np.ones(2)) for _ in range(3))
        opt = SGD([a, b, c], lr=0.1)
        with pytest.raises(ValueError):
            opt.l2_penalty([a, c], 0.1)
        with pytest.raises(ValueError):
            opt.l2_penalty([Parameter(np.ones(2))], 0.1)

    def test_clip_method_equals_free_function(self):
        grads = [np.full((2, 2), 3.0), np.array([4.0, -1.0])]
        free = [Parameter(np.zeros(g.shape)) for g in grads]
        packed = [Parameter(np.zeros(g.shape)) for g in grads]
        opt = SGD(packed, lr=0.1)
        for p, q, g in zip(free, packed, grads):
            p.grad, q.grad = g.copy(), g.copy()
        assert opt.clip_grad_norm(2.0) == clip_grad_norm(free, 2.0)
        for p, q in zip(free, packed):
            assert p.grad.tobytes() == q.grad.tobytes()

    @pytest.mark.parametrize("name", ["adam", "sgd", "adagrad"])
    def test_parameter_without_gradient_is_skipped(self, name):
        live, dead = Parameter(np.ones(3)), Parameter(np.full(2, 5.0))
        alone = Parameter(np.ones(3))
        opt = build_optimizer(name, [dead, live], lr=0.1)
        ref = build_optimizer(name, [alone], lr=0.1)
        for _ in range(3):
            opt.zero_grad()
            ref.zero_grad()
            _quadratic_loss(live).backward()
            _quadratic_loss(alone).backward()
            opt.step()
            ref.step()
        assert dead.data.tolist() == [5.0, 5.0]
        assert live.data.tobytes() == alone.data.tobytes()
