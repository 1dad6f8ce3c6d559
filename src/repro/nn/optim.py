"""First-order optimisers for :class:`repro.nn.layers.Parameter` lists.

An optimiser packs its parameters into one contiguous buffer: each
``p.data`` becomes a view of it, and a matching buffer receives each
step's gradients, so an update, the gradient clip and the L2 penalty's
gradient are each one vectorised pass into preallocated scratch.  Every
pass does the per-parameter arithmetic of the textbook update in the same
order, so the bytes are those of updating one parameter at a time.  The
buffers and the update arithmetic are in the parameters' dtype.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "AdaGrad", "clip_grad_norm", "build_optimizer"]


class Optimizer:
    """Base optimiser over a fixed parameter list, packed flat."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter is listed more than once")
        self._index = {id(p): i for i, p in enumerate(self.params)}
        self.lr = lr
        self.weight_decay = weight_decay
        bounds = np.cumsum([0, *(p.data.size for p in self.params)]).tolist()
        self._spans = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        # The buffers take the parameters' dtype, so float32 parameters
        # update in float32 with no wider temporary.
        dtype = np.result_type(np.float32, *(p.data.dtype for p in self.params))
        self._flat = np.concatenate([np.zeros(0, dtype), *(p.data.ravel() for p in self.params)])
        for p, span in zip(self.params, self._spans):
            # The one sanctioned .data write: the parameter becomes a view
            # of the packed buffer, same values and shape.
            p.data = self._flat[span].reshape(p.data.shape)  # repro-lint: disable=RPR401
        self._grads = np.zeros_like(self._flat)
        self._grad_views = [
            self._grads[span].reshape(p.data.shape) for p, span in zip(self.params, self._spans)
        ]
        self._scratch = np.empty((2, len(self._flat)), dtype=dtype)
        self._held: list[np.ndarray] = []

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _gather(self) -> list[slice]:
        """Move this step's gradients into the gradient buffer (each
        ``p.grad`` becomes its view) and return the buffer spans of the
        parameters that received one, adjacent ones merged.  A parameter
        without a gradient is skipped by every update.

        The arrays the backward pass made are held until the next step's
        are gathered.  They sit near the top of the heap, above the step's
        graph; freeing them with it lets the allocator hand the heap top
        back to the OS after every step and fault it in again on the next
        (a 5-epoch, 3-level ``HiGNN.fit`` took ~3x the minor page faults).
        """
        runs: list[slice] = []
        held = []
        for p, span, view in zip(self.params, self._spans, self._grad_views):
            if p.grad is None:
                continue
            if p.grad is not view:
                np.copyto(view, p.grad)
                held.append(p.grad)
                p.grad = view
            if runs and runs[-1].stop == span.start:
                runs[-1] = slice(runs[-1].start, span.stop)
            else:
                runs.append(span)
        if held:
            self._held = held
        return runs

    def _grad(self, span: slice) -> np.ndarray:
        if self.weight_decay:
            return self._grads[span] + self.weight_decay * self._flat[span]
        return self._grads[span]

    def clip_grad_norm(self, max_norm: float) -> float:
        """:func:`clip_grad_norm` over this optimiser's parameters, with
        one scaling pass over the gradient buffer."""
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        runs = self._gather()
        norm = _grad_norm([p.grad for p in self.params if p.grad is not None])
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for span in runs:
                self._grads[span] *= scale
        return norm

    def l2_penalty(self, params: list[Tensor], coefficient: float) -> float:
        """Add the gradient of ``0.5 * c * sum ||p||^2`` over ``params``
        to the gradient buffer, after the loss's backward pass, and return
        the penalty.

        ``params`` must be a contiguous run of this optimiser's
        parameters.  Penalty and gradients are bitwise those of adding
        :func:`repro.nn.losses.l2_penalty` to the loss: per-parameter sums
        in order, and each gradient grows by ``c/2 * p`` twice after the
        loss's own contributions.
        """
        if coefficient < 0:
            raise ValueError("coefficient must be non-negative")
        if not params:
            return 0.0
        first = self._index.get(id(params[0]), len(self.params))
        run = self.params[first : first + len(params)]
        if len(run) != len(params) or any(a is not b for a, b in zip(run, params)):
            raise ValueError("params must be a contiguous run of the optimiser's parameters")
        self._gather()
        total = None
        for j, p in enumerate(params):
            term = (p.data * p.data).sum()
            total = term if total is None else total + term
            if p.grad is None:  # -0.0 is the additive identity: x + -0.0 == x
                view = self._grad_views[first + j]
                view.fill(-0.0)
                p.grad = view
        k = 0.5 * coefficient
        span = slice(self._spans[first].start, self._spans[first + len(params) - 1].stop)
        kp = np.multiply(self._flat[span], k, out=self._scratch[0, span])
        self._grads[span] += kp
        self._grads[span] += kp
        return float(total * k)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = np.zeros_like(self._flat)

    def step(self) -> None:
        for span in self._gather():
            g, t = self._grad(span), self._scratch[0, span]
            if self.momentum:
                v = self._velocity[span]
                v *= self.momentum
                v += g
                g = v
            self._flat[span] -= np.multiply(g, self.lr, out=t)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, weight_decay)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.betas = betas
        self.eps = eps
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for span in self._gather():
            g, m, v = self._grad(span), self._m[span], self._v[span]
            t1, t2 = self._scratch[0, span], self._scratch[1, span]
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=t1)
            v *= b2
            np.multiply(g, 1.0 - b2, out=t1)
            v += np.multiply(t1, g, out=t1)  # (1 - b2) * g * g
            np.divide(m, bias1, out=t1)  # m_hat
            np.divide(v, bias2, out=t2)  # v_hat
            np.sqrt(t2, out=t2)
            t2 += self.eps
            t1 *= self.lr
            self._flat[span] -= np.divide(t1, t2, out=t1)


class AdaGrad(Optimizer):
    """AdaGrad; well suited to the sparse embedding-table gradients here."""

    def __init__(
        self,
        params: list[Tensor],
        lr: float = 1e-2,
        eps: float = 1e-10,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, weight_decay)
        self.eps = eps
        self._accum = np.zeros_like(self._flat)

    def step(self) -> None:
        for span in self._gather():
            g, acc = self._grad(span), self._accum[span]
            t1, t2 = self._scratch[0, span], self._scratch[1, span]
            acc += np.multiply(g, g, out=t1)
            np.sqrt(acc, out=t2)
            t2 += self.eps
            np.multiply(g, self.lr, out=t1)
            self._flat[span] -= np.divide(t1, t2, out=t1)


def _grad_norm(grads: list[np.ndarray]) -> float:
    """Global L2 norm, squared sums added per gradient in list order."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g**2))
    return float(np.sqrt(total))


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    grads = [p.grad for p in params if p.grad is not None]
    norm = _grad_norm(grads)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def build_optimizer(
    name: str, params: list[Tensor], lr: float, weight_decay: float = 0.0
) -> Optimizer:
    """Factory used by the training configs (``adam`` | ``sgd`` | ``adagrad``)."""
    name = name.lower()
    if name == "adam":
        return Adam(params, lr=lr, weight_decay=weight_decay)
    if name == "sgd":
        return SGD(params, lr=lr, weight_decay=weight_decay)
    if name == "adagrad":
        return AdaGrad(params, lr=lr, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer {name!r}")
