"""Neural-network modules built on :mod:`repro.nn.tensor`.

The module system mirrors the familiar torch-style API at a much smaller
scale: a :class:`Module` owns named :class:`Parameter` tensors and child
modules, and ``parameters()`` walks the tree.  Only the layers the HiGNN
reproduction needs are provided.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import init as _init
from repro.nn.tensor import Tensor, _sigmoid, is_grad_enabled
from repro.utils.rng import ensure_rng

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "MLP",
    "Embedding",
    "Dropout",
    "Sequential",
    "Activation",
]


class Parameter(Tensor):
    """A tensor registered as trainable state of a module."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically by :meth:`parameters`
    and :meth:`named_parameters`.
    """

    def __init__(self) -> None:
        self.training = True

    # -- state traversal ------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs in definition order.

        Each parameter object is yielded once even when a module is
        shared under several attributes (e.g. the shared-space GraphSAGE
        variant registers one Linear on both sides) — otherwise
        optimisers would apply duplicate updates.
        """
        seen: set[int] = set()
        for name, param in self._named_parameters_impl(prefix):
            if id(param) in seen:
                continue
            seen.add(id(param))
            yield name, param

    def _named_parameters_impl(
        self, prefix: str = ""
    ) -> Iterator[tuple[str, Parameter]]:
        for key, value in vars(self).items():
            if key == "training":
                continue
            full = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value._named_parameters_impl(full)
            elif isinstance(value, (list, tuple)):
                for i, element in enumerate(value):
                    if isinstance(element, Parameter):
                        yield f"{full}.{i}", element
                    elif isinstance(element, Module):
                        yield from element._named_parameters_impl(f"{full}.{i}")
            elif isinstance(value, dict):
                for k, element in value.items():
                    if isinstance(element, Parameter):
                        yield f"{full}.{k}", element
                    elif isinstance(element, Module):
                        yield from element._named_parameters_impl(f"{full}.{k}")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the first parameter: the compute dtype that the
        model casts its inputs to."""
        for _, p in self._named_parameters_impl():
            return p.data.dtype
        raise ValueError(f"{type(self).__name__} has no parameters")

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- train/eval mode -------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def _children(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for element in value:
                    if isinstance(element, Module):
                        yield element
            elif isinstance(value, dict):
                for element in value.values():
                    if isinstance(element, Module):
                        yield element

    # -- state dict ------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays produced by :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, array in state.items():
            if own[name].data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected "
                    f"{own[name].data.shape}, got {array.shape}"
                )
            # In place: a parameter packed by an optimiser stays a view of
            # its buffer, so the loaded values are the ones it updates.
            np.copyto(own[name].data, array)

    def __call__(self, *args: object, **kwargs: object) -> Tensor:
        return self.forward(*args, **kwargs)

    def forward(self, *args: object, **kwargs: object) -> Tensor:
        raise NotImplementedError


_ACTIVATIONS = {
    "relu": lambda x: x.relu(),
    "leaky_relu": lambda x: x.leaky_relu(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "identity": lambda x: x,
}


class Activation(Module):
    """A named activation function as a module."""

    def __init__(self, name: str) -> None:
        super().__init__()
        if name not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
            )
        self.name_ = name

    def forward(self, x: Tensor) -> Tensor:
        return _ACTIVATIONS[self.name_](x)


class Linear(Module):
    """Affine map ``y = x W + b``.

    ``W`` has shape ``(in_features, out_features)`` and is Xavier-uniform
    initialised; ``b`` starts at zero and can be disabled.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        rng = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _init.xavier_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = Parameter(_init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode or at rate 0."""

    def __init__(self, rate: float = 0.5, rng: int | np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = ensure_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        return x * _dropout_mask(self, x.shape, x.data.dtype)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    The paper's prediction head uses fully connected sizes 256/128/64 with
    Leaky ReLU (Section IV-B-2); this class is also the similarity head
    ``f`` of Eq. 5 / Eq. 12.
    """

    def __init__(
        self,
        in_features: int,
        hidden: tuple[int, ...],
        out_features: int,
        activation: str = "leaky_relu",
        output_activation: str = "identity",
        dropout: float = 0.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        sizes = [in_features, *hidden, out_features]
        layers: list[Module] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(fan_in, fan_out, rng=rng))
            last = i == len(sizes) - 2
            layers.append(Activation(output_activation if last else activation))
            if dropout > 0.0 and not last:
                layers.append(Dropout(dropout, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return _mlp_node(x, self.net.layers)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        std: float = 0.01,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("Embedding dimensions must be positive")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            _init.normal((num_embeddings, embedding_dim), std, ensure_rng(rng)),
            name="embedding",
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})"
            )
        return self.weight.gather_rows(idx)


def _leaky_relu_(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # max(z, 0.01 z) is z where z > 0 and 0.01 z elsewhere, -0.0 included,
    # without np.where's per-element branch.
    out = np.maximum(z, z * 0.01, out=z)
    return out, out


def _dropout_mask(layer: "Dropout", shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Inverted-dropout scale factors in ``dtype``, from the layer's generator."""
    keep = 1.0 - layer.rate
    return ((layer.rng.random(shape) < keep) / keep).astype(dtype, copy=False)


def _leaky_relu_backward_(g: np.ndarray, out: np.ndarray) -> None:
    # out > 0 exactly where z > 0; 0.99 + 0.01 rounds to 1.0 (in float32
    # and float64), so the factor is 1 where z > 0 and 0.01 elsewhere,
    # Tensor.leaky_relu's factors, in g's dtype.
    factor = np.multiply(out > 0, 0.99, dtype=g.dtype)
    factor += 0.01
    g *= factor


def _relu_(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = z > 0
    z *= mask
    return z, mask


def _tanh_(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out = np.tanh(z, out=z)
    return out, out


def _sigmoid_(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    out = _sigmoid(z)
    return out, out


# In-place array forms of _ACTIVATIONS for the fused MLP node: a forward
# overwrites (or replaces) its pre-activation and returns (output, saved);
# a backward scales the gradient in place from what was saved.  Each does
# the Tensor op's float operations (leaky_relu's backward multiplies by
# 1.0 where positive, which is exact).
_ARRAY_ACTIVATIONS = {
    "relu": (_relu_, lambda g, mask: np.multiply(g, mask, out=g)),
    "leaky_relu": (_leaky_relu_, _leaky_relu_backward_),
    "tanh": (_tanh_, lambda g, out: np.multiply(g, 1.0 - out**2, out=g)),
    "sigmoid": (
        _sigmoid_,
        lambda g, out: np.multiply(np.multiply(g, out, out=g), 1.0 - out, out=g),
    ),
    "identity": (lambda z: (z, None), None),
}


def _stack_forward(h: np.ndarray, layers: list[Module], record: bool) -> tuple[np.ndarray, list]:
    """Run ``Linear``, ``Activation`` and ``Dropout`` layers over ``h`` in
    numpy, bias adds and activations in place; returns the output and,
    if ``record``, the tape :func:`_stack_backward` reads.

    Tape entry 0 stands for the input: an activation (or dropout) before
    the first ``Linear`` applies to ``h`` itself, a pre-activation the
    caller computed.
    """
    tape = [[None, None, "identity", None, None]]  # [layer, input, activation, saved, mask]
    for layer in layers:
        if isinstance(layer, Linear):
            entry = [layer, h, "identity", None, None]
            h = h @ layer.weight.data
            if layer.bias is not None:
                h += layer.bias.data
            if record:
                tape.append(entry)
        elif isinstance(layer, Activation):
            h, saved = _ARRAY_ACTIVATIONS[layer.name_][0](h)
            if record:
                tape[-1][2:4] = layer.name_, saved
        elif isinstance(layer, Dropout):
            if layer.training and layer.rate != 0.0:
                mask = _dropout_mask(layer, h.shape, h.dtype)
                h = h * mask
                if record:
                    tape[-1][4] = mask
        else:
            raise TypeError(f"MLP stack cannot hold {type(layer).__name__}")
    return h, tape


def _stack_backward(grad: np.ndarray, tape: list, input_grad: bool) -> np.ndarray | None:
    """The VJP of a recorded stack: accumulates each ``Linear``'s weight
    and bias gradients and returns the gradient of the stack's input
    (None unless ``input_grad``).  The floating-point operations are the
    composed Tensor ops' backward, in the same order."""
    g, owned = grad, False
    for i in range(len(tape) - 1, -1, -1):
        layer, inputs, activation, saved, mask = tape[i]
        if mask is not None or activation != "identity":
            if not owned:
                g, owned = g.copy(), True
            if mask is not None:
                g *= mask
            if activation != "identity":
                _ARRAY_ACTIVATIONS[activation][1](g, saved)
        if layer is None:
            break
        weight, bias = layer.weight, layer.bias
        if weight.requires_grad:
            weight._accumulate(inputs.T @ g, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0), owned=True)
        if i > 1 or input_grad:
            g, owned = g @ weight.data.T, True
    return g if input_grad else None


def _linear_params(layers: list[Module]) -> list[Parameter]:
    """The weights and biases of a stack's ``Linear`` layers, in order."""
    return [
        p
        for layer in layers
        if isinstance(layer, Linear)
        for p in (layer.weight, layer.bias)
        if p is not None
    ]


def _mlp_node(x: Tensor, layers: list[Module]) -> Tensor:
    """An MLP's ``Linear -> Activation [-> Dropout]`` stack as one
    autograd node.

    The forward runs the layer loop in numpy (:func:`_stack_forward`);
    the backward is the stack's hand-derived VJP (:func:`_stack_backward`).
    Both do the floating-point operations of the composed Tensor ops (the
    oracle in ``tests/oracles.py``) in the same order, and the dropout
    masks take the same draws, so outputs and gradients are bitwise
    equal.  Under ``no_grad()`` nothing is kept for a backward.
    """
    params = _linear_params(layers)
    record = is_grad_enabled() and (x.requires_grad or any(p.requires_grad for p in params))
    h, tape = _stack_forward(x.data, layers, record)

    def backward(grad: np.ndarray) -> None:
        g = _stack_backward(grad, tape, x.requires_grad)
        if x.requires_grad:
            x._accumulate(g, owned=True)

    return Tensor._make(h, (x, *params), backward)
