"""Reverse-mode automatic differentiation over numpy arrays.

This is the neural-network substrate of the reproduction: the paper's
models were trained on Alibaba's internal deep-learning stack, which we
replace with a small, well-tested autograd engine.  A :class:`Tensor`
wraps a ``numpy.ndarray`` and records the operations applied to it; a
call to :meth:`Tensor.backward` walks the recorded graph in reverse
topological order and accumulates gradients.

Broadcasting follows numpy semantics; gradients flowing into a
broadcast operand are summed over the broadcast axes so shapes always
match the forward values.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph recording (inference mode)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _as_array(value: "Tensor | np.ndarray | float | int | list") -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 before broadcasting.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable numpy array.

    Parameters
    ----------
    data:
        Array-like forward value; stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: "np.ndarray | float | int | list | Tensor",
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying forward value (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{flag}{label})"

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`.

        ``owned=True`` promises the caller created ``grad`` exclusively
        for this call (a fresh temporary no one else references), so it
        can be adopted without the defensive ``astype(..., copy=True)``.
        Views of another tensor's gradient and caller-supplied arrays
        must keep ``owned=False`` or later in-place accumulation would
        corrupt them.
        """
        if self.grad is None:
            if owned and grad.dtype == np.float64:
                self.grad = grad
            else:
                self.grad = grad.astype(np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        owned = False
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    "scalar tensor"
                )
            grad = np.ones_like(self.data)
            owned = True
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()
            owned = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad, owned=owned)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = _unbroadcast(grad, self.data.shape)
                # An identity unbroadcast passes the child's own gradient
                # array through; adopting it would alias sibling grads.
                self._accumulate(g, owned=g is not grad)
            if other_t.requires_grad:
                g = _unbroadcast(grad, other_t.data.shape)
                other_t._accumulate(g, owned=g is not grad)

        return Tensor._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        # A single fused node (not neg + add): one graph node and no
        # intermediate -other temporary on the forward pass.
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = _unbroadcast(grad, self.data.shape)
                self._accumulate(g, owned=g is not grad)
            if other_t.requires_grad:
                other_t._accumulate(-_unbroadcast(grad, other_t.data.shape), owned=True)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: "float | np.ndarray") -> "Tensor":
        return Tensor(_as_array(other)) - self

    def __mul__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad * other_t.data, self.data.shape), owned=True
                )
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(grad * self.data, other_t.data.shape), owned=True
                )

        return Tensor._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad / other_t.data, self.data.shape), owned=True
                )
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data**2), other_t.data.shape),
                    owned=True,
                )

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: "float | np.ndarray") -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor | np.ndarray") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data @ other_t.data

        # Gradients are implemented per dimensionality case; the 1-D edge
        # cases of a generic formulation are too subtle to trust untested.
        a_nd, b_nd = self.data.ndim, other_t.data.ndim
        if a_nd == 2 and b_nd == 2:

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(grad @ other_t.data.T, owned=True)
                if other_t.requires_grad:
                    other_t._accumulate(self.data.T @ grad, owned=True)

        elif a_nd == 2 and b_nd == 1:

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(np.outer(grad, other_t.data), owned=True)
                if other_t.requires_grad:
                    other_t._accumulate(self.data.T @ grad, owned=True)

        elif a_nd == 1 and b_nd == 2:

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(other_t.data @ grad, owned=True)
                if other_t.requires_grad:
                    other_t._accumulate(np.outer(self.data, grad), owned=True)

        elif a_nd == 1 and b_nd == 1:

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(grad * other_t.data, owned=True)
                if other_t.requires_grad:
                    other_t._accumulate(grad * self.data, owned=True)

        elif a_nd == 3 and b_nd == 3:

            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(
                        _unbroadcast(grad @ other_t.data.swapaxes(-1, -2), self.data.shape),
                        owned=True,
                    )
                if other_t.requires_grad:
                    other_t._accumulate(
                        _unbroadcast(self.data.swapaxes(-1, -2) @ grad, other_t.data.shape),
                        owned=True,
                    )

        else:
            raise ValueError(
                f"matmul between ndim {a_nd} and ndim {b_nd} is not supported"
            )

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                g = np.expand_dims(g, tuple(a % self.data.ndim for a in axes))
            self._accumulate(np.broadcast_to(g, self.data.shape).copy(), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = self.data == out
            # Split gradient evenly among ties so the op stays well defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _sigmoid(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, negative_slope), owned=True)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data > low) & (self.data < high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign, owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out_data = self.data.transpose(axes)
        if axes is None:
            inverse: tuple[int, ...] | None = None
        else:
            inverse = tuple(int(np.argsort(axes)[i]) for i in range(len(axes)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index: object) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows by integer indices (embedding lookup).

        Duplicated indices accumulate gradients, matching embedding-table
        semantics.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out_data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_scatter_rows(idx, grad, self.data.shape), owned=True)

        return Tensor._make(out_data, (self,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable piecewise sigmoid."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, -500, None))),
                    np.exp(np.clip(x, None, 500)) / (1.0 + np.exp(np.clip(x, None, 500))))


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``np.add.at(np.zeros(shape), idx, rows)`` as one flat ``np.bincount``.

    ``bincount`` adds each weight into its bin in input order — the same
    sequential order ``np.add.at`` uses — so the result is bitwise equal,
    at a fraction of the cost of the ``ufunc.at`` loop.
    """
    n = shape[0]
    width = int(np.prod(shape[1:], dtype=np.int64))
    idx = np.where(idx < 0, idx + n, idx)
    flat = (idx[:, None] * width + np.arange(width)).reshape(-1)
    summed = np.bincount(flat, weights=rows.reshape(-1), minlength=n * width)
    return summed.reshape(shape)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (the CONCAT of Eqs. 3–4)."""
    ts = list(tensors)
    if not ts:
        raise ValueError("concat() requires at least one tensor")
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(ts, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            slicer: list[slice] = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, ts, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    ts = list(tensors)
    if not ts:
        raise ValueError("stack() requires at least one tensor")
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.moveaxis(grad, axis, 0)
        for t, piece in zip(ts, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(out_data, ts, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select; ``condition`` is a constant boolean array."""
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.data.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.data.shape), owned=True)

    return Tensor._make(out_data, (a, b), backward)


# Attach the module-level helpers to Tensor for discoverability.
Tensor.concat = staticmethod(concat)  # type: ignore[attr-defined]
Tensor.stack = staticmethod(stack)  # type: ignore[attr-defined]
