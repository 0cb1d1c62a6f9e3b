"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small engine: dense float64 arrays, dynamic graphs, and the
operation set an MLP regressor needs (affine maps, elementwise arithmetic,
ReLU/Tanh, reductions, Huber/absolute-value pieces).  Gradients flow to any
leaf with ``requires_grad=True``, including network inputs.  Phase 2's
mapping gradients use the graph-free :meth:`repro.nn.layers.MLP.input_gradient`,
which evaluates the same expressions and matches this engine bit for bit.

Broadcasting follows numpy semantics; backward passes un-broadcast by
summing over the broadcast axes, so bias vectors and scalar constants
compose naturally.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence[float]]

# Thread-local so concurrent engine workers (repro.engine.map_batch) can mix
# inference (no_grad) and gradient computation without corrupting each other.
_GRAD_STATE = threading.local()

# Gradient accumulation is the one place concurrent backward passes touch
# shared state: leaf parameters of a shared network receive `grad += g`
# from every thread.  One lock makes the check-then-act + in-place add
# atomic; the expensive gradient *computation* stays outside it.
_ACCUMULATE_LOCK = threading.Lock()


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the block (inference mode)."""
    previous = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(gradient: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``gradient`` back to ``shape`` by summing broadcast axes."""
    if gradient.shape == shape:
        return gradient
    # Sum leading axes added by broadcasting.
    extra = gradient.ndim - len(shape)
    if extra > 0:
        gradient = gradient.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original shape.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and gradient.shape[i] != 1)
    if axes:
        gradient = gradient.sum(axis=axes, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A node in the autograd graph wrapping a float64 numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _grad_enabled()
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # ---- basic introspection -------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same data outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ---- graph construction helpers --------------------------------------

    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _accumulate(self, gradient: np.ndarray) -> None:
        gradient = _unbroadcast(np.asarray(gradient, dtype=np.float64), self.data.shape)
        with _ACCUMULATE_LOCK:
            if self.grad is None:
                self.grad = gradient.copy()
            else:
                self.grad += gradient

    # ---- arithmetic --------------------------------------------------------

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data
        needs = self.requires_grad or other.requires_grad

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient)
            if other.requires_grad:
                other._accumulate(gradient)

        return Tensor(out_data, needs, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(gradient: np.ndarray) -> None:
            self._accumulate(-gradient)

        return Tensor(-self.data, self.requires_grad, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data
        needs = self.requires_grad or other.requires_grad

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient * other.data)
            if other.requires_grad:
                other._accumulate(gradient * self.data)

        return Tensor(out_data, needs, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data
        needs = self.requires_grad or other.requires_grad

        def backward(gradient: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(gradient / other.data)
            if other.requires_grad:
                other._accumulate(-gradient * self.data / (other.data**2))

        return Tensor(out_data, needs, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * exponent * self.data ** (exponent - 1))

        return Tensor(out_data, self.requires_grad, (self,), backward)

    # ---- linear algebra -----------------------------------------------------

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data
        needs = self.requires_grad or other.requires_grad

        def backward(gradient: np.ndarray) -> None:
            gradient = np.asarray(gradient, dtype=np.float64)
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(gradient, other.data) if gradient.ndim else gradient * other.data)
                else:
                    grad_self = gradient @ other.data.T
                    self._accumulate(grad_self)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, gradient))
                else:
                    other._accumulate(self.data.T @ gradient)

        return Tensor(out_data, needs, (self, other), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    # ---- shaping --------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original = self.data.shape

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient.reshape(original))

        return Tensor(out_data, self.requires_grad, (self,), backward)

    def select(self, index: int, axis: int = -1) -> "Tensor":
        """Select one slice along ``axis`` (differentiable indexing)."""
        out_data = np.take(self.data, index, axis=axis)

        def backward(gradient: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            slicer: List[Union[slice, int]] = [slice(None)] * self.data.ndim
            slicer[axis] = index
            full[tuple(slicer)] = gradient
            self._accumulate(full)

        return Tensor(out_data, self.requires_grad, (self,), backward)

    # ---- nonlinearities ----------------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * mask)

        return Tensor(out_data, self.requires_grad, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * (1.0 - out_data**2))

        return Tensor(out_data, self.requires_grad, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * out_data * (1.0 - out_data))

        return Tensor(out_data, self.requires_grad, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * sign)

        return Tensor(out_data, self.requires_grad, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data > low) & (self.data < high)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * mask)

        return Tensor(out_data, self.requires_grad, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient * out_data)

        return Tensor(out_data, self.requires_grad, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(gradient: np.ndarray) -> None:
            self._accumulate(gradient / self.data)

        return Tensor(out_data, self.requires_grad, (self,), backward)

    # ---- reductions -----------------------------------------------------------

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        out_data = self.data.sum(axis=axis)

        def backward(gradient: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(gradient, self.data.shape))
            else:
                expanded = np.expand_dims(gradient, axis=axis)
                self._accumulate(np.broadcast_to(expanded, self.data.shape))

        return Tensor(out_data, self.requires_grad, (self,), backward)

    def mean(self, axis: Optional[int] = None) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # ---- combination -----------------------------------------------------------

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        """Concatenate tensors along ``axis`` (differentiable)."""
        if not tensors:
            raise ValueError("concat needs at least one tensor")
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        needs = any(t.requires_grad for t in tensors)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(gradient: np.ndarray) -> None:
            pieces = np.split(gradient, np.cumsum(sizes)[:-1], axis=axis)
            for tensor, piece in zip(tensors, pieces):
                if tensor.requires_grad:
                    tensor._accumulate(piece)

        return Tensor(out_data, needs, tuple(tensors), backward)

    # ---- backward pass ---------------------------------------------------------

    def backward(self, gradient: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor to every reachable leaf.

        Scalar tensors default to a seed gradient of 1; non-scalars require
        an explicit ``gradient`` of matching shape.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("backward() on non-scalar requires a gradient")
            gradient = np.ones_like(self.data)
        self._accumulate(np.asarray(gradient, dtype=np.float64))

        ordered: List[Tensor] = []
        visited: Set[int] = set()

        def topo(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                topo(parent)
            ordered.append(node)

        topo(self)
        for node in reversed(ordered):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


__all__ = ["ArrayLike", "Tensor", "no_grad"]
