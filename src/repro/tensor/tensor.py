"""Core reverse-mode autograd ``Tensor``.

Design: a thin wrapper around ``numpy.ndarray`` carrying

- ``data``: the value (always ``float64`` for numeric stability of the
  gradient checks, unless an integer array is wrapped for indices),
- ``grad``: accumulated gradient of the same shape,
- ``requires_grad`` and the recorded backward closure.

The graph is built eagerly by the ops in :mod:`repro.tensor.functional`
(and the operator overloads below, which delegate there).  ``backward()``
topologically sorts the graph and applies the chain rule.

The engine is deliberately explicit — no tape object, no global state other
than the ``no_grad`` switch — so that it is easy to audit in tests.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (like ``torch.no_grad``)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    """Return whether new ops will be recorded on the autograd graph."""
    return _GRAD_ENABLED[-1]


def _as_array(value: ArrayLike) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype == np.float64:
        # the serving hot path wraps float64 ndarrays on every op: return
        # them untouched instead of paying an astype round trip per node
        return arr
    if arr.dtype.kind in "fc":
        return arr.astype(np.float64)
    if arr.dtype.kind in "iub":
        return arr
    raise TypeError(f"unsupported dtype for Tensor: {arr.dtype}")


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting.

    Broadcasting replicates values; its transpose (what the chain rule
    needs) sums the replicated positions back together.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A value in the autograd graph.

    Parameters
    ----------
    data:
        Array-like payload.  Floats become float64; integer arrays are kept
        as-is (used for token indices / labels) and can never require grad.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        if requires_grad and self.data.dtype.kind not in "fc":
            raise ValueError("integer tensors cannot require grad")
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        from repro.tensor import functional as F

        return F.transpose(self)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{grad_flag}{label})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = self._topo_order()
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topo_order(self) -> list:
        order: list = []
        visited: set = set()
        stack: list = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # operator overloads (delegate to functional)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.tensor import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.tensor import functional as F

        return F.sub(self, other)

    def __rsub__(self, other):
        from repro.tensor import functional as F

        return F.sub(other, self)

    def __mul__(self, other):
        from repro.tensor import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.tensor import functional as F

        return F.div(self, other)

    def __rtruediv__(self, other):
        from repro.tensor import functional as F

        return F.div(other, self)

    def __neg__(self):
        from repro.tensor import functional as F

        return F.mul(self, -1.0)

    def __pow__(self, exponent):
        from repro.tensor import functional as F

        return F.power(self, exponent)

    def __matmul__(self, other):
        from repro.tensor import functional as F

        return F.matmul(self, other)

    def __getitem__(self, idx):
        from repro.tensor import functional as F

        return F.getitem(self, idx)

    # ------------------------------------------------------------------
    # method conveniences
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from repro.tensor import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.tensor import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        from repro.tensor import functional as F

        return F.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.tensor import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, *axes):
        from repro.tensor import functional as F

        if len(axes) == 0:
            axes = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return F.transpose(self, axes)

    def swapaxes(self, a: int, b: int):
        from repro.tensor import functional as F

        return F.swapaxes(self, a, b)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Factory mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Coerce array-likes to :class:`Tensor`, passing tensors through."""
    return value if isinstance(value, Tensor) else Tensor(value)
