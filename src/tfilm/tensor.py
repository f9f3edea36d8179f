"""Dense float64 tensors with a reverse-mode autodiff tape.

A ``Tensor`` wraps a contiguous ``numpy`` array and records
the operations applied to it so that ``backward()`` can push gradients
to every leaf that was created with ``requires_grad=True``. The tape is
rebuilt on every forward pass; there is no retained graph. The array
is row-major, with one exception: conv weights (and their gradients)
are stored tap-major, Fortran-ordered, so that conv1d's GEMMs read
them in place (see :class:`tfilm.layers.Conv1dParams`). Code that
needs flat positions indexes logically, e.g. through
``np.unravel_index``, since ``reshape(-1)`` of such an array is a copy.

All computation is float64. Elementwise binary ops require identical
shapes (scalars are the only broadcast allowed).

Inside :func:`no_grad` ops record nothing: their outputs have no parents,
so a forward that nobody differentiates frees each intermediate as soon
as the next op has used it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import NonDivisibleLength, NonScalarRoot, NoTape, ShapeMismatch

__all__ = [
    "Tensor",
    "no_grad",
    "BlockTensor",
    "concat",
    "reshape_to_blocks",
    "reshape_from_blocks",
]


# whether ops record parents and backward closures; see no_grad
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block; the previous mode comes back on exit,
    also when the block raises. The mode is process-wide, not per thread."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_array(data):
    arr = np.asarray(data, dtype=np.float64)
    return np.ascontiguousarray(arr)


class Tensor:
    """A node in the computation graph.

    Attributes:
        data: the value, a contiguous float64 ndarray (row-major except
            for conv weights; see the module docstring).
        grad: accumulated gradient (same shape as ``data``) or None.
        requires_grad: whether backward should reach this node.
        name: optional diagnostic tag.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None

    @staticmethod
    def _from_op(data, parents, backward):
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    def accumulate_grad(self, g, copy=False):
        """Add ``g`` into ``.grad``.

        The first accumulation stores ``g`` itself, so ``g`` must be an
        array the caller allocated for this call. A backward closure that
        passes its incoming gradient, or a view of it, through sets
        ``copy=True``: that array is the child's ``.grad``.
        """
        if self.grad is None:
            convert = np.array if copy else np.asarray
            self.grad = convert(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    def zero_grad(self):
        self.grad = None

    # -- autodiff -------------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar root.

        Gradients accumulate into ``.grad`` of every reachable node with
        ``requires_grad``; call :meth:`zero_grad` between independent
        backward passes.

        Raises:
            NonScalarRoot: the root is not a scalar.
            NoTape: the root does not require grad, so no parameter is
                reachable: it was computed under :func:`no_grad` (as in an
                eval-mode forward) or from tensors that require no grad.
        """
        if self.data.size != 1:
            raise NonScalarRoot(f"backward root must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise NoTape(
                "backward root recorded no tape: it was computed under "
                "no_grad() (an eval-mode forward, say) or from tensors that "
                "require no grad"
            )
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic ----------------------------------------------

    def _binary(self, other, op, fwd, bwd_self, bwd_other):
        if isinstance(other, (int, float)):
            other_arr = float(other)
            data = fwd(self.data, other_arr)

            def backward(g, s=self, o=other_arr):
                if s.requires_grad:
                    gs = bwd_self(g, s.data, o)
                    s.accumulate_grad(gs, copy=gs is g)

            return Tensor._from_op(data, (self,), backward)
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(op, self.shape, other.shape)
        data = fwd(self.data, other.data)

        # add and sub hand g itself on, which the parents must copy
        def backward(g, s=self, o=other):
            if s.requires_grad:
                gs = bwd_self(g, s.data, o.data)
                s.accumulate_grad(gs, copy=gs is g)
            if o.requires_grad:
                go = bwd_other(g, s.data, o.data)
                o.accumulate_grad(go, copy=go is g)

        return Tensor._from_op(data, (self, other), backward)

    def __add__(self, other):
        return self._binary(
            other, "add",
            lambda a, b: a + b,
            lambda g, a, b: g,
            lambda g, a, b: g,
        )

    def __sub__(self, other):
        return self._binary(
            other, "sub",
            lambda a, b: a - b,
            lambda g, a, b: g,
            lambda g, a, b: -g,
        )

    def __mul__(self, other):
        return self._binary(
            other, "mul",
            lambda a, b: a * b,
            lambda g, a, b: g * b,
            lambda g, a, b: g * a,
        )

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise TypeError("tensor division is only defined for scalar divisors")
        return self * (1.0 / float(other))

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(g, s=self, old=old):
            s.accumulate_grad(g.reshape(old), copy=True)

        return Tensor._from_op(data, (self,), backward)

    def transpose(self, axes):
        axes = tuple(axes)
        inv = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(g, s=self, inv=tuple(inv)):
            s.accumulate_grad(g.transpose(inv), copy=True)

        return Tensor._from_op(data, (self,), backward)

    def __getitem__(self, key):
        data = np.ascontiguousarray(self.data[key])

        def backward(g, s=self, key=key):
            full = np.zeros_like(s.data)
            full[key] = full[key] + g
            s.accumulate_grad(full)

        return Tensor._from_op(data, (self,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None):
        data = self.data.sum(axis=axis)

        def backward(g, s=self, axis=axis):
            if axis is not None:
                g = np.expand_dims(g, axis)
            s.accumulate_grad(np.broadcast_to(g, s.shape).copy())

        return Tensor._from_op(np.asarray(data, dtype=np.float64), (self,), backward)

    def mean(self, axis=None):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis) / n

    # -- pointwise nonlinearities --------------------------------------------

    def relu(self):
        # subgradient at exactly 0 is defined to be 0
        mask = self.data > 0.0
        data = np.where(mask, self.data, 0.0)

        def backward(g, s=self, mask=mask):
            s.accumulate_grad(g * mask)

        return Tensor._from_op(data, (self,), backward)


def concat(tensors, axis):
    """Concatenate tensors along ``axis``; backward slices the gradient."""
    tensors = list(tensors)
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != len(base) or any(
            i != axis and a != b for i, (a, b) in enumerate(zip(base, other))
        ):
            raise ShapeMismatch("concat", tensors[0].shape, t.shape)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    widths = [t.shape[axis] for t in tensors]

    def backward(g, parts=tuple(tensors), axis=axis, widths=tuple(widths)):
        start = 0
        for t, w in zip(parts, widths):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, start + w)
                t.accumulate_grad(g[tuple(sl)], copy=True)
            start += w

    return Tensor._from_op(data, tensors, backward)


# -- block reshaping ----------------------------------------------------------


@dataclass
class BlockTensor:
    """A [T, C] tensor regrouped into [num_blocks, block_len, C].

    The reshape is a pure row-major regrouping, so round-tripping with
    :func:`reshape_from_blocks` is bit-identical.
    """

    num_blocks: int
    block_len: int
    channels: int
    data: Tensor

    def __post_init__(self):
        expected = (self.num_blocks, self.block_len, self.channels)
        if self.data.shape != expected:
            raise ShapeMismatch("BlockTensor", self.data.shape, expected)


def reshape_to_blocks(f: Tensor, block_len: int) -> BlockTensor:
    """Split a [T, C] tensor into contiguous time blocks of ``block_len``."""
    if f.ndim != 2:
        raise ShapeMismatch("reshape_to_blocks", f.shape, ("T", "C"))
    t, c = f.shape
    if block_len < 1 or t % block_len != 0:
        raise NonDivisibleLength(
            f"time dimension {t} is not divisible by block length {block_len}"
        )
    blocks = f.reshape(t // block_len, block_len, c)
    return BlockTensor(t // block_len, block_len, c, blocks)


def reshape_from_blocks(blocks: BlockTensor) -> Tensor:
    """Inverse of :func:`reshape_to_blocks`; exact round-trip."""
    return blocks.data.reshape(blocks.num_blocks * blocks.block_len, blocks.channels)
