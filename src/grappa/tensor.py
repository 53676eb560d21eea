"""What links the model's stages into one linear chain, and runs it back.

GRAPPA is a fixed chain: message-passing layers (``gnn.gat_forward``), a
readout (``pooling.sum_pool`` or ``interaction_pool``), the parameter head
(``model.head_raw`` and ``scale_to_ranges``) and, in training, the Antoine
equation (``antoine.ln_p_points``) and the loss (``train.loss_mse`` or
``loss_huber``). Each stage takes the previous link's :class:`Tensor` and
returns the next through :func:`_stage`. A training stage (``train=True``)
also makes a backward closure: given the gradient of the stage's output,
it writes its parameters' gradients into their :class:`Param` ``grad``
arrays (:func:`_put`), views of the model's one gradient vector, and
returns the gradient of the stage's input. ``Tensor.backward()``, the one
entry point of the reverse pass (a profiler that wraps it times all of it),
runs the backwards in reverse: the chain is linear, so there is no graph to
sort and no gradient kept per tensor.

An inference stage (``train=False``) makes no backward, so an inference
forward frees each intermediate once it is read, and the head's batch norm
uses its running statistics. Every stage checks its output for NaN/Inf and
raises :class:`NonFiniteError` naming the stage's function and its
parameters' checkpoint names. The check is one ``np.isfinite(data).all()``;
testing the sum first is no faster and warns when finite values overflow.

Gradients are the bytes of the general reverse-mode tape the stages
replace (kept in ``tests/_oracles.py`` as the reference): each backward
walks the old ops' VJPs in the tape's order. The tape added 0.0 to the
first gradient a tensor got, which turns -0.0 into 0.0. A zero's sign never
changes a nonzero sum or product, and no backward divides by a gradient or
tests its sign, so adding 0.0 where a gradient leaves the chain (``_put``
and the result of ``backward``) gives the same bytes.

The module also holds what several stages share: :class:`ScatterPlan`,
through which every grouped sum and maximum of the model goes, and
:func:`_row_invariant_product`, which makes every forward batch-invariant
(``tests/test_tensor.py`` pins the BLAS).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NonFiniteError(FloatingPointError):
    pass


class ShapeError(ValueError):
    pass


class Tensor:
    """A value and the backwards of the stages that produced it, in forward
    order; an inference stage adds ``None``."""

    __slots__ = ("data", "stages")

    def __init__(self, data, stages: tuple = ()):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.stages = stages

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def backward(self):
        """Run the stages back from this scalar, last first: each writes its
        parameters' gradients and hands its input's gradient to the stage
        before it. Returns the gradient of the chain's first input. Running
        it again writes the same bytes."""
        if self.size != 1:
            raise ShapeError("backward() requires a scalar output")
        if None in self.stages:
            raise ValueError("an inference forward has no backward")
        g = np.ones_like(self.data)
        for stage in reversed(self.stages):
            g = stage(g)
        return g + 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, stages={len(self.stages)})"


class Param(NamedTuple):
    """A parameter as the stages read it: its value, the array a backward
    writes its gradient into, and its checkpoint name, or for a block of
    several entries side by side the names of its entries in order."""

    value: np.ndarray
    grad: np.ndarray
    name: str | tuple[str, ...]


def _check_finite(data: np.ndarray, op: str, params=()):
    """Raise :class:`NonFiniteError` naming ``op`` and every named
    parameter unless ``data`` is all finite."""
    if not np.isfinite(data).all():
        names = ", ".join(repr(name) for p in params for name in
                          ((p.name,) if isinstance(p.name, str) else p.name) if name)
        raise NonFiniteError(f"non-finite value produced by {op}"
                             + (f" (inputs {names})" if names else ""))


def _stage(x: Tensor, out: np.ndarray, op: str, params, backward) -> Tensor:
    """``out`` as the link after ``x``, checked finite; ``backward`` is
    ``None`` for an inference stage."""
    _check_finite(out, op, params)
    return Tensor(out, x.stages + (backward,))


def _put(target: np.ndarray, grad: np.ndarray):
    """Write a parameter's gradient into ``target``, its gradient array or
    its slice of a block's, as the tape stored a first gradient, ``+ 0.0``."""
    np.add(grad, 0.0, out=target)


class ScatterPlan:
    """Where each row of an array goes: row ``k`` to segment ``index[k]``.

    :meth:`sum` adds each segment's rows in one ``np.bincount`` through the
    flat index ``index * w + col`` for the ``w`` values of a row, in input
    order like an unbuffered ``np.add.at``, so every sum is bitwise that of
    the plain loop; a segment with no row sums to zero. :meth:`max` is one
    ``np.maximum.reduceat`` over the rows in stable ``index`` order; a
    segment with no row has no maximum. The plan keeps each flat index and
    the order from their first use for every later call."""

    __slots__ = ("index", "num_segments", "_flat", "_order", "_starts")

    def __init__(self, index, num_segments: int):
        index = np.asarray(index, dtype=np.int64)
        if index.ndim != 1:
            raise ShapeError(f"segment ids must be a vector, got shape "
                             f"{index.shape}")
        if index.size and (index.min() < 0 or index.max() >= num_segments):
            raise IndexError(f"segment id out of range for {num_segments} "
                             f"segments")
        self.index, self.num_segments = index, num_segments
        self._flat: dict[int, np.ndarray] = {}
        self._order = self._starts = None

    @property
    def counts(self) -> np.ndarray:
        """(S,) number of rows in each segment."""
        return np.bincount(self.index, minlength=self.num_segments)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Sum the rows of an (R, ...) array into its segments, adding in
        row order: (R, ...) -> (S, ...)."""
        shape = (self.num_segments,) + values.shape[1:]
        if not values.size:  # bincount of nothing counts in integers
            return np.zeros(shape)
        width = values.size // len(values)
        flat = self._flat.get(width)
        if flat is None:
            flat = (self.index[:, None] * width + np.arange(width)).ravel()
            self._flat[width] = flat
        return np.bincount(flat, weights=values.ravel(),
                           minlength=self.num_segments * width).reshape(shape)

    def max(self, values: np.ndarray) -> np.ndarray:
        """Each segment's maximum over its rows: (R, ...) -> (S, ...).
        Raises :class:`ShapeError` if a segment has no row."""
        if self._starts is None:
            counts = self.counts
            if not counts.all():
                raise ShapeError(f"segment {int(np.argmin(counts))} has no "
                                 f"row to take a maximum of")
            self._order = np.argsort(self.index, kind="stable")
            self._starts = np.cumsum(counts) - counts
        return np.maximum.reduceat(values[self._order], self._starts)


def _row_invariant_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for (M, K) ``a`` and a C-contiguous (K, n) ``b``, whose
    columns may hold several weights side by side. A 1-row ``a`` runs as 2
    rows, and a width that is not a multiple of 16 is padded with zero
    columns: the shapes on which the BLAS gives each row the same bytes
    whatever M is, and each weight's columns the bytes of its own product."""
    m, n = len(a), b.shape[1]
    left = np.concatenate([a, a]) if m == 1 else a
    if n % 16:  # np.pad is ~20x slower here
        b = np.concatenate([b, np.zeros((len(b), -n % 16))], axis=1)
    return (left @ b)[:m, :n]
