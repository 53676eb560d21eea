"""Readouts collapsing each molecule's node embeddings to one d-vector.

Both variants take the (N, d) embeddings of a whole batch and return one
row per molecule as one stage of the model's chain (``tensor``), and both
are invariant to node order: :func:`sum_pool` sums each molecule's rows in
one scatter over the batch's molecule ids, and :func:`interaction_pool`
mixes all node pairs of a molecule by self-attention within its block of
rows before summing; the readout's three projections lie side by side in
one weight block, applied in one row-invariant product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gnn import GraphBatch
from .tensor import (Param, ScatterPlan, ShapeError, Tensor, _put,
                     _row_invariant_product, _stage)


@dataclass
class InteractionPoolParams:
    """The readout's projections ``Wq | Wk | Wv`` side by side in one block,
    (d, 2k + d'), as :func:`interaction_pool` reads them, and the key width
    ``k`` that splits it."""

    qkv: Param  # (d, 2k + d')
    key_width: int  # k


def _check_rows(x: Tensor, batch: GraphBatch, name: str):
    if x.ndim != 2 or x.shape[0] != batch.num_nodes:
        raise ShapeError(f"{name} needs an (N, d) matrix with one row per "
                         f"node of the batch ({batch.num_nodes})")


def sum_pool(x: Tensor, batch: GraphBatch, train: bool = False) -> Tensor:
    """Sum of each molecule's node embeddings, added in node order, as a
    :class:`tensor.ScatterPlan` sum over the molecule ids: (N, d) -> (M, d)."""
    _check_rows(x, batch, "sum_pool")
    molecule = batch.molecule
    out = ScatterPlan(molecule, batch.num_molecules).sum(x.data)

    def backward(g):
        return g[molecule]

    return _stage(x, out, "sum_pool", (), backward if train else None)


def interaction_pool(x: Tensor, batch: GraphBatch,
                     params: InteractionPoolParams,
                     train: bool = False) -> Tensor:
    """Self-attention readout per molecule, summed over its rows.

    Q, K and V are ``x`` projected by ``Wq``, ``Wk`` and ``Wv``, the
    block's first ``k`` columns, its next ``k`` and the rest. For molecule
    ``m``, which holds rows ``batch.blocks[m]``, W is the row-wise softmax
    of ``Q K^T / sqrt(k)`` over the block, and output row ``m`` is ``1^T W
    V``: the weights' column sums times V. Shapes: (N, d) and the block
    (d, 2k + d') -> (M, d').
    """
    _check_rows(x, batch, "interaction_pool")
    xd, blocks = x.data, batch.blocks
    block, i = params.qkv.value, params.key_width
    j = 2 * i
    # One product for all three; each weight's columns are the bytes of its
    # own product (see ``_row_invariant_product``).
    qkv = _row_invariant_product(xd, block)
    q, k, v = map(np.ascontiguousarray, (qkv[:, :i], qkv[:, i:j], qkv[:, j:]))
    scale = 1.0 / np.sqrt(i)
    weights = []
    out = np.empty((len(blocks), v.shape[1]))
    for m, rows in enumerate(blocks):
        logits = scale * (q[rows] @ k[rows].T)
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = ex / ex.sum(axis=1, keepdims=True)
        weights.append(w)
        out[m] = w.sum(axis=0) @ v[rows]

    def backward(g):
        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for m, rows in enumerate(blocks):
            w = weights[m]
            dv[rows] = np.outer(w.sum(axis=0), g[m])
            dcol = v[rows] @ g[m]  # gradient of each column sum
            dlogits = scale * w * (dcol - (w @ dcol)[:, None])
            dq[rows] = dlogits @ k[rows]
            dk[rows] = dlogits.T @ q[rows]
        # The input's parts added in the tape's order: Q, K, then V.
        grad = params.qkv.grad
        _put(grad[:, :i], xd.T @ dq)
        _put(grad[:, i:j], xd.T @ dk)
        _put(grad[:, j:], xd.T @ dv)
        return dq @ block[:, :i].T + dk @ block[:, i:j].T + dv @ block[:, j:].T

    return _stage(x, out, "interaction_pool", (params.qkv,),
                  backward if train else None)
