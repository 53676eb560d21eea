"""Readouts collapsing each molecule's node embeddings to one d-vector.

Both variants take the (N, d) embeddings of a whole batch and return one
row per molecule, and both are invariant to node order: plain summation,
and a self-attention readout that mixes all node pairs of a molecule before
summing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gnn import GraphBatch
from .tensor import Tensor, block_attention_sum, matmul, segment_sum


@dataclass
class InteractionPoolParams:
    Wq: Tensor  # (d, k)
    Wk: Tensor  # (d, k)
    Wv: Tensor  # (d, d)

    @property
    def dim(self) -> int:
        return self.Wq.shape[0]


def _check_rows(x: Tensor, batch: GraphBatch, name: str):
    if x.ndim != 2 or x.shape[0] != batch.num_nodes:
        raise ValueError(f"{name} needs an (N, d) matrix with one row per "
                         f"node of the batch ({batch.num_nodes})")


def sum_pool(x: Tensor, batch: GraphBatch) -> Tensor:
    """Sum of each molecule's node embeddings: (N, d) -> (M, d)."""
    _check_rows(x, batch, "sum_pool")
    return segment_sum(x, batch.molecule, batch.num_molecules)


def interaction_pool(x: Tensor, batch: GraphBatch,
                     params: InteractionPoolParams) -> Tensor:
    """Self-attention readout per molecule: softmax(Q K^T / sqrt(k)) V,
    summed over the molecule's rows; (N, d) -> (M, d)."""
    _check_rows(x, batch, "interaction_pool")
    q = matmul(x, params.Wq)
    k = matmul(x, params.Wk)
    v = matmul(x, params.Wv)
    key_dim = params.Wk.shape[1]
    return block_attention_sum(q, k, v, batch.bounds, 1.0 / np.sqrt(key_dim))
