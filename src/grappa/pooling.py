"""Readouts collapsing each molecule's node embeddings to one d-vector.

Both variants take the (N, d) embeddings of a whole batch and return one
row per molecule as one stage of the model's chain, and both are invariant
to node order: plain summation, and a self-attention readout that mixes all
node pairs of a molecule before summing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gnn import GraphBatch
from .tensor import Param, Tensor, block_attention_pool, segment_sum


@dataclass
class InteractionPoolParams:
    Wq: Param  # (d, k)
    Wk: Param  # (d, k)
    Wv: Param  # (d, d)


def _check_rows(x: Tensor, batch: GraphBatch, name: str):
    if x.ndim != 2 or x.shape[0] != batch.num_nodes:
        raise ValueError(f"{name} needs an (N, d) matrix with one row per "
                         f"node of the batch ({batch.num_nodes})")


def sum_pool(x: Tensor, batch: GraphBatch, train: bool = False) -> Tensor:
    """Sum of each molecule's node embeddings: (N, d) -> (M, d)."""
    _check_rows(x, batch, "sum_pool")
    return segment_sum(x, batch.molecule, batch.num_molecules, train)


def interaction_pool(x: Tensor, batch: GraphBatch,
                     params: InteractionPoolParams,
                     train: bool = False) -> Tensor:
    """Self-attention readout per molecule: softmax(Q K^T / sqrt(k)) V,
    summed over the molecule's rows; (N, d) -> (M, d)."""
    _check_rows(x, batch, "interaction_pool")
    return block_attention_pool(x, params.Wq, params.Wk, params.Wv,
                                batch.blocks, train)
