"""Attention-based message passing over molecular graphs.

Each layer updates every node from its neighborhood plus a self-loop; the
attention logit for an edge is ``att . LeakyReLU(W x_i + W x_j + We e_ij)``
softmax-normalized over the neighborhood, and multi-head outputs are
averaged so the embedding width stays fixed. Self-loops carry a zero edge
feature vector. A batch of molecules runs as one disjoint graph; the
softmax over each node's neighborhood keeps the molecules apart. A layer
runs all its heads as one stage of the model's chain,
``tensor.gat_layer_sum``, while its weights stay per-head parameters.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .featurize import EDGE_FEATURES, MolGraph
from .tensor import Param, ScatterPlan, ShapeError, Tensor, gat_layer_sum

LEAKY_SLOPE = 0.2


@dataclass
class GatLayer:
    """One message-passing layer; lists are indexed by attention head."""

    theta_v: list[Param]  # (in_dim, out_dim) per head
    theta_e: list[Param]  # (edge_dim, out_dim) per head
    att: list[Param]  # (out_dim,) per head

    @property
    def heads(self) -> int:
        return len(self.theta_v)

    @property
    def in_dim(self) -> int:
        return self.theta_v[0].value.shape[0]

    @property
    def out_dim(self) -> int:
        return self.theta_v[0].value.shape[1]


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan = sum(shape) if len(shape) > 1 else shape[0] + 1
    limit = np.sqrt(6.0 / fan)
    return rng.uniform(-limit, limit, size=shape)


@dataclass(frozen=True)
class GraphBatch:
    """Molecules run as one disjoint graph.

    Bond edges are offset per molecule and followed by one self-loop per
    node (zero edge features), so every node sums its messages in the same
    order as it would alone. ``molecule`` maps nodes to their molecule, whose
    rows are ``bounds[m]:bounds[m + 1]``, the slice ``blocks[m]``. ``plan``
    holds the edges' ends and the scatter indices that every layer and its
    backward share.
    """

    node_features: np.ndarray  # (N, node_dim)
    edge_features: np.ndarray  # (E + N, edge_dim)
    molecule: np.ndarray  # (N,)
    bounds: np.ndarray  # (M + 1,)
    blocks: tuple[slice, ...]  # (M,)
    plan: ScatterPlan

    @property
    def dst(self) -> np.ndarray:
        """(E + N,) receiving node of each edge."""
        return self.plan.dst

    @property
    def src(self) -> np.ndarray:
        """(E + N,) sending node of each edge."""
        return self.plan.src

    @property
    def num_nodes(self) -> int:
        return len(self.molecule)

    @property
    def num_molecules(self) -> int:
        return len(self.bounds) - 1


def row_blocks(bounds) -> tuple[slice, ...]:
    """Block ``m``'s rows ``bounds[m]:bounds[m + 1]`` as slices; the bounds
    must rise from 0 in at least one non-empty block."""
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.ndim != 1 or len(bounds) < 2 or bounds[0] != 0 \
            or np.any(np.diff(bounds) < 1):
        raise ShapeError("a batch needs molecules with at least one atom "
                         "each: block bounds must rise from 0 in non-empty "
                         "blocks")
    edges = bounds.tolist()
    return tuple(map(slice, edges[:-1], edges[1:]))


def batch_graphs(graphs: list[MolGraph]) -> GraphBatch:
    """Join molecular graphs into one :class:`GraphBatch`, in list order. A
    lone graph's batch shares its node features."""
    sizes = np.array([g.heavy_atom_count for g in graphs], dtype=np.int64)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    blocks = row_blocks(bounds)
    n = int(bounds[-1])
    loops = np.arange(n, dtype=np.int64)
    edges = np.concatenate([g.edges + lo for g, lo in zip(graphs, bounds)])
    return GraphBatch(
        node_features=graphs[0].node_features if len(graphs) == 1
        else np.concatenate([g.node_features for g in graphs]),
        edge_features=np.concatenate([g.edge_features for g in graphs]
                                     + [np.zeros((n, EDGE_FEATURES))]),
        molecule=np.repeat(np.arange(len(graphs)), sizes),
        bounds=bounds,
        blocks=blocks,
        plan=ScatterPlan(np.concatenate([edges[:, 0], loops]),
                         np.concatenate([edges[:, 1], loops]), n),
    )


@contextmanager
def molecule_batch(graph: MolGraph) -> Iterator[GraphBatch]:
    """The one-molecule batch of ``graph`` for one forward: built at the
    first call and kept on the graph (``kept_batch``), so a graph served
    again, as ``predict``'s cache serves one, skips the batching. The plan
    forgets its flat indices when the block exits, so an idle graph keeps
    only its edge arrays."""
    batch = graph.kept_batch
    if batch is None:
        batch = batch_graphs([graph])
        object.__setattr__(graph, "kept_batch", batch)  # MolGraph is frozen
    try:
        yield batch
    finally:
        batch.plan.forget()


def gat_forward(x: Tensor, batch: GraphBatch, layer: GatLayer,
                train: bool = False):
    """Run one layer as the next stage after ``x``: returns the (N, out_dim)
    update and the (E, H) attention weights over ``batch.dst``/``batch.src``."""
    n = batch.num_nodes
    if x.shape[0] != n:
        raise ValueError(f"embedding rows {x.shape[0]} != node count {n}")
    if x.shape[1] != layer.in_dim:
        raise ValueError(f"embedding width {x.shape[1]} != layer input "
                         f"{layer.in_dim}")
    return gat_layer_sum(x, batch.edge_features, layer.theta_v, layer.theta_e,
                         layer.att, batch.plan, LEAKY_SLOPE, train)


def encode(batch: GraphBatch, layers: list[GatLayer],
           train: bool = False) -> Tensor:
    """Apply the layer stack to the initial node features."""
    x = Tensor(batch.node_features)
    for layer in layers:
        x, _ = gat_forward(x, batch, layer, train)
    return x


def attention_scores(graph: MolGraph, layers: list[GatLayer]) -> np.ndarray:
    """Per-atom importance in [0, 1]: mean outgoing attention weight in the
    last layer (heads averaged), min-max normalized per molecule. All-equal
    scores (single atoms, perfect symmetry) map to 1.0. The forward is an
    inference forward on the graph's :func:`molecule_batch`."""
    if not layers:
        raise ValueError("attention_scores needs at least one layer")
    with molecule_batch(graph) as batch:
        x = encode(batch, layers[:-1])
        _, alpha = gat_forward(x, batch, layers[-1])
    n, heads = batch.num_nodes, alpha.shape[1]
    # Each node's outgoing weights, added head by head in edge order.
    totals = np.bincount(np.tile(batch.src, heads), weights=alpha.T.ravel(),
                         minlength=n)
    scores = totals / (heads * np.bincount(batch.src, minlength=n))
    lo, hi = scores.min(), scores.max()
    if hi - lo < 1e-15:
        return np.ones(n)
    return (scores - lo) / (hi - lo)
