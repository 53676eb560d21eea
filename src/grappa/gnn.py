"""Attention-based message passing over molecular graphs.

Each layer updates every node from its neighborhood plus a self-loop; the
attention logit for an edge is ``att . LeakyReLU(W x_i + W x_j + We e_ij)``
softmax-normalized over the neighborhood, and multi-head outputs are
averaged so the embedding width stays fixed. Self-loops carry a zero edge
feature vector. A batch of molecules runs as one disjoint graph; the
softmax over each node's neighborhood keeps the molecules apart. A layer
runs all its heads as one tape op, ``tensor.gat_layer_sum``, while its
weights stay per-head tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featurize import EDGE_FEATURES, MolGraph
from .tensor import ScatterPlan, Tensor, gat_layer_sum, recording

LEAKY_SLOPE = 0.2


@dataclass
class GatLayer:
    """One message-passing layer; lists are indexed by attention head."""

    theta_v: list[Tensor]  # (in_dim, out_dim) per head
    theta_e: list[Tensor]  # (edge_dim, out_dim) per head
    att: list[Tensor]  # (out_dim,) per head

    @property
    def heads(self) -> int:
        return len(self.theta_v)

    @property
    def in_dim(self) -> int:
        return self.theta_v[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.theta_v[0].shape[1]


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
    rows are ``bounds[m]:bounds[m + 1]``. ``plan`` holds the edges' ends
    and the scatter indices that every layer and its VJP share.
    """

    node_features: np.ndarray  # (N, node_dim)
    edge_features: np.ndarray  # (E + N, edge_dim)
    molecule: np.ndarray  # (N,)
    bounds: np.ndarray  # (M + 1,)
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


def batch_graphs(graphs: list[MolGraph]) -> GraphBatch:
    """Join molecular graphs into one :class:`GraphBatch`, in list order."""
    sizes = np.array([g.heavy_atom_count for g in graphs], dtype=np.int64)
    if not len(sizes) or np.any(sizes < 1):
        raise ValueError("a batch needs molecules with at least one atom each")
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    n = int(bounds[-1])
    loops = np.arange(n, dtype=np.int64)
    edges = np.concatenate([g.edges + lo for g, lo in zip(graphs, bounds)])
    return GraphBatch(
        node_features=np.concatenate([g.node_features for g in graphs]),
        edge_features=np.concatenate([g.edge_features for g in graphs]
                                     + [np.zeros((n, EDGE_FEATURES))]),
        molecule=np.repeat(np.arange(len(graphs)), sizes),
        bounds=bounds,
        plan=ScatterPlan(np.concatenate([edges[:, 0], loops]),
                         np.concatenate([edges[:, 1], loops]), n),
    )


def gat_forward(x: Tensor, batch: GraphBatch, layer: GatLayer):
    """Run one layer: returns the (N, out_dim) update and the (E, H)
    attention weights over ``batch.dst``/``batch.src``."""
    n = batch.num_nodes
    if x.shape[0] != n:
        raise ValueError(f"embedding rows {x.shape[0]} != node count {n}")
    if x.shape[1] != layer.in_dim:
        raise ValueError(f"embedding width {x.shape[1]} != layer input "
                         f"{layer.in_dim}")
    return gat_layer_sum(x, batch.edge_features, layer.theta_v, layer.theta_e,
                         layer.att, batch.plan, LEAKY_SLOPE)


def encode(batch: GraphBatch, layers: list[GatLayer]) -> Tensor:
    """Apply the layer stack to the initial node features."""
    x = Tensor(batch.node_features)
    for layer in layers:
        x, _ = gat_forward(x, batch, layer)
    return x


def attention_scores(graph: MolGraph, layers: list[GatLayer]) -> np.ndarray:
    """Per-atom importance in [0, 1]: mean outgoing attention weight in the
    last layer (heads averaged), min-max normalized per molecule. All-equal
    scores (single atoms, perfect symmetry) map to 1.0. The forward records
    no tape, as an inference forward does."""
    if not layers:
        raise ValueError("attention_scores needs at least one layer")
    batch = batch_graphs([graph])
    with recording(False):
        x = encode(batch, layers[:-1])
        _, alpha = gat_forward(x, batch, layers[-1])
    n, heads = batch.num_nodes, alpha.shape[1]
    # Each node's outgoing weights, added head by head in edge order.
    totals = np.zeros(n)
    for weights in alpha.T:
        np.add.at(totals, batch.src, weights)
    scores = totals / (heads * np.bincount(batch.src, minlength=n))
    lo, hi = scores.min(), scores.max()
    if hi - lo < 1e-15:
        return np.ones(n)
    return (scores - lo) / (hi - lo)
