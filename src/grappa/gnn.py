"""Attention-based message passing over molecular graphs.

Each layer updates every node from its neighborhood plus a self-loop; the
attention logit for an edge is ``att . LeakyReLU(W x_i + W x_j + We e_ij)``
softmax-normalized over the neighborhood, and multi-head outputs are
averaged so the embedding width stays fixed. Self-loops carry a zero edge
feature vector. A batch of molecules runs as one disjoint graph; the
softmax over each node's neighborhood keeps the molecules apart.

:func:`gat_forward` runs a whole layer, every head at once, as one stage of
the model's chain (``tensor``), on (E, H, d) edge arrays and on the three
weight blocks that are its :class:`GatLayer`, the heads side by side; its
outputs and gradients are the bytes of the same heads run as separate ops.
The batch's two scatter plans (:class:`tensor.ScatterPlan`), ``to_dst`` and
``to_src``, group the edges by the node they reach and leave: the softmax
peaks are ``to_dst.max``, and every sum is a plan's ``sum``, bitwise that
of the plain loop. The projections use ``tensor._row_invariant_product``
and the edge logits ``np.einsum``, so an output row is the same bytes
whatever rows run beside it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .featurize import EDGE_FEATURES, MolGraph
from .tensor import (NonFiniteError, Param, ScatterPlan, ShapeError, Tensor,
                     _put, _row_invariant_product, _stage)

LEAKY_SLOPE = 0.2  # the maximum form of the LeakyReLU needs it in [0, 1]


@dataclass
class GatLayer:
    """One message-passing layer: its weight blocks, each head's weights
    side by side as :func:`gat_forward` reads them."""

    theta_v: Param  # (in_dim, H d), head h in columns h d : (h + 1) d
    theta_e: Param  # (edge_dim, H d), likewise
    att: Param  # (H, d), head h in row h

    @property
    def heads(self) -> int:
        return len(self.att.value)


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    fan = sum(shape) if len(shape) > 1 else shape[0] + 1
    limit = np.sqrt(6.0 / fan)
    return rng.uniform(-limit, limit, size=shape)


@dataclass(frozen=True)
class GraphBatch:
    """Molecules run as one disjoint graph. Bond edges are offset per
    molecule and followed by one self-loop per node (zero edge features), so
    every node sums its messages in the same order as it would alone.
    ``molecule`` maps nodes to their molecule, whose rows are
    ``bounds[m]:bounds[m + 1]``, the slice ``blocks[m]``. ``to_dst`` and
    ``to_src`` group the edges by their receiving and sending node."""

    node_features: np.ndarray  # (N, node_dim)
    edge_features: np.ndarray  # (E + N, edge_dim)
    molecule: np.ndarray  # (N,)
    bounds: tuple[int, ...]  # (M + 1,)
    blocks: tuple[slice, ...]  # (M,)
    to_dst: ScatterPlan
    to_src: ScatterPlan

    @property
    def dst(self) -> np.ndarray:
        """(E + N,) receiving node of each edge."""
        return self.to_dst.index

    @property
    def src(self) -> np.ndarray:
        """(E + N,) sending node of each edge."""
        return self.to_src.index

    @property
    def num_nodes(self) -> int:
        return len(self.molecule)

    @property
    def num_molecules(self) -> int:
        return len(self.bounds) - 1


def row_blocks(bounds) -> tuple[slice, ...]:
    """Block ``m``'s rows ``bounds[m]:bounds[m + 1]`` as slices; the bounds
    must be integers that rise from 0 in at least one non-empty block."""
    try:
        edges = [operator.index(b) for b in bounds]
    except TypeError:  # not a sequence of integers
        edges = []
    if len(edges) < 2 or edges[0] != 0 \
            or not all(map(operator.lt, edges[:-1], edges[1:])):
        raise ShapeError("a batch needs molecules with at least one atom "
                         "each: block bounds must rise from 0 in non-empty "
                         "blocks")
    return tuple(map(slice, edges[:-1], edges[1:]))


def batch_graphs(graphs: list[MolGraph]) -> GraphBatch:
    """Join molecular graphs into one :class:`GraphBatch`, in list order."""
    sizes = [g.heavy_atom_count for g in graphs]
    bounds = (0, *accumulate(sizes))
    blocks = row_blocks(bounds)
    n = bounds[-1]
    loops = np.arange(n, dtype=np.int64)
    edges = np.concatenate([g.edges + lo for g, lo in zip(graphs, bounds)])
    return GraphBatch(
        node_features=np.concatenate([g.node_features for g in graphs]),
        edge_features=np.concatenate([g.edge_features for g in graphs]
                                     + [np.zeros((n, EDGE_FEATURES))]),
        molecule=np.repeat(np.arange(len(graphs)), sizes),
        bounds=bounds,
        blocks=blocks,
        to_dst=ScatterPlan(np.concatenate([edges[:, 0], loops]), n),
        to_src=ScatterPlan(np.concatenate([edges[:, 1], loops]), n),
    )


def gat_forward(x: Tensor, batch: GraphBatch, layer: GatLayer,
                train: bool = False):
    """Run one GATv2 layer, all heads at once, as the next stage after
    ``x``: attention over each node's incoming edges, summed, then averaged
    over the heads.

    Head ``h`` reads columns ``h d : (h + 1) d`` of the ``theta_v`` and
    ``theta_e`` blocks, ``tv`` and ``te``, and row ``h`` of ``att``: it
    projects ``xv = x @ tv`` and ``et = edge_features @ te``, and edge ``k``
    sends row ``src[k]`` of ``xv`` to node ``dst[k]`` with logit
    ``att[h] . LeakyReLU(xv[dst] + xv[src] + et[k])``,
    softmax-normalized over the edges that share a ``dst``; the heads' sums
    are added in head order and divided by H. Shapes: (N, in), (E, edge_dim)
    and the blocks (in, H d), (edge_dim, H d), (H, d) -> (N, d). Returns the
    output tensor and the (E, H) attention weights as an array; the edge
    features are a constant."""
    params = (layer.theta_v, layer.theta_e, layer.att)
    v_block, e_block, att_rows = (p.value for p in params)
    xd, edge_features = x.data, batch.edge_features
    to_dst, to_src, dst = batch.to_dst, batch.to_src, batch.dst
    n, e = to_dst.num_segments, len(dst)
    heads, d = att_rows.shape if att_rows.ndim == 2 else (0, 0)
    if not (heads * d and v_block.shape[1:] == e_block.shape[1:] == (heads * d,)
            and xd.shape == (n, len(v_block))
            and edge_features.shape == (e, len(e_block))):
        raise ShapeError(f"attention layer inputs {xd.shape} and "
                         f"{edge_features.shape} do not fit {n} nodes, {e} "
                         f"edges and weights {v_block.shape}, {e_block.shape} "
                         f"and {att_rows.shape}, which must be (in, H d), "
                         f"(edge_dim, H d) and (H, d)")
    xv = _row_invariant_product(xd, v_block).reshape(n, heads, d)
    sent = xv[batch.src]
    act = xv[dst]
    act += sent
    # The edge projections' (E, H, d) array then holds each later temporary
    # of that size, which spares a large batch most of its allocations.
    scratch = _row_invariant_product(edge_features, e_block).reshape(e, heads, d)
    act += scratch
    # LeakyReLU; as the slope lies in [0, 1], the maximum is the bytes of
    # the pre-activation times the backward's ``slopes``.
    np.maximum(act, np.multiply(act, LEAKY_SLOPE, out=scratch), out=act)
    logits = np.einsum("ehd,hd->eh", act, att_rows)
    if not np.isfinite(logits).all():
        raise NonFiniteError("gat_forward: non-finite logits")
    ex = np.exp(logits - to_dst.max(logits)[dst])
    alpha = ex / to_dst.sum(ex)[dst]
    per_head = to_dst.sum(np.multiply(alpha[:, :, None], sent, out=scratch))
    out = per_head[:, 0]
    for h in range(1, heads):
        out = out + per_head[:, h]
    out *= 1.0 / heads  # exact for one head

    def backward(g):
        # Every head receives the upstream of the mean.
        g_e = (g * (1.0 / heads))[dst][:, None]
        d_alpha = (g_e * sent).sum(axis=2)
        d_logits = alpha * (d_alpha - to_dst.sum(alpha * d_alpha)[dst])
        slopes = (act > 0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE
        d_pre = d_logits[:, :, None] * att_rows * slopes
        d_xv = to_dst.sum(d_pre) + to_src.sum(d_pre + alpha[:, :, None] * g_e)
        # Per-head products on contiguous slices, each written to its head's
        # slice of the gradient blocks, and the heads' input gradients added
        # in head order, give the bytes of per-head ops.
        v_grad, e_grad, att_grad = (p.grad for p in params)
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            d_xv_h = np.ascontiguousarray(d_xv[:, h])
            _put(v_grad[:, cols], xd.T @ d_xv_h)
            _put(e_grad[:, cols],
                 edge_features.T @ np.ascontiguousarray(d_pre[:, h]))
            _put(att_grad[h], np.ascontiguousarray(act[:, h]).T
                 @ np.ascontiguousarray(d_logits[:, h]))
            part = d_xv_h @ v_block[:, cols].T
            d_x = part if h == 0 else d_x + part
        return d_x

    return _stage(x, out, "gat_forward", params,
                  backward if train else None), alpha


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
    inference forward."""
    if not layers:
        raise ValueError("attention_scores needs at least one layer")
    batch = batch_graphs([graph])
    x = encode(batch, layers[:-1])
    _, alpha = gat_forward(x, batch, layers[-1])
    n, heads = batch.num_nodes, alpha.shape[1]
    # Each node's outgoing weights, added head by head in edge order.
    totals = ScatterPlan(np.tile(batch.src, heads), n).sum(alpha.T.ravel())
    scores = totals / (heads * batch.to_src.counts)
    lo, hi = scores.min(), scores.max()
    if hi - lo < 1e-15:
        return np.ones(n)
    return (scores - lo) / (hi - lo)
