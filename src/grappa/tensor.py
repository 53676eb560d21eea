"""The model's forward as one linear chain of fused stages, and its reverse.

GRAPPA is a fixed chain: message-passing layers, a readout, the parameter
head and, in training, the Antoine equation and the loss. Each link is one
stage, a function that takes the previous link's :class:`Tensor` and
returns the next. A training stage (``train=True``) also makes a backward
closure: given the gradient of the stage's output, it writes the gradients
of the stage's parameters into their :class:`Param` ``grad`` arrays, which
are views of the model's one gradient vector laid out like its weights, and
returns the gradient of the stage's input. A :class:`Tensor` is a value
plus the backwards of the stages that produced it, in forward order, and
``Tensor.backward()`` runs them in reverse. The chain is linear, so there is
no graph to sort and no gradient kept per tensor. ``Tensor.backward`` stays
the one entry point of the whole reverse pass, so a profiler that wraps it
times all of it and nothing else.

An inference stage (``train=False``) makes no backward, so an inference
forward frees each intermediate once it is read, and the batch norm of
``mlp_head`` uses its running statistics. Every stage checks its output for
NaN/Inf and raises :class:`NonFiniteError` naming the stage and its
parameters' checkpoint names. The check is one ``np.isfinite(data).all()``;
testing the sum first is no faster and warns when finite values overflow.

Gradients are the bytes of the general reverse-mode tape the stages
replace (kept in ``tests/_oracles.py`` as the reference): each backward
walks the old ops' VJPs in the tape's order. The tape added 0.0 to the
first gradient a tensor got, which turns -0.0 into 0.0. A zero's sign never
changes a nonzero sum or product, and no backward divides by a gradient or
tests its sign, so adding 0.0 where a gradient leaves the chain (``_put``
and the result of ``backward``) gives the same bytes.

Every scatter (``segment_sum``, the Antoine stage's backward, and the
softmax denominators and sums of ``gat_layer_sum`` and its backward) is one
``np.bincount`` call, which adds in input order as an unbuffered
``ufunc.at`` add does but without its per-element overhead, so sums are
bitwise those of the plain loop. ``gat_layer_sum`` runs a whole attention
layer, every head at once, on (E, H, d) edge arrays; its outputs and
gradients are the bytes of the same heads run as separate ops. It scatters
through the :class:`ScatterPlan` of its graph batch, built once per batch:
the stable ``dst`` order and its segment starts, so one
``np.maximum.reduceat`` takes the segment maxima, and the flat
``dst * w + col`` and ``src * w + col`` indices, each built at the first
scatter of its width ``w`` and kept until ``forget``. No later layer or
backward of the batch sorts or builds an index again. Forwards are
batch-invariant: an output row is the same bytes whatever rows run beside
it (see ``_row_invariant_product`` and the ``einsum`` edge logits;
``tests/test_tensor.py`` pins the BLAS).
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
    writes its gradient into, and its checkpoint name."""

    value: np.ndarray
    grad: np.ndarray
    name: str


def _check_finite(data: np.ndarray, op: str, params=()):
    """Raise :class:`NonFiniteError` naming ``op`` and every named
    parameter unless ``data`` is all finite."""
    if not np.isfinite(data).all():
        names = ", ".join(repr(p.name) for p in params if p.name)
        raise NonFiniteError(f"non-finite value produced by {op}"
                             + (f" (inputs {names})" if names else ""))


def _stage(x: Tensor, out: np.ndarray, op: str, params, backward) -> Tensor:
    """``out`` as the link after ``x``, checked finite; ``backward`` is
    ``None`` for an inference stage."""
    _check_finite(out, op, params)
    return Tensor(out, x.stages + (backward,))


def _put(param: Param, grad: np.ndarray):
    """Write a parameter's gradient as the tape stored a first gradient,
    ``+ 0.0``."""
    np.add(grad, 0.0, out=param.grad)


def _scatter_sum(index: np.ndarray, values: np.ndarray,
                 num_segments: int) -> np.ndarray:
    """Sum ``values`` rows into ``num_segments`` rows by ``index``.

    ``np.bincount`` adds its weights in input order, as an unbuffered
    ``ufunc.at`` add does, so every sum is bitwise the same; a matrix scatters through the flat
    index ``row * d + col``.
    """
    if not values.size:  # bincount of nothing counts in integers
        return np.zeros((num_segments,) + values.shape[1:])
    if values.ndim == 1:
        out = np.bincount(index, weights=values, minlength=num_segments)
    else:
        d = values.shape[1]
        flat = (index[:, None] * d + np.arange(d)).ravel()
        out = np.bincount(flat, weights=values.ravel(),
                          minlength=num_segments * d).reshape(-1, d)
    if len(out) != num_segments:
        raise IndexError(f"segment id {index.max()} out of range for "
                         f"{num_segments} segments")
    return out


class ScatterPlan:
    """Where each edge of a graph sends its values, built once per graph.

    Edge ``k`` runs from node ``src[k]`` to node ``dst[k]``, and every node
    has an incoming edge. ``order`` sorts the edges stably by ``dst`` and
    ``starts`` opens each node's run in that order, so one
    ``np.maximum.reduceat`` takes every node's maximum. ``scatter`` sums an
    edge array onto the nodes in one ``np.bincount`` through the flat index
    ``dst * w + col`` (or ``src * w + col``) for its ``w`` values per edge;
    each index is built the first time its width is scattered and kept for
    every later layer and backward until :meth:`forget`.
    """

    __slots__ = ("dst", "src", "num_nodes", "order", "starts", "_flat")

    def __init__(self, dst, src, num_nodes: int):
        dst = np.asarray(dst, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        if dst.ndim != 1 or src.shape != dst.shape:
            raise ShapeError(f"edge ends {dst.shape} and {src.shape} must be "
                             f"vectors of one length")
        if dst.size and (min(dst.min(), src.min()) < 0
                         or max(dst.max(), src.max()) >= num_nodes):
            raise IndexError(f"edge node id out of range for {num_nodes} nodes")
        incoming = np.bincount(dst, minlength=num_nodes)
        if num_nodes < 1 or not incoming.all():
            raise ShapeError("every node needs an incoming edge")
        self.dst, self.src, self.num_nodes = dst, src, num_nodes
        self.order = np.argsort(dst, kind="stable")
        self.starts = np.cumsum(incoming) - incoming
        self._flat: dict[tuple[bool, int], np.ndarray] = {}

    def scatter(self, values: np.ndarray, by_src: bool = False) -> np.ndarray:
        """Sum an (E, ...) edge array onto each edge's ``dst`` node (or its
        ``src`` node), adding in edge order: (E, ...) -> (N, ...)."""
        width = values[0].size
        flat = self._flat.get((by_src, width))
        if flat is None:
            ends = self.src if by_src else self.dst
            flat = (ends[:, None] * width + np.arange(width)).ravel()
            self._flat[by_src, width] = flat
        out = np.bincount(flat, weights=values.ravel(),
                          minlength=self.num_nodes * width)
        return out.reshape((self.num_nodes,) + values.shape[1:])

    def forget(self):
        """Drop the flat indices built so far and keep the rest. Whoever
        keeps a plan between forwards calls this after each, so the plan
        holds no (E * w) index while idle: at width H * d that index alone
        is several times the bytes of the rest of the plan."""
        self._flat = {}


def _row_invariant_product(a: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """``a @ [b_0 | b_1 | ...]`` for (M, K) ``a`` and (K, n_i) blocks. A
    1-row ``a`` runs as 2 rows and the columns are padded with zeros to a
    multiple of 16: the shapes on which the BLAS gives each row the same
    bytes whatever M is, and each block's columns the bytes of its own
    product."""
    m, n = len(a), sum(b.shape[1] for b in blocks)
    left = np.concatenate([a, a]) if m == 1 else a
    pad = [np.zeros((len(blocks[0]), -n % 16))] if n % 16 else []  # np.pad is ~20x slower here
    right = np.concatenate(blocks + pad, axis=1) if len(blocks) > 1 or pad \
        else blocks[0]
    return (left @ right)[:m, :n]


# ------------------------------------------------------------ message passing

def gat_layer_sum(x: Tensor, edge_features: np.ndarray, theta_v, theta_e, att,
                  plan: ScatterPlan, slope: float, train: bool = False):
    """One GATv2 layer, all heads at once: attention over each node's
    incoming edges, summed, then averaged over the heads.

    Head ``h`` projects ``xv = x @ theta_v[h]`` and ``et = edge_features @
    theta_e[h]``. Edge ``k`` of ``plan`` sends row ``src[k]`` of ``xv`` to
    node ``dst[k]``; its logit is ``att[h] . LeakyReLU(xv[dst] + xv[src] +
    et[k])``, softmax-normalized over the edges that share a ``dst``, and
    node ``i`` receives the weighted sum of the rows sent to it. The heads'
    sums are added in head order and divided by H. Shapes: (N, in),
    (E, edge_dim), H x (in, d), H x (edge_dim, d), H x (d,) -> (N, d), the
    weights given as :class:`Param` lists. Returns the output tensor and the
    (E, H) attention weights as an array; the edge features are a constant.
    """
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"LeakyReLU slope {slope} is outside [0, 1]")
    xd, edge_features = x.data, np.asarray(edge_features, dtype=np.float64)
    heads, n, e = len(theta_v), plan.num_nodes, len(plan.dst)
    params = [*theta_v, *theta_e, *att]
    d = theta_v[0].value.shape[-1] if heads else 0
    if not heads or len(theta_e) != heads or len(att) != heads \
            or xd.ndim != 2 or len(xd) != n or edge_features.ndim != 2 \
            or len(edge_features) != e \
            or any(p.value.shape != (xd.shape[1], d) for p in theta_v) \
            or any(p.value.shape != (edge_features.shape[1], d) for p in theta_e) \
            or any(p.value.shape != (d,) for p in att):
        raise ShapeError(f"attention layer shapes {xd.shape}, "
                         f"{edge_features.shape}, "
                         f"{[p.value.shape for p in params]} do not fit {n} "
                         f"nodes, {e} edges and {heads} heads")
    xv = _row_invariant_product(xd, [p.value for p in theta_v])
    xv = xv.reshape(n, heads, d)
    sent = xv[plan.src]
    act = xv[plan.dst]
    act += sent
    # The edge projections' (E, H, d) array then holds each later temporary
    # of that size, which spares a large batch most of its allocations.
    scratch = _row_invariant_product(edge_features, [p.value for p in theta_e]
                                     ).reshape(e, heads, d)
    act += scratch
    # LeakyReLU; for 0 <= slope <= 1 the maximum is the bytes of the
    # pre-activation times the backward's ``slopes``.
    np.maximum(act, np.multiply(act, slope, out=scratch), out=act)
    att_rows = np.concatenate([p.value for p in att]).reshape(heads, d)
    logits = np.einsum("ehd,hd->eh", act, att_rows)
    if not np.isfinite(logits).all():
        raise NonFiniteError("gat_layer_sum: non-finite logits")
    peak = np.maximum.reduceat(logits[plan.order], plan.starts)
    ex = np.exp(logits - peak[plan.dst])
    alpha = ex / plan.scatter(ex)[plan.dst]
    per_head = plan.scatter(np.multiply(alpha[:, :, None], sent, out=scratch))
    out = per_head[:, 0]
    for h in range(1, heads):
        out = out + per_head[:, h]
    if heads > 1:
        out *= 1.0 / heads

    def backward(g):
        # Every head receives the upstream of the mean.
        g_e = (g * (1.0 / heads) if heads > 1 else g)[plan.dst][:, None]
        d_alpha = (g_e * sent).sum(axis=2)
        d_logits = alpha * (d_alpha - plan.scatter(alpha * d_alpha)[plan.dst])
        slopes = (act > 0) * (1.0 - slope) + slope
        d_pre = d_logits[:, :, None] * att_rows * slopes
        d_xv = plan.scatter(d_pre) \
            + plan.scatter(d_pre + alpha[:, :, None] * g_e, by_src=True)
        # Per-head products on contiguous slices, and the heads' input
        # gradients added in head order, give the bytes of per-head ops.
        d_x = None
        for h in range(heads):
            d_xv_h = np.ascontiguousarray(d_xv[:, h])
            _put(theta_v[h], xd.T @ d_xv_h)
            _put(theta_e[h], edge_features.T @ np.ascontiguousarray(d_pre[:, h]))
            _put(att[h], np.ascontiguousarray(act[:, h]).T
                 @ np.ascontiguousarray(d_logits[:, h]))
            part = d_xv_h @ theta_v[h].value.T
            if d_x is None:
                d_x = part
            else:
                d_x += part
        return d_x

    return _stage(x, out, "gat_layer_sum", params,
                  backward if train else None), alpha


# ------------------------------------------------------------------- readouts

def segment_sum(x: Tensor, segments, num_segments: int,
                train: bool = False) -> Tensor:
    """Sum rows (or elements) of ``x`` grouped by segment id."""
    segments = np.asarray(segments, dtype=np.int64)
    out = _scatter_sum(segments, x.data, num_segments)

    def backward(g):
        return g[segments]

    return _stage(x, out, "segment_sum", (), backward if train else None)


def block_attention_pool(x: Tensor, wq: Param, wk: Param, wv: Param,
                         blocks, train: bool = False) -> Tensor:
    """Self-attention within row blocks, summed over each block's rows.

    Q, K and V are ``x`` projected by ``wq``, ``wk`` and ``wv``. For block
    ``m``, which holds rows ``blocks[m]`` (slices that tile the rows in
    order), W is the row-wise softmax of ``Q K^T / sqrt(k)`` over the block,
    and output row ``m`` is ``1^T W V``: the weights' column sums times V.
    Shapes: (N, d), (d, k), (d, k), (d, d') -> (M, d').
    """
    xd = x.data
    if not blocks or blocks[-1].stop != len(xd):
        raise ShapeError(f"{len(xd)} rows do not fill the blocks")
    # One product for all three; each block of columns is the bytes of its
    # own product (see ``_row_invariant_product``).
    qkv = _row_invariant_product(xd, [wq.value, wk.value, wv.value])
    cuts = np.cumsum([0] + [p.value.shape[1] for p in (wq, wk, wv)])
    q, k, v = (np.ascontiguousarray(qkv[:, lo:hi])
               for lo, hi in zip(cuts[:-1], cuts[1:]))
    scale = 1.0 / np.sqrt(wk.value.shape[1])
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
        for p, d in ((wq, dq), (wk, dk), (wv, dv)):
            _put(p, xd.T @ d)
        return dq @ wq.value.T + dk @ wk.value.T + dv @ wv.value.T

    return _stage(x, out, "block_attention_pool", (wq, wk, wv),
                  backward if train else None)


# ----------------------------------------------------------------------- head

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def mlp_head(x: Tensor, extra: np.ndarray, hidden, out_weight: Param,
             out_bias: Param, stats, train: bool = False) -> Tensor:
    """A multilayer perceptron on ``[x | extra]``: hidden layers of linear,
    batch norm and ELU, then an output linear; (B, F) and (B, k) -> (B, n).

    ``hidden`` holds each hidden layer's (weight, bias, gamma, beta)
    :class:`Param` and ``stats`` its batch norm's (running_mean,
    running_var) arrays; ``extra`` is a constant. In training, batch norm
    normalizes by the batch, which needs at least 2 rows, and moves the
    running statistics in place; in inference the running statistics
    normalize. Every linear and batch-norm output is checked, since the ELU
    could hide a non-finite value, and the error names the layer and its
    parameters. Outputs and gradients are the bytes of the same steps run as
    separate ops, each product row-invariant (see
    ``_row_invariant_product``).
    """
    extra = np.asarray(extra, dtype=np.float64)
    b = len(x.data)
    z = np.concatenate([x.data, extra], axis=1)
    inputs, normed = [z], []
    for i, ((weight, bias, gamma, beta), (running_mean, running_var)) in \
            enumerate(zip(hidden, stats)):
        a = _row_invariant_product(z, [weight.value]) + bias.value
        _check_finite(a, f"mlp_head hidden layer {i} linear", (weight, bias))
        if train:
            if b < 2:
                raise ShapeError("training batch norm needs a batch of at "
                                 "least 2")
            mean = a.mean(axis=0)
            var = a.var(axis=0)
            running_mean *= 1 - BN_MOMENTUM
            running_mean += BN_MOMENTUM * mean
            running_var *= 1 - BN_MOMENTUM
            running_var += BN_MOMENTUM * var * b / (b - 1)
        else:
            mean, var = running_mean, running_var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (a - mean) * inv
        y = gamma.value * xhat + beta.value
        _check_finite(y, f"mlp_head hidden layer {i} batch norm", (gamma, beta))
        z = np.where(y > 0, y, np.expm1(np.minimum(y, 0.0)))  # ELU
        inputs.append(z)
        normed.append((y, inv, xhat))
    out = _row_invariant_product(z, [out_weight.value]) + out_bias.value

    def backward(g):
        # Walked back layer by layer as the tape walked the separate ops.
        _put(out_bias, g.sum(axis=0))
        _put(out_weight, inputs[-1].T @ g)
        g = g @ out_weight.value.T
        for i in reversed(range(len(hidden))):
            (weight, bias, gamma, beta), (y, inv, xhat) = hidden[i], normed[i]
            g = np.where(y > 0, g, (inputs[i + 1] + 1.0) * g)
            dxhat = g * gamma.value
            _put(beta, g.sum(axis=0))
            _put(gamma, (g * xhat).sum(axis=0))
            g = (inv / b) * (
                b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
            )
            _put(bias, g.sum(axis=0))
            _put(weight, inputs[i].T @ g)
            g = g @ weight.value.T
        return g[:, : x.shape[1]]

    return _stage(x, out, "mlp_head output layer", (out_weight, out_bias),
                  backward if train else None)


def range_sigmoid(raw: Tensor, lo, hi, train: bool = False) -> Tensor:
    """``lo + (hi - lo) * sigmoid(raw)``, which maps each column of ``raw``
    into the open interval between its ``lo`` and ``hi``. Output and
    gradient are the bytes of the sigmoid, product and sum run as separate
    ops."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    width = np.asarray(hi - lo, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    x = raw.data
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    s = np.where(x >= 0, 1.0 / d, e / d)
    out = s * width + lo

    def backward(g):
        return s * (1.0 - s) * (g * width)

    return _stage(raw, out, "range_sigmoid", (), backward if train else None)
