"""Dense float64 tensors with reverse-mode differentiation.

Every operation records its inputs and a vector-Jacobian closure on the
value it returns, so ``backward()`` on a scalar fills ``grad`` on every
reachable tensor. Tapes are per-forward-pass and single-threaded; separate
forward passes are independent.

All forward results are checked for NaN/Inf and trip :class:`NonFiniteError`
immediately, which keeps training divergence diagnosable; the error names
the op and every named input (model parameters carry their checkpoint
names). The check is one ``np.isfinite(data).all()`` per op; testing the
sum first is no faster and warns when finite values overflow.

Every scatter (``segment_sum``, the ``gather_rows`` VJP, and the softmax
denominators and sums of ``gat_layer_sum`` and its VJP) is one
``np.bincount`` call, which adds in input order as an unbuffered
``ufunc.at`` add does but without its per-element overhead, so sums are
bitwise those of the plain loop. ``gat_layer_sum`` runs a whole attention
layer, every head at once, as one op on (E, H, d) edge arrays; its outputs
and gradients are the bytes of the same heads run as separate ops. It
scatters through the :class:`ScatterPlan` of its graph batch, built once per
batch: the stable ``dst`` order and its segment starts, so one
``np.maximum.reduceat`` takes the segment maxima, and the flat
``dst * w + col`` and ``src * w + col`` indices, each built at the first
scatter of its width ``w`` and kept until ``forget``. No later layer or VJP
of the batch sorts or builds an index again. The parameter head is two
ops: ``mlp_head`` (the hidden linear, batch-norm and ELU layers and the
output linear) and ``range_sigmoid``; they check every linear and
batch-norm output inside, and their outputs and gradients are the bytes
of the same steps run as separate ops.
``backward`` stores the first gradient that reaches a tensor as a fresh
array and adds later ones to it in place, so no two tensors share a
gradient buffer.

The tape's recording is the one train/infer switch. Inside
``recording(False)`` ops record no tape, so an inference forward frees each
intermediate once it is read, and the batch norm of ``mlp_head`` uses
its running statistics, with no gradient. Forwards are batch-invariant: an output row
is the same bytes whatever rows run beside it (see
``_row_invariant_product`` and the ``einsum`` edge logits;
``tests/test_tensor.py`` pins the BLAS).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class NonFiniteError(FloatingPointError):
    pass


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

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
        """Fill ``grad`` on every tensor reachable from this scalar that
        requires one; constants are skipped and keep ``grad`` as it was.

        Grads inside the tape are reset first, so repeated calls on the same
        tape are bitwise identical.
        """
        if self.size != 1:
            raise ShapeError("backward() requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, grad in zip(node._parents, node._vjp(node.grad)):
                if grad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # A fresh array, since a VJP may hand back ``g`` or a view
                    # of it; ``+ 0.0`` turns -0.0 into 0.0 as ``0 + g`` would.
                    parent.grad = grad + 0.0
                else:
                    parent.grad += grad

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def _t(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_RECORDING = True


@contextmanager
def recording(on: bool):
    """Record the tape (``on``) or not, for the ops run inside the block."""
    global _RECORDING
    saved, _RECORDING = _RECORDING, on
    try:
        yield
    finally:
        _RECORDING = saved


def _check_finite(data: np.ndarray, op: str, inputs: tuple[Tensor, ...]):
    """Raise :class:`NonFiniteError` naming ``op`` and every named input
    unless ``data`` is all finite."""
    if not np.isfinite(data).all():
        names = ", ".join(repr(p.name) for p in inputs if p.name)
        raise NonFiniteError(f"non-finite value produced by {op}"
                             + (f" (inputs {names})" if names else ""))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    # The op is the function that defines the VJP closure.
    _check_finite(data, vjp.__qualname__.split(".")[0], parents)
    out = Tensor(data, requires_grad=_RECORDING
                 and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    return out


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
    every later layer and VJP until :meth:`forget`.
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------- arithmetic

def sub(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), vjp)


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


def matmul(a, b) -> Tensor:
    """(M, K) @ (K, N), row-invariant (see ``_row_invariant_product``)."""
    a, b = _t(a), _t(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D @ 2-D, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.ascontiguousarray(_row_invariant_product(a.data, [b.data]))

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), vjp)


# ------------------------------------------------------------- restructuring

def gather_rows(a, index) -> Tensor:
    """Select rows (or vector elements) by integer index, with repetitions."""
    a = _t(a)
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ShapeError("gather_rows expects a vector of row indices")
    out = a.data[index]
    rows = index % len(a.data) if index.size and index.min() < 0 else index

    def vjp(g):
        return (_scatter_sum(rows, g, len(a.data)),)

    return _make(out, (a,), vjp)


# ----------------------------------------------------------------- reductions

def mean_all(a) -> Tensor:
    a = _t(a)
    if a.size == 0:
        raise ShapeError("mean of an empty tensor")
    n = a.size
    out = np.asarray(a.data.mean())

    def vjp(g):
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _make(out, (a,), vjp)


def segment_sum(a, segments, num_segments: int) -> Tensor:
    """Sum rows (or elements) of ``a`` grouped by segment id."""
    a = _t(a)
    segments = np.asarray(segments, dtype=np.int64)
    out = _scatter_sum(segments, a.data, num_segments)

    def vjp(g):
        return (g[segments],)

    return _make(out, (a,), vjp)


# ------------------------------------------------------------------ attention

def gat_layer_sum(x, edge_features: np.ndarray, theta_v, theta_e, att,
                  plan: ScatterPlan, slope: float):
    """One GATv2 layer, all heads at once: attention over each node's
    incoming edges, summed, then averaged over the heads.

    Head ``h`` projects ``xv = x @ theta_v[h]`` and ``et = edge_features @
    theta_e[h]``. Edge ``k`` of ``plan`` sends row ``src[k]`` of ``xv`` to
    node ``dst[k]``; its logit is ``att[h] . LeakyReLU(xv[dst] + xv[src] +
    et[k])``, softmax-normalized over the edges that share a ``dst``, and
    node ``i`` receives the weighted sum of the rows sent to it. The heads'
    sums are added in head order and divided by H. Shapes: (N, in),
    (E, edge_dim), H x (in, d), H x (edge_dim, d), H x (d,) -> (N, d).
    Returns the output tensor and the (E, H) weights as an array; the edge
    features are a constant.
    """
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"LeakyReLU slope {slope} is outside [0, 1]")
    x, edge_features = _t(x), np.asarray(edge_features, dtype=np.float64)
    theta_v, theta_e, att = ([_t(p) for p in ps] for ps in (theta_v, theta_e, att))
    heads, n, e = len(theta_v), plan.num_nodes, len(plan.dst)
    d = theta_v[0].shape[-1] if heads else 0
    if not heads or len(theta_e) != heads or len(att) != heads \
            or x.ndim != 2 or x.shape[0] != n or edge_features.ndim != 2 \
            or len(edge_features) != e \
            or any(p.shape != (x.shape[1], d) for p in theta_v) \
            or any(p.shape != (edge_features.shape[1], d) for p in theta_e) \
            or any(p.shape != (d,) for p in att):
        raise ShapeError(f"attention layer shapes {x.shape}, "
                         f"{edge_features.shape}, "
                         f"{[p.shape for p in theta_v + theta_e + att]} do "
                         f"not fit {n} nodes, {e} edges and {heads} heads")
    xv = _row_invariant_product(x.data, [p.data for p in theta_v])
    xv = xv.reshape(n, heads, d)
    sent = xv[plan.src]
    act = xv[plan.dst]
    act += sent
    # The edge projections' (E, H, d) array then holds each later temporary
    # of that size, which spares a large batch most of its allocations.
    scratch = _row_invariant_product(edge_features, [p.data for p in theta_e]
                                     ).reshape(e, heads, d)
    act += scratch
    # LeakyReLU; for 0 <= slope <= 1 the maximum is the bytes of the
    # pre-activation times the VJP's ``slopes``.
    np.maximum(act, np.multiply(act, slope, out=scratch), out=act)
    att_rows = np.concatenate([p.data for p in att]).reshape(heads, d)
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

    def vjp(g):
        # Every head receives the upstream of the mean.
        g_e = (g * (1.0 / heads) if heads > 1 else g)[plan.dst][:, None]
        d_alpha = (g_e * sent).sum(axis=2)
        d_logits = alpha * (d_alpha - plan.scatter(alpha * d_alpha)[plan.dst])
        slopes = (act > 0) * (1.0 - slope) + slope
        d_pre = d_logits[:, :, None] * att_rows * slopes
        d_xv = plan.scatter(d_pre) \
            + plan.scatter(d_pre + alpha[:, :, None] * g_e, by_src=True)
        # Per-head products on contiguous slices, and the heads' input
        # gradients added in head order, give the bytes of per-head ops. A
        # constant input gets no gradient.
        d_x, d_v, d_e, d_att = None, [], [], []
        for h in range(heads):
            d_xv_h = np.ascontiguousarray(d_xv[:, h])
            d_v.append(x.data.T @ d_xv_h)
            d_e.append(edge_features.T @ np.ascontiguousarray(d_pre[:, h]))
            d_att.append(np.ascontiguousarray(act[:, h]).T
                         @ np.ascontiguousarray(d_logits[:, h]))
            if x.requires_grad:
                part = d_xv_h @ theta_v[h].data.T
                if d_x is None:
                    d_x = part
                else:
                    d_x += part
        return (d_x, *d_v, *d_e, *d_att)

    return _make(out, (x, *theta_v, *theta_e, *att), vjp), alpha


def block_attention_sum(q, k, v, bounds, logit_scale: float) -> Tensor:
    """Self-attention within row blocks, summed over each block's rows.

    Block ``m`` holds rows ``bounds[m]:bounds[m + 1]``; with W the row-wise
    softmax of ``logit_scale * Q K^T`` over the block, its output row is
    ``1^T W V``: the weights' column sums times V. Shapes: (N, k), (N, k),
    (N, d) -> (M, d).
    """
    q, k, v = _t(q), _t(k), _t(v)
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.ndim != 1 or len(bounds) < 2 or bounds[0] != 0 \
            or np.any(np.diff(bounds) < 1):
        raise ShapeError("block bounds must rise from 0 in non-empty blocks")
    if not q.shape[0] == k.shape[0] == v.shape[0] == bounds[-1]:
        raise ShapeError(f"block rows {q.shape}, {k.shape}, {v.shape} do not "
                         f"match bounds ending at {bounds[-1]}")
    blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    weights = []
    out = np.empty((len(blocks), v.shape[1]))
    for m, rows in enumerate(blocks):
        logits = logit_scale * (q.data[rows] @ k.data[rows].T)
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = ex / ex.sum(axis=1, keepdims=True)
        weights.append(w)
        out[m] = w.sum(axis=0) @ v.data[rows]

    def vjp(g):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for m, rows in enumerate(blocks):
            w = weights[m]
            dv[rows] = np.outer(w.sum(axis=0), g[m])
            dcol = v.data[rows] @ g[m]  # gradient of each column sum
            dlogits = logit_scale * w * (dcol - (w @ dcol)[:, None])
            dq[rows] = dlogits @ k.data[rows]
            dk[rows] = dlogits.T @ q.data[rows]
        return dq, dk, dv

    return _make(out, (q, k, v), vjp)


# ----------------------------------------------------------------------- loss

def huber(a, delta: float) -> Tensor:
    """Elementwise Huber value: quadratic inside ``delta``, linear outside."""
    a = _t(a)
    if delta <= 0:
        raise ValueError("delta must be positive")
    absd = np.abs(a.data)
    inside = absd <= delta
    out = np.where(inside, 0.5 * a.data**2, delta * (absd - 0.5 * delta))

    def vjp(g):
        return (np.where(inside, a.data, delta * np.sign(a.data)) * g,)

    return _make(out, (a,), vjp)


# ----------------------------------------------------------------------- head

BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def mlp_head(x, extra: np.ndarray, hidden, out_weight, out_bias,
             stats) -> Tensor:
    """A multilayer perceptron on ``[x | extra]``: hidden layers of linear,
    batch norm and ELU, then an output linear; (B, F) and (B, k) -> (B, n).

    ``hidden`` holds each hidden layer's (weight, bias, gamma, beta) and
    ``stats`` its batch norm's (running_mean, running_var) arrays; ``extra``
    is a constant. While the tape records, batch norm normalizes by the
    batch, which needs at least 2 rows, and moves the running statistics in
    place; inside ``recording(False)`` the running statistics normalize.
    Every linear and batch-norm output is checked, since the ELU could hide
    a non-finite value, and the error names the layer and its parameters.
    Outputs and gradients are the bytes of the same steps run as separate
    ops, each product row-invariant (see ``_row_invariant_product``).
    """
    x, out_weight, out_bias = _t(x), _t(out_weight), _t(out_bias)
    hidden = [[_t(p) for p in layer] for layer in hidden]
    extra = np.asarray(extra, dtype=np.float64)
    b = len(x.data)
    z = np.concatenate([x.data, extra], axis=1)
    inputs, normed = [z], []
    for i, ((weight, bias, gamma, beta), (running_mean, running_var)) in \
            enumerate(zip(hidden, stats)):
        a = _row_invariant_product(z, [weight.data]) + bias.data
        _check_finite(a, f"mlp_head hidden layer {i} linear", (weight, bias))
        if _RECORDING:
            if b < 2:
                raise ShapeError("recording batch norm needs a batch of at "
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
        y = gamma.data * xhat + beta.data
        _check_finite(y, f"mlp_head hidden layer {i} batch norm", (gamma, beta))
        z = np.where(y > 0, y, np.expm1(np.minimum(y, 0.0)))  # ELU
        inputs.append(z)
        normed.append((y, inv, xhat))
    out = _row_invariant_product(z, [out_weight.data]) + out_bias.data
    _check_finite(out, "mlp_head output layer", (out_weight, out_bias))

    def vjp(g):
        # Walked back layer by layer as the tape walks the separate ops,
        # with its ``+ 0.0`` on each intermediate's first gradient (twice in
        # a row changes nothing, so the linear's sum and product share one).
        grads = [g.sum(axis=0)]
        g = g + 0.0
        grads.append(inputs[-1].T @ g)
        g = g @ out_weight.data.T + 0.0
        for i in reversed(range(len(hidden))):
            (weight, _, gamma, _), (y, inv, xhat) = hidden[i], normed[i]
            g = np.where(y > 0, g, (inputs[i + 1] + 1.0) * g) + 0.0
            dxhat = g * gamma.data
            dx = (inv / b) * (
                b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
            )
            grads += [g.sum(axis=0), (g * xhat).sum(axis=0)]
            g = dx + 0.0
            grads += [g.sum(axis=0), inputs[i].T @ g]
            g = g @ weight.data.T + 0.0
        grads.append(g[:, : x.shape[1]])
        return grads[::-1]

    return _make(out, (x, *[p for layer in hidden for p in layer], out_weight,
                       out_bias), vjp)


def range_sigmoid(raw, lo, hi) -> Tensor:
    """``lo + (hi - lo) * sigmoid(raw)``, which maps each column of ``raw``
    into the open interval between its ``lo`` and ``hi``. Output and
    gradient are the bytes of the sigmoid, product and sum run as separate
    ops."""
    raw = _t(raw)
    lo, hi = np.asarray(lo), np.asarray(hi)
    width = np.asarray(hi - lo, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    x = raw.data
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    s = np.where(x >= 0, 1.0 / d, e / d)
    out = s * width + lo

    def vjp(g):
        return (s * (1.0 - s) * (g * width + 0.0),)

    return _make(out, (raw,), vjp)
