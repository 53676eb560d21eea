"""Full model: graph attention stack, readout, and the bounded parameter head.

The head maps the pooled embedding plus hydrogen donor/acceptor counts
through hidden layers (linear -> batch norm -> ELU) to three raw outputs,
each squashed into ``antoine.PARAM_RANGES`` by ``lo + (hi - lo) * sigmoid``,
so every prediction is a valid vapor-pressure curve by construction. The head's
output is one (B, 3) tensor whose columns are A, B and C.

:func:`forward_antoine` runs the model as one linear chain of stages
(``tensor``): one ``gnn.gat_forward`` per message-passing layer, one
pooling stage (``pooling.interaction_pool`` or ``sum_pool``), then the
head's two stages, defined here: :func:`head_raw`, the hidden stack with
its batch norms, and :func:`scale_to_ranges`, the sigmoid range map.
"""

from __future__ import annotations

import binascii
import itertools
import json
import math
import os
from collections import OrderedDict
from dataclasses import InitVar, dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

from .antoine import (PA_PER_KPA, PARAM_RANGES, AntoineParams, _ln_p_kpa,
                      boiling_temperature, ln_vapor_pressure)
from .featurize import EDGE_FEATURES, NODE_FEATURES, MolGraph, featurize
from .gnn import GatLayer, batch_graphs, encode, glorot
from .metrics import PredictedPoints
from .pooling import InteractionPoolParams, interaction_pool, sum_pool
from .smiles import parse_smiles
from .tensor import (Param, ShapeError, Tensor, _check_finite, _put,
                     _row_invariant_product, _stage)

CHECKPOINT_VERSION = 3
EXTRA_HEAD_INPUTS = 2  # hydrogen donor and acceptor counts
# Heavy atoms per inference forward; a larger molecule runs alone. A
# forward's per-layer (E, H, d) temporaries grow with its atoms and outgrow
# a 2 MiB L2 cache near 50 molecules (~1,200 atoms), where the same
# molecules ran ~1.5x slower in one forward than in forwards of 256-384
# atoms (one BLAS thread, 2-core x86-64 VM). The budget changes no output:
# a molecule gets the same bytes in any batch.
INFER_ATOMS = 320
# The head's batch norm: the weight of each batch in the running statistics,
# and the variance floor.
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
# Distinct SMILES whose (A, B, C) row each model keeps for ``predict``,
# least recently used first out. A miss pays what it did without the memo.
PREDICT_MEMO_SIZE = 256
# Floats an architecture's weight vector may hold (1 GiB of float64; the
# gradient vector is as large again), so a huge size is refused before any
# allocation.
MAX_MODEL_FLOATS = 2**27
# Arch keys fixed by the package: a document may omit them or give these values.
_FIXED_ARCH = {"node_features": NODE_FEATURES, "edge_features": EDGE_FEATURES,
               "param_ranges": {k: list(v) for k, v in PARAM_RANGES.items()}}
# The keys of a checkpoint document and of each of its ``params`` entries.
CHECKPOINT_KEYS = frozenset({"format_version", "arch", "params", "data"})
ENTRY_KEYS = frozenset({"shape", "offset"})


def refuse_unknown_keys(what: str, data: dict, allowed: set | frozenset):
    """Raise ``ValueError`` naming every key of ``data`` not in ``allowed``."""
    if not data.keys() <= allowed:
        raise ValueError(f"{what} has unknown keys: "
                         f"{sorted(data.keys() - allowed)}")


@dataclass(frozen=True)
class Architecture:
    """The model's sizes, checked when built and never changed after; a
    ``count_scale`` list is held as a tuple."""

    gat_layers: int = 4
    heads: int = 2
    embed_dim: int = 32
    pooling: str = "interaction"
    hidden_layers: int = 3
    hidden_width: int = 16
    count_scale: tuple | None = None  # (mean_d, std_d, mean_a, std_a), optional

    def __post_init__(self):
        for key in ("gat_layers", "heads", "embed_dim", "hidden_layers",
                    "hidden_width"):
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"arch {key} must be an integer, got {value!r}")
        if self.gat_layers < 2:
            raise ValueError("at least two message-passing layers are required")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.hidden_layers < 1:
            raise ValueError("hidden_layers must be >= 1")
        if self.embed_dim < 1 or self.hidden_width < 1:
            raise ValueError("embed_dim and hidden_width must be >= 1")
        if self.pooling not in ("sum", "interaction"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if (size := _vector_size(self)) > MAX_MODEL_FLOATS:
            raise ValueError(f"arch would hold {size} floats, more than the "
                             f"{MAX_MODEL_FLOATS} allowed")
        scale = self.count_scale
        if scale is not None and not (
                isinstance(scale, (list, tuple)) and len(scale) == 4
                and all(map(_is_finite_number, scale))
                and scale[1] > 0 and scale[3] > 0):
            raise ValueError("count_scale must be null or four finite numbers "
                             f"with positive standard deviations, got {scale!r}")
        if scale is not None:
            object.__setattr__(self, "count_scale", tuple(scale))

    def to_dict(self) -> dict:
        data = asdict(self)  # checkpoints keep the box where its field stood
        data["param_ranges"] = {k: list(v) for k, v in PARAM_RANGES.items()}
        data["count_scale"] = data.pop("count_scale")
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Architecture":
        if not isinstance(data, dict):
            raise ValueError(f"arch must be an object, got {type(data).__name__}")
        refuse_unknown_keys("arch", data,
                            {f.name for f in fields(cls)} | _FIXED_ARCH.keys())
        for key, fixed in _FIXED_ARCH.items():
            if key in data and not _is_fixed(data[key], fixed):
                raise ValueError(f"arch {key} must be the package's {fixed}, "
                                 f"got {data[key]!r}")
        return cls(**{key: value for key, value in data.items()
                      if key not in _FIXED_ARCH})


def _is_fixed(value, fixed) -> bool:
    """Whether JSON ``value`` is ``fixed``, an integer where it holds one."""
    if isinstance(fixed, dict):
        return (isinstance(value, dict) and value.keys() == fixed.keys()
                and all(_is_fixed(value[key], fixed[key]) for key in fixed))
    if isinstance(fixed, list):
        return (isinstance(value, list) and len(value) == len(fixed)
                and all(map(_is_fixed, value, fixed)))
    return type(value) in (int, type(fixed)) and value == fixed


def _vector_size(arch: Architecture) -> int:
    """Floats in the weight vector of ``arch``, every array of
    :func:`_array_specs` counted in closed form, so no size is looped over."""
    d, w, heads = arch.embed_dim, arch.hidden_width, arch.heads
    per_layer = EDGE_FEATURES * d + d  # theta_e and att of one head
    gat = heads * (NODE_FEATURES * d + per_layer
                   + (arch.gat_layers - 1) * (d * d + per_layer))
    pool = 3 * d * d if arch.pooling == "interaction" else 0
    # Each hidden layer: its weight, then bias, gamma, beta and two running
    # statistics of width w; then the w x 3 output weight and 3 biases.
    head = ((d + EXTRA_HEAD_INPUTS) * w + (arch.hidden_layers - 1) * w * w
            + 5 * w * arch.hidden_layers + 3 * w + 3)
    return gat + pool + head


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class GrappaModel:
    """The architecture and one float64 vector, ``values``, laid out as
    :func:`_array_specs` and filled from ``initial`` (an array or a number
    by checkpoint name). ``params`` and ``buffers`` name views of it in
    entry order, and ``weights`` is its trainable part; ``grad`` is laid out
    like ``weights``, and ``grads`` names its views. The stages read them
    as :class:`tensor.Param`s: ``gat`` and ``pool`` hold blocks, each a
    wide view of both vectors named by its entries in order, and ``head``
    holds one per entry, as :func:`head_raw` reads them.
    ``memo`` is the :class:`RowMemo` of :func:`predict`."""

    arch: Architecture
    initial: InitVar[dict]
    values: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    params: dict[str, np.ndarray] = field(init=False, repr=False)
    grads: dict[str, np.ndarray] = field(init=False, repr=False)
    buffers: dict[str, np.ndarray] = field(init=False, repr=False)
    gat: list[GatLayer] = field(init=False, repr=False)
    pool: InteractionPoolParams | None = field(init=False, repr=False)
    head: tuple = field(init=False, repr=False)
    memo: RowMemo | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self, initial: dict):
        specs = list(_array_specs(self.arch))
        self.values = np.empty(sum(math.prod(shape) for _, shape, _, _ in specs))
        # The parameters lead the vector, so each one's gradient sits at the
        # same offset of ``grad``.
        self.grad = np.zeros(sum(math.prod(shape) for name, shape, _, _ in specs
                                 if ".bn.running_" not in name))
        self.weights = self.values[: self.grad.size]
        # A block's entries sit side by side along their last axis, laid out
        # at its entry 0 as (..., count, width) views of the two vectors.
        blocks, start = {}, 0
        self.params, self.grads, self.buffers = {}, {}, {}
        for name, shape, _, (key, i, count) in specs:
            if not i:
                end = start + math.prod(shape) * count
                apart = (*shape[:-1], count, shape[-1])
                blocks[key] = (self.values[start:end].reshape(apart),
                               self.grad[start:end].reshape(apart)
                               if end <= self.grad.size else None, [])
                start = end
            v, g, names = blocks[key]
            names.append(name)
            value = v[..., i, :]
            value[...] = initial[name]
            if g is None:  # a running statistic, past the parameters
                self.buffers[name] = value
            else:
                self.params[name] = value
                self.grads[name] = g[..., i, :]

        def block(key):  # (rows, count width), named by its entries
            v, g, names = blocks[key]
            return Param(v.reshape(len(v), -1), g.reshape(len(g), -1),
                         tuple(names))

        def entry(name):
            return Param(self.params[name], self.grads[name], name)

        self.gat = [GatLayer(*(block(f"gat.{li}.{key}")
                               for key in ("theta_v", "theta_e", "att")))
                    for li in range(self.arch.gat_layers)]
        self.pool = None
        if self.arch.pooling == "interaction":
            self.pool = InteractionPoolParams(block("pool"), self.arch.embed_dim)
        layers = [f"head.{i}" for i in range(self.arch.hidden_layers)]
        self.head = (
            [[entry(f"{layer}.{key}") for key in ("weight", "bias", "bn.gamma",
                                                  "bn.beta")] for layer in layers],
            entry("head.out.weight"), entry("head.out.bias"),
            [[self.buffers[f"{layer}.bn.running_{key}"] for key in ("mean", "var")]
             for layer in layers])

    def named_parameters(self) -> dict[str, np.ndarray]:
        return self.params

    def named_buffers(self) -> dict[str, np.ndarray]:
        return self.buffers

    def snapshot(self) -> np.ndarray:
        """A copy of :attr:`values`."""
        return self.values.copy()

    def restore(self, snapshot: np.ndarray):
        """Copy a :meth:`snapshot` back into :attr:`values` in place."""
        self.values[...] = snapshot

    def parameter_count(self) -> int:
        return self.weights.size

    def accounting(self) -> list[dict]:
        return [{"name": name, "shape": list(t.shape), "count": int(t.size)}
                for name, t in self.params.items()]


def _array_specs(arch: Architecture):
    """Yield ``(name, shape, fill, block)`` of every array in entry order:
    the parameters in :func:`init_model`'s draw order, then the batch-norm
    running statistics. A ``None`` fill is a Glorot draw. A ``(key, i,
    count)`` block lies where its entry 0 is, its entries side by side along
    their last axis; an array alone is the block ``(name, 0, 1)``. Lazy, so
    a caller can stop after as many entries as it can check."""
    d, w, heads = arch.embed_dim, arch.hidden_width, arch.heads
    in_dim = NODE_FEATURES
    for li in range(arch.gat_layers):
        v, e, a = f"gat.{li}.theta_v", f"gat.{li}.theta_e", f"gat.{li}.att"
        for hi in range(heads):
            yield f"gat.{li}.{hi}.theta_v", (in_dim, d), None, (v, hi, heads)
            yield f"gat.{li}.{hi}.theta_e", (EDGE_FEATURES, d), None, (e, hi, heads)
            yield f"gat.{li}.{hi}.att", (d,), None, (a, hi, heads)
        in_dim = d
    if arch.pooling == "interaction":
        for i, key in enumerate(("Wq", "Wk", "Wv")):
            yield f"pool.{key}", (d, d), None, ("pool", i, 3)
    stats = []
    width_in = d + EXTRA_HEAD_INPUTS
    for i in range(arch.hidden_layers):
        for name, shape, fill in [(f"head.{i}.weight", (width_in, w), None),
                                  (f"head.{i}.bias", (w,), 0.0),
                                  (f"head.{i}.bn.gamma", (w,), 1.0),
                                  (f"head.{i}.bn.beta", (w,), 0.0)]:
            yield name, shape, fill, (name, 0, 1)
        stats += [(f"head.{i}.bn.running_mean", (w,), 0.0),
                  (f"head.{i}.bn.running_var", (w,), 1.0)]
        width_in = w
    for name, shape, fill in [("head.out.weight", (width_in, 3), None),
                              ("head.out.bias", (3,), 0.0), *stats]:
        yield name, shape, fill, (name, 0, 1)


def init_model(arch: Architecture, seed: int | np.random.SeedSequence = 0) -> GrappaModel:
    """A fresh model: Glorot-uniform weights drawn from ``seed``, zero biases,
    unit batch-norm scales and fresh running statistics."""
    rng = np.random.default_rng(seed)
    return GrappaModel(arch, {name: glorot(rng, shape) if fill is None else fill
                              for name, shape, fill, _ in _array_specs(arch)})


# ------------------------------------------------------------------ forward

def _count_features(model: GrappaModel, donors, acceptors) -> np.ndarray:
    """(B, 2) hydrogen donor and acceptor counts, standardized when the
    architecture carries count statistics."""
    counts = np.column_stack([donors, acceptors]).astype(np.float64)
    if model.arch.count_scale is not None:
        mean_d, std_d, mean_a, std_a = model.arch.count_scale
        counts[:, 0] = (counts[:, 0] - mean_d) / std_d
        counts[:, 1] = (counts[:, 1] - mean_a) / std_a
    return counts


def head_raw(model: GrappaModel, pooled: Tensor, counts: np.ndarray,
             train: bool = False) -> Tensor:
    """The hidden stack on ``[pooled | counts]``: hidden layers of linear,
    batch norm and ELU, then an output linear; (B, d) and (B, 2) -> the
    (B, 3) raw outputs.

    ``model.head`` holds each hidden layer's (weight, bias, gamma, beta)
    :class:`Param`, the output weight and bias, and each batch norm's
    (running_mean, running_var); ``counts`` is a constant. Training batch
    norm normalizes by the batch (at least 2 rows) and moves the running
    statistics in place; inference normalizes by them. Every linear and
    batch-norm output is checked, as the ELU could hide a non-finite value.
    Outputs and gradients are the bytes of the same steps run as separate
    ops, each product row-invariant (``tensor._row_invariant_product``)."""
    hidden, out_weight, out_bias, stats = model.head
    extra = np.asarray(counts, dtype=np.float64)
    b = len(pooled.data)
    z = np.concatenate([pooled.data, extra], axis=1)
    inputs, normed = [z], []
    for i, ((weight, bias, gamma, beta), (running_mean, running_var)) in \
            enumerate(zip(hidden, stats)):
        a = _row_invariant_product(z, weight.value) + bias.value
        _check_finite(a, f"head_raw hidden layer {i} linear", (weight, bias))
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
        _check_finite(y, f"head_raw hidden layer {i} batch norm", (gamma, beta))
        z = np.where(y > 0, y, np.expm1(np.minimum(y, 0.0)))  # ELU
        inputs.append(z)
        normed.append((y, inv, xhat))
    out = _row_invariant_product(z, out_weight.value) + out_bias.value

    def backward(g):
        # Walked back layer by layer as the tape walked the separate ops.
        _put(out_bias.grad, g.sum(axis=0))
        _put(out_weight.grad, inputs[-1].T @ g)
        g = g @ out_weight.value.T
        for i in reversed(range(len(hidden))):
            (weight, bias, gamma, beta), (y, inv, xhat) = hidden[i], normed[i]
            g = np.where(y > 0, g, (inputs[i + 1] + 1.0) * g)
            dxhat = g * gamma.value
            _put(beta.grad, g.sum(axis=0))
            _put(gamma.grad, (g * xhat).sum(axis=0))
            g = (inv / b) * (
                b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
            )
            _put(bias.grad, g.sum(axis=0))
            _put(weight.grad, inputs[i].T @ g)
            g = g @ weight.value.T
        return g[:, : pooled.shape[1]]

    return _stage(pooled, out, "head_raw output layer", (out_weight, out_bias),
                  backward if train else None)


def scale_to_ranges(raw: Tensor, ranges: dict, train: bool = False) -> Tensor:
    """``lo + (hi - lo) * sigmoid(raw)``, which maps each raw column (A, B,
    C) into the open interval of its ``ranges`` entry ``[lo, hi]``. Output
    and gradient are the bytes of the sigmoid, product and sum run as
    separate ops."""
    lo, hi = np.array([ranges[key] for key in ("A", "B", "C")],
                      dtype=np.float64).T
    width = hi - lo
    x = raw.data
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    s = np.where(x >= 0, 1.0 / d, e / d)
    out = s * width + lo

    def backward(g):
        return s * (1.0 - s) * (g * width)

    return _stage(raw, out, "scale_to_ranges", (), backward if train else None)


def forward_antoine(model: GrappaModel, graphs: list[MolGraph],
                    train: bool = False) -> Tensor:
    """(B, 3) Antoine parameters, columns A, B, C, with the molecules run
    through message passing and readout as one disjoint graph. With
    ``train`` every stage keeps its backward and batch norm normalizes by
    the batch; an inference forward keeps no backward, so its result cannot
    backpropagate."""
    batch = batch_graphs(graphs)
    embeddings = encode(batch, model.gat, train)
    if model.arch.pooling == "interaction":
        pooled = interaction_pool(embeddings, batch, model.pool, train)
    else:
        pooled = sum_pool(embeddings, batch, train)
    counts = _count_features(model, [g.h_donors for g in graphs],
                             [g.h_acceptors for g in graphs])
    raw = head_raw(model, pooled, counts, train)
    return scale_to_ranges(raw, PARAM_RANGES, train)


@dataclass(frozen=True)
class Components:
    """Featurized components, with their data points laid end to end in
    component order."""

    names: list[str]
    graphs: list[MolGraph]
    temperatures: np.ndarray  # (P,) in K
    pressures_pa: np.ndarray  # (P,)
    molecule: np.ndarray  # (P,) index into ``graphs`` of each point

    def take(self, index) -> "Components":
        """The components at ``index``, in that order, with their points."""
        lo = np.searchsorted(self.molecule, index)
        hi = np.searchsorted(self.molecule, index, side="right")
        rows = np.concatenate([np.arange(0), *map(np.arange, lo, hi)])
        return Components([self.names[i] for i in index],
                          [self.graphs[i] for i in index],
                          self.temperatures[rows], self.pressures_pa[rows],
                          np.repeat(np.arange(len(index)), hi - lo))


def prepare_components(dataset, split: str | None = None) -> Components:
    """Parse and featurize each component of a dataset (optionally of one
    split), in sorted order, and gather its points. A component whose rows
    name two SMILES raises ``ValueError``."""
    groups = [(name, pts) for name, pts in sorted(dataset.by_component().items())
              if split is None or dataset.split_label(name) == split]
    for name, group in groups:
        for pt in group:
            if pt.smiles != group[0].smiles:
                raise ValueError(f"component {name!r} names two SMILES, "
                                 f"{group[0].smiles!r} and {pt.smiles!r}")
    points = [pt for _, group in groups for pt in group]
    return Components(
        names=[name for name, _ in groups],
        graphs=[featurize(parse_smiles(group[0].smiles)) for _, group in groups],
        temperatures=np.array([pt.temperature_k for pt in points], dtype=float),
        pressures_pa=np.array([pt.pressure_pa for pt in points], dtype=float),
        molecule=np.repeat(np.arange(len(groups)),
                           [len(group) for _, group in groups]))


def _packs(graphs: list[MolGraph]) -> list[slice]:
    """Consecutive runs of ``graphs``, each of at most :data:`INFER_ATOMS`
    heavy atoms or of one molecule, covering them in order."""
    packs, start, atoms = [], 0, 0
    for i, graph in enumerate(graphs):
        if i > start and atoms + graph.heavy_atom_count > INFER_ATOMS:
            packs.append(slice(start, i))
            start, atoms = i, 0
        atoms += graph.heavy_atom_count
    if start < len(graphs):
        packs.append(slice(start, len(graphs)))
    return packs


def predict_components(model: GrappaModel, comps: Components
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, 3) rows of A, B, C, and the predicted ln(p/kPa) and pressure in Pa
    at every point; points off a curve's valid branch get an infinite
    pressure. Each inference forward takes the next molecules in order while
    they hold at most :data:`INFER_ATOMS` heavy atoms, or one molecule."""
    rows = np.concatenate([np.empty((0, 3))] + [
        forward_antoine(model, comps.graphs[pack]).data
        for pack in _packs(comps.graphs)])
    ln_p = _ln_p_kpa(*rows[comps.molecule].T, comps.temperatures)[0]
    return rows, ln_p, np.exp(ln_p) * PA_PER_KPA


@dataclass(frozen=True)
class Prediction:
    params: AntoineParams
    ln_p_kpa: float | np.ndarray | None = None
    p_pa: float | np.ndarray | None = None
    boiling_k: float | None = None


class RowMemo(NamedTuple):
    """The (A, B, C) rows :func:`predict` computed under one state of a
    model: the bits of its ``values`` (an int64 copy) and its ``arch``,
    which never changes, so it is held as it is. ``rows`` maps each SMILES
    to its row, least recently used first."""

    bits: np.ndarray
    arch: Architecture
    rows: OrderedDict


def predict(model: GrappaModel, smiles: str, temperatures=None,
            boil_pressure_pa: float | None = None) -> Prediction:
    """Parse, check scope, and run the whole pipeline in inference mode;
    out-of-scope molecules raise :class:`ScopeError` from ``featurize``.

    The (A, B, C) row comes from ``model.memo`` while the model's ``values``
    are bit for bit those it was computed under and its ``arch`` is that
    object; any other state starts a new memo, stored once a row is ready. It
    keeps the rows of the last :data:`PREDICT_MEMO_SIZE` distinct SMILES; a
    row not held parses, featurizes and runs :func:`forward_antoine`, and a
    refused SMILES leaves the memo as it was. Each step is one dict or
    attribute operation, so threads sharing a model never see it raise."""
    bits, memo = model.values.view(np.int64), model.memo
    if memo is None or memo.arch is not model.arch \
            or not np.array_equal(memo.bits, bits):
        memo = RowMemo(bits.copy(), model.arch, OrderedDict())
    # Only a str is looked up, so any other object gets parse_smiles' error.
    row = memo.rows.pop(smiles, None) if isinstance(smiles, str) else None
    if row is None:
        graph = featurize(parse_smiles(smiles))
        row = tuple(forward_antoine(model, [graph]).data[0].tolist())
    model.memo = memo
    memo.rows[smiles] = row
    if len(memo.rows) > PREDICT_MEMO_SIZE:
        memo.rows.popitem(last=False)
    params = AntoineParams(*row)
    ln_p = p = None
    if temperatures is not None:
        ln_p = ln_vapor_pressure(params, temperatures)
        p = np.exp(ln_p) * PA_PER_KPA
        if np.isscalar(ln_p):
            p = float(p)
    boiling = None
    if boil_pressure_pa is not None:
        boiling = boiling_temperature(params, boil_pressure_pa)
    return Prediction(params, ln_p, p, boiling)


def predict_dataset(model: GrappaModel, dataset, split: str | None = None
                    ) -> tuple[PredictedPoints, dict[str, AntoineParams]]:
    """Inference over every component of a dataset (optionally one split).

    Returns ``(points, params_by_component)`` ready for the metrics layer;
    points whose temperature falls outside a predicted curve's valid branch
    get an infinite predicted pressure.
    """
    comps = prepare_components(dataset, split)
    rows, ln_p, p_pred = predict_components(model, comps)
    params_by_component = {name: AntoineParams(*row)
                           for name, row in zip(comps.names, rows.tolist())}
    points = PredictedPoints(
        component_id=np.array(comps.names, dtype=object)[comps.molecule],
        temperature_k=comps.temperatures, p_exp_pa=comps.pressures_pa,
        p_pred_pa=p_pred,
        mol_weight=np.array([g.mol_weight for g in comps.graphs])[comps.molecule],
        ln_p_pred_kpa=ln_p)
    return points, params_by_component


# --------------------------------------------------------------- checkpoints

def _check_entry(name: str, entry, shape: tuple, offset: int):
    """Raise ``ValueError`` naming a ``params`` entry that is not an object
    of exactly ``shape`` (a list of JSON integers) and ``offset`` (a JSON
    integer), as the arch implies them."""
    if not isinstance(entry, dict):
        raise ValueError(f"entry {name!r} must be an object")
    stored = entry.get("shape")
    # JSON integers only: 3.0 is not a dimension, nor false an offset.
    if not isinstance(stored, list) or tuple(stored) != shape \
            or not all(type(n) is int for n in stored):
        raise ValueError(f"entry {name!r} has shape {stored!r}, "
                         f"expected {list(shape)}")
    if type(entry.get("offset")) is not int or entry["offset"] != offset:
        raise ValueError(f"entry {name!r} has offset {entry.get('offset')!r}, "
                         f"expected {offset}")
    if len(entry) > len(ENTRY_KEYS):  # it holds both, so another key too
        refuse_unknown_keys(f"entry {name!r}", entry, ENTRY_KEYS)


def _entry_arrays(data: dict, arch: Architecture) -> dict[str, np.ndarray]:
    """The float64 array of every entry of a checkpoint document by name:
    read-only views of its one decoded ``data``. Raises ``ValueError``
    naming the first defect of the document's form before allocating
    anything the arch sizes: the arch's entries are listed only as far as
    ``params`` holds entries, and nothing is decoded before every entry has
    the name, shape and offset the arch implies. The values themselves are
    checked once loaded (:func:`_check_values`)."""
    entries = data.get("params")
    if not isinstance(entries, dict):
        raise ValueError("checkpoint 'params' must be an object")
    # One entry past the document's count shows that the arch implies more.
    specs = [(name, shape) for name, shape, _, _ in
             itertools.islice(_array_specs(arch), len(entries) + 1)]
    names = {name for name, _ in specs}
    missing = sorted(names - entries.keys())
    if missing:
        raise ValueError(f"checkpoint missing entries: {missing}")
    unknown = sorted(entries.keys() - names)
    if unknown:
        raise ValueError(f"checkpoint has unknown entries: {unknown}")
    offsets = [0]
    for name, shape in specs:
        _check_entry(name, entries[name], shape, offsets[-1])
        offsets.append(offsets[-1] + math.prod(shape))
    text = data.get("data")
    if not isinstance(text, str):
        raise ValueError("checkpoint 'data' must be a string of hex digits, "
                         f"got {type(text).__name__}")
    try:
        raw = binascii.unhexlify(text)  # no whitespace, unlike bytes.fromhex
    except ValueError as err:
        raise ValueError(f"checkpoint 'data' is not hex ({err})") from None
    if len(raw) != 8 * offsets[-1]:
        raise ValueError(f"checkpoint 'data' holds {len(raw)} bytes, expected "
                         f"{8 * offsets[-1]} for the entries' shapes")
    flat = np.frombuffer(raw, dtype="<f8")
    return {name: flat[start:end].reshape(shape)
            for (name, shape), start, end in zip(specs, offsets, offsets[1:])}


def _check_values(model: GrappaModel):
    """Raise ``ValueError`` naming the first entry, in entry order, that
    holds a non-finite value or a negative running variance. One pass over
    the vector and one over its variances find whether there is one; the
    entries are searched only then."""
    arch = model.arch
    stats = model.values[model.weights.size :].reshape(
        arch.hidden_layers, 2, arch.hidden_width)  # mean, then var, per layer
    if np.isfinite(model.values).all() and not (stats[:, 1] < 0).any():
        return
    for name, arr in (model.params | model.buffers).items():
        if not np.isfinite(arr).all():
            raise ValueError(f"entry {name!r} holds a non-finite value")
        if name.endswith(".running_var") and (arr < 0).any():
            raise ValueError(f"entry {name!r} holds a negative variance")


def to_checkpoint(model: GrappaModel) -> dict:
    """The model as a format-3 document: its ``arch``, every entry's shape
    and offset (its first float in ``data``) in entry order, and ``data``,
    the lowercase hex of all entries' little-endian float64 bytes, row-major
    and end to end in entry order."""
    arrays = model.params | model.buffers
    params, offset = {}, 0
    for name, arr in arrays.items():
        params[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.size
    raw = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                   for arr in arrays.values())
    return {
        "format_version": CHECKPOINT_VERSION,
        "arch": model.arch.to_dict(),
        "params": params,
        "data": raw.hex(),
    }


def save_checkpoint(model: GrappaModel, path):
    """Write :func:`to_checkpoint` of ``model`` to ``path``: into a new file
    beside it, then moved onto it, so a save that fails leaves the file that
    was there and no new file."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            json.dump(to_checkpoint(model), fh)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def model_from_checkpoint(data: dict) -> GrappaModel:
    """Build the model a format-3 checkpoint document describes, from its
    arrays. Any defect in the document raises ``ValueError``; so does a
    document of another ``format_version``, such as the formats 1 and 2
    that older versions wrote."""
    if not isinstance(data, dict):
        raise ValueError(f"a checkpoint must be an object, got {type(data).__name__}")
    version = data.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}: "
                         f"only format {CHECKPOINT_VERSION} is read")
    refuse_unknown_keys("checkpoint", data, CHECKPOINT_KEYS)
    if "arch" not in data:
        raise ValueError("checkpoint has no 'arch'")
    arch = Architecture.from_dict(data["arch"])
    model = GrappaModel(arch, _entry_arrays(data, arch))
    _check_values(model)
    return model


def load_checkpoint(path) -> GrappaModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_checkpoint(json.load(fh))


def parameter_accounting_markdown(model: GrappaModel) -> str:
    """Markdown table of every trainable tensor and the grand total."""
    rows = model.accounting()
    lines = [
        "# Trainable parameter accounting",
        "",
        f"Architecture: {model.arch.gat_layers} message-passing layers x "
        f"{model.arch.heads} heads, embedding {model.arch.embed_dim}, "
        f"{model.arch.pooling} pooling, {model.arch.hidden_layers} hidden "
        f"layers of {model.arch.hidden_width}.",
        "",
        "| parameter | shape | count |",
        "|---|---|---:|",
    ]
    for row in rows:
        shape = "x".join(str(s) for s in row["shape"]) or "scalar"
        lines.append(f"| `{row['name']}` | {shape} | {row['count']} |")
    lines += [f"| **total** | | **{model.parameter_count()}** |", "",
              "Batch-norm running statistics are buffers, not trainable, "
              "and are excluded from the total."]
    return "\n".join(lines) + "\n"
