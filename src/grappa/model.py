"""Full model: graph attention stack, readout, and the bounded parameter head.

The head maps the pooled embedding plus hydrogen donor/acceptor counts
through hidden layers (linear -> batch norm -> ELU) to three raw outputs,
each squashed into its Antoine range with ``lo + (hi - lo) * sigmoid``, so
every prediction is a valid vapor-pressure curve by construction. The head's
output is one (B, 3) tensor whose columns are A, B and C.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .antoine import (
    PA_PER_KPA,
    PARAM_RANGES,
    AntoineParams,
    antoine,
    boiling_temperature,
    ln_vapor_pressure,
)
from .featurize import EDGE_FEATURES, NODE_FEATURES, MolGraph, featurize
from .gnn import GatLayer, batch_graphs, encode, glorot
from .pooling import InteractionPoolParams, interaction_pool, sum_pool
from .smiles import parse_smiles
from .tensor import (
    BatchNormState,
    Tensor,
    add,
    batch_norm,
    concat,
    elu,
    matmul,
    mul,
    recording,
    sigmoid,
)

CHECKPOINT_VERSION = 2
EXTRA_HEAD_INPUTS = 2  # hydrogen donor and acceptor counts
# Molecules per inference forward. It bounds the forward's transient memory
# and changes no output: a molecule gets the same bytes in any batch.
INFER_CHUNK = 256


@dataclass
class Architecture:
    gat_layers: int = 4
    heads: int = 2
    embed_dim: int = 32
    pooling: str = "interaction"
    hidden_layers: int = 3
    hidden_width: int = 16
    node_features: int = NODE_FEATURES
    edge_features: int = EDGE_FEATURES
    param_ranges: dict = field(default_factory=lambda: {k: list(v) for k, v in PARAM_RANGES.items()})
    count_scale: list | None = None  # (mean_d, std_d, mean_a, std_a), optional

    def validate(self):
        for key in ("gat_layers", "heads", "embed_dim", "hidden_layers",
                    "hidden_width", "node_features", "edge_features"):
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
        if (self.node_features, self.edge_features) != (NODE_FEATURES, EDGE_FEATURES):
            raise ValueError(f"node_features and edge_features must be the "
                             f"featurizer's {NODE_FEATURES} and {EDGE_FEATURES}")
        if self.pooling not in ("sum", "interaction"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        ranges = self.param_ranges
        if not isinstance(ranges, dict) or set(ranges) != {"A", "B", "C"}:
            raise ValueError(f"param_ranges must map A, B and C, got {ranges!r}")
        for key in ("A", "B", "C"):
            bounds = ranges[key]
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2
                    and all(map(_is_finite_number, bounds))):
                raise ValueError(f"param_ranges {key} must be two finite "
                                 f"numbers, got {bounds!r}")
            lo, hi = bounds
            if not lo < hi:
                raise ValueError(f"empty range for {key}")
        scale = self.count_scale
        if scale is not None and not (
                isinstance(scale, (list, tuple)) and len(scale) == 4
                and all(map(_is_finite_number, scale))
                and scale[1] > 0 and scale[3] > 0):
            raise ValueError("count_scale must be null or four finite numbers "
                             f"with positive standard deviations, got {scale!r}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Architecture":
        if not isinstance(data, dict):
            raise ValueError(f"arch must be an object, got {type(data).__name__}")
        unknown = sorted(data.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown arch keys: {unknown}")
        return cls(**data).validate()


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class HeadLayer:
    weight: Tensor
    bias: Tensor
    bn_gamma: Tensor
    bn_beta: Tensor
    bn_state: BatchNormState


@dataclass
class GrappaModel:
    arch: Architecture
    gat: list[GatLayer]
    pool: InteractionPoolParams | None
    hidden: list[HeadLayer]
    out_weight: Tensor
    out_bias: Tensor

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for li, layer in enumerate(self.gat):
            for hi in range(layer.heads):
                params[f"gat.{li}.{hi}.theta_v"] = layer.theta_v[hi]
                params[f"gat.{li}.{hi}.theta_e"] = layer.theta_e[hi]
                params[f"gat.{li}.{hi}.att"] = layer.att[hi]
        if self.pool is not None:
            params["pool.Wq"] = self.pool.Wq
            params["pool.Wk"] = self.pool.Wk
            params["pool.Wv"] = self.pool.Wv
        for i, layer in enumerate(self.hidden):
            params[f"head.{i}.weight"] = layer.weight
            params[f"head.{i}.bias"] = layer.bias
            params[f"head.{i}.bn.gamma"] = layer.bn_gamma
            params[f"head.{i}.bn.beta"] = layer.bn_beta
        params["head.out.weight"] = self.out_weight
        params["head.out.bias"] = self.out_bias
        return params

    def named_buffers(self) -> dict[str, np.ndarray]:
        buffers: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.hidden):
            buffers[f"head.{i}.bn.running_mean"] = layer.bn_state.running_mean
            buffers[f"head.{i}.bn.running_var"] = layer.bn_state.running_var
        return buffers

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer array, by checkpoint name."""
        arrays = {name: t.data for name, t in self.named_parameters().items()}
        arrays.update(self.named_buffers())
        return {name: arr.copy() for name, arr in arrays.items()}

    def restore(self, snapshot: dict[str, np.ndarray]):
        """Copy a :meth:`snapshot` back into the model's arrays in place."""
        for name, tensor in self.named_parameters().items():
            tensor.data[...] = snapshot[name]
        for name, buf in self.named_buffers().items():
            buf[...] = snapshot[name]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.named_parameters().values())

    def accounting(self) -> list[dict]:
        rows = [
            {"name": name, "shape": list(t.shape), "count": int(t.size)}
            for name, t in self.named_parameters().items()
        ]
        return rows


def _array_specs(arch: Architecture) -> list[tuple[str, tuple, float | None]]:
    """``(name, shape, fill)`` of every parameter and buffer array, in the
    order :func:`init_model` draws them; a ``None`` fill is a Glorot draw."""
    d, w = arch.embed_dim, arch.hidden_width
    specs = []
    in_dim = arch.node_features
    for li in range(arch.gat_layers):
        for hi in range(arch.heads):
            specs += [(f"gat.{li}.{hi}.theta_v", (in_dim, d), None),
                      (f"gat.{li}.{hi}.theta_e", (arch.edge_features, d), None),
                      (f"gat.{li}.{hi}.att", (d,), None)]
        in_dim = d
    if arch.pooling == "interaction":
        specs += [(f"pool.{key}", (d, d), None) for key in ("Wq", "Wk", "Wv")]
    width_in = d + EXTRA_HEAD_INPUTS
    for i in range(arch.hidden_layers):
        specs += [(f"head.{i}.weight", (width_in, w), None),
                  (f"head.{i}.bias", (w,), 0.0),
                  (f"head.{i}.bn.gamma", (w,), 1.0),
                  (f"head.{i}.bn.beta", (w,), 0.0),
                  (f"head.{i}.bn.running_mean", (w,), 0.0),
                  (f"head.{i}.bn.running_var", (w,), 1.0)]
        width_in = w
    specs += [("head.out.weight", (width_in, 3), None),
              ("head.out.bias", (3,), 0.0)]
    return specs


def _assemble(arch: Architecture, arrays: dict[str, np.ndarray]) -> GrappaModel:
    """A model whose parameters and buffers are ``arrays`` themselves (by
    checkpoint name), not copies: training updates them in place."""
    def param(name):
        return Tensor(arrays[name], requires_grad=True, name=name)

    gat = [GatLayer(*([param(f"gat.{li}.{hi}.{key}") for hi in range(arch.heads)]
                      for key in ("theta_v", "theta_e", "att")))
           for li in range(arch.gat_layers)]
    pool = None
    if arch.pooling == "interaction":
        pool = InteractionPoolParams(*(param(f"pool.{key}")
                                       for key in ("Wq", "Wk", "Wv")))
    hidden = [HeadLayer(weight=param(f"head.{i}.weight"),
                        bias=param(f"head.{i}.bias"),
                        bn_gamma=param(f"head.{i}.bn.gamma"),
                        bn_beta=param(f"head.{i}.bn.beta"),
                        bn_state=BatchNormState(arrays[f"head.{i}.bn.running_mean"],
                                                arrays[f"head.{i}.bn.running_var"]))
              for i in range(arch.hidden_layers)]
    return GrappaModel(arch, gat, pool, hidden, param("head.out.weight"),
                       param("head.out.bias"))


def init_model(arch: Architecture, seed: int | np.random.SeedSequence = 0) -> GrappaModel:
    """A fresh model: Glorot-uniform weights drawn from ``seed``, zero biases,
    unit batch-norm scales and fresh running statistics."""
    arch.validate()
    rng = np.random.default_rng(seed)
    return _assemble(arch, {
        name: glorot(rng, shape) if fill is None else np.full(shape, fill)
        for name, shape, fill in _array_specs(arch)})


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
             mode: str = "infer") -> Tensor:
    """Hidden stack on (B, d + 2) input; returns the (B, 3) raw outputs."""
    z = concat([pooled, Tensor(counts)], axis=1)
    for layer in model.hidden:
        z = matmul(z, layer.weight)
        z = add(z, layer.bias)
        z = batch_norm(z, layer.bn_gamma, layer.bn_beta, layer.bn_state, mode)
        z = elu(z)
    return add(matmul(z, model.out_weight), model.out_bias)


def scale_to_ranges(raw: Tensor, ranges: dict) -> Tensor:
    """Map each raw column (A, B, C) into its bounded interval via the sigmoid."""
    lo, hi = np.array([ranges[key] for key in ("A", "B", "C")]).T
    return add(mul(sigmoid(raw), hi - lo), lo)


def forward_antoine(model: GrappaModel, graphs: list[MolGraph],
                    mode: str = "infer") -> Tensor:
    """(B, 3) Antoine parameters, columns A, B, C, with the molecules run
    through message passing and readout as one disjoint graph. An "infer"
    forward records no tape, so its result cannot backpropagate."""
    with recording(mode != "infer"):
        batch = batch_graphs(graphs)
        embeddings = encode(batch, model.gat)
        if model.arch.pooling == "interaction":
            pooled = interaction_pool(embeddings, batch, model.pool)
        else:
            pooled = sum_pool(embeddings, batch)
        counts = _count_features(model, [g.h_donors for g in graphs],
                                 [g.h_acceptors for g in graphs])
        raw = head_raw(model, pooled, counts, mode)
        return scale_to_ranges(raw, model.arch.param_ranges)


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
        rows = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
        return Components([self.names[i] for i in index],
                          [self.graphs[i] for i in index],
                          self.temperatures[rows], self.pressures_pa[rows],
                          np.repeat(np.arange(len(index)), hi - lo))


def prepare_components(dataset, split: str | None = None) -> Components:
    """Parse and featurize each component of a dataset (optionally of one
    split), in sorted order, and gather its points."""
    groups = [(name, pts) for name, pts in sorted(dataset.by_component().items())
              if split is None or dataset.split_label(name) == split]
    points = [pt for _, group in groups for pt in group]
    return Components(
        names=[name for name, _ in groups],
        graphs=[featurize(parse_smiles(group[0].smiles)) for _, group in groups],
        temperatures=np.array([pt.temperature_k for pt in points], dtype=float),
        pressures_pa=np.array([pt.pressure_pa for pt in points], dtype=float),
        molecule=np.repeat(np.arange(len(groups)),
                           [len(group) for _, group in groups]))


def predict_components(model: GrappaModel,
                       comps: Components) -> tuple[np.ndarray, np.ndarray]:
    """(M, 3) rows of A, B, C and the predicted pressure in Pa at every
    point, from inference forwards of at most :data:`INFER_CHUNK` molecules;
    points off a curve's valid branch get an infinite pressure."""
    rows = np.concatenate([np.empty((0, 3))] + [
        forward_antoine(model, comps.graphs[i : i + INFER_CHUNK]).data
        for i in range(0, len(comps.graphs), INFER_CHUNK)])
    return rows, antoine(*rows[comps.molecule].T, comps.temperatures)


@dataclass(frozen=True)
class Prediction:
    params: AntoineParams
    ln_p_kpa: float | np.ndarray | None = None
    p_pa: float | np.ndarray | None = None
    boiling_k: float | None = None


def predict(model: GrappaModel, smiles: str, temperatures=None,
            boil_pressure_pa: float | None = None) -> Prediction:
    """Parse, check scope, and run the whole pipeline in inference mode;
    out-of-scope molecules raise :class:`ScopeError` from ``featurize``."""
    row = forward_antoine(model, [featurize(parse_smiles(smiles))]).data[0]
    params = AntoineParams(*row.tolist())
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


def predict_dataset(model: GrappaModel, dataset, split: str | None = None):
    """Inference over every component of a dataset (optionally one split).

    Returns ``(pred_points, params_by_component)`` ready for the metrics
    layer; points whose temperature falls outside a predicted curve's valid
    branch get an infinite predicted pressure.
    """
    from .metrics import PredPoint

    comps = prepare_components(dataset, split)
    rows, p_pred = predict_components(model, comps)
    params_by_component = {name: AntoineParams(*row)
                           for name, row in zip(comps.names, rows.tolist())}
    pred_points = [
        PredPoint(component_id=comps.names[m], temperature_k=t, p_exp_pa=p,
                  p_pred_pa=q, mol_weight=comps.graphs[m].mol_weight)
        for m, t, p, q in zip(comps.molecule.tolist(),
                              comps.temperatures.tolist(),
                              comps.pressures_pa.tolist(), p_pred.tolist())]
    return pred_points, params_by_component


# --------------------------------------------------------------- checkpoints

def encode_entry(arr: np.ndarray) -> dict:
    """A ``params`` entry: the shape and the base64 of the array's
    little-endian float64 bytes, row-major."""
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "data": base64.b64encode(raw).decode("ascii")}


def _decode_entry(name: str, entry, version: int, shape: tuple) -> np.ndarray:
    """The writable float64 array of one ``params`` entry: base64 ``data``
    in format 2, a flat ``values`` list in format 1. Raises ``ValueError``
    naming the entry for any defect."""
    if not isinstance(entry, dict):
        raise ValueError(f"entry {name!r} must be an object")
    stored = entry.get("shape")
    if not isinstance(stored, list) or tuple(stored) != shape:
        raise ValueError(f"entry {name!r} has shape {stored!r}, "
                         f"expected {list(shape)}")
    size = math.prod(shape)
    if version == 1:
        values = entry.get("values")
        try:
            flat = np.array(values, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise ValueError(f"entry {name!r} values are not numbers ({err})") from None
        if not isinstance(values, list) or flat.shape != (size,):
            raise ValueError(f"entry {name!r} values must be a flat list of "
                             f"{size} numbers")
    else:
        try:
            raw = base64.b64decode(entry.get("data"), validate=True)
        except (TypeError, ValueError) as err:
            raise ValueError(f"entry {name!r} data is not base64 ({err})") from None
        if len(raw) != 8 * size:
            raise ValueError(f"entry {name!r} holds {len(raw)} bytes, expected "
                             f"{8 * size} for shape {shape}")
        flat = np.frombuffer(raw, dtype="<f8")
    arr = flat.reshape(shape).astype(np.float64)  # owned, writable, native order
    if not np.isfinite(arr).all():
        raise ValueError(f"entry {name!r} holds a non-finite value")
    if name.endswith(".running_var") and (arr < 0).any():
        raise ValueError(f"entry {name!r} holds a negative variance")
    return arr


def to_checkpoint(model: GrappaModel) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "arch": model.arch.to_dict(),
        "params": {name: encode_entry(arr)
                   for name, arr in model.snapshot().items()},
    }


def save_checkpoint(model: GrappaModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_checkpoint(model), fh)


def model_from_checkpoint(data: dict) -> GrappaModel:
    """Build the model a checkpoint document describes, from its arrays
    (format 2, or format 1 as older versions wrote). Any defect in the
    document raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError(f"a checkpoint must be an object, got {type(data).__name__}")
    version = data.get("format_version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    if "arch" not in data:
        raise ValueError("checkpoint has no 'arch'")
    arch = Architecture.from_dict(data["arch"])
    entries = data.get("params")
    if not isinstance(entries, dict):
        raise ValueError("checkpoint 'params' must be an object")
    shapes = {name: shape for name, shape, _ in _array_specs(arch)}
    missing = sorted(shapes.keys() - entries.keys())
    if missing:
        raise ValueError(f"checkpoint missing entries: {missing}")
    unknown = sorted(entries.keys() - shapes.keys())
    if unknown:
        raise ValueError(f"checkpoint has unknown entries: {unknown}")
    return _assemble(arch, {name: _decode_entry(name, entries[name], version, shape)
                            for name, shape in shapes.items()})


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
    lines.append(f"| **total** | | **{model.parameter_count()}** |")
    lines.append("")
    lines.append("Batch-norm running statistics are buffers, not trainable, "
                 "and are excluded from the total.")
    return "\n".join(lines) + "\n"
