"""Full model: graph attention stack, readout, and the bounded parameter head.

The head maps the pooled embedding plus hydrogen donor/acceptor counts
through hidden layers (linear -> batch norm -> ELU) to three raw outputs,
each squashed into its Antoine range with ``lo + (hi - lo) * sigmoid``, so
every prediction is a valid vapor-pressure curve by construction. The head's
output is one (B, 3) tensor whose columns are A, B and C.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

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
from .gnn import GatLayer, batch_graphs, encode, glorot, init_gat_layer
from .pooling import InteractionPoolParams, init_interaction_pool, interaction_pool, sum_pool
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

CHECKPOINT_VERSION = 1
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
        if self.gat_layers < 2:
            raise ValueError("at least two message-passing layers are required")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.hidden_layers < 1:
            raise ValueError("hidden_layers must be >= 1")
        if self.pooling not in ("sum", "interaction"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        for key in ("A", "B", "C"):
            lo, hi = self.param_ranges[key]
            if not lo < hi:
                raise ValueError(f"empty range for {key}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Architecture":
        return cls(**data).validate()


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


def init_model(arch: Architecture, seed: int | np.random.SeedSequence = 0) -> GrappaModel:
    arch.validate()
    rng = np.random.default_rng(seed)
    gat = []
    in_dim = arch.node_features
    for li in range(arch.gat_layers):
        gat.append(init_gat_layer(rng, in_dim, arch.embed_dim, arch.heads,
                                  arch.edge_features, layer_index=li))
        in_dim = arch.embed_dim
    pool = None
    if arch.pooling == "interaction":
        pool = init_interaction_pool(rng, arch.embed_dim)
    hidden = []
    width_in = arch.embed_dim + EXTRA_HEAD_INPUTS
    for i in range(arch.hidden_layers):
        hidden.append(HeadLayer(
            weight=Tensor(glorot(rng, (width_in, arch.hidden_width)),
                          requires_grad=True, name=f"head.{i}.weight"),
            bias=Tensor(np.zeros(arch.hidden_width), requires_grad=True,
                        name=f"head.{i}.bias"),
            bn_gamma=Tensor(np.ones(arch.hidden_width), requires_grad=True,
                            name=f"head.{i}.bn.gamma"),
            bn_beta=Tensor(np.zeros(arch.hidden_width), requires_grad=True,
                           name=f"head.{i}.bn.beta"),
            bn_state=BatchNormState.fresh(arch.hidden_width),
        ))
        width_in = arch.hidden_width
    out_weight = Tensor(glorot(rng, (width_in, 3)), requires_grad=True,
                        name="head.out.weight")
    out_bias = Tensor(np.zeros(3), requires_grad=True, name="head.out.bias")
    return GrappaModel(arch, gat, pool, hidden, out_weight, out_bias)


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

def to_checkpoint(model: GrappaModel) -> dict:
    entries = {name: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
               for name, arr in model.snapshot().items()}
    return {
        "format_version": CHECKPOINT_VERSION,
        "arch": model.arch.to_dict(),
        "params": entries,
    }


def save_checkpoint(model: GrappaModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_checkpoint(model), fh)


def model_from_checkpoint(data: dict) -> GrappaModel:
    version = data.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    arch = Architecture.from_dict(data["arch"])
    model = init_model(arch, seed=0)
    expected = model.snapshot()
    entries = data["params"]
    missing = sorted(expected.keys() - entries.keys())
    if missing:
        raise ValueError(f"checkpoint missing entries: {missing}")
    unknown = sorted(entries.keys() - expected.keys())
    if unknown:
        raise ValueError(f"checkpoint has unknown entries: {unknown}")
    arrays = {}
    for name, entry in entries.items():
        values = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        if values.shape != expected[name].shape:
            raise ValueError(f"entry {name!r} has shape {values.shape}, "
                             f"expected {expected[name].shape}")
        arrays[name] = values
    model.restore(arrays)
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
    lines.append(f"| **total** | | **{model.parameter_count()}** |")
    lines.append("")
    lines.append("Batch-norm running statistics are buffers, not trainable, "
                 "and are excluded from the total.")
    return "\n".join(lines) + "\n"
