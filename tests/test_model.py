import base64
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grappa.gnn
import grappa.model
from grappa.featurize import featurize
from grappa.gnn import attention_scores
from grappa.model import (
    Architecture,
    encode_entry,
    forward_antoine,
    init_model,
    load_checkpoint,
    model_from_checkpoint,
    parameter_accounting_markdown,
    predict,
    predict_dataset,
    save_checkpoint,
    to_checkpoint,
)
from grappa.smiles import parse_smiles
from grappa.tensor import mean_all
from grappa.train import AdamWState, adamw_step

from _oracles import synthetic_dataset


def test_final_architecture_parameter_count():
    model = init_model(Architecture(), seed=0)
    # 4 layers x 2 heads: (24 or 32)x32 + 9x32 + 32 per head.
    gat = 2 * (24 * 32 + 9 * 32 + 32) + 3 * 2 * (32 * 32 + 9 * 32 + 32)
    pool = 3 * 32 * 32
    head = (34 * 16 + 16 + 32) + 2 * (16 * 16 + 16 + 32) + (16 * 3 + 3)
    assert model.parameter_count() == gat + pool + head == 14563


def test_parameter_count_within_published_band():
    model = init_model(Architecture(), seed=0)
    assert abs(model.parameter_count() - 15319) <= 0.10 * 15319


def test_sum_pooling_drops_readout_weights():
    model = init_model(Architecture(pooling="sum"), seed=0)
    names = model.named_parameters()
    assert "pool.Wq" not in names
    assert model.parameter_count() == 14563 - 3 * 32 * 32


def test_architecture_validation():
    with pytest.raises(ValueError):
        Architecture(gat_layers=1).validate()
    with pytest.raises(ValueError):
        Architecture(heads=0).validate()
    with pytest.raises(ValueError):
        Architecture(pooling="max").validate()
    with pytest.raises(ValueError):
        Architecture(hidden_layers=0).validate()


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = init_model(Architecture(), seed=42)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    for name, tensor in model.named_parameters().items():
        assert (restored.named_parameters()[name].data == tensor.data).all(), name
    for name, buf in model.named_buffers().items():
        assert (restored.named_buffers()[name] == buf).all(), name
    a = predict(model, "CC(=O)OC", temperatures=350.0)
    b = predict(restored, "CC(=O)OC", temperatures=350.0)
    assert a.params == b.params and a.ln_p_kpa == b.ln_p_kpa


def test_snapshot_restores_every_array_in_place():
    model = init_model(Architecture(), seed=6)
    saved = model.snapshot()
    weight = model.named_parameters()["head.0.weight"].data
    for tensor in model.named_parameters().values():
        tensor.data += 1.0
    for buf in model.named_buffers().values():
        buf += 1.0
    model.restore(saved)
    assert model.named_parameters()["head.0.weight"].data is weight
    current = model.snapshot()
    assert current.keys() == saved.keys()
    assert all((current[name] == saved[name]).all() for name in saved)


def test_checkpoint_names_follow_convention(tmp_path):
    model = init_model(Architecture(gat_layers=2, heads=3), seed=0)
    data = to_checkpoint(model)
    assert data["format_version"] == 2
    names = set(data["params"])
    assert "gat.0.0.theta_v" in names
    assert "gat.1.2.att" in names
    assert "pool.Wq" in names
    assert "head.2.bn.running_mean" in names
    assert "head.out.weight" in names
    arch = data["arch"]
    assert arch["gat_layers"] == 2 and arch["heads"] == 3
    assert arch["pooling"] == "interaction"
    assert arch["param_ranges"]["B"] == [1500.0, 6000.0]


def test_checkpoint_rejects_bad_payloads():
    model = init_model(Architecture(), seed=1)
    good = to_checkpoint(model)
    bad = json.loads(json.dumps(good))
    bad["format_version"] = 99
    with pytest.raises(ValueError):
        model_from_checkpoint(bad)
    bad = json.loads(json.dumps(good))
    del bad["params"]["pool.Wq"]
    with pytest.raises(ValueError, match="pool.Wq"):
        model_from_checkpoint(bad)
    bad = json.loads(json.dumps(good))
    bad["params"]["mystery"] = encode_entry(np.zeros(1))
    with pytest.raises(ValueError, match="mystery"):
        model_from_checkpoint(bad)


@pytest.mark.parametrize("shape", [[1], []])
def test_checkpoint_rejects_a_wrong_shaped_buffer(shape):
    # A one-value running variance would broadcast over all 16 entries.
    data = to_checkpoint(init_model(Architecture(), seed=1))
    data["params"]["head.0.bn.running_var"] = encode_entry(
        np.full(shape, 2.0))
    with pytest.raises(ValueError, match="head.0.bn.running_var"):
        model_from_checkpoint(data)


def test_checkpoint_rejects_a_wrong_shaped_parameter():
    data = to_checkpoint(init_model(Architecture(), seed=1))
    entry = data["params"]["head.out.weight"]
    entry["shape"] = entry["shape"][::-1]
    with pytest.raises(ValueError, match="head.out.weight"):
        model_from_checkpoint(data)


def _arrays(model) -> dict[str, np.ndarray]:
    """Every parameter and buffer array of a model itself, by name."""
    arrays = {name: t.data for name, t in model.named_parameters().items()}
    arrays.update(model.named_buffers())
    return arrays


def _same_bytes(a, b) -> bool:
    arrays_a, arrays_b = _arrays(a), _arrays(b)
    return arrays_a.keys() == arrays_b.keys() and all(
        arrays_a[name].shape == arrays_b[name].shape
        and arrays_a[name].tobytes() == arrays_b[name].tobytes()
        for name in arrays_a)


@pytest.mark.parametrize("arch, seed, digest", [
    (Architecture(), 0,
     "3e5f09b6eb7b623bc80a472ded4848ea6ef9a3f2c5ca83e1a5a5a4c43ce04f37"),
    (Architecture(), 5,
     "b9a805556e5fef785c1e2c5acc5223fa7d6c4b922abe4226c02ca1b7148392a2"),
    (Architecture(pooling="sum", heads=3, gat_layers=2, hidden_layers=2), 0,
     "e3ff49c0eddabcb6d09901875fa12f9fe01832126b05487c47692e94da57415c"),
])
def test_init_model_draws_are_pinned(arch, seed, digest):
    # The digests were taken from the per-layer initialisation that
    # init_model replaced; a seed must keep giving the same weights.
    h = hashlib.sha256()
    for name, arr in init_model(arch, seed=seed).snapshot().items():
        h.update(name.encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1.7e308, -1.7e308]


@settings(deadline=None, max_examples=25)
@given(pooling=st.sampled_from(["sum", "interaction"]),
       heads=st.integers(1, 3), gat_layers=st.integers(2, 4),
       hidden_layers=st.integers(1, 3),
       values=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=40),
       count_scale=st.one_of(st.none(), st.tuples(
           st.floats(-1e3, 1e3), st.floats(1e-8, 1e3),
           st.floats(-1e3, 1e3), st.floats(1e-8, 1e3)).map(list)))
def test_checkpoint_roundtrip_restores_random_models_bytewise(
        pooling, heads, gat_layers, hidden_layers, values, count_scale):
    arch = Architecture(pooling=pooling, heads=heads, gat_layers=gat_layers,
                        hidden_layers=hidden_layers, count_scale=count_scale)
    model = init_model(arch, seed=0)
    for k, (name, arr) in enumerate(_arrays(model).items()):
        fill = np.resize(np.roll(values, k), arr.shape)
        arr[...] = np.abs(fill) if name.endswith("running_var") else fill
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
    assert restored.arch == model.arch
    assert _same_bytes(model, restored)


def _as_format_1(doc: dict) -> dict:
    """The document as format 1 wrote it: flat ``values`` lists, decoded
    here from the documented little-endian float64 base64 layout."""
    params = {}
    for name, entry in doc["params"].items():
        flat = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
        params[name] = {"shape": entry["shape"], "values": flat.tolist()}
    return {**doc, "format_version": 1, "params": params}


@pytest.mark.parametrize("pooling", ["sum", "interaction"])
def test_checkpoint_reads_format_1_values_lists(pooling):
    model = init_model(Architecture(pooling=pooling), seed=9)
    for arr in _arrays(model).values():
        arr.flat[0] = -0.0
    doc = json.loads(json.dumps(_as_format_1(to_checkpoint(model))))
    assert _same_bytes(model, model_from_checkpoint(doc))


def test_two_saves_of_a_model_are_identical(tmp_path):
    model = init_model(Architecture(count_scale=[1.5, 0.3, 2.0, 1.1]), seed=4)
    save_checkpoint(model, tmp_path / "a.json")
    save_checkpoint(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_loading_draws_no_random_init(monkeypatch, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_model(Architecture(), seed=2), path)

    def refuse(*args, **kwargs):
        raise AssertionError("glorot called while loading a checkpoint")

    monkeypatch.setattr(grappa.gnn, "glorot", refuse)
    monkeypatch.setattr(grappa.model, "glorot", refuse)
    load_checkpoint(path)


def test_a_loaded_model_trains_in_place(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_model(Architecture(), seed=8), path)
    loaded = load_checkpoint(path)
    assert all(arr.flags.writeable and arr.flags.owndata
               for arr in _arrays(loaded).values())
    params = loaded.named_parameters()
    before = loaded.snapshot()
    graphs = [featurize(parse_smiles(s)) for s in ("CCO", "CCCC", "c1ccccc1")]
    mean_all(forward_antoine(loaded, graphs, mode="train")).backward()
    adamw_step(params, {name: t.grad for name, t in params.items()},
               AdamWState.for_params(params), lr=1e-3)
    after = loaded.snapshot()
    assert all(not np.array_equal(after[name], before[name]) for name in after)


def _arch(doc, **changes):
    return {**doc, "arch": {**doc["arch"], **changes}}


def _entry(doc, name, entry):
    return {**doc, "params": {**doc["params"], name: entry}}


_NAN_BIAS = encode_entry(np.array([0.0, np.nan, 0.0]))
_INF_WEIGHT = encode_entry(np.full((16, 3), -np.inf))

BAD_CHECKPOINTS = {
    "top-level list": (lambda d: [d], "object"),
    "missing arch": (lambda d: {k: v for k, v in d.items() if k != "arch"},
                     "arch"),
    "arch not an object": (lambda d: {**d, "arch": [4, 2]}, "arch"),
    "unknown arch key": (lambda d: _arch(d, mystery=1), "mystery"),
    "heads as text": (lambda d: _arch(d, heads="2"), "heads"),
    "embed_dim as float": (lambda d: _arch(d, embed_dim=32.0), "embed_dim"),
    "node_features off the featurizer": (lambda d: _arch(d, node_features=10),
                                         "node_features"),
    "param_ranges missing C": (lambda d: _arch(
        d, param_ranges={"A": [5.0, 20.0], "B": [1500.0, 6000.0]}),
        "param_ranges"),
    "param_ranges bound as text": (lambda d: _arch(
        d, param_ranges={**d["arch"]["param_ranges"], "C": ["-300", 0.0]}),
        "param_ranges"),
    "count_scale of three": (lambda d: _arch(d, count_scale=[0.0, 1.0, 0.0]),
                             "count_scale"),
    "count_scale zero std": (lambda d: _arch(
        d, count_scale=[0.0, 0.0, 0.0, 1.0]), "count_scale"),
    "count_scale NaN": (lambda d: _arch(
        d, count_scale=[float("nan"), 1.0, 0.0, 1.0]), "count_scale"),
    "params not an object": (lambda d: {**d, "params": []}, "params"),
    "entry not an object": (lambda d: _entry(d, "head.out.bias", [0.0] * 3),
                            "head.out.bias"),
    "shape not a list": (lambda d: _entry(
        d, "head.out.bias", {**encode_entry(np.zeros(3)), "shape": "3"}),
        "head.out.bias"),
    "bad base64": (lambda d: _entry(
        d, "head.out.bias", {"shape": [3], "data": "AAAA*AAA"}),
        "head.out.bias"),
    "data not text": (lambda d: _entry(
        d, "head.out.bias", {"shape": [3], "data": 7}), "head.out.bias"),
    "byte length off the shape": (lambda d: _entry(
        d, "head.out.bias",
        {"shape": [3], "data": encode_entry(np.zeros(2))["data"]}),
        "head.out.bias"),
    "NaN value": (lambda d: _entry(d, "head.out.bias", _NAN_BIAS),
                  "head.out.bias"),
    "infinite value": (lambda d: _entry(d, "head.out.weight", _INF_WEIGHT),
                       "head.out.weight"),
    "negative running variance": (lambda d: _entry(
        d, "head.0.bn.running_var", encode_entry(np.full(16, -1e-3))),
        "head.0.bn.running_var"),
    "format 1 values in a format 2 document": (lambda d: _entry(
        d, "head.out.bias", {"shape": [3], "values": [0.0, 0.0, 0.0]}),
        "head.out.bias"),
    "format 1 values not numbers": (lambda d: _entry(
        _as_format_1(d), "head.out.bias",
        {"shape": [3], "values": ["x", 0.0, 0.0]}), "head.out.bias"),
    "format 1 values off the shape": (lambda d: _entry(
        _as_format_1(d), "head.out.bias", {"shape": [3], "values": [0.0]}),
        "head.out.bias"),
    "format 1 NaN value": (lambda d: _entry(
        _as_format_1(d), "head.out.bias",
        {"shape": [3], "values": [0.0, float("nan"), 0.0]}), "head.out.bias"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_checkpoint_rejects_malformed_documents(case):
    mutate, names = BAD_CHECKPOINTS[case]
    good = to_checkpoint(init_model(Architecture(), seed=1))
    with pytest.raises(ValueError, match=names):
        model_from_checkpoint(mutate(good))


def test_accounting_markdown_totals():
    model = init_model(Architecture(), seed=2)
    text = parameter_accounting_markdown(model)
    assert "14563" in text
    assert "gat.0.0.theta_v" in text
    total = sum(row["count"] for row in model.accounting())
    assert total == model.parameter_count()


def test_forward_antoine_batch_matches_single():
    model = init_model(Architecture(), seed=3)
    graphs = [featurize(parse_smiles(s)) for s in ("CCO", "CCCC", "c1ccccc1")]
    params = forward_antoine(model, graphs, mode="infer")
    assert params.shape == (3, 3)
    for k, graph in enumerate(graphs):
        one = forward_antoine(model, [graph], mode="infer")
        assert one.data[0].tobytes() == params.data[k].tobytes()


def test_infer_forward_records_no_tape():
    model = init_model(Architecture(), seed=6)
    graphs = [featurize(parse_smiles(s)) for s in ("CCO", "CCN")]
    infer = forward_antoine(model, graphs, mode="infer")
    assert infer._parents == () and infer._vjp is None
    assert not infer.requires_grad
    train = forward_antoine(model, graphs, mode="train")
    assert train._parents and train.requires_grad
    mean_all(train).backward()
    assert all(t.grad is not None and np.any(t.grad)
               for t in model.named_parameters().values())
    # Recording is back on after an inference forward, even one that raised.
    with pytest.raises(ValueError):
        forward_antoine(model, [], mode="infer")
    assert forward_antoine(model, graphs, mode="train").requires_grad


def test_predict_dataset_covers_split():
    ds, _ = synthetic_dataset(points_per_component=4)
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=4)
    points, params = predict_dataset(model, ds, split="valid")
    valid_components = {c for c, s in ds.splits.items() if s == "valid"}
    assert set(params) == valid_components
    assert len(points) == 4 * len(valid_components)
    assert all(pt.p_pred_pa > 0 for pt in points)
    assert all(pt.mol_weight > 0 for pt in points)


@pytest.mark.parametrize("chunk", [None, 3])
def test_predict_dataset_matches_predict_bytewise(monkeypatch, chunk):
    ds, _ = synthetic_dataset(points_per_component=4)
    model = init_model(Architecture(), seed=7)
    if chunk is not None:
        monkeypatch.setattr(grappa.model, "INFER_CHUNK", chunk)
    forwards = []
    real_forward = grappa.model.forward_antoine

    def counting_forward(model, graphs, mode="infer"):
        forwards.append(len(graphs))
        return real_forward(model, graphs, mode)

    monkeypatch.setattr(grappa.model, "forward_antoine", counting_forward)
    points, params = predict_dataset(model, ds)
    groups = ds.by_component()
    assert len(forwards) == math.ceil(len(groups) / grappa.model.INFER_CHUNK)
    assert sorted(params) == sorted(groups)
    for component, row in params.items():
        one = predict(model, groups[component][0].smiles).params
        assert np.array(one.as_tuple()).tobytes() \
            == np.array(row.as_tuple()).tobytes()
    # Each component's curve, evaluated alone as the per-component loop did.
    for component, group in groups.items():
        temps = np.array([pt.temperature_k for pt in group])
        alone = grappa.model.antoine(*params[component].as_tuple(), temps)
        got = [pt.p_pred_pa for pt in points if pt.component_id == component]
        assert np.array(got).tobytes() == alone.tobytes()


def test_attention_scores_work_on_model_layers():
    model = init_model(Architecture(), seed=5)
    graph = featurize(parse_smiles("CC(=O)O"))
    scores = attention_scores(graph, model.gat)
    assert scores.shape == (4,)
    assert ((scores >= 0) & (scores <= 1)).all()
