import errno
import gc
import hashlib
import json
import math
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grappa.gnn
import grappa.model
import grappa.pooling
import grappa.tensor
from grappa.antoine import (PA_PER_KPA, PARAM_RANGES, AntoineParams, _ln_p_kpa,
                            antoine, boiling_temperature, ln_vapor_pressure)
from grappa.dataio import VpDataset, VpPoint
from grappa.featurize import ScopeError, featurize
from grappa.gnn import attention_scores
from grappa.model import (
    MAX_MODEL_FLOATS,
    PREDICT_MEMO_SIZE,
    Architecture,
    forward_antoine,
    init_model,
    load_checkpoint,
    model_from_checkpoint,
    parameter_accounting_markdown,
    predict,
    predict_dataset,
    prepare_components,
    save_checkpoint,
    to_checkpoint,
    _array_specs,
    _vector_size,
)
from grappa.smiles import SmilesError, parse_smiles
from grappa.train import AdamWState, TrainConfig, adamw_step, fit

from _oracles import (checkpoint_arrays, synthetic_dataset, weighted_mean,
                      with_entry_values)


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
        Architecture(gat_layers=1)
    with pytest.raises(ValueError):
        Architecture(heads=0)
    with pytest.raises(ValueError):
        Architecture(pooling="max")
    with pytest.raises(ValueError):
        Architecture(hidden_layers=0)


def test_both_configs_refuse_every_change_once_built():
    arch = Architecture(count_scale=[1.5, 0.3, 2.0, 1.1])
    assert arch.count_scale == (1.5, 0.3, 2.0, 1.1)
    cfg = TrainConfig()
    for config, name in ((arch, "heads"), (arch, "count_scale"),
                         (cfg, "seed"), (cfg, "standardize_counts")):
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, getattr(config, name))
    with pytest.raises(TypeError):
        arch.count_scale[2] = 3.0


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = init_model(Architecture(), seed=42)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    restored = load_checkpoint(path)
    for name, value in model.named_parameters().items():
        assert (restored.named_parameters()[name] == value).all(), name
    for name, buf in model.named_buffers().items():
        assert (restored.named_buffers()[name] == buf).all(), name
    a = predict(model, "CC(=O)OC", temperatures=350.0)
    b = predict(restored, "CC(=O)OC", temperatures=350.0)
    assert a.params == b.params and a.ln_p_kpa == b.ln_p_kpa


def test_snapshot_restores_every_array_in_place():
    model = init_model(Architecture(), seed=6)
    arrays = _arrays(model)
    saved = model.snapshot()
    assert saved.shape == model.values.shape
    assert not np.shares_memory(saved, model.values)
    for arr in arrays.values():
        arr += 1.0
    assert not (model.values == saved).any()
    model.restore(saved)
    assert model.values.tobytes() == saved.tobytes()
    for name, arr in _arrays(model).items():
        assert arr is arrays[name], name
    for p in (model.gat[0].theta_v, model.pool.qkv):
        assert np.shares_memory(p.value, model.values)
        assert np.shares_memory(p.grad, model.grad)


def test_weights_lie_in_values_as_the_stages_read_them(monkeypatch):
    # Each layer's heads side by side in three blocks and the readout's
    # projections in one, all inside ``values``, which holds no padding.
    model = init_model(Architecture(), seed=7)
    assert model.values.size == 14563 + 3 * 2 * 16 == 14659
    for li, layer in enumerate(model.gat):
        for key in ("theta_v", "theta_e", "att"):
            block = getattr(layer, key)
            assert block.name == (f"gat.{li}.0.{key}", f"gat.{li}.1.{key}")
            for h in range(2):
                name = f"gat.{li}.{h}.{key}"
                for part, arrays in (("value", model.params), ("grad", model.grads)):
                    whole = getattr(block, part)
                    cols = whole[h] if key == "att" else whole[:, 32 * h : 32 * (h + 1)]
                    assert np.shares_memory(cols, arrays[name])
                    assert np.array_equal(cols, arrays[name])
    block = model.pool.qkv
    assert block.name == ("pool.Wq", "pool.Wk", "pool.Wv")
    for i, key in enumerate(("Wq", "Wk", "Wv")):
        cols = block.value[:, 32 * i : 32 * (i + 1)]
        assert np.shares_memory(cols, model.params[f"pool.{key}"])
        assert np.array_equal(cols, model.params[f"pool.{key}"])
    # Every attention and readout product reads its weights in place.
    seen = []

    def product(a, b):
        seen.append(np.shares_memory(b, model.values))
        return grappa.tensor._row_invariant_product(a, b)

    for module in (grappa.gnn, grappa.pooling):
        monkeypatch.setattr(module, "_row_invariant_product", product)
    forward_antoine(model, [featurize(parse_smiles("CCO"))])
    assert seen == [True] * 9


def test_taking_no_components_gives_empty_components():
    comps = prepare_components(synthetic_dataset(points_per_component=3)[0])
    for index in ([], np.arange(0)):
        none = comps.take(index)
        assert none.names == [] and none.graphs == []
        for arr, dtype in ((none.temperatures, float), (none.pressures_pa, float),
                           (none.molecule, np.int64)):
            assert arr.shape == (0,) and arr.dtype == dtype


@pytest.mark.parametrize("pooling", ["interaction", "sum"])
def test_train_forward_moves_buffers_in_place(pooling):
    model = init_model(Architecture(pooling=pooling), seed=9)
    graphs = [featurize(parse_smiles(s)) for s in ("CCO", "CCCC", "c1ccccc1O")]
    buffers = dict(model.named_buffers())
    before = {name: buf.copy() for name, buf in buffers.items()}
    saved = model.snapshot()
    forward_antoine(model, graphs, train=True)
    assert model.named_buffers().keys() == buffers.keys()
    for name, buf in model.named_buffers().items():
        assert buf is buffers[name], name
        assert np.shares_memory(buf, model.values), name
        assert not np.array_equal(buf, before[name]), name
    # The statistics follow the trainable part, which the forward left alone.
    n = model.parameter_count()
    assert model.values[:n].tobytes() == saved[:n].tobytes()
    model.restore(saved)
    for name, buf in model.named_buffers().items():
        assert buf.tobytes() == before[name].tobytes(), name


def test_checkpoint_names_follow_convention(tmp_path):
    model = init_model(Architecture(gat_layers=2, heads=3), seed=0)
    data = to_checkpoint(model)
    assert data["format_version"] == 3
    # Entries follow the weight vector: every parameter, then every buffer,
    # each at the float where the one before it ends.
    assert list(data["params"]) == [*model.named_parameters(),
                                    *model.named_buffers()]
    offsets = np.cumsum([0] + [arr.size for arr in _arrays(model).values()])
    assert [entry["offset"] for entry in data["params"].values()] \
        == offsets[:-1].tolist()
    assert len(data["data"]) == 16 * offsets[-1] == 16 * model.values.size
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


def _arrays(model) -> dict[str, np.ndarray]:
    """Every parameter and buffer array of a model itself, by name."""
    return model.named_parameters() | model.named_buffers()


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
    for name, arr in _arrays(init_model(arch, seed=seed)).items():
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


@pytest.mark.parametrize("pooling", ["sum", "interaction"])
def test_checkpoint_reads_edge_floats_to_the_same_bytes(pooling):
    model = init_model(Architecture(pooling=pooling), seed=9)
    for k, (name, arr) in enumerate(_arrays(model).items()):
        fill = np.roll(EDGE_FLOATS, k)[: arr.size]
        arr.flat[: fill.size] = np.abs(fill) if name.endswith("running_var") \
            else fill
    doc = json.loads(json.dumps(to_checkpoint(model)))
    assert _same_bytes(model, model_from_checkpoint(doc))


@pytest.mark.parametrize("version, entry", [
    (1, {"shape": [3], "values": [0.0, 0.0, 0.0]}),
    (2, {"shape": [3], "data": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}),
])
def test_formats_1_and_2_are_refused_by_version(version, entry):
    doc = {"format_version": version, "arch": {"gat_layers": 2},
           "params": {"head.out.bias": entry}}
    with pytest.raises(ValueError, match=f"format_version {version}: only "
                                         "format 3 is read"):
        model_from_checkpoint(doc)


def test_checkpoint_data_decodes_by_the_documented_recipe(tmp_path):
    # docs/checkpoint_format.md prints this recipe; the writer must agree.
    model = init_model(Architecture(count_scale=[1.5, 0.3, 2.0, 1.1]), seed=12)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    read = checkpoint_arrays(json.loads(path.read_text()))
    assert read.keys() == _arrays(model).keys()
    for name, arr in _arrays(model).items():
        assert read[name].shape == arr.shape, name
        assert read[name].tobytes() == arr.tobytes(), name


def test_checkpoint_accepts_the_featurizer_widths_of_older_documents():
    model = init_model(Architecture(), seed=3)
    doc = to_checkpoint(model)
    assert not {"node_features", "edge_features"} & doc["arch"].keys()
    old = _arch(doc, node_features=24, edge_features=9)
    assert _same_bytes(model, model_from_checkpoint(old))


def test_the_checkpoint_bytes_of_a_fixed_seed_model_are_pinned():
    doc = to_checkpoint(init_model(Architecture(), seed=1))
    assert list(doc["arch"]) == ["gat_layers", "heads", "embed_dim", "pooling",
                                 "hidden_layers", "hidden_width",
                                 "param_ranges", "count_scale"]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() \
        == "195c2994842e86dea9b13b5fbae9c2467a4c406333d2b9e42a4675eec0b3b3cf"


@pytest.mark.parametrize("box", ["omitted", "integers"])
def test_a_checkpoint_may_omit_the_antoine_box_or_give_it_as_integers(box):
    model = init_model(Architecture(pooling="sum"), seed=5)
    doc = json.loads(json.dumps(to_checkpoint(model)))
    if box == "omitted":
        del doc["arch"]["param_ranges"]
    else:
        doc["arch"]["param_ranges"] = {"A": [5, 20], "B": [1500, 6000],
                                       "C": [-300, 0]}
    loaded = model_from_checkpoint(doc)
    assert _same_bytes(model, loaded) and loaded.arch == model.arch
    assert to_checkpoint(loaded) == to_checkpoint(model)


def test_the_antoine_box_keeps_b_above_zero_and_a_above_ln_102_kpa():
    # B > 0 makes every predicted curve strictly increasing in T; A above
    # ln(102 kPa) gives every curve a normal boiling point, so evaluation's
    # boiling-point table cannot abort.
    assert PARAM_RANGES["B"][0] > 0.0
    assert PARAM_RANGES["A"][0] > math.log(102.0)
    assert all(lo < hi for lo, hi in PARAM_RANGES.values())


def test_an_architecture_takes_no_antoine_box():
    with pytest.raises(TypeError, match="param_ranges"):
        Architecture(param_ranges={k: list(v) for k, v in PARAM_RANGES.items()})


def test_two_saves_of_a_model_are_identical(tmp_path):
    model = init_model(Architecture(count_scale=[1.5, 0.3, 2.0, 1.1]), seed=4)
    save_checkpoint(model, tmp_path / "a.json")
    save_checkpoint(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_a_failed_save_leaves_the_old_checkpoint(monkeypatch, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_model(Architecture(), seed=4), path)
    before = path.read_bytes()

    def dump_until_the_disk_is_full(doc, fh):
        fh.write(json.dumps(doc)[:22])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(grappa.model.json, "dump", dump_until_the_disk_is_full)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(init_model(Architecture(), seed=5), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


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
    assert all(arr.flags.writeable and arr.base is loaded.values
               for arr in _arrays(loaded).values())
    before = {name: arr.copy() for name, arr in _arrays(loaded).items()}
    graphs = [featurize(parse_smiles(s)) for s in ("CCO", "CCCC", "c1ccccc1")]
    weighted_mean(forward_antoine(loaded, graphs, train=True), 1.0).backward()
    n = loaded.parameter_count()
    adamw_step(loaded.weights, loaded.grad,
               AdamWState(np.zeros(n), np.zeros(n)), lr=1e-3)
    after = _arrays(loaded)
    assert all(not np.array_equal(after[name], before[name]) for name in after)


def _arch(doc, **changes):
    return {**doc, "arch": {**doc["arch"], **changes}}


def _entry(doc, name, entry):
    return {**doc, "params": {**doc["params"], name: entry}}


def _offset(doc, name, offset):
    return _entry(doc, name, {**doc["params"][name], "offset": offset})


def _data(doc, data):
    return {**doc, "data": data}


BAD_CHECKPOINTS = {
    "top-level list": (lambda d: [d], "object"),
    "format_version as boolean": (lambda d: {**d, "format_version": True},
                                  "format_version True: only format 3"),
    "format_version 99": (lambda d: {**d, "format_version": 99},
                          "format_version 99: only format 3"),
    "unknown top-level key": (lambda d: {**d, "mystery": 1},
                              "checkpoint has unknown keys: .'mystery'"),
    "format 1 values beside format 3 data": (lambda d: {
        **d, "values": [0.0] * 14659}, "checkpoint has unknown keys: .'values'"),
    "missing arch": (lambda d: {k: v for k, v in d.items() if k != "arch"},
                     "arch"),
    "arch not an object": (lambda d: {**d, "arch": [4, 2]}, "arch"),
    "unknown arch key": (lambda d: _arch(d, mystery=1), "mystery"),
    "heads as text": (lambda d: _arch(d, heads="2"), "heads"),
    "embed_dim as float": (lambda d: _arch(d, embed_dim=32.0), "embed_dim"),
    "node_features off the featurizer": (lambda d: _arch(d, node_features=10),
                                         "node_features"),
    "edge_features off the featurizer": (lambda d: _arch(d, edge_features=10),
                                         "edge_features"),
    "node_features as float": (lambda d: _arch(d, node_features=24.0),
                               "node_features"),
    "param_ranges missing C": (lambda d: _arch(
        d, param_ranges={"A": [5.0, 20.0], "B": [1500.0, 6000.0]}),
        "param_ranges"),
    "param_ranges bound as text": (lambda d: _arch(
        d, param_ranges={**d["arch"]["param_ranges"], "C": ["-300", 0.0]}),
        "param_ranges"),
    "param_ranges of another box": (lambda d: _arch(
        d, param_ranges={**d["arch"]["param_ranges"], "C": [-250.0, 0.0]}),
        "arch param_ranges must be the package's"),
    "param_ranges bound as boolean": (lambda d: _arch(
        d, param_ranges={**d["arch"]["param_ranges"], "C": [-300.0, False]}),
        "param_ranges"),
    "count_scale of three": (lambda d: _arch(d, count_scale=[0.0, 1.0, 0.0]),
                             "count_scale"),
    "count_scale zero std": (lambda d: _arch(
        d, count_scale=[0.0, 0.0, 0.0, 1.0]), "count_scale"),
    "count_scale NaN": (lambda d: _arch(
        d, count_scale=[float("nan"), 1.0, 0.0, 1.0]), "count_scale"),
    "params not an object": (lambda d: {**d, "params": []}, "params"),
    "entry missing": (lambda d: {**d, "params": {
        k: v for k, v in d["params"].items() if k != "pool.Wq"}},
        "missing entries: .'pool.Wq'"),
    "unknown entry": (lambda d: _entry(d, "mystery", {"shape": [1], "offset": 0}),
                      "unknown entries: .'mystery'"),
    "entry not an object": (lambda d: _entry(d, "head.out.bias", [0.0] * 3),
                            "head.out.bias"),
    "entry with an unknown key": (lambda d: _entry(
        d, "head.out.bias", {**d["params"]["head.out.bias"], "extra": 5}),
        "entry 'head.out.bias' has unknown keys: .'extra'"),
    "entry carrying format 2 data": (lambda d: _entry(
        d, "head.out.bias", {**d["params"]["head.out.bias"], "data": "AAAA"}),
        "entry 'head.out.bias' has unknown keys: .'data'"),
    "parameter shape reversed": (lambda d: _entry(
        d, "head.out.weight", {**d["params"]["head.out.weight"],
                               "shape": [3, 16]}),
        "'head.out.weight' has shape .3, 16., expected .16, 3."),
    # A one-value running variance would broadcast over all 16 entries.
    "buffer of one value": (lambda d: _entry(
        d, "head.0.bn.running_var",
        {**d["params"]["head.0.bn.running_var"], "shape": [1]}),
        "'head.0.bn.running_var' has shape .1."),
    "buffer of a scalar": (lambda d: _entry(
        d, "head.0.bn.running_var",
        {**d["params"]["head.0.bn.running_var"], "shape": []}),
        "'head.0.bn.running_var' has shape .."),
    "shape not a list": (lambda d: _entry(
        d, "head.out.bias", {**d["params"]["head.out.bias"], "shape": "3"}),
        "head.out.bias"),
    "embed_dim far beyond the entries": (lambda d: _arch(d, embed_dim=2**40),
                                         "floats, more than the"),
    "embed_dim beyond the entries": (lambda d: _arch(d, embed_dim=2048),
                                     "'gat.0.0.theta_v' has shape"),
    "offset missing": (lambda d: _entry(d, "head.out.bias", {"shape": [3]}),
                       "'head.out.bias' has offset None"),
    "offset as float": (lambda d: _offset(
        d, "head.out.bias", float(d["params"]["head.out.bias"]["offset"])),
        "'head.out.bias' has offset 14560.0"),
    "offset as boolean": (lambda d: _offset(d, "gat.0.0.theta_v", False),
                          "'gat.0.0.theta_v' has offset False"),
    "offsets out of entry order": (lambda d: _offset(_offset(
        d, "head.out.weight", d["params"]["head.out.bias"]["offset"]),
        "head.out.bias", d["params"]["head.out.weight"]["offset"]),
        "'head.out.weight' has offset 14560"),
    "data not a string": (lambda d: _data(d, 7), "'data' must be a string"),
    "data missing": (lambda d: {k: v for k, v in d.items() if k != "data"},
                     "'data' must be a string"),
    "data not hex": (lambda d: _data(d, "g" + d["data"][1:]),
                     "'data' is not hex .Non-hexadecimal"),
    "data of odd length": (lambda d: _data(d, d["data"] + "0"),
                           "'data' is not hex .Odd-length"),
    "data not ASCII": (lambda d: _data(d, "\u0660" + d["data"][1:]),
                       "'data' is not hex .* ASCII"),
    "data with whitespace": (lambda d: _data(d, d["data"][:-2] + " 0"),
                             "'data' is not hex"),
    "data too short": (lambda d: _data(d, d["data"][:-16]),
                       "'data' holds 117264 bytes, expected 117272"),
    "data too long": (lambda d: _data(d, d["data"] + "00" * 8),
                      "'data' holds 117280 bytes, expected 117272"),
    "NaN value": (lambda d: with_entry_values(
        d, "head.out.bias", [0.0, np.nan, 0.0]),
        "'head.out.bias' holds a non-finite value"),
    "infinite value": (lambda d: with_entry_values(
        d, "head.out.weight", np.full((16, 3), -np.inf)),
        "'head.out.weight' holds a non-finite value"),
    "negative running variance": (lambda d: with_entry_values(
        d, "head.0.bn.running_var", np.full(16, -1e-3)),
        "'head.0.bn.running_var' holds a negative variance"),
    "shape of floats": (lambda d: _entry(
        d, "head.out.bias", {**d["params"]["head.out.bias"], "shape": [3.0]}),
        "head.out.bias"),
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
    params = forward_antoine(model, graphs)
    assert params.shape == (3, 3)
    for k, graph in enumerate(graphs):
        one = forward_antoine(model, [graph])
        assert one.data[0].tobytes() == params.data[k].tobytes()


def test_infer_forward_keeps_no_backward():
    model = init_model(Architecture(), seed=6)
    graphs = [featurize(parse_smiles(s)) for s in ("CCO", "CCN")]
    infer = forward_antoine(model, graphs)
    assert infer.stages and all(stage is None for stage in infer.stages)
    with pytest.raises(ValueError, match="inference"):
        weighted_mean(infer, 1.0).backward()
    train = forward_antoine(model, graphs, train=True)
    assert all(callable(stage) for stage in train.stages)
    model.grad[...] = np.nan
    weighted_mean(train, 1.0).backward()
    assert np.isfinite(model.grad).all()
    assert all(np.any(grad) for grad in model.grads.values())
    # A forward that raised leaves no mode behind.
    with pytest.raises(ValueError):
        forward_antoine(model, [])
    assert all(forward_antoine(model, graphs, train=True).stages)


def test_predict_dataset_covers_split():
    ds, _ = synthetic_dataset(points_per_component=4)
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=4)
    points, params = predict_dataset(model, ds, split="valid")
    valid_components = {c for c, s in ds.splits.items() if s == "valid"}
    assert set(params) == valid_components
    assert len(points) == 4 * len(valid_components)
    assert (points.p_pred_pa > 0).all()
    assert (points.mol_weight > 0).all()


@pytest.mark.parametrize("budget", [None, 7])
def test_predict_dataset_matches_predict_bytewise(monkeypatch, budget):
    # Heavy atoms run from 3 to 12 per molecule. With a budget of 7 ethanol
    # and propanol (3 + 4) fill one forward exactly, and every molecule of
    # more than 7 runs alone.
    ds, _ = synthetic_dataset(points_per_component=4)
    model = init_model(Architecture(), seed=7)
    if budget is not None:
        monkeypatch.setattr(grappa.model, "INFER_ATOMS", budget)
    budget = grappa.model.INFER_ATOMS
    forwards = []
    real_forward = grappa.model.forward_antoine

    def counting_forward(model, graphs, train=False):
        forwards.append([g.heavy_atom_count for g in graphs])
        return real_forward(model, graphs, train)

    monkeypatch.setattr(grappa.model, "forward_antoine", counting_forward)
    points, params = predict_dataset(model, ds)
    groups = ds.by_component()
    # The forwards take the molecules in component order, each as many as
    # fit the budget, a larger one alone.
    sizes = [featurize(parse_smiles(groups[c][0].smiles)).heavy_atom_count
             for c in sorted(groups)]
    assert [n for forward in forwards for n in forward] == sizes
    assert all(sum(forward) <= budget or len(forward) == 1
               for forward in forwards)
    assert all(sum(forward) + after[0] > budget
               for forward, after in zip(forwards, forwards[1:]))
    assert any(sum(forward) > budget for forward in forwards) == (budget == 7)
    assert (budget != 7) or [3, 4] in forwards
    assert sorted(params) == sorted(groups)
    for component, row in params.items():
        one = predict(model, groups[component][0].smiles).params
        assert np.array(one.as_tuple()).tobytes() \
            == np.array(row.as_tuple()).tobytes()
    # Each component's curve, evaluated alone as the per-component loop did;
    # every point also carries the curve's ln(p/kPa) itself.
    for component, group in groups.items():
        temps = np.array([pt.temperature_k for pt in group])
        alone = antoine(*params[component].as_tuple(), temps)
        mine = points.component_id == component
        assert points.p_pred_pa[mine].tobytes() == alone.tobytes()
        assert points.ln_p_pred_kpa[mine].tobytes() \
            == _ln_p_kpa(*params[component].as_tuple(), temps)[0].tobytes()
    # A split without components runs no forward.
    forwards.clear()
    points, params = predict_dataset(model, ds, split="test")
    assert forwards == [] and len(points) == 0 and params == {}


def test_a_component_naming_two_smiles_is_refused():
    ds = VpDataset([VpPoint("x", smiles, t, 1000.0)
                    for smiles in ("CCO", "CCCCCCO") for t in (300.0, 340.0)])
    message = "component 'x' names two SMILES, 'CCO' and 'CCCCCCO'"
    with pytest.raises(ValueError, match=message):
        prepare_components(ds)
    with pytest.raises(ValueError, match=message):
        predict_dataset(init_model(Architecture(**SMALL_ARCH), seed=0), ds)


def counting_featurize(monkeypatch) -> list[int]:
    """Record the heavy-atom count of every graph ``predict`` builds from
    then on."""
    built = []
    real_featurize = grappa.model.featurize

    def spy(mol):
        built.append(len(mol.atoms))
        return real_featurize(mol)

    monkeypatch.setattr(grappa.model, "featurize", spy)
    return built


def test_repeated_predict_parses_and_featurizes_once(monkeypatch):
    built = counting_featurize(monkeypatch)
    forwards = counting_forwards(monkeypatch)
    parsed = []
    real_parse = grappa.model.parse_smiles
    monkeypatch.setattr(grappa.model, "parse_smiles",
                        lambda text: parsed.append(text) or real_parse(text))
    model = init_model(Architecture(), seed=3)
    for _ in range(3):
        predict(model, "CC(=O)OCC", [300.0, 350.0], 101325.0)
    assert parsed == ["CC(=O)OCC"] and built == [6] and forwards == [1]
    predict(model, "CCO")
    assert parsed == ["CC(=O)OCC", "CCO"] and built == [6, 3]
    assert forwards == [1, 1]


def _prediction_bytes(model, smiles) -> bytes:
    out = predict(model, smiles, [260.0, 330.0, 480.0], 101325.0)
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in
                    (out.params.as_tuple(), out.ln_p_kpa, out.p_pa,
                     out.boiling_k))


def test_cached_predict_is_the_bytes_of_an_uncached_one(monkeypatch):
    forwards = counting_forwards(monkeypatch)
    models = [init_model(Architecture(), seed=11),
              init_model(Architecture(gat_layers=3, heads=1,
                                      pooling="sum"), seed=12)]
    molecules = ("CCO", "c1ccccc1O", "CC(=O)OCC", "OCCO", "CCCCCCN")
    cold = {(mi, smiles): _unmemoized_bytes(model, smiles)
            for mi, model in enumerate(models) for smiles in molecules}
    # Each model's first call per molecule runs a forward, and its second
    # is served from that model's memo.
    for _ in range(2):
        for mi, model in enumerate(models):
            for smiles in molecules:
                assert _prediction_bytes(model, smiles) == cold[mi, smiles]
    assert forwards == [1] * len(cold)
    assert cold[0, "CCO"] != cold[1, "CCO"]


@pytest.mark.parametrize("smiles, error", [("C((", SmilesError),
                                           ("", SmilesError),
                                           ("[NH4+]", ScopeError),
                                           ("O", ScopeError)])
def test_a_rejected_smiles_fails_alike_on_every_call(smiles, error):
    model = init_model(Architecture(), seed=3)
    predict(model, "CCO")
    memo = model.memo
    messages = set()
    for _ in range(3):
        with pytest.raises(error) as caught:
            predict(model, smiles)
        messages.add((type(caught.value), str(caught.value)))
    assert len(messages) == 1
    assert model.memo is memo and list(memo.rows) == ["CCO"]


def test_the_row_memo_holds_at_most_its_bound(monkeypatch):
    built = counting_featurize(monkeypatch)
    forwards = counting_forwards(monkeypatch)
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=0)
    distinct = ["C" * (i // 4 + 1) + ("", "O", "N", "Cl")[i % 4]
                for i in range(PREDICT_MEMO_SIZE + 8)]
    for smiles in distinct:
        predict(model, smiles)
    assert len(built) == len(forwards) == len(distinct)
    assert len(model.memo.rows) == PREDICT_MEMO_SIZE
    predict(model, distinct[-1])  # still held
    assert len(built) == len(forwards) == len(distinct)
    predict(model, distinct[0])  # evicted, so built and run again
    assert len(built) == len(forwards) == len(distinct) + 1
    assert len(model.memo.rows) == PREDICT_MEMO_SIZE


def counting_forwards(monkeypatch) -> list[int]:
    """Record the batch size of every ``forward_antoine`` that ``predict``
    runs from then on."""
    calls = []
    real_forward = grappa.model.forward_antoine

    def spy(model, graphs, *args, **kwargs):
        calls.append(len(graphs))
        return real_forward(model, graphs, *args, **kwargs)

    monkeypatch.setattr(grappa.model, "forward_antoine", spy)
    return calls


SMALL_ARCH = dict(gat_layers=2, heads=1, hidden_layers=1, embed_dim=8,
                  hidden_width=4)
TEMPS = [260.0, 330.0, 480.0]


def _unmemoized_bytes(model, smiles) -> bytes:
    """The bytes ``_prediction_bytes`` should read, from a forward on a
    freshly parsed and featurized graph."""
    graph = featurize(parse_smiles(smiles))
    params = AntoineParams(*forward_antoine(model, [graph]).data[0].tolist())
    ln_p = ln_vapor_pressure(params, TEMPS)
    return b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in
                    (params.as_tuple(), ln_p, np.exp(ln_p) * PA_PER_KPA,
                     boiling_temperature(params, 101325.0)))


def test_a_repeated_predict_on_an_unchanged_model_runs_no_forward(monkeypatch):
    forwards = counting_forwards(monkeypatch)
    model = init_model(Architecture(**SMALL_ARCH), seed=3)
    other = init_model(Architecture(**SMALL_ARCH), seed=4)
    first = _prediction_bytes(model, "CC(=O)OCC")
    assert forwards == [1]
    for _ in range(2):
        assert _prediction_bytes(model, "CC(=O)OCC") == first
        predict(model, "CC(=O)OCC")
    assert forwards == [1]
    # Each model keeps its own rows.
    assert _prediction_bytes(other, "CC(=O)OCC") \
        == _unmemoized_bytes(other, "CC(=O)OCC")
    assert forwards == [1, 1]
    assert _prediction_bytes(model, "CC(=O)OCC") == first
    assert forwards == [1, 1]

    def out_bias_sign(m):  # a zero's sign: a bitwise change only
        m.params["head.out.bias"][0] = -m.params["head.out.bias"][0]

    def write(m):
        m.params["head.0.weight"][1, 2] += 0.25

    def restore_other(m):
        m.restore(other.snapshot())

    def count_scale(m):
        m.arch = replace(m.arch, count_scale=(0.5, 1.5, 1.0, 2.0))

    for change in (out_bias_sign, write, restore_other, count_scale):
        change(model)
        forwards.clear()
        assert _prediction_bytes(model, "CC(=O)OCC") \
            == _unmemoized_bytes(model, "CC(=O)OCC"), change.__name__
        assert forwards == [1], change.__name__
        _prediction_bytes(model, "CC(=O)OCC")
        assert forwards == [1], change.__name__


def test_fitting_a_model_leaves_another_of_the_same_arch_as_it_was():
    # fit gives its model a new architecture with the count statistics, so
    # a model built from the same Architecture keeps its own.
    arch = Architecture(**SMALL_ARCH)
    fitted, other = init_model(arch, seed=1), init_model(arch, seed=2)
    before = _prediction_bytes(other, "CCC")
    ds, _ = synthetic_dataset()
    fit(fitted, ds.subset("train"), ds.subset("valid"),
        TrainConfig(batch_size=8, warmup_epochs=1, main_epochs=1,
                    standardize_counts=True))
    assert fitted.arch.count_scale is not None
    assert other.arch is arch and arch.count_scale is None
    assert _prediction_bytes(other, "CCC") == before \
        == _unmemoized_bytes(other, "CCC")


def test_a_non_str_smiles_is_refused_and_never_memoized():
    model = init_model(Architecture(**SMALL_ARCH), seed=3)
    refused = (123, b"CCO", None, ["CCO"], {"CCO": 1})
    for text in refused:
        with pytest.raises(TypeError, match="SMILES must be a str"):
            predict(model, text)
    assert model.memo is None
    # On a warm memo, an unhashable object is not looked up either.
    predict(model, "CCO")
    memo, rows = model.memo, list(model.memo.rows.items())
    for text in refused:
        with pytest.raises(TypeError, match="SMILES must be a str"):
            predict(model, text)
    assert model.memo is memo and list(memo.rows.items()) == rows


def _memo_op(model, snapshots, op):
    kind, arg = op
    if kind == "write":
        name, index, value = arg
        model.params[name].flat[index % model.params[name].size] = value
    elif kind == "restore":
        model.restore(snapshots[arg])
    elif kind == "count_scale":
        model.arch = replace(model.arch, count_scale=arg)
    else:
        assert _prediction_bytes(model, arg) == _unmemoized_bytes(model, arg)


MEMO_SMILES = ("CCO", "c1ccccc1O", "CC(=O)OCC", "OCCO")
MEMO_OPS = st.one_of(
    st.tuples(st.just("predict"), st.sampled_from(MEMO_SMILES)),
    st.tuples(st.just("write"), st.tuples(
        st.sampled_from(["gat.0.0.theta_v", "pool.Wk", "head.0.bn.beta",
                         "head.out.bias"]),
        st.integers(0, 63), st.sampled_from([0.0, -0.0, 0.125, -0.5]))),
    st.tuples(st.just("restore"), st.integers(0, 1)),
    st.tuples(st.just("count_scale"),
              st.sampled_from([None, [0.5, 1.5, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0]])),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(MEMO_OPS, max_size=14))
def test_memoized_predictions_are_the_bytes_of_unmemoized_ones(ops):
    model = init_model(Architecture(**SMALL_ARCH), seed=5)
    snapshots = [model.snapshot(),
                 init_model(Architecture(**SMALL_ARCH), seed=6).snapshot()]
    # Every molecule is memoized first and predicted again last, so any
    # stale row shows.
    predicts = [("predict", smiles) for smiles in MEMO_SMILES]
    for op in predicts + ops + predicts:
        _memo_op(model, snapshots, op)


def test_threads_sharing_a_model_never_see_the_memo_raise():
    model = init_model(Architecture(**SMALL_ARCH), seed=3)
    distinct = ["C" * (i // 4 + 1) + ("", "O", "N", "Cl")[i % 4]
                for i in range(PREDICT_MEMO_SIZE + 24)]
    expected = {smiles: predict(model, smiles).params for smiles in distinct}
    errors, seen = [], []

    def work(order):
        try:
            for smiles in order:
                seen.append(predict(model, smiles).params == expected[smiles])
        except Exception as err:  # noqa: BLE001 - the test reports it
            errors.append(err)

    rng = np.random.default_rng(0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(list(
            rng.permutation(distinct)),)) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(seen) == 3 * len(distinct) and all(seen)
    assert len(model.memo.rows) <= PREDICT_MEMO_SIZE


# In-scope molecules from one atom to two fused rings, with stereo bonds,
# halogens, phosphorus and sulfur.
MIXED_MOLECULES = ("C", "CCO", "OCCO", "CCCl", "CCBr", "CP(C)C", "CCSC",
                   "F/C=C/F", "c1ccccc1O", "c1ccc2ccccc2c1", "CN1CCCC1",
                   "CC(=O)Nc1ccc(O)cc1", "CCCCCCCCCCCC")


@pytest.mark.parametrize("seed", [21, 22])
def test_hit_miss_and_predict_dataset_agree_bytewise(seed, monkeypatch):
    ds, _ = synthetic_dataset(points_per_component=4)
    temps = [300.0, 380.0, 460.0]
    extra = [VpPoint(smiles, smiles, t, 1000.0) for smiles in MIXED_MOLECULES
             for t in temps]
    ds = VpDataset(ds.points + extra)
    model = init_model(Architecture(), seed=seed)
    points, params = predict_dataset(model, ds)
    forwards = counting_forwards(monkeypatch)
    for component, group in ds.by_component().items():
        smiles = group[0].smiles
        model.memo = None  # so the first call misses
        forwards.clear()
        miss = _prediction_bytes(model, smiles)
        assert _prediction_bytes(model, smiles) == miss
        assert forwards == [1]
        hit = predict(model, smiles, [pt.temperature_k for pt in group])
        assert np.array(hit.params.as_tuple()).tobytes() \
            == np.array(params[component].as_tuple()).tobytes()
        mine = points.component_id == component
        assert hit.ln_p_kpa.tobytes() == points.ln_p_pred_kpa[mine].tobytes()


def test_the_row_memo_stays_small_and_leaves_with_its_model():
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=0)
    distinct = ["C" * (i // 4 + 1) + ("", "O", "N", "Cl")[i % 4]
                for i in range(PREDICT_MEMO_SIZE)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for smiles in distinct:
            predict(model, smiles)
        gc.collect()  # the parsed molecules, which hold reference cycles
        memo = tracemalloc.get_traced_memory()[0] - base
        assert len(model.memo.rows) == PREDICT_MEMO_SIZE
        snapshot = model.memo.bits.nbytes
        del model
        gc.collect()
        freed = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # The rows take a few hundred bytes each beside the weights' snapshot.
    assert snapshot <= memo < snapshot + 400 * PREDICT_MEMO_SIZE
    # The memo leaves with its model; what stays is numpy's small-buffer
    # cache, a few KB.
    assert freed < 0.2 * memo


def test_attention_scores_work_on_model_layers():
    model = init_model(Architecture(), seed=5)
    graph = featurize(parse_smiles("CC(=O)O"))
    scores = attention_scores(graph, model.gat)
    assert scores.shape == (4,)
    assert ((scores >= 0) & (scores <= 1)).all()


def test_attention_scores_keep_no_backward(monkeypatch):
    model = init_model(Architecture(), seed=5)
    outputs = []
    real_forward = grappa.gnn.gat_forward

    def spy(*args):
        out, attentions = real_forward(*args)
        outputs.append(out)
        return out, attentions

    monkeypatch.setattr(grappa.gnn, "gat_forward", spy)
    attention_scores(featurize(parse_smiles("CC(=O)O")), model.gat)
    assert len(outputs) == model.arch.gat_layers
    assert all(stage is None for out in outputs for stage in out.stages)


@pytest.mark.parametrize("arch", [
    Architecture(), Architecture(pooling="sum"),
    Architecture(gat_layers=2, heads=3, embed_dim=5, hidden_layers=1,
                 hidden_width=7),
    Architecture(gat_layers=5, heads=1, embed_dim=1, hidden_layers=4,
                 hidden_width=1),
], ids=["default", "sum", "wide-heads", "narrow"])
def test_the_closed_form_vector_size_counts_every_array(arch):
    listed = sum(math.prod(shape) for _, shape, _, _ in _array_specs(arch))
    assert _vector_size(arch) == listed == init_model(arch).values.size


@pytest.mark.parametrize("sizes", [
    {"embed_dim": 2**40}, {"gat_layers": 10**18}, {"hidden_layers": 10**18},
    {"hidden_width": 2**20}, {"heads": 2**30},
], ids=lambda sizes: next(iter(sizes)))
def test_an_arch_beyond_the_float_limit_is_refused_before_allocating(sizes):
    with pytest.raises(ValueError, match=f"more than the {MAX_MODEL_FLOATS}"):
        Architecture(**sizes)
