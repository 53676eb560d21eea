import json
import math

import numpy as np
import pytest

import grappa.model
from grappa.featurize import featurize
from grappa.gnn import attention_scores
from grappa.model import (
    Architecture,
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
    assert data["format_version"] == 1
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
    with pytest.raises(ValueError):
        model_from_checkpoint(bad)
    bad = json.loads(json.dumps(good))
    bad["params"]["mystery"] = {"shape": [1], "values": [0.0]}
    with pytest.raises(ValueError):
        model_from_checkpoint(bad)


@pytest.mark.parametrize("shape", [[1], []])
def test_checkpoint_rejects_a_wrong_shaped_buffer(shape):
    # A one-value running variance would broadcast over all 16 entries.
    data = to_checkpoint(init_model(Architecture(), seed=1))
    data["params"]["head.0.bn.running_var"] = {"shape": shape, "values": [2.0]}
    with pytest.raises(ValueError, match="head.0.bn.running_var"):
        model_from_checkpoint(data)


def test_checkpoint_rejects_a_wrong_shaped_parameter():
    data = to_checkpoint(init_model(Architecture(), seed=1))
    entry = data["params"]["head.out.weight"]
    entry["shape"] = entry["shape"][::-1]
    with pytest.raises(ValueError, match="head.out.weight"):
        model_from_checkpoint(data)


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
