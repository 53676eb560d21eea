import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from grappa.cli import main
from grappa.dataio import VpDataset, VpPoint, write_csv, write_splits_csv
from grappa.model import Architecture, encode_entry, init_model, save_checkpoint

from _oracles import contaminate, synthetic_dataset


@pytest.fixture()
def model_path(tmp_path):
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    return str(path)


@pytest.fixture()
def data_path(tmp_path):
    ds, _ = synthetic_dataset(points_per_component=6)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    splits = tmp_path / "splits.csv"
    write_splits_csv(ds, splits)
    return str(path), str(splits)


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else {})


def test_predict_contract(capsys, model_path):
    code, payload = run(capsys, "predict", "--model", model_path,
                        "--smiles", "CCO", "--temp", "298.15")
    assert code == 0
    assert set(payload) == {"A", "B", "C", "ln_p_kPa", "p_Pa"}
    assert 5.0 < payload["A"] < 20.0
    assert payload["p_Pa"] == pytest.approx(
        1000.0 * np.exp(payload["ln_p_kPa"]))


def test_predict_without_temperature(capsys, model_path):
    code, payload = run(capsys, "predict", "--model", model_path,
                        "--smiles", "CCO")
    assert code == 0
    assert set(payload) == {"A", "B", "C"}


def test_predict_is_bit_reproducible(capsys, model_path):
    main(["predict", "--model", model_path, "--smiles", "CCO", "--temp", "300"])
    first = capsys.readouterr().out
    main(["predict", "--model", model_path, "--smiles", "CCO", "--temp", "300"])
    assert capsys.readouterr().out == first


def test_predict_scope_rejection_exits_1(capsys, model_path):
    code = main(["predict", "--model", model_path, "--smiles", "[NH4+]"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_predict_parse_error_exits_1(capsys, model_path):
    code = main(["predict", "--model", model_path, "--smiles", "C(("])
    assert code == 1


def test_boil_with_direct_parameters(capsys):
    code, payload = run(capsys, "boil", "--A", "10", "--B", "2000",
                        "--C", "-50", "--pressure", "1000")
    assert code == 0
    assert payload["T_b_K"] == pytest.approx(250.0)


def test_boil_with_model(capsys, model_path):
    code, payload = run(capsys, "boil", "--model", model_path,
                        "--smiles", "CCO", "--pressure", "101325")
    assert code == 0
    assert {"A", "B", "C", "T_b_K"} <= set(payload)


def test_boil_without_enough_arguments(capsys):
    code = main(["boil", "--pressure", "1000"])
    assert code == 1


def test_unknown_flag_exits_2(capsys):
    assert main(["predict", "--frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["transmogrify"]) == 2


def test_curate_names_injected_outliers(capsys, tmp_path):
    ds, _ = synthetic_dataset(points_per_component=8)
    dirty, injected = contaminate(ds, factor=2.0)
    src = tmp_path / "dirty.csv"
    write_csv(dirty, src)
    out = tmp_path / "clean.csv"
    audit = tmp_path / "audit.jsonl"
    code, payload = run(capsys, "curate", "--input", str(src),
                        "--output", str(out), "--audit", str(audit))
    assert code == 0
    assert payload["points_dropped"] == len(injected)
    entries = [json.loads(line) for line in
               audit.read_text().strip().splitlines()]
    dropped = {e["row"] for e in entries
               if e["rule"] == "outlier_vs_antoine_fit"}
    original_rows = {pt.row for pt in dirty.points}
    loaded_rows = {}
    for k, pt in enumerate(sorted(dirty.points, key=lambda p: p.row)):
        loaded_rows[k + 2] = pt.row  # CSV rows start after the header
    assert {loaded_rows[r] for r in dropped} == injected
    assert payload["audit_rules"] == {"outlier_vs_antoine_fit": len(injected)}


def test_curate_summary_counts_audit_rules(capsys, tmp_path):
    ds, _ = synthetic_dataset(points_per_component=8)
    dirty, _ = contaminate(ds, factor=2.0)
    points = list(dirty.points)
    points[0] = VpPoint(points[0].component_id, points[0].smiles,
                        points[0].temperature_k, points[0].pressure_pa,
                        quality="poor", row=points[0].row)
    # Six points within 0.5 K: too narrow to fit, so kept as they are.
    points += [VpPoint("narrow", "CCCO", 300.0 + 0.1 * k, 2000.0 + k)
               for k in range(6)]
    src = tmp_path / "dirty.csv"
    write_csv(VpDataset(points, dict(dirty.splits)), src)
    audit = tmp_path / "audit.jsonl"
    code, payload = run(capsys, "curate", "--input", str(src), "--output",
                        str(tmp_path / "clean.csv"), "--audit", str(audit))
    assert code == 0
    entries = [json.loads(line) for line in audit.read_text().splitlines()]
    assert payload["audit_rules"] == dict(Counter(e["rule"] for e in entries))
    assert payload["audit_rules"]["poor_quality"] == 1
    assert payload["audit_rules"]["fit_skipped_narrow_range"] == 1


def test_split_respects_seed_and_writes_csv(capsys, tmp_path, data_path):
    data, _ = data_path
    out = tmp_path / "sp.csv"
    code, payload = run(capsys, "split", "--input", data, "--output", str(out),
                        "--seed", "5")
    assert code == 0
    first = out.read_text()
    code, _ = run(capsys, "split", "--input", data, "--output", str(out),
                  "--seed", "5")
    assert out.read_text() == first
    assert payload["components"]["train"] >= 1


def test_split_seed_env_fallback(capsys, tmp_path, data_path, monkeypatch):
    data, _ = data_path
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    monkeypatch.setenv("GRAPPA_SEED", "17")
    run(capsys, "split", "--input", data, "--output", str(out_a))
    run(capsys, "split", "--input", data, "--output", str(out_b))
    assert out_a.read_text() == out_b.read_text()
    monkeypatch.setenv("GRAPPA_SEED", "18")
    run(capsys, "split", "--input", data, "--output", str(out_b))
    assert out_a.read_text() != out_b.read_text()


def test_fit_antoine_single_component(capsys, data_path):
    from _oracles import synthetic_params

    data, _ = data_path
    code, payload = run(capsys, "fit-antoine", "--input", data,
                        "--component", "alkane-5")
    assert code == 0
    fit = payload["fits"][0]
    assert fit["converged"]
    truth = synthetic_params(5, 0)
    assert fit["A"] == pytest.approx(truth.A, rel=1e-3)
    assert fit["B"] == pytest.approx(truth.B, rel=1e-3)


def test_fit_antoine_unknown_component(capsys, data_path):
    data, _ = data_path
    assert main(["fit-antoine", "--input", data,
                 "--component", "nope"]) == 1


@pytest.mark.parametrize("corrupt", [
    lambda d: [d],
    lambda d: {k: v for k, v in d.items() if k != "arch"},
    lambda d: {**d, "arch": {**d["arch"], "mystery": 1}},
    lambda d: {**d, "arch": {**d["arch"], "heads": "2"}},
    lambda d: {**d, "params": {**d["params"], "head.out.bias":
                               encode_entry(np.array([0.0, np.inf, 0.0]))}},
    lambda d: {**d, "params": {**d["params"], "head.0.bn.running_var":
                               encode_entry(np.full(16, -1.0))}},
], ids=["list", "no-arch", "unknown-arch-key", "heads-text", "inf-param",
        "negative-variance"])
def test_predict_with_a_malformed_checkpoint_exits_1(capsys, tmp_path,
                                                      model_path, corrupt):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(Path(model_path).read_text()))))
    code = main(["predict", "--model", str(bad), "--smiles", "CCO"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_evaluate_and_report(capsys, tmp_path, model_path, data_path):
    data, splits = data_path
    code, payload = run(capsys, "evaluate", "--model", model_path,
                        "--data", data, "--splits", splits,
                        "--split", "valid")
    assert code == 0
    assert "metrics" in payload
    assert payload["metrics"]["n_points"] == 4 * 6

    outdir = tmp_path / "reports"
    code, payload = run(capsys, "report", "--model", model_path,
                        "--data", data, "--splits", splits,
                        "--split", "valid", "--outdir", str(outdir))
    assert code == 0
    names = set(payload["files"])
    assert {"metrics.json", "hexbin.csv", "ape_by_pressure.csv",
            "binned.json", "boiling.json"} <= names
    header = (outdir / "hexbin.csv").read_text().splitlines()[0]
    assert header == "T_center,lnp_center,MAPE_i,count"


def test_evaluate_never_mutates_inputs(capsys, model_path, data_path):
    data, splits = data_path
    before = (Path(data).read_text(), Path(splits).read_text())
    run(capsys, "evaluate", "--model", model_path, "--data", data,
        "--splits", splits, "--split", "valid")
    assert (Path(data).read_text(), Path(splits).read_text()) == before


def test_attention_scores_payload(capsys, model_path):
    code, payload = run(capsys, "attention", "--model", model_path,
                        "--smiles", "CC(=O)O")
    assert code == 0
    scores = payload["scores"]
    assert [s["atom"] for s in scores] == [0, 1, 2, 3]
    assert all(0.0 <= s["score"] <= 1.0 for s in scores)
    assert scores[0]["element"] == "C"


def test_train_command_end_to_end(capsys, tmp_path, data_path):
    data, splits = data_path
    config = {
        "data": data,
        "splits": splits,
        "output_model": str(tmp_path / "trained.json"),
        "history": str(tmp_path / "history.csv"),
        "arch": {"gat_layers": 2, "heads": 1, "hidden_layers": 1},
        "train": {"batch_size": 8, "warmup_epochs": 2, "main_epochs": 2,
                  "seed": 3},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, payload = run(capsys, "train", "--config", str(cfg_path))
    assert code == 0
    assert os.path.exists(config["output_model"])
    history = Path(config["history"]).read_text().splitlines()
    assert history[0] == "epoch,phase,lr,train_loss,valid_mape_i"
    assert len(history) == 1 + 4

    code2, payload2 = run(capsys, "predict", "--model",
                          config["output_model"], "--smiles", "CCCCC",
                          "--temp", "400")
    assert code2 == 0


def test_grid_search_command(capsys, tmp_path, data_path):
    data, splits = data_path
    config = {
        "data": data,
        "splits": splits,
        "train": {"batch_size": 8, "warmup_epochs": 1, "main_epochs": 1,
                  "seed": 4,
                  "grid_gat_layers": [2], "grid_heads": [1, 2],
                  "grid_hidden_layers": [1], "grid_pooling": ["sum"]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "grid.csv"
    code, payload = run(capsys, "grid-search", "--config", str(cfg_path),
                        "--output", str(out))
    assert code == 0
    assert payload["cells"] == 2
    ranks = [row["rank"] for row in payload["ranking"]]
    assert ranks == [1, 2]
    assert out.exists()
