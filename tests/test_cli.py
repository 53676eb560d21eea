import csv
import errno
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import grappa.cli
import grappa.model
from grappa import dataio, metrics
from grappa.cli import main
from grappa.dataio import VpDataset, VpPoint, write_csv, write_splits_csv
from grappa.model import Architecture, init_model, save_checkpoint

from _oracles import contaminate, synthetic_dataset, with_entry_values


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


@pytest.mark.parametrize("temp", ["inf", "nan", "0"])
def test_predict_rejects_a_temperature_off_the_kelvin_scale(capsys, model_path,
                                                           temp):
    code = main(["predict", "--model", model_path, "--smiles", "CCO",
                 "--temp", temp])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: temperature must be finite and positive")
    assert temp in err


@pytest.mark.parametrize("pressure", ["nan", "inf"])
def test_boil_rejects_a_non_finite_pressure(capsys, pressure):
    code = main(["boil", "--A", "10", "--B", "3000", "--C", "-50",
                 "--pressure", pressure])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: pressure must be finite and positive")


@pytest.mark.parametrize("flag, value", [("--A", "inf"), ("--B", "nan"),
                                         ("--C", "nan"), ("--C", "-inf")])
def test_boil_rejects_non_finite_antoine_parameters(capsys, flag, value):
    given = {"--A": "10", "--B": "3000", "--C": "-50", flag: value}
    code = main(["boil", *(f"{k}={v}" for k, v in given.items()),
                 "--pressure", "101325"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: Antoine parameter {flag[-1]} must be finite, got {value}")


@pytest.mark.parametrize("given", [("5", "1", "300"), ("12", "-3627", "-136")])
def test_boil_rejects_a_solution_off_the_curve(capsys, given):
    a, b, c = given
    code = main(["boil", f"--A={a}", f"--B={b}", f"--C={c}",
                 "--pressure", "101325"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no boiling point: T=-")


def test_boil_refuses_a_solution_that_overflows(capsys):
    code = main(["boil", "--A", "5", "--B", "1e308", "--C", "-50",
                 "--pressure", "101325.00000000003"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no boiling point: T overflows to inf "
                            "(A=5.0, B=1e+308, C=-50.0)\n")


def test_a_negative_number_can_follow_its_flag(capsys):
    # argparse alone reads -5.2e1 as an option and exits 2.
    code, spaced = run(capsys, "boil", "--A", "14", "--B", "3000", "--C",
                       "-5.2e1", "--pressure", "101325")
    assert code == 0
    _, joined = run(capsys, "boil", "--A", "14", "--B", "3000", "--C=-52.0",
                    "--pressure", "101325")
    assert spaced["T_b_K"] == joined["T_b_K"]
    code = main(["boil", "--A", "14", "--B", "-inf", "--C", "-52",
                 "--pressure", "101325"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: Antoine parameter B must be finite, got -inf")


def test_a_negative_temperature_is_a_value_error(capsys, model_path):
    code = main(["predict", "--model", model_path, "--smiles", "CCO",
                 "--temp", "-1e2"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: temperature must be finite and positive")


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


def test_split_leaves_an_unparseable_smiles_unassigned(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("component_id,smiles,temperature_K,pressure_Pa,quality\n"
                    "bad,C(C,300,1000,ok\n"
                    "hexane,CCCCCC,300,1000,ok\n")
    out = tmp_path / "sp.csv"
    code, payload = run(capsys, "split", "--input", str(path), "--output",
                        str(out))
    assert code == 0
    assert payload["components"] == {"unassigned": 1, "train": 1}
    assert payload["components_skipped"] == {"smiles": 1}
    assert out.read_text().splitlines()[1] == "bad,unassigned"


def python_m_grappa(cwd, *argv) -> subprocess.CompletedProcess:
    """``python -m grappa *argv`` in a new interpreter, run in ``cwd``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "grappa", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=60)


def test_python_m_grappa_runs_the_command_line(tmp_path):
    done = python_m_grappa(tmp_path, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: grappa")
    assert "fit-antoine" in done.stdout


def test_a_failing_command_prints_one_error_line_and_no_numpy_warning(tmp_path):
    done = python_m_grappa(tmp_path, "boil", "--A", "5", "--B", "1e308",
                           "--C", "-50", "--pressure", "101325.00000000003")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == ("error: no boiling point: T overflows to inf "
                           "(A=5.0, B=1e+308, C=-50.0)\n")


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


def test_a_seed_variable_that_is_not_an_integer_is_named(capsys, tmp_path,
                                                         data_path, monkeypatch):
    data, _ = data_path
    out = tmp_path / "splits.csv"
    monkeypatch.setenv("GRAPPA_SEED", "abc")
    assert main(["split", "--input", data, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: GRAPPA_SEED must be an integer, got 'abc'\n")
    monkeypatch.setenv("GRAPPA_SEED", " 17 ")
    run(capsys, "split", "--input", data, "--output", str(out))
    padded = out.read_text()
    monkeypatch.setenv("GRAPPA_SEED", "17")
    run(capsys, "split", "--input", data, "--output", str(out))
    assert out.read_text() == padded


def test_a_negative_seed_is_named(capsys, tmp_path, data_path, monkeypatch):
    data, splits = data_path
    out = tmp_path / "labels.csv"
    assert main(["split", "--input", data, "--output", str(out),
                 "--seed", "-1"]) == 2
    assert "argument --seed" in capsys.readouterr().err
    monkeypatch.setenv("GRAPPA_SEED", "-4")
    assert main(["split", "--input", data, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: GRAPPA_SEED must not be negative, got '-4'\n")
    assert not out.exists()
    monkeypatch.delenv("GRAPPA_SEED")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": data, "splits": splits,
                                    "train": {"seed": -3}}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: seed must not be negative\n"


@pytest.mark.parametrize("axis", ["grid_gat_layers", "grid_heads",
                                  "grid_hidden_layers", "grid_pooling"])
def test_grid_search_rejects_an_empty_grid_axis(capsys, tmp_path, data_path,
                                                axis):
    data, splits = data_path
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"data": data, "splits": splits,
                                    "train": {axis: []}}))
    out = tmp_path / "grid.csv"
    assert main(["grid-search", "--config", str(cfg_path),
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {axis} must not be empty\n"
    assert not out.exists()


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


def test_fit_antoine_skips_components_outside_the_fit_window(capsys, tmp_path):
    def points(component, temps):
        return [VpPoint(component, "CCCCC", t,
                        float(1000.0 * np.exp(14.0 - 3000.0 / (t - 40.0))))
                for t in temps]

    ds = VpDataset(points("wide", [300.0, 320.0, 340.0, 360.0])
                   + points("two-points", [300.0, 340.0])
                   + points("narrow", [300.0, 300.5, 301.0]))
    path = tmp_path / "window.csv"
    write_csv(ds, path)
    code, payload = run(capsys, "fit-antoine", "--input", str(path))
    assert code == 0
    assert [row["component_id"] for row in payload["fits"]] == ["wide"]
    assert payload["skipped"] == ["narrow", "two-points"]
    for component in ("narrow", "two-points"):
        assert main(["fit-antoine", "--input", str(path),
                     "--component", component]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_fit_antoine_and_train_count_rows_rejected_on_load(capsys, tmp_path,
                                                          data_path):
    data, splits = data_path
    with open(data, "a", encoding="utf-8") as fh:
        fh.write("alkane-5,CCCCC,nan,1000.0,ok,,true\n"
                 "alkane-5,CCCCC,300.0,inf,ok,,true\n"
                 "alkane-5,CCCCC,warm,1000.0,ok,,true\n")
    code, payload = run(capsys, "fit-antoine", "--input", data)
    assert code == 0 and payload["rows_rejected_on_load"] == 3
    assert payload["fits"]

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": data, "splits": splits,
        "output_model": str(tmp_path / "trained.json"),
        "history": str(tmp_path / "history.csv"),
        "arch": {"gat_layers": 2, "heads": 1, "hidden_layers": 1},
        "train": {"batch_size": 8, "warmup_epochs": 1, "main_epochs": 1}}))
    code, payload = run(capsys, "train", "--config", str(config))
    assert code == 0 and payload["rows_rejected_on_load"] == 3

    every_row_bad = tmp_path / "bad.csv"
    every_row_bad.write_text(
        "component_id,smiles,temperature_K,pressure_Pa,quality\n"
        "a,CCO,300.0,-5.0,ok\n"
        "a,CCO,nan,1000.0,ok\n")
    code, payload = run(capsys, "fit-antoine", "--input", str(every_row_bad))
    assert code == 0
    assert payload == {"fits": [], "skipped": [], "rows_rejected_on_load": 2}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_files_saved_with_a_byte_order_mark_load(capsys, tmp_path, fmt):
    # Spreadsheets export UTF-8 with a leading byte-order mark.
    points = [VpPoint("a", "CCCCC", t,
                      float(1000.0 * np.exp(14.0 - 3000.0 / (t - 40.0))))
              for t in (300.0, 320.0, 340.0)]
    plain = tmp_path / f"plain.{fmt}"
    if fmt == "csv":
        write_csv(VpDataset(points), plain)
    else:
        plain.write_text("".join(
            json.dumps({"component_id": pt.component_id, "smiles": pt.smiles,
                        "temperature_K": pt.temperature_k,
                        "pressure_Pa": pt.pressure_pa, "quality": "ok"}) + "\n"
            for pt in points))
    marked = tmp_path / f"marked.{fmt}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        code, payload = run(capsys, "fit-antoine", "--input", str(path),
                            "--format", fmt)
        assert code == 0
        outputs.append(payload)
    assert outputs[1] == outputs[0]
    assert [row["component_id"] for row in outputs[1]["fits"]] == ["a"]
    assert outputs[1]["rows_rejected_on_load"] == 0


def test_jsonl_rows_that_are_not_objects_are_counted_rejects(capsys, tmp_path):
    base = {"component_id": "a", "smiles": "CCCCC", "quality": "ok"}
    rows = [json.dumps({**base, "temperature_K": t,
                        "pressure_Pa": 1000.0 * np.exp(14.0 - 3000.0 / (t - 40.0))})
            for t in (300.0, 320.0, 340.0, 360.0)]
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(["[1, 2]", *rows, "null", "7"]) + "\n")
    code, payload = run(capsys, "fit-antoine", "--input", str(path),
                        "--format", "jsonl")
    assert code == 0
    assert payload["rows_rejected_on_load"] == 3
    assert [row["component_id"] for row in payload["fits"]] == ["a"]


@pytest.mark.parametrize("command", ["train", "grid-search"])
@pytest.mark.parametrize("config", [
    lambda data: {"data": data, "train": {"batch_sise": 16}},
    lambda data: {"data": data, "train": {"batch_size": "16"}},
    lambda data: {"data": data, "train": {"max_lr": None}},
    lambda data: {"data": data, "train": [8]},
    lambda data: {"train": {"batch_size": 8}},
    lambda data: {"data": [data]},
    lambda data: {"data": data, "splits": [data]},
    lambda data: [data],
    lambda data: "[" * 200_000,
])
def test_training_with_a_malformed_config_exits_1(capsys, tmp_path, data_path,
                                                  command, config):
    cfg_path = tmp_path / "config.json"
    config = config(data_path[0])  # a str is the file's text
    cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
    code = main([command, "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("setting", [
    {"main_lr": -0.01}, {"weight_decay": -1.0}, {"eps": 0.0},
    {"betas": [1.5, 0.999]}, {"plateau_factor": 2.0},
], ids=lambda setting: next(iter(setting)))
def test_train_with_an_out_of_range_setting_exits_1(capsys, tmp_path,
                                                     data_path, setting):
    # A config that trains (one epoch per phase) but for the one setting.
    data, splits = data_path
    output = tmp_path / "trained.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": data, "splits": splits, "output_model": str(output),
        "arch": {"gat_layers": 2, "heads": 1, "hidden_layers": 1},
        "train": {"batch_size": 8, "warmup_epochs": 1, "main_epochs": 1,
                  **setting}}))
    code = main(["train", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and next(iter(setting)) in err
    assert "Traceback" not in err and not output.exists()


@pytest.mark.parametrize("argv", [
    lambda f: ["split", "--input", f["data"], "--output", f["out"],
               "--ratios", "0.5,0.5"],
    lambda f: ["split", "--input", f["data"], "--output", f["out"],
               "--ratios=-0.5,0.5,1.0"],
    lambda f: ["evaluate", "--model", f["model"], "--data", f["data"],
               "--splits", f["data"], "--split", "valid"],
    lambda f: ["train", "--config", f["config"]],
], ids=["two-ratios", "negative-ratio", "splits-without-columns",
        "unknown-config-key"])
def test_bad_outside_input_exits_1(capsys, tmp_path, data_path, model_path,
                                   argv):
    data, splits = data_path
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": data, "splits": splits,
                                  "output_modle": str(tmp_path / "m.json")}))
    code = main(argv({"data": data, "model": model_path, "config": str(config),
                      "out": str(tmp_path / "out.csv")}))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("corrupt", [
    lambda d: [d],
    lambda d: {k: v for k, v in d.items() if k != "arch"},
    lambda d: {**d, "arch": {**d["arch"], "mystery": 1}},
    lambda d: {**d, "arch": {**d["arch"], "heads": "2"}},
    lambda d: with_entry_values(d, "head.out.bias", [0.0, np.inf, 0.0]),
    lambda d: with_entry_values(d, "head.0.bn.running_var", np.full(16, -1.0)),
    lambda d: {**d, "data": d["data"][:-1] + "x"},
    lambda d: {**d, "arch": {**d["arch"], "embed_dim": 2**40}},
    lambda d: "[" * 200_000,
    lambda d: {**d, "params": {**d["params"], "head.out.bias": {
        **d["params"]["head.out.bias"], "data": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}}},
], ids=["list", "no-arch", "unknown-arch-key", "heads-text", "inf-param",
        "negative-variance", "data-not-hex", "embed-dim-beyond-entries",
        "deeply-nested", "entry-carrying-data"])
def test_predict_with_a_malformed_checkpoint_exits_1(capsys, tmp_path,
                                                      model_path, corrupt):
    bad = tmp_path / "bad.json"
    data = corrupt(json.loads(Path(model_path).read_text()))  # a str is the text
    bad.write_text(data if isinstance(data, str) else json.dumps(data))
    code = main(["predict", "--model", str(bad), "--smiles", "CCO"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("version", [1, 2])
def test_a_checkpoint_of_an_old_format_is_refused_by_version(capsys, tmp_path,
                                                             version):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"format_version": version, "arch": {},
                               "params": {}}))
    code = main(["predict", "--model", str(old), "--smiles", "CCO"])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err.startswith(f"error: unsupported checkpoint format_version "
                          f"{version}: only format 3 is read")


def test_a_checkpoint_of_another_antoine_box_is_refused_by_name(
        capsys, tmp_path, model_path):
    doc = json.loads(Path(model_path).read_text())
    doc["arch"]["param_ranges"]["C"] = [-250.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["predict", "--model", str(bad), "--smiles", "CCO"])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err.startswith("error: arch param_ranges must be the package's")


@pytest.mark.parametrize("rows", ["c2,train\nc3\n", "c2,train\nc2,test\n",
                                  "c2,train,extra\n", "c2,\n", ",train\n"],
                         ids=["no-label", "second-label", "extra-field",
                              "empty-label", "no-component"])
def test_evaluate_refuses_a_malformed_splits_row(capsys, tmp_path, model_path,
                                                 data_path, rows):
    splits = tmp_path / "bad_splits.csv"
    splits.write_text("component_id,split\n" + rows)
    code = main(["evaluate", "--model", model_path, "--data", data_path[0],
                 "--splits", str(splits), "--split", "train"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {splits}: line ") and "Traceback" not in err


OVERSIZED = "x" * (csv.field_size_limit() + 1)  # csv refuses this field


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_an_oversized_splits_field_is_refused_by_line(capsys, tmp_path,
                                                      model_path, data_path,
                                                      command):
    splits = tmp_path / "bad_splits.csv"
    splits.write_text(f"component_id,split\nc1,train\nc2,{OVERSIZED}\n")
    if command == "evaluate":
        argv = ["evaluate", "--model", model_path, "--data", data_path[0],
                "--splits", str(splits), "--split", "train"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": data_path[0],
                                      "splits": str(splits)}))
        argv = ["train", "--config", str(config)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err == f"error: {splits}: line 3: field larger than field limit " \
                  f"({csv.field_size_limit()})\n"


def test_an_oversized_dataset_header_field_is_refused_by_name(capsys,
                                                              tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("component_id,smiles,temperature_K,pressure_Pa,"
                    f"quality,{OVERSIZED}\nc1,CCO,300.0,1000.0,ok,\n")
    code = main(["curate", "--input", str(data),
                 "--output", str(tmp_path / "clean.csv")])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err == f"error: {data}: line 1: field larger than field limit " \
                  f"({csv.field_size_limit()})\n"


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


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_report(capsys, outdir, model_path, data, splits) -> dict:
    """Every JSON file ``report`` writes, loaded as strict JSON."""
    code, _ = run(capsys, "report", "--model", model_path, "--data", data,
                  "--splits", splits, "--split", "valid",
                  "--outdir", str(outdir))
    assert code == 0
    written = sorted(outdir.glob("*.json"))
    assert [p.name for p in written] == ["binned.json", "boiling.json",
                                         "metrics.json"]
    return {p.name: json.loads(p.read_text(encoding="utf-8"),
                               parse_constant=_refuse_constant)
            for p in written}


def test_report_files_are_strict_json(capsys, tmp_path, model_path, data_path):
    files = _strict_report(capsys, tmp_path / "reports", model_path, *data_path)
    # The last molecular-weight bin is open above: its edge reads null.
    assert files["binned.json"]["mol_weight"][-1]["hi"] is None
    # An empty aggregate reads null too: no component has five points here.
    ds, _ = synthetic_dataset(points_per_component=4)
    write_csv(ds, tmp_path / "four.csv")
    write_splits_csv(ds, tmp_path / "four_splits.csv")
    files = _strict_report(capsys, tmp_path / "four", model_path,
                           str(tmp_path / "four.csv"),
                           str(tmp_path / "four_splits.csv"))
    assert files["metrics.json"]["mape_c"]["5"] is None
    assert files["metrics.json"]["n_components"]["5"] == 0


def test_report_min_points_filters_only_the_binned_tables(capsys, tmp_path,
                                                          model_path, data_path):
    data, splits = data_path
    # Valid components keep 6, 2, 6 and 1 of their points.
    short = {"alkane-10": 2, "alcohol-9": 1}
    groups = dataio.load(data).by_component()
    trimmed = [pt for c, pts in groups.items() for pt in pts[:short.get(c, 6)]]
    every = tmp_path / "every.csv"
    write_csv(VpDataset(trimmed), every)
    kept = tmp_path / "kept.csv"
    write_csv(VpDataset([pt for pt in trimmed
                         if pt.component_id not in short]), kept)

    def report(path, min_points, name):
        outdir = tmp_path / name
        code = main(["report", "--model", model_path, "--data", str(path),
                     "--splits", splits, "--split", "valid",
                     "--outdir", str(outdir), "--min-points", str(min_points)])
        capsys.readouterr()
        assert code == 0
        return {p.name: p.read_text() for p in outdir.iterdir()}

    filtered = report(every, 3, "filtered")
    unfiltered = report(every, 1, "unfiltered")
    alone = report(kept, 1, "alone")
    for name in ("ape_by_pressure.csv", "ape_by_temperature.csv",
                 "ape_by_mol_weight.csv", "ape_by_min_points.csv",
                 "hexbin.csv", "binned.json"):
        assert filtered[name] == alone[name] != unfiltered[name]
    for name in ("metrics.json", "boiling.json"):
        assert filtered[name] == unfiltered[name]
    counts = json.loads(filtered["metrics.json"])
    assert counts["n_points"] == 6 + 2 + 6 + 1
    assert counts["n_components"] == {"1": 4, "2": 3, "5": 2}


def test_report_min_points_above_every_component_writes_empty_tables(
        capsys, tmp_path, model_path, data_path):
    data, splits = data_path  # every valid component has 6 points

    def report(min_points):
        outdir = tmp_path / f"min{min_points}"
        code, payload = run(capsys, "report", "--model", model_path,
                            "--data", data, "--splits", splits,
                            "--split", "valid", "--outdir", str(outdir),
                            "--min-points", str(min_points))
        assert code == 0
        assert payload["files"] == sorted(p.name for p in outdir.iterdir())
        return {p.name: p.read_text(encoding="utf-8")
                for p in outdir.iterdir()}

    everything, nothing = report(1), report(7)
    assert nothing.keys() == everything.keys()
    for name in ("metrics.json", "boiling.json"):
        assert nothing[name] == everything[name]
    assert nothing["hexbin.csv"] == ""
    binned = json.loads(nothing["binned.json"], parse_constant=_refuse_constant)
    rows = [row for table in binned.values() for row in table]
    assert len(rows) == 7 + 7 + 7 + 5
    for row in rows:
        assert row["count"] == 0
        assert all(row[key] is None for key in ("pct", "q1", "median", "q3",
                                                "whisker_lo", "whisker_hi"))
    table = nothing["ape_by_pressure.csv"].splitlines()
    assert table[0] == "lo,hi,count,pct,q1,median,q3,whisker_lo,whisker_hi"
    assert table[1] == "1.0,10.0,0,,,,,,"


def test_evaluate_builds_one_table_and_report_two(capsys, tmp_path,
                                                  monkeypatch, model_path,
                                                  data_path):
    built = []
    real_post_init = metrics.PredictedPoints.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(metrics.PredictedPoints, "__post_init__",
                        counting_post_init)
    data, splits = data_path
    common = ["--model", model_path, "--data", data, "--splits", splits,
              "--split", "valid"]
    assert main(["evaluate", *common]) == 0
    assert len(built) == 1
    assert main(["report", *common, "--outdir", str(tmp_path / "out")]) == 0
    assert len(built) == 3


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


def test_train_reads_a_config_saved_with_a_byte_order_mark(capsys, tmp_path,
                                                           data_path):
    data, splits = data_path
    config = {
        "data": data,
        "splits": splits,
        "output_model": str(tmp_path / "trained.json"),
        "history": str(tmp_path / "history.csv"),
        "arch": {"gat_layers": 2, "heads": 1, "hidden_layers": 1},
        "train": {"batch_size": 8, "warmup_epochs": 1, "main_epochs": 1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8-sig")
    assert cfg_path.read_bytes().startswith(b"\xef\xbb\xbf")
    code, payload = run(capsys, "train", "--config", str(cfg_path))
    assert code == 0
    assert Path(payload["model"]).exists()


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


@pytest.mark.parametrize("min_points", ["0", "-3"])
def test_report_rejects_min_points_below_one(capsys, tmp_path, min_points):
    # The value is refused before the model or data are read.
    assert main(["report", "--model", str(tmp_path / "absent.json"),
                 "--data", str(tmp_path / "absent.csv"),
                 "--outdir", str(tmp_path / "out"),
                 "--min-points", min_points]) == 2
    assert "argument --min-points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_grid_search_rejects_jobs_below_one(capsys, tmp_path, jobs):
    # The value is refused before the config is read.
    assert main(["grid-search", "--config", str(tmp_path / "absent.json"),
                 "--jobs", jobs]) == 2
    assert "argument --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("change, line", [
    ({"output_modle": "m.json"}, "error: config has unknown keys: ['output_modle']"),
    ({"arch": {"heads": 1, "mystery": 1}},
     "error: arch has unknown keys: ['mystery']"),
    ({"train": {"batch_sise": 8, "main_epochs": 1}},
     "error: train has unknown keys: ['batch_sise']"),
], ids=["config", "arch", "train"])
def test_train_names_every_unknown_key(capsys, tmp_path, data_path, change,
                                       line):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": data_path[0], **change}))
    code = main(["train", "--config", str(config)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_train_keeps_the_old_model_when_its_save_fails(capsys, monkeypatch,
                                                       tmp_path, data_path,
                                                       model_path):
    data, splits = data_path
    before = Path(model_path).read_bytes()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": data, "splits": splits, "output_model": model_path,
        "history": str(tmp_path / "history.csv"),
        "arch": {"gat_layers": 2, "heads": 1, "hidden_layers": 1},
        "train": {"batch_size": 8, "warmup_epochs": 1, "main_epochs": 1}}))

    def dump_until_the_disk_is_full(doc, fh):
        fh.write(json.dumps(doc)[:22])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(grappa.model.json, "dump", dump_until_the_disk_is_full)
    code = main(["train", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "No space left" in err
    assert Path(model_path).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "data.csv", "model.json", "splits.csv"]


def test_train_refuses_an_arch_too_large_to_allocate(capsys, tmp_path,
                                                     data_path):
    data, splits = data_path
    output = tmp_path / "trained.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": data, "splits": splits, "output_model": str(output),
        "arch": {"embed_dim": 2**40},
        "train": {"batch_size": 8, "warmup_epochs": 1, "main_epochs": 1}}))
    code = main(["train", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "floats" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not output.exists()


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 192. TiB"),
     "error: Unable to allocate 192. TiB"),
    (MemoryError(), "error: MemoryError"),
])
def test_a_memory_error_exits_1_with_one_line(capsys, monkeypatch, model_path,
                                              error, line):
    def exhausted(args):
        raise error

    monkeypatch.setattr(grappa.cli, "_cmd_predict", exhausted)
    code = main(["predict", "--model", model_path, "--smiles", "CCO"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("argv", [
    lambda data, config, out: ["train", "--config", config],
    lambda data, config, out: ["curate", "--input", data, "--output", out],
], ids=["train", "curate"])
def test_a_data_file_without_a_required_column_is_named(capsys, tmp_path,
                                                        data_path, argv):
    bare = tmp_path / "bare.csv"
    bare.write_text("component_id,smiles,temperature_K,pressure_Pa\n"
                    "c1,CCO,300.0,1000.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": str(bare), "splits": data_path[1]}))
    code = main(argv(str(bare), str(config), str(tmp_path / "out.csv")))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bare}: missing columns: quality"]
