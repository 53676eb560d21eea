"""Tiny-size self-test of the benchmark; never gates on timings.

    PYTHONPATH=src python3 -m pytest -q perfbench

It checks the generator, the result keys against BENCHMARK.json, that the
correctness checks pass on good outputs and trip on bad ones, that tracing
leaves ``grappa`` unpatched, and that the benchmark refuses to run without
the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402
from grappa.featurize import ScopeError, featurize  # noqa: E402
from grappa.smiles import SmilesError, parse_smiles  # noqa: E402

TINY = gen.SCALES["tiny"]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload_name: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload_name, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


@pytest.mark.parametrize("seed", range(4))
def test_generator_is_seeded_valid_and_stratified(seed):
    a = gen.build(seed, seed % 2 == 0, TINY)
    b = gen.build(seed, seed % 2 == 0, TINY)
    assert workload._digest(a) == workload._digest(b)
    mols = [m for m, _, _, _ in a.train + a.valid]
    mols += [m for s in a.eval_chunks for m, _, _, _ in s]
    for mol in mols:
        assert len(parse_smiles(mol.smiles).atoms) == mol.heavy_atoms
        featurize(parse_smiles(mol.smiles))
    for smiles, must_accept in a.stream:
        try:
            featurize(parse_smiles(smiles))
            accepted = True
        except (SmilesError, ScopeError):
            accepted = False
        assert accepted == must_accept, smiles
    for _, curve, temps, pressures in a.train:
        assert 1.0 < pressures.min() and pressures.max() < 1e7
        assert gen.T_WINDOW_K[0] <= temps.min() <= temps.max() <= gen.T_WINDOW_K[1]
        assert curve.C + temps.min() > 0


def test_sizes_do_not_depend_on_the_seed():
    assert gen.stratified_sizes(50) == gen.stratified_sizes(50)
    sizes = [[m.heavy_atoms for m, _, _, _ in gen.build(s, True, TINY).train]
             for s in range(3)]
    assert sizes[0] == sizes[1] == sizes[2]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_keys_match_benchmark_json(trace, section):
    done = _run("zipf", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # No operation fails; the seed's known defects are counted apart.
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        coverage = result["metrics"]["trace.fit_coverage"]["value"]
        assert coverage >= workload.MIN_FIT_COVERAGE


def test_checks_trip_on_wrong_curation(tmp_path):
    inputs = gen.build(5, True, TINY)
    case = inputs.curate_chunks[0]
    path = tmp_path / "raw.csv"
    gen.write_csv(case, path)
    checks = workload.Checks()
    journey = workload.Journey({"inputs": inputs, "csv": [str(path)]}, 5,
                               checks, workload.Ops(), str(tmp_path))
    wall, rows, check = journey.curate(0)
    check()
    assert rows == len(case.rows) and not checks.failures
    # Pretend the program kept one clean row too few: the check must see it.
    from grappa import dataio

    raw = dataio.load(str(path))
    cured = dataio.curate(raw)
    clean = next(pt for pt in cured.dataset.points
                 if pt.row not in case.expected_rules
                 and pt.component_id not in case.hard_components)
    cured.audit.append({"row": clean.row, "component": clean.component_id,
                        "rule": "outlier_vs_antoine_fit", "action": "dropped"})
    journey._check_curation(0, case, raw, cured,
                            dataio.split(cured.dataset, 5))
    assert any("outlier precision" in f for f in checks.failures)


def test_misjudged_hard_outliers_are_known_defects(tmp_path):
    inputs = gen.build(5, True, TINY)
    case = next(c for c in inputs.curate_chunks if c.hard_components)
    path = tmp_path / "raw.csv"
    gen.write_csv(case, path)
    from grappa import dataio

    raw = dataio.load(str(path))
    cured = dataio.curate(raw)
    # Pretend the fit missed every outlier of the end-point/double kind.
    cured.audit = [e for e in cured.audit
                   if not (e["rule"] == workload.OUTLIER
                           and e["component"] in case.hard_components)]
    checks, ops = workload.Checks(), workload.Ops()
    journey = workload.Journey({"inputs": inputs, "csv": [str(path)]}, 5,
                               checks, ops, str(tmp_path))
    journey._check_curation(0, case, raw, cured, dataio.split(cured.dataset, 5))
    assert not checks.failures and ops.failed == 0
    assert journey.defects["misjudged"] == {
        (0, comp) for comp in case.hard_components}
    # Judging the same chunk again counts no component twice.
    journey._check_curation(0, case, raw, cured, dataio.split(cured.dataset, 5))
    assert len(journey.defects["misjudged"]) == len(case.hard_components)


def test_stream_check_fails_on_rejected_good_smiles():
    from grappa.antoine import AntoineDomainError

    checks, ops = workload.Checks(), workload.Ops()
    journey = workload.Journey({"inputs": gen.build(1, True, TINY)}, 1,
                               checks, ops, ".")
    journey._check_stream([("CCO", True, SmilesError("bad")),
                           ("CCO", True, ScopeError(["bad"]))], None, 101325.0)
    assert len(checks.failures) == 2 and ops.failed == 0
    journey._check_stream([("CCO", True, RuntimeError("boom"))], None,
                          101325.0)
    assert len(checks.failures) == 3
    # The documented known defect is counted, neither a failed operation
    # nor a failed check.
    journey._check_stream([("CCO", True, AntoineDomainError("C + T <= 0"))],
                          None, 101325.0)
    assert len(checks.failures) == 3 and ops.failed == 0
    assert journey.defects["domain"] == {"CCO"}


def test_fit_coverage_check():
    def traced_fit(child_seconds):
        t = tracer.Tracer()
        # [name, id, parent, start, end, child_seconds, ...]: a 1 s fit.
        t.spans.append(["train.fit", 0, -1, 0.0, 1.0, child_seconds, 0, 0,
                        None])
        return t

    checks = workload.Checks()
    assert workload.check_fit_coverage([traced_fit(0.95)], checks) == \
        pytest.approx(0.95)
    assert not checks.failures
    low = workload.check_fit_coverage([traced_fit(0.95), traced_fit(0.5)],
                                      checks)
    assert low == pytest.approx(0.5) and len(checks.failures) == 1
    assert workload.check_fit_coverage([tracer.Tracer()], checks) == 0.0
    assert len(checks.failures) == 2


def test_tracing_restores_every_site():
    assert tracer.patched_sites() == []
    with tracer.Tracer() as t:
        assert len(tracer.patched_sites()) == len(tracer.SITES) + 1
        from grappa import model

        model.predict(model.init_model(model.Architecture()), "CCO")
    assert tracer.patched_sites() == []
    names = t.by_name()
    assert names["model.predict"]["calls"] == 1
    assert names["gnn.layer"]["calls"] == 4
    total_self = sum(row["self_s"] for row in names.values())
    assert total_self == pytest.approx(names["model.predict"]["incl_s"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("zipf", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
