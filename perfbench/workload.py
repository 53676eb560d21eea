"""One benchmark run in one fresh process: set up, measure, check, report.

Started by ``run.py`` with BLAS pinned to one thread. A run walks the whole
user journey on seeded inputs, closed loop with one client:

  first fit  the two-phase ``fit`` users run (4 + 12 epochs) on ~80
             molecules, timed: it must learn, and its model is the
             checkpoint the infer units load
  rounds     until ``--seconds`` are used, each round runs units of every
             phase, so every metric samples the whole run:
    curate     2 x (raw CSV -> ``load`` -> ``curate`` -> ``split``) of 12
               components each
    train      the same ``fit`` again (every third round only: it lasts
               about as long as three rounds of the other phases)
    ckpt       20 ``load_checkpoint`` calls
    predict    4 x 50 ``predict`` calls of the stream, each with a
               250-600 K grid and a boiling pressure
    evaluate   2 x (``predict_dataset`` + ``summarize`` +
               ``binned_reports`` + ``boiling_point_eval``) over 50 unique
               components each

A shared 2-core x86-64 VM can run the same code up to 1.7x slower for
seconds to minutes at a time. So every unit is timed between two runs of a fixed
probe and divided by the machine's slow-down at that moment (see
``Probe``), and rates are medians over many short units spread across the
run.
Traced runs (``--trace 1``) alternate plain and traced rounds on the same
inputs and print the per-layer metrics. The last line of stdout is the
JSON result; notes, including the raw rates, go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

SETUP_REPEATS = 3
# Probe time in the fast mode of a 2-core x86-64 VM (Python 3.11.7, numpy
# 2.4.6); normalized times read as if the machine ran at that speed.
PROBE_REF_MS = 8.0
MIN_ROUNDS = 5  # at full scale: >= 1000 predict calls, so p99 has 10 beyond
LOADS_PER_ROUND = 20
SHARED_CHECKS = 3  # components per chunk compared with a single predict
BOIL_ROUNDTRIP_TOL = 1e-9
SHARED_TOL = 1e-12
FIT_EPOCHS = (4, 12)  # warm-up, main: the fit users run
FIT_EVERY = 3  # rounds per fit
# How far a fit follows the probe when the machine slows. Within runs it
# slowed about half as much as the probe (power 0.48 over 20 runs), but
# between sets of runs minutes apart it followed the probe fully. Over nine
# sets (5-10 seeds each), power 0.5 gave the narrowest spreads within a set
# (2-16%) but set medians up to 1.21x apart; power 1, medians within 1.08x
# but spreads up to 21%; 0.75 keeps both in check (3-17%, 1.13x).
FIT_SENSITIVITY = 0.75

OUTLIER = "outlier_vs_antoine_fit"

WORKLOADS = {"zipf": True, "unique": False}  # name -> stream repeats SMILES


def note(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


class Checks:
    """Correctness checks; any failure fails the run."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
            note(f"CHECK FAILED: {what}")
        return ok


class Ops:
    """Operations attempted and failed. A failed operation is an aborted
    curate, fit, load or evaluate unit; the seed code's known defects are
    counted apart (``Journey.defects``, see README.md), and anything else
    that goes wrong fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, err, count: int = 1) -> None:
        self.failed += count
        detail = f"{type(err).__name__}: {err}" if isinstance(err, BaseException) else err
        note(f"operation failed: {what}: {detail}")


class Probe:
    """Fixed reference work owned by the benchmark, timed next to every unit.

    A shared 2-core x86-64 VM (Python 3.11.7, numpy 2.4.6) runs the same
    code up to 1.7x slower for seconds to minutes at a time, whatever the
    program does. The probe does
    the kind of work grappa does (Python object churn, JSON, many small
    numpy operations), so it slows by about as much: measured over 100 s
    of drift, its slow-down tracked ``load_checkpoint`` and ``predict``
    within a few percent, where a pure BLAS loop missed a third of it.
    Each unit's time is divided by ``probe / PROBE_REF_MS``, the machine's
    slow-down at that moment; raw values go to stderr."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.blob = json.dumps({f"k{i}": rng.standard_normal(25).tolist()
                                for i in range(100)})
        self.small = [rng.standard_normal((16, 32)) for _ in range(4)]
        self.weight = rng.standard_normal((32, 32))
        self.samples: list[float] = []

    def __call__(self) -> float:
        np = self.np
        # The garbage collector stays off so the probe never pays for a
        # collection of the program's garbage, nor triggers one early.
        gc.disable()
        try:
            start = perf_counter()
            rows = [(i, str(i), i * 0.5) for i in range(8000)]
            index = {row[1]: row for row in rows}
            sorted(index.values(), key=lambda row: -row[2])
            json.loads(self.blob)
            for _ in range(150):
                for a in self.small:
                    y = a @ self.weight
                    np.isfinite(np.maximum(y, 0.2 * y) * 1.5).all()
            ms = (perf_counter() - start) * 1000.0
        finally:
            gc.enable()
        self.samples.append(ms)
        return ms

    def slowdown(self, before: float, after: float) -> float:
        return (before + after) / 2.0 / PROBE_REF_MS


def machine_facts() -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ----------------------------------------------------------------- set-up

def _dataset(items, prefix: str, label=None):
    from grappa import dataio

    points, splits = [], {}
    for i, (mol, _, temps, pressures) in enumerate(items):
        comp = f"{prefix}{i:04d}"
        for t, p in zip(temps, pressures):
            points.append(dataio.VpPoint(comp, mol.smiles, float(t), float(p)))
        if label:
            splits[comp] = label
    return dataio.VpDataset(points, splits)


def _digest(inputs) -> str:
    h = hashlib.sha256()
    for part in (inputs.train, inputs.valid, *inputs.eval_chunks):
        for mol, _, temps, pressures in part:
            h.update(mol.smiles.encode())
            h.update(temps.tobytes())
            h.update(pressures.tobytes())
    for smiles, ok in inputs.stream:
        h.update(f"{smiles}{ok}".encode())
    for case in inputs.curate_chunks:
        h.update(json.dumps(case.rows).encode())
    return h.hexdigest()


def make_inputs(seed: int, repeated: bool, scale, work: str):
    """The seeded inputs and the raw CSV files curation reads; the
    benchmark's own work, so it stays out of ``setup_s``."""
    import gen

    inputs = gen.build(seed, repeated, scale)
    csv_paths = []
    for i, case in enumerate(inputs.curate_chunks):
        path = os.path.join(work, f"raw{i}.csv")
        gen.write_csv(case, path)
        csv_paths.append(path)
    return inputs, csv_paths


def time_import() -> float:
    """Seconds a fresh interpreter takes to import ``grappa`` (numpy
    included), as every user process pays; timed inside that process."""
    code = ("from time import perf_counter; t = perf_counter(); "
            "import grappa; print(perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def set_up(inputs, csv_paths, seed: int, work: str) -> dict:
    """grappa's own set-up, as a user pays it before any timed work:
    datasets, a fresh default model and its checkpoint file."""
    from grappa import model

    train_ds = _dataset(inputs.train, "t", "train")
    valid_ds = _dataset(inputs.valid, "v", "valid")
    eval_ds = [_dataset(items, f"e{k}-")
               for k, items in enumerate(inputs.eval_chunks)]
    net = model.init_model(model.Architecture(), seed=seed)
    model.save_checkpoint(net, os.path.join(work, "init.json"))
    return {"inputs": inputs, "csv": csv_paths, "train": train_ds,
            "valid": valid_ds, "eval": eval_ds, "init_model": net}


# ----------------------------------------------------------------- phases

NO_RESULT = (0.0, 0, None)


class Journey:
    """The units of work each phase repeats.

    A unit returns ``(wall_s, work, check)``: the timed wall, the work it
    did (0 when it failed) and a callable that checks its outputs. Callers
    run the check afterwards, outside the timed and traced region."""

    def __init__(self, env: dict, seed: int, checks: Checks, ops: Ops,
                 work: str):
        self.env, self.seed, self.checks, self.ops = env, seed, checks, ops
        self.inputs = env["inputs"]
        scale = self.inputs.scale
        # Units of each phase per round; unit i uses its own input slice.
        self.units = {"curate": scale.curate_units, "fit": 1, "load": 1,
                      "stream": scale.stream_units,
                      "evaluate": scale.eval_units}
        self.best_mape = None
        self.trained = None
        self.ckpt_path = os.path.join(work, "model.json")
        self.loaded = None
        self.latencies: list[float] = []
        self.load_walls: list[float] = []
        self.predicted: dict[str, tuple] = {}
        self.invalid_branch_points = 0
        self.curate_kept_ratio = None
        # Known defects of the seed code (README.md), each counted once per
        # input it shows on, however often that input is run: the robust
        # fit's misjudged components as (chunk, component), and the SMILES
        # ``predict`` refuses with ``AntoineDomainError``.
        self.defects: dict[str, set] = {"misjudged": set(), "domain": set()}

    def known_defect(self, kind: str, key, detail) -> None:
        if key not in self.defects[kind]:
            self.defects[kind].add(key)
            note(f"known defect: {key}: {detail}")

    # ---- curate

    def curate(self, i: int):
        from grappa import dataio

        # One operation per component: its rows are filtered and judged
        # against the component's robust fit.
        case = self.inputs.curate_chunks[i]
        self.ops.attempted += case.n_components
        try:
            start = perf_counter()
            raw = dataio.load(self.env["csv"][i])
            cured = dataio.curate(raw)
            labelled = dataio.split(cured.dataset, self.seed)
            wall = perf_counter() - start
        except Exception as err:  # any exception here is a program failure
            self.ops.fail("curate", err, case.n_components)
            return NO_RESULT
        self.curate_kept_ratio = len(cured.dataset) / len(case.rows)
        return wall, len(case.rows), lambda: self._check_curation(
            i, case, raw, cured, labelled)

    def _check_curation(self, i, case, raw, cured, labelled) -> None:
        from grappa.dataio import carbon_count
        from grappa.smiles import parse_smiles

        req = self.checks.require
        req({r["row"] for r in raw.rejects} == case.malformed_rows,
            "load rejects exactly the malformed rows")
        # A robust fit that does not converge keeps its component's points
        # and says so in the audit; that is a known defect (the fit is a
        # weak spot), and its outliers cannot be judged.
        unjudged = {e["component"] for e in cured.audit
                    if e["rule"] == "fit_not_converged"}
        for comp in sorted(unjudged):
            self.known_defect("misjudged", (i, comp),
                              "robust fit did not converge")
        # End-point and double outliers can bend the fit towards them, and
        # the seed's fit misjudges some: each such component is a known
        # defect. Lone bracketed outliers must be judged exactly.
        loose = unjudged | case.hard_components
        comp_of = {pt.row: pt.component_id for pt in raw.points}
        injected, found = {}, {}
        for row, rule in case.expected_rules.items():
            if rule == OUTLIER:
                injected.setdefault(comp_of.get(row), set()).add(row)
        for e in cured.audit:
            if e["rule"] == OUTLIER:
                found.setdefault(e["component"], set()).add(e["row"])
        for comp in sorted(case.hard_components - unjudged):
            want, got = injected.get(comp, set()), found.get(comp, set())
            if want != got:
                self.known_defect("misjudged", (i, comp),
                                  f"robust fit misjudged end-point or double "
                                  f"outliers (missed rows {sorted(want - got)}, "
                                  f"dropped clean rows {sorted(got - want)})")
        expected = {row: rule for row, rule in case.expected_rules.items()
                    if not (rule == OUTLIER and comp_of.get(row) in loose)}
        dropped = {e["row"]: e["rule"] for e in cured.audit
                   if e["action"] == "dropped"
                   and not (e["rule"] == OUTLIER and e["component"] in loose)}
        wrong = [row for row, rule in expected.items()
                 if not dropped.get(row, "").startswith(rule)]
        extra = sorted(set(dropped) - set(expected))
        req(not wrong and not extra,
            f"curate drops exactly the injected defects (wrong rule or kept: "
            f"{wrong[:5]}, dropped clean: {extra[:5]})")
        want = {row for row, rule in expected.items() if rule == OUTLIER}
        got = {row for row, rule in dropped.items() if rule == OUTLIER}
        hits = len(want & got)
        precision = hits / len(got) if got else 1.0
        recall = hits / len(want) if want else 1.0
        req(precision == 1.0 and recall == 1.0,
            f"outlier precision {precision:.3f} and recall {recall:.3f} are 1 "
            f"on lone bracketed outliers")
        comps = cured.dataset.by_component()
        req(set(labelled.splits) == set(comps),
            "split labels every curated component")
        small = [c for c, pts in comps.items()
                 if carbon_count(parse_smiles(pts[0].smiles)) < 5]
        req(all(labelled.splits[c] == "train" for c in small),
            "split keeps molecules with fewer than five carbons in train")

    # ---- train

    def fit(self, i: int):
        """The two-phase fit users run, of a fresh default model. The first
        fit of a run must learn, and its model is the checkpoint the infer
        units load; every later one must reproduce it bitwise."""
        from grappa import model, train

        cfg = train.TrainConfig(batch_size=16, warmup_epochs=FIT_EPOCHS[0],
                                main_epochs=FIT_EPOCHS[1], max_lr=0.005,
                                seed=self.seed, standardize_counts=True)
        net = model.init_model(model.Architecture(), seed=self.seed)
        self.ops.attempted += 1
        try:
            start = perf_counter()
            result = train.fit(net, self.env["train"], self.env["valid"], cfg)
            wall = perf_counter() - start
        except Exception as err:  # an aborted fit is a failed operation
            self.ops.fail("fit", err)
            return NO_RESULT
        work = len(self.inputs.train) * sum(FIT_EPOCHS)
        if self.trained is None:
            return wall, work, lambda: self._check_reference(net, result)
        mape = result.best_valid_mape_i
        return wall, work, lambda: self.checks.require(
            mape == self.best_mape, "fit is bitwise repeatable at a fixed seed")

    def _check_reference(self, net, result) -> None:
        from grappa import metrics, model

        req = self.checks.require
        mape = result.best_valid_mape_i
        self.best_mape, self.trained = mape, net
        untrained = model.init_model(model.Architecture(), seed=self.seed)
        points, _ = model.predict_dataset(untrained, self.env["valid"])
        base = metrics.summarize(points).mape_i
        req(math.isfinite(mape) and mape < base,
            f"best_valid_mape_i {mape:.3f} is finite and below the untrained "
            f"model's {base:.3f}")
        points, _ = model.predict_dataset(net, self.env["valid"])
        again = metrics.summarize(points).mape_i
        req(abs(again - mape) <= 1e-9 * max(1.0, abs(mape)),
            f"restored best model reproduces best_valid_mape_i "
            f"({again!r} vs {mape!r})")
        for ds in (self.env["train"], self.env["valid"]):
            _, params = model.predict_dataset(net, ds)
            self.invalid_branch_points += _invalid_points(ds, params)
        model.save_checkpoint(net, self.ckpt_path)

    # ---- checkpoint

    def load(self, i: int):
        """``LOADS_PER_ROUND`` checkpoint loads; returns their walls."""
        from grappa import model

        walls, loaded = [], None
        for _ in range(LOADS_PER_ROUND):
            self.ops.attempted += 1
            try:
                start = perf_counter()
                loaded = model.load_checkpoint(self.ckpt_path)
                walls.append(perf_counter() - start)
            except Exception as err:
                self.ops.fail("load_checkpoint", err)
        self.load_walls += walls
        if loaded is None:
            return NO_RESULT
        return sum(walls), len(walls), lambda: self._check_loaded(loaded)

    def _check_loaded(self, loaded) -> None:
        import numpy as np

        if self.loaded is not None:
            return
        self.loaded = loaded
        want = {**{k: t.data for k, t in self.trained.named_parameters().items()},
                **self.trained.named_buffers()}
        got = {**{k: t.data for k, t in loaded.named_parameters().items()},
               **loaded.named_buffers()}
        self.checks.require(
            want.keys() == got.keys()
            and all(np.array_equal(want[k], got[k]) for k in want),
            "load_checkpoint restores every parameter and buffer bitwise")

    # ---- predict stream

    def stream(self, i: int):
        """Slice ``i`` of the stream, closed loop, one call at a time."""
        import numpy as np
        from grappa import model

        temps = np.linspace(250.0, 600.0, 15)
        boil_pa = 101325.0
        outcomes, latencies = [], []
        n = self.inputs.scale.calls_per_unit
        for smiles, must_accept in self.inputs.stream[i * n:(i + 1) * n]:
            self.ops.attempted += 1
            start = perf_counter()
            try:
                outcome = model.predict(self.loaded, smiles, temps, boil_pa)
            except Exception as err:  # judged in the check, outside the wall
                outcome = err
            latencies.append((perf_counter() - start) * 1000.0)
            outcomes.append((smiles, must_accept, outcome))
        self.latencies += latencies
        return (sum(latencies) / 1000.0, len(latencies),
                lambda: self._check_stream(outcomes, temps, boil_pa))

    def _check_stream(self, outcomes, temps, boil_pa) -> None:
        import numpy as np
        from grappa import antoine
        from grappa.featurize import ScopeError
        from grappa.smiles import SmilesError

        req = self.checks.require
        for smiles, must_accept, outcome in outcomes:
            if isinstance(outcome, antoine.AntoineDomainError):
                # Known defect (ROADMAP item 3): the model learned a curve
                # whose invalid branch reaches into the grid.
                self.known_defect("domain", smiles, outcome)
                continue
            if isinstance(outcome, (SmilesError, ScopeError)):
                req(not must_accept,
                    f"predict accepts good SMILES {smiles!r} "
                    f"({type(outcome).__name__}: {outcome})")
                continue
            if not req(not isinstance(outcome, Exception),
                       f"predict({smiles!r}) raises only documented errors "
                       f"({type(outcome).__name__}: {outcome})"):
                continue
            if not req(must_accept, f"predict rejects bad SMILES {smiles!r}"):
                continue
            params = outcome.params
            seen = self.predicted.get(smiles)
            if seen is not None:
                req(seen == params.as_tuple(),
                    f"repeated predict({smiles!r}) is identical")
                continue
            self.predicted[smiles] = params.as_tuple()
            req(params.in_ranges(), f"A/B/C of {smiles!r} inside PARAM_RANGES")
            req(np.all(np.isfinite(outcome.ln_p_kpa))
                and outcome.ln_p_kpa.shape == temps.shape,
                f"ln p of {smiles!r} is finite on the grid")
            back = antoine.ln_vapor_pressure(params, outcome.boiling_k)
            req(abs(back - math.log(boil_pa / 1000.0)) <= BOIL_ROUNDTRIP_TOL,
                f"boiling point of {smiles!r} round-trips")

    # ---- evaluate

    def evaluate(self, i: int):
        from grappa import metrics, model

        ds = self.env["eval"][i]
        self.ops.attempted += 1
        try:
            start = perf_counter()
            points, params = model.predict_dataset(self.loaded, ds)
            metrics.summarize(points)
            metrics.binned_reports(points)
            boiling = metrics.boiling_point_eval(params, points)
            wall = perf_counter() - start
        except Exception as err:
            self.ops.fail("evaluate", err)
            return NO_RESULT
        return wall, len(params), lambda: self._check_evaluation(
            i, ds, points, params, boiling)

    def _check_evaluation(self, i, ds, points, params, boiling) -> None:
        from grappa import model

        req = self.checks.require
        groups = ds.by_component()
        req(len(params) == len(groups) and len(points) == len(ds),
            "predict_dataset covers every component and point")
        req(all(p.in_ranges() for p in params.values()),
            "predict_dataset A/B/C inside PARAM_RANGES")
        req(boiling.n_components > 0
            and all(math.isfinite(r["t_pred_k"]) for r in boiling.rows),
            "boiling_point_eval inverts every ambient-pressure component")
        for comp in sorted(groups)[:: max(1, len(groups) // SHARED_CHECKS)]:
            one = model.predict(self.loaded, groups[comp][0].smiles).params
            diff = max(abs(a - b) for a, b in zip(one.as_tuple(),
                                                   params[comp].as_tuple()))
            req(diff <= SHARED_TOL, f"predict and predict_dataset agree on {comp}")
        if i == 0:
            self.invalid_branch_points += _invalid_points(ds, params)


def _invalid_points(ds, params) -> int:
    """Points where the curve is on its invalid branch (C + T <= 0)."""
    return sum(1 for pt in ds.points
               if params[pt.component_id].C + pt.temperature_k <= 0.0)


# ------------------------------------------------------------- run loops

PHASES = ("curate", "fit", "load", "stream", "evaluate")


def _round(journey: Journey, r: int, probe: Probe, phases=PHASES,
           tracer=None) -> dict:
    """The units of round ``r`` of each phase, each between two probes;
    returns per phase a list of ``(wall, work, slowdown)``. Per-call samples
    a unit appended to ``journey`` are divided by its slow-down in place.
    With a tracer, only the units themselves are traced; checks run after
    each unit, outside its wall."""
    import contextlib

    out = {}
    before = probe()
    for phase in phases:
        count = journey.units[phase]
        for i in range(r * count, (r + 1) * count):
            n_lat, n_load = len(journey.latencies), len(journey.load_walls)
            with tracer if tracer is not None else contextlib.nullcontext():
                wall, work, check = getattr(journey, phase)(i)
            if check is not None:
                check()
            after = probe()
            slow = probe.slowdown(before, after)
            journey.latencies[n_lat:] = [
                x / slow for x in journey.latencies[n_lat:]]
            journey.load_walls[n_load:] = [
                x / slow for x in journey.load_walls[n_load:]]
            out.setdefault(phase, []).append((wall, work, slow))
            before = after
    return out


def run_untraced(journey: Journey, seconds: float, probe: Probe) -> dict:
    """The first fit, then rounds until the next one would overrun
    ``seconds``. A fit lasts about as long as three rounds of the other
    phases, so it runs in every ``FIT_EVERY``-th round only."""
    import numpy as np

    rates = {"curate": [], "fit": [], "evaluate": []}
    raw = {"curate": [], "fit": [], "evaluate": [], "load": [], "stream": []}
    # The tail of one round's calls, median over rounds: a whole-run 99th
    # percentile spread up to 41% over ten seeds, as a few of the machine's
    # worst moments land in the tail.
    round_p99 = []
    lengths = {True: [], False: []}  # round walls, with and without a fit

    def record(out):
        for phase, units in out.items():
            for wall, work, slow in units:
                if work:
                    raw[phase].append(work / wall)
                    if phase in rates and phase != "fit":
                        rates[phase].append(work / wall * slow)

    start = perf_counter()
    # The first fit: users pay it on every run, and it yields the model.
    record(_round(journey, 0, probe, ("fit",)))
    if journey.trained is None:
        return {}
    r = 0
    while r < journey.inputs.scale.rounds:
        n_lat = len(journey.latencies)
        with_fit = r % FIT_EVERY == FIT_EVERY - 1
        phases = PHASES if with_fit else tuple(p for p in PHASES if p != "fit")
        t0 = perf_counter()
        record(_round(journey, r, probe, phases))
        lengths[with_fit].append(perf_counter() - t0)
        if len(journey.latencies) > n_lat:
            round_p99.append(float(np.percentile(journey.latencies[n_lat:], 99)))
        r += 1
        upcoming = lengths[r % FIT_EVERY == FIT_EVERY - 1] or lengths[with_fit]
        if (r >= MIN_ROUNDS and perf_counter() - start
                + statistics.mean(upcoming) > seconds):
            break
    run_slowdown = statistics.median(probe.samples) / PROBE_REF_MS
    rates["fit"] = [rate * run_slowdown ** FIT_SENSITIVITY
                    for rate in raw["fit"]]
    lat = np.asarray(journey.latencies)
    note(f"rounds={r} fits={len(raw['fit'])} predict_calls={lat.size} "
         f"loads={len(journey.load_walls)} seconds={perf_counter() - start:.1f}"
         f"; whole-run p99="
         f"{np.percentile(lat, 99) if lat.size else 0.0:.3f} ms; raw medians: "
         + ", ".join(f"{k}={statistics.median(v):.1f}/s"
                     for k, v in raw.items() if v))
    if not (all(rates.values()) and lat.size and journey.load_walls):
        return {}
    return {
        "train.mol_per_s": (statistics.median(rates["fit"]), "mol/s"),
        "infer.predict_ms.p50": (float(np.percentile(lat, 50)), "ms"),
        "infer.predict_ms.p99": (statistics.median(round_p99), "ms"),
        "infer.evaluate_mol_per_s": (statistics.median(rates["evaluate"]),
                                     "mol/s"),
        "infer.ckpt_load_ms": (statistics.median(journey.load_walls) * 1000.0,
                               "ms"),
        "curate.points_per_s": (statistics.median(rates["curate"]), "points/s"),
    }


# Plain (False) and traced (True) rounds, all on the same inputs; the
# ABBA order keeps warm-up and drift from favouring either side.
OVERHEAD_ORDER = (False, True, True, False, False, True)
MIN_FIT_COVERAGE = 0.9


def check_fit_coverage(tracers, checks: Checks) -> float:
    """The lowest share of ``fit`` wall time inside child spans, i.e. that
    the per-layer self times account for (0 without a fit); it must reach
    ``MIN_FIT_COVERAGE``."""
    shares = []
    for tracer in tracers:
        fits = [s for s in tracer.spans if s[0] == "train.fit"]
        wall = sum(s[4] - s[3] for s in fits)
        shares.append(sum(s[5] for s in fits) / wall if wall else 0.0)
    coverage = min(shares)
    checks.require(coverage >= MIN_FIT_COVERAGE,
                   f"per-layer self times cover {coverage:.3f} of the fit "
                   f"wall time (at least {MIN_FIT_COVERAGE})")
    return coverage


def run_traced(journey: Journey, probe: Probe, checks: Checks):
    """The first fit, then plain and traced rounds on the same inputs, in
    ``OVERHEAD_ORDER``. The per-layer metrics come from the first traced
    round; ``trace.overhead_ratio`` compares the normalized walls of all
    traced rounds with those of all plain ones."""
    import tracer as tracing

    _round(journey, 0, probe, ("fit",))
    if journey.trained is None:
        return {}, None
    walls = {False: 0.0, True: 0.0}
    tracers = []
    for traced in OVERHEAD_ORDER:
        tracer = tracing.Tracer() if traced else None
        out = _round(journey, 1, probe, PHASES, tracer)
        walls[traced] += sum(
            wall / slow ** (FIT_SENSITIVITY if phase == "fit" else 1.0)
            for phase, units in out.items() for wall, _, slow in units)
        if tracer is not None:
            tracers.append(tracer)
    coverage = check_fit_coverage(tracers, checks)
    values = _layer_metrics(tracers[0], journey)
    values["trace.overhead_ratio"] = (walls[True] / walls[False], "ratio")
    values["trace.fit_coverage"] = (coverage, "ratio")
    return values, tracers[0]


def _layer_metrics(tracer, journey: Journey) -> dict:
    rows = tracer.by_name()

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def ms(*names):
        return sum(rows.get(n, {}).get("self_s", 0.0) for n in names) * 1000.0

    spans = tracer.spans
    forwards = [s for s in spans if s[0] == "model.forward"]
    featurized = [s[8] for s in spans if s[0] == "featurize"]
    fits = [s for s in spans if s[0] == "dataio.fit"]
    batches = calls("train.adamw")
    # Tensors created by training batches: everything inside ``fit`` except
    # its parse/featurize, validation, snapshot and restore children.
    fit_ids = {s[1] for s in spans if s[0] == "train.fit"}
    tape = sum(s[7] - s[6] for s in spans if s[1] in fit_ids)
    off_batch = ("smiles.parse", "featurize", "train.validate",
                 "model.snapshot", "model.restore")
    tape -= sum(s[7] - s[6] for s in spans
                if s[2] in fit_ids and s[0] in off_batch)
    values = {
        "smiles.parse.calls": (calls("smiles.parse"), "count"),
        "smiles.parse.ms": (ms("smiles.parse"), "ms"),
        "featurize.calls": (len(featurized), "count"),
        "featurize.ms": (ms("featurize"), "ms"),
        "featurize.scope.ms": (ms("featurize.scope"), "ms"),
        "featurize.calls_per_unique_smiles": (
            len(featurized) / len(set(featurized)) if featurized else 0.0,
            "ratio"),
        "gnn.encode.calls": (calls("gnn.encode"), "count"),
        "gnn.encode.ms": (ms("gnn.encode", "gnn.layer"), "ms"),
        "gnn.layer.calls": (calls("gnn.layer"), "count"),
        "pooling.calls": (calls("pooling"), "count"),
        "pooling.ms": (ms("pooling"), "ms"),
        "model.forward.calls": (len(forwards), "count"),
        "model.forward.mol_per_call": (
            sum(s[8] for s in forwards) / len(forwards) if forwards else 0.0,
            "mol"),
        "model.head.ms": (ms("model.head"), "ms"),
        "model.ckpt_load.ms": (ms("model.ckpt_load"), "ms"),
        "model.snapshot.calls": (calls("model.snapshot"), "count"),
        "model.snapshot.ms": (ms("model.snapshot"), "ms"),
        "model.restore.ms": (ms("model.restore"), "ms"),
        "tensor.backward.calls": (calls("tensor.backward"), "count"),
        "tensor.backward.ms": (ms("tensor.backward"), "ms"),
        "tensor.tape_nodes_per_batch": (tape / batches if batches else 0.0,
                                        "count"),
        "antoine.ms": (ms("antoine"), "ms"),
        "antoine.invalid_branch_points": (journey.invalid_branch_points,
                                          "count"),
        "antoine.domain_errors": (len(journey.defects["domain"]), "count"),
        "train.best_valid_mape_i": (journey.best_mape or 0.0, "%"),
        "train.batches": (batches, "count"),
        "train.forward.ms": (ms("train.loss"), "ms"),
        "train.adamw.ms": (ms("train.adamw"), "ms"),
        "train.validate.ms": (ms("train.validate"), "ms"),
        "dataio.load.ms": (ms("dataio.load"), "ms"),
        "dataio.fit.calls": (len(fits), "count"),
        "dataio.fit.ms": (ms("dataio.fit"), "ms"),
        "dataio.fit.converged_ratio": (
            sum(1 for s in fits if s[8]) / len(fits) if fits else 0.0,
            "ratio"),
        "dataio.curate.kept_ratio": (journey.curate_kept_ratio or 0.0, "ratio"),
        "dataio.curate.misjudged_components": (
            len(journey.defects["misjudged"]), "count"),
        "dataio.split.ms": (ms("dataio.split"), "ms"),
        "metrics.summarize.ms": (ms("metrics.summarize"), "ms"),
        "metrics.binned.ms": (ms("metrics.binned"), "ms"),
        "metrics.boiling.ms": (ms("metrics.boiling"), "ms"),
    }
    return values


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    import gen

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", default="full", choices=sorted(gen.SCALES))
    args = ap.parse_args(argv)

    import grappa
    from grappa import model

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(grappa.__file__).startswith(src + os.sep):
        note(f"grappa imported from {grappa.__file__}, not from {src}")
        return 2

    import tracer as tracing

    facts = machine_facts()
    note("machine " + json.dumps(facts))
    probe = Probe()
    checks, ops = Checks(), Ops()
    scale = gen.SCALES[args.scale]
    repeated = WORKLOADS[args.workload]

    os.makedirs(".perfbench", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench") as work:
        inputs, csv_paths = make_inputs(args.seed, repeated, scale, work)
        again = gen.build(args.seed, repeated, scale)
        checks.require(_digest(inputs) == _digest(again),
                       "the same seed gives the same inputs")
        del again
        import_walls, setup_walls = [], []
        before = probe()
        for _ in range(SETUP_REPEATS):
            import_s = time_import()
            t0 = perf_counter()
            env = set_up(inputs, csv_paths, args.seed, work)
            wall = perf_counter() - t0
            after = probe()
            slow = probe.slowdown(before, after)
            import_walls.append(import_s / slow)
            setup_walls.append(wall / slow)
            before = after
        setup_s = statistics.median(i + w for i, w in zip(import_walls,
                                                          setup_walls))

        # Warm-up on molecules no phase uses: first-call costs users pay
        # once per process stay out of the timed phases.
        for smiles in inputs.warmup:
            model.predict(env["init_model"], smiles, [300.0, 400.0], 101325.0)

        journey = Journey(env, args.seed, checks, ops, work)
        if args.trace:
            values, tracer = run_traced(journey, probe, checks)
            if tracer is not None:
                tracer.write_jsonl(os.path.join(
                    ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            values = run_untraced(journey, args.seconds, probe)
            checks.require(bool(values), "every phase produced a result")
            values["setup_s"] = (setup_s, "s")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        checks.require(not tracing.patched_sites(),
                       "grappa is unpatched after the run")
        checks.require(journey.trained is not None and journey.loaded is not None,
                       "the first fit trained a model that loads")
    note("known defects: " + ", ".join(
        f"{kind}={len(keys)}" for kind, keys in journey.defects.items()))
    probe_median = statistics.median(probe.samples)
    note(f"machine.probe_ms median={probe_median:.3f} min={min(probe.samples):.3f} "
         f"max={max(probe.samples):.3f} n={len(probe.samples)}; normalized "
         "import_s=" + ",".join(f"{w:.4f}" for w in import_walls)
         + " setup_walls="
         + ",".join(f"{w:.4f}" for w in setup_walls))
    if args.trace:
        values["machine.probe_ms"] = (probe_median, "ms")
    for name, (value, unit) in sorted(values.items()):
        note(f"  {name:40s} {value:14.4f} {unit}")
    result = {
        "correct": not checks.failures,
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
