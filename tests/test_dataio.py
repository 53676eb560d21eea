import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grappa import dataio
from grappa.antoine import AntoineParams
from grappa.dataio import (
    VpDataset,
    VpPoint,
    carbon_count,
    curate,
    load,
    read_splits_csv,
    robust_antoine_fit,
    robust_antoine_fits,
    split,
    write_csv,
    write_splits_csv,
)
from grappa.smiles import parse_smiles

from _oracles import (
    contaminate,
    reference_antoine_fit,
    reference_five_start_fit,
    reference_lm_solve,
    reference_start,
    synthetic_dataset,
)


def curve_points(component, smiles, params, temps, **kw):
    return [
        VpPoint(component, smiles, float(t),
                math.exp(params.A - params.B / (params.C + t)) * 1000.0, **kw)
        for t in temps
    ]


# ---------------------------------------------------------------------- load

def test_load_csv_roundtrip(tmp_path):
    ds, _ = synthetic_dataset(points_per_component=3)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    loaded = load(path)
    assert len(loaded) == len(ds)
    assert loaded.points[0].component_id == ds.points[0].component_id
    assert loaded.points[0].pressure_pa == pytest.approx(
        ds.points[0].pressure_pa)
    assert not loaded.rejects


def test_load_empty_file_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("component_id,smiles,temperature_K,pressure_Pa,quality\n")
    ds = load(path)
    assert len(ds) == 0 and not ds.rejects


def test_load_single_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(
        "component_id,smiles,temperature_K,pressure_Pa,quality\n"
        "ethanol,CCO,300.0,8000.0,ok\n")
    ds = load(path)
    assert len(ds) == 1
    assert ds.points[0].smiles == "CCO"


def test_load_rejects_bad_rows_with_row_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "component_id,smiles,temperature_K,pressure_Pa,quality\n"
        "a,CCO,300.0,1000.0,ok\n"
        "b,CCO,300.0,-5.0,ok\n"
        "c,CCO,not_a_number,1000.0,ok\n"
        "d,CCO,310.0,,ok\n"
        "e,CCO,inf,1000.0,ok\n"
        "f,CCO,300.0,nan,ok\n")
    ds = load(path)
    assert len(ds) == 1
    assert [r["row"] for r in ds.rejects] == [3, 4, 5, 6, 7]
    assert all("finite" in r["reason"] for r in ds.rejects[-2:])
    # A field over csv's size limit is refused by the reader itself, which
    # goes on with the next record.
    big = "x" * (csv.field_size_limit() + 1)
    path.write_text(
        "component_id,smiles,temperature_K,pressure_Pa,quality\n"
        f"a,{big},300.0,1000.0,ok\n"
        "b,CCO,300.0,1000.0,ok\n")
    ds = load(path)
    assert [pt.row for pt in ds.points] == [3]
    assert [r["row"] for r in ds.rejects] == [2]
    assert "field limit" in ds.rejects[0]["reason"]
    # JSONL: an integer too large for a float, and arrays nested deeper than
    # the decoder recurses.
    path = tmp_path / "bad.jsonl"
    good = ('{"component_id": "a", "smiles": "CCO", "temperature_K": 300,'
            ' "pressure_Pa": 1000, "quality": "ok"}\n')
    path.write_text(good.replace("300", "1" + "0" * 400)
                    + "[" * 200_000 + "\n" + good)
    ds = load(path, fmt="jsonl")
    assert [pt.row for pt in ds.points] == [3]
    assert [r["row"] for r in ds.rejects] == [1, 2]
    assert "too large" in ds.rejects[0]["reason"]
    assert "recursion" in ds.rejects[1]["reason"]


def test_write_csv_round_trips_numpy_floats(tmp_path):
    temps = np.array([300.0, 325.5, 351.25])
    points = [VpPoint("a", "CCCCC", t, p)
              for t, p in zip(temps, np.exp(14.0 - 3000.0 / (temps - 40.0)))]
    assert all(type(pt.pressure_pa) is np.float64 for pt in points)
    path = tmp_path / "numpy.csv"
    write_csv(VpDataset(points), path)
    loaded = load(path)
    assert not loaded.rejects
    assert [(pt.temperature_k, pt.pressure_pa) for pt in loaded.points] == [
        (pt.temperature_k, pt.pressure_pa) for pt in points]


def test_load_missing_column_raises(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("component_id,smiles,temperature_K\n")
    with pytest.raises(ValueError):
        load(path)


def test_load_jsonl(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"component_id": "a", "smiles": "CCO", "temperature_K": 300,'
        ' "pressure_Pa": 1000, "quality": "ok"}\n'
        '{"component_id": "b", "smiles": "CC", "temperature_K": 0,'
        ' "pressure_Pa": 1000, "quality": "ok"}\n'
        # Valid JSON that is not an object: a list, a number, a string, null.
        '[1, 2]\n3.5\n"a,CCO,300,1000,ok"\nnull\n')
    ds = load(path, fmt="jsonl")
    assert len(ds) == 1
    assert len(ds.rejects) == 5
    assert ds.rejects[1:] == [{"row": row, "reason": "row is not an object"}
                              for row in (3, 4, 5, 6)]


def test_load_rejects_boolean_temperatures_and_pressures(tmp_path):
    path = tmp_path / "bools.jsonl"
    rows = [{"temperature_K": 300, "pressure_Pa": 1000},
            {"temperature_K": True, "pressure_Pa": 1000},
            {"temperature_K": 300, "pressure_Pa": False},
            {"temperature_K": False, "pressure_Pa": True}]
    path.write_text("".join(
        json.dumps({"component_id": "a", "smiles": "CCO", "quality": "ok",
                    **row}) + "\n" for row in rows))
    ds = load(path, fmt="jsonl")
    assert len(ds) == 1
    assert ds.rejects == [
        {"row": 2, "reason": "temperature_K is not a number"},
        {"row": 3, "reason": "pressure_Pa is not a number"},
        {"row": 4, "reason": "temperature_K is not a number"}]


# ---------------------------------------------------------------- robust fit

def test_fit_recovers_noiseless_parameters():
    truth = AntoineParams(10.0, 2000.0, -50.0)
    temps = np.linspace(300.0, 470.0, 8)
    p = np.exp(truth.A - truth.B / (truth.C + temps)) * 1000.0
    fit = robust_antoine_fit(temps, p)
    assert fit.converged
    assert fit.params.A == pytest.approx(truth.A, rel=1e-3)
    assert fit.params.B == pytest.approx(truth.B, rel=1e-3)
    assert fit.params.C == pytest.approx(truth.C, rel=1e-3)


def test_fit_is_robust_to_one_gross_outlier():
    # The raw parameters are sloppy (B and C compensate), so robustness is
    # asserted on the fitted curve: one 10x point barely moves predictions.
    truth = AntoineParams(10.0, 2000.0, -50.0)
    temps = np.linspace(300.0, 470.0, 9)
    p = np.exp(truth.A - truth.B / (truth.C + temps)) * 1000.0
    clean = robust_antoine_fit(temps, p).params
    poisoned = p.copy()
    poisoned[4] *= 10.0
    dirty = robust_antoine_fit(temps, poisoned).params
    ln_clean = clean.A - clean.B / (clean.C + temps)
    ln_dirty = dirty.A - dirty.B / (dirty.C + temps)
    assert np.max(np.abs(ln_dirty - ln_clean)) < 0.12  # < 12% in pressure
    assert dirty.in_ranges()


def test_fit_preconditions():
    with pytest.raises(ValueError):
        robust_antoine_fit([300.0, 310.0], [1000.0, 2000.0])
    with pytest.raises(ValueError):
        robust_antoine_fit([300.0, 300.2, 300.4], [1000.0, 1100.0, 1200.0])
    for t, p in (([300.0, 320.0, 340.0], [1000.0, np.nan, 3000.0]),
                 ([300.0, 320.0, 340.0], [1000.0, 0.0, 3000.0]),
                 ([300.0, np.inf, 340.0], [1000.0, 2000.0, 3000.0])):
        with pytest.raises(ValueError, match="finite"):
            robust_antoine_fit(t, p)


# Starts spread over the parameter box, for tests of the loop itself.
FIXED_STARTS = np.array([[8.0, 2500.0, -30.0], [12.0, 3500.0, -100.0],
                         [15.0, 4800.0, -150.0], [10.0, 3000.0, -60.0]])


def test_lm_solve_rejects_a_c_box_that_reaches_the_pole():
    t = np.array([300.0, 320.0, 340.0])
    y = 10.0 - 2600.0 / (t - 55.0)
    box = np.array([(5.0, 20.0), (1500.0, 6000.0), (-300.0, 0.0)])
    with pytest.raises(ValueError, match="C \\+ T"):
        dataio._lm_solve(FIXED_STARTS, [t] * 4, [y] * 4, np.stack([box] * 4), 0.5)


def test_fit_cost_trace_never_increases():
    truth = AntoineParams(12.0, 3200.0, -80.0)
    temps = np.linspace(320.0, 500.0, 10)
    rng = np.random.default_rng(0)
    p = np.exp(truth.A - truth.B / (truth.C + temps) +
               rng.normal(0, 0.05, size=10)) * 1000.0
    fit = robust_antoine_fit(temps, p)
    trace = np.array(fit.cost_trace)
    assert (np.diff(trace) <= 1e-12).all()


def test_fit_respects_parameter_box():
    rng = np.random.default_rng(1)
    temps = np.linspace(260.0, 590.0, 12)
    p = np.exp(rng.uniform(-5, 5, size=12)) * 1000.0  # garbage data
    fit = robust_antoine_fit(temps, p)
    assert 5.0 <= fit.params.A <= 20.0
    assert 1500.0 <= fit.params.B <= 6000.0
    assert -300.0 <= fit.params.C <= 0.0


def assert_fit_bytes_equal(fit, reference):
    """The library's fit against an oracle result tuple, compared by bytes."""
    theta, cost, residuals, converged, iterations, trace = reference
    assert np.array(fit.params.as_tuple()).tobytes() == np.asarray(theta).tobytes()
    assert type(fit.cost) is float and np.float64(fit.cost).tobytes() == (
        np.float64(cost).tobytes())
    assert fit.residuals.tobytes() == residuals.tobytes()
    assert fit.converged is converged
    assert fit.iterations == iterations
    assert np.array(fit.cost_trace).tobytes() == np.array(trace).tobytes()


@st.composite
def fit_problems(draw, n=None):
    """3-15 points (or ``n``) on an Antoine curve, with noise or outliers, or
    garbage pressures; windows starting below 301 K narrow the C box."""
    if n is None:
        n = draw(st.integers(3, 15))
    t_lo = draw(st.floats(250.0, 450.0))
    width = draw(st.floats(1.5, 250.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.sort(np.r_[t_lo, t_lo + width, rng.uniform(t_lo, t_lo + width, n - 2)])
    kind = draw(st.sampled_from(["clean", "noisy", "outliers", "garbage"]))
    if kind == "garbage":
        return t, np.exp(rng.uniform(-5.0, 8.0, n)) * 1000.0
    a = draw(st.floats(7.0, 15.0))
    b = draw(st.floats(1800.0, 5000.0))
    c = draw(st.floats(-200.0, -10.0))
    ln_p = a - b / (c + t)
    if kind != "clean":
        ln_p = ln_p + rng.normal(0.0, draw(st.floats(0.0, 0.2)), n)
    if kind == "outliers":
        hit = rng.choice(n, size=draw(st.integers(1, min(3, n))), replace=False)
        ln_p[hit] += rng.choice([-1.0, 1.0], hit.size) * rng.uniform(0.7, 2.5, hit.size)
    return t, np.exp(ln_p) * 1000.0


@settings(deadline=None, max_examples=80)
@given(fit_problems())
def test_stacked_fit_matches_one_start_at_a_time(problem):
    """The vectorized scan and the loop from its start give a window the
    bytes of the oracle, which scans one C and one reweighted solve at a
    time and polishes the start alone."""
    t, p = problem
    assert_fit_bytes_equal(robust_antoine_fit(t, p), reference_antoine_fit(t, p))


def test_one_start_reaches_the_five_start_fit_along_a_flat_c_valley():
    """perfbench ``gen`` seed 301, curate chunk 27, component cmp0009: nine
    points over 307-552 K with one outlier, whose Huber cost is nearly flat
    for C in [-200, -150]. The five-start fit reaches 1.34347 at
    C = -189.7. The start of a 24-point scan with three reweighted solves
    per C lands at C = -169.6, and the loop from it stops by the slow-step
    rule at 1.34830, C = -168.8."""
    t = [307.1642857489491, 314.7401255957622, 354.2649827920563,
         369.4754944247535, 395.0211191484627, 438.3742791790112,
         496.49705133587617, 539.6083037013601, 551.4734217445168]
    p = [7.412069240985528, 73.78526491624741, 4648.966411173921,
         1574.1243141870737, 4576.143559447922, 20604.850458937053,
         90141.84186595955, 221375.60065382544, 271989.0864767269]
    fit = robust_antoine_fit(t, p)
    five = reference_five_start_fit(t, p)
    assert fit.converged
    assert fit.cost <= five[1] * (1.0 + 1e-4)


@settings(deadline=None, max_examples=60)
@given(fit_problems())
def test_a_start_that_never_holds_a_face_runs_the_loop_without_the_rule(problem):
    """Holding a parameter on a face of its box is the only change to the
    loop: a start that never meets the rule in the loop without it ends,
    in the stacked solver, with that loop's exact bytes."""
    t, y, box = dataio._fit_window(*problem)
    starts = np.concatenate([dataio._start_points([t], [y], box[None], 0.5),
                             FIXED_STARTS])
    theta, cost, r, converged, iterations, traces = dataio._lm_solve(
        starts, [t] * len(starts), [y] * len(starts),
        np.stack([box] * len(starts)), 0.5)
    for k, start in enumerate(starts):
        held_at = []
        plain = reference_lm_solve(start, t, y, box, 0.5, hold_faces=False,
                                   held_at=held_at)
        if held_at:
            continue
        assert theta[k].tobytes() == plain[0].tobytes()
        assert np.float64(cost[k]).tobytes() == np.float64(plain[1]).tobytes()
        assert r[k].tobytes() == plain[2].tobytes()
        assert (converged[k], iterations[k], traces[k]) == plain[3:]


def test_a_start_held_on_the_c_face_converges():
    """Every start of this window ends at C = 0 with the descent direction
    pointing out of the box. Stepping C there only to clip it back, the
    loop crept along the face to the 200-iteration cap at cost 0.513616;
    with C held, the fit converges (in 9 iterations, at cost 0.513313)."""
    fit = robust_antoine_fit([315.9, 409.0, 483.5, 581.6],
                             [1123.0, 9283.0, 234263.0, 1106913.0])
    assert fit.converged
    assert fit.cost <= 0.513616
    assert fit.params.C == 0.0


# The sha256 of the params, cost, converged flag and iteration count of the
# robust fits of seeded_windows(): any change to a fit's bytes fails here
# and has to update the digest on purpose.
FIT_OUTPUT_SHA256 = (
    "5974e0505f8dd1557a93c5c5abd3ec4f9bc4c1b36371aee3a158cd64c8bffbfc")


def seeded_windows(count=240, seed=40):
    """Windows of 3-15 points on Antoine curves, clean, noisy, with
    outliers or garbage, some starting below 301 K and some narrow."""
    rng = np.random.default_rng(seed)
    windows = []
    for k in range(count):
        n = int(rng.integers(3, 16))
        lo = rng.uniform(250.0, 450.0)
        hi = lo + rng.uniform(1.5, 250.0)
        t = np.r_[lo, np.sort(rng.uniform(lo, hi, n - 2)), hi]
        ln_p = (rng.uniform(7.0, 15.0) - rng.uniform(1800.0, 5000.0)
                / (rng.uniform(-200.0, -10.0) + t))
        kind = k % 4
        if kind == 1:
            ln_p += rng.normal(0.0, 0.1, n)
        elif kind == 2:
            ln_p[rng.integers(n)] += rng.choice([-1.5, 1.5])
        elif kind == 3:
            ln_p = rng.uniform(-5.0, 8.0, n)
        windows.append((t, np.exp(ln_p) * 1000.0))
    return windows


def fit_output_digest(fits) -> str:
    digest = hashlib.sha256()
    for fit in fits:
        digest.update(np.array(fit.params.as_tuple() + (fit.cost,)).tobytes())
        digest.update(f"{fit.converged} {fit.iterations};".encode())
    return digest.hexdigest()


def test_fit_outputs_are_pinned():
    assert fit_output_digest(robust_antoine_fits(seeded_windows())) == (
        FIT_OUTPUT_SHA256)


@st.composite
def window_batches(draw):
    """1-6 fit problems whose point counts come from at most three values,
    so windows both share and differ in length, and the per-window sums
    reach past numpy's 8-element pairwise-sum blocks and 16; one window
    always starts below 301 K, narrowing its C box."""
    counts = draw(st.lists(st.integers(3, 40), min_size=1, max_size=3))
    size = draw(st.integers(1, 6))
    batch = [draw(fit_problems(draw(st.sampled_from(counts))))
             for _ in range(size)]
    narrow = draw(st.integers(0, size - 1))
    t, p = batch[narrow]
    batch[narrow] = (t - t[0] + draw(st.floats(250.0, 295.0)), p)
    return batch


@settings(deadline=None, max_examples=25)
@given(window_batches())
def test_batched_fits_match_each_window_alone(windows):
    fits = robust_antoine_fits(windows)
    assert len(fits) == len(windows)
    for fit, (t, p) in zip(fits, windows):
        assert_fit_bytes_equal(fit, reference_antoine_fit(t, p))


def test_one_lm_loop_solves_windows_of_every_point_count(monkeypatch):
    """Windows of 3, 4, 9 and 12 points, given out of order, are solved in
    one ``_lm_solve`` call over their four starts, and each fit is
    byte-equal to the one-at-a-time oracle, with residuals of its own."""
    rng = np.random.default_rng(11)
    windows = []
    for n in (9, 3, 12, 4):
        t = np.sort(rng.uniform(290.0, 430.0, n))
        windows.append((t, np.exp(11.0 - 3000.0 / (t - 60.0)
                                  + rng.normal(0.0, 0.05, n)) * 1000.0))
    real_solve = dataio._lm_solve
    calls = []

    def counting(starts, *args):
        calls.append(len(starts))
        return real_solve(starts, *args)

    monkeypatch.setattr(dataio, "_lm_solve", counting)
    fits = robust_antoine_fits(windows)
    assert calls == [4]
    for fit, (t, p) in zip(fits, windows):
        assert_fit_bytes_equal(fit, reference_antoine_fit(t, p))
        assert fit.residuals.flags.owndata


def test_one_wide_window_does_not_widen_the_others():
    """The windows of a call are packed end to end, not padded to the
    widest: beside one window of 2,000 points, 100 windows of 3 points keep
    the call's peak traced memory near what its 2,300 points need over the
    scan's C values (the scan of the 101 windows padded to 2,000 points
    would be 26 MB for its C values alone), and the fits checked, the wide
    one among them, are byte-equal to the one-at-a-time oracle."""
    rng = np.random.default_rng(17)
    windows = []
    for n in [3] * 100 + [2000]:
        t = np.sort(rng.uniform(290.0, 450.0, n))
        windows.append((t, np.exp(11.0 - 3000.0 / (t - 60.0)
                                  + rng.normal(0.0, 0.05, n)) * 1000.0))
    tracemalloc.start()
    try:
        fits = robust_antoine_fits(windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for fit, (t, p) in list(zip(fits, windows))[::25]:
        assert_fit_bytes_equal(fit, reference_antoine_fit(t, p))


def test_many_windows_are_solved_in_blocks_of_bounded_memory(monkeypatch):
    """With blocks of 40 windows, a call over 160 windows runs four scans
    and four ``_lm_solve`` loops, and its traced peak above what it returns
    is no more than a call over 40 windows reaches plus a margin (one block
    of all 160 would need about four times as much); each fit checked is
    byte-equal to the one-at-a-time oracle."""
    monkeypatch.setattr(dataio, "FIT_BLOCK_WINDOWS", 40)
    rng = np.random.default_rng(23)
    windows = []
    for _ in range(160):  # alike, so that the four blocks are too
        t = np.sort(rng.uniform(290.0, 450.0, 8))
        windows.append((t, np.exp(11.0 - 3000.0 / (t - 60.0)
                                  + rng.normal(0.0, 0.05, 8)) * 1000.0))
    real_solve = dataio._lm_solve
    calls = []

    def counting(starts, *args):
        calls.append(len(starts))
        return real_solve(starts, *args)

    monkeypatch.setattr(dataio, "_lm_solve", counting)

    def working_peak(batch):
        tracemalloc.start()
        try:
            fits = robust_antoine_fits(batch)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - retained, fits

    one_block, _ = working_peak(windows[:40])
    four_blocks, fits = working_peak(windows)
    assert calls == [40] * 5
    assert four_blocks < 1.5 * one_block
    for fit, (t, p) in list(zip(fits, windows))[::9]:
        assert_fit_bytes_equal(fit, reference_antoine_fit(t, p))


def test_batched_fits_check_every_window_before_solving(monkeypatch):
    good = (np.linspace(300.0, 400.0, 5), np.linspace(1e3, 9e3, 5))
    monkeypatch.setattr(dataio, "_lm_solve", None)  # any solve would fail
    with pytest.raises(ValueError, match="spanning"):
        robust_antoine_fits([good, ([300.0, 310.0], [1000.0, 2000.0])])
    with pytest.raises(ValueError, match="finite"):
        robust_antoine_fits([good, ([300.0, 320.0, 340.0], [1e3, 0.0, 3e3])])
    assert robust_antoine_fits([]) == []


def test_stacked_fit_matches_on_the_narrowed_c_box_and_small_budgets(monkeypatch):
    t = np.array([252.0, 260.0, 275.0, 290.0])  # C >= -251
    p = np.exp(9.0 - 2000.0 / (t - 40.0)) * 1000.0
    for max_iter in (0, 1, 2, 5, 200):
        monkeypatch.setattr(dataio, "FIT_MAX_ITER", max_iter)
        assert_fit_bytes_equal(robust_antoine_fit(t, p),
                               reference_antoine_fit(t, p, max_iter=max_iter))


def test_a_singular_solve_fails_only_its_own_start(monkeypatch):
    """One start's system, at its third iteration, is made to raise
    ``LinAlgError``; the stacked solver must give that start alone a failed
    step (damping x10) and every start the result it gets when run alone
    with the same failure."""
    rng = np.random.default_rng(3)
    t = np.linspace(300.0, 420.0, 8)
    y = 10.0 - 2600.0 / (t - 55.0) + rng.normal(0.0, 0.05, t.size)
    box = np.array([(5.0, 20.0), (1500.0, 6000.0), (-299.0, 0.0)])
    starts = np.concatenate([[[10.0, 2600.0, -55.0]], FIXED_STARTS])
    real_solve = np.linalg.solve
    seen = []

    def recording(a, b):
        seen.append(np.array(a, copy=True))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    reference_lm_solve(starts[2], t, y, box, 0.5)
    target = seen[2].tobytes()
    raised = []

    def failing(a, b):
        stack = a.reshape(-1, 3, 3)
        if any(m.tobytes() == target for m in stack):
            raised.append(a.ndim)
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing)
    expected = [reference_lm_solve(s, t, y, box, 0.5) for s in starts]
    raised.clear()
    theta, cost, r, converged, iterations, traces = dataio._lm_solve(
        starts, [t] * len(starts), [y] * len(starts),
        np.stack([box] * len(starts)), 0.5)
    monkeypatch.setattr(np.linalg, "solve", real_solve)
    assert raised == [3, 2]  # the batch failed, then that one start alone
    for k, ref in enumerate(expected):
        assert theta[k].tobytes() == ref[0].tobytes()
        assert np.float64(cost[k]).tobytes() == np.float64(ref[1]).tobytes()
        assert r[k].tobytes() == ref[2].tobytes()
        assert (converged[k], iterations[k], traces[k]) == ref[3:]
    alone = reference_lm_solve(starts[2], t, y, box, 0.5)
    assert traces[2] != alone[5] or iterations[2] != alone[4]


def test_a_singular_solve_in_one_window_fails_only_its_own_start(monkeypatch):
    """In a batch of four windows of two point counts, all solved as one
    stack, the second window's start gets a singular system at its third
    iteration; only that start fails, and every window gets the fit the
    one-at-a-time oracle gives it with the same failure."""
    rng = np.random.default_rng(5)
    windows = []
    for n, c in ((8, -55.0), (8, -70.0), (6, -40.0), (8, -90.0)):
        t = np.linspace(300.0, 420.0, n)
        windows.append((t, np.exp(10.0 - 2600.0 / (t + c)
                                  + rng.normal(0.0, 0.05, n)) * 1000.0))
    t, p = windows[1]
    y = np.log(p / 1000.0)
    box = np.array([(5.0, 20.0), (1500.0, 6000.0), (-299.0, 0.0)])
    real_solve = np.linalg.solve
    seen = []

    def recording(a, b):
        seen.append(np.array(a, copy=True))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    reference_lm_solve(reference_start(t, y, box), t, y, box, 0.5)
    target = seen[2].tobytes()
    raised = []

    def failing(a, b):
        if any(m.tobytes() == target for m in a.reshape(-1, 3, 3)):
            raised.append(a.ndim)
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing)
    expected = [reference_antoine_fit(t, p) for t, p in windows]
    raised.clear()
    fits = robust_antoine_fits(windows)
    monkeypatch.setattr(np.linalg, "solve", real_solve)
    assert raised == [3, 2]  # the stack failed, then that one start alone
    for fit, ref in zip(fits, expected):
        assert_fit_bytes_equal(fit, ref)


# ------------------------------------------------------------------- curation

def base_rules_dataset():
    truth = AntoineParams(10.0, 2500.0, -60.0)
    points = curve_points("good", "CCO", truth, np.linspace(300, 420, 6))
    points.append(VpPoint("good", "CCO", 200.0, 5000.0, row=100))
    points.append(VpPoint("good", "CCO", 650.0, 5000.0, row=101))
    points.append(VpPoint("good", "CCO", 300.0, 0.5, row=102))
    points.append(VpPoint("good", "CCO", 300.0, 5e7, row=103))
    points.append(VpPoint("good", "CCO", 310.0, 4000.0, quality="poor", row=104))
    points.append(VpPoint("good", "CCO", 311.0, 4100.0, stereo_ok=False, row=105))
    points.append(VpPoint("salt", "[NH4+]", 300.0, 1000.0, row=106))
    points.append(VpPoint("acid", "O=S(=O)(O)O", 300.0, 1000.0, row=107))
    return VpDataset(points)


def test_row_filters_and_audit_rules():
    result = curate(base_rules_dataset())
    rules = {entry["row"]: entry["rule"] for entry in result.audit}
    assert rules[100] == "temperature_out_of_range"
    assert rules[101] == "temperature_out_of_range"
    assert rules[102] == "pressure_out_of_range"
    assert rules[103] == "pressure_out_of_range"
    assert rules[104] == "poor_quality"
    assert rules[105] == "stereo_not_represented"
    assert rules[106].startswith("scope:")
    assert rules[107].startswith("scope:")
    kept_components = {pt.component_id for pt in result.dataset.points}
    assert kept_components == {"good"}
    assert len(result.dataset) == 6


def test_curate_drops_rows_naming_another_smiles_than_their_component():
    # Component x names CCO on rows 1-3 and CCCCCCO on rows 4-6; row 0, out
    # of range, is dropped first, so it does not set the component's SMILES.
    temps = np.linspace(300, 420, 6)
    points = ([VpPoint("x", "CCCCCCO", 200.0, 5000.0)]
              + curve_points("x", "CCO", AntoineParams(10.0, 2500.0, -60.0),
                             temps[:3])
              + curve_points("x", "CCCCCCO", AntoineParams(10.0, 3200.0, -60.0),
                             temps[3:]))
    for i, pt in enumerate(points):
        object.__setattr__(pt, "row", i)
    result = curate(VpDataset(points))
    assert result.audit == [
        {"row": 0, "component": "x", "rule": "temperature_out_of_range",
         "action": "dropped"}] + [
        {"row": row, "component": "x", "rule": "smiles_differs_within_component",
         "action": "dropped"} for row in (4, 5, 6)]
    assert [pt.row for pt in result.dataset.points] == [1, 2, 3]
    assert {pt.smiles for pt in result.dataset.points} == {"CCO"}


def test_boundary_values_are_kept():
    points = [
        VpPoint("x", "CCO", 250.0, 1.0, row=1),
        VpPoint("x", "CCO", 600.0, 1e7, row=2),
    ]
    result = curate(VpDataset(points))
    assert len(result.dataset) == 2


def test_small_components_skip_outlier_pass():
    truth = AntoineParams(10.0, 2500.0, -60.0)
    points = curve_points("tiny", "CCO", truth, np.linspace(300, 360, 4))
    # Blatant outlier, but only 4 points: it must survive.
    points[2] = VpPoint("tiny", "CCO", points[2].temperature_k,
                        points[2].pressure_pa * 5.0, row=points[2].row)
    result = curate(VpDataset(points))
    assert len(result.dataset) == 4
    assert not any(e["rule"] == "outlier_vs_antoine_fit" for e in result.audit)


def test_outlier_pass_drops_exactly_injected_points():
    ds, _ = synthetic_dataset(points_per_component=9)
    dirty, injected = contaminate(ds, factor=2.0)
    result = curate(dirty)
    dropped = {e["row"] for e in result.audit
               if e["rule"] == "outlier_vs_antoine_fit"}
    assert dropped == injected  # perfect precision and recall
    assert len(result.dataset) == len(dirty) - len(injected)


def test_curation_is_idempotent_on_synthetic_data():
    ds, _ = synthetic_dataset(points_per_component=9)
    dirty, _ = contaminate(ds, factor=2.5)
    once = curate(dirty)
    twice = curate(once.dataset)
    assert len(twice.dataset) == len(once.dataset)
    assert [pt.row for pt in twice.dataset.points] == [
        pt.row for pt in once.dataset.points]


def disagreeing_sources_dataset() -> VpDataset:
    """One component whose two sources differ by 4x in pressure."""
    low = AntoineParams(9.0, 2200.0, -50.0)
    high = AntoineParams(9.0 + math.log(4.0), 2200.0, -50.0)  # 4x pressure
    temps = np.linspace(310.0, 420.0, 6)
    points = curve_points("dup", "CCO", low, temps, source="lab-a")
    points += curve_points("dup", "CCO", high, temps, source="lab-b")
    for i, pt in enumerate(points):
        object.__setattr__(pt, "row", i + 1)
    return VpDataset(points)


def test_conflict_report_flags_disagreeing_sources():
    result = curate(disagreeing_sources_dataset())
    assert not any(e["rule"] == "fit_not_converged" for e in result.audit)
    assert [c["component"] for c in result.conflicts] == ["dup"]


def test_a_component_fit_that_did_not_converge_gets_no_conflict(monkeypatch):
    """The per-source fits ride in the component fits' call, but a component
    whose own fit did not converge is kept unjudged, with no conflict."""
    monkeypatch.setattr(dataio, "FIT_MAX_ITER", 1)
    result = curate(disagreeing_sources_dataset())
    assert result.audit == [{"row": None, "component": "dup",
                             "rule": "fit_not_converged", "action": "kept"}]
    assert result.conflicts == []


def test_agreeing_sources_do_not_conflict():
    truth = AntoineParams(9.5, 2400.0, -55.0)
    temps = np.linspace(310.0, 420.0, 6)
    points = curve_points("ok", "CCO", truth, temps, source="lab-a")
    points += curve_points("ok", "CCO", truth, temps + 3.0, source="lab-b")
    result = curate(VpDataset(points))
    assert result.conflicts == []


def test_a_source_curve_that_underflows_conflicts_infinitely_without_a_warning():
    # At 301.2 K this source's C + T is 1.2, so its pressure underflows to 0.
    fits = {"src-a": AntoineParams(11.41, 1500.0, -300.0),
            "src-b": AntoineParams(9.5, 2400.0, -55.0)}
    conflict = dataio._source_conflict("c", np.array([301.2, 340.0]), fits)
    assert conflict == {"component": "c", "sources": ["src-a", "src-b"],
                        "max_rel_deviation": math.inf}


def test_two_source_curves_that_both_underflow_still_conflict_elsewhere():
    # At 301.2 K both curves have C + T = 1.2 and underflow to 0 Pa; at
    # every other grid temperature they differ by the ratio exp(12.5 - 11.41).
    fits = {"src-a": AntoineParams(11.41, 1500.0, -300.0),
            "src-b": AntoineParams(12.5, 1500.0, -300.0)}
    for window in ([301.2, 400.0], [305.0, 400.0]):
        conflict = dataio._source_conflict("c", np.array(window), fits)
        assert conflict["sources"] == ["src-a", "src-b"]
        assert conflict["max_rel_deviation"] == pytest.approx(math.expm1(1.09))


def test_curate_keeps_a_component_with_a_narrow_temperature_window():
    truth = AntoineParams(10.0, 2500.0, -60.0)
    points = curve_points("narrow", "CCO", truth, np.linspace(300.0, 300.5, 6))
    points += curve_points("wide", "CCC", truth, np.linspace(300.0, 400.0, 6))
    result = curate(VpDataset(points))
    assert len(result.dataset) == 12
    assert result.audit == [{"row": None, "component": "narrow",
                             "rule": "fit_skipped_narrow_range",
                             "action": "kept"}]


def test_curate_fits_once_per_component_and_usable_source(monkeypatch):
    """Pins the windows curate fits, in one batched call: one robust fit per
    component with enough points, then one per usable source (>= 3 points
    over more than 1 K) of a multi-source component."""
    truth = AntoineParams(10.0, 2500.0, -60.0)
    temps = np.linspace(310.0, 400.0, 4)
    points = curve_points("multi", "CCO", truth, temps, source="a")
    points += curve_points("multi", "CCO", truth, temps + 2.0, source="b")
    points += curve_points("multi", "CCO", truth, temps[:2] + 1.0, source="c")
    points += curve_points("multi", "CCO", truth, [330.0, 330.4, 330.8],
                           source="narrow")
    points += curve_points("single", "CCC", truth, np.linspace(300, 380, 6),
                           source="a")
    points += curve_points("short", "CCCC", truth, temps)
    calls = []
    real_fits = dataio.robust_antoine_fits

    def counting(windows):
        calls.append([len(t) for t, _ in windows])
        return real_fits(windows)

    monkeypatch.setattr(dataio, "robust_antoine_fits", counting)
    result = curate(VpDataset(points))
    # multi: its 13 points, single: its 6; then multi's sources a and b.
    assert calls == [[13, 6, 4, 4]]
    assert len(result.dataset) == len(points)


def test_curate_runs_one_lm_loop(monkeypatch):
    """Every component fit and every per-source fit of a curate share one
    ``_lm_solve`` loop."""
    ds, _ = synthetic_dataset(points_per_component=9)
    for i, pt in enumerate(ds.points):
        object.__setattr__(pt, "source", "ab"[i % 2])
    calls = []
    real_solve = dataio._lm_solve

    def counting(starts, *args):
        calls.append(len(starts))
        return real_solve(starts, *args)

    monkeypatch.setattr(dataio, "_lm_solve", counting)
    curate(ds)
    # One start for each component's window and each of its two sources'.
    assert calls == [3 * len(ds.components())]


# ---------------------------------------------------------------------- split

def test_small_molecules_always_train():
    points = []
    for comp, smi in (("methane", "C"), ("ethane", "CC"),
                      ("propane", "CCC"), ("butane", "CCCC")):
        points.append(VpPoint(comp, smi, 300.0, 1000.0))
    for n in range(5, 25):
        points.append(VpPoint(f"c{n}", "C" * n, 300.0, 1000.0))
    ds = VpDataset(points)
    for seed in (0, 1, 99):
        labeled = split(ds, seed)
        for comp in ("methane", "ethane", "propane", "butane"):
            assert labeled.split_label(comp) == "train"


def test_split_leaves_a_component_with_unparseable_smiles_unlabelled():
    points = [VpPoint("bad", "C(C", 300.0, 1000.0)]
    points += [VpPoint(f"c{n}", "C" * n, 300.0, 1000.0) for n in range(3, 8)]
    labeled = split(VpDataset(points), seed=0)
    assert "bad" not in labeled.splits
    assert labeled.split_label("bad") == "unassigned"
    assert set(labeled.splits) == {f"c{n}" for n in range(3, 8)}
    assert len(labeled) == len(points)


def test_split_leaves_a_component_with_a_count_too_long_to_read_unlabelled():
    # int() refuses more than 4,300 digits; the row is skipped, not fatal.
    points = [VpPoint("long", "[CH" + "9" * 5000 + "]C", 300.0, 1000.0)]
    points += [VpPoint(f"c{n}", "C" * n, 300.0, 1000.0) for n in range(3, 8)]
    labeled = split(VpDataset(points), seed=0)
    assert labeled.split_label("long") == "unassigned"
    assert set(labeled.splits) == {f"c{n}" for n in range(3, 8)}


def test_split_is_deterministic_and_partitioning():
    points = [VpPoint(f"c{n}", "C" * n, 300.0, 1000.0) for n in range(5, 45)]
    ds = VpDataset(points)
    a = split(ds, seed=7)
    b = split(ds, seed=7)
    assert a.splits == b.splits
    c = split(ds, seed=8)
    assert c.splits != a.splits
    labels = set(a.splits.values())
    assert labels <= {"train", "valid", "test"}
    counts = {label: list(a.splits.values()).count(label) for label in labels}
    assert counts["valid"] == 4 and counts["test"] == 4
    assert counts["train"] == 32
    assert sum(counts.values()) == 40


def test_split_ratio_tolerance():
    points = [VpPoint(f"c{n}", "C" * n, 300.0, 1000.0) for n in range(5, 42)]
    labeled = split(VpDataset(points), seed=3)
    n = 37
    counts = {}
    for comp in labeled.components():
        label = labeled.split_label(comp)
        counts[label] = counts.get(label, 0) + 1
    assert abs(counts["valid"] - 0.1 * n) <= 1
    assert abs(counts["test"] - 0.1 * n) <= 1


def test_split_rejects_bad_ratios():
    ds = VpDataset([VpPoint("a", "CCCCCC", 300.0, 1000.0)])
    for ratios in ((0.5, 0.2, 0.2), (0.5, 0.5), (0.25, 0.25, 0.25, 0.25),
                   (-0.5, 0.5, 1.0), (math.nan, 0.5, 0.5)):
        with pytest.raises(ValueError):
            split(ds, seed=0, ratios=ratios)


def test_read_splits_csv_names_missing_columns(tmp_path):
    path = tmp_path / "splits.csv"
    path.write_text("component,label\na,train\n")
    with pytest.raises(ValueError, match="component_id, split"):
        read_splits_csv(path)


def test_split_file_roundtrip(tmp_path):
    points = [VpPoint(f"c{n}", "C" * n, 300.0, 1000.0) for n in range(3, 20)]
    labeled = split(VpDataset(points), seed=5)
    path = tmp_path / "splits.csv"
    write_splits_csv(labeled, path)
    assert read_splits_csv(path) == labeled.splits


@pytest.mark.parametrize("rows, message", [
    ("c2,Train\nc3\n", r"line 3 needs one component_id and one split label, "
                        r"got \['c3', None\]"),
    ("c2,Train\nc3,\n", "line 3 needs one component_id"),
    ("c2,Train\n,Train\n", "line 3 needs one component_id"),
    ("c2,Train,Valid\n", "line 2 needs one component_id"),
    ("c2,Train\nc3,test\nc2,test\n",
     "line 4 labels 'c2' 'test', but an earlier row labels it 'Train'"),
], ids=["no-label", "empty-label", "no-component", "extra-field",
        "second-label"])
def test_read_splits_csv_refuses_a_malformed_row(tmp_path, rows, message):
    # At 'c3' with no label, a split left the component out of every split.
    path = tmp_path / "splits.csv"
    path.write_text("component_id,split\n" + rows)
    with pytest.raises(ValueError, match=message):
        read_splits_csv(path)


def test_read_splits_csv_keeps_free_form_labels_and_repeated_rows(tmp_path):
    path = tmp_path / "splits.csv"
    path.write_text("component_id,split\nc2,Train\nc3,holdout 2\nc2,Train\n")
    assert read_splits_csv(path) == {"c2": "Train", "c3": "holdout 2"}


def test_read_splits_csv_reads_a_byte_order_mark(tmp_path):
    path = tmp_path / "splits.csv"
    path.write_bytes(b"\xef\xbb\xbfcomponent_id,split\r\na,train\r\n")
    assert read_splits_csv(path) == {"a": "train"}


def test_carbon_count():
    assert carbon_count(parse_smiles("CCO")) == 2
    assert carbon_count(parse_smiles("c1ccccc1")) == 6
    assert carbon_count(parse_smiles("O=C(O)C")) == 2
    assert carbon_count(parse_smiles("[NH4+]")) == 0
