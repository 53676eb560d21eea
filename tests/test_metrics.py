import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grappa.antoine import AntoineDomainError, AntoineParams
from grappa.dataio import PRESSURE_RANGE_PA, TEMPERATURE_RANGE_K
from grappa.metrics import (
    MOL_WEIGHT_EDGES,
    PRESSURE_EDGES_PA,
    TEMPERATURE_EDGES_K,
    PredictedPoints,
    ape_c,
    ape_i,
    binned_reports,
    boiling_point_eval,
    hexbin_grid,
    summarize,
)

from _oracles import (loop_binned_reports, loop_boiling_point_eval,
                      loop_hexbin_grid, loop_scores, points_table,
                      sorted_percentile)


def mk(component, p_exp, p_pred, t=300.0, mw=100.0):
    """One hand-written row for :func:`points_table`."""
    return component, t, p_exp, p_pred, mw


def test_the_bin_edges_span_the_curated_window():
    assert TEMPERATURE_EDGES_K == (250.0, 300.0, 350.0, 400.0, 450.0, 500.0,
                                   550.0, 600.0)
    assert PRESSURE_EDGES_PA == (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)
    assert all(type(edge) is float
               for edge in TEMPERATURE_EDGES_K + PRESSURE_EDGES_PA)
    assert (TEMPERATURE_EDGES_K[0], TEMPERATURE_EDGES_K[-1]) == TEMPERATURE_RANGE_K
    assert (PRESSURE_EDGES_PA[0], PRESSURE_EDGES_PA[-1]) == PRESSURE_RANGE_PA


# --------------------------------------------------------------- point scores

def test_ape_i_hand_cases():
    assert ape_i(110.0, 100.0) == pytest.approx(10.0)
    assert ape_i(100.0, 100.0) == 0.0
    assert ape_i(50.0, 100.0) == pytest.approx(50.0)


def test_ape_i_rejects_nonpositive_reference():
    with pytest.raises(ValueError):
        ape_i(10.0, 0.0)


def test_ape_c_hand_cases():
    assert ape_c([10.0, 20.0]) == pytest.approx(15.0)
    assert ape_c([7.5]) == pytest.approx(7.5)
    assert ape_c([0.0, 0.0, 30.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        ape_c([])


# ------------------------------------------------------------------ the table

def test_table_derives_components_in_order_of_first_appearance():
    rows = [mk("b", 100.0, 110.0), mk("a", 200.0, 260.0, t=310.0),
            mk("b", 400.0, 300.0, t=320.0), mk("c", 50.0, 50.0),
            mk("a", 100.0, 101.0, t=330.0)]
    points = points_table(rows)
    assert len(points) == 5
    assert list(points.groups) == ["b", "a", "c"]
    assert [r.tolist() for r in points.groups.values()] == [[0, 2], [1, 4], [3]]
    assert points.sizes.tolist() == [2, 2, 1]
    assert points.component_index.tolist() == [0, 1, 0, 2, 1]
    for i, (_, _, p_exp, p_pred, _) in enumerate(rows):
        assert points.ape[i] == ape_i(p_pred, p_exp)
    for score, component in zip(points.scores, points.groups):
        apes = [ape_i(p_pred, p_exp) for c, _, p_exp, p_pred, _ in rows
                if c == component]
        assert score == ape_c(apes)


def test_select_keeps_the_chosen_components_in_input_order():
    rows = [mk(f"c{i % 3}", 100.0 + i, 90.0 + 3 * i, t=280.0 + i, mw=50.0 * i)
            for i in range(9)]
    ln_p = np.linspace(-2.0, 2.0, 9)
    points = points_table(rows, ln_p_pred_kpa=ln_p)
    kept = points.select([True, False, True])
    want = [i for i, row in enumerate(rows) if row[0] != "c1"]
    assert kept.component_id.tolist() == [rows[i][0] for i in want]
    assert kept.temperature_k.tolist() == [rows[i][1] for i in want]
    assert kept.mol_weight.tolist() == [rows[i][4] for i in want]
    assert kept.ln_p_pred_kpa.tolist() == ln_p[want].tolist()
    assert list(kept.groups) == ["c0", "c2"]
    assert kept.scores.tolist() == points.scores[[0, 2]].tolist()
    alone = points_table([rows[i] for i in want], ln_p_pred_kpa=ln_p[want])
    assert repr(summarize(kept)) == repr(summarize(alone))
    none = points.select(np.zeros(3, dtype=bool))
    assert len(none) == 0 and none.groups == {}


def test_table_shape_errors():
    with pytest.raises(ValueError, match="one length"):
        PredictedPoints(["a", "a"], [300.0], [100.0, 100.0], [110.0, 110.0],
                        [0.0, 0.0])
    with pytest.raises(ValueError, match="one length"):
        PredictedPoints(["a"], [300.0], [100.0], [110.0], [0.0],
                        ln_p_pred_kpa=[0.1, 0.2])
    with pytest.raises(ValueError, match="one mask entry per component"):
        points_table([mk("a", 100.0, 110.0)]).select([True, False])


# ----------------------------------------------------------------- summarize

def test_perfect_predictions_zero_everywhere():
    points = [mk("a", 1000.0, 1000.0), mk("a", 2000.0, 2000.0),
              mk("b", 500.0, 500.0)]
    report = summarize(points_table(points))
    assert report.mae == 0.0 and report.mse == 0.0
    assert report.mape_i == 0.0
    assert report.mape_c[1] == 0.0


def test_mae_mse_work_on_ln_kpa():
    # Prediction off by a factor e: |delta ln p| = 1 regardless of units.
    points = [mk("a", 1000.0, 1000.0 * math.e)]
    report = summarize(points_table(points))
    assert report.mae == pytest.approx(1.0)
    assert report.mse == pytest.approx(1.0)


def test_mae_mse_stay_finite_when_a_pressure_underflows():
    # A curve far below the data: its pressure underflows to 0 Pa on the
    # colder points, but its ln p stays finite.
    temps = np.array([300.0, 350.0, 400.0])
    ln_p = 5.0 - 6000.0 / (-299.0 + temps)
    p_pred = np.exp(ln_p) * 1000.0
    assert p_pred[0] == 0.0
    points = points_table([("a", t, 1000.0, p, 100.0)
                           for t, p in zip(temps.tolist(), p_pred.tolist())],
                          ln_p_pred_kpa=ln_p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = summarize(points)
    assert report.mae == pytest.approx(np.abs(ln_p).mean())
    assert report.mse == pytest.approx((ln_p ** 2).mean())
    assert report.mape_i == 100.0


def test_point_ln_p_defaults_to_log_of_pressure():
    points = points_table([mk("a", 1000.0, 1000.0 * math.e)])
    assert points.ln_p_pred_kpa[0] == pytest.approx(1.0)


def test_median_of_two_components():
    points = [mk("a", 100.0, 110.0), mk("b", 100.0, 130.0)]
    report = summarize(points_table(points))
    assert report.mape_c[1] == pytest.approx((10.0 + 30.0) / 2)


def test_min_k_filters_shrink_component_sets():
    points = [mk("a", 100.0, 110.0)]
    points += [mk("b", 100.0, 120.0, t=300.0 + i) for i in range(2)]
    points += [mk("c", 100.0, 90.0, t=300.0 + i) for i in range(5)]
    report = summarize(points_table(points))
    assert report.n_components[1] == 3
    assert report.n_components[2] == 2
    assert report.n_components[5] == 1
    assert report.n_components[1] >= report.n_components[2] >= report.n_components[5]
    assert report.mape_c[5] == pytest.approx(10.0)


def test_median_is_robust_to_one_wild_point():
    base = [mk(f"c{i}", 100.0, 100.0 + i) for i in range(1, 10)]
    report_before = summarize(points_table(base))
    wild = base + [mk("wild", 100.0, 1e8)]
    report_after = summarize(points_table(wild))
    apes = sorted(i for i in range(1, 10))
    # One extra huge value moves the median by at most one order statistic.
    assert report_after.mape_i <= apes[len(apes) // 2] + 1
    assert report_after.mape_i >= report_before.mape_i


def test_reordering_invariance():
    rng = np.random.default_rng(0)
    points = [mk(f"c{i % 4}", 100.0 + i, 90.0 + 2 * i, t=280.0 + i)
              for i in range(12)]
    report = summarize(points_table(points))
    for _ in range(4):
        shuffled = [points[i] for i in rng.permutation(len(points))]
        other = summarize(points_table(shuffled))
        assert other.mape_i == report.mape_i
        assert other.mae == report.mae
        for k, value in report.mape_c.items():
            if math.isnan(value):
                assert math.isnan(other.mape_c[k])
            else:
                assert other.mape_c[k] == value


def test_mae_squared_below_mse():
    rng = np.random.default_rng(1)
    points = [mk("a", 1000.0, float(1000.0 * np.exp(rng.normal())),
                 t=280.0 + i) for i in range(20)]
    report = summarize(points_table(points))
    assert report.mae ** 2 <= report.mse + 1e-12


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(points_table([]))


# -------------------------------------------------------------------- binning

def _row_from(rows, lo):
    return next(row for row in rows if row["lo"] == lo)


def test_single_bin_holds_everything():
    # All points sit in the 100-1000 Pa decade and the 300-350 K interval.
    points = [mk("a", 150.0, 180.0, t=300.0 + i) for i in range(10)]
    reports = binned_reports(points_table(points))
    for rows, lo in ((reports.pressure, 100.0), (reports.temperature, 300.0)):
        assert sum(row["count"] for row in rows) == _row_from(rows, lo)["count"] == 10
    row = _row_from(reports.pressure, 100.0)
    assert row["pct"] == pytest.approx(100.0)
    assert row["median"] == pytest.approx(20.0)


def test_bin_percentages_sum_to_100():
    rng = np.random.default_rng(2)
    points = [mk("a", float(10 ** rng.uniform(0.5, 6.5)), 120.0,
                 t=float(rng.uniform(255, 595))) for _ in range(60)]
    reports = binned_reports(points_table(points))
    assert sum(r["pct"] for r in reports.pressure) == pytest.approx(100.0)
    assert sum(r["pct"] for r in reports.temperature) == pytest.approx(100.0)


def test_quartiles_match_sort_based_oracle():
    rng = np.random.default_rng(3)
    for trial in range(100):
        sample = rng.uniform(0, 50, size=rng.integers(2, 30))
        points = [mk("a", 100.0, 100.0 * (1 + s / 100.0), t=300.0)
                  for s in sample]
        row = _row_from(binned_reports(points_table(points)).pressure, 100.0)
        assert row["q1"] == pytest.approx(sorted_percentile(sample, 25), abs=1e-9)
        assert row["median"] == pytest.approx(sorted_percentile(sample, 50), abs=1e-9)
        assert row["q3"] == pytest.approx(sorted_percentile(sample, 75), abs=1e-9)


def test_an_infinite_ape_reads_inf_not_nan_in_the_quartiles():
    # Component a's third point is off its curve's valid branch.
    points = [mk("a", 100.0, p) for p in (105.0, 110.0, math.inf)]
    points += [mk("b", 5000.0, p, t=310.0 + i)
               for i, p in enumerate((6000.0, 6500.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = binned_reports(points_table(points))
    row = _row_from(reports.pressure, 100.0)
    assert (row["q1"], row["median"], row["q3"]) == (7.5, 10.0, math.inf)
    assert (row["whisker_lo"], row["whisker_hi"]) == (5.0, math.inf)
    # A finite bin keeps numpy's quartiles, byte for byte.
    row = _row_from(reports.pressure, 1000.0)
    assert [row[k] for k in ("q1", "median", "q3")] \
        == np.percentile([20.0, 30.0], (25, 50, 75)).tolist()
    q3 = {row["min_points"]: row["q3"] for row in reports.min_points}
    assert q3 == {1: math.inf, 2: math.inf, 3: math.inf, 5: None, 10: None}
    medians = {row["min_points"]: row["median"] for row in reports.min_points}
    assert medians == {1: math.inf, 2: math.inf, 3: math.inf, 5: None,
                       10: None}


def test_whiskers_follow_iqr_fences():
    sample = [1.0, 2.0, 3.0, 4.0, 100.0]  # 100 is outside the upper fence
    points = [mk("a", 100.0, 100.0 * (1 + s / 100.0), t=300.0) for s in sample]
    row = _row_from(binned_reports(points_table(points)).pressure, 100.0)
    assert row["whisker_hi"] == pytest.approx(4.0)
    assert row["whisker_lo"] == pytest.approx(1.0)


def test_min_points_rows_are_cumulative():
    points = [mk("a", 100.0, 110.0)]
    points += [mk("b", 100.0, 120.0, t=300.0 + i) for i in range(3)]
    points += [mk("c", 100.0, 130.0, t=300.0 + i) for i in range(10)]
    reports = binned_reports(points_table(points))
    counts = {row["min_points"]: row["count"] for row in reports.min_points}
    assert counts[1] == 3 and counts[2] == 2 and counts[3] == 2
    assert counts[5] == 1 and counts[10] == 1


def test_mol_weight_table_groups_components():
    points = [mk("light", 100.0, 120.0, mw=80.0),
              mk("heavy", 100.0, 150.0, mw=320.0)]
    # 80 falls in [0, 100) and 320 in [300, 400).
    reports = binned_reports(points_table(points))
    assert [row["count"] for row in reports.mol_weight] == [1, 0, 0, 0, 0, 1, 0]


def test_hexbin_grid_cells():
    points = [mk("a", 1000.0, 1100.0, t=260.0),
              mk("a", 1000.0, 1100.0, t=262.0),
              mk("b", 1000.0, 5000.0, t=400.0)]
    rows = hexbin_grid(points_table(points))
    assert len(rows) == 2
    first = rows[0]
    assert first["count"] == 2
    assert first["MAPE_i"] == pytest.approx(10.0)
    assert set(first) == {"T_center", "lnp_center", "MAPE_i", "count"}
    # 400% error clips at the display ceiling.
    assert rows[1]["MAPE_i"] == pytest.approx(50.0)


def test_hexbin_empty():
    assert hexbin_grid(points_table([])) == []


# ------------------------------------------------------------- boiling points

def test_boiling_eval_window_and_averaging():
    params = {"a": AntoineParams(10.0, 2000.0, -50.0)}
    t_b = 2000.0 / (10.0 - math.log(100.0)) + 50.0  # exact at 100 kPa
    points = [
        mk("a", 100_000.0, 1.0, t=t_b - 1.0),
        mk("a", 100_000.0, 1.0, t=t_b + 1.0),
        mk("a", 5_000.0, 1.0, t=250.0),  # outside the window
    ]
    report = boiling_point_eval(params, points_table(points))
    assert report.n_components == 1
    row = report.rows[0]
    assert row["t_exp_k"] == pytest.approx(t_b)
    assert row["t_pred_k"] == pytest.approx(t_b, abs=1e-9)
    assert report.mae_k == pytest.approx(0.0, abs=1e-9)


def test_boiling_eval_skips_single_point_components():
    params = {"a": AntoineParams(10.0, 2000.0, -50.0)}
    points = [mk("a", 100_000.0, 1.0, t=400.0)]
    report = boiling_point_eval(params, points_table(points))
    assert report.n_components == 0
    assert math.isnan(report.mae_k)


def test_boiling_eval_requires_window_points():
    params = {"a": AntoineParams(10.0, 2000.0, -50.0)}
    points = [mk("a", 5000.0, 1.0, t=300.0), mk("a", 6000.0, 1.0, t=310.0)]
    report = boiling_point_eval(params, points_table(points))
    assert report.rows == []


# ------------------------------------------------ against the per-bin loops

COMPONENTS = "abcde"
# Point APEs, ties and an infinite one (a point off its curve's branch)
# among them; a NaN one loses its bin's quartiles in both.
APES = st.one_of(st.sampled_from([0.0, 10.0, 25.0, 100.0, math.inf, math.nan]),
                 st.floats(0.0, 1e3))
TEMPERATURES = st.one_of(st.sampled_from(TEMPERATURE_EDGES_K),
                         st.floats(200.0, 700.0))
# Every decade edge, the boiling window and points outside the edges.
PRESSURES = st.one_of(st.sampled_from(PRESSURE_EDGES_PA),
                      st.sampled_from([99e3, 101.325e3, 102e3]),
                      st.floats(0.1, 1e8))
WEIGHTS = st.one_of(st.sampled_from(MOL_WEIGHT_EDGES), st.floats(1.0, 600.0))
PARAMS = st.builds(AntoineParams, st.floats(5.0, 20.0), st.floats(1500.0, 6000.0),
                   st.floats(-300.0, 0.0))
# A = 4 lies below ln(99 kPa), so the curve has no boiling point in the
# boiling window.
NO_BOILING = st.just(AntoineParams(4.0, 2000.0, -50.0))


@st.composite
def evaluated(draw):
    """A table of up to 40 points over five components, and parameters for
    some of the components."""
    weight = {c: draw(WEIGHTS) for c in COMPONENTS}
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        component = draw(st.sampled_from(COMPONENTS))
        p_exp = draw(PRESSURES)
        p_pred = p_exp * (1.0 + draw(APES) / 100.0)
        rows.append((component, draw(TEMPERATURES), p_exp, p_pred,
                     weight[component]))
    with np.errstate(all="ignore"):
        points = points_table(rows)
    # About one component in four gets a curve without a boiling point.
    params = {c: draw(st.one_of(PARAMS, NO_BOILING)) if draw(st.booleans())
              else draw(PARAMS)
              for c in draw(st.sets(st.sampled_from(COMPONENTS)))}
    return points, params


def bits(value):
    """A report with every float as its bytes, so NaN and -0.0 compare."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [bits(v) for v in value]
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def outcome(report, *args):
    """The report as :func:`bits`, or the error it raised."""
    try:
        result = report(*args)
    except AntoineDomainError as err:
        return str(err)
    return bits(result if isinstance(result, (dict, list)) else result.to_dict())


@settings(max_examples=300, deadline=None)
@given(evaluated())
@example((points_table([]), {}))
@example((points_table([mk("a", 1e7, 2e7, t=600.0, mw=math.inf)]), {}))
def test_sorted_tables_equal_the_per_bin_loops(case):
    points, params = case
    assert points.scores.tobytes() == loop_scores(points).tobytes()
    assert bits(binned_reports(points).to_dict()) \
        == bits(loop_binned_reports(points))
    assert bits(hexbin_grid(points)) == bits(loop_hexbin_grid(points))
    assert outcome(boiling_point_eval, params, points) \
        == outcome(loop_boiling_point_eval, params, points)
