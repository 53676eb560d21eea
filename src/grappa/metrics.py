"""Error metrics and the binned evaluation tables.

MAE/MSE work on ln(p/kPa); percentage errors work on the pressures
themselves. Dataset-level scores use medians (even-length samples take the
mean of the two central order statistics, numpy's convention).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .antoine import PA_PER_KPA, AntoineParams, boiling_temperature

DEFAULT_MIN_K_FILTERS = (1, 2, 5)
# Decade edges in Pa over the curated pressure window.
DEFAULT_PRESSURE_EDGES_PA = tuple(10.0 ** k for k in range(0, 8))
# 50 K intervals over the curated temperature window.
DEFAULT_TEMPERATURE_EDGES_K = tuple(float(t) for t in range(250, 650, 50))
# Molecular-weight intervals; figure-derived defaults, override as needed.
DEFAULT_MOL_WEIGHT_EDGES = (0.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0,
                            float("inf"))
DEFAULT_MIN_POINTS_LEVELS = (1, 2, 3, 5, 10)
HEXBIN_CLIP_PERCENT = 50.0


@dataclass(frozen=True)
class PredPoint:
    """One evaluated measurement: experiment vs. model."""

    component_id: str
    temperature_k: float
    p_exp_pa: float
    p_pred_pa: float
    mol_weight: float = 0.0


def ape_i(pred_p, exp_p) -> float:
    """Absolute percentage error of a single point."""
    if exp_p <= 0:
        raise ValueError("experimental pressure must be positive")
    return abs(pred_p - exp_p) / exp_p * 100.0


def ape_c(point_apes) -> float:
    """Component score: arithmetic mean of its point APEs."""
    arr = np.asarray(point_apes, dtype=float)
    if arr.size == 0:
        raise ValueError("component has no points")
    return float(arr.mean())


def ape_i_array(pred_p: np.ndarray, exp_p: np.ndarray) -> np.ndarray:
    """Absolute percentage error of every point, elementwise."""
    return np.abs(pred_p - exp_p) / exp_p * 100.0


def _ape_array(points: list[PredPoint]) -> np.ndarray:
    return ape_i_array(np.array([pt.p_pred_pa for pt in points]),
                       np.array([pt.p_exp_pa for pt in points]))


def _component_apes(points: list[PredPoint]) -> dict[str, np.ndarray]:
    apes = _ape_array(points)
    groups: dict[str, list[float]] = {}
    for pt, value in zip(points, apes):
        groups.setdefault(pt.component_id, []).append(value)
    return {c: np.asarray(v) for c, v in groups.items()}


@dataclass
class EvalReport:
    mae: float
    mse: float
    mape_i: float
    mape_c: dict[int, float]  # min-K filter -> median component APE
    n_points: int
    n_components: dict[int, int]  # min-K filter -> component count

    def to_dict(self) -> dict:
        data = asdict(self)
        data["mape_c"] = {str(k): v for k, v in self.mape_c.items()}
        data["n_components"] = {str(k): v for k, v in self.n_components.items()}
        return data


def summarize(points: list[PredPoint],
              min_k_filters=DEFAULT_MIN_K_FILTERS) -> EvalReport:
    """Dataset scores: MAE/MSE on ln(p/kPa), median point APE, and median
    component APE restricted to components with at least K points."""
    if not points:
        raise ValueError("empty evaluation set")
    ln_pred = np.log(np.array([pt.p_pred_pa for pt in points]) / PA_PER_KPA)
    ln_exp = np.log(np.array([pt.p_exp_pa for pt in points]) / PA_PER_KPA)
    diff = ln_pred - ln_exp
    apes = _ape_array(points)
    comp = _component_apes(points)
    comp_scores = {c: float(v.mean()) for c, v in comp.items()}
    mape_c = {}
    n_components = {}
    for k in min_k_filters:
        eligible = [score for c, score in comp_scores.items()
                    if len(comp[c]) >= k]
        n_components[k] = len(eligible)
        mape_c[k] = float(np.median(eligible)) if eligible else float("nan")
    return EvalReport(
        mae=float(np.abs(diff).mean()),
        mse=float((diff ** 2).mean()),
        mape_i=float(np.median(apes)),
        mape_c=mape_c,
        n_points=len(points),
        n_components=n_components,
    )


# ----------------------------------------------------------------- bin tables

def _quartile_stats(sample: np.ndarray) -> dict:
    q1, med, q3 = (float(np.percentile(sample, q)) for q in (25, 50, 75))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = sample[(sample >= lo_fence) & (sample <= hi_fence)]
    whisker_lo = float(inside.min()) if inside.size else q1
    whisker_hi = float(inside.max()) if inside.size else q3
    return {"q1": q1, "median": med, "q3": q3,
            "whisker_lo": whisker_lo, "whisker_hi": whisker_hi}


def _interval_table(values: np.ndarray, scores: np.ndarray, edges) -> list[dict]:
    edges = list(edges)
    total = len(values)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        last = hi == edges[-1]
        mask = (values >= lo) & ((values <= hi) if last else (values < hi))
        sample = scores[mask]
        row = {"lo": lo, "hi": hi, "count": int(mask.sum()),
               "pct": 100.0 * mask.sum() / total if total else 0.0}
        if sample.size:
            row.update(_quartile_stats(sample))
        else:
            row.update({"q1": None, "median": None, "q3": None,
                        "whisker_lo": None, "whisker_hi": None})
        rows.append(row)
    return rows


@dataclass
class BinnedReports:
    pressure: list[dict]
    temperature: list[dict]
    mol_weight: list[dict]
    min_points: list[dict]

    def to_dict(self) -> dict:
        return asdict(self)


def binned_reports(points: list[PredPoint],
                   pressure_edges_pa=DEFAULT_PRESSURE_EDGES_PA,
                   temperature_edges_k=DEFAULT_TEMPERATURE_EDGES_K,
                   mol_weight_edges=DEFAULT_MOL_WEIGHT_EDGES,
                   min_points_levels=DEFAULT_MIN_POINTS_LEVELS) -> BinnedReports:
    """Boxplot-style tables: point APE by pressure and temperature interval,
    component APE by molecular weight and by minimum point count."""
    if not points:
        raise ValueError("empty evaluation set")
    apes = _ape_array(points)
    pressures = np.array([pt.p_exp_pa for pt in points])
    temps = np.array([pt.temperature_k for pt in points])

    comp = _component_apes(points)
    comp_scores = np.array([v.mean() for v in comp.values()])
    comp_sizes = np.array([len(v) for v in comp.values()])
    comp_weights = {}
    for pt in points:
        comp_weights.setdefault(pt.component_id, pt.mol_weight)
    weights = np.array([comp_weights[c] for c in comp])

    min_points_rows = []
    n_comp = len(comp)
    for level in min_points_levels:
        mask = comp_sizes >= level
        sample = comp_scores[mask]
        row = {"min_points": level, "count": int(mask.sum()),
               "pct": 100.0 * mask.sum() / n_comp if n_comp else 0.0}
        if sample.size:
            row.update(_quartile_stats(sample))
        else:
            row.update({"q1": None, "median": None, "q3": None,
                        "whisker_lo": None, "whisker_hi": None})
        min_points_rows.append(row)

    return BinnedReports(
        pressure=_interval_table(pressures, apes, pressure_edges_pa),
        temperature=_interval_table(temps, apes, temperature_edges_k),
        mol_weight=_interval_table(weights, comp_scores, mol_weight_edges),
        min_points=min_points_rows,
    )


def hexbin_grid(points: list[PredPoint], t_step_k: float = 25.0,
                ln_p_step: float = 1.0,
                clip_percent: float = HEXBIN_CLIP_PERCENT) -> list[dict]:
    """Median point APE on a temperature x ln-pressure grid, clipped for
    display; rows are (T_center, lnp_center, MAPE_i, count)."""
    if not points:
        return []
    temps = np.array([pt.temperature_k for pt in points])
    ln_p = np.log(np.array([pt.p_exp_pa for pt in points]) / PA_PER_KPA)
    apes = _ape_array(points)
    t_idx = np.floor(temps / t_step_k).astype(int)
    p_idx = np.floor(ln_p / ln_p_step).astype(int)
    cells: dict[tuple[int, int], list[float]] = {}
    for ti, pi, ape in zip(t_idx, p_idx, apes):
        cells.setdefault((ti, pi), []).append(ape)
    rows = []
    for (ti, pi), sample in sorted(cells.items()):
        rows.append({
            "T_center": (ti + 0.5) * t_step_k,
            "lnp_center": (pi + 0.5) * ln_p_step,
            "MAPE_i": min(float(np.median(sample)), clip_percent),
            "count": len(sample),
        })
    return rows


# ------------------------------------------------------------- boiling points

@dataclass
class BoilingReport:
    rows: list[dict]
    mae_k: float
    mean_rel_err_pct: float
    n_components: int

    def to_dict(self) -> dict:
        return asdict(self)


def boiling_point_eval(params_by_component: dict[str, AntoineParams],
                       points: list[PredPoint],
                       window_kpa=(99.0, 102.0),
                       min_points: int = 2) -> BoilingReport:
    """Normal-boiling-point check: take each component's points inside the
    ambient-pressure window, average duplicates, and invert the predicted
    curve at the mean pressure."""
    groups: dict[str, list[PredPoint]] = {}
    for pt in points:
        groups.setdefault(pt.component_id, []).append(pt)
    rows = []
    lo_pa, hi_pa = (bound * PA_PER_KPA for bound in window_kpa)
    for component, pts in sorted(groups.items()):
        if len(pts) < min_points or component not in params_by_component:
            continue
        near = [pt for pt in pts if lo_pa <= pt.p_exp_pa <= hi_pa]
        if not near:
            continue
        p_mean = float(np.mean([pt.p_exp_pa for pt in near]))
        t_mean = float(np.mean([pt.temperature_k for pt in near]))
        t_pred = boiling_temperature(params_by_component[component], p_mean)
        rows.append({
            "component_id": component,
            "p_mean_pa": p_mean,
            "t_exp_k": t_mean,
            "t_pred_k": t_pred,
            "abs_err_k": abs(t_pred - t_mean),
            "rel_err_pct": abs(t_pred - t_mean) / t_mean * 100.0,
        })
    if rows:
        mae = float(np.mean([r["abs_err_k"] for r in rows]))
        rel = float(np.mean([r["rel_err_pct"] for r in rows]))
    else:
        mae = rel = float("nan")
    return BoilingReport(rows, mae, rel, len(rows))
