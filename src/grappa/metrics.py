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
    return float(ape_i_array(pred_p, exp_p))


def ape_c(point_apes) -> float:
    """Component score: arithmetic mean of its point APEs."""
    arr = np.asarray(point_apes, dtype=float)
    if arr.size == 0:
        raise ValueError("component has no points")
    return float(arr.mean())


def ape_i_array(pred_p: np.ndarray, exp_p: np.ndarray) -> np.ndarray:
    """Absolute percentage error of every point, elementwise."""
    return np.abs(pred_p - exp_p) / exp_p * 100.0


def _groups(keys) -> dict:
    """Each distinct key, in order of first appearance, mapped to its row
    indices in input order."""
    first: dict = {}
    codes = np.array([first.setdefault(k, len(first)) for k in keys], dtype=int)
    rows = np.argsort(codes, kind="stable")
    return dict(zip(first, np.split(rows, np.cumsum(np.bincount(codes))[:-1])))


@dataclass(frozen=True)
class _Columns:
    """The evaluated points as arrays, and their components: each one's
    rows, point count and score, in order of first appearance."""

    p_pred: np.ndarray
    p_exp: np.ndarray
    temperature: np.ndarray
    ape: np.ndarray
    groups: dict[str, np.ndarray]
    sizes: np.ndarray
    scores: np.ndarray


def _columns(points: list[PredPoint]) -> _Columns:
    if not points:
        raise ValueError("empty evaluation set")
    p_pred = np.array([pt.p_pred_pa for pt in points])
    p_exp = np.array([pt.p_exp_pa for pt in points])
    apes = ape_i_array(p_pred, p_exp)
    groups = _groups(pt.component_id for pt in points)
    return _Columns(p_pred, p_exp, np.array([pt.temperature_k for pt in points]),
                    apes, groups, np.array([r.size for r in groups.values()]),
                    np.array([ape_c(apes[r]) for r in groups.values()]))


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
    cols = _columns(points)
    diff = np.log(cols.p_pred / PA_PER_KPA) - np.log(cols.p_exp / PA_PER_KPA)
    eligible = {k: cols.scores[cols.sizes >= k] for k in min_k_filters}
    return EvalReport(
        mae=float(np.abs(diff).mean()),
        mse=float((diff ** 2).mean()),
        mape_i=float(np.median(cols.ape)),
        mape_c={k: float(np.median(s)) if s.size else float("nan")
                for k, s in eligible.items()},
        n_points=len(points),
        n_components={k: s.size for k, s in eligible.items()},
    )


# ----------------------------------------------------------------- bin tables

def _stats_row(sample: np.ndarray) -> dict:
    """Quartiles and 1.5-IQR whiskers of a bin; all None for an empty bin."""
    if not sample.size:
        return dict.fromkeys(("q1", "median", "q3", "whisker_lo", "whisker_hi"))
    q1, med, q3 = (float(q) for q in np.percentile(sample, (25, 50, 75)))
    iqr = q3 - q1
    inside = sample[(sample >= q1 - 1.5 * iqr) & (sample <= q3 + 1.5 * iqr)]
    return {"q1": q1, "median": med, "q3": q3,
            "whisker_lo": float(inside.min()) if inside.size else q1,
            "whisker_hi": float(inside.max()) if inside.size else q3}


def _bin_row(key: dict, mask: np.ndarray, scores: np.ndarray) -> dict:
    return {**key, "count": int(mask.sum()), "pct": 100.0 * mask.sum() / mask.size,
            **_stats_row(scores[mask])}


def _interval_table(values: np.ndarray, scores: np.ndarray, edges) -> list[dict]:
    edges = list(edges)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        below = (values <= hi) if hi == edges[-1] else (values < hi)
        rows.append(_bin_row({"lo": lo, "hi": hi}, (values >= lo) & below, scores))
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
    cols = _columns(points)
    weights = np.array([points[r[0]].mol_weight for r in cols.groups.values()])
    return BinnedReports(
        pressure=_interval_table(cols.p_exp, cols.ape, pressure_edges_pa),
        temperature=_interval_table(cols.temperature, cols.ape, temperature_edges_k),
        mol_weight=_interval_table(weights, cols.scores, mol_weight_edges),
        min_points=[_bin_row({"min_points": level}, cols.sizes >= level, cols.scores)
                    for level in min_points_levels],
    )


def hexbin_grid(points: list[PredPoint], t_step_k: float = 25.0,
                ln_p_step: float = 1.0,
                clip_percent: float = HEXBIN_CLIP_PERCENT) -> list[dict]:
    """Median point APE on a temperature x ln-pressure grid, clipped for
    display; rows are (T_center, lnp_center, MAPE_i, count)."""
    if not points:
        return []
    cols = _columns(points)
    t_idx = np.floor(cols.temperature / t_step_k).astype(int)
    p_idx = np.floor(np.log(cols.p_exp / PA_PER_KPA) / ln_p_step).astype(int)
    cells = _groups(zip(t_idx.tolist(), p_idx.tolist()))
    return [{"T_center": (ti + 0.5) * t_step_k,
             "lnp_center": (pi + 0.5) * ln_p_step,
             "MAPE_i": min(float(np.median(cols.ape[r])), clip_percent),
             "count": r.size}
            for (ti, pi), r in sorted(cells.items())]


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
    if not points:
        return BoilingReport([], float("nan"), float("nan"), 0)
    cols = _columns(points)
    rows = []
    lo_pa, hi_pa = (bound * PA_PER_KPA for bound in window_kpa)
    for component, idx in sorted(cols.groups.items()):
        if idx.size < min_points or component not in params_by_component:
            continue
        near = idx[(cols.p_exp[idx] >= lo_pa) & (cols.p_exp[idx] <= hi_pa)]
        if not near.size:
            continue
        p_mean = float(np.mean(cols.p_exp[near]))
        t_mean = float(np.mean(cols.temperature[near]))
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
