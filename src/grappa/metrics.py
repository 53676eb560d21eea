"""Error metrics and the binned evaluation tables.

MAE/MSE work on the model's ln(p/kPa), so a pressure that underflows to
0 Pa still scores finitely; percentage errors work on the pressures
themselves. Dataset-level scores use medians (even-length samples take the
mean of the two central order statistics, numpy's convention).

Every report reads one :class:`PredictedPoints` table: ``predict_dataset``
builds it once from the model's arrays, with each point's APE and each
component's rows, point count and score, and ``grappa report`` filters it
to the components with enough points through ``select``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import compress

import numpy as np

from .antoine import PA_PER_KPA, AntoineParams, boiling_temperature
from .dataio import PRESSURE_RANGE_PA, TEMPERATURE_RANGE_K

MIN_K_FILTERS = (1, 2, 5)
# Decade edges in Pa over the curated pressure window.
PRESSURE_EDGES_PA = tuple(10.0 ** k for k in range(
    round(math.log10(PRESSURE_RANGE_PA[0])),
    round(math.log10(PRESSURE_RANGE_PA[1])) + 1))
# 50 K intervals over the curated temperature window.
TEMPERATURE_EDGES_K = tuple(float(t) for t in range(
    int(TEMPERATURE_RANGE_K[0]), int(TEMPERATURE_RANGE_K[1]) + 1, 50))
# Molecular-weight intervals, read off the paper's figure.
MOL_WEIGHT_EDGES = (0.0, 100.0, 150.0, 200.0, 250.0, 300.0, 400.0, float("inf"))
MIN_POINTS_LEVELS = (1, 2, 3, 5, 10)
HEXBIN_T_STEP_K = 25.0
HEXBIN_LN_P_STEP = 1.0
HEXBIN_CLIP_PERCENT = 50.0
BOILING_WINDOW_KPA = (99.0, 102.0)
BOILING_MIN_POINTS = 2


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


@dataclass(frozen=True, eq=False)
class PredictedPoints:
    """The evaluated points as columns of one length (``ln_p_pred_kpa`` left
    out is the log of ``p_pred_pa``). Construction derives every point's
    ``ape`` and each component's rows in input order (``groups``), point
    count (``sizes``) and score (``scores``), by first appearance."""

    component_id: np.ndarray
    temperature_k: np.ndarray
    p_exp_pa: np.ndarray
    p_pred_pa: np.ndarray
    mol_weight: np.ndarray
    ln_p_pred_kpa: np.ndarray | None = None

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("component_id", np.asarray(self.component_id, dtype=object))
        for name in ("temperature_k", "p_exp_pa", "p_pred_pa", "mol_weight"):
            put(name, np.asarray(getattr(self, name), dtype=float))
        put("ln_p_pred_kpa", np.log(self.p_pred_pa / PA_PER_KPA)
            if self.ln_p_pred_kpa is None
            else np.asarray(self.ln_p_pred_kpa, dtype=float))
        if {getattr(self, f.name).shape for f in fields(self)} != {(len(self),)}:
            raise ValueError("predicted-point columns must be vectors of one length")
        put("ape", ape_i_array(self.p_pred_pa, self.p_exp_pa))
        put("groups", _groups(self.component_id))
        put("sizes", np.array([r.size for r in self.groups.values()], dtype=int))
        put("scores", np.array([ape_c(self.ape[r]) for r in self.groups.values()]))

    def __len__(self) -> int:
        return self.component_id.size

    def select(self, component_mask) -> "PredictedPoints":
        """The points, in input order, of the components where
        ``component_mask`` (one entry per component of ``groups``) is true."""
        if len(component_mask) != self.sizes.size:
            raise ValueError("select needs one mask entry per component")
        chosen = compress(self.groups.values(), component_mask)
        rows = np.sort(np.concatenate([np.empty(0, dtype=int), *chosen]))
        return PredictedPoints(*(getattr(self, f.name)[rows] for f in fields(self)))


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


def summarize(points: PredictedPoints) -> EvalReport:
    """Dataset scores: MAE/MSE on ln(p/kPa), median point APE, and median
    component APE over components with at least K points, K in MIN_K_FILTERS."""
    if not points:
        raise ValueError("empty evaluation set")
    diff = points.ln_p_pred_kpa - np.log(points.p_exp_pa / PA_PER_KPA)
    eligible = {k: points.scores[points.sizes >= k] for k in MIN_K_FILTERS}
    return EvalReport(
        mae=float(np.abs(diff).mean()),
        mse=float((diff ** 2).mean()),
        mape_i=float(np.median(points.ape)),
        mape_c={k: float(np.median(s)) if s.size else float("nan")
                for k, s in eligible.items()},
        n_points=len(points),
        n_components={k: s.size for k, s in eligible.items()},
    )


# ----------------------------------------------------------------- bin tables

def _quartiles(sample: np.ndarray) -> np.ndarray:
    """``np.percentile``'s linear quartiles of a non-empty sample, except
    where an infinite value (a point off its curve's valid branch) makes it
    compute ``inf * 0`` or ``inf - inf``: there a zero interpolation weight
    gives the order statistic itself, and interpolating toward an infinite
    value gives inf. Finite samples keep numpy's bytes."""
    with np.errstate(invalid="ignore"):
        quartiles = np.percentile(sample, (25, 50, 75))
    lost = np.isnan(quartiles)
    if lost.any():
        at = (sample.size - 1) * np.array([0.25, 0.5, 0.75])
        exact = np.sort(sample)[at.astype(int)]
        quartiles[lost] = np.where(at % 1 == 0, exact, np.inf)[lost]
    return quartiles


def _stats_row(sample: np.ndarray) -> dict:
    """Quartiles and 1.5-IQR whiskers of a bin; all None for an empty bin."""
    if not sample.size:
        return dict.fromkeys(("q1", "median", "q3", "whisker_lo", "whisker_hi"))
    q1, med, q3 = (float(q) for q in _quartiles(sample))
    iqr = q3 - q1
    inside = sample[(sample >= q1 - 1.5 * iqr) & (sample <= q3 + 1.5 * iqr)]
    return {"q1": q1, "median": med, "q3": q3,
            "whisker_lo": float(inside.min()) if inside.size else q1,
            "whisker_hi": float(inside.max()) if inside.size else q3}


def _bin_row(key: dict, mask: np.ndarray, scores: np.ndarray) -> dict:
    """A bin's count, its share of the table (None for an empty table) and
    :func:`_stats_row`."""
    return {**key, "count": int(mask.sum()),
            "pct": 100.0 * mask.sum() / mask.size if mask.size else None,
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


def binned_reports(points: PredictedPoints) -> BinnedReports:
    """Boxplot-style tables: point APE by pressure and temperature interval,
    component APE by molecular weight and by minimum point count. With no
    points every bin counts 0 and its share and statistics are None."""
    weights = points.mol_weight[[r[0] for r in points.groups.values()]]
    return BinnedReports(
        pressure=_interval_table(points.p_exp_pa, points.ape, PRESSURE_EDGES_PA),
        temperature=_interval_table(points.temperature_k, points.ape,
                                    TEMPERATURE_EDGES_K),
        mol_weight=_interval_table(weights, points.scores, MOL_WEIGHT_EDGES),
        min_points=[_bin_row({"min_points": level}, points.sizes >= level,
                             points.scores)
                    for level in MIN_POINTS_LEVELS],
    )


def hexbin_grid(points: PredictedPoints) -> list[dict]:
    """Median point APE on a temperature x ln-pressure grid, clipped for
    display; rows are (T_center, lnp_center, MAPE_i, count)."""
    t_idx = np.floor(points.temperature_k / HEXBIN_T_STEP_K).astype(int)
    p_idx = np.floor(np.log(points.p_exp_pa / PA_PER_KPA)
                     / HEXBIN_LN_P_STEP).astype(int)
    cells = _groups(zip(t_idx.tolist(), p_idx.tolist()))
    return [{"T_center": (ti + 0.5) * HEXBIN_T_STEP_K,
             "lnp_center": (pi + 0.5) * HEXBIN_LN_P_STEP,
             "MAPE_i": min(float(np.median(points.ape[r])), HEXBIN_CLIP_PERCENT),
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
                       points: PredictedPoints) -> BoilingReport:
    """Normal-boiling-point check: take each component's points inside
    :data:`BOILING_WINDOW_KPA`, average duplicates, and invert the predicted
    curve at the mean pressure."""
    rows = []
    lo_pa, hi_pa = (bound * PA_PER_KPA for bound in BOILING_WINDOW_KPA)
    p_exp = points.p_exp_pa
    for component, idx in sorted(points.groups.items()):
        if idx.size < BOILING_MIN_POINTS or component not in params_by_component:
            continue
        near = idx[(p_exp[idx] >= lo_pa) & (p_exp[idx] <= hi_pa)]
        if not near.size:
            continue
        p_mean = float(np.mean(p_exp[near]))
        t_mean = float(np.mean(points.temperature_k[near]))
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
