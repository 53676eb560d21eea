"""Error metrics and the binned evaluation tables.

MAE/MSE work on the model's ln(p/kPa), so a pressure that underflows to
0 Pa still scores finitely; percentage errors work on the pressures
themselves. Dataset-level scores use medians (even-length samples take the
mean of the two central order statistics, numpy's convention).

Every report reads one :class:`PredictedPoints` table: ``predict_dataset``
builds it once from the model's arrays, with each point's APE and each
component's rows, point count and score, and ``grappa report`` filters it
to the components with enough points through ``select``. Each binned
table, the grid and the boiling-point check sort their points once and take
every bin's, cell's or component's statistics from its slice of the sorted
points, with the bits numpy's percentile, median and mean give each slice;
the check then inverts all its curves in one ``boiling_temperatures`` call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import compress

import numpy as np

from .antoine import PA_PER_KPA, AntoineParams, boiling_temperatures
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


def _runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of rows equal in every one of the
    sorted ``keys``."""
    size = keys[0].size
    new = np.ones(size, dtype=bool)
    new[1:] = np.any([key[1:] != key[:-1] for key in keys], axis=0)
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, size))


def _segment_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.mean`` of each of the consecutive segments of ``values``, whose
    lengths (each at least 1) are ``counts``, bit for bit: the segments of
    one length are averaged as the rows of one matrix, which numpy sums
    pairwise along each row as it sums one vector."""
    starts = np.cumsum(counts) - counts
    out = np.empty(counts.size)
    for n in np.unique(counts):
        at = counts == n
        out[at] = values[starts[at, None] + np.arange(n)].mean(axis=1)
    return out


@dataclass(frozen=True, eq=False)
class PredictedPoints:
    """The evaluated points as columns of one length (``ln_p_pred_kpa`` left
    out is the log of ``p_pred_pa``). Construction derives every point's
    ``ape`` and its component's place in order of first appearance
    (``component_index``), and, in that order, each component's rows in
    input order (``groups``), point count (``sizes``) and score
    (``scores``)."""

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
        first: dict = {}
        codes = np.array([first.setdefault(k, len(first))
                          for k in self.component_id.tolist()], dtype=int)
        rows = np.argsort(codes, kind="stable")
        put("component_index", codes)
        put("sizes", np.bincount(codes, minlength=len(first)))
        put("groups", dict(zip(first, np.split(rows, np.cumsum(self.sizes)[:-1]))))
        put("scores", _segment_means(self.ape[rows], self.sizes))

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

_STATS = ("q1", "median", "q3", "whisker_lo", "whisker_hi")
# numpy's linear quartiles sit at these fractions of (n - 1) into a sorted
# sample.
_QUARTILE_AT = np.array([0.25, 0.5, 0.75])


def _segment_stats(ordered: np.ndarray, counts: np.ndarray) -> list[dict]:
    """Quartiles and 1.5-IQR whiskers of each of the consecutive segments of
    ``ordered``, each sorted ascending, whose lengths are ``counts``; all
    None for an empty segment.

    The quartiles are ``np.percentile``'s linear ones: the order statistics
    on either side of (n - 1) q, interpolated from the nearer one, which
    gives numpy's bits for any sample without -0.0 (an APE is never -0.0).
    Where an infinite value (a point off its curve's valid branch) makes
    that compute ``inf * 0`` or ``inf - inf``, a zero weight gives the order
    statistic itself and a nonzero one gives inf; a segment that holds a
    NaN, which sorts last, loses all three to the same rule, as numpy
    loses them."""
    rows = [dict.fromkeys(_STATS) for _ in range(counts.size)]
    full = counts > 0
    if not full.any():
        return rows
    n = counts[full, None]
    start = (np.cumsum(counts) - counts)[full, None]
    at = (n - 1) * _QUARTILE_AT
    below = np.floor(at)
    weight = at - below
    lo = ordered[start + below.astype(int)]
    hi = ordered[start + np.minimum(below + 1, n - 1).astype(int)]
    with np.errstate(invalid="ignore"):
        step = hi - lo
        quartiles = np.where(weight >= 0.5, hi - step * (1 - weight),
                             lo + step * weight)
        lost = np.isnan(quartiles) | np.isnan(ordered[start + n - 1])
        quartiles[lost] = np.where(weight == 0, lo, np.inf)[lost]
        q1, q3 = quartiles[:, 0], quartiles[:, 2]
        fence_lo, fence_hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    segment = np.repeat(np.arange(n.size), n[:, 0])
    inside = (ordered >= fence_lo[segment]) & (ordered <= fence_hi[segment])
    starts = start[:, 0]
    held = np.add.reduceat(inside, starts) > 0
    whisker_lo = np.where(held, np.minimum.reduceat(
        np.where(inside, ordered, np.inf), starts), q1)
    whisker_hi = np.where(held, np.maximum.reduceat(
        np.where(inside, ordered, -np.inf), starts), q3)
    stats = np.column_stack([quartiles, whisker_lo, whisker_hi]).tolist()
    for k, values in zip(np.flatnonzero(full), stats):
        rows[k] = dict(zip(_STATS, values))
    return rows


def _interval_bins(values: np.ndarray, scores: np.ndarray, edges
                   ) -> tuple[list[dict], np.ndarray, np.ndarray, int]:
    """A table of ``scores`` binned by ``values`` into the half-open
    intervals between consecutive ``edges``, the last one closed: each bin's
    key, the binned scores sorted by bin and then by score, each bin's count
    and the number of values."""
    bound = np.asarray(edges, dtype=float)
    bins = np.searchsorted(bound, values, side="right") - 1
    bins[values == bound[-1]] = bound.size - 2
    # Below the first edge, above the last or NaN.
    kept = (bins >= 0) & (bins < bound.size - 1)
    order = np.lexsort((scores[kept], bins[kept]))
    return ([{"lo": lo, "hi": hi} for lo, hi in zip(edges[:-1], edges[1:])],
            scores[kept][order], np.bincount(bins[kept], minlength=bound.size - 1),
            values.size)


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
    order = np.argsort(points.scores, kind="stable")
    scores, sizes = points.scores[order], points.sizes[order]
    eligible = [scores[sizes >= level] for level in MIN_POINTS_LEVELS]
    tables = {
        "pressure": _interval_bins(points.p_exp_pa, points.ape, PRESSURE_EDGES_PA),
        "temperature": _interval_bins(points.temperature_k, points.ape,
                                      TEMPERATURE_EDGES_K),
        "mol_weight": _interval_bins(weights, points.scores, MOL_WEIGHT_EDGES),
        "min_points": ([{"min_points": level} for level in MIN_POINTS_LEVELS],
                       np.concatenate([scores[:0], *eligible]),
                       np.array([s.size for s in eligible]), scores.size),
    }
    # Every bin of every table is one segment of one statistics pass.
    stats = iter(_segment_stats(
        np.concatenate([ordered for _, ordered, _, _ in tables.values()]),
        np.concatenate([counts for _, _, counts, _ in tables.values()])))
    return BinnedReports(**{
        name: [{**key, "count": count,
                "pct": 100.0 * count / total if total else None, **next(stats)}
               for key, count in zip(keys, counts.tolist())]
        for name, (keys, _, counts, total) in tables.items()})


def hexbin_grid(points: PredictedPoints) -> list[dict]:
    """Median point APE on a temperature x ln-pressure grid, clipped for
    display; rows are (T_center, lnp_center, MAPE_i, count), by cell."""
    t_idx = np.floor(points.temperature_k / HEXBIN_T_STEP_K).astype(int)
    p_idx = np.floor(np.log(points.p_exp_pa / PA_PER_KPA)
                     / HEXBIN_LN_P_STEP).astype(int)
    order = np.lexsort((points.ape, p_idx, t_idx))
    t_idx, p_idx, ape = t_idx[order], p_idx[order], points.ape[order]
    starts, counts = _runs(t_idx, p_idx)
    # ``np.median``: the middle value, or the mean of the middle two (whose
    # sum is formed for every cell); NaN for a cell that holds a NaN.
    mid = starts + counts // 2
    with np.errstate(over="ignore"):
        median = np.where(counts % 2, ape[mid], (ape[mid - 1] + ape[mid]) / 2)
    median[np.isnan(ape[starts + counts - 1])] = np.nan
    clipped = np.minimum(median, HEXBIN_CLIP_PERCENT)
    return [{"T_center": (ti + 0.5) * HEXBIN_T_STEP_K,
             "lnp_center": (pi + 0.5) * HEXBIN_LN_P_STEP,
             "MAPE_i": m, "count": n}
            for ti, pi, m, n in zip(t_idx[starts].tolist(), p_idx[starts].tolist(),
                                    clipped.tolist(), counts.tolist())]


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
    """Normal-boiling-point check: take the points inside
    :data:`BOILING_WINDOW_KPA` of each component with at least
    :data:`BOILING_MIN_POINTS` points and parameters, in order of component,
    average duplicates, and invert the predicted curve at the mean pressure.
    The first component whose curve has no boiling point there raises
    :func:`antoine.boiling_temperature`'s error."""
    lo_pa, hi_pa = (bound * PA_PER_KPA for bound in BOILING_WINDOW_KPA)
    usable = (points.sizes >= BOILING_MIN_POINTS) & np.array(
        [name in params_by_component for name in points.groups], dtype=bool)
    p_exp = points.p_exp_pa
    near = np.flatnonzero((p_exp >= lo_pa) & (p_exp <= hi_pa)
                          & usable[points.component_index])
    near = near[np.argsort(points.component_id[near], kind="stable")]
    starts, counts = _runs(points.component_index[near])
    chosen = points.component_id[near[starts]].tolist()
    p_mean = _segment_means(p_exp[near], counts)
    t_mean = _segment_means(points.temperature_k[near], counts)
    a, b, c = np.array([params_by_component[name].as_tuple()
                        for name in chosen], dtype=float).reshape(-1, 3).T
    t_pred = boiling_temperatures(a, b, c, p_mean)
    abs_err = np.abs(t_pred - t_mean)
    rel_err = abs_err / t_mean * 100.0
    rows = [{"component_id": name, "p_mean_pa": p, "t_exp_k": t,
             "t_pred_k": tp, "abs_err_k": err, "rel_err_pct": pct}
            for name, p, t, tp, err, pct in zip(
                chosen, p_mean.tolist(), t_mean.tolist(), t_pred.tolist(),
                abs_err.tolist(), rel_err.tolist())]
    if rows:
        mae, rel = float(np.mean(abs_err)), float(np.mean(rel_err))
    else:
        mae = rel = float("nan")
    return BoilingReport(rows, mae, rel, len(rows))
