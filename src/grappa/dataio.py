"""Vapor-pressure datasets: loading, curation, robust fitting, splitting.

A dataset is a flat list of measurement points keyed by component, plus one
split label per component, so all measurements of a molecule stay on the
same side of any split. Curation applies the row filters first, then, for
components with at least five surviving points, fits the Antoine equation
robustly and drops points deviating by more than 50% in pressure.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .antoine import (PARAM_RANGES, AntoineDomainError, AntoineParams,
                      _finite_positive, _ln_kpa, _ln_p_grad, _ln_p_kpa,
                      antoine)
from .featurize import validate_scope
from .molecule import Molecule
from .smiles import SmilesError, parse_smiles

TEMPERATURE_RANGE_K = (250.0, 600.0)
PRESSURE_RANGE_PA = (1.0, 1e7)
OUTLIER_REL_DEV = 0.5
MIN_POINTS_FOR_OUTLIER_PASS = 5
MIN_FIT_POINTS = 3
MIN_FIT_SPREAD_K = 1.0  # a robust fit needs a wider temperature window
FIT_HUBER_DELTA = 0.5  # on ln(p/kPa)
FIT_MAX_ITER = 200
FIT_BLOCK_WINDOWS = 2048  # windows per robust-fit loop, which bounds its memory
# A fit's one start comes from two scans over C; tuned on perfbench gen seed
# 301's curate windows.
FIT_SCAN_POINTS = 16  # C values of the first scan, over the whole C box
FIT_SCAN_ZOOM = 6  # C values of the second, between the first's grid neighbours
FIT_SCAN_IRLS = 6  # Huber-reweighted solves for A and B at each C
SMALL_MOLECULE_CARBONS = 5

REQUIRED_COLUMNS = ("component_id", "smiles", "temperature_K", "pressure_Pa",
                    "quality")


@dataclass(frozen=True)
class VpPoint:
    component_id: str
    smiles: str
    temperature_k: float
    pressure_pa: float
    quality: str = "ok"
    source: str = ""
    stereo_ok: bool = True
    row: int | None = None

    def __post_init__(self):
        _finite_positive(self.temperature_k, "temperature")
        _finite_positive(self.pressure_pa, "pressure")


@dataclass
class VpDataset:
    points: list[VpPoint] = field(default_factory=list)
    splits: dict[str, str] = field(default_factory=dict)  # component -> label
    rejects: list[dict] = field(default_factory=list)
    # What the data layer learned from each SMILES it parsed: (refusal reason
    # or None, carbon count or None when it does not parse). Filled by
    # :func:`curate` and read by :func:`split`, each of which passes it to the
    # dataset it returns; an entry depends on its SMILES alone.
    memo: dict[str, tuple[str | None, int | None]] = field(
        default_factory=dict, repr=False, compare=False)

    def components(self) -> list[str]:
        return list(dict.fromkeys(pt.component_id for pt in self.points))

    def by_component(self) -> dict[str, list[VpPoint]]:
        return _grouped(self.points, "component_id")

    def split_label(self, component: str) -> str:
        return self.splits.get(component, "unassigned")

    def subset(self, label: str) -> "VpDataset":
        keep = {c for c, s in self.splits.items() if s == label}
        return VpDataset(
            [pt for pt in self.points if pt.component_id in keep],
            {c: label for c in keep},
        )

    def __len__(self) -> int:
        return len(self.points)


def _grouped(points, key: str) -> dict[str, list[VpPoint]]:
    """``points`` grouped by their attribute ``key``, in first-seen order."""
    groups: dict[str, list[VpPoint]] = {}
    for pt in points:
        groups.setdefault(getattr(pt, key), []).append(pt)
    return groups


# ---------------------------------------------------------------------- load

def _parse_row(record, row: int) -> VpPoint:
    if not isinstance(record, dict):
        raise ValueError("row is not an object")
    missing = [c for c in REQUIRED_COLUMNS if record.get(c) in (None, "")]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    for key in ("temperature_K", "pressure_Pa"):
        if isinstance(record[key], bool):  # JSON true/false would read as 1/0
            raise ValueError(f"{key} is not a number")
    t = float(record["temperature_K"])
    p = float(record["pressure_Pa"])
    stereo_raw = record.get("stereo_ok")
    if isinstance(stereo_raw, str):
        stereo = stereo_raw.strip().lower() not in ("0", "false", "no")
    else:  # JSON null, like an empty field, is not given
        stereo = stereo_raw is None or bool(stereo_raw)
    return VpPoint(
        component_id=str(record["component_id"]),
        smiles=str(record["smiles"]),
        temperature_k=t,
        pressure_pa=p,
        quality=str(record["quality"]).strip().lower() or "ok",
        source=str(record.get("source", "") or ""),
        stereo_ok=stereo,
        row=row,
    )


def _require_utf8(text: str):
    """Raise ``ValueError`` naming the first byte of ``text``, read with
    ``errors="surrogateescape"``, that was not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as err:  # the byte's lone surrogate
        raise ValueError(f"byte {ord(text[err.start]) - 0xDC00:#04x} is not "
                         f"UTF-8") from None


def _utf8_lines(fh, path):
    """The lines of ``fh`` (see :func:`_require_utf8`); one that is not
    UTF-8 raises ``ValueError`` naming ``path`` and its line."""
    for number, line in enumerate(fh, 1):
        try:
            _require_utf8(line)
        except ValueError as err:
            raise ValueError(f"{path}: line {number}: {err}") from None
        yield line


def load(path, fmt: str = "csv") -> VpDataset:
    """Read a UTF-8 dataset file, with or without a byte-order mark;
    malformed rows, one holding a byte that is not UTF-8 among them, land
    in ``dataset.rejects``."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    ds = VpDataset()
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        if fmt == "csv":
            taken: list[str] = []  # the lines of the record being read
            reader = csv.DictReader(taken.append(line) or line for line in fh)
            try:
                header = reader.fieldnames or []
                _require_utf8("".join(taken))
            # A header field over the size limit, or a byte that is not UTF-8.
            except (csv.Error, ValueError) as err:
                raise ValueError(f"{path}: line {reader.reader.line_num}: "
                                 f"{err}") from None
            missing = [c for c in REQUIRED_COLUMNS if c not in header]
            if missing:
                raise ValueError(f"{path}: missing columns: "
                                 f"{', '.join(missing)}")
            records = enumerate(_csv_records(reader, taken, fh), 2)  # 1: header
        else:
            records = ((row, line) for row, line in enumerate(fh, start=1)
                       if line.strip())
        for row, record in records:
            try:
                if isinstance(record, csv.Error):
                    raise record
                if fmt == "jsonl":
                    _require_utf8(record)
                    record = json.loads(record)
                else:
                    for line in taken:  # isascii is a flag lookup
                        if not line.isascii():
                            _require_utf8(line)
                ds.points.append(_parse_row(record, row))
            # An integer beyond float range overflows, and JSON nested past
            # the decoder's depth recurses too deep.
            except (ValueError, TypeError, OverflowError, RecursionError,
                    csv.Error) as err:
                ds.rejects.append({"row": row, "reason": str(err)})
    return ds


_FIELD_END = re.compile(r"[,\r\n]")


def _ends_quoted(text: str) -> bool:
    """Whether CSV text (``csv``'s default dialect) read from a record's start
    ends inside a quoted field. A quote opens a field only at its start;
    inside one, "" is a quote and a lone quote closes it."""
    quoted = text.startswith('"')
    i = int(quoted)
    while True:
        while quoted:
            i = text.find('"', i) + 1
            if not i:
                return True
            quoted = text.startswith('"', i)  # "" is one quote, still inside
            i += quoted
        end = _FIELD_END.search(text, i)
        if end is None:
            return False
        i = end.end()
        quoted = text.startswith('"', i)
        i += quoted


def _csv_records(reader, taken: list[str], fh):
    """Each record of a CSV reader over the lines of ``fh``, which it appends
    to ``taken``, or the ``csv.Error`` (a field over the size limit) it raised
    reading one, whose quoted field's further lines are skipped with it."""
    while True:
        taken.clear()
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            inside = _ends_quoted("".join(taken))
            while inside and (line := next(fh, None)) is not None:
                inside = _ends_quoted('"' + line)  # inside the field
            yield err


# ------------------------------------------------------------------- fitting

@dataclass
class AntoineFit:
    params: AntoineParams
    residuals: np.ndarray  # on ln(p/kPa)
    cost: float
    converged: bool
    iterations: int
    cost_trace: list[float]


def huber_rho(r: np.ndarray, delta: float) -> np.ndarray:
    """Elementwise Huber value of residuals ``r``, quadratic inside ``delta``
    and linear outside: the robust fit's cost and the training loss."""
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))


def _residuals(theta, rows, t, y) -> np.ndarray:
    """Packed residuals (P,) of a (K, 3) stack of parameter rows, each with
    C + T > 0 on its points; point p belongs to row ``rows[p]``."""
    a, b, c = theta.take(rows, axis=0).T
    return y - _ln_p_kpa(a, b, c, t)[0]


def _fit_cost(theta, rows, t, y, delta, runs) -> tuple[np.ndarray, np.ndarray]:
    """Huber cost (K,) and packed residuals (P,) of a (K, 3) stack of
    parameter rows (see :func:`_residuals`). Each row's cost sums its own
    points in their order: the rows ``i:j`` of a run ``(i, j, p, q, n)`` in
    ``runs`` sum the points ``p:q``, n each."""
    r = _residuals(theta, rows, t, y)
    rho = huber_rho(r, delta)
    cost = np.empty(len(theta))
    for i, j, p, q, n in runs:
        cost[i:j] = rho[p:q].reshape(j - i, n).sum(axis=1)
    return cost, r


def _runs(counts: np.ndarray) -> list[tuple[int, int, int, int, int]]:
    """``(i, j, p, q, n)`` of each run of equal values n in ``counts``: rows
    ``i:j`` whose points, packed end to end, are ``p:q``."""
    runs = []
    i = p = 0
    counts = counts.tolist()
    for j in range(1, len(counts) + 1):
        if j == len(counts) or counts[j] != counts[i]:
            q = p + counts[i] * (j - i)
            runs.append((i, j, p, q, counts[i]))
            i, p = j, q
    return runs


def _solve_each(lhs, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Batched solve of (m, 3, 3) systems; if one is singular, solve them one
    at a time so only the singular ones fail. Returns (m, 3) steps (zero where
    unsolved) and the (m,) solved mask."""
    try:
        return np.linalg.solve(lhs, rhs)[..., 0], np.ones(len(lhs), dtype=bool)
    except np.linalg.LinAlgError:
        step = np.zeros(rhs.shape[:2])
        solved = np.ones(len(lhs), dtype=bool)
        for s in range(len(lhs)):
            try:
                step[s] = np.linalg.solve(lhs[s], rhs[s])[:, 0]
            except np.linalg.LinAlgError:
                solved[s] = False
        return step, solved


def _lm_solve(starts, t, y, box, delta, max_iter=200):
    """Damped least squares with Huber reweighting and box projection, run on
    a (K, 3) stack of starts at once; the robust fit gives it one start per
    window, from :func:`_start_points`.

    Each start has its own window: ``t`` and ``y`` are sequences of K 1-D
    windows, which may differ in length, and ``box`` is (K, 3, 2). The
    windows are packed end to end, unpadded, so every elementwise step runs
    on the real points only and its cost grows with their number, not with
    the widest window. The three sums (the Huber cost, J'WJ and J'Wr) run on
    each run of consecutive starts with the same point count n, whose packed
    points reshape to (starts, n), so each has the length and order it has
    for the window alone; ordering the starts by point count keeps the runs
    few. Every start keeps its own damping, slow-step count, stopping rule
    and cost trace, and only the starts still iterating, and their points,
    are computed, so each ends exactly where it would alone. A parameter on
    a face of its box that the descent direction points out of is held
    there for the iteration: it takes no step and the other two take the step
    they would take with it fixed, so a start does not creep along a face
    by steps that are clipped back; a start that never holds a face runs
    as if the rule were not there. The C box must
    keep C + T positive on every point, so every parameter row it admits is
    on the valid branch. Returns the per-start parameters (K, 3), costs
    (K,), residuals (K views of one packed array), converged flags,
    iteration counts and cost traces.
    """
    theta = np.asarray(starts, dtype=float)
    k = len(theta)
    counts = np.array([len(w) for w in t])
    first = np.cumsum(counts) - counts
    t = np.concatenate(t, dtype=float)
    y = np.concatenate(y, dtype=float)
    box = np.asarray(box, dtype=float)
    lo, hi = box[..., 0], box[..., 1]
    if (lo[:, 2] + np.minimum.reduceat(t, first) <= 0.0).any():
        raise ValueError("the C box must keep C + T positive on every point")
    theta = np.minimum(np.maximum(theta, lo), hi)
    # The start of each packed point; rows numbers it among the live starts.
    owner = rows = np.repeat(np.arange(k), counts)
    runs = _runs(counts)
    cost, r = _fit_cost(theta, owner, t, y, delta, runs)
    converged = np.zeros(k, dtype=bool)
    iterations = np.full(k, max_iter)
    traces = [[c] for c in cost.tolist()]
    # The state of the starts still iterating, one row each, and of their
    # packed points; a start's row is written back to theta and cost when it
    # stops, and the residuals of every start are those of its final row.
    live = np.arange(k)
    th, old, res = theta[live], cost[live], r
    tl, yl, lol, hil = t, y, lo[live], hi[live]
    lam = np.full(len(live), 1e-3)
    slow_steps = np.zeros(len(live), dtype=int)
    diag = np.arange(3)
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        b, c = th.take(rows, axis=0)[:, 1:].T
        # Jacobian of the residual r = y - ln(p/kPa) w.r.t. (a, b, c).
        jac = _ln_p_grad(-1.0, b, c + tl)
        w = delta / np.maximum(np.abs(res), delta)  # exactly 1 where |r| <= delta
        jtw = jac * w[:, None]
        hess = np.empty((len(live), 3, 3))
        grad = np.empty((len(live), 3, 1))
        for i, j, p, q, n in runs:
            jt = jtw[p:q].reshape(j - i, n, 3).transpose(0, 2, 1)
            hess[i:j] = jt @ jac[p:q].reshape(j - i, n, 3)
            grad[i:j] = jt @ res[p:q].reshape(j - i, n, 1)
        # Damping and ridge in the oracle's order: (h + lam h) + 1e-12.
        h = hess[:, diag, diag]
        hess[:, diag, diag] = h + lam[:, None] * h + 1e-12
        rhs = -grad
        # A parameter on a face of its box that the descent direction -grad
        # pushes out of is held there (projected Newton, Bertsekas 1982): its
        # row and column become a unit diagonal and its right-hand side 0, so
        # it takes no step and the others step as if it were fixed. A start
        # that holds no face keeps its system as it was.
        g = grad[..., 0]
        held = ((th <= lol) & (g > 0.0)) | ((th >= hil) & (g < 0.0))
        if held.any():
            hess = np.where(held[:, :, None] | held[:, None, :], 0.0, hess)
            hess[:, diag, diag] = np.where(held, 1.0, hess[:, diag, diag])
            rhs = np.where(held[..., None], 0.0, rhs)
        step, solved = _solve_each(hess, rhs)
        candidate = np.minimum(np.maximum(th + step, lol), hil)
        new_cost, new_r = _fit_cost(candidate, rows, tl, yl, delta, runs)

        better = solved & (new_cost < old)
        rel_drop = (old - new_cost) / np.maximum(old, 1e-30)
        for s, value in zip(live[better].tolist(), new_cost[better].tolist()):
            traces[s].append(value)
        th = np.where(better[:, None], candidate, th)
        old = np.where(better, new_cost, old)
        res = np.where(better[rows], new_r, res)
        # A failed solve only raises the damping, a rejected step raises it too.
        lam = np.where(better, np.maximum(lam / 10.0, 1e-12), lam * 10.0)
        # Creep along a box boundary counts as converged after a while.
        slow_steps = np.where(better, np.where(rel_drop < 1e-5, slow_steps + 1, 0),
                              slow_steps)
        stop = np.where(better,
                        (rel_drop < 1e-9) | (old < 1e-24) | (slow_steps >= 5),
                        solved & (lam > 1e10))  # stalled at a flat minimum
        if stop.any():
            done = live[stop]
            theta[done], cost[done] = th[stop], old[stop]
            converged[done] = True
            iterations[done] = it
            keep = ~stop
            kept = keep[rows]
            live, th, old = live[keep], th[keep], old[keep]
            lol, hil, lam, slow_steps = lol[keep], hil[keep], lam[keep], slow_steps[keep]
            tl, yl, res = tl[kept], yl[kept], res[kept]
            rows = np.repeat(np.arange(len(live)), counts[live])
            runs = _runs(counts[live])
    theta[live], cost[live] = th, old
    r = _residuals(theta, owner, t, y)
    ends = (first + counts).tolist()
    return (theta, cost, [r[i:j] for i, j in zip(first.tolist(), ends)],
            converged, iterations, traces)


def _profile(c, t, y, owner, first, box, delta):
    """A, B and Huber cost, each (G, m), at the trial C values ``c`` (G, m)
    of m windows packed end to end in ``t`` and ``y``: point p belongs to
    window ``owner[p]``, whose points start at ``first``. At a fixed C,
    ln p = A - B/(C + T) is linear in A and B, so each comes from
    :data:`FIT_SCAN_IRLS` Huber-reweighted 2 x 2 least-squares solves, the
    first unweighted; B is clipped into its box, then A, the best A for
    that B, into its. Every sum over a window's points is one
    ``np.add.reduceat`` segment, which adds them in their order whatever
    windows lie beside them."""
    (a_lo, a_hi), (b_lo, b_hi) = box[:, 0].T, box[:, 1].T
    x = 1.0 / (c.take(owner, axis=1) + t)
    w = np.ones_like(x)
    terms = np.empty((5,) + x.shape)
    for step in range(FIT_SCAN_IRLS):
        if step:
            w = delta / np.maximum(np.abs(r), delta)
        terms[0] = w
        np.multiply(w, x, out=terms[1])
        np.multiply(terms[1], x, out=terms[2])
        np.multiply(w, y, out=terms[3])
        np.multiply(terms[1], y, out=terms[4])
        s, sx, sxx, sy, sxy = np.add.reduceat(terms, first, axis=-1)
        b = np.minimum(np.maximum((sx * sy - s * sxy) / (s * sxx - sx * sx),
                                  b_lo), b_hi)
        a = np.minimum(np.maximum((sy + b * sx) / s, a_lo), a_hi)
        r = y - (a.take(owner, axis=1) - b.take(owner, axis=1) * x)
    return a, b, np.add.reduceat(huber_rho(r, delta), first, axis=-1)


def _start_points(t, y, box, delta) -> np.ndarray:
    """The (m, 3) start of each of m windows (``t`` and ``y`` as for
    :func:`_lm_solve`, ``box`` (m, 3, 2)): the C, with its A and B from
    :func:`_profile`, of least Huber cost among :data:`FIT_SCAN_POINTS`
    values spread evenly over the window's C box, and then among
    :data:`FIT_SCAN_ZOOM` more spread evenly between that value's two grid
    neighbours; the first of equal costs wins."""
    counts = np.array([len(w) for w in t])
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(counts)), counts)
    t = np.concatenate(t, dtype=float)
    y = np.concatenate(y, dtype=float)
    cols = np.arange(len(counts))

    def best_of(c):
        a, b, cost = _profile(c, t, y, owner, first, box, delta)
        k = np.argmin(cost, axis=0)
        best = np.stack([a[k, cols], b[k, cols], c[k, cols]], axis=1)
        return best, cost[k, cols]

    lo, hi = box[:, 2, 0], box[:, 2, 1]
    start, cost = best_of(
        lo + (hi - lo) * np.linspace(0.0, 1.0, FIT_SCAN_POINTS)[:, None])
    gap = (hi - lo) / (FIT_SCAN_POINTS - 1)
    near = (start[:, 2]
            + gap * np.linspace(-1.0, 1.0, FIT_SCAN_ZOOM + 2)[1:-1, None])
    zoomed, zoomed_cost = best_of(np.minimum(np.maximum(near, lo), hi))
    return np.where((zoomed_cost < cost)[:, None], zoomed, start)


def fit_window_ok(t: np.ndarray) -> bool:
    """Whether temperatures ``t`` admit a robust fit: at least
    ``MIN_FIT_POINTS`` points spanning more than ``MIN_FIT_SPREAD_K``."""
    return len(t) >= MIN_FIT_POINTS and float(t.max() - t.min()) > MIN_FIT_SPREAD_K


def require_fit_window(t: np.ndarray, subject: str = "robust fit"):
    """Raise ``ValueError`` naming ``subject`` unless temperatures ``t`` pass
    :func:`fit_window_ok`."""
    if not fit_window_ok(t):
        raise ValueError(f"{subject} needs at least {MIN_FIT_POINTS} points "
                         f"spanning more than {MIN_FIT_SPREAD_K} K")


def _fit_window(temperatures_k, pressures_pa, index: int = 0):
    """A window's temperatures, ln(p/kPa) and parameter box; raises a
    ``ValueError`` that says why if it cannot be fitted, naming the window's
    ``index`` in its call when T and p are not 1-D and of one length."""
    t = _finite_positive(temperatures_k, "temperature")
    p = _finite_positive(pressures_pa, "pressure")
    if t.ndim != 1 or p.shape != t.shape:
        raise ValueError(f"window {index}: temperatures and pressures must be "
                         f"1-D and of one length, got shapes {t.shape} and "
                         f"{p.shape}")
    y = _ln_kpa(p)
    require_fit_window(t)
    box = np.array([PARAM_RANGES[key] for key in "ABC"])
    box[2, 0] = max(box[2, 0], -float(t.min()) + 1.0)  # the pole C = -T stays out
    return t, y, box


def _packed_windows(windows):
    """Every window's temperatures and pressures end to end, the start of
    each window's points and its lowest temperature, when all the windows
    pass :func:`_fit_window`'s checks, made once over all of them: the
    finite-positive check on every T and p, and each window's shapes, point
    count and span. None when any window is refused."""
    try:
        ts = [np.asarray(t, dtype=np.float64) for t, _ in windows]
        ps = [np.asarray(p, dtype=np.float64) for _, p in windows]
    except (TypeError, ValueError, OverflowError):  # refused by numpy
        return None
    counts = np.array([len(t) if t.ndim == 1 and p.shape == t.shape else 0
                       for t, p in zip(ts, ps)], dtype=np.intp)
    if counts.min() < MIN_FIT_POINTS:
        return None
    try:
        t = _finite_positive(np.concatenate(ts), "temperature")
        p = _finite_positive(np.concatenate(ps), "pressure")
    except AntoineDomainError:
        return None
    first = np.cumsum(counts) - counts
    low = np.minimum.reduceat(t, first)
    if not (np.maximum.reduceat(t, first) - low > MIN_FIT_SPREAD_K).all():
        return None
    return t, p, first, low


def _fit_windows(windows) -> list[tuple]:
    """:func:`_fit_window` of each window, checked in one packed pass
    (:func:`_packed_windows`). Only when a window is refused does the
    per-window loop run, to raise the first refused window's own error."""
    packed = _packed_windows(windows)
    if packed is None:
        return [_fit_window(t, p, i) for i, (t, p) in enumerate(windows)]
    t, p, first, low = packed
    box = np.tile(np.array([PARAM_RANGES[key] for key in "ABC"]),
                  (len(first), 1, 1))
    box[:, 2, 0] = np.maximum(box[:, 2, 0], -low + 1.0)  # as in _fit_window
    cuts = first[1:]
    return list(zip(np.split(t, cuts), np.split(_ln_kpa(p), cuts),
                    box))


def robust_antoine_fits(windows) -> list[AntoineFit]:
    """Robust fits of many ``(temperatures_k, pressures_pa)`` windows, in
    order; each is the fit :func:`robust_antoine_fit` gives it alone.

    Every window is checked before any is solved, in one pass over them all
    (:func:`_fit_windows`). Then the windows, ordered
    stably by point count, are solved in blocks of at most
    :data:`FIT_BLOCK_WINDOWS`: one scan over C (:func:`_start_points`)
    gives every window of a block its one start, and one :func:`_lm_solve`
    loop polishes them all, so the memory of both is bounded by a block
    however many windows the call has. Within a block the windows are
    packed end to end without padding, and each sum runs over one window's
    own points in their order, so it is the sum the window gets alone.
    """
    windows = list(windows)
    if not windows:
        return []
    prepared = _fit_windows(windows)
    order = sorted(range(len(prepared)), key=lambda i: len(prepared[i][0]))
    fits: list[AntoineFit] = [None] * len(prepared)
    for at in range(0, len(order), FIT_BLOCK_WINDOWS):
        block = order[at:at + FIT_BLOCK_WINDOWS]
        for i, fit in zip(block, _fit_block([prepared[i] for i in block])):
            fits[i] = fit
    return fits


def _fit_block(prepared) -> list[AntoineFit]:
    """The robust fits of prepared ``(t, y, box)`` windows, each polished by
    one :func:`_lm_solve` loop from its scan start; whatever the loop leaves
    but the fits is freed on return."""
    t, y, box = zip(*prepared)
    box = np.stack(box)
    starts = _start_points(t, y, box, FIT_HUBER_DELTA)
    theta, cost, r, converged, iters, traces = _lm_solve(
        starts, t, y, box, FIT_HUBER_DELTA, FIT_MAX_ITER)
    return [AntoineFit(AntoineParams(*theta[k]), r[k].copy(), float(cost[k]),
                       bool(converged[k]), int(iters[k]), traces[k])
            for k in range(len(theta))]


def robust_antoine_fit(temperatures_k, pressures_pa) -> AntoineFit:
    """Fit ln(p/kPa) = A - B/(C+T) with a Huber cost (:data:`FIT_HUBER_DELTA`)
    and box-bounded search of at most :data:`FIT_MAX_ITER` iterations.

    Needs finite, positive temperatures and pressures, over a window that
    passes :func:`fit_window_ok`. The fit is separable:
    at a fixed C, A and B solve a weighted linear least-squares problem
    (variable projection, Golub & Pereyra 1973). So a scan over the C box,
    with A and B solved at each C, picks one start (see
    :func:`_start_points`), and damped least squares in all three
    parameters polishes it. A parameter at a face of its box that the
    descent direction would push out is held on the face for that step
    (see :func:`_lm_solve`), so a fit whose best parameters lie on the box,
    most often at C = 0, converges there.
    """
    return robust_antoine_fits([(temperatures_k, pressures_pa)])[0]


# ------------------------------------------------------------------ curation

@dataclass
class CurationResult:
    dataset: VpDataset
    audit: list[dict]
    conflicts: list[dict]


def _point_filter_reason(pt: VpPoint, memo: dict) -> str | None:
    if pt.quality == "poor":
        return "poor_quality"
    if not pt.stereo_ok:
        return "stereo_not_represented"
    if not TEMPERATURE_RANGE_K[0] <= pt.temperature_k <= TEMPERATURE_RANGE_K[1]:
        return "temperature_out_of_range"
    if not PRESSURE_RANGE_PA[0] <= pt.pressure_pa <= PRESSURE_RANGE_PA[1]:
        return "pressure_out_of_range"
    known = memo.get(pt.smiles)
    if known is None:
        try:
            mol = parse_smiles(pt.smiles)
        except SmilesError as err:
            known = (f"unparseable_smiles: {err}", None)
        else:
            scope = validate_scope(mol)
            reason = None if scope.accepted else "scope:" + "; ".join(scope.reasons)
            known = (reason, carbon_count(mol))
        memo[pt.smiles] = known
    return known[0]


def curate(ds: VpDataset) -> CurationResult:
    """Row filters, then per-component outlier removal against a robust fit.

    A row that passes the filters but names another SMILES than the first
    such row of its component is dropped too, so every kept component has
    one molecule. Everything removed is recorded in the audit log; nothing
    raises.
    """
    audit: list[dict] = []
    kept: list[VpPoint] = []
    first_smiles: dict[str, str] = {}  # of each component's first kept row
    for pt in ds.points:
        reason = _point_filter_reason(pt, ds.memo)
        if reason is None and pt.smiles != first_smiles.setdefault(
                pt.component_id, pt.smiles):
            reason = "smiles_differs_within_component"
        if reason is None:
            kept.append(pt)
        else:
            audit.append({"row": pt.row, "component": pt.component_id,
                          "rule": reason, "action": "dropped"})

    groups = _grouped(kept, "component_id")

    # One call fits every component with enough points over a wide enough
    # window, then the usable per-source windows of each such component with
    # two or more; only a component whose own fit converged is judged, for
    # outliers and conflicts. The audit, conflicts and dataset then follow
    # component order.
    windows = {c: _window(points) for c, points in groups.items()
               if len(points) >= MIN_POINTS_FOR_OUTLIER_PASS}
    fitted = [c for c, (t, _) in windows.items() if fit_window_ok(t)]
    sources = {c: _usable_sources(groups[c]) for c in fitted}
    pairs = [(c, s) for c, usable in sources.items() if len(usable) >= 2
             for s in usable]
    fits = robust_antoine_fits([windows[c] for c in fitted]
                               + [sources[c][s] for c, s in pairs])
    fit_of = dict(zip(fitted, fits))
    source_fits: dict[str, dict[str, AntoineParams]] = {}
    for (c, s), fit in zip(pairs, fits[len(fitted):]):
        source_fits.setdefault(c, {})[s] = fit.params

    final: list[VpPoint] = []
    conflicts: list[dict] = []
    for component, points in groups.items():
        if component not in windows:
            final.extend(points)
            continue
        fit = fit_of.get(component)
        if fit is None or not fit.converged:
            rule = "fit_skipped_narrow_range" if fit is None else "fit_not_converged"
            audit.append({"row": None, "component": component,
                          "rule": rule, "action": "kept"})
            final.extend(points)
            continue
        t, p = windows[component]
        p_fit = antoine(*fit.params.as_tuple(), t)
        rel_dev = np.abs(p - p_fit) / p_fit  # deviation measured from the fit
        for pt, dev in zip(points, rel_dev):
            if dev > OUTLIER_REL_DEV:
                audit.append({"row": pt.row, "component": component,
                              "rule": "outlier_vs_antoine_fit",
                              "action": "dropped"})
            else:
                final.append(pt)
        conflict = _source_conflict(component, t, source_fits.get(component, {}))
        if conflict is not None:
            conflicts.append(conflict)

    out = VpDataset(final, dict(ds.splits), memo=ds.memo)
    return CurationResult(out, audit, conflicts)


def _window(points: list[VpPoint]) -> tuple[np.ndarray, np.ndarray]:
    """The temperatures and pressures of ``points`` as two arrays."""
    return (np.array([pt.temperature_k for pt in points]),
            np.array([pt.pressure_pa for pt in points]))


def _usable_sources(points: list[VpPoint]) -> dict[str, tuple]:
    """The window of each named source whose points pass
    :func:`fit_window_ok`, in order of first appearance."""
    by_source = _grouped([pt for pt in points if pt.source], "source")
    windows = {s: _window(pts) for s, pts in by_source.items()}
    return {s: w for s, w in windows.items() if fit_window_ok(w[0])}


def _source_conflict(component: str, t_all: np.ndarray,
                     fits: dict[str, AntoineParams]) -> dict | None:
    """Flag a component whose per-source fits disagree by more than 50% on
    its temperature window ``t_all``; fewer than two fits never conflict."""
    if len(fits) < 2:
        return None
    grid = np.linspace(t_all.min(), t_all.max(), 7)
    sources = sorted(fits)
    curves = [antoine(*fits[s].as_tuple(), grid) for s in sources]
    worst = 0.0
    for i, p1 in enumerate(curves):
        for p2 in curves[i + 1:]:
            # A curve that underflows to 0 Pa deviates infinitely. Where both
            # do, the ratio is 0/0, a NaN that the fold skips.
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.abs(p1 - p2) / np.minimum(p1, p2)
            worst = float(np.fmax.reduce(ratio, initial=worst))
    if worst > OUTLIER_REL_DEV:
        return {"component": component, "sources": sources,
                "max_rel_deviation": worst}
    return None


# ------------------------------------------------------------------ splitting

def carbon_count(mol: Molecule) -> int:
    return sum(1 for atom in mol.atoms if atom.element == "C")


def split(ds: VpDataset, seed: int, ratios=(0.8, 0.1, 0.1)) -> VpDataset:
    """Component-wise split; molecules with fewer than five carbons always
    train, the rest are shuffled and partitioned by the ratios. A component
    whose SMILES does not parse gets no label (``unassigned``). A SMILES in
    ``ds.memo`` is not parsed again."""
    if (len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise ValueError("ratios must be three finite, non-negative numbers "
                         "that sum to 1")
    groups = ds.by_component()
    small, rest = [], []
    for component, points in groups.items():
        smiles = points[0].smiles
        if smiles in ds.memo:
            carbons = ds.memo[smiles][1]
        else:
            try:
                carbons = carbon_count(parse_smiles(smiles))
            except SmilesError:
                carbons = None
        if carbons is not None:
            (small if carbons < SMALL_MOLECULE_CARBONS else rest).append(
                component)
    rest = sorted(rest)
    rng = np.random.default_rng(seed)
    order = [rest[i] for i in rng.permutation(len(rest))]
    n = len(order)
    n_valid = int(round(ratios[1] * n))
    n_test = int(round(ratios[2] * n))
    n_train = n - n_valid - n_test
    labels = dict.fromkeys(small + order[:n_train], "train")
    labels.update(dict.fromkeys(order[n_train : n_train + n_valid], "valid"))
    labels.update(dict.fromkeys(order[n_train + n_valid :], "test"))
    return VpDataset(list(ds.points), labels, list(ds.rejects), memo=ds.memo)


# ------------------------------------------------------------------- emitters

def write_csv(ds: VpDataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(REQUIRED_COLUMNS) + ["source", "stereo_ok"])
        for pt in ds.points:
            writer.writerow([pt.component_id, pt.smiles,
                             repr(float(pt.temperature_k)),
                             repr(float(pt.pressure_pa)), pt.quality, pt.source,
                             "true" if pt.stereo_ok else "false"])


def write_splits_csv(ds: VpDataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component_id", "split"])
        for component in ds.components():
            writer.writerow([component, ds.split_label(component)])


def read_splits_csv(path) -> dict[str, str]:
    """Each component's split label, any non-empty text. A header without
    both columns, or a row with no component id or label, with more fields
    than the header, giving a component a second label, or with a field
    over the ``csv`` size limit, and a line holding a byte that is not UTF-8,
    raises ``ValueError`` naming its line."""
    with open(path, newline="", encoding="utf-8-sig",
              errors="surrogateescape") as fh:
        reader = csv.DictReader(_utf8_lines(fh, path))
        try:
            missing = [c for c in ("component_id", "split")
                       if c not in (reader.fieldnames or [])]
            if missing:  # an empty file has no header line; name line 1
                raise ValueError(f"{path}: line {max(reader.line_num, 1)}: "
                                 f"missing columns: {', '.join(missing)}")
            splits = {}
            for record in reader:
                component, label = record["component_id"], record["split"]
                where = f"{path}: line {reader.line_num}"
                if not component or not label or None in record:
                    raise ValueError(f"{where} needs one component_id and one "
                                     f"split label, got {list(record.values())}")
                if splits.setdefault(component, label) != label:
                    raise ValueError(f"{where} labels {component!r} {label!r}, "
                                     f"but an earlier row labels it "
                                     f"{splits[component]!r}")
        except csv.Error as err:
            raise ValueError(f"{path}: line {reader.reader.line_num}: "
                             f"{err}") from None
        return splits


def write_audit_jsonl(audit: list[dict], path):
    with open(path, "w", encoding="utf-8") as fh:
        for entry in audit:
            fh.write(json.dumps(entry) + "\n")
