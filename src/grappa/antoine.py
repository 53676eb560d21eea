"""Antoine vapor-pressure correlation and its inversion.

ln(p/kPa) = A - B / (C + T/K), with the parameters box-bounded so that B > 0
always gives a physically increasing curve. Pressures cross the module
boundary in Pa; the correlation itself works in kPa. ``_ln_p_kpa`` is the one
numpy evaluator and :func:`ln_p_points` its twin, the Antoine stage of the
training chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import NonFiniteError, ScatterPlan, Tensor, _stage

# Bounds enforced by the prediction head's sigmoid scaling.
PARAM_RANGES = {
    "A": (5.0, 20.0),
    "B": (1500.0, 6000.0),
    "C": (-300.0, 0.0),
}

PA_PER_KPA = 1000.0


class AntoineDomainError(ValueError):
    """Temperature or pressure outside the curve's valid branch."""


@dataclass(frozen=True)
class AntoineParams:
    A: float
    B: float
    C: float

    def in_ranges(self) -> bool:
        """Whether A, B and C all lie inside :data:`PARAM_RANGES`."""
        return all(PARAM_RANGES[key][0] <= getattr(self, key) <= PARAM_RANGES[key][1]
                   for key in "ABC")

    def as_tuple(self):
        return (self.A, self.B, self.C)


def _ln_p_kpa(a, b, c, temperature_k):
    """ln(p/kPa) and the valid-branch mask C + T > 0; +inf off the branch."""
    denom = c + np.asarray(temperature_k, dtype=np.float64)
    valid = denom > 0.0
    return np.where(valid, a - b / np.where(valid, denom, 1.0), np.inf), valid


def ln_p_points(rows: Tensor, molecule, temperature_k) -> Tensor:
    """ln(p/kPa) of shape (P,) as a training stage: point ``i`` takes row
    ``molecule[i]`` of the (M, 3) rows of A, B, C and its temperature.

    Equals :func:`_ln_p_kpa` on the valid branch; it applies no branch mask,
    so a point with C + T < 0 is evaluated on the other branch, and a zero
    C + T raises :class:`NonFiniteError`.
    """
    to_row = ScatterPlan(molecule, len(rows.data))
    a, b, c = rows.data[to_row.index].T
    d = c + np.asarray(temperature_k, dtype=np.float64)
    if np.any(d == 0.0):
        raise NonFiniteError("division by zero in ln_p_points: C + T = 0")

    def backward(g):
        return to_row.sum(np.column_stack([g, -g / d, g * b / (d * d)]))

    return _stage(rows, a - b / d, "ln_p_points", (), backward)


def antoine(a, b, c, temperature_k) -> np.ndarray:
    """Vapor pressure in Pa for broadcastable parameter and temperature
    arrays; ``inf`` where C + T <= 0 (the curve's invalid branch)."""
    return np.exp(_ln_p_kpa(a, b, c, temperature_k)[0]) * PA_PER_KPA


def _finite_positive(values, what: str) -> np.ndarray:
    """``values`` as floats; names the first non-finite or non-positive one."""
    arr = np.asarray(values, dtype=np.float64)
    ok = np.isfinite(arr) & (arr > 0.0)
    if not ok.all():
        raise AntoineDomainError(
            f"{what} must be finite and positive, got {float(arr[~ok][0])}")
    return arr


def _check_finite(params: AntoineParams) -> None:
    """Name the first of A, B and C that is not a finite number."""
    for key, value in zip("ABC", params.as_tuple()):
        if not math.isfinite(value):
            raise AntoineDomainError(f"Antoine parameter {key} must be finite, "
                                     f"got {value}")


def ln_vapor_pressure(params: AntoineParams, temperature_k):
    """ln(p/kPa) at the given temperature(s), each finite and positive,
    for finite parameters; requires C + T > 0."""
    _check_finite(params)
    t = _finite_positive(temperature_k, "temperature")
    out, valid = _ln_p_kpa(params.A, params.B, params.C, t)
    if not np.all(valid):
        raise AntoineDomainError(f"C + T must be positive (C={params.C}, "
                                 f"T={float(t[~valid][0])})")
    return float(out) if np.isscalar(temperature_k) else out


def vapor_pressure(params: AntoineParams, temperature_k):
    """Vapor pressure in Pa."""
    return np.exp(ln_vapor_pressure(params, temperature_k)) * PA_PER_KPA


def boiling_temperature(params: AntoineParams, pressure_pa) -> float:
    """Temperature at which the curve reaches the given pressure.

    Exact algebraic inverse of :func:`ln_vapor_pressure`; the parameters
    must be finite, the pressure finite and positive, and no solution exists
    once ln(p/kPa) reaches A. A solution must lie on the curve's domain,
    T > 0 and C + T > 0, as in-range parameters (B > 0, C <= 0) always give.
    """
    _check_finite(params)
    p = _finite_positive(pressure_pa, "pressure")
    ln_p = np.log(p / PA_PER_KPA)
    reached = ln_p >= params.A
    if np.any(reached):
        raise AntoineDomainError(f"no boiling point: ln(p/kPa)="
                                 f"{float(ln_p[reached][0])} reaches A={params.A}")
    t = params.B / (params.A - ln_p) - params.C
    off = (t <= 0.0) | (params.C + t <= 0.0)
    if np.any(off):
        raise AntoineDomainError(f"no boiling point: T={float(t[off][0])} is "
                                 f"off the curve, which needs T > 0 and "
                                 f"C + T > 0 (C={params.C})")
    return float(t) if np.isscalar(pressure_pa) else t
