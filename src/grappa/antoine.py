"""Antoine vapor-pressure correlation and its inversion.

ln(p/kPa) = A - B / (C + T/K), with the parameters box-bounded so that B > 0
always gives a physically increasing curve. Pressures cross the module
boundary in Pa; the correlation itself works in kPa. ``_ln_p_kpa`` is the one
numpy evaluator and :func:`ln_p_points` its twin, the Antoine stage of the
training chain; ``_ln_p_grad`` is the stage's backward and the fit's Jacobian.

:func:`ln_vapor_pressure` and :func:`boiling_temperature` check every call,
and pay for the checks in a few numpy calls when the input is accepted:
``math.isfinite`` on A, B and C, a minimum and a finite count over the
temperatures or pressures, and one count over the finite results, which
exclude the points off the C + T > 0 branch (or, for the inversion, over
ln(p/kPa) < A and the finite solutions with T > 0, C + T > 0). Only an
input that fails a guard is walked, to name its first offender. A
Python int or float pressure is inverted on numpy scalars, which give the
bits and warnings a 0-d array would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import NonFiniteError, ScatterPlan, Tensor, _stage

# The one Antoine box: of the prediction head, curation's fits and checkpoints.
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


def _holds(mask) -> bool:
    """Whether a numpy bool, or every entry of a bool array, is true."""
    return bool(mask) if mask.ndim == 0 else np.count_nonzero(mask) == mask.size


def _ln_p_kpa(a, b, c, temperature_k):
    """ln(p/kPa) and the valid-branch mask C + T > 0; +inf off the branch.
    The masking runs only when some point is off the branch."""
    denom = c + np.asarray(temperature_k, dtype=np.float64)
    valid = denom > 0.0
    every = _holds(valid)
    # The ufunc call, not ``/``: a 0-d input's scalar denominator then warns
    # of an overflow as the masked (array) one does.
    out = a - np.divide(b, denom if every else np.where(valid, denom, 1.0))
    return (out if every else np.where(valid, out, np.inf)), valid


def _ln_p_grad(g, b, d) -> np.ndarray:
    """(P, 3) gradient of ln(p/kPa) in A, B, C at B = b, C + T = d, times g."""
    out = np.empty(d.shape + (3,))
    out[:, 0] = g
    out[:, 1] = -g / d
    out[:, 2] = g * b / (d * d)
    return out


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
        return to_row.sum(_ln_p_grad(g, b, d))

    return _stage(rows, a - b / d, "ln_p_points", (), backward)


def antoine(a, b, c, temperature_k) -> np.ndarray:
    """Vapor pressure in Pa for broadcastable parameter and temperature
    arrays; ``inf`` where C + T <= 0 (the curve's invalid branch)."""
    return np.exp(_ln_p_kpa(a, b, c, temperature_k)[0]) * PA_PER_KPA


def _finite_positive(values, what: str):
    """``values`` as float64, a Python int or float as a numpy scalar.

    A minimum and a finite count pass accepted values; only refused ones
    are walked to name the first that is not finite and positive."""
    if isinstance(values, (int, float)):
        x = np.float64(values)
        if 0.0 < x < math.inf:
            return x
    else:
        x = np.asarray(values, dtype=np.float64)
        # Cheaper than x.min() and x.max(), whose Python wrappers cost more.
        if x.size and 0.0 < np.minimum.reduce(x, axis=None) \
                and _holds(np.isfinite(x)):
            return x
    ok = np.isfinite(x) & (x > 0.0)
    if not ok.all():
        raise AntoineDomainError(
            f"{what} must be finite and positive, got {float(x[~ok][0])}")
    return x


def _finite_params(params: AntoineParams) -> tuple:
    """(A, B, C), naming the first that is not a finite number."""
    a, b, c = params.A, params.B, params.C
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        for key, value in zip("ABC", (a, b, c)):
            if not math.isfinite(value):
                raise AntoineDomainError(f"Antoine parameter {key} must be "
                                         f"finite, got {value}")
    return a, b, c


def ln_vapor_pressure(params: AntoineParams, temperature_k):
    """ln(p/kPa) at the given temperature(s), each finite and positive,
    for finite parameters; requires C + T > 0 and a finite result."""
    a, b, c = _finite_params(params)
    t = _finite_positive(temperature_k, "temperature")
    out, valid = _ln_p_kpa(a, b, c, t)
    finite = np.isfinite(out)  # false off the branch too, where out is +inf
    if not _holds(finite):
        if not _holds(valid):
            raise AntoineDomainError(f"C + T must be positive (C={c}, "
                                     f"T={float(t[~valid][0])})")
        raise AntoineDomainError(f"ln(p/kPa) overflows to "
                                 f"{float(out[~finite][0])} at "
                                 f"T={float(t[~finite][0])} (A={a}, B={b}, C={c})")
    if t.ndim:
        return out
    # A 0-d array stays one.
    return float(out) if np.isscalar(temperature_k) else np.asarray(out)


def vapor_pressure(params: AntoineParams, temperature_k):
    """Vapor pressure in Pa."""
    return np.exp(ln_vapor_pressure(params, temperature_k)) * PA_PER_KPA


def boiling_temperature(params: AntoineParams, pressure_pa) -> float:
    """Temperature at which the curve reaches the given pressure.

    Exact algebraic inverse of :func:`ln_vapor_pressure`; the parameters
    must be finite, the pressure finite and positive, and no solution exists
    once ln(p/kPa) reaches A. A solution must lie on the curve's domain,
    T > 0 and C + T > 0, as in-range parameters (B > 0, C <= 0) always give,
    and be finite.
    """
    a, b, c = _finite_params(params)
    p = _finite_positive(pressure_pa, "pressure")
    ln_p = np.log(p / PA_PER_KPA)
    if not _holds(ln_p < a):
        reached = ln_p >= a
        raise AntoineDomainError(f"no boiling point: ln(p/kPa)="
                                 f"{float(ln_p[reached][0])} reaches A={a}")
    t = b / (a - ln_p) - c
    on_curve = (t > 0.0) & (c + t > 0.0) & (t < math.inf)
    if not _holds(on_curve):
        value = float(t[~on_curve][0])
        if value == math.inf:
            raise AntoineDomainError(f"no boiling point: T overflows to {value} "
                                     f"(A={a}, B={b}, C={c})")
        raise AntoineDomainError(f"no boiling point: T={value} is "
                                 f"off the curve, which needs T > 0 and "
                                 f"C + T > 0 (C={c})")
    return float(t) if np.isscalar(pressure_pa) else t
