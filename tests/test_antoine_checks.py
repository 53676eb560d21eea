"""Every Antoine call is checked, whatever path serves it.

``ln_vapor_pressure`` and ``boiling_temperature`` pass accepted input
through one guard each and walk the input only once it fails. Over
drawn inputs they must give the bytes, return type and errors of the
evaluator that checked every element (``_oracles``), refuse a result that
overflows to an infinity, and a ``predict`` memo hit must refuse what a
miss refuses. ``boiling_temperatures``, the inversion of many curves in one
pass, must give each curve the bits and the first refused curve the error
of its own ``boiling_temperature`` call.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from grappa.antoine import (PA_PER_KPA, AntoineDomainError, AntoineParams,
                            boiling_temperature, boiling_temperatures,
                            ln_vapor_pressure, vapor_pressure)
from grappa.model import Architecture, init_model, predict


def outcome(evaluate, params, x):
    """What a call gives: the value's type, dtype, shape and bytes, or the
    raised exception's type and message (warnings are errors in tests)."""
    try:
        value = evaluate(params, x)
    except Exception as err:  # noqa: BLE001 - the outcome is compared
        return type(err), str(err)
    arr = np.asarray(value)
    return type(value), arr.dtype.str, arr.shape, arr.tobytes()


SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])
RANGES = {"A": (5.0, 20.0), "B": (1500.0, 6000.0), "C": (-300.0, 0.0)}


def parameter(key):
    return st.one_of(st.floats(*RANGES[key]), st.floats(), SPECIAL)


def ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


VALUE = st.one_of(st.floats(1.0, 2000.0), st.floats(), SPECIAL,
                  st.sampled_from([-1.0, -250.0, 1e-320]))


@st.composite
def shaped(draw, values):
    """``values`` as a float, an int, a list, a 0-d array or an array."""
    form = draw(st.sampled_from(["float", "int", "list", "0-d", "array"]))
    if form == "int":
        return draw(st.one_of(st.integers(-10, 2000), st.integers(),
                              st.just(10**400)))
    if form in ("float", "0-d"):
        x = draw(values)
        return x if form == "float" else np.asarray(x)
    xs = draw(st.lists(values, max_size=6))
    return xs if form == "list" else np.array(xs, dtype=np.float64)


def elements(x) -> list:
    """The finite float entries of a drawn input."""
    try:
        flat = np.asarray(x, dtype=np.float64).ravel()
    except OverflowError:
        return []
    return [float(v) for v in flat if math.isfinite(v)]


@st.composite
def temperature_cases(draw):
    """Parameters and temperatures, C often within a few ulps of -T."""
    t = draw(shaped(VALUE))
    a, b, c = (draw(parameter(key)) for key in "ABC")
    finite = elements(t)
    if finite and draw(st.booleans()):
        c = ulps_from(-draw(st.sampled_from(finite)), draw(st.integers(-2, 2)))
    return AntoineParams(a, b, c), t


PRESSURE = st.one_of(st.floats(1e-3, 1e9), st.floats(), SPECIAL)


@st.composite
def pressure_cases(draw):
    """Parameters and pressures, A often within a few ulps of ln(p/kPa)."""
    p = draw(shaped(PRESSURE))
    a, b, c = (draw(parameter(key)) for key in "ABC")
    kpa = [v / PA_PER_KPA for v in elements(p) if v / PA_PER_KPA > 0.0]
    if kpa and draw(st.booleans()):
        ln_p = float(np.log(draw(st.sampled_from(kpa))))
        a = ulps_from(ln_p, draw(st.integers(-2, 2)))
    return AntoineParams(a, b, c), p


@settings(max_examples=600, deadline=None)
@given(temperature_cases())
@example((AntoineParams(10.0, 2000.0, -50.0), np.array([])))
@example((AntoineParams(10.0, 2000.0, -250.0), [300.0, 250.0]))
@example((AntoineParams(10.0, 2000.0, -50.0), np.asarray(300.0)))
@example((AntoineParams(10.0, 2000.0, -50.0), 300))
@example((AntoineParams(10.0, 2000.0, -50.0), np.array([300.0, 0.0, -1.0])))
@example((AntoineParams(10.0, 2000.0, math.nan), 300.0))
@example((AntoineParams(1e308, 1e308, 1e308), np.array([1e308, -1e308])))
@example((AntoineParams(10.0, 2000.0, -50.0), np.array([[300.0, 400.0],
                                                         [500.0, 600.0]])))
@example((AntoineParams(10.0, 2000.0, -50.0), np.array([[300.0, 40.0]])))
def test_ln_vapor_pressure_is_the_per_element_evaluator(case):
    params, t = case
    assert outcome(ln_vapor_pressure, params, t) \
        == outcome(_oracles.ln_vapor_pressure, params, t)


@settings(max_examples=600, deadline=None)
@given(pressure_cases())
@example((AntoineParams(10.0, 2000.0, -50.0), np.array([])))
@example((AntoineParams(float(np.log(101.325)), 2000.0, -50.0), 101325.0))
@example((AntoineParams(10.0, 2000.0, -50.0), np.asarray(101325.0)))
@example((AntoineParams(10.0, 2000.0, -50.0), 101325))
@example((AntoineParams(10.0, 2000.0, -50.0), [1e3, 0.0]))
@example((AntoineParams(5.0, 1.0, 300.0), 101325.0))
@example((AntoineParams(12.0, -3627.0, -136.0), np.array([101325.0])))
@example((AntoineParams(5.0, 1e308, -50.0), 101325.0 * (1 + 2**-52)))
@example((AntoineParams(10.0, 2000.0, -50.0), np.array([[1e3, 1e4],
                                                         [1e5, 2e5]])))
def test_boiling_temperature_is_the_per_element_inversion(case):
    params, p = case
    assert outcome(boiling_temperature, params, p) \
        == outcome(_oracles.boiling_temperature, params, p)


EDGE = math.nextafter(50.0, 100.0)  # C + T = 50 - C = 7.1e-15 at C = -50


@pytest.mark.parametrize("evaluate, params, x, message", [
    (ln_vapor_pressure, AntoineParams(5.0, 1e308, -50.0), EDGE,
     r"ln\(p/kPa\) overflows to -inf at T=50.00000000000001 "
     r"\(A=5.0, B=1e\+308, C=-50.0\)"),
    (ln_vapor_pressure, AntoineParams(5.0, 1e308, -50.0), [300.0, EDGE],
     "overflows to -inf at T=50.00000000000001"),
    (ln_vapor_pressure, AntoineParams(5.0, -1e308, -50.0), np.array([EDGE]),
     "overflows to inf at T=50.00000000000001"),
    (ln_vapor_pressure, AntoineParams(1e308, -1e308, 0.0), 1.0,
     "overflows to inf at T=1.0"),
    (boiling_temperature, AntoineParams(5.0, 1e308, -50.0),
     101325.0 * (1 + 2**-52),
     r"no boiling point: T overflows to inf \(A=5.0, B=1e\+308, C=-50.0\)"),
    (boiling_temperature, AntoineParams(5.0, 1e308, -50.0),
     [1000.0, 101325.0 * (1 + 2**-52)], "T overflows to inf"),
], ids=["ln-number", "ln-list", "ln-to-plus-inf", "ln-subtraction",
        "boil-number", "boil-list"])
def test_a_result_that_overflows_is_refused(evaluate, params, x, message):
    with np.errstate(over="ignore"):
        with pytest.raises(AntoineDomainError, match=message):
            evaluate(params, x)
        if evaluate is ln_vapor_pressure:
            with pytest.raises(AntoineDomainError, match=message):
                vapor_pressure(params, x)
        oracle = getattr(_oracles, evaluate.__name__)
        assert outcome(evaluate, params, x) == outcome(oracle, params, x)


@st.composite
def curves(draw):
    """Up to six curves, each at its own pressure, each drawn to boil, to
    have a non-finite parameter, to have ln(p/kPa) reach A, to put T off the
    curve (B < 0, so C + T < 0) or to overflow T, or from any floats."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        p = draw(st.floats(99e3, 102e3))
        a, b, c = (draw(st.floats(*RANGES[key])) for key in "ABC")
        ln_p = float(np.log(p / PA_PER_KPA))
        kind = draw(st.sampled_from(["boils", "non-finite", "reaches A",
                                     "off the curve", "overflows", "any"]))
        if kind == "non-finite":
            abc = [a, b, c]
            abc[draw(st.integers(0, 2))] = draw(
                st.sampled_from([math.inf, -math.inf, math.nan]))
            a, b, c = abc
        elif kind == "reaches A":
            a = ulps_from(ln_p, draw(st.integers(-2, 0)))
        elif kind == "off the curve":
            b = -b
        elif kind == "overflows":
            a, b = ulps_from(ln_p, draw(st.integers(1, 3))), 1e308
        elif kind == "any":
            p = draw(PRESSURE)
            a, b, c = (draw(parameter(key)) for key in "ABC")
        rows.append((a, b, c, p))
    return tuple(np.array(rows, dtype=np.float64).reshape(-1, 4).T)


def one_at_a_time(a, b, c, p):
    """Each curve's own scalar ``boiling_temperature`` call, in order."""
    return np.array([boiling_temperature(AntoineParams(*map(float, abc)),
                                         float(pk))
                     for *abc, pk in zip(a, b, c, p)], dtype=np.float64)


def result(invert, *args):
    """The inverted temperatures' bytes, or the raised error."""
    try:
        return invert(*args).tobytes()
    except AntoineDomainError as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None)
@given(curves())
@example((np.empty(0),) * 4)
@example(tuple(np.array(v) for v in ([10.0, 4.0], [2000.0, 2000.0],
                                     [-50.0, -50.0], [1e5, 1e5])))
@example(tuple(np.array(v) for v in ([10.0, 10.0], [-2000.0, 2000.0],
                                     [-50.0, math.nan], [1e5, 1e5])))
def test_boiling_temperatures_is_each_curves_own_inversion(case):
    # An overflowing T warns before it is refused, in both.
    with np.errstate(over="ignore"):
        assert result(boiling_temperatures, *case) \
            == result(one_at_a_time, *case)


def _low_c_model():
    """A small model whose head's output bias for C, -50, pins C near
    its box's low end, -300, so 250 K lies off every curve's valid branch."""
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1,
                                    embed_dim=8, hidden_width=4), seed=3)
    model.params["head.out.bias"][2] = -50.0
    return model


def test_a_memo_hit_refuses_what_a_miss_refuses():
    model = _low_c_model()
    accepted = predict(model, "CCO", [400.0], 101325.0)
    assert accepted.params.C < -250.0
    memo, rows = model.memo, list(model.memo.rows.items())
    for refused in ({"temperatures": 250.0}, {"boil_pressure_pa": 0.0},
                    {"boil_pressure_pa": -101325.0}):
        fresh = _low_c_model()
        with pytest.raises(AntoineDomainError) as on_miss:
            predict(fresh, "CCO", **refused)
        with pytest.raises(AntoineDomainError) as on_hit:
            predict(model, "CCO", **refused)
        assert str(on_hit.value) == str(on_miss.value)
        assert model.memo is memo and list(memo.rows.items()) == rows
    again = predict(model, "CCO", [400.0], 101325.0)
    assert (again.params, again.ln_p_kpa.tobytes(), again.boiling_k) \
        == (accepted.params, accepted.ln_p_kpa.tobytes(), accepted.boiling_k)
