import math

import numpy as np
import pytest

from grappa.antoine import (
    PARAM_RANGES,
    AntoineDomainError,
    AntoineParams,
    _ln_p_kpa,
    antoine,
    boiling_temperature,
    ln_p_points,
    ln_vapor_pressure,
    vapor_pressure,
)
from grappa.featurize import ScopeError, validate_scope
from grappa.model import (
    Architecture,
    head_raw,
    init_model,
    predict,
    scale_to_ranges,
)
from grappa.smiles import parse_smiles
from grappa.tensor import NonFiniteError, ShapeError, Tensor

from _oracles import finite_difference_grad, max_rel_error


def test_hand_arithmetic_cases():
    assert ln_vapor_pressure(AntoineParams(10, 2000, -50), 250.0) == pytest.approx(0.0)
    assert vapor_pressure(AntoineParams(10, 2000, -50), 250.0) == pytest.approx(1000.0)
    assert ln_vapor_pressure(AntoineParams(5, 1500, 0), 300.0) == pytest.approx(0.0)


def test_domain_guard():
    with pytest.raises(AntoineDomainError):
        ln_vapor_pressure(AntoineParams(10, 2000, -300), 250.0)
    # Exactly at the pole.
    with pytest.raises(AntoineDomainError):
        ln_vapor_pressure(AntoineParams(10, 2000, -250), 250.0)


def test_vectorized_evaluator_marks_invalid_branch_infinite():
    # Per-point parameters: C + T is positive, zero (the pole) and negative.
    a = np.array([10.0, 10.0, 10.0, 5.0])
    b = np.array([2000.0, 2000.0, 2000.0, 1500.0])
    c = np.array([-50.0, -250.0, -300.0, 0.0])
    t = np.array([250.0, 250.0, 250.0, 300.0])
    p = antoine(a, b, c, t)
    np.testing.assert_array_equal(np.isinf(p), [False, True, True, False])
    assert p[0] == vapor_pressure(AntoineParams(10, 2000, -50), 250.0)
    assert p[3] == pytest.approx(1000.0)
    # Broadcasting one curve over a temperature grid matches the scalar form.
    params = AntoineParams(9.5, 2800.0, -80.0)
    grid = np.linspace(90.0, 500.0, 12)
    curve = antoine(*params.as_tuple(), grid)
    valid = grid + params.C > 0
    assert np.isinf(curve[~valid]).all()
    np.testing.assert_array_equal(curve[valid],
                                  vapor_pressure(params, grid[valid]))


def test_strictly_increasing_on_valid_domain():
    rng = np.random.default_rng(0)
    for _ in range(50):
        params = AntoineParams(
            rng.uniform(*PARAM_RANGES["A"]),
            rng.uniform(*PARAM_RANGES["B"]),
            rng.uniform(*PARAM_RANGES["C"]),
        )
        t = np.linspace(max(250.0, -params.C + 1.0), 600.0, 40)
        values = ln_vapor_pressure(params, t)
        assert (np.diff(values) > 0).all()


def test_boiling_inverse_hand_case():
    assert boiling_temperature(AntoineParams(10, 2000, -50), 1000.0) == pytest.approx(250.0)


def test_boiling_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        params = AntoineParams(
            rng.uniform(*PARAM_RANGES["A"]),
            rng.uniform(*PARAM_RANGES["B"]),
            rng.uniform(*PARAM_RANGES["C"]),
        )
        t = rng.uniform(max(250.0, -params.C + 5.0), 600.0)
        p = vapor_pressure(params, t)
        assert boiling_temperature(params, p) == pytest.approx(t, abs=1e-9)


def test_a_refused_grid_names_one_offending_value():
    # One value in the message, whatever the size of the grid: formatting
    # the whole array cost several times an accepted call.
    params = AntoineParams(10.0, 2000.0, -300.0)
    grid = np.linspace(250.0, 400.0, 15)
    with pytest.raises(AntoineDomainError) as info:
        ln_vapor_pressure(params, grid)
    assert str(info.value) == "C + T must be positive (C=-300.0, T=250.0)"
    pressures = np.array([1e3, 1e4, 1e5, 1e6, 1e7])
    with pytest.raises(AntoineDomainError) as info:
        boiling_temperature(AntoineParams(5.0, 2000.0, -50.0), pressures)
    ln_p = float(np.log(1e6 / 1000.0))
    assert str(info.value) == f"no boiling point: ln(p/kPa)={ln_p} reaches A=5.0"
    assert "[" not in str(info.value)


def test_boiling_no_solution():
    params = AntoineParams(10, 2000, -50)
    with pytest.raises(AntoineDomainError):
        boiling_temperature(params, math.exp(10.0) * 1000.0)
    with pytest.raises(AntoineDomainError):
        boiling_temperature(params, -5.0)
    # The algebraic solution exists but lies off the curve: T <= 0 with
    # C + T > 0, then C + T <= 0 for a negative B.
    with pytest.raises(AntoineDomainError, match=r"T=-297\.3799"):
        boiling_temperature(AntoineParams(5.0, 1.0, 300.0), 101325.0)
    with pytest.raises(AntoineDomainError, match=r"T=-355\.352"):
        boiling_temperature(AntoineParams(12.0, -3627.0, -136.0), 101325.0)
    # An array names its first offending solution.
    with pytest.raises(AntoineDomainError, match=r"T=-297\.3799"):
        boiling_temperature(AntoineParams(5.0, 1.0, 300.0),
                            np.array([101325.0, 1000.0]))


@pytest.mark.parametrize("params, key", [
    (AntoineParams(math.inf, 2000.0, -50.0), "A"),
    (AntoineParams(10.0, math.nan, -50.0), "B"),
    (AntoineParams(10.0, 2000.0, math.nan), "C"),
    (AntoineParams(10.0, 2000.0, -math.inf), "C"),
])
def test_non_finite_parameters_are_a_domain_error(params, key):
    for evaluate in (lambda: ln_vapor_pressure(params, 300.0),
                     lambda: vapor_pressure(params, np.array([300.0, 350.0])),
                     lambda: boiling_temperature(params, 101325.0)):
        with pytest.raises(AntoineDomainError,
                           match=f"Antoine parameter {key} must be finite"):
            evaluate()

# ------------------------------------------------------------ training stage

def random_rows(rng, n):
    """(n, 3) parameters drawn inside PARAM_RANGES."""
    return np.column_stack([rng.uniform(*PARAM_RANGES[key], size=n)
                            for key in ("A", "B", "C")])


def test_ln_p_points_forward_is_the_numpy_evaluator_bitwise():
    rng = np.random.default_rng(8)
    rows = random_rows(rng, 50)
    molecule = rng.integers(0, 50, size=200)
    temps = rng.uniform(250.0, 600.0, size=200)
    expected, valid = _ln_p_kpa(*rows[molecule].T, temps)
    assert valid.sum() > 100 and not valid.all()
    got = ln_p_points(Tensor(rows), molecule[valid], temps[valid]).data
    assert got.tobytes() == expected[valid].tobytes()


def test_ln_p_points_gradient_matches_finite_differences():
    # Repeated molecules: each row's gradient sums over its points.
    rng = np.random.default_rng(9)
    rows = random_rows(rng, 4)
    molecule = np.array([0, 1, 1, 2, 3, 3, 3, 0])
    temps = rng.uniform(-rows[molecule, 2] + 20.0, 600.0)
    weights = rng.normal(size=8)
    analytic = ln_p_points(Tensor(rows), molecule, temps).stages[-1](weights)
    numeric = finite_difference_grad(
        lambda r: ln_p_points(Tensor(r), molecule, temps).data @ weights,
        rows.copy(), h=1e-4)
    assert max_rel_error(analytic, numeric) < 1e-4


def test_ln_p_points_keeps_the_loss_semantics_off_the_branch():
    # No branch mask: C + T < 0 is evaluated on the other branch.
    rows = np.array([[10.0, 2000.0, -299.9]])
    assert ln_p_points(Tensor(rows), [0], [260.0]).item() == pytest.approx(
        10.0 - 2000.0 / -39.9)
    with pytest.raises(NonFiniteError, match="ln_p_points: C \\+ T = 0"):
        ln_p_points(Tensor(rows), [0], [299.9])
    with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match="produced by ln_p_points$"):
        ln_p_points(Tensor([[10.0, 1e308, 0.0]]), [0], [0.5])


# ----------------------------------------------------------------------- head

def head_params(model, h, donors: int, acceptors: int,
                train: bool = False) -> AntoineParams:
    """Head only: a pooled embedding plus raw counts to bounded parameters."""
    raw = head_raw(model, Tensor(np.reshape(h, (1, -1))),
                   np.array([[donors, acceptors]], dtype=np.float64), train)
    return AntoineParams(
        *scale_to_ranges(raw, PARAM_RANGES).data[0].tolist())


def midpoints():
    return tuple((lo + hi) / 2 for lo, hi in (PARAM_RANGES["A"],
                                              PARAM_RANGES["B"],
                                              PARAM_RANGES["C"]))


def test_zero_raw_outputs_hit_range_midpoints():
    # Zero weights in the output layer leave the raw outputs at zero.
    model = init_model(Architecture(), seed=0)
    model.params["head.out.weight"][...] = 0.0
    model.params["head.out.bias"][...] = 0.0
    params = head_params(model, np.zeros(32), 1, 2)
    a_mid, b_mid, c_mid = midpoints()
    assert params.A == pytest.approx(a_mid)  # 12.5
    assert params.B == pytest.approx(b_mid)  # 3750
    assert params.C == pytest.approx(c_mid)  # -150


def test_saturated_raw_outputs_hit_bounds():
    model = init_model(Architecture(), seed=0)
    model.params["head.out.weight"][...] = 0.0
    model.params["head.out.bias"][...] = 1e3
    params = head_params(model, np.zeros(32), 0, 0)
    assert params.A == pytest.approx(20.0)
    assert params.B == pytest.approx(6000.0)
    assert params.C == pytest.approx(0.0)
    model.params["head.out.bias"][...] = -1e3
    params = head_params(model, np.zeros(32), 0, 0)
    assert params.A == pytest.approx(5.0)
    assert params.B == pytest.approx(1500.0)
    assert params.C == pytest.approx(-300.0)


def test_head_outputs_strictly_inside_open_ranges():
    rng = np.random.default_rng(2)
    for seed in range(20):
        model = init_model(Architecture(hidden_layers=2), seed=seed)
        h = rng.normal(size=32) * 10
        params = head_params(model, h, int(rng.integers(0, 5)),
                              int(rng.integers(0, 8)))
        assert PARAM_RANGES["A"][0] < params.A < PARAM_RANGES["A"][1]
        assert PARAM_RANGES["B"][0] < params.B < PARAM_RANGES["B"][1]
        assert PARAM_RANGES["C"][0] < params.C < PARAM_RANGES["C"][1]


def test_head_train_mode_needs_batch():
    model = init_model(Architecture(), seed=0)
    with pytest.raises(ShapeError):
        head_params(model, np.zeros(32), 1, 1, train=True)


# -------------------------------------------------------------------- predict

def test_predict_deterministic_and_spelling_invariant():
    model = init_model(Architecture(), seed=3)
    first = predict(model, "CCO", temperatures=298.15)
    second = predict(model, "CCO", temperatures=298.15)
    assert first.params == second.params
    assert first.ln_p_kpa == second.ln_p_kpa
    respelled = predict(model, "OCC", temperatures=298.15)
    assert respelled.params.A == pytest.approx(first.params.A, abs=1e-9)
    assert respelled.params.B == pytest.approx(first.params.B, abs=1e-9)
    assert respelled.params.C == pytest.approx(first.params.C, abs=1e-9)


def test_predict_rejects_out_of_scope():
    model = init_model(Architecture(), seed=4)
    for smiles in ("O=S(=O)(O)O", "[NH4+]"):
        with pytest.raises(ScopeError) as err:
            predict(model, smiles)
        reasons = validate_scope(parse_smiles(smiles)).reasons
        assert reasons and err.value.reasons == tuple(reasons)


def test_untrained_predictions_stay_in_ranges():
    model = init_model(Architecture(), seed=5)
    for smiles in ("CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O"):
        pred = predict(model, smiles)
        assert pred.params.in_ranges()


def test_predict_vector_temperatures():
    model = init_model(Architecture(), seed=6)
    temps = np.array([280.0, 300.0, 320.0])
    pred = predict(model, "CCO", temperatures=temps)
    assert pred.ln_p_kpa.shape == (3,)
    assert (np.diff(pred.ln_p_kpa) > 0).all()


def test_predict_boiling_round_trip():
    model = init_model(Architecture(), seed=7)
    pred = predict(model, "CCO", boil_pressure_pa=101325.0)
    check = vapor_pressure(pred.params, pred.boiling_k)
    assert check == pytest.approx(101325.0, rel=1e-9)
