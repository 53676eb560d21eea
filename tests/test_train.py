import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grappa.model import (Architecture, forward_antoine, init_model,
                          model_from_checkpoint, prepare_components,
                          to_checkpoint)
from grappa.tensor import NonFiniteError, Tensor
from grappa.train import (
    AdamWState,
    PlateauState,
    TrainConfig,
    TrainingError,
    _batch_loss,
    adamw_step,
    fit,
    grid_cells,
    history_csv,
    loss_huber,
    loss_mse,
    one_cycle_lr,
    one_cycle_peak_step,
    plateau_lr,
    validation_mape_i,
)

from _oracles import (
    TapeTensor,
    matmul,
    mean_all,
    mul,
    recording,
    reference_adamw_step,
    sub,
    synthetic_dataset,
    tape_batch_loss,
    tape_forward_antoine,
)


# -------------------------------------------------------------------- losses

def test_losses_on_identical_vectors_are_zero():
    x = np.array([0.1, -2.0, 3.5])
    assert loss_mse(x, x).item() == 0.0
    assert loss_huber(x, x).item() == 0.0


def test_loss_values_for_unit_residuals():
    pred = np.array([1.0, -1.0])
    target = np.zeros(2)
    assert loss_mse(pred, target).item() == pytest.approx(1.0)


def test_mse_half_residual():
    assert loss_mse(np.array([0.5]), np.array([0.0])).item() == pytest.approx(0.25)


def test_huber_branches_and_continuity():
    delta = 0.5
    assert loss_huber(np.array([0.3]), np.zeros(1), delta).item() == pytest.approx(0.045)
    assert loss_huber(np.array([1.0]), np.zeros(1), delta).item() == pytest.approx(0.375)
    # Both branch formulas agree at |r| = delta.
    quad = 0.5 * delta**2
    lin = delta * (delta - 0.5 * delta)
    assert quad == pytest.approx(lin) == pytest.approx(0.125)
    at_delta = loss_huber(np.array([delta]), np.zeros(1), delta).item()
    assert at_delta == pytest.approx(0.125)


def test_huber_is_half_mse_inside_threshold():
    rng = np.random.default_rng(0)
    r = rng.uniform(-0.5, 0.5, size=20)
    huber_val = loss_huber(r, np.zeros_like(r), 0.5).item()
    mse_val = loss_mse(r, np.zeros_like(r)).item()
    assert huber_val == pytest.approx(mse_val / 2.0, rel=1e-12)


def test_huber_c1_continuity_numerically():
    delta = 0.5
    eps = 1e-7
    lo = loss_huber(np.array([delta - eps]), np.zeros(1), delta).item()
    hi = loss_huber(np.array([delta + eps]), np.zeros(1), delta).item()
    slope_lo = (loss_huber(np.array([delta]), np.zeros(1), delta).item() - lo) / eps
    slope_hi = (hi - loss_huber(np.array([delta]), np.zeros(1), delta).item()) / eps
    assert abs(hi - lo) < 1e-6
    assert slope_lo == pytest.approx(slope_hi, abs=1e-5)


def test_losses_reject_empty_and_mismatched():
    with pytest.raises(ValueError):
        loss_mse(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        loss_mse(np.zeros(3), np.zeros(2))


# ------------------------------------------------------------------- optimizer

def zero_state(size: int) -> AdamWState:
    return AdamWState(np.zeros(size), np.zeros(size))


def test_adamw_zero_grad_no_decay_is_identity():
    weights = np.array([1.0, -2.0])
    adamw_step(weights, np.zeros(2), zero_state(2), lr=0.1,
               weight_decay=0.0)
    np.testing.assert_array_equal(weights, [1.0, -2.0])


def test_adamw_decay_only_shrinks_by_factor():
    weights = np.array([2.0])
    adamw_step(weights, np.zeros(1), zero_state(1), lr=0.1,
               weight_decay=0.01)
    assert weights[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01))


def test_adamw_single_step_matches_hand_reference():
    # One step on f(x) = x^2 from x = 1: gradient 2.
    lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
    x = 1.0
    g = 2.0
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    expected = x * (1 - lr * wd) - lr * mhat / (math.sqrt(vhat) + eps)

    weights = np.array([1.0])
    adamw_step(weights, np.array([2.0]), zero_state(1), lr=lr,
               betas=(b1, b2), eps=eps, weight_decay=wd)
    assert weights[0] == pytest.approx(expected, rel=1e-15)


def test_adamw_converges_on_quadratic():
    weights = np.array([5.0])
    state = zero_state(1)
    for _ in range(500):
        adamw_step(weights, 2.0 * weights, state, lr=0.05, weight_decay=0.0)
    assert state.step == 500
    assert abs(weights[0]) < 1e-2


def test_one_step_descends_on_convex_toy():
    # Linear model, quadratic loss: a single small-lr step must improve.
    rng = np.random.default_rng(5)
    features = rng.normal(size=(20, 3))
    target = features @ np.array([[1.0], [-2.0], [0.5]])
    w = TapeTensor(rng.normal(size=(3, 1)), requires_grad=True)

    def loss_value():
        d = sub(matmul(TapeTensor(features), w), TapeTensor(target))
        return mean_all(mul(d, d))

    before = loss_value()
    before.backward()
    adamw_step(w.data.reshape(-1), w.grad.reshape(-1), zero_state(3),
               lr=1e-3, weight_decay=0.0)
    assert loss_value().item() < before.item()


def test_adamw_rejects_non_finite_grads():
    for bad in (np.nan, np.inf, -np.inf):
        weights = np.array([1.0, 2.0])
        state = zero_state(2)
        with pytest.raises(NonFiniteError):
            adamw_step(weights, np.array([0.5, bad]), state, lr=0.1)
        # Nothing moved: not the weights, the moments or the step count.
        np.testing.assert_array_equal(weights, [1.0, 2.0])
        assert state.step == 0 and not state.m.any() and not state.v.any()


@pytest.mark.parametrize("pooling", ["interaction", "sum"])
def test_flat_adamw_is_the_bytes_of_the_per_tensor_update(pooling):
    model = init_model(Architecture(pooling=pooling, gat_layers=2, heads=2,
                                    hidden_layers=2), seed=11)
    params = model.named_parameters()
    expected = {name: arr.copy() for name, arr in params.items()}
    reference_state = {}
    state = zero_state(model.weights.size)
    comps = prepare_components(synthetic_dataset(points_per_component=3)[0])
    comps = comps.take(np.arange(6))
    for step in range(4):
        _batch_loss(model, comps, loss_mse).backward()
        running = {name: buf.copy()
                   for name, buf in model.named_buffers().items()}
        grads = {name: g.copy() for name, g in model.grads.items()}
        lr = 0.01 * (step + 1)
        reference_adamw_step(expected, grads, reference_state, lr,
                             weight_decay=0.05)
        adamw_step(model.weights, model.grad.copy(), state, lr,
                   weight_decay=0.05)
        for name, arr in params.items():
            assert arr.tobytes() == expected[name].tobytes(), (step, name)
        # The step leaves the batch-norm statistics where the forward put them.
        for name, buf in model.named_buffers().items():
            assert buf.tobytes() == running[name].tobytes(), name


GRID_ARCHS = {
    "default": {},
    "sum-pooling": {"pooling": "sum"},
    "heads-1": {"heads": 1},
    "heads-5": {"heads": 5},
    "gat-layers-2": {"gat_layers": 2},
    "gat-layers-5": {"gat_layers": 5},
    "hidden-layers-1": {"hidden_layers": 1},
}


@pytest.mark.parametrize("delta", [None, 0.5], ids=["mse", "huber"])
@pytest.mark.parametrize("arch", GRID_ARCHS.values(), ids=GRID_ARCHS.keys())
def test_backward_writes_the_oracle_tape_gradient_bytes(arch, delta):
    # The grid-search architectures, not just the default the fixed-seed fit
    # digest covers: one backward of a training loss writes every entry of
    # the gradient vector, with the bytes of the general tape's per-parameter
    # grads, and moves the running statistics as the tape's forward did.
    model = init_model(Architecture(**arch), seed=21)
    comps = prepare_components(synthetic_dataset(points_per_component=3)[0])
    comps = comps.take(np.arange(7))
    start = model.snapshot()
    loss, tape_params = tape_batch_loss(model, comps, delta)
    loss.backward()
    tape_values = model.snapshot()
    model.restore(start)
    model.grad[...] = np.nan
    loss_fn = loss_mse if delta is None else partial(loss_huber, delta=delta)
    ours = _batch_loss(model, comps, loss_fn)
    assert ours.data.tobytes() == loss.data.tobytes()
    ours.backward()
    assert np.isfinite(model.grad).all()
    for name, grad in model.grads.items():
        assert np.shares_memory(grad, model.grad), name
        assert grad.tobytes() == tape_params[name].grad.tobytes(), name
    assert model.values.tobytes() == tape_values.tobytes()
    # The named views tile the gradient vector, each element once, so every
    # element was compared.
    model.grad[...] = 0.0
    for grad in model.grads.values():
        grad += 1.0
    assert (model.grad == 1.0).all()


ODD_WIDTH_COMPS = prepare_components(
    synthetic_dataset(points_per_component=3)[0]).take(np.arange(5))


@settings(deadline=None, max_examples=20)
@given(heads=st.integers(1, 5), embed_dim=st.sampled_from([5, 20, 32]),
       pooling=st.sampled_from(["sum", "interaction"]))
def test_odd_block_widths_match_the_oracle_tape(heads, embed_dim, pooling):
    # Heads x width from 5 to 160 columns: block widths that are and are not
    # multiples of 16, so the product pads some blocks and not others.
    model = init_model(Architecture(heads=heads, embed_dim=embed_dim,
                                    pooling=pooling), seed=heads + embed_dim)
    comps = ODD_WIDTH_COMPS
    params = {name: TapeTensor(np.ascontiguousarray(value), name=name)
              for name, value in model.params.items()}
    with recording(False):
        want = tape_forward_antoine(model, comps.graphs, params).data
    assert forward_antoine(model, comps.graphs).data.tobytes() == want.tobytes()
    start = model.snapshot()
    loss, tape_params = tape_batch_loss(model, comps)
    loss.backward()
    model.restore(start)
    _batch_loss(model, comps, loss_mse).backward()
    for name, grad in model.grads.items():
        assert grad.tobytes() == tape_params[name].grad.tobytes(), name
    doc = to_checkpoint(model)
    loaded = model_from_checkpoint(json.loads(json.dumps(doc)))
    assert json.dumps(to_checkpoint(loaded)) == json.dumps(doc)
    assert loaded.values.tobytes() == model.values.tobytes()


# ------------------------------------------------------------------- schedules

def test_one_cycle_peaks_at_max_lr():
    total = 100
    peak = one_cycle_peak_step(total)
    assert one_cycle_lr(peak, total, 0.001) == pytest.approx(0.001)


def test_one_cycle_endpoints():
    total = 200
    assert one_cycle_lr(0, total, 1e-3) == pytest.approx(1e-3 / 25.0)
    assert one_cycle_lr(total - 1, total, 1e-3) == pytest.approx(1e-3 / 1e4)


def test_one_cycle_rises_then_falls():
    total = 50
    values = [one_cycle_lr(s, total, 1e-3) for s in range(total)]
    peak_index = int(np.argmax(values))
    # Integer steps straddle the exact (fractional) peak.
    assert values[peak_index] == pytest.approx(1e-3, rel=1e-3)
    assert all(np.diff(values[: peak_index + 1]) >= 0)
    assert all(np.diff(values[peak_index:]) <= 0)


def test_one_cycle_validates_total():
    with pytest.raises(ValueError):
        one_cycle_lr(0, 0, 1e-3)


def test_plateau_constant_while_improving():
    state = PlateauState(lr=1.0, patience=5)
    for metric in (10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0):
        lr = plateau_lr(state, metric)
    assert lr == 1.0


def test_plateau_halves_after_six_flat_epochs():
    state = PlateauState(lr=1.0, factor=0.5, patience=5)
    plateau_lr(state, 10.0)  # establishes the best
    for _ in range(5):
        assert plateau_lr(state, 10.0) == 1.0
    assert plateau_lr(state, 10.0) == 0.5
    # Counter resets after the drop.
    assert plateau_lr(state, 10.0) == 0.5


# ------------------------------------------------------------------------ fit

def small_cfg(**overrides):
    base = dict(batch_size=8, warmup_epochs=3, main_epochs=3, max_lr=0.003,
                seed=11)
    base.update(overrides)
    return TrainConfig(**base)


def test_fit_requires_disjoint_components():
    ds, _ = synthetic_dataset(points_per_component=4)
    train_set = ds.subset("train")
    cfg = small_cfg()
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=0)
    with pytest.raises(ValueError):
        fit(model, train_set, train_set, cfg)


def test_fit_rejects_a_single_training_molecule_before_featurizing(monkeypatch):
    import grappa.model

    ds, _ = synthetic_dataset(points_per_component=4)
    one = ds.subset("train")
    first = one.components()[0]
    one.points = [pt for pt in one.points if pt.component_id == first]

    def no_featurize(*_):
        raise AssertionError("featurized before the size check")

    monkeypatch.setattr(grappa.model, "featurize", no_featurize)
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        fit(model, one, ds.subset("valid"), small_cfg())


def test_a_non_finite_gradient_fails_fit_with_its_context(monkeypatch):
    import grappa.train

    real = grappa.train._batch_loss

    def poisoned(model, comps, loss):
        # A finite loss whose backward ends by sending inf to one parameter.
        value = real(model, comps, loss)

        def poison(g):
            model.grads["head.0.bias"][...] = np.inf
            return g

        return Tensor(value.data, (poison,) + value.stages)

    monkeypatch.setattr(grappa.train, "_batch_loss", poisoned)
    ds, _ = synthetic_dataset(points_per_component=4)
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=0)
    before = model.snapshot()
    with pytest.raises(TrainingError, match=r"non-finite gradient of "
                       r"'head\.0\.bias' in warmup epoch 1 \(components \[") \
            as caught:
        fit(model, ds.subset("train"), ds.subset("valid"), small_cfg())
    assert isinstance(caught.value.__cause__, NonFiniteError)
    # The failed step moved no weight; the forward moved the running
    # statistics, which follow the weights in the vector.
    n = model.parameter_count()
    assert model.values[:n].tobytes() == before[:n].tobytes()


def test_fit_history_and_best_selection():
    ds, _ = synthetic_dataset(points_per_component=5)
    cfg = small_cfg()
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=1)
    result = fit(model, ds.subset("train"), ds.subset("valid"), cfg)
    assert len(result.history) == cfg.warmup_epochs + cfg.main_epochs
    phases = [row["phase"] for row in result.history]
    assert phases == ["warmup"] * 3 + ["main"] * 3
    recorded = [row["valid_mape_i"] for row in result.history]
    assert result.best_valid_mape_i == pytest.approx(min(recorded))
    assert result.best_valid_mape_i <= recorded[-1]
    # The model was left restored to the best checkpoint.
    valid_comps = prepare_components(ds.subset("valid"))
    assert validation_mape_i(model, valid_comps) == pytest.approx(
        result.best_valid_mape_i)


def test_fit_loss_history_is_bitwise_reproducible():
    ds, _ = synthetic_dataset(points_per_component=4)
    runs = []
    for _ in range(2):
        cfg = small_cfg(warmup_epochs=2, main_epochs=2)
        model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                           seed=2)
        result = fit(model, ds.subset("train"), ds.subset("valid"), cfg)
        runs.append([(row["train_loss"], row["valid_mape_i"], row["lr"])
                     for row in result.history])
    assert runs[0] == runs[1]


def test_fit_decreases_training_loss():
    ds, _ = synthetic_dataset(points_per_component=5)
    cfg = small_cfg(warmup_epochs=8, main_epochs=4)
    model = init_model(Architecture(gat_layers=2, heads=1, hidden_layers=1),
                       seed=3)
    result = fit(model, ds.subset("train"), ds.subset("valid"), cfg)
    losses = [row["train_loss"] for row in result.history]
    assert losses[-1] < losses[0]


def test_history_csv_layout():
    rows = [{"epoch": 1, "phase": "warmup", "lr": 0.001, "train_loss": 2.0,
             "valid_mape_i": 50.0}]
    text = history_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,phase,lr,train_loss,valid_mape_i"
    assert lines[1].startswith("1,warmup,0.001,")


def test_config_validation_and_grid_bounds():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    TrainConfig(batch_size=2)
    with pytest.raises(ValueError):
        TrainConfig(grid_gat_layers=(1, 2))
    with pytest.raises(ValueError):
        TrainConfig(grid_pooling=("mean",))
    for setting in ({"main_lr": -0.01}, {"main_lr": 0.0},
                    {"weight_decay": -1.0}, {"eps": 0.0}, {"eps": -1e-8},
                    {"betas": (1.5, 0.999)}, {"betas": (0.9, 1.0)},
                    {"betas": (-0.1, 0.999)}, {"plateau_factor": 2.0},
                    {"plateau_factor": 1.0}, {"plateau_factor": 0.0}):
        with pytest.raises(ValueError, match=next(iter(setting))):
            TrainConfig(**setting)
    TrainConfig(weight_decay=0.0, betas=(0.0, 0.0), main_lr=1e-9, eps=1e-300,
                plateau_factor=0.999)
    cfg = TrainConfig.from_dict({"batch_size": 16, "betas": [0.9, 0.99]})
    assert cfg.batch_size == 16 and cfg.betas == (0.9, 0.99)


def test_full_grid_has_120_cells():
    assert len(grid_cells(TrainConfig())) == 4 * 5 * 3 * 2


def test_grid_of_one_matches_single_fit():
    from grappa.train import grid_search

    ds, _ = synthetic_dataset(points_per_component=4)
    cfg = small_cfg(warmup_epochs=2, main_epochs=2,
                    grid_gat_layers=(2,), grid_heads=(1,),
                    grid_hidden_layers=(1,), grid_pooling=("interaction",))
    rows = grid_search(cfg, ds.subset("train"), ds.subset("valid"))
    assert len(rows) == 1
    model = init_model(
        Architecture(gat_layers=2, heads=1, hidden_layers=1),
        seed=np.random.SeedSequence([cfg.seed, 0]))
    result = fit(model, ds.subset("train"), ds.subset("valid"), cfg)
    assert rows[0]["best_valid_mape_i"] == result.best_valid_mape_i
    assert rows[0]["rank"] == 1


def test_grid_search_rejects_jobs_below_one():
    from grappa.train import grid_search

    ds, _ = synthetic_dataset(points_per_component=4)
    cfg = small_cfg(warmup_epochs=1, main_epochs=1, grid_gat_layers=(2,),
                    grid_heads=(1,), grid_hidden_layers=(1,),
                    grid_pooling=("sum",))
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        grid_search(cfg, ds.subset("train"), ds.subset("valid"), jobs=0)
