"""Losses, optimizer, schedulers, the two-phase fit loop, and grid search.

Training runs in two phases: a squared-error warm-up under a one-cycle
learning rate, then a Huber-loss main phase under a reduce-on-plateau rate.
After every epoch the validation median percentage error is computed and a
copy of the best epoch's weight vector is kept (early-stopping selection).

A training batch holds whole molecules (at least two, so batch
normalization sees a molecule batch) and runs as one linear chain of stages:
the model's forward, one Antoine stage (``antoine.ln_p_points``) and one
loss stage, which averages over the data points. ``Tensor.backward`` on the
loss writes every weight's gradient into ``GrappaModel.grad``, which
``adamw_step`` takes as it is.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import product

import numpy as np

from .antoine import PA_PER_KPA, ln_p_points
from .dataio import VpDataset, huber_rho
from .metrics import ape_i_array
from .model import (
    Architecture,
    Components,
    GrappaModel,
    _is_finite_number,
    forward_antoine,
    init_model,
    predict_components,
    prepare_components,
    refuse_unknown_keys,
)
from .tensor import NonFiniteError, Tensor, _stage

GRID_GAT_LAYERS = (2, 3, 4, 5)
GRID_HEADS = (1, 2, 3, 4, 5)
GRID_HIDDEN_LAYERS = (1, 2, 3)
GRID_POOLING = ("sum", "interaction")

HISTORY_COLUMNS = ("epoch", "phase", "lr", "train_loss", "valid_mape_i")


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built and never changed after."""

    batch_size: int = 512
    warmup_epochs: int = 100
    # The main-phase budget; reported values differ between 100 and 200
    # depending on the source, so it stays configurable.
    main_epochs: int = 200
    huber_delta: float = 0.5
    max_lr: float = 0.001
    # Starting rate of the plateau-scheduled main phase; defaults to max_lr.
    main_lr: float | None = None
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    seed: int = 0
    standardize_counts: bool = False
    grid_gat_layers: tuple[int, ...] = GRID_GAT_LAYERS
    grid_heads: tuple[int, ...] = GRID_HEADS
    grid_hidden_layers: tuple[int, ...] = GRID_HIDDEN_LAYERS
    grid_pooling: tuple[str, ...] = GRID_POOLING

    def __post_init__(self):
        for name, (ok, kind) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"train {name} must be {kind}, got {value!r}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2: batch norm "
                             "normalizes over the molecules of a batch")
        for name in ("warmup_epochs", "main_epochs", "huber_delta", "max_lr",
                     "plateau_patience", "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.main_lr is not None and self.main_lr <= 0:
            raise ValueError("main_lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must not be negative")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if not all(0 <= beta < 1 for beta in self.betas):
            raise ValueError("betas must each lie in [0, 1)")
        if not 0 < self.plateau_factor < 1:
            raise ValueError("plateau_factor must lie in (0, 1)")
        for name, supported in (("grid_gat_layers", GRID_GAT_LAYERS),
                                ("grid_heads", GRID_HEADS),
                                ("grid_hidden_layers", GRID_HIDDEN_LAYERS),
                                ("grid_pooling", GRID_POOLING)):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
            if not set(getattr(self, name)) <= set(supported):
                raise ValueError(f"{name} outside the supported set")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ValueError(f"train must be an object, got {type(data).__name__}")
        refuse_unknown_keys("train", data, {f.name for f in fields(cls)})
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in data.items()})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_seq(item_ok, length=None):
    return lambda value: (isinstance(value, (list, tuple))
                          and length in (None, len(value))
                          and all(map(item_ok, value)))


_INT = (_is_int, "an integer")
_REAL = (_is_finite_number, "a finite number")
# The type of every TrainConfig field, checked before any range.
_FIELD_TYPES = {
    "batch_size": _INT, "warmup_epochs": _INT, "main_epochs": _INT,
    "huber_delta": _REAL, "max_lr": _REAL,
    "main_lr": (lambda v: v is None or _is_finite_number(v),
                "null or a finite number"),
    "plateau_factor": _REAL, "plateau_patience": _INT, "weight_decay": _REAL,
    "betas": (_is_seq(_is_finite_number, 2), "two finite numbers"),
    "eps": _REAL, "seed": _INT,
    "standardize_counts": (lambda v: isinstance(v, bool), "true or false"),
    "grid_gat_layers": (_is_seq(_is_int), "a list of integers"),
    "grid_heads": (_is_seq(_is_int), "a list of integers"),
    "grid_hidden_layers": (_is_seq(_is_int), "a list of integers"),
    "grid_pooling": (_is_seq(lambda v: isinstance(v, str)), "a list of strings"),
}


# -------------------------------------------------------------------- losses

def _residual(pred_ln_p, exp_ln_p) -> tuple[Tensor, np.ndarray]:
    """The prediction as a tensor, and its residual against the target."""
    pred = pred_ln_p if isinstance(pred_ln_p, Tensor) else Tensor(pred_ln_p)
    target = np.asarray(exp_ln_p, dtype=np.float64)
    if pred.size == 0:
        raise ValueError("empty batch")
    if pred.shape != target.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {target.shape}")
    return pred, pred.data - target


def loss_mse(pred_ln_p, exp_ln_p) -> Tensor:
    """Mean squared residual, as the loss stage after ``pred_ln_p``."""
    pred, d = _residual(pred_ln_p, exp_ln_p)

    def backward(g):
        half = g / d.size * d  # each factor of d * d sends this half
        return half + half

    return _stage(pred, np.asarray((d * d).mean()), "loss_mse", (), backward)


def loss_huber(pred_ln_p, exp_ln_p, delta: float = 0.5) -> Tensor:
    """Mean Huber value of the residual, quadratic inside ``delta`` and
    linear outside, as the loss stage after ``pred_ln_p``."""
    pred, d = _residual(pred_ln_p, exp_ln_p)
    if delta <= 0:
        raise ValueError("delta must be positive")

    def backward(g):
        return np.clip(d, -delta, delta) * (g / d.size)

    return _stage(pred, np.asarray(huber_rho(d, delta).mean()), "loss_huber",
                  (), backward)


# ------------------------------------------------------------------ optimizer

@dataclass
class AdamWState:
    m: np.ndarray  # first moment, one entry per weight
    v: np.ndarray  # second moment, one entry per weight
    step: int = 0


def adamw_step(weights: np.ndarray, grad: np.ndarray, state: AdamWState,
               lr: float, betas: tuple[float, float] = (0.9, 0.999),
               eps: float = 1e-8, weight_decay: float = 0.01):
    """One decoupled-weight-decay Adam update of the ``weights`` vector, in
    place. Each operation is elementwise, so a concatenation of arrays gets
    the bytes that the arrays would get one by one."""
    if not np.isfinite(grad).all():
        raise NonFiniteError("non-finite gradient")
    b1, b2 = betas
    state.step += 1
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    state.m = b1 * state.m + (1.0 - b1) * grad
    state.v = b2 * state.v + (1.0 - b2) * grad * grad
    weights *= 1.0 - lr * weight_decay
    weights -= lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + eps)


# ------------------------------------------------------------------ schedules

ONE_CYCLE_PCT_START = 0.3
ONE_CYCLE_DIV_FACTOR = 25.0
ONE_CYCLE_FINAL_DIV_FACTOR = 1e4


def one_cycle_peak_step(total_steps: int) -> float:
    return ONE_CYCLE_PCT_START * (total_steps - 1)


def one_cycle_lr(step: float, total_steps: int, max_lr: float) -> float:
    """Cosine warm-up from ``max_lr / 25`` to ``max_lr`` over the first 30%
    of steps, then cosine anneal down to ``max_lr / 1e4``."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if total_steps == 1:
        return max_lr
    start = max_lr / ONE_CYCLE_DIV_FACTOR
    final = max_lr / ONE_CYCLE_FINAL_DIV_FACTOR
    peak = one_cycle_peak_step(total_steps)
    s = min(max(float(step), 0.0), float(total_steps - 1))
    if s <= peak:
        if peak == 0:
            return max_lr
        frac = s / peak
        return start + (max_lr - start) * (1.0 - math.cos(math.pi * frac)) / 2.0
    frac = (s - peak) / (total_steps - 1 - peak)
    return final + (max_lr - final) * (1.0 + math.cos(math.pi * frac)) / 2.0


@dataclass
class PlateauState:
    lr: float
    factor: float = 0.5
    patience: int = 5
    best: float = math.inf
    num_bad: int = 0


def plateau_lr(state: PlateauState, val_metric: float) -> float:
    """Halve the rate after ``patience`` consecutive epochs without a new best."""
    if val_metric < state.best:
        state.best = val_metric
        state.num_bad = 0
    else:
        state.num_bad += 1
        if state.num_bad > state.patience:
            state.lr *= state.factor
            state.num_bad = 0
    return state.lr


# ------------------------------------------------------------------- fitting

def _batches(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    # Batch norm needs at least two molecules; fold a trailing singleton in.
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _batch_loss(model: GrappaModel, comps: Components, loss) -> Tensor:
    """``loss(pred, target)`` of a training forward over the batch, in
    ln(p/kPa) at every point: the end of the batch's chain of stages."""
    params = forward_antoine(model, comps.graphs, train=True)
    target = np.log(comps.pressures_pa / PA_PER_KPA)
    pred = ln_p_points(params, comps.molecule, comps.temperatures)
    return loss(pred, target)


def validation_mape_i(model: GrappaModel, comps: Components) -> float:
    """Median absolute percentage error over all validation points; points on
    a curve's invalid branch (C + T <= 0) count as infinite error."""
    _, _, p_pred = predict_components(model, comps)
    return float(np.median(ape_i_array(p_pred, comps.pressures_pa)))


@dataclass
class FitResult:
    history: list[dict]
    best_epoch: int
    best_valid_mape_i: float


def history_csv(history: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=HISTORY_COLUMNS)
    writer.writeheader()
    for row in history:
        writer.writerow({key: row[key] for key in HISTORY_COLUMNS})
    return out.getvalue()


def _check_sets(train_set: VpDataset, valid_set: VpDataset):
    """Raise ``ValueError`` unless the sets can train a model: two or more
    training molecules, a validation set, and no component in both."""
    train_components = set(train_set.components())
    valid_components = set(valid_set.components())
    if len(train_components) < 2:
        raise ValueError("training needs at least 2 molecules: batch norm "
                         "normalizes over the molecules of a batch")
    if not valid_components:
        raise ValueError("the validation set must be non-empty")
    overlap = train_components & valid_components
    if overlap:
        raise ValueError(f"components in both train and valid: {sorted(overlap)}")


def fit(model: GrappaModel, train_set: VpDataset, valid_set: VpDataset,
        cfg: TrainConfig) -> FitResult:
    """Two-phase training; leaves ``model`` restored to its best epoch, and
    with ``cfg.standardize_counts`` on a new ``arch`` with count statistics."""
    _check_sets(train_set, valid_set)
    return _fit_prepared(model, prepare_components(train_set),
                         prepare_components(valid_set), cfg)


def _fit_prepared(model: GrappaModel, train_comps: Components,
                  valid_comps: Components, cfg: TrainConfig) -> FitResult:
    """:func:`fit` on sets already checked and prepared, which any number
    of fits may share: a fit reads them and changes nothing in them."""
    if cfg.standardize_counts:
        donors = np.array([g.h_donors for g in train_comps.graphs], dtype=float)
        accept = np.array([g.h_acceptors for g in train_comps.graphs], dtype=float)
        model.arch = replace(model.arch, count_scale=(
            donors.mean(), max(donors.std(), 1e-8),
            accept.mean(), max(accept.std(), 1e-8)))

    rng = np.random.default_rng(cfg.seed)
    weights, grad = model.weights, model.grad
    history: list[dict] = []
    best_valid = math.inf
    best_epoch = -1
    best_state = model.snapshot()
    epoch = 0
    n_batches = len(_batches(np.arange(len(train_comps.names)), cfg.batch_size))
    total_warm_steps = cfg.warmup_epochs * n_batches

    phases = (("warmup", cfg.warmup_epochs, loss_mse),
              ("main", cfg.main_epochs,
               partial(loss_huber, delta=cfg.huber_delta)))
    for phase, n_epochs, loss_fn in phases:
        opt_state = AdamWState(np.zeros_like(weights), np.zeros_like(weights))
        plateau = PlateauState(cfg.main_lr if cfg.main_lr is not None
                               else cfg.max_lr,
                               cfg.plateau_factor, cfg.plateau_patience)
        step = 0
        for _ in range(n_epochs):
            epoch += 1
            order = rng.permutation(len(train_comps.names))
            losses = []
            for batch in _batches(order, cfg.batch_size):
                comps = train_comps.take(batch)
                lr = (one_cycle_lr(step, total_warm_steps, cfg.max_lr)
                      if phase == "warmup" else plateau.lr)
                try:
                    loss = _batch_loss(model, comps, loss_fn)
                    loss.backward()
                except NonFiniteError as err:
                    raise TrainingError(
                        f"non-finite loss in {phase} epoch {epoch} "
                        f"(components {comps.names}): {err}"
                    ) from err
                try:
                    adamw_step(weights, grad, opt_state, lr, cfg.betas,
                               cfg.eps, cfg.weight_decay)
                except NonFiniteError as err:
                    name = next(name for name, g in model.grads.items()
                                if not np.isfinite(g).all())
                    raise TrainingError(
                        f"non-finite gradient of {name!r} in {phase} epoch "
                        f"{epoch} (components {comps.names})"
                    ) from err
                losses.append(loss.item())
                step += 1
            valid_mape = validation_mape_i(model, valid_comps)
            if phase == "main":
                plateau_lr(plateau, valid_mape)
            history.append({
                "epoch": epoch,
                "phase": phase,
                "lr": lr,
                "train_loss": float(np.mean(losses)),
                "valid_mape_i": valid_mape,
            })
            if valid_mape < best_valid:
                best_valid = valid_mape
                best_epoch = epoch
                best_state = model.snapshot()

    model.restore(best_state)
    return FitResult(history, best_epoch, best_valid)


# ---------------------------------------------------------------- grid search

def grid_cells(cfg: TrainConfig) -> list[dict]:
    return [
        {"gat_layers": l, "heads": h, "hidden_layers": d, "pooling": p}
        for l, h, d, p in product(cfg.grid_gat_layers, cfg.grid_heads,
                                  cfg.grid_hidden_layers, cfg.grid_pooling)
    ]


def _run_cell(args) -> dict:
    index, cell, cfg, train_comps, valid_comps = args
    arch = Architecture(gat_layers=cell["gat_layers"], heads=cell["heads"],
                        hidden_layers=cell["hidden_layers"],
                        pooling=cell["pooling"])
    model = init_model(arch, seed=np.random.SeedSequence([cfg.seed, index]))
    result = _fit_prepared(model, train_comps, valid_comps, cfg)
    return {
        "cell": index,
        **cell,
        "best_valid_mape_i": result.best_valid_mape_i,
        "best_epoch": result.best_epoch,
    }


def grid_search(cfg: TrainConfig, train_set: VpDataset, valid_set: VpDataset,
                jobs: int = 1) -> list[dict]:
    """Train every grid cell and rank by validation median percentage error.

    The sets are checked once and prepared once, and every cell trains on
    the same prepared sets. The ranking is total and deterministic: ties
    break on cell index.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _check_sets(train_set, valid_set)
    sets = (prepare_components(train_set), prepare_components(valid_set))
    args = [(i, cell, cfg, *sets) for i, cell in enumerate(grid_cells(cfg))]
    if jobs > 1:
        # Imported here: it loads multiprocessing, which nothing else needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_cell, args))
    else:
        rows = [_run_cell(a) for a in args]
    rows.sort(key=lambda r: (r["best_valid_mape_i"], r["cell"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows
