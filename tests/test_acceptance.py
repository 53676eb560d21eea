"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Published-scale error scores require the proprietary
measurement database, so acceptance rests on the property checks below.
"""

from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from grappa.antoine import (
    PARAM_RANGES,
    AntoineParams,
    boiling_temperature,
    ln_p_points,
    vapor_pressure,
)
from grappa.dataio import curate, robust_antoine_fit
from grappa.featurize import featurize
from grappa.gnn import GatLayer, GraphBatch, gat_forward
from grappa.metrics import ape_c, ape_i, summarize
from grappa.model import (
    Architecture,
    Components,
    forward_antoine,
    head_raw,
    init_model,
    parameter_accounting_markdown,
    prepare_components,
    scale_to_ranges,
)
from grappa.molecule import permute_molecule
from grappa.pooling import InteractionPoolParams, interaction_pool, sum_pool
from grappa.smiles import parse_smiles
from grappa.tensor import ScatterPlan, Tensor
from grappa.train import (
    TrainConfig,
    fit,
    grid_cells,
    grid_search,
    loss_huber,
    loss_mse,
    validation_mape_i,
    _batch_loss,
)

from _oracles import (
    contaminate,
    finite_difference_at,
    finite_difference_grad,
    max_rel_error,
    points_table,
    scan_bonds_of,
    scan_neighbors,
    param,
    synthetic_dataset,
    synthetic_params,
)

GRAD_TOL = 1e-4
FD_STEP = 1e-6

SMALL_MOLECULES = [
    "C", "CC", "CCO", "C=C", "C#N", "CCN", "CC(C)O", "CC=O", "COC", "CCS",
    "OCC(O)C", "CC(=O)C",
]

FIFTY_MOLECULES = [
    "C", "CC", "CCC", "CCCC", "CCO", "OCC", "CC(C)O", "CC(C)(C)C", "C=C",
    "C=CC=C", "C#C", "C#N", "CC#N", "CC=O", "CC(=O)C", "CC(=O)O", "CC(=O)OC",
    "COC", "CCOCC", "CCN", "CCNC", "CN(C)C", "CCS", "CSC", "CCCl", "CCBr",
    "CCI", "CCF", "FC(F)F", "ClC(Cl)Cl", "c1ccccc1", "Cc1ccccc1",
    "CCc1ccccc1", "c1ccncc1", "c1ccoc1", "c1ccsc1", "c1ccc2ccccc2c1",
    "Oc1ccccc1", "Nc1ccccc1", "Clc1ccccc1", "C1CC1", "C1CCC1", "C1CCCC1",
    "C1CCCCC1", "C1CCOC1", "CN1CCCC1", "C1CC1CC", "F/C=C/F", "F/C=C\\F",
    "CC(=O)Nc1ccc(O)cc1",
]


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion: analytic gradients match central finite differences, for every
# stage of the model's chain and for the composed model loss on >= 10 random
# small molecules.
# ---------------------------------------------------------------------------

def _stage_cases(rng):
    """Each stage as ``build(x, params)`` on a :class:`Tensor` and a list of
    parameters, its input array, its parameter arrays, and the weights of
    the mean of its output that the check differentiates."""
    m = rng.normal(size=(3, 4))
    n = rng.normal(size=(4, 3))
    v = rng.normal(size=4)
    idx = np.array([0, 2, 1, 0])
    dst = np.array([1, 0, 2, 0])
    running_mean = rng.normal(size=4)
    running_var = rng.uniform(0.5, 2.0, size=4)
    weights = rng.normal(size=(3, 4))
    # A, B, C rows whose denominators C + T stay near 5.
    antoine_rows = np.column_stack([rng.normal(size=4) + 10.0,
                                    rng.uniform(1.0, 3.0, size=4),
                                    rng.normal(size=4)])
    temps = np.full(4, 5.0)
    edge_features = rng.normal(size=(4, 4))
    plans = (ScatterPlan(dst, 3), ScatterPlan(idx, 3))
    # Two heads: their node and edge weights, then their attention vectors.
    projections = list(rng.normal(size=(4, 4, 4)))
    atts = rng.normal(size=(2, 4))
    # One hidden layer of width 4 on 4 + 2 inputs, then 3 outputs.
    extra, hidden_weight = rng.normal(size=(3, 2)), rng.normal(size=(6, 4))
    lo, hi = rng.normal(size=4), rng.normal(size=4) + 5.0
    ranges = dict(zip("ABC", zip(lo, hi)))
    # Residuals on both sides of the Huber threshold 0.5.
    target = rng.normal(size=4)
    residual = np.array([0.1, -0.3, 1.2, -2.0])
    # Each stage reads only its own fields of the batch: the plans and edge
    # features, the molecule ids, or the blocks.
    batch = GraphBatch(None, edge_features, np.array([1, 0, 1]),
                       np.array([0, 1, 3]), (slice(0, 1), slice(1, 3)), *plans)
    return {
        "gat_forward": (lambda x, p: gat_forward(
            x, batch, GatLayer(*p), True)[0],
            m, [np.hstack(projections[0:2]), np.hstack(projections[2:4]), atts],
            weights),
        "sum_pool": (lambda x, p: sum_pool(x, batch, True),
                     m, [], weights[:2]),
        "interaction_pool": (lambda x, p: interaction_pool(
            x, batch, InteractionPoolParams(p[0], 4), True),
            m, [np.hstack([np.eye(4), np.eye(4)[::-1], projections[2]])],
            weights[:2]),
        "head_raw": (lambda x, p: head_raw(SimpleNamespace(head=(
            [p[:4]], p[4], p[5], [[running_mean.copy(), running_var.copy()]])),
            x, extra, True),
            m, [hidden_weight, v, v + 1.0, v[::-1].copy(), n, v[:3].copy()],
            weights[:, :3]),
        "scale_to_ranges": (lambda x, p: scale_to_ranges(x, ranges, True),
                            m[:, :3].copy(), [], weights[:, :3]),
        "ln_p_points": (lambda x, p: ln_p_points(x, idx, temps),
                        antoine_rows, [], v),
        "loss_mse": (lambda x, p: loss_mse(x, target), v, [], 1.0),
        "loss_huber": (lambda x, p: loss_huber(x, target, 0.5),
                       target + residual, [], 1.0),
    }


def test_gradient_integrity_per_operation():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for name, (build, x, arrays, weights) in _stage_cases(rng).items():
        x, params = x.copy(), [param(a) for a in arrays]
        out = build(Tensor(x), params)
        # The stage's backward, given the upstream of mean(out * weights).
        analytic = [out.stages[-1](weights / out.size)] \
            + [p.grad.copy() for p in params]
        for k, arr in enumerate([x] + [p.value for p in params]):
            # The differences perturb each array in place.
            numeric = finite_difference_grad(
                lambda _: float((build(Tensor(x), params).data * weights).mean()),
                arr, h=FD_STEP)
            err = max_rel_error(analytic[k], numeric)
            assert err < GRAD_TOL, f"{name} input {k}: rel err {err}"
            worst = max(worst, err)
    report("gradient integrity: every stage of the chain", worst < GRAD_TOL,
           f"max rel err {worst:.2e}")


def test_gradient_integrity_composed_model_loss():
    rng = np.random.default_rng(1002)
    model = init_model(Architecture(), seed=1002)
    graphs = [featurize(parse_smiles(s)) for s in SMALL_MOLECULES[:10]]
    temps = np.tile(np.linspace(340.0, 500.0, 4), len(graphs))
    truth = [synthetic_params(2 + k % 4, k % 2) for k in range(len(graphs))]
    a, b, c = np.repeat([t.as_tuple() for t in truth], 4, axis=0).T
    batch = Components(SMALL_MOLECULES[:10], graphs, temps,
                       np.exp(a - b / (c + temps)) * 1000.0,
                       np.repeat(np.arange(len(graphs)), 4))
    params = model.named_parameters()
    # A train forward moves the running statistics in place, so every
    # forward starts from the same values by copying them back.
    buffers = model.named_buffers()
    bn_snapshot = {name: buf.copy() for name, buf in buffers.items()}

    def forward() -> float:
        for name, saved in bn_snapshot.items():
            buffers[name][...] = saved
        return _batch_loss(model, batch, partial(loss_huber, delta=0.5))

    loss = forward()
    loss.backward()
    analytic = {name: grad.copy() for name, grad in model.grads.items()}

    rng_coords = np.random.default_rng(7)
    worst = 0.0
    for name, value in params.items():
        flat = value.ravel()
        coords = rng_coords.choice(flat.size, size=min(3, flat.size),
                                   replace=False)
        for c in coords:
            numeric = finite_difference_at(lambda: forward().item(),
                                           value, int(c), h=FD_STEP)
            a = analytic[name].ravel()[c]
            # Floor at the gradients' representative scale: coordinates far
            # below it are checked absolutely at 1e-7, still three orders
            # above the finite-difference noise floor eps*|f|/h ~ 1e-10.
            err = abs(a - numeric) / max(1e-3, abs(a), abs(numeric))
            assert err < GRAD_TOL, f"{name}[{c}]: rel err {err}"
            worst = max(worst, err)
    report("gradient integrity: composed model loss on 10 molecules",
           worst < GRAD_TOL, f"max rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion: the final configuration reports a trainable-parameter count
# within +/-10% of the published 15,319, with an accounting table in docs/.
# ---------------------------------------------------------------------------

def test_architecture_fidelity_parameter_count():
    model = init_model(Architecture(), seed=0)
    count = model.parameter_count()
    target = 15319
    ok = abs(count - target) <= 0.10 * target
    report("architecture fidelity: parameter count in +/-10% band", ok,
           f"{count} vs {target} ({(count - target) / target:+.2%}), "
           f"table in docs/parameter_accounting.md")
    # The committed table is checked, never rewritten: a stale one fails.
    table = Path(__file__).resolve().parent.parent / "docs" / "parameter_accounting.md"
    report("architecture fidelity: docs/parameter_accounting.md is current",
           table.read_text(encoding="utf-8")
           == parameter_accounting_markdown(model),
           "regenerate it with grappa.model.parameter_accounting_markdown")


# ---------------------------------------------------------------------------
# Criterion: 10,000 random-weight predictions all stay strictly inside the
# parameter ranges, give monotone p(T), and invert to 1e-9 K.
# ---------------------------------------------------------------------------

def test_hybrid_head_guarantees():
    # 200 random-weight models x the 50-molecule pool = 10,000 predictions
    # through the actual pipeline.
    graphs = [featurize(parse_smiles(s)) for s in FIFTY_MOLECULES]
    t_grid = np.linspace(250.0, 600.0, 36)
    total = 0
    for model_seed in range(200):
        model = init_model(Architecture(gat_layers=2, heads=1),
                           seed=model_seed)
        out = forward_antoine(model, graphs)
        for row in out.data:
            params = AntoineParams(*row)
            assert PARAM_RANGES["A"][0] < params.A < PARAM_RANGES["A"][1]
            assert PARAM_RANGES["B"][0] < params.B < PARAM_RANGES["B"][1]
            assert PARAM_RANGES["C"][0] < params.C < PARAM_RANGES["C"][1]
            valid_t = t_grid[t_grid > -params.C]
            if len(valid_t) > 1:
                ln_p = params.A - params.B / (params.C + valid_t)
                assert (np.diff(ln_p) > 0).all()
            t_probe = max(250.0, -params.C + 10.0)
            p_probe = vapor_pressure(params, t_probe)
            t_back = boiling_temperature(params, p_probe)
            assert abs(t_back - t_probe) < 1e-9
            total += 1
    report("hybrid head: ranges, monotone p(T), round trip < 1e-9 K",
           total == 10_000, f"{total} random-weight predictions")


# ---------------------------------------------------------------------------
# Criterion: predictions are invariant to atom reindexing, 50 molecules x 10
# permutations, within 1e-9.
# ---------------------------------------------------------------------------

def test_permutation_invariance_of_predictions():
    rng = np.random.default_rng(1004)
    model = init_model(Architecture(), seed=1004)
    assert len(FIFTY_MOLECULES) == 50
    worst = 0.0
    for smiles in FIFTY_MOLECULES:
        mol = parse_smiles(smiles)
        base = forward_antoine(model, [featurize(mol)]).data[0]
        for _ in range(10):
            perm = rng.permutation(len(mol.atoms)).tolist()
            graph = featurize(permute_molecule(mol, perm))
            out = forward_antoine(model, [graph]).data[0]
            worst = max(worst, float(np.max(np.abs(out - base))))
    report("permutation invariance: 50 molecules x 10 permutations",
           worst < 1e-9, f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion: the adjacency a molecule builds once gives every atom of the
# 50-molecule pool the neighbors, in order, and the bond orders of a scan
# over every bond.
# ---------------------------------------------------------------------------

def test_adjacency_matches_bond_scan():
    def matches_scan(mol):
        return all(
            [(nb, mol.bonds[bi].order) for nb, bi in pairs]
            == [(nb, bond.order) for nb, bond in
                zip(scan_neighbors(mol, i), scan_bonds_of(mol, i))]
            for i, pairs in enumerate(mol.adjacency))

    differ = [s for s in FIFTY_MOLECULES if not matches_scan(parse_smiles(s))]
    report("adjacency: every atom's neighbors and bond orders in 50 molecules "
           "match a bond scan", not differ, f"{len(differ)} molecules differ")


# ---------------------------------------------------------------------------
# Criterion: a batch run as one disjoint graph gives each molecule the same
# bytes it gets alone, in chunks of any size and in any order.
# ---------------------------------------------------------------------------

def test_batched_forward_matches_single_molecules():
    graphs = [featurize(parse_smiles(s)) for s in FIFTY_MOLECULES]
    differ = []
    for seed in range(3):
        for pooling in ("sum", "interaction"):
            model = init_model(Architecture(pooling=pooling), seed=seed)
            batched = forward_antoine(model, graphs).data
            for chunk in (7, 1):
                parts = np.concatenate([
                    forward_antoine(model, graphs[i : i + chunk]).data
                    for i in range(0, len(graphs), chunk)])
                if parts.tobytes() != batched.tobytes():
                    differ.append((seed, pooling, chunk))
    report("batched forward: 50 molecules x 3 seeds x 2 poolings give the "
           "same bytes in one batch, in chunks of 7 and one at a time",
           not differ, f"differing (seed, pooling, chunk): {differ}")


def test_batch_order_invariance():
    rng = np.random.default_rng(1005)
    graphs = [featurize(parse_smiles(s)) for s in FIFTY_MOLECULES]
    differ = 0
    for pooling in ("sum", "interaction"):
        model = init_model(Architecture(pooling=pooling), seed=1005)
        base = forward_antoine(model, graphs).data
        for _ in range(5):
            order = rng.permutation(len(graphs))
            out = forward_antoine(model, [graphs[i] for i in order]).data
            differ += out.tobytes() != base[order].tobytes()
    report("batched forward: the same bytes whatever the order of molecules "
           "in a batch", differ == 0, f"{differ} of 10 shuffles differ")


# ---------------------------------------------------------------------------
# Criterion: end-to-end learnability on the synthetic set, 20 components x 10
# points, train MAPE_i < 5% and validation MAPE_i < 15% within 200 epochs.
# ---------------------------------------------------------------------------

def test_end_to_end_learnability():
    ds, _ = synthetic_dataset(points_per_component=10)
    assert len(ds.components()) == 20
    assert len(ds) == 200
    # Desk-scale schedule: 200 total epochs, rates chosen for the tiny set.
    cfg = TrainConfig(batch_size=4, warmup_epochs=140, main_epochs=60,
                      max_lr=0.02, main_lr=0.004, plateau_patience=10,
                      weight_decay=0.0, standardize_counts=True, seed=3)
    model = init_model(Architecture(), seed=np.random.SeedSequence([3, 0]))
    result = fit(model, ds.subset("train"), ds.subset("valid"), cfg)
    assert len(result.history) == 200
    train_mape = validation_mape_i(model, prepare_components(ds.subset("train")))
    valid_mape = result.best_valid_mape_i
    ok = train_mape < 5.0 and valid_mape < 15.0
    report("end-to-end learnability: train < 5%, valid < 15% in 200 epochs",
           ok, f"train {train_mape:.2f}%, valid {valid_mape:.2f}% "
               f"(4 held-out components)")


# ---------------------------------------------------------------------------
# Criterion: curation removes exactly the injected outliers and the robust
# fit recovers generating parameters on clean data within 1e-3 relative.
# ---------------------------------------------------------------------------

def test_curation_oracle():
    ds, _ = synthetic_dataset(points_per_component=9)
    dirty, injected = contaminate(ds, factor=2.0)
    result = curate(dirty)
    dropped = {e["row"] for e in result.audit
               if e["rule"] == "outlier_vs_antoine_fit"}
    precision = len(dropped & injected) / len(dropped) if dropped else 0.0
    recall = len(dropped & injected) / len(injected)
    report("curation oracle: outlier precision and recall",
           precision == 1.0 and recall == 1.0,
           f"precision {precision:.2f}, recall {recall:.2f} "
           f"({len(injected)} injected)")

    truth = AntoineParams(10.0, 2000.0, -50.0)
    temps = np.linspace(300.0, 470.0, 8)
    p = np.exp(truth.A - truth.B / (truth.C + temps)) * 1000.0
    fitted = robust_antoine_fit(temps, p).params
    rel = max(abs(fitted.A - truth.A) / abs(truth.A),
              abs(fitted.B - truth.B) / abs(truth.B),
              abs(fitted.C - truth.C) / abs(truth.C))
    report("curation oracle: clean-data parameter recovery", rel < 1e-3,
           f"max rel error {rel:.2e}")


# ---------------------------------------------------------------------------
# Criterion: metric hand examples and the min-K filter semantics hold exactly.
# ---------------------------------------------------------------------------

def test_metric_correctness():
    ok = (ape_i(110.0, 100.0) == 10.0 and ape_c([10.0, 20.0]) == 15.0)
    points = [("a", 300.0, 100.0, 110.0, 0.0)]
    points += [("b", 300.0 + i, 100.0, 120.0, 0.0) for i in range(2)]
    points += [("c", 300.0 + i, 100.0, 90.0, 0.0) for i in range(5)]
    points += [("d", 300.0 + i, 100.0, 105.0, 0.0) for i in range(3)]
    rep = summarize(points_table(points))
    shrinking = (rep.n_components[1] >= rep.n_components[2]
                 >= rep.n_components[5])
    counts_right = (rep.n_components[1] == 4 and rep.n_components[2] == 3
                    and rep.n_components[5] == 1)
    report("metric correctness: APE hand examples and K-filter semantics",
           ok and shrinking and counts_right,
           f"components per filter {rep.n_components}")


# ---------------------------------------------------------------------------
# Criterion: the hyperparameter grid enumerates exactly 120 cells and a fixed
# seed reproduces the ranking bitwise.
# ---------------------------------------------------------------------------

def test_grid_search_surface():
    cfg = TrainConfig(batch_size=8, warmup_epochs=2, main_epochs=3,
                      max_lr=0.01, weight_decay=0.0, seed=7)
    cells = grid_cells(cfg)
    report("grid search: exactly 120 cells", len(cells) == 120,
           f"{len(cells)} cells")

    ds, _ = synthetic_dataset(points_per_component=10)
    first = grid_search(cfg, ds.subset("train"), ds.subset("valid"))
    second = grid_search(cfg, ds.subset("train"), ds.subset("valid"))
    identical = first == second
    total_ranking = [row["rank"] for row in first] == list(range(1, 121))
    report("grid search: fixed seed reproduces the ranking bitwise",
           identical and total_ranking,
           f"top cell {first[0]['gat_layers']}L/{first[0]['heads']}H/"
           f"{first[0]['hidden_layers']}D/{first[0]['pooling']}")
