"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Published-scale error scores require the proprietary
measurement database, so acceptance rests on the property checks below.
"""

from pathlib import Path

import numpy as np

from grappa import tensor as T
from grappa.antoine import (
    PARAM_RANGES,
    AntoineParams,
    boiling_temperature,
    ln_p_tensor,
    vapor_pressure,
)
from grappa.dataio import curate, robust_antoine_fit
from grappa.featurize import featurize
from grappa.metrics import ape_c, ape_i, summarize, PredPoint
from grappa.model import (
    Architecture,
    Components,
    forward_antoine,
    init_model,
    parameter_accounting_markdown,
    prepare_components,
)
from grappa.molecule import Molecule, permute_molecule
from grappa.smiles import parse_smiles
from grappa.tensor import Tensor
from grappa.train import (
    TrainConfig,
    fit,
    grid_cells,
    grid_search,
    validation_mape_i,
    _batch_loss,
)

from _oracles import (
    contaminate,
    finite_difference_at,
    finite_difference_grad,
    max_rel_error,
    scan_bonds_of,
    scan_degree,
    scan_neighbors,
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
# differentiable operation and for the composed model loss on >= 10 random
# small molecules.
# ---------------------------------------------------------------------------

def _op_cases(rng):
    m = rng.normal(size=(3, 4))
    n = rng.normal(size=(4, 3))
    v = rng.normal(size=4)
    seg = np.array([0, 0, 1, 1, 1])
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
    plan = T.ScatterPlan(dst, idx, 3)
    # Two heads: their node and edge weights, then their attention vectors.
    projections = list(rng.normal(size=(4, 4, 4)))
    atts = list(rng.normal(size=(2, 4)))
    return {
        "add": (lambda a, b: T.mean_all(T.mul(T.add(a, b), T.add(a, b))), [m, m]),
        "sub": (lambda a, b: T.mean_all(T.mul(T.sub(a, b), T.sub(a, b))), [m, m]),
        "mul": (lambda a, b: T.mean_all(T.mul(a, b)), [m, m]),
        "matmul": (lambda a, b: T.mean_all(T.matmul(a, b)), [m, n]),
        "concat": (lambda a, b: T.mean_all(T.mul(T.concat([a, b], axis=1),
                                                T.concat([b, a], axis=1))), [m, m]),
        "ln_p_tensor": (lambda a: T.mean_all(T.mul(ln_p_tensor(a, temps),
                                                  v)), [antoine_rows]),
        "gather_rows": (lambda a: T.mean_all(T.mul(T.gather_rows(a, idx),
                                                  T.gather_rows(a, idx))), [m]),
        "segment_sum": (lambda a: T.mean_all(T.mul(
            T.segment_sum(T.gather_rows(a, np.array([0, 1, 2, 0, 1])), seg, 2),
            3.0)), [m]),
        "gat_layer_sum": (lambda a, v0, v1, e0, e1, u0, u1: T.mean_all(T.mul(
            T.gat_layer_sum(a, edge_features, [v0, v1], [e0, e1], [u0, u1],
                            plan, 0.2)[0], weights)),
            [m, *projections, *atts]),
        "mean_all": (lambda a: T.mean_all(T.mul(a, a)), [m]),
        "block_attention_sum": (lambda q, k, u: T.mean_all(T.mul(
            T.block_attention_sum(q, k, u, [0, 1, 3], 0.5), weights[:2])),
            [m, m[:, ::-1].copy(), n.T.copy()]),
        "elu": (lambda a: T.mean_all(T.elu(a)), [m]),
        "sigmoid": (lambda a: T.mean_all(T.mul(T.sigmoid(a), weights)), [m]),
        "huber": (lambda a: T.mean_all(T.huber(a, 0.5)), [m]),
        "batch_norm_train": (lambda a: T.mean_all(T.mul(
            T.batch_norm(a, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         running_mean.copy(), running_var.copy(), "train"),
            weights)), [m]),
        "batch_norm_infer": (lambda a: T.mean_all(T.mul(
            T.batch_norm(a, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         running_mean.copy(), running_var.copy(), "infer"),
            weights)), [m]),
    }


def test_gradient_integrity_per_operation():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for name, (build, arrays) in _op_cases(rng).items():
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        build(*tensors).backward()
        for k, (arr, tens) in enumerate(zip(arrays, tensors)):
            def f(x, k=k):
                args = [Tensor(a.copy()) for a in arrays]
                args[k] = Tensor(x)
                return build(*args).item()

            numeric = finite_difference_grad(f, arr.copy(), h=FD_STEP)
            err = max_rel_error(tens.grad, numeric)
            assert err < GRAD_TOL, f"{name} input {k}: rel err {err}"
            worst = max(worst, err)
    report("gradient integrity: every differentiable operation", worst < GRAD_TOL,
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
        return _batch_loss(model, batch, "huber", 0.5)

    loss = forward()
    loss.backward()
    analytic = {name: t.grad.copy() for name, t in params.items()}

    rng_coords = np.random.default_rng(7)
    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.data.ravel()
        coords = rng_coords.choice(flat.size, size=min(3, flat.size),
                                   replace=False)
        for c in coords:
            numeric = finite_difference_at(lambda: forward().item(),
                                           tensor.data, int(c), h=FD_STEP)
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
    docs = Path(__file__).resolve().parent.parent / "docs"
    docs.mkdir(exist_ok=True)
    (docs / "parameter_accounting.md").write_text(
        parameter_accounting_markdown(model), encoding="utf-8")
    report("architecture fidelity: parameter count in +/-10% band", ok,
           f"{count} vs {target} ({(count - target) / target:+.2%}), "
           f"table in docs/parameter_accounting.md")


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
        out = forward_antoine(model, graphs, mode="infer")
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
        base = forward_antoine(model, [featurize(mol)], mode="infer").data[0]
        for _ in range(10):
            perm = rng.permutation(len(mol.atoms)).tolist()
            graph = featurize(permute_molecule(mol, perm))
            out = forward_antoine(model, [graph], mode="infer").data[0]
            worst = max(worst, float(np.max(np.abs(out - base))))
    report("permutation invariance: 50 molecules x 10 permutations",
           worst < 1e-9, f"max deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion: the adjacency a molecule builds once gives the 50-molecule pool
# the neighbor order and featurized arrays of a scan over every bond, bitwise.
# ---------------------------------------------------------------------------

def test_adjacency_matches_bond_scan(monkeypatch):
    def graph_arrays(smiles):
        mol = parse_smiles(smiles)
        g = featurize(mol)
        return mol, [g.node_features, g.edges, g.edge_features,
                     np.array([g.h_donors, g.h_acceptors, g.heavy_atom_count,
                               g.mol_weight])]

    cached = {s: graph_arrays(s) for s in FIFTY_MOLECULES}
    order_ok = all(
        mol.neighbors(i) == scan_neighbors(mol, i)
        and mol.bonds_of(i) == scan_bonds_of(mol, i)
        and mol.degree(i) == scan_degree(mol, i)
        for mol, _ in cached.values() for i in range(-1, len(mol.atoms) + 1))
    monkeypatch.setattr(Molecule, "neighbors", scan_neighbors)
    monkeypatch.setattr(Molecule, "bonds_of", scan_bonds_of)
    monkeypatch.setattr(Molecule, "degree", scan_degree)
    differ = [s for s in FIFTY_MOLECULES
              if not all(a.dtype == b.dtype and a.shape == b.shape
                         and a.tobytes() == b.tobytes()
                         for a, b in zip(cached[s][1], graph_arrays(s)[1]))]
    report("adjacency: neighbor order and featurized arrays of 50 molecules "
           "match a bond scan bitwise", order_ok and not differ,
           f"{len(differ)} molecules differ")


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
    points = [PredPoint("a", 300.0, 100.0, 110.0)]
    points += [PredPoint("b", 300.0 + i, 100.0, 120.0) for i in range(2)]
    points += [PredPoint("c", 300.0 + i, 100.0, 90.0) for i in range(5)]
    points += [PredPoint("d", 300.0 + i, 100.0, 105.0) for i in range(3)]
    rep = summarize(points)
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
