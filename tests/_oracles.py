"""Independent oracles the tests check the library against.

Everything here is deliberately written in a different style from the
library (plain loops, no shared helpers) so the two sides cannot share a
bug: finite differences for gradients, connectivity checks for ring
membership, backtracking isomorphism, and scalar re-evaluations of the
attention and pooling math. The one exception is the per-head attention
layer, kept as the tape ops it used to be built from, so the fused layer op
can be checked against it byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from grappa.antoine import AntoineParams
from grappa.dataio import VpDataset, VpPoint
from grappa.molecule import Molecule
from grappa.tensor import _make, _scatter_sum, _t, add, matmul, mul


# ------------------------------------------------------------ finite differences

def finite_difference_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function at every coordinate of x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def finite_difference_at(f, x: np.ndarray, flat_index: int,
                         h: float = 1e-6) -> float:
    flat = x.ravel()
    orig = flat[flat_index]
    flat[flat_index] = orig + h
    fp = f()
    flat[flat_index] = orig - h
    fm = f()
    flat[flat_index] = orig
    return (fp - fm) / (2.0 * h)


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# ------------------------------------------------------------------ graph facts

def edge_on_cycle(mol: Molecule, bond_index: int) -> bool:
    """A bond lies on a cycle iff its endpoints stay connected without it."""
    bond = mol.bonds[bond_index]
    adj: dict[int, set[int]] = {i: set() for i in range(len(mol.atoms))}
    for k, other in enumerate(mol.bonds):
        if k == bond_index:
            continue
        adj[other.a].add(other.b)
        adj[other.b].add(other.a)
    frontier = [bond.a]
    seen = {bond.a}
    while frontier:
        node = frontier.pop()
        if node == bond.b:
            return True
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def brute_force_ring_flags(mol: Molecule) -> tuple[list[bool], list[bool]]:
    bond_flags = [edge_on_cycle(mol, k) for k in range(len(mol.bonds))]
    atom_flags = [False] * len(mol.atoms)
    for k, bond in enumerate(mol.bonds):
        if bond_flags[k]:
            atom_flags[bond.a] = True
            atom_flags[bond.b] = True
    return atom_flags, bond_flags


def molecules_isomorphic(m1: Molecule, m2: Molecule) -> bool:
    """Backtracking search for a label-preserving bijection (<= 12 atoms)."""
    if len(m1.atoms) != len(m2.atoms) or len(m1.bonds) != len(m2.bonds):
        return False
    n = len(m1.atoms)

    def signature(mol, i):
        atom = mol.atoms[i]
        return (atom.element, atom.aromatic, atom.formal_charge,
                mol.degree(i))

    def bond_lookup(mol):
        table = {}
        for bond in mol.bonds:
            table[(bond.a, bond.b)] = bond.order
            table[(bond.b, bond.a)] = bond.order
        return table

    bonds1, bonds2 = bond_lookup(m1), bond_lookup(m2)
    sigs2 = [signature(m2, j) for j in range(n)]
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        want = signature(m1, i)
        for j in range(n):
            if j in used or sigs2[j] != want:
                continue
            ok = True
            for prev, mapped in assignment.items():
                order1 = bonds1.get((i, prev))
                order2 = bonds2.get((j, mapped))
                if order1 != order2:
                    ok = False
                    break
            if not ok:
                continue
            assignment[i] = j
            used.add(j)
            if extend(i + 1):
                return True
            del assignment[i]
            used.remove(j)
        return False

    return extend(0)


def scan_bonds_of(mol: Molecule, idx: int) -> list:
    """An atom's bonds found by scanning every bond, in bond-tuple order."""
    return [bond for bond in mol.bonds if bond.a == idx or bond.b == idx]


def scan_neighbors(mol: Molecule, idx: int) -> list[int]:
    out = []
    for bond in mol.bonds:
        if bond.a == idx:
            out.append(bond.b)
        elif bond.b == idx:
            out.append(bond.a)
    return out


def scan_degree(mol: Molecule, idx: int) -> int:
    return len(scan_neighbors(mol, idx))


# --------------------------------------------------------- scatter references

def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes: no tolerance."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def add_at_scatter(index: np.ndarray, values: np.ndarray,
                   num_segments: int) -> np.ndarray:
    """Row sums by segment with unbuffered ``np.add.at``, in input order."""
    out = np.zeros((num_segments,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def reference_segment_softmax(logits: np.ndarray, segments: np.ndarray,
                              num_segments: int, g: np.ndarray):
    """Segment softmax of a vector and its VJP for the upstream ``g``, with
    the peak taken by ``np.maximum.at`` and every sum by ``np.add.at``."""
    peak = np.full(num_segments, -np.inf)
    np.maximum.at(peak, segments, logits)
    ex = np.exp(logits - peak[segments])
    denom = np.zeros(num_segments)
    np.add.at(denom, segments, ex)
    out = ex / denom[segments]
    dot = np.zeros(num_segments)
    np.add.at(dot, segments, out * g)
    return out, out * (g - dot[segments])


# -------------------------------------------------- scalar model re-evaluations

def naive_gat_head(x: np.ndarray, mol_bonds: list[tuple[int, int]],
                   edge_feats: dict[tuple[int, int], np.ndarray],
                   theta_v: np.ndarray, theta_e: np.ndarray,
                   att: np.ndarray, slope: float = 0.2) -> np.ndarray:
    """One attention head evaluated with per-node loops over the update and
    attention formulas, self-loop included with zero edge features."""
    n = x.shape[0]
    neighbors: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in mol_bonds:
        neighbors[a].append(b)
        neighbors[b].append(a)

    def lrelu(v):
        return np.where(v > 0, v, slope * v)

    out = np.zeros((n, theta_v.shape[1]))
    for i in range(n):
        js = neighbors[i] + [i]
        scores = []
        for j in js:
            e = edge_feats.get((i, j), edge_feats.get((j, i)))
            if j == i or e is None:
                e = np.zeros(theta_e.shape[0])
            pre = x[i] @ theta_v + x[j] @ theta_v + e @ theta_e
            scores.append(float(att @ lrelu(pre)))
        scores = np.array(scores)
        weights = np.exp(scores - scores.max())
        weights = weights / weights.sum()
        for w, j in zip(weights, js):
            out[i] += w * (x[j] @ theta_v)
    return out


def naive_interaction_pool(x: np.ndarray, wq: np.ndarray, wk: np.ndarray,
                           wv: np.ndarray) -> np.ndarray:
    """Step-by-step self-attention readout with explicit row loops."""
    n, d = x.shape
    q = x @ wq
    k = x @ wk
    v = x @ wv
    scale = math.sqrt(wk.shape[1])
    pooled = np.zeros(v.shape[1])
    for i in range(n):
        raw = np.array([q[i] @ k[j] / scale for j in range(n)])
        w = np.exp(raw - raw.max())
        w = w / w.sum()
        z_i = sum(w[j] * v[j] for j in range(n))
        pooled += z_i
    return pooled


# ------------------------------------------------- per-head attention layer

def edge_attention_sum(xv, edge_term, att, dst, src, num_nodes: int,
                       slope: float):
    """One GATv2 head as one tape op: attention over each node's incoming
    edges, summed. Shapes: (N, d), (E, d), (d,) -> (N, d). Returns the
    output tensor and the (E,) weights as an array."""
    xv, edge_term, att = _t(xv), _t(edge_term), _t(att)
    dst = np.asarray(dst, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    sent = xv.data[src]
    pre = xv.data[dst] + sent + edge_term.data
    slopes = np.where(pre > 0, 1.0, slope)
    act = pre * slopes
    logits = np.einsum("ij,j->i", act, att.data)
    peak = np.full(num_nodes, -np.inf)
    order = np.argsort(dst, kind="stable")
    grouped = dst[order]
    starts = np.flatnonzero(
        np.concatenate(([True], grouped[1:] != grouped[:-1])))
    peak[grouped[starts]] = np.maximum.reduceat(logits[order], starts)
    ex = np.exp(logits - peak[dst])
    alpha = ex / _scatter_sum(dst, ex, num_nodes)[dst]
    out = _scatter_sum(dst, alpha[:, None] * sent, num_nodes)

    def vjp(g):
        g_e = g[dst]
        d_alpha = (g_e * sent).sum(axis=1)
        d_logits = alpha * (d_alpha - _scatter_sum(dst, alpha * d_alpha,
                                                   num_nodes)[dst])
        d_pre = np.outer(d_logits, att.data) * slopes
        d_xv = _scatter_sum(dst, d_pre, num_nodes) \
            + _scatter_sum(src, d_pre + alpha[:, None] * g_e, num_nodes)
        return d_xv, d_pre, act.T @ d_logits

    return _make(out, (xv, edge_term, att), vjp), alpha


def per_head_gat_forward(x, batch, layer, slope: float = 0.2):
    """One attention layer as separate tape ops: per head, two ``matmul``
    projections and one ``edge_attention_sum``; then the heads added in
    order and scaled by 1/H. Returns the output and the (E, H) weights."""
    feats = _t(batch.edge_features)
    outs, weights = [], []
    for h in range(layer.heads):
        out, alpha = edge_attention_sum(
            matmul(x, layer.theta_v[h]), matmul(feats, layer.theta_e[h]),
            layer.att[h], batch.dst, batch.src, batch.num_nodes, slope)
        outs.append(out)
        weights.append(alpha)
    total = outs[0]
    for out in outs[1:]:
        total = add(total, out)
    if layer.heads > 1:
        total = mul(total, 1.0 / layer.heads)
    return total, np.stack(weights, axis=1)


def sorted_percentile(sample, q: float) -> float:
    """Linear-interpolation percentile computed directly on sorted data."""
    data = sorted(float(v) for v in sample)
    if not data:
        raise ValueError("empty sample")
    if len(data) == 1:
        return data[0]
    pos = q / 100.0 * (len(data) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac


# ------------------------------------------------------------- synthetic data

def synthetic_params(n_carbons: int, n_oxygens: int) -> AntoineParams:
    """Smooth, in-range ground truth so held-out molecules are learnable."""
    return AntoineParams(
        A=9.3 + 0.06 * n_carbons + 0.25 * n_oxygens,
        B=2700.0 + 30.0 * n_carbons + 75.0 * n_oxygens,
        C=-70.0 - 1.5 * n_carbons - 4.0 * n_oxygens,
    )


def synthetic_dataset(points_per_component: int = 10,
                      t_window: tuple[float, float] = (330.0, 520.0),
                      valid_components: tuple[str, ...] = (
                          "alkane-7", "alkane-10", "alcohol-6", "alcohol-9"),
                      ) -> tuple[VpDataset, dict[str, AntoineParams]]:
    """20 components (alkanes C3-C12, alcohols C2-C11) on exact curves."""
    truth: dict[str, AntoineParams] = {}
    points: list[VpPoint] = []
    specs = [(f"alkane-{n}", "C" * n, n, 0) for n in range(3, 13)]
    specs += [(f"alcohol-{n}", "O" + "C" * n, n, 1) for n in range(2, 12)]
    temps = np.linspace(t_window[0], t_window[1], points_per_component)
    row = 1
    for component, smi, n_c, n_o in specs:
        params = synthetic_params(n_c, n_o)
        truth[component] = params
        for t in temps:
            p_pa = math.exp(params.A - params.B / (params.C + t)) * 1000.0
            points.append(VpPoint(component, smi, float(t), p_pa, row=row))
            row += 1
    splits = {component: ("valid" if component in valid_components else "train")
              for component, _, _, _ in specs}
    return VpDataset(points, splits), truth


def contaminate(ds: VpDataset, factor: float = 2.0) -> tuple[VpDataset, set[int]]:
    """Scale the middle pressure of every component with >= 5 points;
    returns the poisoned row numbers."""
    injected: set[int] = set()
    out: list[VpPoint] = []
    for component, pts in ds.by_component().items():
        target = len(pts) // 2 if len(pts) >= 5 else -1
        for k, pt in enumerate(pts):
            if k == target:
                out.append(VpPoint(pt.component_id, pt.smiles, pt.temperature_k,
                                   pt.pressure_pa * factor, pt.quality,
                                   pt.source, pt.stereo_ok, pt.row))
                injected.add(pt.row)
            else:
                out.append(pt)
    return VpDataset(out, dict(ds.splits)), injected


# --------------------------------------------------------- robust Antoine fit

def reference_lm_solve(theta0, t, y, box, delta, max_iter=200):
    """One start of the damped least-squares fit, run alone: the loop the
    library's stacked solver must reproduce byte for byte."""
    def cost_of(theta):
        a, b, c = theta
        denom = c + t
        if not (denom > 0.0).all():
            return math.inf, np.full_like(y, np.inf)
        r = y - (a - b / denom)
        absr = np.abs(r)
        rho = np.where(absr <= delta, 0.5 * r * r, delta * (absr - 0.5 * delta))
        return float(rho.sum()), r

    theta = np.clip(np.asarray(theta0, dtype=float), box[:, 0], box[:, 1])
    cost, r = cost_of(theta)
    lam = 1e-3
    trace = [cost]
    converged = False
    iterations = 0
    slow_steps = 0
    for iterations in range(1, max_iter + 1):
        if not math.isfinite(cost):
            break
        a, b, c = theta
        denom = c + t
        jac = np.column_stack([-np.ones_like(t), 1.0 / denom, -b / denom**2])
        absr = np.abs(r)
        w = np.ones_like(r)
        heavy = absr > delta
        w[heavy] = delta / absr[heavy]
        jtw = jac.T * w
        hess = jtw @ jac
        grad = jtw @ r
        try:
            step = np.linalg.solve(hess + lam * np.diag(np.diag(hess)) +
                                   1e-12 * np.eye(3), -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        candidate = np.clip(theta + step, box[:, 0], box[:, 1])
        new_cost, new_r = cost_of(candidate)
        if new_cost < cost:
            rel_drop = (cost - new_cost) / max(cost, 1e-30)
            theta, cost, r = candidate, new_cost, new_r
            trace.append(cost)
            lam = max(lam / 10.0, 1e-12)
            if rel_drop < 1e-9 or cost < 1e-24:
                converged = True
                break
            slow_steps = slow_steps + 1 if rel_drop < 1e-5 else 0
            if slow_steps >= 5:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e10:
                converged = True
                break
    return theta, cost, r, converged, iterations, trace


def reference_antoine_fit(temperatures_k, pressures_pa, delta=0.5, max_iter=200):
    """The robust fit with its five starts solved one after another; the
    first strictly lower final cost wins. Returns (params, cost, residuals,
    converged, iterations, cost_trace)."""
    t = np.asarray(temperatures_k, dtype=float)
    y = np.log(np.asarray(pressures_pa, dtype=float) / 1000.0)
    box = np.array([(5.0, 20.0), (1500.0, 6000.0),
                    (max(-300.0, -float(t.min()) + 1.0), 0.0)])
    c0 = max(-50.0, -float(t.min()) + 25.0)
    slope, intercept = np.polyfit(1.0 / (c0 + t), y, 1)
    starts = [np.array([intercept, -slope, c0]),
              np.array([8.0, 2500.0, -30.0]),
              np.array([12.0, 3500.0, -100.0]),
              np.array([15.0, 4800.0, -150.0]),
              np.array([10.0, 3000.0, -60.0])]
    best = None
    for theta0 in starts:
        result = reference_lm_solve(theta0, t, y, box, delta, max_iter)
        if best is None or result[1] < best[1]:
            best = result
    return best
