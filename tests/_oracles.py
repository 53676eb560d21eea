"""Independent oracles the tests check the library against.

Everything here is deliberately written in a different style from the
library (plain loops, no shared helpers) so the two sides cannot share a
bug: finite differences for gradients, connectivity checks for ring
membership, backtracking isomorphism, and scalar re-evaluations of the
attention and pooling math. The exceptions are former library paths,
kept so their replacements can be checked against them: the general
reverse-mode tape the library's stage chain replaced (``TapeTensor`` and
its ops, the per-head attention layer and the parameter head built from
them, and the whole model and loss composed op by op,
``tape_batch_loss``), checked byte for byte, and the SP3 rule that tested
an atom's bond-order sum where ``hybridizations`` now tests its degree
(``valence_sum_hybridizations``), and the Antoine evaluator and inversion
that checked every element of every input (``ln_vapor_pressure``,
``boiling_temperature``), and the SMILES parser that walked its input
one character at a time (``char_walk_parse_smiles``), and the robust
Antoine fit's five-start solve that the one scan start replaced
(``reference_five_start_fit``), the yardstick for fit quality, and the
evaluation tables built one bin, grid cell and component at a time
(``loop_binned_reports``, ``loop_hexbin_grid``,
``loop_boiling_point_eval``, ``loop_scores``), checked byte for byte.
Format-3 checkpoint documents are read and written by the recipe their
documentation prints.
"""

from __future__ import annotations

import math

import numpy as np

from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

from grappa.antoine import (PA_PER_KPA, PARAM_RANGES, AntoineDomainError,
                            AntoineParams)
from grappa.dataio import (FIT_SCAN_IRLS, FIT_SCAN_POINTS, FIT_SCAN_ZOOM,
                           VpDataset, VpPoint)
from grappa.gnn import batch_graphs
from grappa import antoine
from grappa.metrics import (BOILING_MIN_POINTS, BOILING_WINDOW_KPA,
                            HEXBIN_CLIP_PERCENT, HEXBIN_LN_P_STEP,
                            HEXBIN_T_STEP_K, MIN_POINTS_LEVELS,
                            MOL_WEIGHT_EDGES, PRESSURE_EDGES_PA,
                            TEMPERATURE_EDGES_K, PredictedPoints)
from grappa.model import BN_EPS, BN_MOMENTUM, _count_features
from grappa.molecule import (AROMATIC, DOUBLE, SINGLE, STANDARD_VALENCES,
                             STEREO_E, STEREO_Z, TRIPLE, Atom, Bond, Molecule)
from grappa.smiles import (DanglingBondError, SmilesError,
                           UnbalancedSmilesError, UnknownAtomError,
                           ValenceError, bond_order_sum)
from grappa.tensor import (NonFiniteError, Param, ShapeError, Tensor,
                           _row_invariant_product)


# --------------------------------------------------------- stage-chain helpers

def param(value, name: str | tuple[str, ...] = "") -> Param:
    """A stand-alone parameter: a copy of ``value`` and a NaN-filled
    gradient array, so a backward that skips an entry shows."""
    value = np.array(value, dtype=np.float64)
    return Param(value, np.full_like(value, np.nan), name)


def weighted_mean(t: Tensor, weights) -> Tensor:
    """``mean(t * weights)`` appended to ``t``'s chain as one more stage,
    with the gradient the tape's ``mean_all(mul(t, weights))`` sent."""
    weights = np.asarray(weights, dtype=np.float64)
    n = t.size

    def backward(g):
        return g / n * weights

    return Tensor(np.asarray((t.data * weights).mean()), t.stages + (backward,))


# ------------------------------------------------ the general reverse-mode tape

class TapeTensor:
    """A tensor on the general tape: every op records its inputs and a
    vector-Jacobian closure on the value it returns, so ``backward()`` on a
    scalar fills ``grad`` on every reachable tensor that requires one."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[TapeTensor, ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def backward(self):
        """Fill ``grad`` on every tensor reachable from this scalar that
        requires one, walking a topological order; grads inside the tape are
        reset first, so repeated calls are bitwise identical."""
        if self.size != 1:
            raise ShapeError("backward() requires a scalar output")
        order: list[TapeTensor] = []
        seen: set[int] = set()
        stack: list[tuple[TapeTensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, grad in zip(node._parents, node._vjp(node.grad)):
                if grad is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # A fresh array, since a VJP may hand back ``g`` or a view
                    # of it; ``+ 0.0`` turns -0.0 into 0.0 as ``0 + g`` would.
                    parent.grad = grad + 0.0
                else:
                    parent.grad += grad


def _t(x) -> TapeTensor:
    return x if isinstance(x, TapeTensor) else TapeTensor(x)


_RECORDING = True


@contextmanager
def recording(on: bool):
    """Record the tape (``on``) or not, for the ops run inside the block."""
    global _RECORDING
    saved, _RECORDING = _RECORDING, on
    try:
        yield
    finally:
        _RECORDING = saved


def _make(data: np.ndarray, parents: tuple[TapeTensor, ...], vjp) -> TapeTensor:
    # The op is the function that defines the VJP closure.
    op = vjp.__qualname__.split(".")[0]
    if not np.isfinite(data).all():
        names = ", ".join(repr(p.name) for p in parents if p.name)
        raise NonFiniteError(f"non-finite value produced by {op}"
                             + (f" (inputs {names})" if names else ""))
    out = TapeTensor(data, requires_grad=_RECORDING
                     and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def sub(a, b):
    a, b = _t(a), _t(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), vjp)


def mul(a, b):
    a, b = _t(a), _t(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), vjp)


def matmul(a, b):
    """(M, K) @ (K, N), row-invariant as the library's products are."""
    a, b = _t(a), _t(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D @ 2-D, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.ascontiguousarray(
        _row_invariant_product(a.data, np.ascontiguousarray(b.data)))

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), vjp)


def gather_rows(a, index):
    """Select rows (or vector elements) by integer index, with repetitions."""
    a = _t(a)
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ShapeError("gather_rows expects a vector of row indices")
    out = a.data[index]
    rows = index % len(a.data) if index.size and index.min() < 0 else index

    def vjp(g):
        return (add_at_scatter(rows, g, len(a.data)),)

    return _make(out, (a,), vjp)


def mean_all(a):
    a = _t(a)
    if a.size == 0:
        raise ShapeError("mean of an empty tensor")
    n = a.size
    out = np.asarray(a.data.mean())

    def vjp(g):
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _make(out, (a,), vjp)


def segment_sum(a, segments, num_segments: int):
    """Sum rows (or elements) of ``a`` grouped by segment id."""
    a = _t(a)
    segments = np.asarray(segments, dtype=np.int64)
    out = add_at_scatter(segments, a.data, num_segments)

    def vjp(g):
        return (g[segments],)

    return _make(out, (a,), vjp)


def block_attention_sum(q, k, v, bounds, logit_scale: float):
    """Self-attention within row blocks ``bounds[m]:bounds[m + 1]``, summed
    over each block's rows: (N, k), (N, k), (N, d) -> (M, d)."""
    q, k, v = _t(q), _t(k), _t(v)
    bounds = np.asarray(bounds, dtype=np.int64)
    blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    weights = []
    out = np.empty((len(blocks), v.shape[1]))
    for m, rows in enumerate(blocks):
        logits = logit_scale * (q.data[rows] @ k.data[rows].T)
        ex = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = ex / ex.sum(axis=1, keepdims=True)
        weights.append(w)
        out[m] = w.sum(axis=0) @ v.data[rows]

    def vjp(g):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for m, rows in enumerate(blocks):
            w = weights[m]
            dv[rows] = np.outer(w.sum(axis=0), g[m])
            dcol = v.data[rows] @ g[m]
            dlogits = logit_scale * w * (dcol - (w @ dcol)[:, None])
            dq[rows] = dlogits @ k.data[rows]
            dk[rows] = dlogits.T @ q.data[rows]
        return dq, dk, dv

    return _make(out, (q, k, v), vjp)


def huber(a, delta: float):
    """Elementwise Huber value: quadratic inside ``delta``, linear outside."""
    a = _t(a)
    if delta <= 0:
        raise ValueError("delta must be positive")
    absd = np.abs(a.data)
    inside = absd <= delta
    out = np.where(inside, 0.5 * a.data**2, delta * (absd - 0.5 * delta))

    def vjp(g):
        return (np.where(inside, a.data, delta * np.sign(a.data)) * g,)

    return _make(out, (a,), vjp)


def ln_p_tensor(rows, temperature_k):
    """ln(p/kPa) of shape (P,) on the tape for (P, 3) rows of A, B, C, with
    no branch mask; a zero C + T raises."""
    rows = _t(rows)
    a, b, c = rows.data.T
    d = c + np.asarray(temperature_k, dtype=np.float64)
    if np.any(d == 0.0):
        raise NonFiniteError("division by zero")

    def vjp(g):
        return (np.column_stack([g, -g / d, g * b / (d * d)]),)

    return _make(a - b / d, (rows,), vjp)


# ------------------------------------------------------------ finite differences

def finite_difference_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function at every coordinate of x,
    perturbed in place (x may be a strided view)."""
    grad = np.zeros(x.shape)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + h
        fp = f(x)
        x[i] = orig - h
        fm = f(x)
        x[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def finite_difference_at(f, x: np.ndarray, flat_index: int,
                         h: float = 1e-6) -> float:
    i = np.unravel_index(flat_index, x.shape)
    orig = x[i]
    x[i] = orig + h
    fp = f()
    x[i] = orig - h
    fm = f()
    x[i] = orig
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
                len(mol.adjacency[i]))

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


def valence_sum_hybridizations(mol: Molecule, h_counts) -> list[str]:
    """Hybridization labels by the former rule, which tests SP3 with the
    atom's bond-order sum (``smiles.bond_order_sum``) plus its hydrogens,
    and finds each atom's bonds by scanning every bond."""
    labels = []
    for idx, atom in enumerate(mol.atoms):
        orders = [b.order for b in mol.bonds if idx in (b.a, b.b)]
        if orders.count(TRIPLE) >= 1 or orders.count(DOUBLE) >= 2:
            labels.append("SP")
        elif atom.aromatic or DOUBLE in orders:
            labels.append("SP2")
        elif atom.element in ("C", "N", "O", "S", "P") and (
                bond_order_sum(mol, idx) + h_counts[idx]
                <= STANDARD_VALENCES[atom.element][0]):
            labels.append("SP3")
        else:
            labels.append("OTHER")
    return labels


# ------------------------------------------------ the character-walking parser

_WALK_ORGANIC_TWO = {"Cl", "Br"}
_WALK_ORGANIC_ONE = {"C", "N", "O", "S", "P", "F", "I"}
_WALK_AROMATIC_ORGANIC = {"c", "n", "o", "s", "p"}
# Each organic-subset symbol's atom, built once: ``Atom`` is frozen.
_WALK_ORGANIC_ATOMS = {
    sym: Atom(sym) for sym in _WALK_ORGANIC_ONE | _WALK_ORGANIC_TWO} | {
    sym: Atom(sym.upper(), aromatic=True) for sym in _WALK_AROMATIC_ORGANIC}
_WALK_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_WALK_DIRECTIONAL = {"/", "\\"}


@dataclass
class _WalkPendingBond:
    order: str | None  # None = default (single or aromatic)
    direction: str | None  # "/" or "\\"
    offset: int


@dataclass
class _WalkRingHandle:
    atom: int
    bond: _WalkPendingBond | None
    offset: int


def char_walk_parse_smiles(text: str) -> Molecule:
    """The character-walking ``parse_smiles`` that the token pass replaced:
    the same :class:`Molecule`, or the same error type, message and offset,
    for every input but a bracket count too long for ``int``, which raises a
    plain ``ValueError`` here. A conflict between directional bonds names
    the offset of its second bond symbol, as the token pass does."""
    if not isinstance(text, str):
        raise TypeError(f"SMILES must be a str, got {type(text).__name__}")
    if not text:
        raise SmilesError("empty SMILES string", 0)
    if not text.isascii():
        raise SmilesError("SMILES must be ASCII", 0)

    atoms: list[Atom] = []
    atom_offsets: list[int] = []
    bonds: list[Bond] = []
    bonded: set[tuple[int, int]] = set()  # (min, max) atom pairs of ``bonds``
    tetra: list[tuple[int, str]] = []
    # Directional annotations in written order: (first atom, second atom,
    # symbol, the symbol's offset).
    directed: list[tuple[int, int, str, int]] = []

    anchor: int | None = None
    pending: _WalkPendingBond | None = None
    branch_stack: list[tuple[int | None, int]] = []  # (anchor, offset of '(')
    rings: dict[int, _WalkRingHandle] = {}

    def add_bond(a: int, b: int, bond: _WalkPendingBond | None, offset: int,
                 ring_written_order: tuple[int, int] | None = None):
        if a == b:
            raise SmilesError("ring closure bonds an atom to itself", offset)
        pair = (min(a, b), max(a, b))
        if pair in bonded:
            raise SmilesError(f"duplicate bond between atoms {a} and {b}", offset)
        both_aromatic = atoms[a].aromatic and atoms[b].aromatic
        if bond is None or bond.order is None:
            order = AROMATIC if both_aromatic else SINGLE
        else:
            order = bond.order
        if order == AROMATIC and not both_aromatic:
            raise SmilesError("aromatic bond between non-aromatic atoms", offset)
        if bond is not None and bond.direction is not None:
            if ring_written_order is not None:
                directed.append((*ring_written_order, bond.direction, bond.offset))
            else:
                directed.append((a, b, bond.direction, bond.offset))
        bonds.append(Bond(a, b, order))
        bonded.add(pair)

    i = 0
    n = len(text)
    while i < n:
        ch = text[i]

        if ch == "(":
            if pending is not None:
                raise DanglingBondError("bond symbol before branch", pending.offset)
            if anchor is None:
                raise SmilesError("branch before any atom", i)
            branch_stack.append((anchor, i))
            i += 1
            continue

        if ch == ")":
            if pending is not None:
                raise DanglingBondError("bond symbol before ')'", pending.offset)
            if not branch_stack:
                raise UnbalancedSmilesError("unmatched ')'", i)
            anchor, _ = branch_stack.pop()
            i += 1
            continue

        if ch in _WALK_BOND_CHARS or ch in _WALK_DIRECTIONAL:
            if pending is not None:
                raise DanglingBondError("two bond symbols in a row", i)
            if ch in _WALK_DIRECTIONAL:
                pending = _WalkPendingBond(SINGLE, ch, i)
            else:
                pending = _WalkPendingBond(_WALK_BOND_CHARS[ch], None, i)
            i += 1
            continue

        if ch.isdigit() or ch == "%":
            if anchor is None:
                raise SmilesError("ring closure before any atom", i)
            if ch == "%":
                if i + 2 >= n or not text[i + 1 : i + 3].isdigit():
                    raise SmilesError("'%' needs two digits", i)
                num = int(text[i + 1 : i + 3])
                width = 3
            else:
                num = int(ch)
                width = 1
            if num in rings:
                handle = rings.pop(num)
                bond = _walk_merge_ring_bonds(handle.bond, pending, i)
                written = None
                if pending is not None and pending.direction is not None:
                    written = (anchor, handle.atom)
                elif handle.bond is not None and handle.bond.direction is not None:
                    written = (handle.atom, anchor)
                add_bond(handle.atom, anchor, bond, i, ring_written_order=written)
            else:
                rings[num] = _WalkRingHandle(anchor, pending, i)
            pending = None
            i += width
            continue

        if ch == "[":
            atom, width, chirality = _walk_bracket_atom(text, i)
        else:
            atom, width = _walk_organic_atom(text, i)
            chirality = None
        idx = len(atoms)
        atoms.append(atom)
        atom_offsets.append(i)
        if chirality:
            tetra.append((idx, chirality))
        if anchor is not None:
            add_bond(anchor, idx, pending, i)
        elif pending is not None:
            raise DanglingBondError("bond symbol before first atom", pending.offset)
        pending = None
        anchor = idx
        i += width

    if pending is not None:
        raise DanglingBondError("trailing bond symbol", pending.offset)
    if branch_stack:
        raise UnbalancedSmilesError("unmatched '('", branch_stack[-1][1])
    if rings:
        first = min(rings.values(), key=lambda h: h.offset)
        raise UnbalancedSmilesError("unclosed ring closure", first.offset)

    bonds = _walk_double_bond_stereo(atoms, bonds, directed)
    mol = Molecule(tuple(atoms), tuple(bonds), tuple(tetra))
    try:
        mol.hydrogen_counts  # trips ValenceError eagerly; kept for featurize
    except ValenceError as err:
        if err.atom_index is not None and err.offset is None:
            raise ValenceError(str(err), offset=atom_offsets[err.atom_index],
                               atom_index=err.atom_index) from None
        raise
    return mol


def _walk_organic_atom(text: str, i: int) -> tuple[Atom, int]:
    two = text[i : i + 2]
    if two in _WALK_ORGANIC_TWO:
        return _WALK_ORGANIC_ATOMS[two], 2
    atom = _WALK_ORGANIC_ATOMS.get(text[i])
    if atom is None:
        raise UnknownAtomError(f"unknown symbol {text[i]!r}", i)
    return atom, 1


def _walk_bracket_atom(text: str, start: int) -> tuple[Atom, int, str | None]:
    """The atom, the bracket's width and its tetrahedral marker (``@`` or
    ``@@``), if any; a third ``@`` is refused as an unexpected character."""
    end = text.find("]", start)
    if end < 0:
        raise UnbalancedSmilesError("unterminated bracket atom", start)
    body = text[start + 1 : end]
    j = 0
    isotope = False
    while j < len(body) and body[j].isdigit():
        isotope = True
        j += 1
    sym2 = body[j : j + 2]
    sym1 = body[j : j + 1]
    if sym2 in _WALK_ORGANIC_TWO:
        element, aromatic = sym2, False
        j += 2
    elif len(sym2) == 2 and sym2[0].isupper() and sym2[1].islower():
        # A two-letter element outside the subset, such as Na or Se, whose
        # first letter alone would read as N or S.
        raise UnknownAtomError(f"unknown bracket atom symbol {sym2!r}",
                               start + 1 + j)
    elif sym1 in _WALK_ORGANIC_ONE:
        element, aromatic = sym1, False
        j += 1
    elif sym1 in _WALK_AROMATIC_ORGANIC:
        element, aromatic = sym1.upper(), True
        j += 1
    else:
        raise UnknownAtomError(
            f"unknown bracket atom symbol {body[j:] or body!r}", start + 1 + j
        )
    marks = j
    while j < min(len(body), marks + 2) and body[j] == "@":
        j += 1
    chirality = body[marks:j] or None
    hcount = 0
    if j < len(body) and body[j] == "H":
        j += 1
        digits = ""
        while j < len(body) and body[j].isdigit():
            digits += body[j]
            j += 1
        hcount = int(digits) if digits else 1
    charge = 0
    if j < len(body) and body[j] in "+-":
        sign = 1 if body[j] == "+" else -1
        run = 0
        while j < len(body) and body[j] in "+-":
            if (body[j] == "+") != (sign > 0):
                raise SmilesError("mixed charge signs", start + 1 + j)
            run += 1
            j += 1
        digits = ""
        while j < len(body) and body[j].isdigit():
            digits += body[j]
            j += 1
        charge = sign * (int(digits) if digits else run)
    if j != len(body):
        raise UnknownAtomError(f"unexpected {body[j:]!r} in bracket atom",
                               start + 1 + j)
    return Atom(element, aromatic, explicit_h=hcount, formal_charge=charge,
                isotope=isotope), end - start + 1, chirality


def _walk_merge_ring_bonds(opening: _WalkPendingBond | None,
                           closing: _WalkPendingBond | None,
                           offset: int) -> _WalkPendingBond | None:
    if opening is None:
        return closing
    if closing is None:
        return opening
    if opening.order != closing.order:
        raise SmilesError("conflicting ring bond orders", offset)
    return closing


def _walk_double_bond_stereo(atoms, bonds, directed):
    """Assign Z/E to double bonds flanked by directional single bonds.

    ``/`` written as ``u/v`` places u below v; ``\\`` places u above v. The
    marked substituents on the two ends are compared: same side = Z.
    """
    if not directed:
        return bonds

    def side_relative_to(center: int, first: int, second: int, symbol: str) -> bool:
        # True = the non-center atom sits "up" relative to the center.
        other_is_second = second != center
        up_second = symbol == "/"  # u/v: v up
        if other_is_second:
            return up_second
        return not up_second

    out = list(bonds)
    for k, bond in enumerate(out):
        if bond.order != DOUBLE:
            continue
        sides = []
        for center in (bond.a, bond.b):
            marks = []
            offsets = []
            for first, second, symbol, offset in directed:
                if center not in (first, second):
                    continue
                other = second if first == center else first
                if other in (bond.a, bond.b):
                    continue
                marks.append(side_relative_to(center, first, second, symbol))
                offsets.append(offset)
            if not marks:
                sides.append(None)
                continue
            # Two marked substituents on one end must be on opposite sides.
            if len(marks) > 1 and len(set(marks)) == 1:
                raise SmilesError(
                    f"conflicting directional bonds around atom {center}",
                    offsets[1],
                )
            sides.append(marks[0])
        if sides[0] is None or sides[1] is None:
            continue
        stereo = STEREO_Z if sides[0] == sides[1] else STEREO_E
        out[k] = Bond(bond.a, bond.b, bond.order, stereo)
    return out


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
    alpha = ex / add_at_scatter(dst, ex, num_nodes)[dst]
    out = add_at_scatter(dst, alpha[:, None] * sent, num_nodes)

    def vjp(g):
        g_e = g[dst]
        d_alpha = (g_e * sent).sum(axis=1)
        d_logits = alpha * (d_alpha - add_at_scatter(dst, alpha * d_alpha,
                                                     num_nodes)[dst])
        d_pre = np.outer(d_logits, att.data) * slopes
        d_xv = add_at_scatter(dst, d_pre, num_nodes) \
            + add_at_scatter(src, d_pre + alpha[:, None] * g_e, num_nodes)
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


class TapeLayer(NamedTuple):
    """An attention layer's per-head tape tensors, as
    :func:`per_head_gat_forward` reads them."""

    theta_v: list
    theta_e: list
    att: list

    @property
    def heads(self) -> int:
        return len(self.theta_v)


def tape_layer(layer) -> TapeLayer:
    """A layer of trainable tape tensors on contiguous copies of each head's
    slice of a ``gnn.GatLayer``'s blocks: columns of ``theta_v`` and
    ``theta_e``, rows of ``att``."""
    heads = layer.heads
    parts = [(layer.theta_v, np.split(layer.theta_v.value, heads, axis=1)),
             (layer.theta_e, np.split(layer.theta_e.value, heads, axis=1)),
             (layer.att, list(layer.att.value))]
    return TapeLayer(*([TapeTensor(np.ascontiguousarray(w), requires_grad=True,
                                   name=p.name[h] if p.name else "")
                        for h, w in enumerate(ws)] for p, ws in parts))


# ------------------------------------------------ parameter head as tape ops

def add(a, b):
    a, b = _t(a), _t(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), vjp)


def concat(parts, axis: int = 0):
    parts = [_t(p) for p in parts]
    if not parts:
        raise ShapeError("concat of nothing")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(parts), vjp)


def elu(a):
    a = _t(a)
    out = np.where(a.data > 0, a.data, np.expm1(np.minimum(a.data, 0.0)))

    def vjp(g):
        return (np.where(a.data > 0, g, (out + 1.0) * g),)

    return _make(out, (a,), vjp)


def sigmoid(a):
    a = _t(a)
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def vjp(g):
        return (out * (1.0 - out) * g,)

    return _make(out, (a,), vjp)


def batch_norm(x, gamma, beta, running_mean: np.ndarray,
               running_var: np.ndarray):
    """Feature-wise normalization over the batch axis of a (B, F) matrix.
    While the tape records, the batch's statistics normalize it and move the
    running statistics toward them in place; inside ``recording(False)`` the
    running statistics normalize it, and the result has no gradient."""
    x, gamma, beta = _t(x), _t(gamma), _t(beta)
    if x.ndim != 2:
        raise ShapeError("batch_norm expects a (B, F) matrix")
    b = x.shape[0]
    if _RECORDING:
        if b < 2:
            raise ShapeError("recording batch_norm needs a batch of at least 2")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        running_mean *= 1 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var * b / (b - 1)
    else:
        mean, var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean) * inv
    out = gamma.data * xhat + beta.data

    def vjp(g):
        dxhat = g * gamma.data
        dx = (inv / b) * (
            b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _make(out, (x, gamma, beta), vjp)


def composed_mlp_head(x, extra, hidden, out_weight, out_bias, stats):
    """``model.head_raw`` as the separate tape ops it was built from."""
    z = concat([x, _t(extra)], axis=1)
    for (weight, bias, gamma, beta), (running_mean, running_var) in zip(
            hidden, stats):
        z = add(matmul(z, weight), bias)
        z = elu(batch_norm(z, gamma, beta, running_mean, running_var))
    return add(matmul(z, out_weight), out_bias)


def composed_range_sigmoid(raw, lo, hi):
    """``model.scale_to_ranges`` as the separate tape ops it was built
    from."""
    return add(mul(sigmoid(raw), hi - lo), lo)


# --------------------------------------------- the model and loss as tape ops

def tape_forward_antoine(model, graphs, params: dict):
    """``model.forward_antoine`` as separate tape ops on ``params``, tape
    tensors by checkpoint name: per-head attention layers, the readout's
    three products and block attention (or a segment sum), and the composed
    head and range map. While the tape records, batch norm moves the model's
    running statistics."""
    arch = model.arch
    batch = batch_graphs(graphs)
    x = TapeTensor(batch.node_features)
    heads = range(arch.heads)
    for li in range(arch.gat_layers):
        layer = TapeLayer(*([params[f"gat.{li}.{h}.{key}"] for h in heads]
                            for key in ("theta_v", "theta_e", "att")))
        x, _ = per_head_gat_forward(x, batch, layer)
    if arch.pooling == "interaction":
        q, k, v = (matmul(x, params[f"pool.{key}"]) for key in ("Wq", "Wk", "Wv"))
        pooled = block_attention_sum(q, k, v, batch.bounds,
                                     1.0 / np.sqrt(arch.embed_dim))
    else:
        pooled = segment_sum(x, batch.molecule, batch.num_molecules)
    counts = _count_features(model, [g.h_donors for g in graphs],
                             [g.h_acceptors for g in graphs])
    hidden = [[params[f"head.{i}.{key}"]
               for key in ("weight", "bias", "bn.gamma", "bn.beta")]
              for i in range(arch.hidden_layers)]
    raw = composed_mlp_head(pooled, counts, hidden, params["head.out.weight"],
                            params["head.out.bias"], model.head[3])
    lo, hi = np.array([PARAM_RANGES[key] for key in "ABC"]).T
    return composed_range_sigmoid(raw, lo, hi)


def tape_batch_loss(model, comps, delta: float | None = None):
    """A batch's training loss as separate tape ops (squared error, or
    Huber with ``delta``) and the trainable tape tensor on a contiguous copy
    of each of the model's parameters, by name."""
    params = {name: TapeTensor(np.ascontiguousarray(value), requires_grad=True,
                               name=name)
              for name, value in model.params.items()}
    rows = tape_forward_antoine(model, comps.graphs, params)
    pred = ln_p_tensor(gather_rows(rows, comps.molecule), comps.temperatures)
    d = sub(pred, TapeTensor(np.log(comps.pressures_pa / PA_PER_KPA)))
    loss = mean_all(mul(d, d)) if delta is None else mean_all(huber(d, delta))
    return loss, params


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


def points_table(rows, ln_p_pred_kpa=None) -> PredictedPoints:
    """One table from hand-written ``(component_id, temperature_k, p_exp_pa,
    p_pred_pa, mol_weight)`` rows, transposed into its columns."""
    columns = [list(column) for column in zip(*rows)] or [[]] * 5
    return PredictedPoints(*columns, ln_p_pred_kpa=ln_p_pred_kpa)


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

def reference_lm_solve(theta0, t, y, box, delta, max_iter=200, hold_faces=True,
                       held_at=None):
    """One start of the damped least-squares fit, run alone: the loop the
    library's stacked solver must reproduce byte for byte.

    With ``hold_faces``, a parameter on a face of its box that the descent
    direction ``-grad`` points out of is held there for the iteration: its row and
    column of the damped system become a unit diagonal and its right-hand
    side 0. ``hold_faces=False`` is the loop without that rule, which a
    start that never holds a face must match byte for byte. A ``held_at``
    list gets the number of each iteration at which some parameter meets
    the rule, whether or not it is applied."""
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
        lhs = hess + lam * np.diag(np.diag(hess)) + 1e-12 * np.eye(3)
        rhs = -grad
        held = (((theta <= box[:, 0]) & (grad > 0.0))
                | ((theta >= box[:, 1]) & (grad < 0.0)))
        if held_at is not None and held.any():
            held_at.append(iterations)
        if hold_faces and held.any():
            lhs[held, :] = 0.0
            lhs[:, held] = 0.0
            lhs[held, held] = 1.0
            rhs[held] = 0.0
        try:
            step = np.linalg.solve(lhs, rhs)
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


def _reference_window(temperatures_k, pressures_pa):
    t = np.asarray(temperatures_k, dtype=float)
    y = np.log(np.asarray(pressures_pa, dtype=float) / 1000.0)
    box = np.array([(5.0, 20.0), (1500.0, 6000.0),
                    (max(-300.0, -float(t.min()) + 1.0), 0.0)])
    return t, y, box


def _segment_sum(v):
    """The sum of a window's values in the order ``np.add.reduceat`` adds
    one segment: the first value, plus numpy's pairwise sum of the rest."""
    return v[0] + v[1:].sum()


def reference_profile(c, t, y, box, delta=0.5, irls=FIT_SCAN_IRLS):
    """A, B and Huber cost of one window at one fixed C, one reweighted
    2 x 2 least-squares solve at a time: B clipped into its box, then A,
    the best A for that B, into its."""
    x = 1.0 / (c + t)
    w = np.ones_like(x)
    for step in range(irls):
        if step:
            w = delta / np.maximum(np.abs(r), delta)
        wx = w * x
        s, sx, sxx, sy, sxy = (_segment_sum(v)
                               for v in (w, wx, wx * x, w * y, wx * y))
        b = min(max((sx * sy - s * sxy) / (s * sxx - sx * sx), box[1, 0]),
                box[1, 1])
        a = min(max((sy + b * sx) / s, box[0, 0]), box[0, 1])
        r = y - (a - b * x)
    absr = np.abs(r)
    rho = np.where(absr <= delta, 0.5 * r * r, delta * (absr - 0.5 * delta))
    return a, b, _segment_sum(rho)


def reference_start(t, y, box, delta=0.5, points=FIT_SCAN_POINTS,
                    zoom=FIT_SCAN_ZOOM):
    """The one start of a window, one C at a time: the lowest-cost C of
    ``points`` spread evenly over the C box, then of ``zoom`` more between
    that C's grid neighbours, clipped to the box; the first of equal costs
    wins."""
    lo, hi = box[2]

    def best_of(cs):
        best = None
        for c in cs:
            a, b, cost = reference_profile(c, t, y, box, delta)
            if best is None or cost < best[1]:
                best = (np.array([a, b, c]), cost)
        return best

    start, cost = best_of([lo + (hi - lo) * f
                           for f in np.linspace(0.0, 1.0, points)])
    gap = (hi - lo) / (points - 1)
    zoomed, zoomed_cost = best_of(
        [min(max(start[2] + gap * f, lo), hi)
         for f in np.linspace(-1.0, 1.0, zoom + 2)[1:-1]])
    return zoomed if zoomed_cost < cost else start


def reference_antoine_fit(temperatures_k, pressures_pa, delta=0.5, max_iter=200):
    """The robust fit: its scan start found one C at a time, then polished
    alone. Returns (params, cost, residuals, converged, iterations,
    cost_trace)."""
    t, y, box = _reference_window(temperatures_k, pressures_pa)
    return reference_lm_solve(reference_start(t, y, box, delta), t, y, box,
                              delta, max_iter)


def reference_five_start_fit(temperatures_k, pressures_pa, delta=0.5,
                             max_iter=200):
    """The robust fit as it was before the scan start: five starts (one
    from a linear fit at a fixed C, four fixed) solved one after another;
    the first strictly lower final cost wins. Returns what
    :func:`reference_antoine_fit` returns."""
    t, y, box = _reference_window(temperatures_k, pressures_pa)
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


# ------------------------------------------------------------------- AdamW

def reference_adamw_step(params: dict, grads: dict, state: dict, lr: float,
                         betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
    """One AdamW update, tensor by tensor, in place on the ``params``
    arrays. ``state`` holds ``step`` and per-name ``m`` and ``v`` dicts,
    filled with zeros on the first step."""
    b1, b2 = betas
    state["step"] = state.get("step", 0) + 1
    bc1 = 1.0 - b1 ** state["step"]
    bc2 = 1.0 - b2 ** state["step"]
    m, v = state.setdefault("m", {}), state.setdefault("v", {})
    for name, p in params.items():
        g = grads[name]
        m[name] = b1 * m.get(name, np.zeros_like(p)) + (1.0 - b1) * g
        v[name] = b2 * v.get(name, np.zeros_like(p)) + (1.0 - b2) * g * g
        p *= 1.0 - lr * weight_decay
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


# ------------------------------------------------------ checkpoint documents

def checkpoint_arrays(doc: dict) -> dict[str, np.ndarray]:
    """Every array of a format-3 checkpoint document by name, decoded with
    the recipe ``docs/checkpoint_format.md`` prints."""
    data, arrays = bytes.fromhex(doc["data"]), {}
    for name, entry in doc["params"].items():
        off, shape = entry["offset"], entry["shape"]
        size = math.prod(shape)
        arrays[name] = np.frombuffer(data, "<f8")[off:off + size].reshape(shape)
    return arrays


def with_entry_values(doc: dict, name: str, values) -> dict:
    """A format-3 document whose entry ``name`` holds ``values``, written
    into a copy of its data at the entry's offset."""
    entry = doc["params"][name]
    flat = np.frombuffer(bytes.fromhex(doc["data"]), "<f8").copy()
    flat[entry["offset"]:entry["offset"] + math.prod(entry["shape"])] = \
        np.ravel(values)
    return {**doc, "data": flat.astype("<f8").tobytes().hex()}


# ------------------------------------------- the per-element Antoine checks
# The evaluator and inversion as they checked every element of every call,
# before a min/max guard let accepted input through; copied, with the check
# that refuses a result overflowed to an infinity added to each.

def _ln_p_kpa(a, b, c, temperature_k):
    """ln(p/kPa) and the valid-branch mask C + T > 0; +inf off the branch."""
    denom = c + np.asarray(temperature_k, dtype=np.float64)
    valid = denom > 0.0
    return np.where(valid, a - b / np.where(valid, denom, 1.0), np.inf), valid


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
    overflowed = np.isinf(out)
    if np.any(overflowed):
        raise AntoineDomainError(
            f"ln(p/kPa) overflows to {float(out[overflowed][0])} at "
            f"T={float(t[overflowed][0])} (A={params.A}, B={params.B}, "
            f"C={params.C})")
    return float(out) if np.isscalar(temperature_k) else out


def boiling_temperature(params: AntoineParams, pressure_pa) -> float:
    """Temperature at which the curve reaches the given pressure.

    Exact algebraic inverse of :func:`ln_vapor_pressure`; the parameters
    must be finite, the pressure finite and positive, and no solution exists
    once ln(p/kPa) reaches A. A solution must lie on the curve's domain,
    T > 0 and C + T > 0, as in-range parameters (B > 0, C <= 0) always give,
    and be finite.
    """
    _check_finite(params)
    p = _finite_positive(pressure_pa, "pressure")
    ln_p = np.log(p / PA_PER_KPA)
    reached = ln_p >= params.A
    if np.any(reached):
        raise AntoineDomainError(f"no boiling point: ln(p/kPa)="
                                 f"{float(ln_p[reached][0])} reaches A={params.A}")
    t = params.B / (params.A - ln_p) - params.C
    off = (t <= 0.0) | (params.C + t <= 0.0) | (t == math.inf)
    if np.any(off):
        if float(t[off][0]) == math.inf:
            raise AntoineDomainError(f"no boiling point: T overflows to inf "
                                     f"(A={params.A}, B={params.B}, "
                                     f"C={params.C})")
        raise AntoineDomainError(f"no boiling point: T={float(t[off][0])} is "
                                 f"off the curve, which needs T > 0 and "
                                 f"C + T > 0 (C={params.C})")
    return float(t) if np.isscalar(pressure_pa) else t


# ----------------------------------------------- the per-bin evaluation tables
# The binned tables, the grid and the boiling-point check as they were built
# one bin, cell and component at a time, with numpy's percentile, median and
# mean on each sample, before one sort per table replaced them.

def loop_scores(points: PredictedPoints) -> np.ndarray:
    """Each component's mean point APE, one component at a time."""
    return np.array([float(points.ape[rows].mean())
                     for rows in points.groups.values()])


def _loop_quartiles(sample: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        quartiles = np.percentile(sample, (25, 50, 75))
    lost = np.isnan(quartiles)
    if lost.any():
        at = (sample.size - 1) * np.array([0.25, 0.5, 0.75])
        exact = np.sort(sample)[at.astype(int)]
        quartiles[lost] = np.where(at % 1 == 0, exact, np.inf)[lost]
    return quartiles


def _loop_stats_row(sample: np.ndarray) -> dict:
    if not sample.size:
        return dict.fromkeys(("q1", "median", "q3", "whisker_lo", "whisker_hi"))
    q1, med, q3 = (float(q) for q in _loop_quartiles(sample))
    iqr = q3 - q1
    inside = sample[(sample >= q1 - 1.5 * iqr) & (sample <= q3 + 1.5 * iqr)]
    return {"q1": q1, "median": med, "q3": q3,
            "whisker_lo": float(inside.min()) if inside.size else q1,
            "whisker_hi": float(inside.max()) if inside.size else q3}


def _loop_bin_row(key: dict, mask: np.ndarray, scores: np.ndarray) -> dict:
    return {**key, "count": int(mask.sum()),
            "pct": 100.0 * mask.sum() / mask.size if mask.size else None,
            **_loop_stats_row(scores[mask])}


def loop_interval_table(values: np.ndarray, scores: np.ndarray,
                        edges) -> list[dict]:
    """One row per interval, its mask built alone; the last edge is closed."""
    edges = list(edges)
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        below = (values <= hi) if hi == edges[-1] else (values < hi)
        rows.append(_loop_bin_row({"lo": lo, "hi": hi}, (values >= lo) & below,
                                  scores))
    return rows


def loop_binned_reports(points: PredictedPoints) -> dict:
    """``binned_reports(points).to_dict()``, bin by bin."""
    scores = loop_scores(points)
    sizes = np.array([r.size for r in points.groups.values()], dtype=int)
    weights = points.mol_weight[[r[0] for r in points.groups.values()]]
    return {
        "pressure": loop_interval_table(points.p_exp_pa, points.ape,
                                        PRESSURE_EDGES_PA),
        "temperature": loop_interval_table(points.temperature_k, points.ape,
                                           TEMPERATURE_EDGES_K),
        "mol_weight": loop_interval_table(weights, scores, MOL_WEIGHT_EDGES),
        "min_points": [_loop_bin_row({"min_points": level}, sizes >= level,
                                     scores)
                       for level in MIN_POINTS_LEVELS],
    }


def loop_hexbin_grid(points: PredictedPoints) -> list[dict]:
    """``hexbin_grid``, with ``np.median`` on each cell's sample."""
    t_idx = np.floor(points.temperature_k / HEXBIN_T_STEP_K).astype(int)
    p_idx = np.floor(np.log(points.p_exp_pa / PA_PER_KPA)
                     / HEXBIN_LN_P_STEP).astype(int)
    cells: dict = {}
    for i, key in enumerate(zip(t_idx.tolist(), p_idx.tolist())):
        cells.setdefault(key, []).append(i)
    return [{"T_center": (ti + 0.5) * HEXBIN_T_STEP_K,
             "lnp_center": (pi + 0.5) * HEXBIN_LN_P_STEP,
             "MAPE_i": min(float(np.median(points.ape[rows])),
                           HEXBIN_CLIP_PERCENT),
             "count": len(rows)}
            for (ti, pi), rows in sorted(cells.items())]


def loop_boiling_point_eval(params_by_component: dict,
                            points: PredictedPoints) -> dict:
    """``boiling_point_eval(...).to_dict()``, one component at a time, each
    inverted by the library's scalar ``boiling_temperature``."""
    rows = []
    lo_pa, hi_pa = (bound * PA_PER_KPA for bound in BOILING_WINDOW_KPA)
    p_exp = points.p_exp_pa
    for component, idx in sorted(points.groups.items()):
        if idx.size < BOILING_MIN_POINTS or component not in params_by_component:
            continue
        near = idx[(p_exp[idx] >= lo_pa) & (p_exp[idx] <= hi_pa)]
        if not near.size:
            continue
        p_mean = float(np.mean(p_exp[near]))
        t_mean = float(np.mean(points.temperature_k[near]))
        t_pred = antoine.boiling_temperature(params_by_component[component],
                                             p_mean)
        rows.append({
            "component_id": component,
            "p_mean_pa": p_mean,
            "t_exp_k": t_mean,
            "t_pred_k": t_pred,
            "abs_err_k": abs(t_pred - t_mean),
            "rel_err_pct": abs(t_pred - t_mean) / t_mean * 100.0,
        })
    if rows:
        mae = float(np.mean([r["abs_err_k"] for r in rows]))
        rel = float(np.mean([r["rel_err_pct"] for r in rows]))
    else:
        mae = rel = float("nan")
    return {"rows": rows, "mae_k": mae, "mean_rel_err_pct": rel,
            "n_components": len(rows)}
