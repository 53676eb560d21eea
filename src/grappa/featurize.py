"""Molecular graphs for the network: 24 node features, 9 edge features.

Node row layout (one-hot blocks):
  [0..8]   element (C, N, O, Cl, S, F, Br, I, P)
  [9..13]  heavy-atom degree (0, 1, 2, 3, >=4)
  [14..17] hydrogen count (0, 1, 2, >=3)
  [18..21] hybridization (SP, SP2, SP3, OTHER)
  [22]     aromatic
  [23]     in ring

Edge vector layout:
  [0..3]   bond order (single, double, triple, aromatic)
  [4]      conjugated (both endpoints SP or SP2)
  [5]      in ring
  [6..8]   double-bond stereo (none, Z, E)

Ring flags come from one breadth-first spanning forest over the molecule's
one adjacency (``Molecule.adjacency``); hybridization walks the same
adjacency and reuses the molecule's hydrogen counts. One pass over the
atoms writes the node rows and counts H-bond donors and acceptors; one pass
over the bonds writes each bond's row in place and copies it to the reverse
edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .molecule import (
    ALLOWED_ELEMENTS,
    AROMATIC,
    DOUBLE,
    SINGLE,
    STANDARD_VALENCES,
    STEREO_E,
    STEREO_Z,
    TRIPLE,
    Molecule,
    molecular_weight,
)
from .smiles import bond_order_sum

NODE_FEATURES = 24
EDGE_FEATURES = 9

SP, SP2, SP3, OTHER = "SP", "SP2", "SP3", "OTHER"

_ELEMENT_SLOT = {el: i for i, el in enumerate(ALLOWED_ELEMENTS)}
_ORDER_SLOT = {SINGLE: 0, DOUBLE: 1, TRIPLE: 2, AROMATIC: 3}
_STEREO_SLOT = {"none": 0, STEREO_Z: 1, STEREO_E: 2}
_HYBRID_SLOT = {SP: 0, SP2: 1, SP3: 2, OTHER: 3}
_PI_LIKE = {SP, SP2}  # hybridizations of a conjugated bond's endpoints


class ScopeError(ValueError):
    """Raised when featurizing a molecule outside the model's domain."""

    def __init__(self, reasons):
        self.reasons = tuple(reasons)
        super().__init__("molecule out of scope: " + ", ".join(self.reasons))


@dataclass(frozen=True)
class ScopeResult:
    accepted: bool
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class MolGraph:
    """Featurized graph; every chemical bond yields two directed edge rows."""

    node_features: np.ndarray  # (N, 24)
    edges: np.ndarray  # (E, 2) int, row (i, j) and its reverse both present
    edge_features: np.ndarray  # (E, 9)
    h_donors: int
    h_acceptors: int
    heavy_atom_count: int
    mol_weight: float

    def __post_init__(self):
        for arr in (self.node_features, self.edges, self.edge_features):
            arr.setflags(write=False)


def ring_membership(mol: Molecule) -> tuple[list[bool], list[bool]]:
    """Per-atom and per-bond cycle flags from one breadth-first spanning
    forest over ``mol.adjacency``.

    Each bond the forest leaves out closes a cycle: that bond and the tree
    path between its ends are ring bonds, and no other bond is (the
    fundamental cycles of the forest). An atom lies on a cycle iff one of
    its bonds does. A molecule whose bonds are all forest bonds, as many
    as its atoms less the forest's trees, has no ring and skips the walk.
    """
    n = len(mol.atoms)
    adj = mol.adjacency
    depth = [-1] * n
    up = [(-1, -1)] * n  # per atom, its (parent atom, bond to it) in the forest
    roots = 0
    for root in range(n):
        if depth[root] >= 0:
            continue
        roots += 1
        depth[root] = 0
        queue = [root]
        for node in queue:
            for nxt, bi in adj[node]:
                if depth[nxt] < 0:
                    depth[nxt] = depth[node] + 1
                    up[nxt] = (node, bi)
                    queue.append(nxt)

    atom_flags = [False] * n
    bond_flags = [False] * len(mol.bonds)
    if len(mol.bonds) == n - roots:
        return atom_flags, bond_flags
    for bi, bond in enumerate(mol.bonds):
        a, b = bond.a, bond.b
        if bi in (up[a][1], up[b][1]):
            continue  # a forest bond
        bond_flags[bi] = atom_flags[a] = atom_flags[b] = True
        while a != b:  # up from the deeper end until the two ends meet
            if depth[a] < depth[b]:
                a, b = b, a
            a, tree_bond = up[a]
            bond_flags[tree_bond] = atom_flags[a] = True
    return atom_flags, bond_flags


def hybridizations(mol: Molecule) -> list[str]:
    """Deterministic hybridization labels from bond patterns and the
    molecule's hydrogen counts: SP for a triple bond or two doubles, SP2 for
    aromatic or one double, SP3 for C/N/O/S/P whose degree plus hydrogens
    stays within the smallest standard valence, else OTHER. An atom that
    reaches the SP3 test has only single bonds, so its degree is its bond
    order sum."""
    labels = []
    h_counts = mol.hydrogen_counts
    for idx, (atom, pairs) in enumerate(zip(mol.atoms, mol.adjacency)):
        orders = [mol.bonds[bi].order for _, bi in pairs]
        n_triple = orders.count(TRIPLE)
        n_double = orders.count(DOUBLE)
        if n_triple >= 1 or n_double >= 2:
            labels.append(SP)
        elif atom.aromatic or n_double >= 1:
            labels.append(SP2)
        elif atom.element in ("C", "N", "O", "S", "P") and (
            len(pairs) + h_counts[idx] <= STANDARD_VALENCES[atom.element][0]
        ):
            labels.append(SP3)
        else:
            labels.append(OTHER)
    return labels


def validate_scope(mol: Molecule) -> ScopeResult:
    """Model applicability check; rejection is a value, never an exception."""
    reasons = []
    if not any(a.element == "C" for a in mol.atoms):
        reasons.append("no carbon atom")
    for idx, atom in enumerate(mol.atoms):
        if atom.element not in ALLOWED_ELEMENTS:
            reasons.append(f"element {atom.element} not supported (atom {idx})")
        if atom.formal_charge != 0:
            reasons.append(f"formal charge on atom {idx}")
        if atom.isotope:
            reasons.append(f"isotope label on atom {idx}")
        if _is_radical(mol, idx):
            reasons.append(f"unpaired electrons on atom {idx}")
    return ScopeResult(not reasons, tuple(reasons))


def _is_radical(mol: Molecule, idx: int) -> bool:
    # Bracket atoms pin their hydrogen count; a total valence below every
    # standard value leaves unpaired electrons.
    atom = mol.atoms[idx]
    if atom.explicit_h is None or atom.formal_charge != 0:
        return False
    if atom.element not in STANDARD_VALENCES:
        return False
    total = bond_order_sum(mol, idx) + atom.explicit_h
    valences = STANDARD_VALENCES[atom.element]
    return total < max(valences) and total not in valences


def featurize(mol: Molecule) -> MolGraph:
    """Build the initial graph the network consumes.

    Raises :class:`ScopeError` for out-of-scope molecules.
    """
    scope = validate_scope(mol)
    if not scope.accepted:
        raise ScopeError(scope.reasons)

    n = len(mol.atoms)
    h_counts = mol.hydrogen_counts
    atom_ring, bond_ring = ring_membership(mol)
    hybrid = hybridizations(mol)

    x = np.zeros((n, NODE_FEATURES), dtype=np.float64)
    donors = acceptors = 0
    adjacency = mol.adjacency
    for idx, atom in enumerate(mol.atoms):
        x[idx, _ELEMENT_SLOT[atom.element]] = 1.0
        x[idx, 9 + min(len(adjacency[idx]), 4)] = 1.0
        x[idx, 14 + min(h_counts[idx], 3)] = 1.0
        x[idx, 18 + _HYBRID_SLOT[hybrid[idx]]] = 1.0
        if atom.aromatic:
            x[idx, 22] = 1.0
        if atom_ring[idx]:
            x[idx, 23] = 1.0
        if atom.element in ("N", "O"):
            acceptors += 1
            if h_counts[idx] >= 1:
                donors += 1

    edges = np.zeros((2 * len(mol.bonds), 2), dtype=np.int64)
    efeat = np.zeros((2 * len(mol.bonds), EDGE_FEATURES), dtype=np.float64)
    for bi, bond in enumerate(mol.bonds):
        row = efeat[2 * bi]
        row[_ORDER_SLOT[bond.order]] = 1.0
        if hybrid[bond.a] in _PI_LIKE and hybrid[bond.b] in _PI_LIKE:
            row[4] = 1.0
        if bond_ring[bi]:
            row[5] = 1.0
        row[6 + _STEREO_SLOT[bond.stereo]] = 1.0
        efeat[2 * bi + 1] = row
        edges[2 * bi] = (bond.a, bond.b)
        edges[2 * bi + 1] = (bond.b, bond.a)

    return MolGraph(
        node_features=x,
        edges=edges,
        edge_features=efeat,
        h_donors=donors,
        h_acceptors=acceptors,
        heavy_atom_count=n,
        mol_weight=molecular_weight(mol),
    )
