"""Chemical structures: atoms, bonds, and parsed molecules.

Hydrogen is never a node; it is tracked per heavy atom, either explicitly
(bracket atoms) or implicitly from standard valences. A molecule builds one
adjacency, each atom's (neighbor, bond index) pairs, which valence sums,
hybridization and ring perception all read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

ALLOWED_ELEMENTS = ("C", "N", "O", "Cl", "S", "F", "Br", "I", "P")

# Smallest-first standard valences used for implicit hydrogen filling.
STANDARD_VALENCES = {
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
    "S": (2, 4, 6),
    "P": (3, 5),
}

ATOMIC_WEIGHTS = {
    "H": 1.008,
    "C": 12.011,
    "N": 14.007,
    "O": 15.999,
    "F": 18.998,
    "P": 30.974,
    "S": 32.06,
    "Cl": 35.45,
    "Br": 79.904,
    "I": 126.904,
}

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

STEREO_NONE = "none"
STEREO_Z = "Z"
STEREO_E = "E"


@dataclass(frozen=True)
class Atom:
    element: str
    aromatic: bool = False
    explicit_h: int | None = None  # None = fill from valence rules
    formal_charge: int = 0
    isotope: bool = False


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: str = SINGLE
    stereo: str = STEREO_NONE


@dataclass(frozen=True)
class Molecule:
    """Immutable heavy-atom graph with bond orders and double-bond stereo."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    tetra_centers: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        n = len(self.atoms)
        seen: set[tuple[int, int]] = set()
        for bond in self.bonds:
            if not (0 <= bond.a < n and 0 <= bond.b < n):
                raise ValueError(f"bond endpoint out of range: {bond}")
            if bond.a == bond.b:
                raise ValueError(f"bond endpoints must be distinct: {bond}")
            key = (min(bond.a, bond.b), max(bond.a, bond.b))
            if key in seen:
                raise ValueError(f"duplicate bond between atoms {key}")
            seen.add(key)
            if bond.order == AROMATIC and not (
                self.atoms[bond.a].aromatic and self.atoms[bond.b].aromatic
            ):
                raise ValueError(
                    f"aromatic bond {key} between non-aromatic atoms"
                )

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per atom, its (neighbor, bond index) pairs in bond-tuple order,
        built on first use: the one adjacency that valence sums,
        hybridization and ring perception read."""
        table: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for bi, bond in enumerate(self.bonds):
            table[bond.a].append((bond.b, bi))
            table[bond.b].append((bond.a, bi))
        return tuple(map(tuple, table))

    @cached_property
    def hydrogen_counts(self) -> tuple[int, ...]:
        """Hydrogen count per atom (``smiles.implicit_hydrogens``), computed
        once: ``parse_smiles`` checks valences with it and ``featurize``
        reuses it."""
        from .smiles import implicit_hydrogens  # smiles builds on this module

        return tuple(implicit_hydrogens(self))


def permute_molecule(mol: Molecule, perm: list[int] | tuple[int, ...]) -> Molecule:
    """Relabel atoms so old index i becomes perm[i]; useful for invariance checks."""
    n = len(mol.atoms)
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of atom indices")
    atoms: list[Atom | None] = [None] * n
    for i, atom in enumerate(mol.atoms):
        atoms[perm[i]] = atom
    bonds = tuple(
        replace(b, a=perm[b.a], b=perm[b.b]) for b in mol.bonds
    )
    tetra = tuple((perm[i], parity) for i, parity in mol.tetra_centers)
    return Molecule(tuple(atoms), bonds, tetra)


def molecular_weight(mol: Molecule) -> float:
    """Mass in g/mol from heavy atoms plus the molecule's hydrogen counts."""
    total = sum(ATOMIC_WEIGHTS[a.element] for a in mol.atoms)
    total += ATOMIC_WEIGHTS["H"] * sum(mol.hydrogen_counts)
    return total
