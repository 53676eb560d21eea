"""SMILES parser for the organic subset used by the model.

Supported grammar (documented in the README):

* organic-subset atoms ``C N O S P F Cl Br I`` and aromatic ``c n o s p``
* bracket atoms ``[isotope? symbol (@|@@)? H(count)? charge?]``
* bond symbols ``- = # : / \\``
* branches ``( ... )`` and ring closures ``1``-``9`` and ``%nn``

Directional single bonds are resolved to Z/E labels on the adjacent double
bond using the marked substituent pair (no CIP priorities). Tetrahedral
markers are recorded but carry no feature downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .molecule import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    STANDARD_VALENCES,
    STEREO_E,
    STEREO_Z,
    TRIPLE,
    Atom,
    Bond,
    Molecule,
)


class SmilesError(ValueError):
    """Base parse error; ``offset`` is the character position in the input."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at position {offset})"
        super().__init__(message)


class UnbalancedSmilesError(SmilesError):
    """Unmatched parenthesis or ring-closure digit."""


class UnknownAtomError(SmilesError):
    """Atom symbol outside the supported element set."""


class DanglingBondError(SmilesError):
    """Bond symbol with no atom to attach to."""


class ValenceError(SmilesError):
    """Bond-order sum exceeds every standard valence of the element."""

    def __init__(self, message: str, offset: int | None = None,
                 atom_index: int | None = None):
        self.atom_index = atom_index
        super().__init__(message, offset)


_ORGANIC_TWO = {"Cl", "Br"}
_ORGANIC_ONE = {"C", "N", "O", "S", "P", "F", "I"}
_AROMATIC_ORGANIC = {"c", "n", "o", "s", "p"}
# Each organic-subset symbol's atom, built once: ``Atom`` is frozen.
_ORGANIC_ATOMS = {sym: Atom(sym) for sym in _ORGANIC_ONE | _ORGANIC_TWO} | {
    sym: Atom(sym.upper(), aromatic=True) for sym in _AROMATIC_ORGANIC}
_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_DIRECTIONAL = {"/", "\\"}

_ORDER_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3}


@dataclass
class _PendingBond:
    order: str | None  # None = default (single or aromatic)
    direction: str | None  # "/" or "\\"
    offset: int


@dataclass
class _RingHandle:
    atom: int
    bond: _PendingBond | None
    offset: int


def parse_smiles(text: str) -> Molecule:
    """Parse a SMILES string into a :class:`Molecule`.

    Raises a :class:`SmilesError` subclass with the offending character
    offset for syntax, valence, or balance problems, and ``TypeError`` for
    anything but a ``str``.
    """
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
    # Directional annotations in written order: (first atom, second atom, symbol).
    directed: list[tuple[int, int, str]] = []

    anchor: int | None = None
    pending: _PendingBond | None = None
    branch_stack: list[tuple[int | None, int]] = []  # (anchor, offset of '(')
    rings: dict[int, _RingHandle] = {}

    def add_bond(a: int, b: int, bond: _PendingBond | None, offset: int,
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
                directed.append((*ring_written_order, bond.direction))
            else:
                directed.append((a, b, bond.direction))
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

        if ch in _BOND_CHARS or ch in _DIRECTIONAL:
            if pending is not None:
                raise DanglingBondError("two bond symbols in a row", i)
            if ch in _DIRECTIONAL:
                pending = _PendingBond(SINGLE, ch, i)
            else:
                pending = _PendingBond(_BOND_CHARS[ch], None, i)
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
                bond = _merge_ring_bonds(handle.bond, pending, i)
                written = None
                if pending is not None and pending.direction is not None:
                    written = (anchor, handle.atom)
                elif handle.bond is not None and handle.bond.direction is not None:
                    written = (handle.atom, anchor)
                add_bond(handle.atom, anchor, bond, i, ring_written_order=written)
            else:
                rings[num] = _RingHandle(anchor, pending, i)
            pending = None
            i += width
            continue

        if ch == "[":
            atom, width, chirality = _parse_bracket_atom(text, i)
        else:
            atom, width = _parse_organic_atom(text, i)
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

    bonds = _resolve_double_bond_stereo(atoms, bonds, directed)
    mol = Molecule(tuple(atoms), tuple(bonds), tuple(tetra))
    try:
        mol.hydrogen_counts  # trips ValenceError eagerly; kept for featurize
    except ValenceError as err:
        if err.atom_index is not None and err.offset is None:
            raise ValenceError(str(err), offset=atom_offsets[err.atom_index],
                               atom_index=err.atom_index) from None
        raise
    return mol


def _parse_organic_atom(text: str, i: int) -> tuple[Atom, int]:
    two = text[i : i + 2]
    if two in _ORGANIC_TWO:
        return _ORGANIC_ATOMS[two], 2
    atom = _ORGANIC_ATOMS.get(text[i])
    if atom is None:
        raise UnknownAtomError(f"unknown symbol {text[i]!r}", i)
    return atom, 1


def _parse_bracket_atom(text: str, start: int) -> tuple[Atom, int, str | None]:
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
    if sym2 in _ORGANIC_TWO:
        element, aromatic = sym2, False
        j += 2
    elif len(sym2) == 2 and sym2[0].isupper() and sym2[1].islower():
        # A two-letter element outside the subset, such as Na or Se, whose
        # first letter alone would read as N or S.
        raise UnknownAtomError(f"unknown bracket atom symbol {sym2!r}",
                               start + 1 + j)
    elif sym1 in _ORGANIC_ONE:
        element, aromatic = sym1, False
        j += 1
    elif sym1 in _AROMATIC_ORGANIC:
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
        raise UnknownAtomError(f"unexpected {body[j:]!r} in bracket atom", start + 1 + j)
    return Atom(element, aromatic, explicit_h=hcount, formal_charge=charge,
                isotope=isotope), end - start + 1, chirality


def _merge_ring_bonds(opening: _PendingBond | None, closing: _PendingBond | None,
                      offset: int) -> _PendingBond | None:
    if opening is None:
        return closing
    if closing is None:
        return opening
    if opening.order != closing.order:
        raise SmilesError("conflicting ring bond orders", offset)
    return closing


def _resolve_double_bond_stereo(atoms, bonds, directed):
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
            for first, second, symbol in directed:
                if center not in (first, second):
                    continue
                other = second if first == center else first
                if other in (bond.a, bond.b):
                    continue
                marks.append(side_relative_to(center, first, second, symbol))
            if not marks:
                sides.append(None)
                continue
            # Two marked substituents on one end must be on opposite sides.
            if len(marks) > 1 and len(set(marks)) == 1:
                raise SmilesError(
                    f"conflicting directional bonds around atom {center}"
                )
            sides.append(marks[0])
        if sides[0] is None or sides[1] is None:
            continue
        stereo = STEREO_Z if sides[0] == sides[1] else STEREO_E
        out[k] = Bond(bond.a, bond.b, bond.order, stereo)
    return out


def bond_order_sum(mol: Molecule, idx: int) -> float:
    """Valence contribution of explicit bonds at atom ``idx``.

    Aromatic bonds count one each plus a single pi increment for carbon and
    bare aromatic nitrogen/phosphorus (lone-pair donors O/S and [nH]-style
    atoms contribute none), which reproduces Kekule valences without ring
    perception.
    """
    atom = mol.atoms[idx]
    total = 0.0
    n_aromatic = 0
    for _, bi in mol.adjacency[idx]:
        order = mol.bonds[bi].order
        if order == AROMATIC:
            n_aromatic += 1
        else:
            total += _ORDER_VALUE[order]
    if n_aromatic:
        total += n_aromatic
        pi_donor = atom.element in ("O", "S") or (
            atom.element in ("N", "P") and (atom.explicit_h or 0) > 0
        )
        if atom.element == "C" or not pi_donor:
            total += 1
    return total


def implicit_hydrogens(mol: Molecule) -> list[int]:
    """Hydrogen count per atom: explicit for bracket atoms, filled from the
    smallest standard valence otherwise."""
    counts = []
    for idx, atom in enumerate(mol.atoms):
        bond_sum = bond_order_sum(mol, idx)
        bond_sum = int(math.ceil(bond_sum))
        valences = STANDARD_VALENCES[atom.element]
        if atom.explicit_h is not None:
            if atom.formal_charge == 0 and bond_sum + atom.explicit_h > max(valences):
                raise ValenceError(
                    f"atom {idx} ({atom.element}): bonds + explicit H exceed "
                    f"valence {max(valences)}", atom_index=idx,
                )
            counts.append(atom.explicit_h)
            continue
        fitting = [v for v in valences if v >= bond_sum]
        if not fitting:
            raise ValenceError(
                f"atom {idx} ({atom.element}): bond order sum {bond_sum} exceeds "
                f"valence {max(valences)}", atom_index=idx,
            )
        counts.append(fitting[0] - bond_sum)
    return counts
