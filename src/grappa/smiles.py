"""SMILES parser for the organic subset used by the model.

Supported grammar (documented in the README):

* organic-subset atoms ``C N O S P F Cl Br I`` and aromatic ``c n o s p``
* bracket atoms ``[isotope? symbol (@|@@)? H(count)? charge?]``
* bond symbols ``- = # : / \\``
* branches ``( ... )`` and ring closures ``1``-``9`` and ``%nn``

The input is read in one pass over its tokens. A token is a bracket atom
``[...]``, a two-letter organic atom ``Cl`` or ``Br``, a ``%nn`` ring
closure, or any other one character. Every parse error is a
:class:`SmilesError` that names the offset of the character at fault; a
conflict between directional bonds names its atom and the second
conflicting bond symbol.

Directional single bonds are resolved to Z/E labels on the adjacent double
bond using the marked substituent pair (no CIP priorities). Tetrahedral
markers are recorded but carry no feature downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .molecule import (AROMATIC, DOUBLE, SINGLE, STANDARD_VALENCES, STEREO_E,
                       STEREO_Z, TRIPLE, Atom, Bond, Molecule)


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


class CountTooLongError(SmilesError):
    """Bracket hydrogen count or charge with more digits than ``int`` reads."""


class ValenceError(SmilesError):
    """Bond-order sum exceeds every standard valence of the element."""

    def __init__(self, message: str, offset: int | None = None,
                 atom_index: int | None = None):
        self.atom_index = atom_index
        super().__init__(message, offset)


# Each organic-subset symbol's atom, built once: ``Atom`` is frozen.
_ORGANIC_ATOMS = {sym: Atom(sym) for sym in "C N O S P F I Cl Br".split()} | {
    sym: Atom(sym.upper(), aromatic=True) for sym in "cnosp"}
_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC,
               "/": SINGLE, "\\": SINGLE}
_ORDER_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3}

# One token. A ``[`` with no ``]`` after it is a token of its own, and so is
# a newline (DOTALL), so the tokens cover every character.
_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|%\d\d|.", re.DOTALL)
# A bracket atom's body: isotope, symbol, tetrahedral marks, hydrogens, then
# a run of charge signs and its count. It always matches, perhaps short of
# the body's end: ``_bracket_atom`` refuses an unknown or empty symbol, a
# sign run that mixes ``+`` and ``-``, and any tail left unmatched.
_BRACKET = re.compile(
    r"(\d*)(Cl|Br|[A-Z][a-z]|[A-Za-z]?)(@{0,2})(?:H(\d*))?(?:([+-]+)(\d*))?")


@dataclass
class _PendingBond:
    order: str
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
    # Directional annotations in written order: (first atom, second atom,
    # symbol, the symbol's offset).
    directed: list[tuple[int, int, str, int]] = []

    anchor: int | None = None
    pending: _PendingBond | None = None
    branch_stack: list[tuple[int | None, int]] = []  # (anchor, offset of '(')
    rings: dict[int, _RingHandle] = {}

    def add_bond(a: int, b: int, bond: _PendingBond | None, offset: int,
                 written: tuple[int, int] | None = None):
        if a == b:
            raise SmilesError("ring closure bonds an atom to itself", offset)
        pair = (min(a, b), max(a, b))
        if pair in bonded:
            raise SmilesError(f"duplicate bond between atoms {a} and {b}", offset)
        both_aromatic = atoms[a].aromatic and atoms[b].aromatic
        order = bond.order if bond else (AROMATIC if both_aromatic else SINGLE)
        if order == AROMATIC and not both_aromatic:
            raise SmilesError("aromatic bond between non-aromatic atoms", offset)
        if bond and bond.direction:
            directed.append((*(written or (a, b)), bond.direction, bond.offset))
        bonds.append(Bond(a, b, order))
        bonded.add(pair)

    i = 0  # the token's offset
    for tok in _TOKEN.findall(text):
        if tok == "(":
            if pending is not None:
                raise DanglingBondError("bond symbol before branch", pending.offset)
            if anchor is None:
                raise SmilesError("branch before any atom", i)
            branch_stack.append((anchor, i))
        elif tok == ")":
            if pending is not None:
                raise DanglingBondError("bond symbol before ')'", pending.offset)
            if not branch_stack:
                raise UnbalancedSmilesError("unmatched ')'", i)
            anchor, _ = branch_stack.pop()
        elif tok in _BOND_CHARS:
            if pending is not None:
                raise DanglingBondError("two bond symbols in a row", i)
            pending = _PendingBond(_BOND_CHARS[tok],
                                   tok if tok in "/\\" else None, i)
        elif tok.isdigit() or tok[0] == "%":
            if anchor is None:
                raise SmilesError("ring closure before any atom", i)
            if tok == "%":
                raise SmilesError("'%' needs two digits", i)
            num = int(tok.lstrip("%"))
            if num in rings:
                handle = rings.pop(num)
                bond = _merge_ring_bonds(handle.bond, pending, i)
                # A bond symbol at the closure follows this atom, so it is
                # written from here to the opener.
                add_bond(handle.atom, anchor, bond, i,
                         (anchor, handle.atom) if bond is pending else None)
            else:
                rings[num] = _RingHandle(anchor, pending, i)
            pending = None
        else:
            if tok == "[":
                raise UnbalancedSmilesError("unterminated bracket atom", i)
            if tok[0] == "[":
                atom, chirality = _bracket_atom(tok[1:-1], i + 1)
                if chirality:
                    tetra.append((len(atoms), chirality))
            elif (atom := _ORGANIC_ATOMS.get(tok)) is None:
                raise UnknownAtomError(f"unknown symbol {tok!r}", i)
            idx = len(atoms)
            atoms.append(atom)
            atom_offsets.append(i)
            if anchor is not None:
                add_bond(anchor, idx, pending, i)
            elif pending is not None:
                raise DanglingBondError("bond symbol before first atom", pending.offset)
            pending = None
            anchor = idx
        i += len(tok)

    if pending is not None:
        raise DanglingBondError("trailing bond symbol", pending.offset)
    if branch_stack:
        raise UnbalancedSmilesError("unmatched '('", branch_stack[-1][1])
    if rings:
        first = min(rings.values(), key=lambda h: h.offset)
        raise UnbalancedSmilesError("unclosed ring closure", first.offset)

    bonds = _resolve_double_bond_stereo(bonds, directed)
    mol = Molecule(tuple(atoms), tuple(bonds), tuple(tetra))
    try:
        mol.hydrogen_counts  # trips ValenceError eagerly; kept for featurize
    except ValenceError as err:
        if err.atom_index is not None and err.offset is None:
            raise ValenceError(str(err), offset=atom_offsets[err.atom_index],
                               atom_index=err.atom_index) from None
        raise
    return mol


def _bracket_atom(body: str, at: int) -> tuple[Atom, str | None]:
    """The atom of a bracket ``body`` that starts at offset ``at``, and its
    tetrahedral marker (``@`` or ``@@``), if any; a third ``@`` is refused
    as an unexpected character."""
    m = _BRACKET.match(body)
    isotope, symbol, chirality, hydrogens, signs, digits = m.groups()
    base = _ORGANIC_ATOMS.get(symbol)
    if base is None:
        # A two-letter symbol such as Na or Se is refused whole, not read
        # as N or S, and named alone.
        name = symbol if len(symbol) == 2 else body[m.end(1):] or body
        raise UnknownAtomError(f"unknown bracket atom symbol {name!r}",
                               at + m.start(2))
    hcount = (0 if hydrogens is None
              else _count(hydrogens or "1", at + m.start(4), "hydrogen count"))
    charge = 0
    if signs:
        if mixed := signs.lstrip(signs[0]):
            raise SmilesError("mixed charge signs", at + m.end(5) - len(mixed))
        charge = _count(digits, at + m.start(6), "charge") if digits else len(signs)
        charge = -charge if signs[0] == "-" else charge
    if m.end() != len(body):
        raise UnknownAtomError(f"unexpected {body[m.end():]!r} in bracket atom",
                               at + m.end())
    return Atom(base.element, base.aromatic, explicit_h=hcount,
                formal_charge=charge, isotope=bool(isotope)), chirality or None


def _count(digits: str, offset: int, what: str) -> int:
    """A bracket atom's hydrogen count or charge, read from ``digits``."""
    try:
        return int(digits)
    except ValueError:  # beyond ``sys.get_int_max_str_digits()``
        raise CountTooLongError(f"{what} of {len(digits)} digits is too long "
                                f"to read", offset) from None


def _merge_ring_bonds(opening: _PendingBond | None, closing: _PendingBond | None,
                      offset: int) -> _PendingBond | None:
    if opening is None:
        return closing
    if closing is None:
        return opening
    if opening.order != closing.order:
        raise SmilesError("conflicting ring bond orders", offset)
    return closing


def _resolve_double_bond_stereo(bonds, directed):
    """Assign Z/E to double bonds flanked by directional single bonds.

    ``/`` written as ``u/v`` places u below v; ``\\`` places u above v. The
    marked substituents on the two ends are compared: same side = Z.
    """
    if not directed:
        return bonds
    out = list(bonds)
    for k, bond in enumerate(out):
        if bond.order != DOUBLE:
            continue
        sides = []
        for center in (bond.a, bond.b):
            # True = the marked neighbor sits "up" from the center. No
            # directional bond joins the double bond's own two atoms, since
            # a pair is bonded once.
            marks = [((symbol == "/") == (second != center), offset)
                     for first, second, symbol, offset in directed
                     if center in (first, second)]
            # Two marked substituents on one end must be on opposite sides.
            if len(marks) > 1 and len({up for up, _ in marks}) == 1:
                raise SmilesError(
                    f"conflicting directional bonds around atom {center}",
                    marks[1][1])
            sides.append(marks[0][0] if marks else None)
        if None not in sides:
            stereo = STEREO_Z if sides[0] == sides[1] else STEREO_E
            out[k] = Bond(bond.a, bond.b, bond.order, stereo)
    return out


def bond_order_sum(mol: Molecule, idx: int) -> int:
    """Valence contribution of explicit bonds at atom ``idx``.

    Aromatic bonds count one each plus a single pi increment for carbon and
    bare aromatic nitrogen/phosphorus (lone-pair donors O/S and [nH]-style
    atoms contribute none), which reproduces Kekule valences without ring
    perception.
    """
    atom = mol.atoms[idx]
    total = 0
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
