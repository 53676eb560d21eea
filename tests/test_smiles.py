import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grappa.molecule import AROMATIC, DOUBLE, SINGLE, Molecule, permute_molecule
from grappa.smiles import (
    CountTooLongError,
    DanglingBondError,
    SmilesError,
    UnbalancedSmilesError,
    UnknownAtomError,
    ValenceError,
    implicit_hydrogens,
    parse_smiles,
)

from _oracles import char_walk_parse_smiles, molecules_isomorphic


def test_ethanol_chain():
    mol = parse_smiles("CCO")
    assert [a.element for a in mol.atoms] == ["C", "C", "O"]
    assert len(mol.bonds) == 2
    assert all(b.order == SINGLE for b in mol.bonds)


def test_benzene_ring():
    mol = parse_smiles("c1ccccc1")
    assert len(mol.atoms) == 6
    assert all(a.element == "C" and a.aromatic for a in mol.atoms)
    assert len(mol.bonds) == 6
    assert all(b.order == AROMATIC for b in mol.bonds)


def test_trans_difluoroethene_stereo():
    # Opposite-side markers on both ends: the double bond is E.
    mol = parse_smiles("F/C=C/F")
    assert len(mol.atoms) == 4
    double = [b for b in mol.bonds if b.order == DOUBLE]
    assert len(double) == 1
    assert double[0].stereo == "E"


def test_cis_difluoroethene_stereo():
    mol = parse_smiles("F/C=C\\F")
    double = [b for b in mol.bonds if b.order == DOUBLE]
    assert double[0].stereo == "Z"


def test_branch_stereo_spelling():
    # C(/F)=C/F rewrites to F\C=C/F: both substituents up, so Z.
    mol = parse_smiles("C(/F)=C/F")
    double = [b for b in mol.bonds if b.order == DOUBLE]
    assert double[0].stereo == "Z"


@pytest.mark.parametrize("smiles,atom,offset", [
    ("F/C=C(/F)/F", 2, 9),     # both marks on atom 2 put their F up
    ("F/C(\\F)=C/F", 1, 4),    # F/C and C\F put both F down from atom 1
    ("F/C=C1/CCCC\\1", 2, 11),  # a ring-closure mark counts at its symbol
], ids=["branch", "first-atom", "ring-closure"])
def test_a_directional_bond_conflict_names_its_second_bond_symbol(
        smiles, atom, offset):
    with pytest.raises(SmilesError) as err:
        parse_smiles(smiles)
    assert err.value.offset == offset
    assert str(err.value) == (f"conflicting directional bonds around atom "
                              f"{atom} (at position {offset})")


def test_unmarked_double_bond_has_no_stereo():
    mol = parse_smiles("CC=CC")
    double = [b for b in mol.bonds if b.order == DOUBLE]
    assert double[0].stereo == "none"


@pytest.mark.parametrize("smiles,expected", [
    ("C", [4]),
    ("CCO", [3, 2, 1]),
    ("C=C", [2, 2]),
    ("C#C", [1, 1]),
    ("CC(=O)O", [3, 0, 0, 1]),
])
def test_implicit_hydrogens_chains(smiles, expected):
    assert implicit_hydrogens(parse_smiles(smiles)) == expected


def test_pyridine_nitrogen_has_no_hydrogen():
    mol = parse_smiles("c1ccncc1")
    counts = implicit_hydrogens(mol)
    n_index = next(i for i, a in enumerate(mol.atoms) if a.element == "N")
    assert counts[n_index] == 0
    assert sum(counts) == 5


def test_fused_aromatic_junctions():
    mol = parse_smiles("c1ccc2ccccc2c1")  # naphthalene
    counts = implicit_hydrogens(mol)
    degrees = [len(pairs) for pairs in mol.adjacency]
    for count, degree in zip(counts, degrees):
        assert count == (0 if degree == 3 else 1)


def test_aromatic_heteroatoms():
    furan = parse_smiles("c1ccoc1")
    o_index = next(i for i, a in enumerate(furan.atoms) if a.element == "O")
    assert implicit_hydrogens(furan)[o_index] == 0
    thiophene = parse_smiles("c1ccsc1")
    s_index = next(i for i, a in enumerate(thiophene.atoms) if a.element == "S")
    assert implicit_hydrogens(thiophene)[s_index] == 0
    pyrrole = parse_smiles("c1cc[nH]c1")
    n_index = next(i for i, a in enumerate(pyrrole.atoms) if a.element == "N")
    assert implicit_hydrogens(pyrrole)[n_index] == 1


def test_bracket_atom_fields():
    mol = parse_smiles("[13CH3]C")
    atom = mol.atoms[0]
    assert atom.isotope and atom.explicit_h == 3 and atom.formal_charge == 0
    mol = parse_smiles("[NH4+]")
    assert mol.atoms[0].formal_charge == 1
    mol = parse_smiles("C[O-]")
    assert mol.atoms[1].formal_charge == -1


@pytest.mark.parametrize("smiles, offset, what", [
    ("[CH" + "9" * 5000 + "]", 3, "hydrogen count"),
    ("C[13NH" + "0" * 4301 + "+]", 6, "hydrogen count"),
    ("C[N+" + "7" * 4400 + "]C", 4, "charge"),
    ("[O--" + "1" * 5000 + "x]", 4, "charge"),
])
def test_a_count_too_long_to_read_is_a_smiles_error(smiles, offset, what):
    # ``int`` refuses more than 4,300 digits; the error names where they start.
    with pytest.raises(CountTooLongError, match=f"^{what} of ") as info:
        parse_smiles(smiles)
    assert info.value.offset == offset


@pytest.mark.parametrize("smiles, symbol", [
    ("[Na+].[Cl-]", "Na"), ("[Se]", "Se"), ("C[Si](C)(C)C", "Si"),
    ("[13Sn]", "Sn"), ("[Co@H]", "Co")])
def test_two_letter_bracket_elements_are_unknown_atoms(smiles, symbol):
    # Not N, S or C followed by a stray lowercase letter.
    with pytest.raises(UnknownAtomError) as info:
        parse_smiles(smiles)
    assert str(info.value).startswith(f"unknown bracket atom symbol {symbol!r}")
    assert smiles[info.value.offset:].startswith(symbol)


@pytest.mark.parametrize("smiles, index, element", [
    ("c1cc[nH]c1", 3, "N"), ("C[Cl-]", 1, "Cl"), ("[Br]C", 0, "Br"),
    ("[13CH3]C", 0, "C"), ("F[C@@H](Cl)Br", 1, "C")])
def test_bracket_atoms_of_the_subset_still_parse(smiles, index, element):
    assert parse_smiles(smiles).atoms[index].element == element


def test_tetrahedral_markers_recorded_not_featurized():
    mol = parse_smiles("C[C@H](N)C(=O)O")
    assert mol.tetra_centers == ((1, "@"),)


@pytest.mark.parametrize("smiles, centers", [
    ("F[C@@H](Cl)Br", ((1, "@@"),)),
    ("[C@H](F)(Cl)Br", ((0, "@"),)),
    ("C[C@@H](O)[C@H](N)C", ((1, "@@"), (3, "@"))),
    ("C[CH2]C", ()),
])
def test_tetrahedral_markers_of_either_parity(smiles, centers):
    # The marker comes from the bracket's one parse, whether or not a bond
    # leads to the atom; it changes no atom or bond.
    mol = parse_smiles(smiles)
    assert mol.tetra_centers == centers
    plain = parse_smiles(smiles.replace("@", ""))
    assert (mol.atoms, mol.bonds) == (plain.atoms, plain.bonds)


@pytest.mark.parametrize("smiles, offset", [
    ("F[C@@@H](Cl)Br", 5), ("F[C@@@@@H](Cl)Br", 5), ("[C@@@]C", 4),
    ("C[N@@@+](C)(C)C", 5),
])
def test_a_run_of_three_tetrahedral_marks_is_refused(smiles, offset):
    # SMILES defines ``@`` and ``@@`` only; the third ``@`` is the error.
    with pytest.raises(UnknownAtomError) as info:
        parse_smiles(smiles)
    assert info.value.offset == offset


def test_percent_ring_closure():
    mol = parse_smiles("C%10CCCC%10")
    assert len(mol.bonds) == 5


def test_explicit_ring_bond_order():
    mol = parse_smiles("C=1CCCCC=1")
    assert sum(1 for b in mol.bonds if b.order == DOUBLE) == 1


@pytest.mark.parametrize("smiles,err", [
    ("CC(C", UnbalancedSmilesError),
    ("CC)C", UnbalancedSmilesError),
    ("C1CC", UnbalancedSmilesError),
    ("[CH3", UnbalancedSmilesError),
    ("CX", UnknownAtomError),
    ("[Xe]C", UnknownAtomError),
    ("CC-", DanglingBondError),
    ("C(-)C", DanglingBondError),
    ("C==C", DanglingBondError),
    ("-CC", DanglingBondError),
    ("-[CH3]C", DanglingBondError),
    ("C(C)(C)(C)(C)C", ValenceError),
    ("O=C(=O)(=O)", ValenceError),
])
def test_parse_errors(smiles, err):
    with pytest.raises(err) as info:
        parse_smiles(smiles)
    assert info.value.offset is not None


def test_error_offsets_point_at_the_problem():
    with pytest.raises(UnknownAtomError) as info:
        parse_smiles("CCX")
    assert info.value.offset == 2
    with pytest.raises(DanglingBondError) as info:
        parse_smiles("CC=")
    assert info.value.offset == 2


@pytest.mark.parametrize("smiles", ["-CC", "-[CH3]C", "=[C@H](F)Cl"])
def test_bond_before_the_first_atom_points_at_the_bond(smiles):
    # Organic and bracket first atoms share one attach path and one error.
    with pytest.raises(DanglingBondError, match="before first atom") as info:
        parse_smiles(smiles)
    assert info.value.offset == 0


@pytest.mark.parametrize("text", [123, b"CCO", None, ["CCO"], 1.5])
def test_a_non_str_is_refused_by_its_type(text):
    with pytest.raises(TypeError, match=f"got {type(text).__name__}$"):
        parse_smiles(text)


def test_empty_and_non_ascii_rejected():
    with pytest.raises(SmilesError):
        parse_smiles("")
    with pytest.raises(SmilesError):
        parse_smiles("Cé")


def test_aromatic_bond_needs_aromatic_atoms():
    with pytest.raises(SmilesError):
        parse_smiles("C:C")


def test_duplicate_ring_bond_rejected():
    with pytest.raises(SmilesError):
        parse_smiles("C12CC12")


@pytest.mark.parametrize("left,right", [
    ("CCO", "OCC"),
    ("CC(C)O", "OC(C)C"),
    ("c1ccccc1C", "Cc1ccccc1"),
    ("CC(=O)OC", "COC(C)=O"),
    ("C1CCCCC1O", "OC1CCCCC1"),
])
def test_alternate_spellings_are_isomorphic(left, right):
    assert molecules_isomorphic(parse_smiles(left), parse_smiles(right))


def test_different_molecules_are_not_isomorphic():
    assert not molecules_isomorphic(parse_smiles("CCO"), parse_smiles("CCN"))
    assert not molecules_isomorphic(parse_smiles("CC=O"), parse_smiles("CCO"))


def test_permuted_molecule_is_isomorphic():
    rng = np.random.default_rng(7)
    mol = parse_smiles("CC(=O)Oc1ccccc1")
    for _ in range(5):
        perm = rng.permutation(len(mol.atoms)).tolist()
        assert molecules_isomorphic(mol, permute_molecule(mol, perm))


def test_molecule_invariants_enforced():
    from grappa.molecule import Atom, Bond

    with pytest.raises(ValueError):
        Molecule((Atom("C"),), (Bond(0, 0),))
    with pytest.raises(ValueError):
        Molecule((Atom("C"), Atom("C")), (Bond(0, 1), Bond(1, 0)))
    with pytest.raises(ValueError):
        Molecule((Atom("C"), Atom("C")), (Bond(0, 1, AROMATIC),))


# SMILES are drawn from the grammar's tokens (atoms, bonds, branches and ring
# closures, and bracket bodies that the grammar may refuse) or from whole
# molecules, and then mutated.
ATOMS = st.sampled_from(
    ["C", "C", "C", "N", "O", "S", "P", "F", "I", "Cl", "Br"] * 2
    + ["c", "n", "o", "s", "p", "[CH3]", "[nH]", "[O-]", "[NH4+]", "[13CH3]",
       "[C@@H]", "[C@H]", "[N+]"])
BRACKET_BODIES = st.one_of(
    st.tuples(st.sampled_from(["", "13"]),
              st.sampled_from(["C", "N", "c", "Cl", "Na", "X", ""]),
              st.text("@", max_size=3), st.sampled_from(["", "H", "H2"]),
              st.text("+-", max_size=3), st.text("0123456789", max_size=2)
              ).map("".join),
    st.text("0123456789CNOSPclnoBrHX@+-", max_size=8))
BONDS = st.sampled_from(["", "", "", "", "", "-", "=", "#", ":", "/", "\\"])
AFTER_ATOM = st.sampled_from(["", "", "", "", "", "1", "2", "=1", "/1",
                              "%10", "(C)", "(/F)", "(=O)"])
MOLECULES = st.sampled_from([
    "CCO", "c1ccccc1O", "F/C=C/F", "C/C=C\\C", "CC(=O)OC", "C1CCC2CCCCC2C1",
    "OC(=O)/C=C/C(=O)O", "C/1=C/CCCCCC1", "c1cc[nH]c1", "C[N+](C)(C)C",
    "F[C@@H](Cl)Br", "CC%10CCCC%10", "C(/F)=C/F", "[13CH3]CS(=O)(=O)C",
    "C[N++]([O--])C"])


@st.composite
def token_chain(draw):
    """Atoms joined by bonds, branches and ring closures, maybe with a
    second atom from any bracket body."""
    text = draw(ATOMS)
    if draw(st.integers(0, 3)) == 0:
        text += "[" + draw(BRACKET_BODIES) + "]"
    for _ in range(draw(st.integers(0, 12))):
        text += draw(BONDS) + draw(ATOMS) + draw(AFTER_ATOM)
    return text


@st.composite
def mutated_smiles(draw):
    """A token chain or a molecule with up to three characters inserted,
    deleted or replaced."""
    text = draw(st.one_of(token_chain(), MOLECULES))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        k = draw(st.integers(0, len(text)))
        char = draw(st.characters(max_codepoint=127))
        cut = draw(st.integers(0, 1))
        text = text[:k] + char * draw(st.integers(0, 1)) + text[k + cut:]
    return text


@settings(max_examples=1000, deadline=None)
@given(st.one_of(mutated_smiles(), st.text(max_size=12)))
@example("[CH" + "9" * 5000 + "]")
@example("F/C=C/F")
@example("C/1=C/CC1")
@example("CC1CCC/C=C/1")
@example("C[N++-]C")
@example("C\nC")
@example("F/C=C(/F)/F")
def test_the_token_pass_parses_as_the_character_walker_did(text):
    """Any str ends in a molecule or a ``SmilesError``: the walker's
    molecule, or its error type, message and offset. The one exception is
    a count longer than ``int`` reads, where the walker leaked ``int``'s own
    ``ValueError``."""

    def outcome(parse):
        try:
            return parse(text)
        except SmilesError as err:
            return type(err), str(err), err.offset

    try:
        expected = outcome(char_walk_parse_smiles)
    except ValueError:
        with pytest.raises(CountTooLongError):
            parse_smiles(text)
        return
    assert outcome(parse_smiles) == expected
