import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grappa.featurize
import grappa.smiles
from grappa.featurize import (
    EDGE_FEATURES,
    NODE_FEATURES,
    ScopeError,
    featurize,
    hybridizations,
    ring_membership,
    validate_scope,
)
from grappa.molecule import Atom, Bond, Molecule, permute_molecule
from grappa.smiles import parse_smiles

from _oracles import brute_force_ring_flags, valence_sum_hybridizations
from test_acceptance import FIFTY_MOLECULES

CORPUS = [
    "C", "CC", "CCO", "OCC", "CC(C)C", "C=C", "C#N", "CC(=O)O", "CCN",
    "c1ccccc1", "Cc1ccccc1", "c1ccncc1", "c1ccoc1", "c1ccsc1", "C1CC1",
    "C1CCCCC1", "C1CC1CC", "CC(=O)OC", "CCCl", "CCBr", "CCI", "CCF",
    "CCS", "CCSC", "CP(C)C", "O=C(C)Oc1ccccc1C(=O)O", "F/C=C/F", "F/C=C\\F",
    "CC(=O)Nc1ccc(O)cc1", "c1ccc2ccccc2c1", "CN1CCCC1", "CC#CC", "C(=O)O",
]


@pytest.mark.parametrize("smiles", CORPUS)
def test_feature_widths(smiles):
    graph = featurize(parse_smiles(smiles))
    assert graph.node_features.shape == (graph.heavy_atom_count, NODE_FEATURES)
    assert graph.edge_features.shape[1] == EDGE_FEATURES
    assert graph.edges.shape[0] == graph.edge_features.shape[0]


@pytest.mark.parametrize("smiles", CORPUS)
def test_node_rows_have_complete_one_hot_blocks(smiles):
    graph = featurize(parse_smiles(smiles))
    x = graph.node_features
    # One active slot per block.
    assert (x[:, 0:9].sum(axis=1) == 1).all()
    assert (x[:, 9:14].sum(axis=1) == 1).all()
    assert (x[:, 14:18].sum(axis=1) == 1).all()
    assert (x[:, 18:22].sum(axis=1) == 1).all()
    sums = x.sum(axis=1)
    assert np.isin(sums, (4, 5, 6)).all()


@pytest.mark.parametrize("smiles", CORPUS)
def test_edge_rows_have_complete_one_hot_blocks(smiles):
    graph = featurize(parse_smiles(smiles))
    e = graph.edge_features
    if not len(e):
        return
    assert (e[:, 0:4].sum(axis=1) == 1).all()
    assert (e[:, 6:9].sum(axis=1) == 1).all()


@pytest.mark.parametrize("smiles", CORPUS)
def test_directed_edge_symmetry(smiles):
    graph = featurize(parse_smiles(smiles))
    lookup = {}
    for (i, j), feat in zip(graph.edges.tolist(), graph.edge_features):
        lookup[(i, j)] = feat
    for (i, j), feat in lookup.items():
        assert (i, j) != (j, i)
        np.testing.assert_array_equal(feat, lookup[(j, i)])


def test_ethanol_oxygen_row():
    graph = featurize(parse_smiles("CCO"))
    row = graph.node_features[2]
    assert row[2] == 1  # element O
    assert row[9 + 1] == 1  # degree 1
    assert row[14 + 1] == 1  # one hydrogen
    assert row[18 + 2] == 1  # SP3
    assert row[22] == 0 and row[23] == 0
    assert graph.h_donors == 1 and graph.h_acceptors == 1


def test_benzene_rows_identical_and_aromatic():
    graph = featurize(parse_smiles("c1ccccc1"))
    x = graph.node_features
    assert (x == x[0]).all()
    row = x[0]
    assert row[18 + 1] == 1  # SP2
    assert row[9 + 2] == 1  # degree 2
    assert row[14 + 1] == 1  # one hydrogen
    assert row[22] == 1 and row[23] == 1


def test_nitrile_carbon_is_sp():
    mol = parse_smiles("C#N")
    assert hybridizations(mol) == ["SP", "SP"]


def test_cumulated_diene_center_is_sp():
    mol = parse_smiles("C=C=C")
    assert hybridizations(mol)[1] == "SP"


def test_halogens_fall_outside_named_hybridizations():
    mol = parse_smiles("CCCl")
    assert hybridizations(mol)[2] == "OTHER"


def test_hypervalent_sulfur_is_other():
    mol = parse_smiles("CS(C)(C)C")  # four single bonds at S
    assert hybridizations(mol)[1] == "OTHER"
    thioether = parse_smiles("CSC")
    assert hybridizations(thioether)[1] == "SP3"


def test_conjugation_flags():
    # Butadiene: every bond connects two SP2 atoms.
    graph = featurize(parse_smiles("C=CC=C"))
    assert (graph.edge_features[:, 4] == 1).all()
    # Butane: saturated, nothing conjugated.
    graph = featurize(parse_smiles("CCCC"))
    assert (graph.edge_features[:, 4] == 0).all()


def test_stereo_edge_features():
    graph = featurize(parse_smiles("F/C=C/F"))
    stereo_cols = graph.edge_features[:, 6:9]
    double_rows = graph.edge_features[:, 1] == 1
    assert (stereo_cols[double_rows, 2] == 1).all()  # E slot
    assert (stereo_cols[~double_rows, 0] == 1).all()


@pytest.mark.parametrize("smiles", ["C1CC1", "C1CC1CC", "CCO", "c1ccc2ccccc2c1",
                                    "CC1CCC(C)C1", "C1CC2CCC1CC2"])
def test_ring_membership_matches_connectivity_oracle(smiles):
    mol = parse_smiles(smiles)
    atoms, bonds = ring_membership(mol)
    oracle_atoms, oracle_bonds = brute_force_ring_flags(mol)
    assert atoms == oracle_atoms
    assert bonds == oracle_bonds


def test_triangle_all_flagged():
    atoms, bonds = ring_membership(parse_smiles("C1CC1"))
    assert all(atoms) and all(bonds)


def test_acyclic_nothing_flagged():
    atoms, bonds = ring_membership(parse_smiles("CCO"))
    assert not any(atoms) and not any(bonds)


def test_pendant_chain_not_flagged():
    mol = parse_smiles("C1CC1CC")
    atoms, _ = ring_membership(mol)
    assert atoms == [True, True, True, False, False]


@st.composite
def bond_sets(draw):
    """1 to 12 carbons joined by a random set of single bonds: trees,
    disconnected pieces, and fused, spiro and bridged ring systems, which
    ``parse_smiles`` cannot all make since it refuses ``.``."""
    n = draw(st.integers(1, 12))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    bonds = {}
    for a, b in draw(st.lists(ends, min_size=n, max_size=2 * n)):
        if a != b:
            bonds.setdefault(frozenset((a, b)), Bond(a, b))
    return Molecule(tuple(Atom("C") for _ in range(n)), tuple(bonds.values()))


@settings(max_examples=400, deadline=None)
@given(bond_sets())
def test_ring_flags_match_the_oracle_on_random_bond_sets(mol):
    assert ring_membership(mol) == brute_force_ring_flags(mol)


def test_scope_accepts_and_rejects():
    assert validate_scope(parse_smiles("CCO")).accepted
    result = validate_scope(parse_smiles("[NH4+]"))
    assert not result.accepted
    assert any("carbon" in r for r in result.reasons)
    assert any("charge" in r for r in result.reasons)
    result = validate_scope(parse_smiles("O=S(=O)(O)O"))
    assert not result.accepted
    assert result.reasons == ("no carbon atom",)


def test_scope_rejects_isotopes_and_radicals():
    assert not validate_scope(parse_smiles("[13C]C")).accepted
    radical = validate_scope(parse_smiles("[CH3]"))
    assert not radical.accepted
    assert any("unpaired" in r for r in radical.reasons)
    # The verbose-but-complete methyl spelling is fine.
    assert validate_scope(parse_smiles("[CH3]C")).accepted


def test_featurize_raises_on_scope_violation():
    with pytest.raises(ScopeError):
        featurize(parse_smiles("O=S(=O)(O)O"))


def test_donor_acceptor_counts():
    cases = {
        "CCO": (1, 1),
        "CC(=O)O": (1, 2),
        "CCN": (1, 1),
        "CC(=O)NC": (1, 2),
        "c1ccncc1": (0, 1),
        "CCOCC": (0, 1),
        "OCCO": (2, 2),
    }
    for smiles, (donors, acceptors) in cases.items():
        graph = featurize(parse_smiles(smiles))
        assert (graph.h_donors, graph.h_acceptors) == (donors, acceptors), smiles


def test_molecular_weights():
    graph = featurize(parse_smiles("C"))
    assert graph.mol_weight == pytest.approx(16.043, abs=1e-3)
    graph = featurize(parse_smiles("CCO"))
    assert graph.mol_weight == pytest.approx(46.069, abs=1e-3)
    graph = featurize(parse_smiles("c1ccccc1"))
    assert graph.mol_weight == pytest.approx(78.114, abs=1e-3)


def test_feature_rows_follow_atom_relabeling():
    rng = np.random.default_rng(11)
    for smiles in ("CCO", "CC(=O)Oc1ccccc1", "C1CC1CC"):
        mol = parse_smiles(smiles)
        graph = featurize(mol)
        n = len(mol.atoms)
        for _ in range(4):
            perm = rng.permutation(n).tolist()
            permuted = featurize(permute_molecule(mol, perm))
            for old in range(n):
                np.testing.assert_array_equal(
                    permuted.node_features[perm[old]], graph.node_features[old])
            assert permuted.h_donors == graph.h_donors
            assert permuted.mol_weight == pytest.approx(graph.mol_weight)


def test_graph_arrays_are_frozen():
    graph = featurize(parse_smiles("CCO"))
    with pytest.raises(ValueError):
        graph.node_features[0, 0] = 5.0


def test_hydrogen_counts_are_computed_once_per_molecule(monkeypatch):
    calls = []
    real = grappa.smiles.implicit_hydrogens

    def counting(mol):
        calls.append(mol)
        return real(mol)

    # ``Molecule.hydrogen_counts`` looks the function up here at call time.
    monkeypatch.setattr(grappa.smiles, "implicit_hydrogens", counting)
    for smiles in CORPUS:
        calls.clear()
        mol = parse_smiles(smiles)
        featurize(mol)
        assert len(calls) == 1, smiles
        assert list(mol.hydrogen_counts) == real(mol)


# Saturated and hypervalent C/N/O/S/P, bracket atoms with pinned hydrogens,
# and charged centers: every branch of the SP3 test.
SP3_EDGE_CASES = [
    "CS(C)(C)C", "CP(C)(C)(C)C", "CP(C)C", "CS(=O)C", "CS(=O)(=O)C",
    "C[N+](C)(C)C", "[CH2]C", "[CH4]", "[OH2]", "C[NH]C", "C[N-]C", "CSSC",
]


def test_hybridizations_match_the_valence_sum_rule():
    # An atom reaches the SP3 test only with single bonds, so its degree is
    # its bond-order sum and the labels are the former rule's.
    for smiles in CORPUS + FIFTY_MOLECULES + SP3_EDGE_CASES:
        mol = parse_smiles(smiles)
        assert hybridizations(mol) == \
            valence_sum_hybridizations(mol, mol.hydrogen_counts), smiles


def test_one_valence_sum_per_atom(monkeypatch):
    # Parse and featurize sum an atom's bond orders once for its hydrogens,
    # and once more for a bracket atom's radical check.
    calls = []
    real = grappa.smiles.bond_order_sum

    def counting(mol, idx):
        calls.append(idx)
        return real(mol, idx)

    monkeypatch.setattr(grappa.smiles, "bond_order_sum", counting)
    # ``grappa.featurize`` names the package's function; this is the module.
    monkeypatch.setattr(sys.modules["grappa.featurize"], "bond_order_sum",
                        counting)
    for smiles in CORPUS + ["C[CH2]C", "F[C@@H](Cl)Br", "c1cc[nH]c1"]:
        calls.clear()
        mol = parse_smiles(smiles)
        featurize(mol)
        bracket = sum(1 for a in mol.atoms if a.explicit_h is not None)
        assert len(calls) == len(mol.atoms) + bracket, smiles


# The sha256 of every graph of CORPUS and FIFTY_MOLECULES: each array's
# dtype, shape and bytes, the donor, acceptor and heavy-atom counts and the
# weight. Trained checkpoints are valid only for these bytes, so a change to
# any model input fails here and has to update the digest on purpose.
MODEL_INPUT_SHA256 = (
    "5d188ab78579332bd270435a977793a53cf363afb056e4ef2f83156c768899a4")


def model_input_digest(smiles_list) -> str:
    digest = hashlib.sha256()
    for smiles in smiles_list:
        graph = featurize(parse_smiles(smiles))
        for arr in (graph.node_features, graph.edges, graph.edge_features):
            digest.update(f"{arr.dtype.str}{arr.shape}".encode())
            digest.update(arr.tobytes())
        digest.update(np.array([graph.h_donors, graph.h_acceptors,
                                graph.heavy_atom_count], np.int64).tobytes())
        digest.update(np.float64(graph.mol_weight).tobytes())
    return digest.hexdigest()


def test_model_inputs_are_pinned():
    assert model_input_digest(CORPUS + FIFTY_MOLECULES) == MODEL_INPUT_SHA256
