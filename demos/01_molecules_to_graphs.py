#!/usr/bin/env python3
"""From SMILES strings to featurized molecular graphs.

Walks through parsing, implicit hydrogens, ring detection, and the
24-feature node / 9-feature edge encoding the network consumes.
"""

from grappa import featurize, parse_smiles, validate_scope
from grappa.featurize import hybridizations, ring_membership

EXAMPLES = ["CCO", "c1ccccc1", "F/C=C/F", "CC(=O)Oc1ccccc1C(=O)O"]

for smiles in EXAMPLES:
    mol = parse_smiles(smiles)
    h_counts = mol.hydrogen_counts
    hybrid = hybridizations(mol)
    ring_atoms, _ = ring_membership(mol)
    print(f"\n=== {smiles} ===")
    for i, atom in enumerate(mol.atoms):
        ring = " ring" if ring_atoms[i] else ""
        arom = " aromatic" if atom.aromatic else ""
        print(f"  atom {i}: {atom.element}  H={h_counts[i]}  {hybrid[i]}{arom}{ring}")
    for bond in mol.bonds:
        stereo = f" stereo={bond.stereo}" if bond.stereo != "none" else ""
        print(f"  bond {bond.a}-{bond.b}: {bond.order}{stereo}")

    graph = featurize(mol)
    print(f"  node features: {graph.node_features.shape}, "
          f"edge features: {graph.edge_features.shape}")
    print(f"  H donors: {graph.h_donors}, H acceptors: {graph.h_acceptors}, "
          f"weight: {graph.mol_weight:.2f} g/mol")

# Out-of-scope molecules are rejected as values, not exceptions.
for smiles in ["[NH4+]", "O=S(=O)(O)O"]:
    result = validate_scope(parse_smiles(smiles))
    print(f"\n{smiles}: accepted={result.accepted}  reasons={list(result.reasons)}")
