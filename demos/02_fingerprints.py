"""
Circular fingerprints and ligand graph features
===============================================

How atom environments grow outward by radius, how they fold into a fixed
bit vector, and why the result ignores atom ordering.  Closes with a
Tanimoto similarity ranking and the graph feature block.
"""
from bindkit import ecfp, from_smiles, ligand_graph_features, morgan_environments

# --- environments, radius by radius ----------------------------------------
# Each kept environment is a distinct ball of atoms around a center.  In
# ethanol every atom sees a different neighborhood, so three environments
# appear at radius 0 and three more at radius 1; radius 2 adds nothing new
# because the whole molecule is already covered.

ethanol = from_smiles("CCO")
for radius, ident, atoms in morgan_environments(ethanol, radius=2):
    print(f"  radius {radius}  id {ident:>10d}  atoms {sorted(atoms)}")

# --- symmetry collapses the count -------------------------------------------
# Benzene has one environment per radius per atom set; all six carbons share
# an identifier, but the six distinct atom balls at each radius all survive.

benzene = from_smiles("c1ccccc1")
envs = morgan_environments(benzene, radius=2)
ids = sorted(set(ident for _, ident, _ in envs))
print(f"\nbenzene keeps {len(envs)} environments "
      f"but only {len(ids)} distinct identifiers")

# --- folding into bits -------------------------------------------------------
# ecfp fingerprints a list of molecules at once and returns their set bits
# as one CSR, (offsets, indices): molecule i sets the ascending bits
# indices[offsets[i]:offsets[i + 1]].  A typical drug-like ligand sets a few
# dozen of 2,048 bits, so the index sets are what the feature store keeps.

def on_bits(mols, radius=2, nbits=2048):
    """Each molecule's set bits, as a set of bit indices."""
    offsets, indices = ecfp(mols, radius=radius, nbits=nbits)
    return [set(indices[a:b].tolist()) for a, b in zip(offsets, offsets[1:])]


for nbits in (512, 2048):
    (bits,) = on_bits([from_smiles("CC(=O)Oc1ccccc1C(=O)O")], nbits=nbits)
    print(f"aspirin at {nbits:4d} bits: popcount {len(bits)}, "
          f"first on-bits {tuple(sorted(bits)[:5])}")

# --- order invariance --------------------------------------------------------
# The same molecule written two ways gives the same bits.

a, b = on_bits([from_smiles("Oc1ccccc1"), from_smiles("c1ccc(O)cc1")])
print(f"\nphenol written two ways: identical bits {a == b}")


# --- Tanimoto ranking against aspirin ----------------------------------------

def tanimoto(x, y):
    """|x & y| / |x | y| of two sets of bit indices."""
    either = len(x | y)
    return len(x & y) / either if either else 0.0


panel = {
    "salicylic acid": "OC(=O)c1ccccc1O",
    "benzoic acid": "OC(=O)c1ccccc1",
    "paracetamol": "CC(=O)Nc1ccc(O)cc1",
    "ibuprofen": "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "hexane": "CCCCCC",
}
aspirin, *rows = on_bits([from_smiles(s) for s in
                          ["CC(=O)Oc1ccccc1C(=O)O", *panel.values()]])
scores = {name: tanimoto(aspirin, row) for name, row in zip(panel, rows)}
print("\nsimilarity to aspirin:")
for name, score in sorted(scores.items(), key=lambda kv: -kv[1]):
    print(f"  {name:16s} {score:.3f}")

# --- graph features for neural pipelines -------------------------------------
# Nodes carry one-hot element/degree/hydrogen blocks plus charge, ring,
# aromaticity, hybridization and isotope flags; edges carry bond order
# one-hots plus a ring flag.

graph = ligand_graph_features(from_smiles("CC(=O)Oc1ccccc1C(=O)O"))
print(f"\naspirin graph: nodes {graph.node_features.shape}, "
      f"edges {len(graph.edge_list)}, "
      f"edge features {graph.edge_features.shape}")
