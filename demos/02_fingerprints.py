"""
Circular fingerprints and ligand graph features
===============================================

How atom environments grow outward by radius, how they fold into a fixed
bit vector, and why the result ignores atom ordering.  Closes with a
Tanimoto similarity ranking and the graph feature block.
"""
import numpy as np

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
# ecfp fingerprints a list of molecules at once and returns one row of
# packed bytes per molecule, LSB-first: bit j sits in byte j // 8 at bit
# j % 8.  np.unpackbits with bitorder="little" gives back the 0/1 vector.

def unpack(row):
    return np.unpackbits(row, bitorder="little")


for nbits in (512, 2048):
    bits = unpack(ecfp([from_smiles("CC(=O)Oc1ccccc1C(=O)O")], radius=2,
                       nbits=nbits)[0])
    print(f"aspirin at {nbits:4d} bits: popcount {int(bits.sum())}, "
          f"first on-bits {tuple(np.flatnonzero(bits)[:5].tolist())}")

# --- order invariance --------------------------------------------------------
# The same molecule written two ways gives the same bits.

a, b = ecfp([from_smiles("Oc1ccccc1"), from_smiles("c1ccc(O)cc1")])
print(f"\nphenol written two ways: identical bits {np.array_equal(a, b)}")


# --- Tanimoto ranking against aspirin ----------------------------------------

def tanimoto(x, y):
    both = int(np.sum(unpack(x & y)))
    either = int(np.sum(unpack(x | y)))
    return both / either if either else 0.0


panel = {
    "salicylic acid": "OC(=O)c1ccccc1O",
    "benzoic acid": "OC(=O)c1ccccc1",
    "paracetamol": "CC(=O)Nc1ccc(O)cc1",
    "ibuprofen": "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "hexane": "CCCCCC",
}
aspirin, *rows = ecfp([from_smiles(s) for s in
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
