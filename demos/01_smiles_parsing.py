"""
Parsing SMILES into annotated molecular graphs
==============================================

A walkthrough of the three parsing stages: raw graph construction,
implicit hydrogen assignment, and ring perception.  Ends with the
positioned errors the parser raises on malformed input.
"""
from bindkit import (
    ParseError,
    ValenceError,
    from_smiles,
    parse_smiles,
)

# --- stage by stage -------------------------------------------------------
# parse_smiles builds the bare graph; from_smiles runs the full pipeline
# (hydrogens + rings) in one pass.  Molecules are immutable: each stage
# returns a new molecule.

caffeine = "Cn1cnc2c1c(=O)n(C)c(=O)n2C"
bare = parse_smiles(caffeine)
mol = from_smiles(caffeine)
print(f"caffeine: {caffeine}")
print(f"  heavy atoms {len(mol.atoms)}, bonds {len(mol.bonds)}, "
      f"components {len(mol.components)}")
print(f"  bare parse has h_assigned={bare.h_assigned}, "
      f"full pipeline {mol.h_assigned}")

# --- per atom annotations -------------------------------------------------

print("\n idx sym  arom ring  H  charge")
for i, atom in enumerate(mol.atoms):
    print(f"  {i:2d}  {atom.symbol:2s}   {str(atom.aromatic)[0]}    "
          f"{str(atom.in_ring)[0]}   {atom.total_h}    {atom.formal_charge:+d}")

# --- rings ----------------------------------------------------------------
# in_ring flags mark every bond that lies on a cycle (every non-bridge bond)
# and every atom of such a bond.  The cycle rank, bonds - atoms + components,
# counts the independent rings: 2 for caffeine's fused 5- and 6-membered pair.

ring_atoms = [i for i, atom in enumerate(mol.atoms) if atom.in_ring]
rank = len(mol.bonds) - len(mol.atoms) + len(mol.components)
print(f"\nring atoms {ring_atoms}")
print(f"  ring bonds {sum(b.in_ring for b in mol.bonds)}, cycle rank {rank}")

# --- hydrogen bookkeeping ---------------------------------------------------
# Implicit hydrogens come from default valences; aromatic atoms use the
# floor of the summed bond orders (aromatic bonds count 1.5).  Bracket
# atoms keep exactly the hydrogen count they declare.

for smiles in ("CCO", "c1ccccc1", "c1cc[nH]c1", "[NH4+]", "OS(=O)(=O)O"):
    m = from_smiles(smiles)
    hs = [a.total_h for a in m.atoms]
    print(f"{smiles:14s} hydrogens per atom: {hs}")

# --- stereo markers are counted, then dropped -------------------------------

m = from_smiles("C/C=C\\C")
print(f"\nC/C=C\\C parses to {len(m.atoms)} atoms "
      f"with {m.stereo_warnings} ignored stereo markers")

# --- positioned errors ------------------------------------------------------
# Every failure carries the offset of the offending character, so a caret
# can point straight at it.

print()
for bad in ("C1CC", "CC)C", "C(F)(F)(F)(F)F", "CXQ", "[Na]"):
    try:
        from_smiles(bad)
    except (ParseError, ValenceError) as exc:
        print(f"  {bad}")
        print(f"  {' ' * exc.offset}^ {type(exc).__name__}: {exc}")
