"""
Receptor sequences to fixed-width descriptors
=============================================

FASTA text in, a 78-column numeric descriptor out.  Shows the per-residue
property table, the mean/sum/min/max aggregation, ambiguity code handling,
and the residue-chain graph used by neural pipelines.
"""
import numpy as np

from bindkit import (
    parse_fasta,
    receptor_descriptor,
    receptor_graph_features,
    residue_properties,
)
from bindkit.protein_features import DESCRIPTOR_LAYOUT

# --- FASTA parsing -----------------------------------------------------------

# Wrapped lines concatenate; anything outside the residue alphabet (even a
# stray space) raises a positioned error rather than being silently dropped.
document = """\
>protease catalytic domain
MKTAYIAKQRQISFVKSHFS
RQLEERLGLIEVQ
>kinase fragment
GSDVVLITGGSGFLGQHIRN
"""
records = parse_fasta(document)
for rec in records:
    print(f"{rec.id}: {len(rec.residues)} residues, "
          f"starts {rec.residues[:10]}...")

# --- the property table --------------------------------------------------------
# Fourteen physicochemical properties per residue.  A few anchors:

for code in ("A", "R", "W", "G"):
    props = residue_properties(code)
    print(f"  {code}: hydrophobicity {props['hydrophobicity']:+.1f}, "
          f"charge {props['charge']:+.2f}, "
          f"vdw volume {props['vdw_volume']:.1f}")

# --- descriptor layout ----------------------------------------------------------
# 14 properties x (mean, sum, min, max), then 20 composition fractions,
# then sequence length and a disulfide pair estimate.

# The descriptor is a plain float64 vector; DESCRIPTOR_LAYOUT names its
# columns.

protease = records[0]
vec = receptor_descriptor(protease)
print(f"\ndescriptor width: {len(vec)} "
      f"(= 14 props x 4 stats + 20 fractions + 2 globals)")
by_name = dict(zip(DESCRIPTOR_LAYOUT, vec))
for name in ("hydrophobicity_mean", "charge_sum", "vdw_volume_max",
             "frac_K", "length", "disulfide_pairs"):
    print(f"  {name:20s} {by_name[name]:+.4f}")

fracs = [by_name[c] for c in DESCRIPTOR_LAYOUT if c.startswith("frac_")]
print(f"  composition fractions sum to {sum(fracs):.12f}")

# --- ambiguity codes -------------------------------------------------------------
# X averages all twenty residues, B averages D/N, Z averages E/Q, and U is
# treated as C, so descriptors never hit a missing value.

layout = list(DESCRIPTOR_LAYOUT)
hmean = layout.index("hydrophobicity_mean")
plain = receptor_descriptor(parse_fasta(">a\nACDEFG\n")[0])
coded = receptor_descriptor(parse_fasta(">b\nACDEFGX\n")[0])
print(f"\nadding one X shifts hydrophobicity_mean "
      f"{plain[hmean]:+.4f} -> {coded[hmean]:+.4f}")

# --- chain graph ------------------------------------------------------------------
# One node per residue (9 numeric properties + 20 one-hot columns), edges
# along the backbone only.  The record is the one ligand graphs use, with
# named node columns and an empty edge block: every edge is a peptide bond.

graph = receptor_graph_features(protease)
print(f"\nchain graph: nodes {graph.node_features.shape}, "
      f"backbone edges {len(graph.edge_list)} "
      f"(= length - 1 = {len(protease.residues) - 1})")
print(f"  node columns {graph.node_names[:3]}..., edge columns "
      f"{graph.edge_names}, edge block {graph.edge_features.shape}")
assert np.all(graph.node_features[:, 9:].sum(axis=1) <= 1.0)
