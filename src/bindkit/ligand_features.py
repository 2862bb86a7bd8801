"""Ligand featurization: circular fingerprints and graph feature blocks.

The fingerprint is a hashed circular fingerprint over heavy-atom
neighborhoods.  Radius 2 with 2048 bits is the default everywhere.  All
hashing is pinned so fingerprints are reproducible across platforms:
FNV-1a, 32-bit, over the little-endian 4-byte encodings of the integer
components being combined.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .smiles import (
    BOND_AROMATIC,
    BOND_DOUBLE,
    BOND_SINGLE,
    BOND_TRIPLE,
    Molecule,
)

__all__ = [
    "Fingerprint",
    "LigandGraphFeatures",
    "FingerprintFormatError",
    "fnv1a32",
    "atom_invariant",
    "morgan_environments",
    "ecfp",
    "full_refinement_ids",
    "infer_hybridization",
    "ligand_graph_features",
    "graph_block",
    "write_ligand_graphs",
    "NODE_FEATURE_NAMES",
    "EDGE_FEATURE_NAMES",
]

_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619
_MASK32 = 0xFFFFFFFF

# Bond order contribution to the hash of an expanded environment.
_BOND_CODE = {BOND_SINGLE: 1, BOND_DOUBLE: 2, BOND_TRIPLE: 3, BOND_AROMATIC: 4}

_ELEMENT_ORDER = (5, 6, 7, 8, 15, 16, 9, 17, 35, 53)   # B C N O P S F Cl Br I
_ELEMENT_LABELS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")

NODE_FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"elem_{s}" for s in _ELEMENT_LABELS) + ("elem_other",)
    + tuple(f"degree_{d}" for d in range(5)) + ("degree_5plus",)
    + tuple(f"h_{h}" for h in range(4)) + ("h_4plus",)
    + ("formal_charge", "aromatic", "in_ring")
    + ("hyb_sp", "hyb_sp2", "hyb_sp3", "hyb_other")
    + ("has_isotope",)
)

EDGE_FEATURE_NAMES: tuple[str, ...] = (
    "bond_single", "bond_double", "bond_triple", "bond_aromatic", "bond_in_ring",
)


class FingerprintFormatError(ValueError):
    """A packed fingerprint block whose type or width does not fit its bits."""


def fnv1a32(data: bytes) -> int:
    """32-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK32
    return h


def _hash_ints(values) -> int:
    """FNV-1a over the little-endian uint32 encodings of the values.

    Equal to fnv1a32 over the packed words, one word at a time: the low 32
    bits of a product depend only on the low 32 bits of its operands, so the
    mask is applied once per word instead of once per byte.
    """
    h = _FNV_OFFSET
    for v in values:
        h = (h ^ (v & 0xFF)) * _FNV_PRIME
        h = (h ^ ((v >> 8) & 0xFF)) * _FNV_PRIME
        h = (h ^ ((v >> 16) & 0xFF)) * _FNV_PRIME
        h = ((h ^ ((v >> 24) & 0xFF)) * _FNV_PRIME) & _MASK32
    return h


def _require_annotated(mol: Molecule) -> None:
    if not (mol.h_assigned and mol.rings_perceived):
        raise ValueError(
            "molecule must have implicit hydrogens assigned and rings perceived")


def atom_invariant(mol: Molecule, index: int, degree: int) -> int:
    """Initial per-atom identifier from six integer invariants."""
    atom = mol.atoms[index]
    return _hash_ints((
        atom.element,
        degree,
        atom.total_h,
        atom.formal_charge,
        1 if atom.in_ring else 0,
        1 if atom.aromatic else 0,
    ))


def _initial_ids(mol: Molecule):
    """Adjacency of an annotated molecule and its radius-0 atom identifiers."""
    _require_annotated(mol)
    adjacency = mol.neighbors()
    return adjacency, [atom_invariant(mol, i, len(nbrs))
                       for i, nbrs in enumerate(adjacency)]


def _refine(ids: list[int], adjacency) -> list[int]:
    """One refinement round: each atom hashes its own identifier followed by
    its neighbors' (bond code, identifier) pairs in ascending order."""
    new_ids = []
    for i, nbrs in enumerate(adjacency):
        flat = [ids[i]]
        for code, nbr_id in sorted((_BOND_CODE[order], ids[j]) for j, order in nbrs):
            flat.append(code)
            flat.append(nbr_id)
        new_ids.append(_hash_ints(flat))
    return new_ids


def morgan_environments(
    mol: Molecule, radius: int = 2,
) -> list[tuple[int, int, frozenset[int]]]:
    """Expand circular environments up to the given radius.

    Returns (radius, identifier, atom set) triples after duplicate-environment
    removal.  At each radius every atom contributes a candidate; candidates
    covering an atom set already kept are dropped.  Candidates of one level
    are processed in ascending identifier order, which makes the result
    independent of atom input order.
    """
    adjacency, ids = _initial_ids(mol)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    spans = [frozenset([i]) for i in range(len(ids))]
    kept: list[tuple[int, int, frozenset[int]]] = []
    seen_spans: set[frozenset[int]] = set()
    for r in range(radius + 1):
        if r:
            ids = _refine(ids, adjacency)
            spans = [span.union(*(spans[j] for j, _ in nbrs))
                     for span, nbrs in zip(spans, adjacency)]
        for ident, span in sorted(zip(ids, spans), key=lambda t: (t[0], sorted(t[1]))):
            if span not in seen_spans:
                seen_spans.add(span)
                kept.append((r, ident, span))
    return kept


@dataclass(frozen=True, eq=False)
class Fingerprint:
    bits: np.ndarray            # uint8 vector of 0/1, length nbits
    nbits: int
    radius: int

    @property
    def popcount(self) -> int:
        return int(self.bits.sum())

    def on_bits(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.bits))

    def packed(self) -> bytes:
        """LSB-first packed bytes (bit j lands in byte j//8, bit j%8)."""
        return np.packbits(self.bits, bitorder="little").tobytes()


def ecfp(mol: Molecule, radius: int = 2, nbits: int = 2048) -> Fingerprint:
    """Hashed circular fingerprint (radius 2 is the standard diameter-4 set)."""
    if nbits <= 0 or (nbits & (nbits - 1)) != 0:
        raise ValueError("nbits must be a power of two")
    bits = np.zeros(nbits, dtype=np.uint8)
    for _, ident, _ in morgan_environments(mol, radius):
        bits[ident % nbits] = 1
    return Fingerprint(bits=bits, nbits=nbits, radius=radius)


def full_refinement_ids(mol: Molecule) -> tuple[int, ...]:
    """Atom identifiers refined to stability, as a sorted multiset.

    Refinement rounds are applied until the number of distinct identifiers
    stops increasing (with one final round applied at the point of
    stabilization, capped at n_atoms rounds).  The sorted result is invariant
    under atom reordering and suits whole-molecule hashing.
    """
    adjacency, ids = _initial_ids(mol)
    distinct = len(set(ids))
    for _ in range(len(ids)):
        ids = _refine(ids, adjacency)
        now = len(set(ids))
        if now <= distinct:
            break
        distinct = now
    return tuple(sorted(ids))


def infer_hybridization(mol: Molecule) -> tuple[str, ...]:
    """Heuristic hybridization per atom: sp, sp2, sp3 or other.

    Any triple bond or two-plus double bonds means sp; one double bond or
    aromaticity means sp2; remaining B/C/N/O/P/S atoms are sp3; halogens and
    anything else fall in the other bucket.
    """
    adjacency = mol.neighbors()
    out = []
    for i, atom in enumerate(mol.atoms):
        orders = [order for _, order in adjacency[i]]
        triples = sum(1 for o in orders if o == BOND_TRIPLE)
        doubles = sum(1 for o in orders if o == BOND_DOUBLE)
        aromatic = atom.aromatic or any(o == BOND_AROMATIC for o in orders)
        if triples >= 1 or doubles >= 2:
            out.append("sp")
        elif doubles == 1 or aromatic:
            out.append("sp2")
        elif atom.element in (5, 6, 7, 8, 15, 16):
            out.append("sp3")
        else:
            out.append("other")
    return tuple(out)


@dataclass(frozen=True, eq=False)
class LigandGraphFeatures:
    node_features: np.ndarray           # (n_atoms, 30) float64
    edge_list: tuple[tuple[int, int], ...]
    edge_features: np.ndarray           # (n_bonds, 5) float64
    node_feature_names: tuple[str, ...] = NODE_FEATURE_NAMES
    edge_feature_names: tuple[str, ...] = EDGE_FEATURE_NAMES

    @property
    def feature_names(self) -> dict[str, tuple[str, ...]]:
        return {"node": self.node_feature_names, "edge": self.edge_feature_names}


def ligand_graph_features(mol: Molecule) -> LigandGraphFeatures:
    """Node and edge feature blocks over heavy atoms and intramolecular bonds.

    Node rows (30 columns): element one-hot with an overflow bucket, degree
    one-hot clamped at 5, total-H one-hot clamped at 4, formal charge,
    aromatic flag, ring flag, hybridization one-hot, isotope flag.
    Edge rows (5 columns): bond order one-hot plus ring flag.  The edge list
    carries each undirected bond once, in source order.
    """
    _require_annotated(mol)
    adjacency = mol.neighbors()
    hyb = infer_hybridization(mol)
    hyb_slot = {"sp": 0, "sp2": 1, "sp3": 2, "other": 3}
    n = len(mol.atoms)
    nodes = np.zeros((n, len(NODE_FEATURE_NAMES)), dtype=np.float64)
    for i, atom in enumerate(mol.atoms):
        try:
            elem_slot = _ELEMENT_ORDER.index(atom.element)
        except ValueError:
            elem_slot = len(_ELEMENT_ORDER)
        nodes[i, elem_slot] = 1.0
        degree = min(len(adjacency[i]), 5)
        nodes[i, 11 + degree] = 1.0
        total_h = min(atom.total_h, 4)
        nodes[i, 17 + total_h] = 1.0
        nodes[i, 22] = float(atom.formal_charge)
        nodes[i, 23] = 1.0 if atom.aromatic else 0.0
        nodes[i, 24] = 1.0 if atom.in_ring else 0.0
        nodes[i, 25 + hyb_slot[hyb[i]]] = 1.0
        nodes[i, 29] = 1.0 if atom.isotope is not None else 0.0

    edges = np.zeros((len(mol.bonds), len(EDGE_FEATURE_NAMES)), dtype=np.float64)
    edge_list = []
    order_slot = {BOND_SINGLE: 0, BOND_DOUBLE: 1, BOND_TRIPLE: 2, BOND_AROMATIC: 3}
    for k, bond in enumerate(mol.bonds):
        edges[k, order_slot[bond.order]] = 1.0
        edges[k, 4] = 1.0 if bond.in_ring else 0.0
        edge_list.append((bond.a, bond.b))
    return LigandGraphFeatures(node_features=nodes, edge_list=tuple(edge_list),
                               edge_features=edges)


# --- persistence -----------------------------------------------------------


def graph_block(features) -> dict:
    """JSON-ready block of a ligand or receptor graph's features."""
    names = features.feature_names
    return {
        "node_features": features.node_features.tolist(),
        "edge_list": [list(e) for e in features.edge_list],
        "edge_features": features.edge_features.tolist(),
        "feature_names": {"node": list(names["node"]), "edge": list(names["edge"])},
    }


def graph_record(record_id, features: LigandGraphFeatures) -> dict:
    return {"id": record_id, **graph_block(features)}


def write_ligand_graphs(path, ids, features_seq) -> None:
    """One JSON object per line; keys are sorted so output is byte-stable."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rid, feats in zip(ids, features_seq):
            fh.write(json.dumps(graph_record(rid, feats), sort_keys=True) + "\n")
