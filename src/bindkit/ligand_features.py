"""Ligand featurization: circular fingerprints, graph feature blocks, and the
graph record and serializer both partners share (GraphFeatures, graph_block).

The fingerprint is a hashed circular fingerprint over heavy-atom
neighborhoods; ecfp returns those of a list of molecules as one CSR of
each row's ascending set bits, the layout in which a feature directory
stores its bit block, routing reads it and training gathers it.  Radius 2
with 2048 bits is the default everywhere.  All hashing is pinned so
fingerprints are reproducible across platforms: FNV-1a, 32-bit, over the
little-endian 4-byte encodings of the integer components being combined.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_NBITS
from .errors import FingerprintFormatError
from .smiles import (
    BOND_AROMATIC,
    BOND_DOUBLE,
    BOND_SINGLE,
    BOND_TRIPLE,
    Molecule,
)

__all__ = [
    "GraphFeatures",
    "FingerprintFormatError",
    "fnv1a32",
    "morgan_environments",
    "ecfp",
    "full_refinement_ids",
    "infer_hybridization",
    "ligand_graph_features",
    "graph_block",
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


def fnv1a32(data: bytes) -> int:
    """32-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK32
    return h


def _require_annotated(mol: Molecule) -> None:
    if not (mol.h_assigned and mol.rings_perceived):
        raise ValueError(
            "molecule must have implicit hydrogens assigned and rings perceived")


# --- the batch refinement kernel ---------------------------------------------
#
# Every kernel call refines the disjoint union of its molecules at once, as
# the Weisfeiler-Lehman subtree kernel does (Shervashidze et al., JMLR 12,
# 2011).  One round gives each atom the hash of its own identifier followed
# by its neighbors' (bond code, identifier) pairs in ascending order, the
# per-atom rule of ECFP (Rogers & Hahn, J. Chem. Inf. Model. 50(5), 2010).

# Molecules per kernel pass.  A pass's arrays grow with its atom count (and,
# for ECFP, with the radius and the atom-set width), so a fixed chunk keeps
# peak memory flat however many ligands one call brings.
_CHUNK = 128

_PAD_CODE = np.uint64(_MASK32 << 32)     # sorts after every real (code, id)


def _fnv_word(h: np.ndarray, words: np.ndarray) -> np.ndarray:
    """FNV-1a step of each uint32 hash over the four little-endian bytes of
    its word, in place.  uint32 products wrap mod 2**32, as fnv1a32's
    mask does."""
    for byte in words.astype("<u4").view(np.uint8).reshape(-1, 4).T:
        h ^= byte
        h *= np.uint32(_FNV_PRIME)
    return h


@dataclass(frozen=True, eq=False)
class _Union:
    """The disjoint union of some annotated molecules.  Atoms are ordered by
    descending degree, so the atoms with a k-th neighbor are the first
    ``prefix[k]``, and column k of ``nbr`` and ``code_key`` holds that
    neighbor (in no particular order; _refine sorts each row)."""
    sizes: np.ndarray            # (M,) atoms of each molecule
    mol: np.ndarray              # (N,) molecule of each atom
    local: np.ndarray            # (N,) index of each atom in its molecule
    ids: np.ndarray              # (N,) uint32 radius-0 identifiers
    nbr: np.ndarray              # (N, D) neighbor atoms
    code_key: np.ndarray         # (N, D) uint64 bond code << 32, pads last
    prefix: tuple[int, ...]      # (D,) atoms of degree > k


def _union(mols) -> _Union:
    for mol in mols:
        _require_annotated(mol)
    sizes = np.array([len(mol.atoms) for mol in mols], dtype=np.intp)
    first = np.cumsum(sizes) - sizes
    n = int(sizes.sum())
    atoms = np.array(
        [(a.element, a.total_h, a.formal_charge, a.in_ring, a.aromatic)
         for mol in mols for a in mol.atoms],
        dtype=np.int64).reshape(n, 5)
    bonds = np.array(
        [(b.a + start, b.b + start, _BOND_CODE[b.order])
         for mol, start in zip(mols, first.tolist()) for b in mol.bonds],
        dtype=np.intp).reshape(-1, 3)
    src = np.concatenate([bonds[:, 0], bonds[:, 1]])
    dst = np.concatenate([bonds[:, 1], bonds[:, 0]])
    code = np.concatenate([bonds[:, 2], bonds[:, 2]])
    degree = np.bincount(src, minlength=n)

    # radius 0: element, degree, total H, charge, ring flag, aromatic flag;
    # a negative charge hashes as its two's complement, like v & 0xFF
    ids = np.full(n, _FNV_OFFSET, dtype=np.uint32)
    for column in (atoms[:, 0], degree, atoms[:, 1], atoms[:, 2],
                   atoms[:, 3], atoms[:, 4]):
        ids = _fnv_word(ids, (column & _MASK32).astype(np.uint32))

    order = np.argsort(-degree, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    degree = degree[order]
    width = int(degree[0]) if n else 0
    by_row = np.argsort(rank[src], kind="stable")
    row = rank[src][by_row]
    col = np.arange(len(row)) - (np.cumsum(degree) - degree)[row]
    nbr = np.zeros((n, width), dtype=np.intp)
    nbr[row, col] = rank[dst][by_row]
    code_key = np.full((n, width), _PAD_CODE, dtype=np.uint64)
    code_key[row, col] = code[by_row].astype(np.uint64) << np.uint64(32)
    mol_of = np.repeat(np.arange(len(sizes)), sizes)
    return _Union(
        sizes=sizes,
        mol=mol_of[order],
        local=(np.arange(n) - first[mol_of])[order],
        ids=ids[order],
        nbr=nbr,
        code_key=code_key,
        prefix=tuple(int(np.count_nonzero(degree > k)) for k in range(width)),
    )


def _refine(u: _Union, ids: np.ndarray) -> np.ndarray:
    """One refinement round over every atom of the union."""
    pairs = u.code_key | ids[u.nbr]
    pairs.sort(axis=1)
    h = _fnv_word(np.full(len(ids), _FNV_OFFSET, dtype=np.uint32), ids)
    for k, n in enumerate(u.prefix):
        code = (pairs[:n, k] >> np.uint64(32)).astype(np.uint32)
        _fnv_word(_fnv_word(h[:n], code), pairs[:n, k].astype(np.uint32))
    return h


def _by_molecule(u: _Union, ids: np.ndarray) -> np.ndarray:
    """uint64 keys that order atoms by molecule, then identifier."""
    return (u.mol.astype(np.uint64) << np.uint64(32)) | ids


def _distinct_counts(u: _Union, ids: np.ndarray) -> np.ndarray:
    """Distinct identifiers of each molecule.  (By sorting: np.unique's hash
    path imports numpy.ma, about 1 MB, on its first call.)"""
    keys = np.sort(_by_molecule(u, ids))
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.bincount((keys[new] >> np.uint64(32)).astype(np.intp),
                       minlength=len(u.sizes))


def _stable_ids(u: _Union) -> list[tuple[int, ...]]:
    """full_refinement_ids of each molecule of the union; every molecule
    stops on its own rule, and its identifiers stay fixed from then on."""
    ids = u.ids
    distinct = _distinct_counts(u, ids)
    active = u.sizes > 0
    rounds = 0
    while active.any():
        rounds += 1
        ids = np.where(active[u.mol], _refine(u, ids), ids)
        now = _distinct_counts(u, ids)
        active &= (now > distinct) & (u.sizes > rounds)
        distinct = now
    keys = np.sort(_by_molecule(u, ids))
    values = (keys & np.uint64(_MASK32)).tolist()
    ends = np.cumsum(u.sizes).tolist()
    return [tuple(values[end - size:end])
            for end, size in zip(ends, u.sizes.tolist())]


def _environments(u: _Union, radius: int):
    """Kept environments of each molecule of the union, as arrays
    (molecule, radius, identifier, atom-set bitset rows of uint64 words).

    Every atom is a candidate at every radius up to the given one.  Of the
    candidates of one molecule that cover the same atom set, the one of the
    smallest radius, then of the smallest identifier, is kept: the same set
    the per-level loop of morgan_environments keeps.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    n = len(u.ids)
    words = max(1, (int(u.sizes.max(initial=0)) + 63) // 64)
    span = np.zeros((n, words), dtype=np.uint64)
    span[np.arange(n), u.local >> 6] = (
        np.uint64(1) << (u.local & 63).astype(np.uint64))
    ids = u.ids
    all_ids, all_spans = [ids], [span]
    for _ in range(radius):
        ids = _refine(u, ids)
        grown = span.copy()
        for k, m in enumerate(u.prefix):
            grown[:m] |= span[u.nbr[:m, k]]
        span = grown
        all_ids.append(ids)
        all_spans.append(span)
    ids = np.concatenate(all_ids)
    span = np.concatenate(all_spans)
    level = np.repeat(np.arange(radius + 1), n)
    mol = np.tile(u.mol, radius + 1)
    order = np.lexsort((ids, level, *span.T, mol))
    mol, level, ids, span = mol[order], level[order], ids[order], span[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (mol[1:] != mol[:-1]) | (span[1:] != span[:-1]).any(axis=1)
    return mol[first], level[first], ids[first], span[first]


def _chunks(mols):
    mols = list(mols)
    return [mols[i:i + _CHUNK] for i in range(0, len(mols), _CHUNK)]


def ecfp(mols, radius: int = 2, nbits: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Hashed circular fingerprints (radius 2 is the standard diameter-4
    set), one row per molecule: bit (identifier mod nbits) is set for each
    environment morgan_environments keeps.  Returns the rows as one CSR,
    (offsets, indices): row i holds the ascending set bits
    indices[offsets[i]:offsets[i + 1]], offsets is int32 of length
    len(mols) + 1 from 0, and indices is uint16, which holds every bit of
    an nbits up to config.MAX_NBITS."""
    if nbits <= 0 or (nbits & (nbits - 1)) != 0 or nbits > MAX_NBITS:
        raise ValueError(f"nbits must be a power of two <= {MAX_NBITS}")
    # the leading 0 count makes the cumulative sum the row offsets
    counts, indices = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.uint16)]
    for chunk in _chunks(mols):
        mol, _, ids, _ = _environments(_union(chunk), radius)
        key = np.sort(mol.astype(np.int64) * nbits + (ids & (nbits - 1)))
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        counts.append(np.bincount(key // nbits, minlength=len(chunk)))
        indices.append((key % nbits).astype(np.uint16))
    return (np.cumsum(np.concatenate(counts)).astype(np.int32),
            np.concatenate(indices))


def _full_refinement_ids_batch(mols) -> list[tuple[int, ...]]:
    """full_refinement_ids of each molecule."""
    return [ids for chunk in _chunks(mols) for ids in _stable_ids(_union(chunk))]


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
    _, level, ids, span = _environments(_union([mol]), radius)
    bits = (span[:, :, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    kept = [(r, ident, frozenset(np.flatnonzero(row).tolist()))
            for r, ident, row in zip(level.tolist(), ids.tolist(),
                                     bits.reshape(len(span), -1))]
    return sorted(kept, key=lambda t: (t[0], t[1], sorted(t[2])))


def full_refinement_ids(mol: Molecule) -> tuple[int, ...]:
    """Atom identifiers refined to stability, as a sorted multiset.

    Refinement rounds are applied until the number of distinct identifiers
    stops increasing (with one final round applied at the point of
    stabilization, capped at n_atoms rounds).  The sorted result is invariant
    under atom reordering and suits whole-molecule hashing.
    """
    return _full_refinement_ids_batch([mol])[0]


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


def ligand_graph_features(mol: Molecule) -> GraphFeatures:
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
    order_slot = {BOND_SINGLE: 0, BOND_DOUBLE: 1, BOND_TRIPLE: 2, BOND_AROMATIC: 3}
    for k, bond in enumerate(mol.bonds):
        edges[k, order_slot[bond.order]] = 1.0
        edges[k, 4] = 1.0 if bond.in_ring else 0.0
    edge_list = tuple((bond.a, bond.b) for bond in mol.bonds)
    return GraphFeatures(nodes, edge_list, edges,
                         NODE_FEATURE_NAMES, EDGE_FEATURE_NAMES)


# --- the graph record of ligands and receptors, and its serializer ---------


@dataclass(frozen=True, eq=False)
class GraphFeatures:
    """A ligand or receptor graph's feature blocks and their column names;
    a receptor's edges carry no features, a (0, 0) block."""
    node_features: np.ndarray           # (n_nodes, len(node_names)) float64
    edge_list: tuple[tuple[int, int], ...]
    edge_features: np.ndarray           # (n_edges, len(edge_names)) float64
    node_names: tuple[str, ...]
    edge_names: tuple[str, ...]


def graph_block(features: GraphFeatures) -> dict:
    """JSON-ready block of a ligand or receptor graph's features."""
    return {
        "node_features": features.node_features.tolist(),
        "edge_list": [list(e) for e in features.edge_list],
        "edge_features": features.edge_features.tolist(),
        "feature_names": {"node": list(features.node_names),
                          "edge": list(features.edge_names)},
    }
