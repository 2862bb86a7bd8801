"""Fingerprint and ligand graph feature tests.

Hash anchors come from the published FNV-1a 32-bit test vectors; structural
counts (environment totals per molecule) are small enough to enumerate by
hand.
"""
import json
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bindkit import ligand_features
from bindkit.ligand_features import (
    EDGE_FEATURE_NAMES,
    NODE_FEATURE_NAMES,
    GraphFeatures,
    ecfp,
    fnv1a32,
    full_refinement_ids,
    graph_block,
    infer_hybridization,
    ligand_graph_features,
    morgan_environments,
)
from bindkit.ligand_features import (
    _BOND_CODE,
    _FNV_OFFSET,
    _FNV_PRIME,
    _MASK32,
    _full_refinement_ids_batch,
)
from bindkit.smiles import ParseError, from_smiles, parse_smiles
from bindkit.config import MAX_NBITS
from testutil import csr_rows, on_bits, reserialize


# --- per-atom reference ------------------------------------------------------
# The refinement as a loop over atoms, one _hash_ints call per atom per
# round.  The batch kernel behind ecfp, morgan_environments and
# full_refinement_ids must agree with it exactly.

def _hash_ints(values):
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


def atom_invariant(mol, index, degree):
    """Initial per-atom identifier from six integer invariants."""
    atom = mol.atoms[index]
    return _hash_ints((atom.element, degree, atom.total_h, atom.formal_charge,
                       1 if atom.in_ring else 0, 1 if atom.aromatic else 0))


def _initial_ids(mol):
    adjacency = mol.neighbors()
    return adjacency, [atom_invariant(mol, i, len(nbrs))
                       for i, nbrs in enumerate(adjacency)]


def _refine(ids, adjacency):
    """One round: each atom hashes its own identifier followed by its
    neighbors' (bond code, identifier) pairs in ascending order."""
    new_ids = []
    for i, nbrs in enumerate(adjacency):
        flat = [ids[i]]
        for code, nbr_id in sorted((_BOND_CODE[order], ids[j]) for j, order in nbrs):
            flat.append(code)
            flat.append(nbr_id)
        new_ids.append(_hash_ints(flat))
    return new_ids


def reference_environments(mol, radius=2):
    adjacency, ids = _initial_ids(mol)
    spans = [frozenset([i]) for i in range(len(ids))]
    kept = []
    seen_spans = set()
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


def reference_ecfp_row(mol, radius=2, nbits=2048):
    return tuple(sorted({ident % nbits
                         for _, ident, _ in reference_environments(mol, radius)}))


def reference_refinement_ids(mol):
    adjacency, ids = _initial_ids(mol)
    distinct = len(set(ids))
    for _ in range(len(ids)):
        ids = _refine(ids, adjacency)
        now = len(set(ids))
        if now <= distinct:
            break
        distinct = now
    return tuple(sorted(ids))


def assert_kernel_matches_reference(mols):
    assert _full_refinement_ids_batch(mols) == [
        reference_refinement_ids(m) for m in mols]
    for radius, nbits in ((0, 2048), (1, 64), (2, 2048), (3, 256)):
        offsets, indices = ecfp(mols, radius=radius, nbits=nbits)
        assert offsets.dtype == np.int32 and offsets.shape == (len(mols) + 1,)
        assert indices.dtype == np.uint16 and indices.shape == (offsets[-1],)
        assert csr_rows(offsets, indices) == [
            reference_ecfp_row(mol, radius, nbits) for mol in mols]
    for mol in mols:
        for radius in (0, 2, 3):
            assert morgan_environments(mol, radius) == \
                reference_environments(mol, radius)


def test_fnv1a32_published_vectors():
    assert fnv1a32(b"") == 2166136261
    assert fnv1a32(b"a") == 0xE40C292C
    assert fnv1a32(b"foobar") == 0xBF9CF968


def test_hash_ints_is_little_endian():
    assert _hash_ints([1]) == fnv1a32(b"\x01\x00\x00\x00")
    assert _hash_ints([0x01020304]) == fnv1a32(b"\x04\x03\x02\x01")
    assert _hash_ints([-1]) == fnv1a32(b"\xff\xff\xff\xff")
    assert _hash_ints([1, 2]) == fnv1a32(b"\x01\x00\x00\x00\x02\x00\x00\x00")


WORDS = st.one_of(st.integers(-2**40, -1), st.integers(0, 2**32 - 1),
                  st.integers(2**32, 2**70))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(WORDS, max_size=12))
def test_hash_ints_equals_byte_loop_over_packed_words(values):
    packed = b"".join(struct.pack("<I", v & 0xFFFFFFFF) for v in values)
    assert _hash_ints(values) == fnv1a32(packed)


def test_atom_invariant_separates_contexts():
    methane = from_smiles("C")
    ethane = from_smiles("CC")
    assert atom_invariant(methane, 0, 0) != atom_invariant(ethane, 0, 1)
    # the two ethane carbons are indistinguishable
    assert atom_invariant(ethane, 0, 1) == atom_invariant(ethane, 1, 1)
    benzene = from_smiles("c1ccccc1")
    ids = {atom_invariant(benzene, i, 2) for i in range(6)}
    assert len(ids) == 1


def test_methane_has_a_single_environment():
    envs = morgan_environments(from_smiles("C"), radius=2)
    assert len(envs) == 1
    assert envs[0][0] == 0 and envs[0][2] == frozenset([0])
    assert len(on_bits(from_smiles("C"))) == 1


def test_ethanol_environment_census():
    # 3 singletons at radius 0, 3 grown sets at radius 1, radius 2 only
    # reproduces the full-molecule span so nothing new survives
    envs = morgan_environments(from_smiles("CCO"), radius=2)
    assert len(envs) == 6
    by_radius = {}
    for r, _, span in envs:
        by_radius.setdefault(r, []).append(span)
    assert len(by_radius[0]) == 3 and len(by_radius[1]) == 3
    assert 2 not in by_radius
    assert frozenset([0, 1, 2]) in by_radius[1]


def test_benzene_environment_census():
    envs = morgan_environments(from_smiles("c1ccccc1"), radius=2)
    assert len(envs) == 18   # six atoms at each radius, spans all distinct
    ids_per_radius = {r: set() for r in (0, 1, 2)}
    for r, ident, _ in envs:
        ids_per_radius[r].add(ident)
    assert all(len(v) == 1 for v in ids_per_radius.values())
    assert len(on_bits(from_smiles("c1ccccc1"))) == 3


def test_radius_zero_restricts_to_atoms():
    envs = morgan_environments(from_smiles("CCO"), radius=0)
    assert all(r == 0 for r, _, _ in envs)
    assert len(envs) == 3


def test_identifiers_are_uint32():
    for _, ident, _ in morgan_environments(from_smiles("CC(=O)Oc1ccccc1C(=O)O")):
        assert 0 <= ident < 2 ** 32


def test_nbits_must_be_a_power_of_two():
    mol = from_smiles("CCO")
    for bad in (0, -8, 100, 2047, 2 * MAX_NBITS):
        with pytest.raises(ValueError):
            ecfp([mol], nbits=bad)
    ecfp([mol], nbits=1024)
    ecfp([mol], nbits=MAX_NBITS)


def test_popcount_monotone_in_radius():
    mol = from_smiles("CC(C)Cc1ccc(cc1)C(C)C(=O)O")
    p0 = len(on_bits(mol, radius=0))
    p1 = len(on_bits(mol, radius=1))
    p2 = len(on_bits(mol, radius=2))
    assert p0 <= p1 <= p2
    assert set(on_bits(mol, radius=0)) <= set(on_bits(mol, radius=2))


def test_smaller_width_folds_consistently():
    # 512 divides 2048 so folding must commute with the modulus
    mol = from_smiles("CN1C=NC2=C1C(=O)N(C)C(=O)N2C")
    wide = on_bits(mol, nbits=2048)
    narrow = on_bits(mol, nbits=512)
    assert set(narrow) == {b % 512 for b in wide}


PERMUTATION_SMILES = [
    "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "CN1C=NC2=C1C(=O)N(C)C(=O)N2C",
    "c1ccc2cc3ccccc3cc2c1",
    "CC(=O)Oc1ccccc1C(=O)O",
    "OCC1OC(O)C(O)C(O)C1O",
    "C1CC2CCC1C2",
    "CC(=O)[O-].C[NH3+]",
]


@pytest.mark.parametrize("smiles", PERMUTATION_SMILES)
def test_fingerprint_is_atom_order_invariant(smiles):
    mol = from_smiles(smiles)
    reference = on_bits(mol)
    rng = random.Random(7)
    for _ in range(5):
        order = list(range(len(mol.atoms)))
        rng.shuffle(order)
        again = from_smiles(reserialize(mol, order))
        assert on_bits(again) == reference


@pytest.mark.parametrize("smiles", PERMUTATION_SMILES)
def test_refinement_ids_are_atom_order_invariant(smiles):
    mol = from_smiles(smiles)
    reference = full_refinement_ids(mol)
    rng = random.Random(11)
    for _ in range(5):
        order = list(range(len(mol.atoms)))
        rng.shuffle(order)
        again = from_smiles(reserialize(mol, order))
        assert full_refinement_ids(again) == reference


def test_refinement_ids_separate_isomers():
    butane = full_refinement_ids(from_smiles("CCCC"))
    isobutane = full_refinement_ids(from_smiles("CC(C)C"))
    assert butane != isobutane
    assert len(butane) == len(isobutane) == 4
    # symmetry classes: butane has 2, isobutane has 2
    assert len(set(butane)) == 2 and len(set(isobutane)) == 2


def test_annotation_is_required():
    bare = parse_smiles("CCO")
    with pytest.raises(ValueError):
        morgan_environments(bare)
    with pytest.raises(ValueError):
        ecfp([bare])
    with pytest.raises(ValueError):
        full_refinement_ids(bare)
    with pytest.raises(ValueError):
        ligand_graph_features(bare)
    with pytest.raises(ValueError):
        morgan_environments(from_smiles("CCO"), radius=-1)


# Fragments that join into valid SMILES: atoms of every charge sign, rings
# (fused ones included), a degree-5 phosphorus and '.' component breaks.
FRAGMENTS = ("C", "N", "O", "S", "Cl", "C(=O)", "C(C)(C)", "C=C", "C#N",
             "[NH3+]", "[O-]", "c1ccccc1", "c1ccc2ccccc2c1", "C1CC1",
             "C1CC2CCC1C2", "c1ccncc1", "P(F)(F)(F)F", "[13CH2]", ".")


@st.composite
def molecules(draw):
    frags = draw(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=8))
    try:
        return from_smiles("".join(frags))
    except ParseError:
        return from_smiles("CC")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(molecules(), max_size=6))
def test_kernel_matches_per_atom_reference(mols):
    assert_kernel_matches_reference(mols)


EDGE_CASES = {
    "single atom": ["C"],
    "disconnected": ["CC.O.[Cl-]", "C.C"],
    "charges": ["[O-]C(=O)C[NH3+]", "[NH4+].[O-2]"],
    "degree 5 and 6": ["P(F)(F)(F)(F)F", "S(F)(F)(F)(F)(F)F"],
    "wider than one word": ["C" * 70, "C" * 130 + "O"],
    "fused rings": ["c1ccc2ccccc2c1", "C1C2CC3CC1CC(C2)C3", "C12C3C4C1C5C2C3C45"],
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_kernel_matches_reference_on_edge_cases(case):
    mols = [from_smiles(s) for s in EDGE_CASES[case]]
    assert_kernel_matches_reference(mols)


def test_kernel_on_an_empty_list():
    assert _full_refinement_ids_batch([]) == []
    offsets, indices = ecfp([], nbits=256)
    assert offsets.tolist() == [0] and indices.shape == (0,)


def test_batch_across_chunks_equals_per_molecule_results():
    # the long chain needs the most rounds; its chunk must not change the
    # identifiers of the molecules that share it, nor the next chunk's
    smiles = [s for case in sorted(EDGE_CASES) for s in EDGE_CASES[case]]
    smiles += PERMUTATION_SMILES
    count = 2 * ligand_features._CHUNK + 3
    mols = [from_smiles(smiles[i % len(smiles)]) for i in range(count)]
    ids = _full_refinement_ids_batch(mols)
    rows = csr_rows(*ecfp(mols))
    for i in range(len(smiles)):
        ref_ids = reference_refinement_ids(mols[i])
        ref_row = reference_ecfp_row(mols[i])
        for j in range(i, count, len(smiles)):
            assert ids[j] == ref_ids
            assert rows[j] == ref_row


def test_batch_kernel_requires_annotation():
    bare = parse_smiles("CCO")
    with pytest.raises(ValueError):
        ecfp([from_smiles("C"), bare])
    with pytest.raises(ValueError):
        _full_refinement_ids_batch([bare])


def test_hybridization_heuristic():
    assert infer_hybridization(from_smiles("C#C")) == ("sp", "sp")
    assert infer_hybridization(from_smiles("O=C=O")) == ("sp2", "sp", "sp2")
    assert infer_hybridization(from_smiles("C=C")) == ("sp2", "sp2")
    assert infer_hybridization(from_smiles("CO")) == ("sp3", "sp3")
    assert infer_hybridization(from_smiles("c1ccccc1")) == ("sp2",) * 6
    assert infer_hybridization(from_smiles("CCl")) == ("sp3", "other")


def test_node_feature_layout():
    assert len(NODE_FEATURE_NAMES) == 30
    assert len(EDGE_FEATURE_NAMES) == 5
    feats = ligand_graph_features(from_smiles("CCO"))
    assert isinstance(feats, GraphFeatures)
    assert feats.node_names == NODE_FEATURE_NAMES
    assert feats.edge_names == EDGE_FEATURE_NAMES
    assert feats.node_features.shape == (3, 30)
    assert feats.edge_features.shape == (2, 5)
    assert feats.edge_list == ((0, 1), (1, 2))
    row = feats.node_features[0]               # CH3 carbon
    on = {NODE_FEATURE_NAMES[i] for i in np.flatnonzero(row)}
    assert on == {"elem_C", "degree_1", "h_3", "hyb_sp3"}
    row = feats.node_features[2]               # hydroxyl oxygen
    on = {NODE_FEATURE_NAMES[i] for i in np.flatnonzero(row)}
    assert on == {"elem_O", "degree_1", "h_1", "hyb_sp3"}


def test_node_features_aromatic_ring_atom():
    feats = ligand_graph_features(from_smiles("c1ccccc1"))
    row = feats.node_features[0]
    on = {NODE_FEATURE_NAMES[i] for i in np.flatnonzero(row)}
    assert on == {"elem_C", "degree_2", "h_1", "aromatic", "in_ring", "hyb_sp2"}
    assert np.all(feats.edge_features[:, 3] == 1.0)   # aromatic bond slot
    assert np.all(feats.edge_features[:, 4] == 1.0)   # ring flag


def test_node_features_charge_and_isotope():
    feats = ligand_graph_features(from_smiles("[13CH3][O-]"))
    assert feats.node_features[0, NODE_FEATURE_NAMES.index("has_isotope")] == 1.0
    assert feats.node_features[1, NODE_FEATURE_NAMES.index("formal_charge")] == -1.0
    feats = ligand_graph_features(from_smiles("C[NH3+]"))
    assert feats.node_features[1, NODE_FEATURE_NAMES.index("formal_charge")] == 1.0


def test_packed_bit_layout_is_lsb_first():
    # the former packed row, as README's migration note rebuilds it from a
    # row of the CSR: bit j of a row is bit j % 8 of its byte j // 8
    mol = from_smiles("CC(=O)O")
    bits = sorted({ident % 16 for _, ident, _ in morgan_environments(mol, 1)})
    packed = bytearray(2)
    for j in bits:
        packed[j >> 3] |= 1 << (j & 7)
    offsets, indices = ecfp([mol], radius=1, nbits=16)
    row = np.zeros(16, dtype=np.uint8)
    row[indices[offsets[0]:offsets[1]]] = 1
    assert np.packbits(row, bitorder="little").tobytes() == bytes(packed)
    assert on_bits(mol, radius=1, nbits=16) == tuple(bits)


def test_graph_jsonl_output():
    # the block export-graphs writes per ligand; the byte stability of the
    # JSONL file is pinned by the graphs.jsonl digest in test_golden.py
    eth = graph_block(ligand_graph_features(from_smiles("CCO")))
    assert sorted(eth) == ["edge_features", "edge_list", "feature_names",
                           "node_features"]
    assert len(eth["node_features"]) == 3
    assert all(len(row) == 30 for row in eth["node_features"])
    assert eth["edge_list"] == [[0, 1], [1, 2]]
    assert eth["edge_features"] == [[1.0, 0.0, 0.0, 0.0, 0.0]] * 2
    assert eth["feature_names"] == {"node": list(NODE_FEATURE_NAMES),
                                    "edge": list(EDGE_FEATURE_NAMES)}
    ben = graph_block(ligand_graph_features(from_smiles("c1ccccc1")))
    assert ben["edge_list"][-1] == [5, 0]
    assert json.loads(json.dumps(ben, sort_keys=True)) == ben
