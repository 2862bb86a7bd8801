"""Receptor descriptor and residue-graph tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bindkit.dataset import AffinityRecord, Dataset, featurize_pairs
from bindkit.fasta import EmptyRecordError, IllegalResidueError, ProteinSequence
from bindkit.ligand_features import GraphFeatures
from bindkit.protein_features import (
    DESCRIPTOR_LAYOUT,
    GRAPH_NODE_PROPERTIES,
    PROPERTIES,
    RECEPTOR_NODE_FEATURE_NAMES,
    STANDARD_ORDER,
    ResiduePropertyTable,
    UnknownResidueError,
    default_table,
    load_property_table,
    receptor_descriptor,
    receptor_graph_features,
    residue_properties,
)
from bindkit.smiles import from_smiles
from testutil import dense_matrix


def seq(residues: str) -> ProteinSequence:
    """The receptor featurizers take a ProteinSequence, which checks the
    residues."""
    return ProteinSequence("r", residues)


def test_default_table_shape_and_version():
    table = default_table()
    assert table.version == "bindkit-aa-v1"
    assert tuple(residue_properties("A", table)) == PROPERTIES
    assert len(PROPERTIES) == 14
    assert set(table.rows) == set(STANDARD_ORDER)
    assert all(len(v) == 14 for v in table.rows.values())


def test_anchor_values():
    assert residue_properties("A")["hydrophobicity"] == 1.8
    assert residue_properties("G")["hydrophobicity"] == -0.4
    assert residue_properties("R")["hydrophobicity"] == -4.5
    assert residue_properties("K")["charge"] == 1.0
    assert residue_properties("D")["charge"] == -1.0
    assert residue_properties("H")["charge"] == 0.1
    assert residue_properties("G")["refractivity"] == 0.0
    assert residue_properties("W")["vdw_volume"] == max(
        residue_properties(aa)["vdw_volume"] for aa in STANDARD_ORDER)


def test_aliphatic_flags():
    flagged = {aa for aa in STANDARD_ORDER if residue_properties(aa)["aliphatic"] == 1.0}
    assert flagged == {"A", "V", "I", "L"}


def test_folding_column_is_consistent():
    # foldability = 2.785 * (hydrophobicity + 4.5) / 9 - |charge| - 1.151
    for aa in STANDARD_ORDER:
        props = residue_properties(aa)
        expected = (2.785 * (props["hydrophobicity"] + 4.5) / 9.0
                    - abs(props["charge"]) - 1.151)
        assert props["folding"] == pytest.approx(expected, abs=5e-6)


def test_ambiguity_codes():
    table = default_table()
    x = residue_properties("X")
    column_mean = np.mean([table.rows[aa] for aa in STANDARD_ORDER], axis=0)
    assert np.allclose(list(x.values()), column_mean)
    assert x["charge"] == pytest.approx(0.005)

    b = residue_properties("B")
    for i, name in enumerate(PROPERTIES):
        assert b[name] == pytest.approx((table.rows["D"][i] + table.rows["N"][i]) / 2)
    z = residue_properties("Z")
    for i, name in enumerate(PROPERTIES):
        assert z[name] == pytest.approx((table.rows["E"][i] + table.rows["Q"][i]) / 2)
    assert residue_properties("U") == residue_properties("C")


def test_unknown_residue_rejected():
    with pytest.raises(UnknownResidueError):
        residue_properties("J")
    with pytest.raises(IllegalResidueError):     # before any featurizer
        seq("AAJ")


def test_descriptor_layout():
    assert len(DESCRIPTOR_LAYOUT) == 78
    assert DESCRIPTOR_LAYOUT[0] == "charge_mean"
    assert DESCRIPTOR_LAYOUT[3] == "charge_max"
    assert DESCRIPTOR_LAYOUT[56] == "frac_A"
    assert DESCRIPTOR_LAYOUT[-2:] == ("length", "disulfide_pairs")
    desc = receptor_descriptor(seq("ACDEFGHIKLMNPQRSTVWY"))
    assert desc.shape == (len(DESCRIPTOR_LAYOUT),)
    assert desc.dtype == np.float64


def test_homopolymer_statistics_collapse():
    table = default_table()
    desc = receptor_descriptor(seq("AA"))
    a_row = np.array(table.rows["A"])
    stats = desc[:56].reshape(14, 4)
    assert np.allclose(stats[:, 0], a_row)          # mean
    assert np.allclose(stats[:, 1], 2 * a_row)      # sum
    assert np.allclose(stats[:, 2], a_row)          # min
    assert np.allclose(stats[:, 3], a_row)          # max
    fracs = desc[56:76]
    assert fracs[STANDARD_ORDER.index("A")] == 1.0
    assert fracs.sum() == pytest.approx(1.0)
    assert desc[76] == 2.0                   # length
    assert desc[77] == 0.0                   # no cysteine pair


def test_disulfide_proxy_counts_pairs():
    assert receptor_descriptor(seq("C"))[77] == 0.0
    assert receptor_descriptor(seq("CC"))[77] == 1.0
    assert receptor_descriptor(seq("CACAC"))[77] == 1.0
    assert receptor_descriptor(seq("CCCC"))[77] == 2.0


def test_composition_of_ambiguity_codes():
    fracs = receptor_descriptor(seq("BB"))[56:76]
    assert fracs[STANDARD_ORDER.index("D")] == pytest.approx(0.5)
    assert fracs[STANDARD_ORDER.index("N")] == pytest.approx(0.5)
    fracs = receptor_descriptor(seq("XXXX"))[56:76]
    assert np.allclose(fracs, 1.0 / 20.0)
    fracs = receptor_descriptor(seq("U"))[56:76]
    assert fracs[STANDARD_ORDER.index("C")] == 1.0


def test_sum_min_max_respect_concatenation():
    rng = np.random.default_rng(3)
    aas = list(STANDARD_ORDER)
    for _ in range(5):
        s1 = "".join(rng.choice(aas, size=17))
        s2 = "".join(rng.choice(aas, size=29))
        d1 = receptor_descriptor(seq(s1))[:56].reshape(14, 4)
        d2 = receptor_descriptor(seq(s2))[:56].reshape(14, 4)
        d12 = receptor_descriptor(seq(s1 + s2))[:56].reshape(14, 4)
        assert np.allclose(d12[:, 1], d1[:, 1] + d2[:, 1])
        assert np.allclose(d12[:, 2], np.minimum(d1[:, 2], d2[:, 2]))
        assert np.allclose(d12[:, 3], np.maximum(d1[:, 3], d2[:, 3]))
        w = len(s1) / (len(s1) + len(s2))
        assert np.allclose(d12[:, 0], w * d1[:, 0] + (1 - w) * d2[:, 0])


def test_descriptor_is_the_dense_row_of_featurize_pairs():
    records = tuple(
        AffinityRecord(receptor=ProteinSequence(f"r{i}", residues),
                       ligand=from_smiles("CCO"), log_ki=1.0, pair_key=f"k{i}")
        for i, residues in enumerate(["MKVLQW", "ACDBZX", "MKVLQW"]))
    X, *_ = featurize_pairs(Dataset(records=records, provenance={}), nbits=8)
    dense = dense_matrix(X)[:, :len(DESCRIPTOR_LAYOUT)]
    for rec, row in zip(records, dense):
        assert receptor_descriptor(rec.receptor).tobytes() == row.tobytes()


def test_takes_a_protein_sequence_only():
    """A residue string is no input; its ProteinSequence refuses it empty."""
    for featurize in (receptor_descriptor, receptor_graph_features):
        with pytest.raises(AttributeError):
            featurize("MKVLQW")
    with pytest.raises(EmptyRecordError):
        seq("")


def test_custom_table_round_trip(tmp_path):
    src = default_table()
    path = tmp_path / "table.csv"
    lines = ["# version: custom-v9", "code," + ",".join(PROPERTIES)]
    for aa in STANDARD_ORDER:
        lines.append(aa + "," + ",".join(repr(v) for v in src.rows[aa]))
    path.write_text("\n".join(lines) + "\n")
    table = load_property_table(path)
    assert table.version == "custom-v9"
    assert table.rows == src.rows
    got = receptor_descriptor(seq("MKV"), table=table)
    assert np.array_equal(got, receptor_descriptor(seq("MKV")))


def test_table_validation(tmp_path):
    header = "code," + ",".join(PROPERTIES)
    src = default_table()
    body = [aa + "," + ",".join(repr(v) for v in src.rows[aa]) for aa in STANDARD_ORDER]

    missing = tmp_path / "missing.csv"
    missing.write_text("\n".join([header] + body[:-1]) + "\n")
    with pytest.raises(ValueError, match="20 standard"):
        load_property_table(missing)

    renamed = tmp_path / "renamed.csv"
    renamed.write_text("\n".join([header.replace("charge", "q")] + body) + "\n")
    with pytest.raises(ValueError, match="property columns"):
        load_property_table(renamed)

    headless = tmp_path / "headless.csv"
    headless.write_text("")
    with pytest.raises(ValueError, match="header"):
        load_property_table(headless)

    unversioned = tmp_path / "plain.csv"
    unversioned.write_text("\n".join([header] + body) + "\n")
    assert load_property_table(unversioned).version == "unversioned"


def test_graph_features_layout():
    feats = receptor_graph_features(seq("ACD"))
    assert feats.node_features.shape == (3, 29)
    assert feats.edge_list == ((0, 1), (1, 2))
    assert len(RECEPTOR_NODE_FEATURE_NAMES) == 29
    assert isinstance(feats, GraphFeatures)
    assert feats.node_names == RECEPTOR_NODE_FEATURE_NAMES
    assert feats.edge_features.shape == (0, 0) and feats.edge_names == ()
    table = default_table()
    prop_idx = [PROPERTIES.index(p) for p in GRAPH_NODE_PROPERTIES]
    a_row = np.array(table.rows["A"])[prop_idx]
    assert np.allclose(feats.node_features[0, :9], a_row)
    onehot = feats.node_features[0, 9:]
    assert onehot[STANDARD_ORDER.index("A")] == 1.0 and onehot.sum() == 1.0


def test_graph_features_single_residue_and_ambiguity():
    feats = receptor_graph_features(seq("M"))
    assert feats.edge_list == ()
    feats = receptor_graph_features(seq("X"))
    assert np.allclose(feats.node_features[0, 9:], 1.0 / 20.0)


def test_graph_feature_determinism():
    a = receptor_graph_features(seq("MKVLQWERTY")).node_features
    b = receptor_graph_features(seq("MKVLQWERTY")).node_features
    assert np.array_equal(a, b)


# --- per-residue reference ---------------------------------------------------
# The descriptor and the node block as loops over residues, with the property
# row and the composition counts of each code worked out case by case.  The
# library gathers rows of one code table; the bytes must agree.

ALL_CODES = STANDARD_ORDER + "XBZU"


def _property_vector(code: str, table) -> np.ndarray:
    if code in table.rows:
        return np.array(table.rows[code], dtype=np.float64)
    if code == "X":
        return np.mean([table.rows[a] for a in STANDARD_ORDER], axis=0)
    if code == "B":
        return (np.array(table.rows["D"]) + np.array(table.rows["N"])) / 2.0
    if code == "Z":
        return (np.array(table.rows["E"]) + np.array(table.rows["Q"])) / 2.0
    if code == "U":
        return np.array(table.rows["C"], dtype=np.float64)
    raise UnknownResidueError(code)


def _composition_counts(residues: str) -> np.ndarray:
    """Counts over the 20 standard residues; X spreads 1/20 over all, B
    splits over D/N, Z over E/Q, U counts as C."""
    idx = {aa: i for i, aa in enumerate(STANDARD_ORDER)}
    counts = np.zeros(20, dtype=np.float64)
    for ch in residues:
        if ch in idx:
            counts[idx[ch]] += 1.0
        elif ch == "X":
            counts += 1.0 / 20.0
        elif ch == "B":
            counts[idx["D"]] += 0.5
            counts[idx["N"]] += 0.5
        elif ch == "Z":
            counts[idx["E"]] += 0.5
            counts[idx["Q"]] += 0.5
        elif ch == "U":
            counts[idx["C"]] += 1.0
        else:
            raise UnknownResidueError(ch)
    return counts


def reference_descriptor(residues, table):
    per_res = np.stack([_property_vector(ch, table) for ch in residues])
    stats = np.empty((len(PROPERTIES), 4), dtype=np.float64)
    stats[:, 0] = per_res.mean(axis=0)
    stats[:, 1] = per_res.sum(axis=0)
    stats[:, 2] = per_res.min(axis=0)
    stats[:, 3] = per_res.max(axis=0)
    fractions = _composition_counts(residues) / len(residues)
    tail = np.array([float(len(residues)), float(residues.count("C") // 2)])
    return np.concatenate([stats.ravel(), fractions, tail])


def reference_nodes(residues, table):
    prop_idx = [PROPERTIES.index(p) for p in GRAPH_NODE_PROPERTIES]
    nodes = np.zeros((len(residues), 9 + 20), dtype=np.float64)
    for i, ch in enumerate(residues):
        nodes[i, :9] = _property_vector(ch, table)[prop_idx]
        nodes[i, 9:] = _composition_counts(ch)
    return nodes


def test_code_rows_are_the_reference_rows_and_not_compared():
    table = default_table()
    assert table.code_rows.shape == (24, 34)
    assert not table.code_rows.flags.writeable
    for code, row in zip(ALL_CODES, table.code_rows):
        want = np.concatenate([_property_vector(code, table),
                               _composition_counts(code)])
        assert row.tobytes() == want.tobytes(), code
    twin = ResiduePropertyTable(table.version, dict(table.rows))
    assert twin == table and twin.code_rows is not table.code_rows


def assert_matches_reference(residues):
    table = default_table()
    got = receptor_descriptor(seq(residues))
    assert got.tobytes() == reference_descriptor(residues, table).tobytes()
    nodes = receptor_graph_features(seq(residues)).node_features
    want = reference_nodes(residues, table)
    assert nodes.shape == want.shape and nodes.tobytes() == want.tobytes()


@pytest.mark.parametrize("residues", [ALL_CODES, ALL_CODES[::-1], "X", "U",
                                      "BZBZ", "C" * 7])
def test_gathered_rows_equal_per_residue_reference(residues):
    assert_matches_reference(residues)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.text(alphabet=ALL_CODES, min_size=1, max_size=300))
def test_drawn_sequences_equal_per_residue_reference(residues):
    assert_matches_reference(residues)


def test_ambiguity_codes_keep_the_sign_of_zero(tmp_path):
    """B, Z and U rows of a table whose D, N, E, Q and C charges are -0.0
    keep -0.0, in the descriptor and in the node block, as the reference."""
    src = default_table()
    charge = PROPERTIES.index("charge")
    lines = ["code," + ",".join(PROPERTIES)]
    for aa in STANDARD_ORDER:
        values = list(src.rows[aa])
        if aa in "DNEQC":
            values[charge] = -0.0
        lines.append(aa + "," + ",".join(map(repr, values)))
    path = tmp_path / "signed.csv"
    path.write_text("\n".join(lines) + "\n")
    table = load_property_table(path)
    got = receptor_descriptor(seq("BZUX"), table)
    assert got.tobytes() == reference_descriptor("BZUX", table).tobytes()
    assert np.signbit(got[DESCRIPTOR_LAYOUT.index("charge_min")])
    nodes = receptor_graph_features(seq("BZUX"), table).node_features
    assert nodes.tobytes() == reference_nodes("BZUX", table).tobytes()
    assert np.signbit(nodes[:3, GRAPH_NODE_PROPERTIES.index("charge")]).all()


@pytest.mark.parametrize("residues,bad", [
    ("AJO", "J"), ("JA*", "J"), ("MK*J", "*"), ("AÉJ", "É"), ("a", "a"),
    ("AC\ud800", "\ud800"),
])
def test_first_bad_residue_in_sequence_order_is_named(residues, bad):
    """The ProteinSequence a featurizer takes names the first residue outside
    the 24 codes, and its 1-based position."""
    with pytest.raises(IllegalResidueError) as info:
        seq(residues)
    assert (info.value.residue, info.value.position) == \
        (bad, residues.index(bad) + 1)
