"""Curation pipeline tests: conversion, dedup, split, featurize, persistence."""
import gc
import hashlib
import itertools
import json
import math
import pathlib
import random
import statistics
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bindkit.dataset as dataset_module
from bindkit.dataset import (
    DEFAULT_BOUNDS,
    Dataset,
    DatasetError,
    DatasetFormatError,
    EmptyAfterFilteringError,
    KiBounds,
    RawRecord,
    TooFewRecordsError,
    build_fasta_index,
    featurize_pairs,
    file_digest,
    ingest,
    load_dataset,
    pair_key,
    read_raw_tsv,
    split,
    write_dataset,
)
from bindkit.fasta import ProteinSequence
from bindkit.protein_features import DESCRIPTOR_LAYOUT, receptor_descriptor
from bindkit.ligand_features import ecfp
from bindkit.smiles import Atom, Bond, UnclosedRingError, from_smiles
from testutil import csr_rows, dense_matrix, fingerprint_bits


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def rows_from(*triples):
    return [RawRecord(receptor=r, ligand=l, ki_nm=k) for r, l, k in triples]


def unique_receptor(i: int) -> str:
    return "".join("ACDEFGHIKL"[int(d)] for d in f"{i:06d}")


def bulk_dataset(n: int) -> Dataset:
    rows = rows_from(*[(unique_receptor(i), "C", 100.0) for i in range(n)])
    return ingest(rows)


def test_log_conversion_is_exact():
    ds = ingest(rows_from(("MKV", "CCO", 10000.0)))
    assert ds.records[0].log_ki == 4.0
    ds = ingest(rows_from(("MKV", "CCO", 1.0)))
    assert ds.records[0].log_ki == 0.0
    ds = ingest(rows_from(("MKV", "CCO", 0.001), ("MKW", "CCO", 1e10)))
    assert ds.records[0].log_ki == -3.0
    assert ds.records[1].log_ki == 10.0


def test_plausibility_window():
    assert DEFAULT_BOUNDS.min_nm == 1e-3 and DEFAULT_BOUNDS.max_nm == 1e10
    ds = ingest(rows_from(
        ("MKV", "CCO", 1e-4),      # below window
        ("MKV", "CCO", 1e11),      # above window
        ("MKV", "CCO", 0.0),       # nonpositive
        ("MKV", "CCO", -5.0),      # nonpositive
        ("MKV", "CCO", float("nan")),
        ("MKV", "CCO", float("inf")),
        ("MKV", "CCO", 50.0),      # survivor
    ))
    assert len(ds.records) == 1
    drops = ds.provenance["drops"]
    assert drops["ki_out_of_bounds"] == 2
    assert drops["nonpositive_ki"] == 2
    assert drops["bad_number"] == 2
    assert ds.provenance["n_input_rows"] == 7


def test_custom_bounds_and_validation():
    narrow = KiBounds(min_nm=1.0, max_nm=1000.0)
    ds = ingest(rows_from(("MKV", "C", 5.0), ("MKW", "C", 5000.0)), bounds=narrow)
    assert len(ds.records) == 1
    with pytest.raises(ValueError):
        KiBounds(min_nm=0.0, max_nm=10.0)
    with pytest.raises(ValueError):
        KiBounds(min_nm=10.0, max_nm=1.0)


def test_bad_structures_are_tallied():
    ds = ingest(rows_from(
        ("MKV", "C1CC", 10.0),        # unclosed ring
        ("MKV", "C(C)(C)(C)(C)C", 10.0),   # valence
        ("MKJ", "CCO", 10.0),         # illegal residue
        ("@file:nope", "CCO", 10.0),  # unresolvable reference
        ("MKV", "CCO", 10.0),
    ))
    drops = ds.provenance["drops"]
    assert drops["bad_smiles"] == 2
    assert drops["bad_receptor"] == 1
    assert drops["unknown_receptor_ref"] == 1
    assert len(ds.records) == 1


def test_everything_dropped_is_fatal():
    with pytest.raises(EmptyAfterFilteringError):
        ingest(rows_from(("MKV", "not-a-smiles-(", 10.0)))
    with pytest.raises(EmptyAfterFilteringError):
        ingest([])


def test_duplicate_pairs_merge_to_median():
    ds = ingest(rows_from(
        ("MKV", "CCO", 10.0),     # log 1
        ("MKV", "CCO", 100.0),    # log 2
        ("MKV", "CCO", 1e9),      # log 9
    ))
    assert len(ds.records) == 1
    assert ds.records[0].log_ki == 2.0
    assert ds.provenance["duplicates_merged"] == 2

    even = ingest(rows_from(
        ("MKV", "CCO", 10.0), ("MKV", "CCO", 100.0),
        ("MKV", "CCO", 1000.0), ("MKV", "CCO", 1e10),
    ))
    assert even.records[0].log_ki == 2.5


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False),
                          st.sampled_from([0.0, -0.0, 1.0, -1.0])),
                min_size=1, max_size=9))
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([-0.0, 0.0, -0.0])
@example([1.5, 1.5, -1.5, -1.5])
def test_merge_median_is_statistics_median_bit_for_bit(logs):
    """Duplicate merging computes its median without importing statistics;
    it must give the same float, signed zero included."""
    got = dataset_module._median(list(logs))
    want = statistics.median(logs)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_pair_key_ignores_atom_order():
    ds = ingest(rows_from(
        ("MKV", "OCC", 10.0),
        ("MKV", "CCO", 1000.0),
    ))
    assert len(ds.records) == 1
    assert ds.records[0].log_ki == 2.0   # median of 1 and 3
    assert ds.records[0].ligand.source == "OCC"   # first occurrence wins


def test_pair_key_separates_receptors_and_ligands():
    a = ingest(rows_from(("MKV", "CCO", 10.0))).records[0]
    b = ingest(rows_from(("MKW", "CCO", 10.0))).records[0]
    c = ingest(rows_from(("MKV", "CCC", 10.0))).records[0]
    assert len({a.pair_key, b.pair_key, c.pair_key}) == 3
    key = pair_key(a.receptor, a.ligand)
    assert key == a.pair_key and len(key) == 64


def test_inline_receptors_are_case_insensitive():
    ds = ingest(rows_from(("mkv", "C", 10.0), ("MKV", "C", 1000.0)))
    assert len(ds.records) == 1
    assert ds.records[0].receptor.residues == "MKV"


@pytest.mark.parametrize("letter", ["ß", "ı", "ﬀ"])
def test_inline_receptor_with_a_non_ascii_letter_is_dropped(letter):
    """Only a-z are upper-cased, so ß is not read as the residues SS."""
    ds = ingest(rows_from((f"mkv{letter}", "C", 10.0), ("MKV", "CC", 10.0)))
    assert ds.provenance["drops"]["bad_receptor"] == 1
    assert [r.receptor.residues for r in ds.records] == ["MKV"]


def test_first_occurrence_order_is_kept():
    ds = ingest(rows_from(
        ("AAA", "C", 10.0), ("CCC", "C", 10.0),
        ("AAA", "C", 100.0), ("DDD", "C", 10.0),
    ))
    assert [r.receptor.residues for r in ds.records] == ["AAA", "CCC", "DDD"]


def test_stereo_markers_are_counted_per_row():
    ds = ingest(rows_from(
        ("MKV", "C/C=C\\C", 10.0),
        ("MKW", "C/C=C\\C", 10.0),
    ))
    assert ds.provenance["stereo_warnings_total"] == 4


def test_fasta_references_resolve():
    index = build_fasta_index(">p1 desc\nMKVLQW\n>p2\nACDE\n")
    ds = ingest(rows_from(
        ("@file:p1", "CCO", 10.0),
        ("@file:p2", "CCO", 10.0),
        ("MKVLQW", "CCO", 1000.0),   # same residues as p1, must merge
    ), fasta_index=index)
    assert len(ds.records) == 2
    assert ds.records[0].receptor.id == "p1"
    assert ds.records[0].log_ki == 2.0


def test_split_sizes_exact():
    for n, expected in ((1000, (800, 100, 100)),
                        (999, (799, 100, 100)),
                        (10, (8, 1, 1))):
        ds = split(bulk_dataset(n), seed=11)
        sizes = tuple(len(ds.subset(name)) for name in ("train", "valid", "test"))
        assert sizes == expected
        assert ds.provenance["split_sizes"] == dict(
            zip(("train", "valid", "test"), expected))


def test_split_is_deterministic_and_seed_sensitive():
    base = bulk_dataset(60)
    a = split(base, seed=5)
    b = split(base, seed=5)
    c = split(base, seed=6)
    assert [r.split for r in a.records] == [r.split for r in b.records]
    assert [r.split for r in a.records] != [r.split for r in c.records]


def test_split_preserves_record_order():
    base = bulk_dataset(20)
    after = split(base, seed=1)
    assert [r.pair_key for r in after.records] == [r.pair_key for r in base.records]
    assert all(r.split == "unassigned" for r in base.records)
    assert all(r.split in ("train", "valid", "test") for r in after.records)


def test_split_validation():
    base = bulk_dataset(10)
    with pytest.raises(TooFewRecordsError):
        split(bulk_dataset(2), seed=0)
    with pytest.raises(ValueError):
        split(base, seed=0, ratios=(0.5, 0.5))
    with pytest.raises(ValueError):
        split(base, seed=0, ratios=(0.8, 0.3, -0.1))
    with pytest.raises(ValueError):
        split(base, seed=0, ratios=(0.7, 0.2, 0.2))


def test_subset_lookup():
    ds = split(bulk_dataset(10), seed=3)
    assert len(ds.subset("all")) == 10
    with pytest.raises(ValueError):
        ds.subset("holdout")


def test_featurize_layout_and_values():
    ds = ingest(rows_from(
        ("MKVLQW", "CCO", 10.0),
        ("ACDEFG", "c1ccccc1", 100.0),
        ("MKVLQW", "CC(C)C", 1000.0),
    ))
    X, y, columns, ids = featurize_pairs(ds, nbits=128)
    assert X.shape == (3, 78 + 128)
    assert columns == DESCRIPTOR_LAYOUT
    assert np.array_equal(y, [1.0, 2.0, 3.0])
    assert ids == tuple(r.pair_key for r in ds.records)
    assert X.bit_rows == 3 and len(X.indices) == X.offsets[-1]
    dense = dense_matrix(X)
    assert np.array_equal(dense[0, :78],
                          receptor_descriptor(ds.records[0].receptor))
    assert np.array_equal(
        dense[1, 78:],
        fingerprint_bits(from_smiles("c1ccccc1"), nbits=128).astype(float))
    assert csr_rows(X.offsets, X.indices)[1] == \
        csr_rows(*ecfp([from_smiles("c1ccccc1")], nbits=128))[0]


def test_featurize_calls_ecfp_once_over_the_distinct_ligands(monkeypatch):
    """featurize_pairs fingerprints through the ecfp its module names, in
    one call over the distinct ligands in order of first appearance, so a
    tracer that wraps bindkit.dataset.ecfp times the fingerprinting."""
    calls = []

    def counting(mols, *args, **kwargs):
        calls.append([mol.source for mol in mols])
        return ecfp(mols, *args, **kwargs)

    monkeypatch.setattr(dataset_module, "ecfp", counting)
    ds = ingest(rows_from(
        ("MKVLQW", "CCO", 10.0),
        ("ACDEFG", "c1ccccc1", 100.0),
        ("ACDEFG", "CCO", 30.0),
        ("MKVLQW", "CC(C)C", 1000.0),
    ))
    featurize_pairs(ds, nbits=64)
    assert calls == [list(dict.fromkeys(r.ligand.source for r in ds.records))]
    assert len(calls[0]) == 3 < len(ds.records)


def test_featurize_respects_subsets():
    ds = split(bulk_dataset(30), seed=9)
    X, y, _, ids = featurize_pairs(ds, which="test", nbits=64)
    expected = ds.subset("test")
    assert X.shape[0] == len(expected) == 3
    assert ids == tuple(r.pair_key for r in expected)
    with pytest.raises(EmptyAfterFilteringError):
        featurize_pairs(Dataset(records=(), provenance={}), which="all")


def test_read_raw_tsv(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text(
        "receptor_fasta\tligand_smiles\tki_nm\n"
        "MKV\tCCO\t10.0\n"
        "MKV\tCCO\n"                    # short row
        "\tCCO\t10.0\n"                 # empty receptor
        "MKV\tCCO\tnot-a-number\n"
        "\n"
        "MKW\tCCC\t250\n")
    records, drops, digest = read_raw_tsv(path)
    assert len(records) == 2
    assert records[1] == RawRecord(receptor="MKW", ligand="CCC", ki_nm=250.0)
    assert drops == {"bad_row": 2, "bad_number": 1}
    assert digest == file_digest(path)

    bad = tmp_path / "bad.tsv"
    bad.write_text("receptor\tsmiles\tki\nMKV\tCCO\t10\n")
    with pytest.raises(DatasetFormatError):
        read_raw_tsv(bad)


def test_drop_tallies_carry_through_ingest(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text(
        "receptor_fasta\tligand_smiles\tki_nm\n"
        "MKV\tCCO\t10.0\n"
        "MKV\tCCO\tnope\n")
    records, drops, digest = read_raw_tsv(path)
    ds = ingest(records, source_digest=digest, initial_drops=drops)
    assert ds.provenance["drops"]["bad_number"] == 1
    assert ds.provenance["source_digest"] == digest


# Ligands that hold equal atoms, bonds and component tuples: the same
# fragments at the same offsets, aromatic, ring, bracket and multi-component.
SHARING = ("CCO", "CCN", "CCOC", "c1ccccc1O", "c1ccccc1N", "C1CCCCC1O",
           "CC(=O)[O-].C[NH3+]", "CCO.CCN", "c1cc[nH]c1", "c1cc[nH]c1C")


def sharing_ligands():
    ds = ingest(rows_from(*[("ACDEFG", s, 10.0) for s in SHARING]))
    assert [r.ligand.source for r in ds.records] == list(SHARING)
    return [r.ligand for r in ds.records]


def test_one_ingest_shares_each_equal_atom_bond_and_component():
    mols = sharing_ligands()
    for values in ([a for m in mols for a in m.atoms],
                   [b for m in mols for b in m.bonds],
                   [c for m in mols for c in m.components],
                   [m.components for m in mols]):
        first = {}
        for value in values:
            assert first.setdefault(value, value) is value
        assert len(first) < len(values)


def test_shared_molecules_equal_their_parse_field_for_field():
    """Sharing hands back only a value of the same type: a Bond equals the
    plain tuple of its fields, and True equals 1."""
    mols = sharing_ligands()
    assert mols[0].atoms[0] is mols[1].atoms[0]
    def types(values):
        return [(type(v), [type(field) for field in v]) for v in values]
    for mol in mols:
        ref = from_smiles(mol.source)
        assert mol == ref
        assert types(mol.atoms) == types(ref.atoms)
        assert {type(a) for a in mol.atoms} == {Atom}
        assert types(mol.bonds) == types(ref.bonds)
        assert {type(b) for b in mol.bonds} <= {Bond}
        assert types(mol.components) == types(ref.components)
        assert type(mol.components) is tuple


def test_two_ingests_share_no_atom_bond_or_component():
    """The tables live for one call, so a long-running process that ingests
    again builds its own objects and no cache grows."""
    rows = rows_from(("ACDEFG", "CCO", 10.0), ("ACDEFG", "CCN", 20.0))
    first = [r.ligand for r in ingest(rows).records]
    second = [r.ligand for r in ingest(rows).records]
    assert first == second
    for mols in (first, second):
        assert mols[0].atoms[0] is mols[1].atoms[0]
    def held(mols):
        return {id(v) for m in mols
                for v in (*m.atoms, *m.bonds, *m.components, m.components)}
    assert not held(first) & held(second)


def test_raw_rows_share_each_receptor_cell_and_records_have_no_dict(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("receptor_fasta\tligand_smiles\tki_nm\n"
                    "MKVLQW\tCCO\t10.0\nMKVLQW\tCCN\t20.0\nACDEFG\tCCO\t30.0\n")
    rows, _, _ = read_raw_tsv(path)
    assert rows[0].receptor is rows[1].receptor
    assert rows[0].receptor is not rows[2].receptor
    record = ingest(rows).records[0]
    for obj in (rows[0], record):
        assert not hasattr(obj, "__dict__")


def fragment_table(path, n_rows: int, n_receptors: int = 40) -> None:
    """A raw TSV of n_rows distinct ligands, each a head, three linkers and
    a tail, over n_receptors inline receptors of 300 residues in turn."""
    heads = ("C", "F", "Cl", "O", "N", "c1ccccc1", "C(=O)O", "N#C", "CO",
             "c1ccncc1")
    linkers = ("c1ccc(cc1)", "C(=O)N", "CC", "O", "N1CCN(CC1)", "C(F)(F)",
               "C1CCC(CC1)", "S(=O)(=O)", "c1ccc(s1)", "C=C")
    tails = ("C", "F", "Br", "O", "c1ccccc1", "C(=O)O", "C#N", "OC", "C1CC1",
             "c1ccoc1")
    rng = random.Random(7)
    receptors = ["".join(rng.choice("ACDEFGHIKLMNPQRSTVWY") for _ in range(300))
                 for _ in range(n_receptors)]
    ligands = itertools.product(heads, linkers, linkers, linkers, tails)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("receptor_fasta\tligand_smiles\tki_nm\n")
        for i, parts in zip(range(n_rows), ligands):
            fh.write(f"{receptors[i % n_receptors]}\t{''.join(parts)}\t"
                     f"{10.0 ** (1 + i % 5)!r}\n")


def test_ingest_holds_under_1400_bytes_per_ligand(tmp_path):
    """The bytes that the raw rows and the ingested dataset hold, by
    tracemalloc, over 2,000 rows of distinct fragment-built ligands.

    Measured on CPython 3.11: 4,627 bytes per ligand when each molecule
    held its own atoms, bonds and component tuples and each row its own
    receptor string, and 900 with each distinct value held once.  The
    bound, 1,400, is about 55% above the shared figure and under a third
    of the unshared one.
    """
    warm, path = tmp_path / "warm.tsv", tmp_path / "raw.tsv"
    fragment_table(warm, 20)
    fragment_table(path, 2000)
    ingest(read_raw_tsv(warm)[0])      # lazy set-up is not what ingest keeps
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows, drops, _ = read_raw_tsv(path)
        dataset = ingest(rows, initial_drops=drops)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len({r.ligand.source for r in dataset.records}) == 2000
    assert held / 2000 < 1400, f"{held / 2000:.0f} bytes per ligand"


def test_file_digest_known_value(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    assert file_digest(path) == hashlib.sha256(b"abc").hexdigest()


def test_write_then_load_round_trip(tmp_path):
    ds = split(ingest(rows_from(
        ("MKVLQW", "CCO", 10.0),
        ("ACDEFG", "c1ccccc1", 250.0),
        ("MKVLQW", "CC(C)C", 33.0),
        ("ACDEFG", "CCN", 1e6),
    )), seed=4, ratios=(0.5, 0.25, 0.25))
    outdir = tmp_path / "curated"
    write_dataset(ds, outdir)
    loaded = load_dataset(outdir)
    assert len(loaded.records) == 4
    for a, b in zip(ds.records, loaded.records):
        assert a.pair_key == b.pair_key
        assert a.split == b.split
        assert a.receptor.residues == b.receptor.residues
        assert a.ligand.source == b.ligand.source
        assert a.log_ki == b.log_ki   # repr round-trip is exact
    assert loaded.provenance == ds.provenance


def test_written_files_are_byte_stable(tmp_path):
    ds = split(bulk_dataset(12), seed=7)
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_dataset(ds, first)
    write_dataset(ds, second)
    for name in ("dataset.tsv", "provenance.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    # write -> load -> write is also stable
    third = tmp_path / "c"
    write_dataset(load_dataset(first), third)
    assert (third / "dataset.tsv").read_bytes() == (first / "dataset.tsv").read_bytes()


# The refusal of a dataset.tsv that provenance.json does not record
STALE = "dataset.tsv is not the file provenance.json records"


def stamp(outdir, text):
    """Write text as outdir's dataset.tsv and record its sha256 in
    provenance.json, as if write_dataset had written it."""
    (outdir / "dataset.tsv").write_text(text)
    prov = json.loads((outdir / "provenance.json").read_text())
    prov["dataset_tsv_sha256"] = file_digest(outdir / "dataset.tsv")
    (outdir / "provenance.json").write_text(json.dumps(prov))


def test_load_refuses_a_dataset_ingest_did_not_write(tmp_path):
    """An edited row, a missing provenance.json, or a provenance.json that
    records no dataset.tsv digest raises DatasetError naming the reason and
    asking for an ingest, before any row is read."""
    outdir = tmp_path / "curated"
    write_dataset(bulk_dataset(3), outdir)
    tsv, prov = outdir / "dataset.tsv", outdir / "provenance.json"
    good = tsv.read_text()
    doc = json.loads(prov.read_text())
    cases = [
        (lambda: tsv.write_text(good.replace("\tunassigned\t", "\ttrain\t", 1)),
         STALE),
        (prov.unlink, "the dataset has no provenance.json"),
        (lambda: prov.write_text(json.dumps(
            {k: v for k, v in doc.items() if k != "dataset_tsv_sha256"})), STALE),
    ]
    for damage, reason in cases:
        damage()
        with pytest.raises(DatasetError, match=reason) as info:
            load_dataset(outdir)
        assert type(info.value) is DatasetError
        assert "re-run bindkit ingest" in str(info.value)
        write_dataset(bulk_dataset(3), outdir)
        assert tsv.read_text() == good


def test_load_rejects_corruption(tmp_path):
    """Every row of a dataset.tsv that provenance.json records gets the
    per-line checks: each damage below, re-stamped as if write_dataset had
    written it, raises DatasetFormatError."""
    ds = bulk_dataset(3)
    outdir = tmp_path / "curated"
    write_dataset(ds, outdir)
    good = (outdir / "dataset.tsv").read_text().splitlines()

    stamp(outdir, "\n".join(["wrong\theader"] + good[1:]) + "\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(outdir)

    cells = good[1].split("\t")
    cells[1] = "holdout"
    stamp(outdir, "\n".join([good[0], "\t".join(cells)]) + "\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(outdir)

    stamp(outdir, "\n".join([good[0], good[1] + "\textra"]) + "\n")
    with pytest.raises(DatasetFormatError):
        load_dataset(outdir)

    for bad in ("abc", "nan", "inf", "-inf", "1e999"):
        cells = good[2].split("\t")
        cells[-1] = bad
        stamp(outdir, "\n".join([good[0], good[1], "\t".join(cells)]) + "\n")
        with pytest.raises(DatasetFormatError, match="log_ki .* at line 3"):
            load_dataset(outdir)

    stamp(outdir, "\n".join([good[0], good[1], good[2], good[1]]) + "\n")
    with pytest.raises(DatasetFormatError, match="duplicate pair_key .* at line 4"):
        load_dataset(outdir)

    # a ki_nm other than repr(10.0 ** log_ki), including a log_ki whose power
    # overflows a float
    for column, bad in ((5, "10.00001"), (5, "1e1"), (5, ""),
                        (6, "400.0"), (6, "-400.0")):
        cells = good[2].split("\t")
        cells[column] = bad
        stamp(outdir, "\n".join([good[0], good[1], "\t".join(cells)]) + "\n")
        with pytest.raises(DatasetFormatError, match="ki_nm .* at line 3"):
            load_dataset(outdir)

    stamp(outdir, good[0] + "\n")
    with pytest.raises(EmptyAfterFilteringError):
        load_dataset(outdir)


def test_load_checks_the_curation_window_in_force(tmp_path):
    """The file ingest wrote loads under ingest's window; under a narrower
    one its first row outside raises DatasetFormatError naming the line."""
    rows = [(unique_receptor(i), "CCO", ki) for i, ki in enumerate((10.0, 5e3, 20.0))]
    write_dataset(ingest(rows_from(*rows)), tmp_path)
    assert len(load_dataset(tmp_path).records) == 3
    with pytest.raises(DatasetFormatError,
                       match="outside the curation window .* at line 3"):
        load_dataset(tmp_path, KiBounds(max_nm=1e3))


def count_parses(monkeypatch):
    """Record every SMILES that load_dataset hands to the parser."""
    seen = []

    def counting(text):
        seen.append(text)
        return from_smiles(text)

    monkeypatch.setattr(dataset_module, "from_smiles", counting)
    return seen


def test_load_parses_each_distinct_ligand_once(tmp_path, monkeypatch):
    ligands = ("CCO", "c1ccccc1", "CCN", "CC(=O)O")
    rows = [(unique_receptor(i), ligands[(i * 3) % 4], 10.0 + i) for i in range(14)]
    outdir = tmp_path / "curated"
    write_dataset(split(ingest(rows_from(*rows)), seed=3), outdir)
    parsed = count_parses(monkeypatch)
    loaded = load_dataset(outdir)
    assert len(loaded.records) == 14
    assert len(parsed) == 4
    assert parsed == list(dict.fromkeys(r.ligand.source for r in loaded.records))


def test_loaded_records_share_ligands_and_receptors(tmp_path):
    index = {"P1": ProteinSequence(id="P1", residues="MKVLQW"),
             "P2": ProteinSequence(id="P2", residues="MKVLQW")}
    ds = ingest(rows_from(
        ("@file:P1", "CCO", 10.0),
        ("@file:P2", "CCN", 20.0),
        ("@file:P1", "c1ccccc1", 30.0),
        ("ACDEFG", "CCO", 40.0),
        ("ACDEFG", "CCN", 50.0),
    ), fasta_index=index)
    write_dataset(ds, tmp_path / "curated")
    recs = load_dataset(tmp_path / "curated").records
    assert [r.receptor.id for r in recs[:3]] == ["P1", "P2", "P1"]
    assert recs[0].receptor is recs[2].receptor
    assert recs[3].receptor is recs[4].receptor
    assert recs[1].receptor is not recs[0].receptor      # same residues, other id
    assert recs[1].receptor.residues == recs[0].receptor.residues
    assert recs[0].ligand is recs[3].ligand
    assert recs[1].ligand is recs[4].ligand
    assert recs[0].ligand is not recs[1].ligand


def test_recurring_bad_smiles_raises_at_its_first_row(tmp_path, monkeypatch):
    """An edited dataset.tsv is refused before any SMILES is parsed; the
    same edit recorded in provenance.json is parsed, and raises at the
    first row that names the bad SMILES."""
    rows = [(unique_receptor(i), ("CCO", "CCN", "CCC")[i % 3], 10.0) for i in range(9)]
    outdir = tmp_path / "curated"
    write_dataset(ingest(rows_from(*rows)), outdir)
    tsv = outdir / "dataset.tsv"
    edited = tsv.read_text().replace("\tCCN\t", "\tC1CN\t")
    tsv.write_text(edited)
    parsed = count_parses(monkeypatch)
    with pytest.raises(DatasetError, match=STALE):
        load_dataset(outdir)
    assert parsed == []
    stamp(outdir, edited)
    with pytest.raises(UnclosedRingError):
        load_dataset(outdir)
    assert parsed == ["CCO", "C1CN"]


def test_provenance_records_the_digest_of_the_written_tsv(tmp_path):
    ds = split(bulk_dataset(12), seed=7)
    before = dict(ds.provenance)
    write_dataset(ds, tmp_path)
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov.pop("dataset_tsv_sha256") == file_digest(tmp_path / "dataset.tsv")
    assert prov == ds.provenance == before


def fixture_dataset():
    """The fixture raw TSV curated and split as `bindkit ingest` does."""
    rows, drops, digest = read_raw_tsv(FIXTURES / "raw_affinities.tsv")
    index = build_fasta_index((FIXTURES / "receptors.fasta").read_text())
    return split(ingest(rows, fasta_index=index, source_digest=digest,
                        initial_drops=drops), seed=11)


def record_fields(dataset):
    return [(r.pair_key, r.split, r.receptor.id, r.receptor.residues,
             r.ligand.source, r.log_ki) for r in dataset.records]


@pytest.mark.parametrize("subset", ["train", "valid", "test", "all"])
def test_load_returns_the_records_ingest_built(tmp_path, monkeypatch, subset):
    """load_dataset of the directory write_dataset wrote returns exactly the
    records of subset that ingest built, in file order, and the same
    provenance, parsing each distinct ligand of the subset once and no
    other."""
    built = fixture_dataset()
    write_dataset(built, tmp_path)
    expected = [f for f in record_fields(built) if subset in ("all", f[1])]
    assert expected
    parsed = count_parses(monkeypatch)
    loaded = load_dataset(tmp_path, subset=subset)
    assert record_fields(loaded) == expected
    assert parsed == list(dict.fromkeys(f[4] for f in expected))
    assert loaded.provenance == built.provenance


def test_load_rejects_an_unknown_subset(tmp_path):
    write_dataset(bulk_dataset(3), tmp_path)
    with pytest.raises(ValueError, match="unknown subset 'holdout'"):
        load_dataset(tmp_path, subset="holdout")


def test_provenance_is_json_serializable():
    ds = split(bulk_dataset(10), seed=2)
    text = json.dumps(ds.provenance, sort_keys=True)
    assert "split_sizes" in text and "pcg64" in text
