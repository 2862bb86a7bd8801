"""Affinity dataset curation: ingest, dedup, split, featurize.

Affinities enter as inhibition constants in nanomoles and are converted to
decimal log units (10000 nM becomes exactly 4.0).  Records outside the
physically plausible window are dropped and tallied, duplicated
receptor-ligand pairs are merged to their median log-affinity, and the
deterministic shuffle-split assigns train/valid/test subsets with
largest-remainder rounding.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from ._formats import (DATASET_COLUMNS, SPLIT_NAMES, TSV_DIGEST, _dataset_files,
                       _read_dataset, _write, _write_json, file_digest)
from .config import KiBounds
from .errors import DatasetError, DatasetFormatError, EmptyAfterFilteringError
from .fasta import FastaError, ProteinSequence, _ASCII_UPPER, parse_fasta
from .ligand_features import (
    _full_refinement_ids_batch,
    ecfp,
    full_refinement_ids,
)
from .model import Features, write_features
from .protein_features import (
    DESCRIPTOR_LAYOUT,
    ResiduePropertyTable,
    default_table,
    receptor_descriptor,
)
from .smiles import Molecule, ParseError, ValenceError, _shared, from_smiles

__all__ = [
    "KiBounds",
    "RawRecord",
    "AffinityRecord",
    "Dataset",
    "DatasetError",
    "DatasetFormatError",
    "EmptyAfterFilteringError",
    "TooFewRecordsError",
    "DEFAULT_BOUNDS",
    "pair_key",
    "ingest",
    "split",
    "featurize_pairs",
    "read_raw_tsv",
    "build_fasta_index",
    "write_dataset",
    "load_dataset",
    "write_features",
    "file_digest",
]


class TooFewRecordsError(DatasetError):
    pass


DEFAULT_BOUNDS = KiBounds()


@dataclass(frozen=True, slots=True)
class RawRecord:
    receptor: str        # inline residue string, or "@file:ID" into a FASTA index
    ligand: str          # SMILES
    ki_nm: float


@dataclass(frozen=True, slots=True)
class AffinityRecord:
    receptor: ProteinSequence
    ligand: Molecule
    log_ki: float
    pair_key: str
    split: str = "unassigned"


@dataclass(frozen=True)
class Dataset:
    records: tuple[AffinityRecord, ...]
    provenance: dict

    def subset(self, name: str) -> tuple[AffinityRecord, ...]:
        if name == "all":
            return self.records
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown subset {name!r}")
        return tuple(r for r in self.records if r.split == name)


def pair_key(receptor: ProteinSequence, ligand: Molecule) -> str:
    """Stable key for a receptor-ligand pair.

    The ligand contributes its refined atom-identifier multiset, so the key
    is invariant under atom reordering of the input SMILES; the receptor
    contributes its residue string.
    """
    return _pair_key(receptor.residues,
                     _ligand_identity(full_refinement_ids(ligand)))


def _ligand_identity(refined_ids) -> str:
    return ",".join(str(i) for i in refined_ids)


def _pair_key(residues: str, ligand_identity: str) -> str:
    return hashlib.sha256(f"{residues}|{ligand_identity}".encode("ascii")).hexdigest()


def build_fasta_index(text: str) -> dict[str, ProteinSequence]:
    """The records of a FASTA document by id; an id given twice raises
    FastaError, since an `@file:ID` reference would be ambiguous."""
    index: dict[str, ProteinSequence] = {}
    for rec in parse_fasta(text):
        if index.setdefault(rec.id, rec) is not rec:
            raise FastaError(f"duplicate FASTA record id {rec.id!r}")
    return index


def read_raw_tsv(path):
    """Read a raw affinity TSV (receptor_fasta, ligand_smiles, ki_nm).

    Structurally broken rows are dropped and tallied rather than fatal;
    a missing or wrong header is fatal (DatasetFormatError).  Rows that
    name the same receptor cell share one string of it.
    Returns (records, drop tally, sha256 of the file).
    """
    drops = {"bad_row": 0, "bad_number": 0}
    records: list[RawRecord] = []
    receptors: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = fh.readline().rstrip("\n").rstrip("\r")
        if header.split("\t") != ["receptor_fasta", "ligand_smiles", "ki_nm"]:
            raise DatasetFormatError(
                "expected header receptor_fasta<TAB>ligand_smiles<TAB>ki_nm")
        for raw in fh:
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != 3 or not cells[0] or not cells[1]:
                drops["bad_row"] += 1
                continue
            try:
                ki = float(cells[2])
            except ValueError:
                drops["bad_number"] += 1
                continue
            records.append(RawRecord(
                receptor=receptors.setdefault(cells[0], cells[0]),
                ligand=cells[1], ki_nm=ki))
    return records, drops, file_digest(path)


def _inline_receptor(residues: str) -> ProteinSequence:
    rid = "seq-" + hashlib.sha256(residues.encode("ascii", "replace")).hexdigest()[:10]
    return ProteinSequence(id=rid, residues=residues)


def _median(values: list[float]) -> float:
    """statistics.median, written as CPython 3.11 writes it, so that the
    pipeline need not import statistics (and with it decimal and
    fractions) for one call."""
    data = sorted(values)
    n = len(data)
    if n % 2 == 1:
        return data[n // 2]
    i = n // 2
    return (data[i - 1] + data[i]) / 2


def ingest(
    rows,
    bounds: KiBounds = DEFAULT_BOUNDS,
    fasta_index: dict[str, ProteinSequence] | None = None,
    source_digest: str = "",
    initial_drops: dict | None = None,
) -> Dataset:
    """Validate, convert and deduplicate raw affinity rows into a Dataset.

    Rows are checked, and each distinct SMILES parsed, row by row; per-row
    failures are tallied by reason, never fatal.  Each valid ligand is kept
    as smiles._shared rebuilds it from tables this call owns, so the kept
    molecules hold each distinct atom, bond and component tuple once and
    share none with another call.  One batch-kernel call
    then refines every distinct valid ligand, and the surviving rows are
    keyed in their input order: each is converted to log10 Ki, and
    duplicate pairs (same pair_key) are merged to the median log value,
    keeping first-occurrence order.  An empty result raises
    EmptyAfterFilteringError.
    """
    drops = {
        "bad_row": 0, "bad_number": 0, "bad_receptor": 0,
        "unknown_receptor_ref": 0, "bad_smiles": 0,
        "nonpositive_ki": 0, "ki_out_of_bounds": 0,
    }
    if initial_drops:
        for k, v in initial_drops.items():
            drops[k] = drops.get(k, 0) + v

    n_input = 0
    seq_cache: dict[str, ProteinSequence] = {}
    # distinct valid SMILES -> molecule; a failing SMILES is re-parsed and
    # tallied at each row that names it
    molecules: dict[str, Molecule] = {}
    # smiles._shared's atom, bond and component tables, which go on return
    tables: tuple[dict, dict, dict] = ({}, {}, {})
    kept: list[tuple[ProteinSequence, str, float]] = []

    for row in rows:
        n_input += 1
        if not math.isfinite(row.ki_nm):
            drops["bad_number"] += 1
            continue
        if row.ki_nm <= 0:
            drops["nonpositive_ki"] += 1
            continue
        if not (bounds.min_nm <= row.ki_nm <= bounds.max_nm):
            drops["ki_out_of_bounds"] += 1
            continue
        if row.receptor.startswith("@file:"):
            ref = row.receptor[len("@file:"):]
            if fasta_index is None or ref not in fasta_index:
                drops["unknown_receptor_ref"] += 1
                continue
            seq = fasta_index[ref]
        else:
            residues = row.receptor.translate(_ASCII_UPPER)
            seq = seq_cache.get(residues)
            if seq is None:
                try:
                    seq = _inline_receptor(residues)   # validates the alphabet
                except FastaError:
                    drops["bad_receptor"] += 1
                    continue
                seq_cache[residues] = seq
        if row.ligand not in molecules:
            try:
                mol = from_smiles(row.ligand)
            except (ParseError, ValenceError):
                drops["bad_smiles"] += 1
                continue
            molecules[row.ligand] = _shared(mol, *tables)
        kept.append((seq, row.ligand, math.log10(row.ki_nm)))

    if not kept:
        raise EmptyAfterFilteringError(
            f"no records survived filtering (drops: {drops})")

    refined = _full_refinement_ids_batch(molecules.values())     # one kernel call
    identities = {smiles: _ligand_identity(ids)
                  for smiles, ids in zip(molecules, refined)}
    stereo_total = 0
    # each pair key's first receptor and ligand, and every log Ki it carries
    groups: dict[str, tuple[ProteinSequence, Molecule, list[float]]] = {}
    for seq, smiles, log_ki in kept:
        mol = molecules[smiles]
        stereo_total += mol.stereo_warnings
        key = _pair_key(seq.residues, identities[smiles])
        groups.setdefault(key, (seq, mol, []))[2].append(log_ki)

    records = [AffinityRecord(receptor=seq, ligand=mol, log_ki=_median(logs),
                              pair_key=key)
               for key, (seq, mol, logs) in groups.items()]
    provenance = {
        "source_digest": source_digest,
        "n_input_rows": n_input,
        "drops": drops,
        "duplicates_merged": len(kept) - len(records),
        "n_records": len(records),
        "ki_bounds_nm": [bounds.min_nm, bounds.max_nm],
        "stereo_warnings_total": stereo_total,
    }
    return Dataset(records=tuple(records), provenance=provenance)


def _largest_remainder(n: int, ratios) -> list[int]:
    raw = [n * r for r in ratios]
    base = [int(math.floor(x)) for x in raw]
    short = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def split(dataset: Dataset, seed: int, ratios=(0.8, 0.1, 0.1)) -> Dataset:
    """Assign train/valid/test subsets by a seeded shuffle.

    Subset sizes come from largest-remainder rounding of the ratios (ties go
    to the earlier subset), so 1000 records at 80:10:10 give exactly
    800/100/100 and 999 give 799/100/100.  The permutation is drawn from
    PCG64 seeded as given; record order in the returned dataset is unchanged,
    only the split labels differ.
    """
    if len(ratios) != 3:
        raise ValueError("need exactly three ratios")
    if any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be positive and sum to 1")
    n = len(dataset.records)
    if n < 3:
        raise TooFewRecordsError(f"cannot split {n} records three ways")
    sizes = _largest_remainder(n, ratios)
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    assignment = [""] * n
    start = 0
    for name, size in zip(SPLIT_NAMES, sizes):
        for i in perm[start:start + size]:
            assignment[i] = name
        start += size
    records = tuple(replace(r, split=assignment[i])
                    for i, r in enumerate(dataset.records))
    provenance = dict(dataset.provenance)
    provenance.update({
        "seed": seed,
        "ratios": list(ratios),
        "split_sizes": dict(zip(SPLIT_NAMES, sizes)),
        "prng": "pcg64-permutation",
    })
    return Dataset(records=records, provenance=provenance)


def featurize_pairs(
    dataset: Dataset,
    which: str = "all",
    radius: int = 2,
    nbits: int = 2048,
    table: ResiduePropertyTable | None = None,
):
    """Assemble the model matrix for a subset.

    Returns (X, y, columns, ids): X is model.Features over the arrays built
    here, factored: its dense block holds the 78 receptor descriptor
    columns of each distinct receptor once, its bit block the set bits
    among nbits fingerprint bits of each distinct ligand of the subset
    once, and its index gives each pair's receptor row and ligand row, in
    dataset record order.  Rows are numbered in order of first appearance.
    The ligands are fingerprinted by one ecfp call, whose CSR is the bit
    block.  columns is DESCRIPTOR_LAYOUT, the names of the dense columns
    (model.column_names adds fp_j for bit j), y is log10 Ki, ids are pair
    keys.
    """
    table = table or default_table()
    records = dataset.subset(which)
    if not records:
        raise EmptyAfterFilteringError(f"subset {which!r} is empty")
    # distinct residue string / SMILES -> (first-seen index, object)
    receptors: dict[str, tuple[int, ProteinSequence]] = {}
    ligands: dict[str, tuple[int, Molecule]] = {}
    index = np.array([
        (receptors.setdefault(rec.receptor.residues,
                              (len(receptors), rec.receptor))[0],
         ligands.setdefault(rec.ligand.source, (len(ligands), rec.ligand))[0])
        for rec in records], dtype=np.int32)
    offsets, bits = ecfp([lig for _, lig in ligands.values()], radius, nbits)
    descriptors = np.array([receptor_descriptor(rec, table)
                            for _, rec in receptors.values()], dtype=np.float64)
    X = Features(memoryview(descriptors.ravel()), len(descriptors),
                 descriptors.shape[1], memoryview(offsets), memoryview(bits),
                 nbits, memoryview(index.ravel()))
    y = np.array([rec.log_ki for rec in records], dtype=np.float64)
    return X, y, DESCRIPTOR_LAYOUT, tuple(rec.pair_key for rec in records)


# --- on-disk curated dataset -------------------------------------------------


def _tsv_lines(dataset: Dataset):
    """The lines of the dataset.tsv of dataset, made one at a time (a
    screen's file runs to megabytes); a field holding a tab or a newline
    raises DatasetFormatError."""
    yield "\t".join(DATASET_COLUMNS) + "\n"
    for rec in dataset.records:
        cells = (rec.pair_key, rec.split, rec.receptor.id, rec.receptor.residues,
                 rec.ligand.source, repr(10.0 ** rec.log_ki), repr(rec.log_ki))
        for cell in cells:
            if "\t" in cell or "\n" in cell:
                raise DatasetFormatError(f"field contains separator: {cell!r}")
        yield "\t".join(cells) + "\n"


def write_dataset(dataset: Dataset, outdir, features=None) -> None:
    """Write dataset.tsv and provenance.json into a directory.

    Floats are serialized with repr (shortest round-trip), keys are sorted,
    nothing time-dependent is recorded: identical datasets produce
    byte-identical files.  provenance.json holds dataset.provenance plus
    the sha256 of the dataset.tsv written (dataset_tsv_sha256), by which
    load_dataset knows a file this function wrote.

    features, when given, is the (X, y, ids, sidecar) of every record that
    write_features writes, in record order.  It is written first, as the
    dataset's feature store, outdir/features, with the dataset.tsv digest
    added to its sidecar, so a features that write_features refuses raises
    before any file is written.
    """
    sha = hashlib.sha256()
    for line in _tsv_lines(dataset):
        sha.update(line.encode("utf-8"))
    digest = sha.hexdigest()
    tsv, prov_path, store = _dataset_files(outdir)
    if features is not None:
        X, y, ids, sidecar = features
        write_features(store, X, y, ids, {**sidecar, TSV_DIGEST: digest})
    os.makedirs(outdir, exist_ok=True)
    _write(tsv, _tsv_lines(dataset))
    doc = {**dataset.provenance, TSV_DIGEST: digest}
    _write_json(prov_path, doc, DatasetFormatError)


def load_dataset(outdir, bounds: KiBounds = DEFAULT_BOUNDS,
                 subset: str = "all") -> Dataset:
    """The records of subset ("all", or one split name) of a dataset
    directory that write_dataset wrote, in file order, read and refused
    as _formats._read_dataset reads and refuses.  Each distinct SMILES is
    parsed, and each distinct (receptor id, residues) pair validated, once;
    records that name the same ligand or receptor share one object.
    """
    provenance, _, rows, _ = _read_dataset(outdir, bounds, subset)
    molecules: dict[str, Molecule] = {}
    receptors: dict[tuple[str, str], ProteinSequence] = {}
    records = []
    for _, (key, split_name, rid, residues, smiles, _, _), log_ki in rows:
        receptor = receptors.get((rid, residues))
        if receptor is None:
            receptor = receptors[(rid, residues)] = ProteinSequence(
                id=rid, residues=residues)
        ligand = molecules.get(smiles)
        if ligand is None:
            ligand = molecules[smiles] = from_smiles(smiles)
        records.append(AffinityRecord(receptor=receptor, ligand=ligand,
                                      log_ki=log_ki, pair_key=key,
                                      split=split_name))
    return Dataset(records=tuple(records), provenance=provenance)
