"""
Curating a raw affinity table
=============================

Raw screening exports are messy: junk rows, impossible Ki values, repeated
measurements of the same pair.  This walkthrough ingests a deliberately
dirty table, inspects what was dropped and why, merges duplicates to the
median, splits for training, and round-trips the result through disk.
"""
import pathlib
import tempfile

from bindkit import (
    ingest,
    load_dataset,
    read_raw_tsv,
    split,
    write_dataset,
)

workdir = pathlib.Path(tempfile.mkdtemp(prefix="curation-demo-"))

# --- a dirty export ----------------------------------------------------------
# Three repeats of the same protease/aspirin pair (with one receptor in
# lowercase and one equivalent SMILES spelling), plus one broken row of
# every major kind.

PROTEASE = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"
KINASE = "GSDVVLITGGSGFLGQHIRNL"
rows = [
    (PROTEASE, "CC(=O)Oc1ccccc1C(=O)O", "120"),
    (PROTEASE.lower(), "CC(=O)Oc1ccccc1C(=O)O", "180"),
    (PROTEASE, "OC(=O)c1ccccc1OC(C)=O", "95"),      # same molecule, respelled
    (PROTEASE, "Cc1ccccc1", "10000"),               # 10 micromolar
    (KINASE, "CCO", "310"),
    (KINASE, "c1ccccc1", "7.5"),
    (KINASE, "Oc1ccccc1", "2300"),
    (KINASE, "c1ccncc1", "55"),
    (PROTEASE, "CCc1ccccc1", "450"),
    (PROTEASE, "Nc1ccccc1", "880"),
    ("MKJQX", "CCO", "10"),                          # bad receptor alphabet
    (PROTEASE, "C1CC", "10"),                        # unclosed ring
    (PROTEASE, "CCN", "0"),                          # nonpositive Ki
    (PROTEASE, "CCCN", "1e12"),                      # outside sane bounds
    (PROTEASE, "CCCC", "abc"),                       # unparseable number
]
raw_path = workdir / "raw.tsv"
lines = ["receptor_fasta\tligand_smiles\tki_nm"]
lines += ["\t".join(r) for r in rows]
lines += ["only_two\tcells"]                         # structurally broken
raw_path.write_text("\n".join(lines) + "\n")

# --- ingest and inspect ---------------------------------------------------------

records, reader_drops, digest = read_raw_tsv(raw_path)
dataset = ingest(records, source_digest=digest, initial_drops=reader_drops)
prov = dataset.provenance
print(f"raw lines {len(rows) + 1}, rows reaching curation "
      f"{prov['n_input_rows']}, surviving records {prov['n_records']}")
print("drop tally:")
for reason, count in prov["drops"].items():
    if count:
        print(f"  {reason:22s} {count}")
print(f"duplicates merged: {prov['duplicates_merged']}")

# --- the merge kept the median ---------------------------------------------------
# Three aspirin measurements (120, 180, 95 nM) collapse to one record at
# the median, 120 nM, keyed identically regardless of SMILES spelling or
# receptor case.

import math
aspirin = [r for r in dataset.records if "c1ccccc1C" in r.ligand.source
           or "c1ccccc1OC" in r.ligand.source]
print(f"\naspirin repeats collapsed to {len(aspirin)} record, "
      f"log10 Ki = {aspirin[0].log_ki:.4f} "
      f"(median of 120/180/95 is {math.log10(120):.4f})")
toluene = [r for r in dataset.records if r.ligand.source == "Cc1ccccc1"][0]
print(f"10 micromolar toluene row converts to log10 Ki = {toluene.log_ki} exactly")

# --- splitting --------------------------------------------------------------------

assigned = split(dataset, seed=7)
print(f"\nsplit sizes: {assigned.provenance['split_sizes']}")
for rec in assigned.records:
    print(f"  {rec.split:5s} {rec.receptor.id[:12]:12s} "
          f"{rec.ligand.source:24s} log Ki {rec.log_ki:7.3f}")

# --- byte-stable on disk --------------------------------------------------------------

outdir = workdir / "curated"
write_dataset(assigned, outdir)
reloaded = load_dataset(outdir)
same = [a.pair_key == b.pair_key and a.log_ki == b.log_ki and a.split == b.split
        for a, b in zip(assigned.records, reloaded.records)]
print(f"\nwrote {outdir}/dataset.tsv, reload preserves "
      f"every record exactly: {all(same)}")
