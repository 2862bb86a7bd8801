"""Seeded, download-free input generator for the bindkit benchmark.

Ligands are built by joining SMILES fragments: a head cap, three to six
linkers and a tail cap.  Each fragment carries a weight drawn from the seed,
and a pair's planted log10 Ki is

    base + sum(fragment weights) + receptor offset + N(0, NOISE_SD)

so a model that learns the fragments and receptors can reach the noise floor
(an MAE of about 0.8 * NOISE_SD) while the mean predictor cannot.  Rows that
curation must drop are planted with a known count per drop reason, and each
planted row fails exactly one check, so `provenance.json` must report those
counts exactly.

The generator writes only the files the `bindkit` command reads: a raw TSV,
and for `@file:` receptors a FASTA file.  It never imports bindkit.
"""
from __future__ import annotations

import math
import os

import numpy as np

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
HEADER = "receptor_fasta\tligand_smiles\tki_nm\n"
BASE_LOG_KI = 5.0
NOISE_SD = 0.25

# A linker is written so that the next fragment bonds to its last open atom.
LINKERS = (
    "c1ccc(cc1)", "c1ccc(nc1)", "C(=O)N", "NC(=O)", "CC", "CCC", "O", "N",
    "S(=O)(=O)", "C1CCC(CC1)", "N1CCN(CC1)", "C(F)(F)", "C(C)", "C(Cl)",
    "C=C", "C#C", "c1ccc(s1)", "C(=O)", "OC", "C1CC(C1)", "C(O)", "c1cnc(nc1)",
)
# A head cap bonds through its last atom, a tail cap through its first.
HEADS = (
    "C", "F", "Cl", "Br", "O", "N", "c1ccccc1", "C(=O)O", "N#C", "CO",
    "c1ccncc1", "FC(F)(F)", "CN(C)", "C1CC1", "c1ccoc1", "NS(=O)(=O)",
)
TAILS = (
    "C", "F", "Cl", "Br", "O", "N", "c1ccccc1", "C(=O)O", "C#N", "OC",
    "c1ccncc1", "C(F)(F)F", "N(C)C", "C1CC1", "c1ccoc1", "S(=O)(=O)N",
)

# Each corruption breaks a different parser or valence rule.
_CORRUPTIONS = (
    lambda s: s + "(",            # unbalanced parenthesis
    lambda s: s + "C9",           # unclosed ring
    lambda s: s + "Xq",           # unknown symbol
    lambda s: "C(C)(C)(C)(C)" + s,  # five bonds on carbon
    lambda s: s + ")",            # stray close parenthesis
)

DROP_REASONS = ("bad_row", "bad_number", "bad_receptor", "unknown_receptor_ref",
                "bad_smiles", "nonpositive_ki", "ki_out_of_bounds")


class Fragments:
    """Fragment weights and a ligand factory, both drawn from one stream."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.linker_w = rng.normal(0.0, 0.3, len(LINKERS))
        self.head_w = rng.normal(0.0, 0.3, len(HEADS))
        self.tail_w = rng.normal(0.0, 0.3, len(TAILS))

    def ligand(self) -> tuple[str, float]:
        rng = self.rng
        head = int(rng.integers(len(HEADS)))
        tail = int(rng.integers(len(TAILS)))
        links = rng.integers(len(LINKERS), size=int(rng.integers(3, 7)))
        smiles = HEADS[head] + "".join(LINKERS[i] for i in links) + TAILS[tail]
        weight = (self.head_w[head] + self.tail_w[tail]
                  + float(self.linker_w[links].sum()))
        return smiles, float(weight)

    def unique_ligands(self, n: int, exclude=()) -> list[tuple[str, float]]:
        seen = set(exclude)
        out = []
        while len(out) < n:
            smiles, w = self.ligand()
            if smiles not in seen:
                seen.add(smiles)
                out.append((smiles, w))
        return out


def random_receptors(rng: np.random.Generator, n: int, lo=200, hi=500):
    """n random sequences over the 20 standard residues, with offsets."""
    seqs = ["".join(RESIDUES[i] for i in rng.integers(20, size=int(rng.integers(lo, hi + 1))))
            for _ in range(n)]
    offsets = rng.normal(0.0, 1.0, n)
    return seqs, [float(o) for o in offsets]


def ki_nm(rng: np.random.Generator, signal: float) -> float:
    """Ki in nM for a planted log10 value plus noise, clipped into bounds."""
    log_ki = min(9.0, max(-1.0, BASE_LOG_KI + signal + rng.normal(0.0, NOISE_SD)))
    return 10.0 ** log_ki


class Table:
    """Raw TSV rows plus the tally of what was planted in them."""

    def __init__(self):
        self.lines: list[str] = []
        self.planted = {reason: 0 for reason in DROP_REASONS}
        self.valid_rows = 0
        self.duplicate_rows = 0

    def add_valid(self, receptor: str, smiles: str, ki: float) -> None:
        self.lines.append(f"{receptor}\t{smiles}\t{ki!r}\n")
        self.valid_rows += 1

    def plant(self, reason: str, line: str) -> None:
        self.lines.append(line)
        self.planted[reason] += 1

    def write(self, path, rng: np.random.Generator) -> None:
        """Write the rows in a seeded random order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(HEADER)
            fh.writelines(self.lines[i] for i in rng.permutation(len(self.lines)))

    def summary(self) -> dict:
        return {"rows": len(self.lines), "valid_rows": self.valid_rows,
                "duplicate_rows": self.duplicate_rows,
                "planted_drops": dict(self.planted)}


def _plant_drops(table: Table, rng, receptors, ligands, per_reason: int,
                 bad_smiles: int) -> None:
    """Rows that fail exactly one curation check each.

    Ki checks run before receptor and SMILES checks, so the Ki-invalid rows
    carry a valid receptor and SMILES; receptor-invalid rows carry a valid
    Ki and SMILES; SMILES-invalid rows carry a valid Ki and receptor.
    """
    def pick():
        r = receptors[int(rng.integers(len(receptors)))]
        s = ligands[int(rng.integers(len(ligands)))][0]
        return r, s

    for k in range(per_reason):
        r, s = pick()
        table.plant("bad_row", f"{r}\t{s}\n" if k % 2 else f"\t{s}\t100.0\n")
        r, s = pick()
        table.plant("bad_number", f"{r}\t{s}\t{'nan' if k % 2 else 'n/a'}\n")
        r, s = pick()
        table.plant("nonpositive_ki", f"{r}\t{s}\t{'0' if k % 2 else '-5.5'}\n")
        r, s = pick()
        table.plant("ki_out_of_bounds", f"{r}\t{s}\t{'1e12' if k % 2 else '1e-05'}\n")
        _, s = pick()
        table.plant("bad_receptor", f"MKTJ{'B' * k}OUTZ1\t{s}\t250.0\n")
        _, s = pick()
        table.plant("unknown_receptor_ref", f"@file:missing_{k}\t{s}\t250.0\n")
    for k in range(bad_smiles):
        r, s = pick()
        bad = _CORRUPTIONS[k % len(_CORRUPTIONS)](s)
        table.plant("bad_smiles", f"{r}\t{bad}\t{10.0 ** rng.uniform(1, 6)!r}\n")


def _random_pairs(rng, n: int, n_receptors: int, n_ligands: int) -> list:
    """n distinct (receptor, ligand) index pairs, sorted."""
    pairs = set()
    while len(pairs) < n:
        pairs.add((int(rng.integers(n_receptors)), int(rng.integers(n_ligands))))
    return sorted(pairs)


def write_fasta(path, ids, seqs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rid, seq in zip(ids, seqs):
            fh.write(f">{rid}\n")
            for i in range(0, len(seq), 60):
                fh.write(seq[i:i + 60] + "\n")


def curate_inputs(seed: int, outdir, n_rows=1600, n_receptors=50,
                  n_ligands=720, bad_smiles_share=0.27, per_reason=4,
                  duplicate_share=0.03) -> dict:
    """Dirty raw TSV over inline receptors and mostly unique ligands."""
    rng = np.random.default_rng([seed, 1])
    frags = Fragments(rng)
    seqs, offsets = random_receptors(rng, n_receptors)
    ligands = frags.unique_ligands(n_ligands)
    table = Table()
    n_bad = int(round(bad_smiles_share * n_rows))
    n_dup = int(round(duplicate_share * n_rows))
    pairs = _random_pairs(rng, n_rows - n_bad - n_dup - 6 * per_reason,
                          n_receptors, n_ligands)
    for r, l in pairs:
        smiles, w = ligands[l]
        table.add_valid(seqs[r], smiles, ki_nm(rng, w + offsets[r]))
    for i in rng.choice(len(pairs), size=n_dup, replace=False):
        r, l = pairs[int(i)]
        smiles, w = ligands[l]
        table.add_valid(seqs[r], smiles, ki_nm(rng, w + offsets[r]))
        table.duplicate_rows += 1
    _plant_drops(table, rng, seqs, ligands, per_reason, n_bad)
    table.write(os.path.join(outdir, "raw.tsv"), rng)
    return table.summary()


def train_inputs(seed: int, outdir, n_rows=1600, n_receptors=30,
                 n_ligands=800) -> dict:
    """Clean raw TSV for a model-fitting set: every row curates."""
    rng = np.random.default_rng([seed, 2])
    frags = Fragments(rng)
    seqs, offsets = random_receptors(rng, n_receptors)
    ligands = frags.unique_ligands(n_ligands)
    table = Table()
    for r, l in _random_pairs(rng, n_rows, n_receptors, n_ligands):
        smiles, w = ligands[l]
        table.add_valid(seqs[r], smiles, ki_nm(rng, w + offsets[r]))
    table.write(os.path.join(outdir, "raw.tsv"), rng)
    return table.summary()


def screen_inputs(seed: int, outdir, n_ligands=160, n_receptors=25,
                  n_fit_ligands=300, fit_pairs_per_ligand=3, per_reason=2) -> dict:
    """A planted fitting set and a ligand x receptor screening library.

    Both reference the same receptors through `@file:ID` cells into one
    FASTA file and draw ligands from the same fragment weights, so a model
    fitted on the first set scores the second.
    """
    rng = np.random.default_rng([seed, 3])
    frags = Fragments(rng)
    seqs, offsets = random_receptors(rng, n_receptors)
    ids = [f"rec{k:03d}" for k in range(n_receptors)]
    cells = [f"@file:{rid}" for rid in ids]
    library = frags.unique_ligands(n_ligands)
    fit_ligands = frags.unique_ligands(n_fit_ligands, exclude=[s for s, _ in library])

    fit = Table()
    for smiles, w in fit_ligands:
        for r in rng.choice(n_receptors, size=fit_pairs_per_ligand, replace=False):
            fit.add_valid(cells[int(r)], smiles, ki_nm(rng, w + offsets[int(r)]))

    screen = Table()
    for smiles, w in library:
        for cell, off in zip(cells, offsets):
            screen.add_valid(cell, smiles, ki_nm(rng, w + off))
    for k in range(per_reason):
        s = library[int(rng.integers(n_ligands))][0]
        screen.plant("unknown_receptor_ref", f"@file:missing_{k}\t{s}\t250.0\n")

    fit.write(os.path.join(outdir, "fit.tsv"), rng)
    screen.write(os.path.join(outdir, "screen.tsv"), rng)
    write_fasta(os.path.join(outdir, "receptors.fasta"), ids, seqs)
    return {"fit": fit.summary(), "screen": screen.summary()}


def noise_floor_mae() -> float:
    """Expected MAE of a model that predicts the planted signal exactly."""
    return NOISE_SD * math.sqrt(2.0 / math.pi)
