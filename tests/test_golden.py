"""Pinned values of the pair key and the circular fingerprint.

The values were recorded from the implementation before its refinement
rounds were merged into one kernel; any change to hashing, refinement or
key assembly shows up here as a changed hex digest or bit set.
"""
import csv
import pathlib

import pytest

from bindkit.dataset import pair_key
from bindkit.fasta import ProteinSequence
from bindkit.ligand_features import ecfp
from bindkit.smiles import from_smiles

CORPUS = pathlib.Path(__file__).parent / "fixtures" / "corpus.tsv"
RECEPTOR = ProteinSequence(id="recA", residues="MKTWQENLGSHMAAALDEFKR")

# name in corpus.tsv -> (pair_key with RECEPTOR, ECFP radius 2 / 2048 on-bits)
GOLDEN = {
    "acetic-acid": (
        "22e8703b43fffdb89289a0ddcb02cbf1720f431334e2d1a11bc9261ec7d42dc3",
        (496, 593, 604, 1030, 1181, 1200, 1822, 1932)),
    "pyridine": (
        "2fefd33ef91ebb550d8dc8f41a363bfd583aec27a25bc466fa02d903a781a033",
        (120, 302, 310, 398, 967, 1109, 1296, 1520, 1955)),
    "paracetamol": (
        "48b717f186f75a2ad5cdd0091af5b51473b72e2c61910ed168caa601385b61a9",
        (33, 127, 363, 479, 496, 512, 593, 604, 666, 1082, 1093, 1181, 1200,
         1244, 1276, 1296, 1424, 1491, 1664, 1822, 1994)),
    "nicotine": (
        "67402526d4cdf14bec4cc32bdbc26a84e7e0d288c48b113c93e117be758f36de",
        (100, 118, 258, 302, 310, 392, 400, 512, 593, 635, 666, 710, 717, 752,
         967, 1032, 1040, 1186, 1247, 1269, 1277, 1296, 1520, 1583, 1664, 1738,
         1862, 1888, 1955)),
    "caffeine": (
        "b16acdbaa9767f1d3b309021c4079723e6532c0bfc55f8cc57b5ffef65f19067",
        (92, 140, 399, 512, 593, 603, 604, 631, 801, 828, 1080, 1133, 1205,
         1296, 1358, 1502, 1520, 1544, 1678, 1689, 1705, 1720, 1753, 1777, 1862)),
    "acetate-methylammonium": (
        "95ea69b086103de2856b0b0ce6ca9b2b8bc678bab0642375fdacc6a933a40927",
        (120, 385, 496, 593, 604, 1049, 1200, 1822, 1857, 1859)),
}


def corpus_smiles():
    with open(CORPUS, encoding="utf-8", newline="") as fh:
        return {row["name"]: row["smiles"]
                for row in csv.DictReader(fh, delimiter="\t")}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pinned_pair_key_and_fingerprint(name):
    mol = from_smiles(corpus_smiles()[name])
    key, on_bits = GOLDEN[name]
    assert pair_key(RECEPTOR, mol) == key
    assert ecfp(mol, radius=2, nbits=2048).on_bits() == on_bits
