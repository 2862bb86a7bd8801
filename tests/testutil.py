"""Test-only helpers.

FULL_TOML is a config that sets every key to a value other than its
default; each value is also valid on its own.

dense_matrix expands a feature matrix to the plain float64 matrix that the
numpy references in the tests read; csr_rows splits a bit CSR into its rows,
on_bits reads one molecule's row of ecfp and fingerprint_bits expands it to
0/1, and binned_columns splits a binned_mae result into its edges, counts
and MAEs.

Two independent oracles against the parser:

* count_tokens scans raw SMILES with a regex (no graph construction) and
  predicts atom/bond/component counts from token arithmetic alone: a valid
  SMILES has bonds = atoms - components + ring_closure_pairs.
* reserialize walks a parsed molecule and emits a fully bracketed SMILES
  under an arbitrary atom permutation, preserving element, charge, isotope,
  aromaticity and total hydrogen count.  Reparsing the output must give a
  graph equivalent under every featurization.
"""
from __future__ import annotations

import re
import sys

import numpy as np

from bindkit.ligand_features import ecfp
from bindkit.model import Features
from bindkit.smiles import (
    BOND_AROMATIC,
    BOND_DOUBLE,
    BOND_SINGLE,
    BOND_TRIPLE,
    Molecule,
    NUMBER_TO_SYMBOL,
)

FULL_TOML = """
# screening pipeline settings
seed = 7

[split]
ratios = [0.7, 0.2, 0.1]

[curation]
ki_min_nm = 0.01
ki_max_nm = 1e9

[fingerprint]
radius = 3
nbits = 1024

[gbdt]
n_trees = 50
max_depth = 4
learning_rate = 0.1
min_samples_leaf = 5
n_histogram_bins = 64
subsample = 0.8
early_stopping_rounds = 10

[evaluation]
bin_start = 0.0
bin_stop = 10.0
bin_width = 1.0
threshold = 5.0

[paths]
property_table = "custom.csv"
fasta = "receptors.fasta"

[featurize]
workers = 2
"""

def csr_rows(offsets, indices) -> list[tuple[int, ...]]:
    """The set bits of each row of a bit CSR, (offsets, indices) as
    ligand_features.ecfp returns it and model.Features holds it."""
    offsets, indices = np.asarray(offsets).tolist(), np.asarray(indices).tolist()
    return [tuple(indices[a:b]) for a, b in zip(offsets, offsets[1:])]


def dense_matrix(X: Features) -> np.ndarray:
    """The (n, n_dense + nbits) float64 matrix of X: for each row, the
    dense columns of its dense row, then each bit column of its bit row as
    0.0 or 1.0."""
    dense = np.frombuffer(X.dense, dtype=np.float64).reshape(X.dense_rows, X.n_dense)
    bits = np.zeros((X.bit_rows, X.nbits))
    for row, on in enumerate(csr_rows(X.offsets, X.indices)):
        bits[row, list(on)] = 1.0
    index = np.asarray(X.index).reshape(len(X), 2)
    return np.hstack([dense[index[:, 0]], bits[index[:, 1]]])


def on_bits(mol, radius=2, nbits=2048) -> tuple[int, ...]:
    """The indices of the set bits of mol's fingerprint, ascending: its row
    of ecfp."""
    return csr_rows(*ecfp([mol], radius, nbits))[0]


def fingerprint_bits(mol, radius=2, nbits=2048) -> np.ndarray:
    """mol's fingerprint as nbits 0/1 uint8 values."""
    bits = np.zeros(nbits, dtype=np.uint8)
    bits[list(on_bits(mol, radius, nbits))] = 1
    return bits


def binned_columns(binned):
    """(edges, counts, maes, out-of-range count, out-of-range MAE) of a
    metrics.binned_mae result, with one edge more than there are bins."""
    bins, out = binned
    assert all(b["hi"] == c["lo"] for b, c in zip(bins, bins[1:]))
    return ((*(b["lo"] for b in bins), bins[-1]["hi"]),
            tuple(b["count"] for b in bins), tuple(b["mae"] for b in bins),
            out["count"], out["mae"])


_TOKEN = re.compile(
    r"(?P<bracket>\[[^\]]*\])"
    r"|(?P<organic>Cl|Br|[BCNOPSFI]|[bcnops])"
    r"|(?P<ring>%\d\d|\d)"
    r"|(?P<dot>\.)"
    r"|(?P<other>.)"
)


def count_tokens(text: str) -> dict:
    """Token-level census of a SMILES string (assumed syntactically valid)."""
    atoms = 0
    dots = 0
    closures = 0
    for m in _TOKEN.finditer(text.strip()):
        if m.group("bracket") or m.group("organic"):
            atoms += 1
        elif m.group("ring"):
            closures += 1
        elif m.group("dot"):
            dots += 1
    if closures % 2:
        raise ValueError("odd number of ring-closure tokens")
    components = dots + 1
    return {
        "atoms": atoms,
        "components": components,
        "bonds": atoms - components + closures // 2,
    }


_BOND_CHAR = {BOND_SINGLE: "-", BOND_DOUBLE: "=", BOND_TRIPLE: "#",
              BOND_AROMATIC: ":"}


def _atom_token(mol: Molecule, idx: int) -> str:
    atom = mol.atoms[idx]
    sym = NUMBER_TO_SYMBOL[atom.element]
    if atom.aromatic:
        sym = sym.lower()
    parts = ["["]
    if atom.isotope is not None:
        parts.append(str(atom.isotope))
    parts.append(sym)
    h = atom.total_h
    if h == 1:
        parts.append("H")
    elif h > 1:
        parts.append(f"H{h}")
    q = atom.formal_charge
    if q == 1:
        parts.append("+")
    elif q == -1:
        parts.append("-")
    elif q > 1:
        parts.append(f"+{q}")
    elif q < -1:
        parts.append(f"-{-q}")
    parts.append("]")
    return "".join(parts)


def reserialize(mol: Molecule, order: list[int] | None = None) -> str:
    """Emit SMILES visiting atoms in the given priority order (default:
    original order).  Every atom is bracketed with its total hydrogen count
    and every bond carries an explicit symbol, so the output is dialect-safe
    and the reparsed graph matches atom for atom.

    Two passes: the first DFS fixes the spanning tree and assigns a ring
    closure digit to every back edge (digits land on both endpoints), the
    second emits tokens.
    """
    n = len(mol.atoms)
    priority = list(range(n)) if order is None else list(order)
    rank = {a: i for i, a in enumerate(priority)}
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for b in mol.bonds:
        adj[b.a].append((b.b, b.order))
        adj[b.b].append((b.a, b.order))
    for i in adj:
        adj[i].sort(key=lambda t: rank[t[0]])

    visited = [False] * n
    children: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    closure_tokens: dict[int, list[str]] = {i: [] for i in range(n)}
    seen_back: set[tuple[int, int]] = set()
    next_digit = [1]
    roots: list[int] = []

    def digit_token(d: int) -> str:
        return str(d) if d < 10 else f"%{d:02d}"

    def collect(u: int, parent: int) -> None:
        visited[u] = True
        for v, bond_order in adj[u]:
            if v == parent:
                continue
            if not visited[v]:
                children[u].append((v, bond_order))
                collect(v, u)
            else:
                key = (u, v) if u < v else (v, u)
                if key in seen_back:
                    continue
                seen_back.add(key)
                d = next_digit[0]
                next_digit[0] += 1
                token = _BOND_CHAR[bond_order] + digit_token(d)
                closure_tokens[u].append(token)
                closure_tokens[v].append(token)

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * n + 100))
    try:
        for r in priority:
            if not visited[r]:
                roots.append(r)
                collect(r, -1)

        pieces: list[str] = []

        def emit(u: int) -> None:
            pieces.append(_atom_token(mol, u))
            pieces.extend(closure_tokens[u])
            kids = children[u]
            for v, bond_order in kids[:-1]:
                pieces.append("(")
                pieces.append(_BOND_CHAR[bond_order])
                emit(v)
                pieces.append(")")
            if kids:
                v, bond_order = kids[-1]
                pieces.append(_BOND_CHAR[bond_order])
                emit(v)

        for i, r in enumerate(roots):
            if i:
                pieces.append(".")
            emit(r)
    finally:
        sys.setrecursionlimit(old_limit)
    return "".join(pieces)
