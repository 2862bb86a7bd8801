"""Receptor featurization from primary sequence.

Everything is driven by a versioned 20x14 residue property table shipped as
CSV (see data/residue_properties.csv for the scale choices).  Ambiguity
codes map onto table rows: X is the column mean over the twenty standard
residues, B averages D and N, Z averages E and Q, U borrows the C row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DataError
from .fasta import ProteinSequence

__all__ = [
    "PROPERTIES",
    "GRAPH_NODE_PROPERTIES",
    "ResiduePropertyTable",
    "ReceptorDescriptor",
    "ReceptorGraphFeatures",
    "UnknownResidueError",
    "EmptySequenceError",
    "PropertyTableError",
    "load_property_table",
    "default_table",
    "residue_properties",
    "receptor_descriptor",
    "receptor_graph_features",
]

PROPERTIES = (
    "charge", "vdw_volume", "sasa", "buried_area", "flexibility", "folding",
    "hydrophobicity", "isoelectric_point", "polarity", "refractivity",
    "aliphatic", "hbond_donors", "hbond_acceptors", "mol_weight",
)

# Node block of the residue-graph featurization: the per-residue physical
# properties, followed by the 20-way residue one-hot.
GRAPH_NODE_PROPERTIES = (
    "charge", "flexibility", "hbond_donors", "hbond_acceptors",
    "hydrophobicity", "sasa", "mol_weight", "polarity", "vdw_volume",
)

STANDARD_ORDER = "ARNDCQEGHILKMFPSTWYV"


class UnknownResidueError(DataError, KeyError):
    pass


class EmptySequenceError(DataError):
    pass


class PropertyTableError(DataError):
    pass


@dataclass(frozen=True)
class ResiduePropertyTable:
    version: str
    properties: tuple[str, ...]
    rows: dict[str, tuple[float, ...]]


def load_property_table(path) -> ResiduePropertyTable:
    """Load a property table CSV.  '#' lines are comments; a comment of the
    form '# version: NAME' sets the table version.  The table must provide
    exactly the twenty standard residues, once each, and the fourteen
    property columns, with a finite number in every cell; anything else
    raises PropertyTableError naming the file and line."""
    version = "unversioned"
    header: list[str] | None = None
    rows: dict[str, tuple[float, ...]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.lower().startswith("version:"):
                    version = body.split(":", 1)[1].strip()
                continue
            where = f"{path}: line {line_no}"
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                header = cells
                if header != ["code", *PROPERTIES]:
                    raise PropertyTableError(
                        f"{where}: the header row must be 'code' and the "
                        f"property columns {PROPERTIES}, got {tuple(header)}")
                continue
            if len(cells) != len(header):
                raise PropertyTableError(
                    f"{where}: {len(cells)} cells, the header has {len(header)}")
            if cells[0] in rows:
                raise PropertyTableError(f"{where}: duplicate code {cells[0]!r}")
            try:
                values = tuple(float(c) for c in cells[1:])
            except ValueError as exc:
                raise PropertyTableError(f"{where}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise PropertyTableError(f"{where}: values must be finite")
            rows[cells[0]] = values
    if header is None:
        raise PropertyTableError(
            f"{path}: property table needs a 'code,...' header row")
    missing = set(STANDARD_ORDER) - set(rows)
    extra = set(rows) - set(STANDARD_ORDER)
    if missing or extra:
        raise PropertyTableError(
            f"{path}: table must cover exactly the 20 standard residues "
            f"(missing {sorted(missing)}, extra {sorted(extra)})")
    return ResiduePropertyTable(version=version, properties=PROPERTIES,
                                rows=rows)


@lru_cache(maxsize=1)
def default_table() -> ResiduePropertyTable:
    ref = resources.files("bindkit").joinpath("data/residue_properties.csv")
    with resources.as_file(ref) as path:
        return load_property_table(path)


def _property_vector(code: str, table: ResiduePropertyTable) -> np.ndarray:
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


def residue_properties(code: str, table: ResiduePropertyTable | None = None) -> dict[str, float]:
    """Property mapping for a residue code, ambiguity codes included."""
    table = table or default_table()
    vec = _property_vector(code, table)
    return {name: float(v) for name, v in zip(table.properties, vec)}


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


def _per_residue(residues: str, row) -> np.ndarray:
    """The stacked rows row(code) of every residue, each distinct code's row
    computed once and then gathered.  Codes are tried in order of first
    appearance, so the first bad code in sequence order raises."""
    rows = {code: row(code) for code in dict.fromkeys(residues)}
    points = np.frombuffer(residues.encode("utf-32-le"), dtype="<u4")
    codes, inverse = np.unique(points, return_inverse=True)
    return np.stack([rows[chr(c)] for c in codes.tolist()])[inverse]


DESCRIPTOR_LAYOUT: tuple[str, ...] = (
    tuple(f"{p}_{stat}" for p in PROPERTIES for stat in ("mean", "sum", "min", "max"))
    + tuple(f"frac_{aa}" for aa in STANDARD_ORDER)
    + ("length", "disulfide_pairs")
)


@dataclass(frozen=True, eq=False)
class ReceptorDescriptor:
    vector: np.ndarray                  # float64, len(DESCRIPTOR_LAYOUT)
    layout: tuple[str, ...] = DESCRIPTOR_LAYOUT


def _coerce(seq: ProteinSequence | str) -> str:
    residues = seq.residues if isinstance(seq, ProteinSequence) else seq
    if not residues:
        raise EmptySequenceError("cannot featurize an empty sequence")
    return residues


def receptor_descriptor(
    seq: ProteinSequence | str, table: ResiduePropertyTable | None = None,
) -> ReceptorDescriptor:
    """Fixed-length sequence descriptor.

    Per property: mean, sum, min, max over residues (14 x 4 = 56), then the
    20 composition fractions, the chain length, and a disulfide proxy
    floor(#C / 2).  78 dimensions total.  Sum/min/max blocks are consistent
    under concatenation: stats of s1+s2 are the elementwise sum / min / max
    of the per-sequence stats.
    """
    residues = _coerce(seq)
    table = table or default_table()
    per_res = _per_residue(residues, lambda code: _property_vector(code, table))
    stats = np.empty((len(PROPERTIES), 4), dtype=np.float64)
    stats[:, 0] = per_res.mean(axis=0)
    stats[:, 1] = per_res.sum(axis=0)
    stats[:, 2] = per_res.min(axis=0)
    stats[:, 3] = per_res.max(axis=0)
    counts = _per_residue(residues, _composition_counts).sum(axis=0)
    fractions = counts / len(residues)
    tail = np.array([float(len(residues)), float(residues.count("C") // 2)])
    vector = np.concatenate([stats.ravel(), fractions, tail])
    return ReceptorDescriptor(vector=vector)


RECEPTOR_NODE_FEATURE_NAMES: tuple[str, ...] = (
    GRAPH_NODE_PROPERTIES + tuple(f"res_{aa}" for aa in STANDARD_ORDER)
)


@dataclass(frozen=True, eq=False)
class ReceptorGraphFeatures:
    node_features: np.ndarray           # (length, 29) float64
    edge_list: tuple[tuple[int, int], ...]
    node_feature_names: tuple[str, ...] = RECEPTOR_NODE_FEATURE_NAMES

    @property
    def edge_features(self) -> np.ndarray:
        """Every backbone edge is the same peptide bond: an empty block."""
        return np.zeros((0, 0), dtype=np.float64)

    @property
    def feature_names(self) -> dict[str, tuple[str, ...]]:
        return {"node": self.node_feature_names, "edge": ()}


def receptor_graph_features(
    seq: ProteinSequence | str, table: ResiduePropertyTable | None = None,
) -> ReceptorGraphFeatures:
    """Residue-chain graph: one node per residue, edges between sequence
    neighbors (the backbone), no edge features since every edge is the same
    peptide bond.  Node rows are 9 physical properties + 20-way one-hot
    (ambiguity codes use the same fractional conventions as composition)."""
    residues = _coerce(seq)
    table = table or default_table()
    prop_idx = [PROPERTIES.index(p) for p in GRAPH_NODE_PROPERTIES]
    nodes = _per_residue(residues, lambda code: np.concatenate(
        [_property_vector(code, table)[prop_idx], _composition_counts(code)]))
    edge_list = tuple((i, i + 1) for i in range(len(residues) - 1))
    return ReceptorGraphFeatures(node_features=nodes, edge_list=edge_list)
