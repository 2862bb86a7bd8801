"""Receptor featurization from primary sequence.

Everything is driven by a versioned 20x14 residue property table shipped as
CSV (see data/residue_properties.csv for the scale choices).  Each table
holds one row per residue code (see _code_rows), and every feature gathers
those rows: receptor_descriptor into a float64 vector laid out as
DESCRIPTOR_LAYOUT, receptor_graph_features into a GraphFeatures record.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import DEFAULT_PROPERTY_TABLE, property_table_bytes
from .errors import DataError
from .fasta import RESIDUE_CODES, ProteinSequence
from .ligand_features import GraphFeatures

__all__ = [
    "PROPERTIES",
    "GRAPH_NODE_PROPERTIES",
    "ResiduePropertyTable",
    "UnknownResidueError",
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

STANDARD_ORDER = RESIDUE_CODES[:20]
_CODE_INDEX = {code: i for i, code in enumerate(RESIDUE_CODES)}


class UnknownResidueError(DataError, KeyError):
    pass


class PropertyTableError(DataError):
    pass


# A table of finite but huge values can overflow the ambiguity rows and the
# descriptor sums.  The overflow stays quiet: its inf or nan reaches
# write_features, which refuses it naming the column.
@np.errstate(over="ignore", invalid="ignore")
def _code_rows(rows: dict[str, tuple[float, ...]]) -> np.ndarray:
    """The 24 x 34 code table: one row per code of RESIDUE_CODES, its 14
    properties then its composition over the 20 standard residues.  The
    ambiguity rule, the same for both blocks: X is the mean of the twenty
    standard rows, B averages D and N, Z averages E and Q, U is C."""
    std = np.hstack([np.array([rows[aa] for aa in STANDARD_ORDER], dtype=np.float64),
                     np.eye(20)])
    row = dict(zip(STANDARD_ORDER, std))
    codes = np.vstack([std, np.mean(std, axis=0), (row["D"] + row["N"]) / 2.0,
                       (row["E"] + row["Q"]) / 2.0, row["C"]])
    codes.flags.writeable = False
    return codes


@dataclass(frozen=True)
class ResiduePropertyTable:
    version: str
    rows: dict[str, tuple[float, ...]]
    # Derived from rows when the table is built, so it is not compared.
    code_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "code_rows", _code_rows(self.rows))


def load_property_table(path) -> ResiduePropertyTable:
    """Load a property table CSV.  '#' lines are comments; a comment of the
    form '# version: NAME' sets the table version.  The table must provide
    exactly the twenty standard residues, once each, and the fourteen
    property columns, with a finite number in every cell; anything else
    raises PropertyTableError naming the file and line."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return _parse_property_table(fh, path)


def _parse_property_table(lines, path) -> ResiduePropertyTable:
    version = "unversioned"
    header: list[str] | None = None
    rows: dict[str, tuple[float, ...]] = {}
    for line_no, raw in enumerate(lines, start=1):
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
    return ResiduePropertyTable(version=version, rows=rows)


@lru_cache(maxsize=1)
def default_table() -> ResiduePropertyTable:
    """The shipped table, config.DEFAULT_PROPERTY_TABLE."""
    text = property_table_bytes(None).decode("utf-8")
    return _parse_property_table(text.splitlines(), DEFAULT_PROPERTY_TABLE)


def _gather(residues: str, table: ResiduePropertyTable) -> np.ndarray:
    """The code-table row of every residue, in sequence order."""
    return table.code_rows[[_CODE_INDEX[code] for code in residues]]


def residue_properties(code: str, table: ResiduePropertyTable | None = None) -> dict[str, float]:
    """Property mapping for a residue code, ambiguity codes included."""
    table = table or default_table()
    if code not in _CODE_INDEX:
        raise UnknownResidueError(code)
    row = table.code_rows[_CODE_INDEX[code]]
    return {name: float(v) for name, v in zip(PROPERTIES, row)}


DESCRIPTOR_LAYOUT: tuple[str, ...] = (
    tuple(f"{p}_{stat}" for p in PROPERTIES for stat in ("mean", "sum", "min", "max"))
    + tuple(f"frac_{aa}" for aa in STANDARD_ORDER)
    + ("length", "disulfide_pairs")
)


@np.errstate(over="ignore", invalid="ignore")
def receptor_descriptor(
    seq: ProteinSequence, table: ResiduePropertyTable | None = None,
) -> np.ndarray:
    """Fixed-length sequence descriptor: a float64 vector laid out as
    DESCRIPTOR_LAYOUT.

    Per property: mean, sum, min, max over residues (14 x 4 = 56), then the
    20 composition fractions, the chain length, and a disulfide proxy
    floor(#C / 2).  78 dimensions total.  Sum/min/max blocks are consistent
    under concatenation: stats of s1+s2 are the elementwise sum / min / max
    of the per-sequence stats.
    """
    residues = seq.residues
    rows = _gather(residues, table or default_table())
    props, counts = np.split(rows, [len(PROPERTIES)], axis=1)
    stats = np.stack([props.mean(axis=0), props.sum(axis=0),
                      props.min(axis=0), props.max(axis=0)], axis=1)
    fractions = counts.sum(axis=0) / len(residues)
    tail = np.array([float(len(residues)), float(residues.count("C") // 2)])
    return np.concatenate([stats.ravel(), fractions, tail])


RECEPTOR_NODE_FEATURE_NAMES: tuple[str, ...] = (
    GRAPH_NODE_PROPERTIES + tuple(f"res_{aa}" for aa in STANDARD_ORDER)
)
# The code-table columns of the node block.
_NODE_COLUMNS = ([PROPERTIES.index(p) for p in GRAPH_NODE_PROPERTIES]
                 + list(range(len(PROPERTIES), len(PROPERTIES) + 20)))


def receptor_graph_features(
    seq: ProteinSequence, table: ResiduePropertyTable | None = None,
) -> GraphFeatures:
    """Residue-chain graph: one node per residue, edges between sequence
    neighbors (the backbone), no edge features since every edge is the same
    peptide bond.  Node rows are 9 physical properties + 20-way one-hot, 29
    columns of each residue's code-table row."""
    residues = seq.residues
    nodes = _gather(residues, table or default_table())[:, _NODE_COLUMNS]
    edge_list = tuple((i, i + 1) for i in range(len(residues) - 1))
    return GraphFeatures(nodes, edge_list, np.zeros((0, 0)),
                         RECEPTOR_NODE_FEATURE_NAMES, ())
