"""Minimal FASTA reading and writing for protein sequences."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError

__all__ = [
    "ProteinSequence",
    "FastaError",
    "NoHeaderError",
    "EmptyRecordError",
    "IllegalResidueError",
    "SequenceTooLongError",
    "MAX_RESIDUES",
    "RESIDUE_CODES",
    "RESIDUE_ALPHABET",
    "parse_fasta",
    "format_fasta",
]

# The residue codes in property-table order: the 20 standard residues, then
# the ambiguity codes X, B, Z and selenocysteine U.
RESIDUE_CODES = "ARNDCQEGHILKMFPSTWYVXBZU"
RESIDUE_ALPHABET = frozenset(RESIDUE_CODES)

# The longest known protein, titin, has about 35,000 residues; featurizing
# and exporting a receptor costs memory in proportion to its length, so a
# longer sequence is refused before any residue is read.
MAX_RESIDUES = 40_000

# Residues are upper-cased by str.translate(_ASCII_UPPER), a-z only:
# str.upper maps ß to SS, which the alphabet would pass.
_ASCII_UPPER = {c: c - 32 for c in range(ord("a"), ord("z") + 1)}


class FastaError(DataError):
    pass


class NoHeaderError(FastaError):
    pass


class EmptyRecordError(FastaError):
    pass


class SequenceTooLongError(FastaError):
    pass


class IllegalResidueError(FastaError):
    """Carries the record id and the 1-based residue position."""

    def __init__(self, record_id: str, position: int, residue: str):
        super().__init__(
            f"illegal residue {residue!r} at position {position} in {record_id!r}")
        self.record_id = record_id
        self.position = position
        self.residue = residue


@dataclass(frozen=True)
class ProteinSequence:
    id: str
    residues: str

    def __post_init__(self):
        if not self.id:
            raise EmptyRecordError("sequence id must be non-empty")
        if not self.residues:
            raise EmptyRecordError(f"record {self.id!r} has no residues")
        if len(self.residues) > MAX_RESIDUES:
            raise SequenceTooLongError(
                f"record {self.id!r} has {len(self.residues)} residues, "
                f"more than {MAX_RESIDUES}")
        for pos, ch in enumerate(self.residues, start=1):
            if ch not in RESIDUE_ALPHABET:
                raise IllegalResidueError(self.id, pos, ch)


def _finish_record(record_id: str, chunks: list[str]) -> ProteinSequence:
    residues = "".join(chunks).translate(_ASCII_UPPER).removesuffix("*")
    if not residues:
        raise EmptyRecordError(f"record {record_id!r} has no residues")
    return ProteinSequence(id=record_id, residues=residues)


def parse_fasta(text: str) -> list[ProteinSequence]:
    """Parse a FASTA document into ProteinSequence records.

    A line ends at a line feed, a carriage return or the two together, and
    ASCII spaces and tabs around a line are ignored.  Headers are '>'
    lines; the id is the token up to the first whitespace.  Sequence lines
    are concatenated and their ASCII letters upper-cased.
    A single terminal '*' is stripped.
    Residues outside the 24-letter alphabet raise IllegalResidueError with a
    1-based position; a record with no residues raises EmptyRecordError, and
    one of more than MAX_RESIDUES raises SequenceTooLongError; data
    before the first header raises NoHeaderError.  A blank document yields
    an empty list.
    """
    record_id: str | None = None
    chunks: list[str] = []
    records: list[ProteinSequence] = []
    # Not str.splitlines or str.strip: they also break or trim at \x0b,
    # \x0c, \x1c-\x1e, \x85, \u2028 and \u2029, dropping a stray one
    # without an error.
    for raw_line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        line = raw_line.strip(" \t")
        if not line:
            continue
        if line.startswith(">"):
            if record_id is not None:
                records.append(_finish_record(record_id, chunks))
            record_id = line[1:].split(None, 1)[0] if line[1:].strip() else ""
            if not record_id:
                raise EmptyRecordError("header with empty id")
            chunks = []
        else:
            if record_id is None:
                raise NoHeaderError("sequence data before any '>' header")
            chunks.append(line)
    if record_id is None:
        # blank documents are empty, not malformed
        return records
    records.append(_finish_record(record_id, chunks))
    return records


def format_fasta(records: list[ProteinSequence], width: int = 60) -> str:
    """Serialize records back to FASTA text (round-trips with parse_fasta)."""
    if width < 1:
        raise ValueError("width must be at least 1")
    lines: list[str] = []
    for rec in records:
        lines.append(f">{rec.id}")
        for start in range(0, len(rec.residues), width):
            lines.append(rec.residues[start:start + width])
    return "\n".join(lines) + "\n"
