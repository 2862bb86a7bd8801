"""SMILES parsing into immutable molecular graphs.

Supported dialect: the organic subset (B, C, N, O, P, S, F, Cl, Br, I and
their aromatic lowercase forms b, c, n, o, p, s), bracket atoms with isotope,
charge and explicit H-count, branches, ring closures including %nn, and dots
for disconnected components.  Stereo markers (/, \\, @, @@) are accepted and
discarded; each discarded marker bumps ``Molecule.stereo_warnings``.
Aromaticity is trusted from the input: lowercase atoms are aromatic, no
perception or kekulization is performed, and kekulized inputs are left alone.

Atoms and bonds are named tuples, built once each from a positional field
tuple; an annotation pass shares every atom and bond it leaves unchanged.

Out of scope by design: canonical SMILES output, tautomers, 3D geometry,
reaction SMILES (atom maps), explicit-hydrogen nodes such as ``[H]``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DataError

__all__ = [
    "Atom",
    "Bond",
    "Molecule",
    "MAX_ATOMS",
    "ParseError",
    "EmptyInputError",
    "UnknownSymbolError",
    "UnbalancedParenError",
    "UnclosedRingError",
    "DuplicateBondError",
    "ValenceError",
    "BOND_SINGLE",
    "BOND_DOUBLE",
    "BOND_TRIPLE",
    "BOND_AROMATIC",
    "BOND_ORDER_VALUE",
    "parse_smiles",
    "assign_implicit_hydrogens",
    "perceive_rings",
    "from_smiles",
]

# Bond order codes.  Integer codes keep bonds hashable and sortable; the
# fractional contribution of an aromatic bond lives in BOND_ORDER_VALUE.
BOND_SINGLE = 1
BOND_DOUBLE = 2
BOND_TRIPLE = 3
BOND_AROMATIC = 4

BOND_ORDER_VALUE = {
    BOND_SINGLE: 1.0,
    BOND_DOUBLE: 2.0,
    BOND_TRIPLE: 3.0,
    BOND_AROMATIC: 1.5,
}

SYMBOL_TO_NUMBER = {
    "B": 5, "C": 6, "N": 7, "O": 8, "F": 9,
    "P": 15, "S": 16, "Cl": 17, "Br": 35, "I": 53,
}
NUMBER_TO_SYMBOL = {v: k for k, v in SYMBOL_TO_NUMBER.items()}

# Allowed valence states per element, ascending.  The implicit-H rule picks
# the smallest value that covers the bond-order sum.
VALENCES = {
    5: (3,),
    6: (4,),
    7: (3, 5),
    8: (2,),
    9: (1,),
    15: (3, 5),
    16: (2, 4, 6),
    17: (1,),
    35: (1,),
    53: (1,),
}

# Elements that may carry the aromatic flag, with the valence used for the
# implicit-H rule on aromatic atoms (the lowest standard valence).
AROMATIC_SYMBOLS = {"b": 5, "c": 6, "n": 7, "o": 8, "p": 15, "s": 16}
AROMATIC_VALENCE = {5: 3, 6: 4, 7: 3, 8: 2, 15: 3, 16: 2}

class ParseError(DataError):
    """Positioned SMILES error.  ``offset`` is the character offset into the
    input where the problem was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EmptyInputError(ParseError):
    pass


class UnknownSymbolError(ParseError):
    pass


class UnbalancedParenError(ParseError):
    pass


class UnclosedRingError(ParseError):
    pass


class DuplicateBondError(ParseError):
    pass


class ValenceError(ParseError):
    """Bond-order sum exceeds every allowed valence state for the element."""

    def __init__(self, message: str, offset: int, atom_index: int):
        super().__init__(message, offset)
        self.atom_index = atom_index


class Atom(NamedTuple):
    """One heavy atom.  A named tuple: immutable, compared and hashed as
    the tuple of its fields (so it equals a plain tuple of them); copy one
    with ``_replace``."""

    element: int                 # atomic number
    formal_charge: int = 0
    isotope: int | None = None
    aromatic: bool = False
    explicit_h: int = 0          # H-count given inside brackets
    implicit_h: int = 0          # filled by assign_implicit_hydrogens
    in_ring: bool = False        # filled by perceive_rings
    bracket: bool = False
    offset: int = 0              # offset of the atom token in the source

    @property
    def symbol(self) -> str:
        return NUMBER_TO_SYMBOL[self.element]

    @property
    def total_h(self) -> int:
        return self.explicit_h + self.implicit_h


class Bond(NamedTuple):
    """One undirected bond between atoms ``a`` and ``b``, in source order."""

    a: int
    b: int
    order: int                   # BOND_SINGLE/DOUBLE/TRIPLE/AROMATIC
    in_ring: bool = False


# The parser and _annotated build atoms and bonds as _new(Atom, fields) with
# every field given in order: a plain tuple allocation, without the keyword
# handling of the generated Atom.__new__.
_new = tuple.__new__


@dataclass(frozen=True)
class Molecule:
    """Immutable molecular graph over Atom and Bond tuples.  parse_smiles
    gives the bare graph; assign_implicit_hydrogens and perceive_rings each
    return a new molecule with their annotation added, and from_smiles
    builds the fully annotated molecule in one pass.  The molecule is a
    frozen dataclass (one per ligand); its atoms and bonds, built by the
    thousand, are named tuples."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    source: str
    components: tuple[tuple[int, ...], ...]
    stereo_warnings: int = 0
    h_assigned: bool = False
    rings_perceived: bool = False

    def neighbors(self) -> list[list[tuple[int, int]]]:
        """Symmetric adjacency: for each atom, a list of (neighbor, order)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            adj[bond.a].append((bond.b, bond.order))
            adj[bond.b].append((bond.a, bond.order))
        return adj


def _shared(mol: Molecule, atoms: dict[Atom, Atom], bonds: dict[Bond, Bond],
            components: dict[tuple, tuple]) -> Molecule:
    """A molecule equal to mol, built from the tables its caller owns:
    each atom, bond and component tuple of mol is replaced by the equal
    one a table already holds, or is added to it.  One table per kind,
    because a Bond equals the plain tuple of its fields.  Sharing equal
    immutable values this way (hash-consing) makes a batch of molecules
    hold each distinct atom, bond and component once."""
    parts = tuple(components.setdefault(c, c) for c in mol.components)
    return Molecule(
        atoms=tuple(atoms.setdefault(atom, atom) for atom in mol.atoms),
        bonds=tuple(bonds.setdefault(bond, bond) for bond in mol.bonds),
        source=mol.source,
        components=components.setdefault(parts, parts),
        stereo_warnings=mol.stereo_warnings,
        h_assigned=mol.h_assigned,
        rings_perceived=mol.rings_perceived,
    )


# One alternative per token kind; parse_smiles dispatches on the name of the
# group that matched.  Two-letter symbols come first, so Cl is never C + l.
# Digits are ASCII only.
_ORGANIC = "|".join(sorted(SYMBOL_TO_NUMBER, key=len, reverse=True))
_AROMATIC = "".join(AROMATIC_SYMBOLS)
_TOKEN = re.compile(
    rf"(?P<organic>{_ORGANIC})|(?P<aromatic>[{_AROMATIC}])|(?P<bracket>\[)"
    r"|(?P<ring>[0-9]|%[0-9]{2})|(?P<bond>[-=#:/\\])"
    r"|(?P<open>\()|(?P<close>\))|(?P<dot>\.)")
_BOND_ORDER = {"-": BOND_SINGLE, "=": BOND_DOUBLE, "#": BOND_TRIPLE,
               ":": BOND_AROMATIC, "/": BOND_SINGLE, "\\": BOND_SINGLE}

# A bracket atom: '[', isotope and element, then any run of @-marks, H-counts
# and charges up to ']'.  An upper-case letter takes a lower-case one with it,
# so [Cs] names caesium (unsupported) rather than C followed by s.
_BRACKET_HEAD = re.compile(rf"\[([0-9]*)(?:([A-Z][a-z]?)|([{_AROMATIC}]))?")
_BRACKET_PART = re.compile(r"(@+)|H([0-9]*)|(\++|-+)([0-9]*)|\]")


# A molecule has at most this many atoms; parsing stops with a ParseError at
# the first atom past it.  A featurization batch gives every atom an
# atom-set bitset as wide as the batch's largest molecule, so one huge
# ligand would cost memory that grows with the square of its size.
MAX_ATOMS = 500

# An isotope, H count or charge has at most this many digits, so every
# value fits in 32 bits; a longer run is an UnknownSymbolError at its start.
_MAX_DIGITS = 9


def _number(digits: str, offset: int, what: str) -> int:
    """int(digits), or UnknownSymbolError at offset for a run too long."""
    if len(digits) > _MAX_DIGITS:
        raise UnknownSymbolError(
            f"{what} longer than {_MAX_DIGITS} digits", offset)
    return int(digits)


def _bracket_atom(text: str, start: int) -> tuple[Atom, int, int]:
    """The bracket atom that opens at text[start], the offset just past its
    ']', and the number of @-runs (discarded stereo marks) inside it."""
    head = _BRACKET_HEAD.match(text, start)
    isotope, symbol, aromatic = head.groups()
    isotope = _number(isotope, start + 1, "isotope") if isotope else None
    pos = head.end()
    if aromatic:
        element = AROMATIC_SYMBOLS[aromatic]
    elif symbol in SYMBOL_TO_NUMBER:
        element = SYMBOL_TO_NUMBER[symbol]
    elif symbol:
        raise UnknownSymbolError(f"unsupported element {symbol!r}", head.start(2))
    elif pos < len(text):
        raise UnknownSymbolError(f"expected element symbol, got {text[pos]!r}", pos)
    else:
        raise UnknownSymbolError("unterminated bracket atom", pos)
    explicit_h = charge = stereo = 0
    while True:
        part = _BRACKET_PART.match(text, pos)
        if part is None:
            if pos < len(text):
                raise UnknownSymbolError(
                    f"unexpected {text[pos]!r} in bracket atom", pos)
            raise UnknownSymbolError("unterminated bracket atom", pos)
        pos = part.end()
        marks, hydrogens, sign, digits = part.groups()
        if marks:
            stereo += 1
        elif hydrogens is not None:
            explicit_h = (_number(hydrogens, part.start(2), "hydrogen count")
                          if hydrogens else 1)
        elif sign:
            if digits and len(sign) > 1:
                raise UnknownSymbolError("malformed charge", pos - 1)
            charge = (_number(digits, part.start(4), "charge") if digits
                      else len(sign))
            if sign[0] == "-":
                charge = -charge
        else:
            break
    atom = _new(Atom, (element, charge, isotope, bool(aromatic), explicit_h,
                       0, False, True, start))
    return atom, pos, stereo


def parse_smiles(text: str) -> Molecule:
    """Parse SMILES text into a Molecule.

    Implicit hydrogens are NOT assigned and rings are NOT perceived yet; see
    assign_implicit_hydrogens and perceive_rings, or the from_smiles shortcut.
    Every failure raises a ParseError subclass carrying a character offset;
    the atom past MAX_ATOMS raises a plain ParseError.
    """
    if not isinstance(text, str):
        raise TypeError("SMILES input must be a string")
    # surrounding whitespace is insignificant; embedded whitespace is not
    pos = len(text) - len(text.lstrip())
    end = len(text.rstrip())
    if pos >= end:
        raise EmptyInputError("empty SMILES input", 0)
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    bond_keys: set[tuple[int, int]] = set()
    rings: dict[int, tuple[int, int | None, int]] = {}  # label -> (atom, order, offset)
    branches: list[tuple[int, int]] = []               # (atom before '(', offset)
    components: list[tuple[int, ...]] = []
    prev: int | None = None       # the atom the next atom or ring label bonds to
    order: int | None = None      # explicit order of the next bond
    order_at = 0
    stereo = 0
    first = 0                     # first atom of the current component
    dot = end                     # offset of the last '.'
    while pos < end:
        match = _TOKEN.match(text, pos)
        at = pos
        if match is None:
            ch = text[at]
            if ch.isspace():
                raise UnknownSymbolError("embedded whitespace", at)
            if ch == "%":
                raise UnknownSymbolError("%% must be followed by two digits", at)
            raise UnknownSymbolError(f"unknown symbol {ch!r}", at)
        pos = match.end()
        kind = match.lastgroup
        token = match.group()
        if kind == "organic":
            atom = _new(Atom, (SYMBOL_TO_NUMBER[token], 0, None, False, 0, 0,
                               False, False, at))
        elif kind == "aromatic":
            atom = _new(Atom, (AROMATIC_SYMBOLS[token], 0, None, True, 0, 0,
                               False, False, at))
        elif kind == "bracket":
            atom, pos, marks = _bracket_atom(text, at)
            stereo += marks
        elif kind == "ring":
            if prev is None:
                raise UnknownSymbolError("ring closure with no preceding atom", at)
            label = int(token.lstrip("%"))
            if label not in rings:
                rings[label] = (prev, order, at)
                order = None
                continue
            other, opened, _ = rings.pop(label)
            if order is not None and opened is not None and order != opened:
                raise DuplicateBondError(
                    "conflicting bond orders on ring closure", at)
            if other == prev:
                raise DuplicateBondError("bond joins an atom to itself", at)
            key = (other, prev) if other < prev else (prev, other)
            if key in bond_keys:
                raise DuplicateBondError(
                    f"duplicate bond between atoms {key[0]} and {key[1]}", at)
            if order is None:
                order = opened
            if order is None:
                both = atoms[prev].aromatic and atoms[other].aromatic
                order = BOND_AROMATIC if both else BOND_SINGLE
            bond_keys.add(key)
            bonds.append(_new(Bond, (prev, other, order, False)))
            order = None
            continue
        elif kind == "bond":
            if order is not None:
                raise UnknownSymbolError("consecutive bond symbols", at)
            if prev is None:
                raise UnknownSymbolError("bond symbol with no preceding atom", at)
            order = _BOND_ORDER[token]
            order_at = at
            if token in "/\\":
                stereo += 1       # cis/trans mark: keep the single bond only
            continue
        elif kind == "open":
            if prev is None:
                raise UnbalancedParenError("branch opened before any atom", at)
            branches.append((prev, at))
            continue
        elif kind == "close":
            if not branches:
                raise UnbalancedParenError("unmatched ')'", at)
            if order is not None:
                raise UnknownSymbolError("dangling bond", order_at)
            prev = branches.pop()[0]
            continue
        else:
            if order is not None:
                raise UnknownSymbolError("bond symbol before dot", at)
            if first == len(atoms):
                raise UnknownSymbolError("empty component", at)
            components.append(tuple(range(first, len(atoms))))
            first = len(atoms)
            prev = None
            dot = at
            continue
        # an atom: bond it to the previous one
        idx = len(atoms)
        if idx == MAX_ATOMS:
            raise ParseError(f"more than {MAX_ATOMS} atoms", at)
        if prev is not None:
            if order is None:
                both = atoms[prev].aromatic and atom.aromatic
                order = BOND_AROMATIC if both else BOND_SINGLE
            bond_keys.add((prev, idx))
            bonds.append(_new(Bond, (prev, idx, order, False)))
            order = None
        atoms.append(atom)
        prev = idx

    if order is not None:
        raise UnknownSymbolError("dangling bond", order_at)
    if branches:
        raise UnbalancedParenError("unclosed '('", branches[0][1])
    if rings:
        raise UnclosedRingError("unclosed ring bond",
                                min(offset for _, _, offset in rings.values()))
    if first == len(atoms):
        raise UnknownSymbolError("empty component", dot)
    components.append(tuple(range(first, len(atoms))))
    return Molecule(atoms=tuple(atoms), bonds=tuple(bonds), source=text,
                    components=tuple(components), stereo_warnings=stereo)


def _implicit_hydrogens(mol: Molecule) -> list[int]:
    """Implicit hydrogen count of each atom of mol, in atom order.

    The bond-order sum counts aromatic bonds as 1.5 and is floored.  Bracket
    atoms keep their explicit count (implicit 0).  Other atoms receive
    V - sum for the smallest allowed valence V >= sum; aromatic atoms use the
    fixed aromatic valence of the element, clamped at zero (so furan oxygen
    and thiophene sulfur get no hydrogen without kekulizing).  A sum beyond
    every valence state raises ValenceError at the first such atom; aromatic
    atoms get +1 headroom because of the floored half-integer sums.
    """
    order_sum = [0.0] * len(mol.atoms)
    for bond in mol.bonds:
        value = BOND_ORDER_VALUE[bond.order]
        order_sum[bond.a] += value
        order_sum[bond.b] += value
    counts = []
    for idx, atom in enumerate(mol.atoms):
        total = int(order_sum[idx]) + atom.explicit_h
        allowed = VALENCES[atom.element]
        limit = allowed[-1] + (1 if atom.aromatic else 0)
        if total > limit:
            raise ValenceError(
                f"bond-order sum {total} exceeds valence of {atom.symbol}",
                atom.offset, idx)
        if atom.bracket:
            counts.append(0)
        elif atom.aromatic:
            counts.append(max(0, AROMATIC_VALENCE[atom.element] - total))
        else:
            counts.append(min(v for v in allowed if v >= total) - total)
    return counts


def _bridges(mol: Molecule) -> set[tuple[int, int]]:
    """The bonds of mol that lie on no cycle, each as its (lower, higher)
    atom index pair.

    One iterative depth-first pass (Tarjan, Inf. Proc. Lett. 2(6), 1974):
    the tree edge into v is a bridge when no back edge from v's subtree
    reaches v's parent or above.  The graph is simple, as the parser rejects
    self-bonds and duplicate bonds.
    """
    n = len(mol.atoms)
    adj: list[list[int]] = [[] for _ in range(n)]
    for bond in mol.bonds:
        adj[bond.a].append(bond.b)
        adj[bond.b].append(bond.a)
    order = [0] * n      # 1-based discovery number, 0 while unvisited
    low = [0] * n        # lowest discovery number a back edge from the subtree reaches
    bridges: set[tuple[int, int]] = set()
    count = 0
    for root in range(n):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, parent, rest = stack[-1]
            for v in rest:
                if v == parent:
                    continue
                if order[v]:
                    low[u] = min(low[u], order[v])
                else:
                    count += 1
                    order[v] = low[v] = count
                    stack.append((v, u, iter(adj[v])))
                    break
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[u])
                    if low[u] > order[parent]:
                        bridges.add((u, parent) if u < parent else (parent, u))
    return bridges


def _annotated(mol: Molecule, implicit_h: list[int] | None,
               bridges: set[tuple[int, int]] | None) -> Molecule:
    """The annotated molecule that assign_implicit_hydrogens, perceive_rings
    and from_smiles return.  ``implicit_h`` (from _implicit_hydrogens) or
    ``bridges`` (from _bridges) left as None keeps that annotation, and its
    flag, as they are on ``mol``.  An atom or bond whose annotation does not
    change is shared, as all three are immutable; every other one is
    constructed once, from its fields with the annotation swapped in."""
    atoms = mol.atoms
    bonds = mol.bonds
    h_assigned = mol.h_assigned or implicit_h is not None
    if implicit_h is None:
        implicit_h = [atom.implicit_h for atom in atoms]
    if bridges is None:
        atom_ring = [atom.in_ring for atom in atoms]
    else:
        atom_ring = [False] * len(atoms)
        ring_bonds = []
        for bond in bonds:
            a, b = bond.a, bond.b
            ring = ((a, b) if a < b else (b, a)) not in bridges
            if ring:
                atom_ring[a] = atom_ring[b] = True
            ring_bonds.append(bond if bond.in_ring == ring
                              else _new(Bond, (a, b, bond.order, ring)))
        bonds = tuple(ring_bonds)
    # fields 5 and 6 of an Atom are implicit_h and in_ring
    return Molecule(
        atoms=tuple(atom if atom.implicit_h == h and atom.in_ring == in_ring
                    else _new(Atom, atom[:5] + (h, in_ring) + atom[7:])
                    for atom, h, in_ring in zip(atoms, implicit_h, atom_ring)),
        bonds=bonds,
        source=mol.source,
        components=mol.components,
        stereo_warnings=mol.stereo_warnings,
        h_assigned=h_assigned,
        rings_perceived=mol.rings_perceived or bridges is not None,
    )


def assign_implicit_hydrogens(mol: Molecule) -> Molecule:
    """Return a new molecule with implicit hydrogen counts filled in, by the
    rule of _implicit_hydrogens (which raises ValenceError)."""
    return _annotated(mol, _implicit_hydrogens(mol), None)


def perceive_rings(mol: Molecule) -> Molecule:
    """Return a new molecule with in_ring flags set.

    An edge is in a ring exactly when it is not a bridge (some cycle passes
    through it); an atom is in a ring when one of its edges is.  Bridges come
    from the linear-time pass in _bridges.
    """
    return _annotated(mol, None, _bridges(mol))


def from_smiles(text: str) -> Molecule:
    """parse_smiles + assign_implicit_hydrogens + perceive_rings in one call.

    Both annotations are computed on the parsed graph, and the annotated
    atoms, bonds and molecule are built once, with no staged copies.
    """
    mol = parse_smiles(text)
    return _annotated(mol, _implicit_hydrogens(mol), _bridges(mol))
