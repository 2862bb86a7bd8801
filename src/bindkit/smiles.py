"""SMILES parsing into immutable molecular graphs.

Supported dialect: the organic subset (B, C, N, O, P, S, F, Cl, Br, I and
their aromatic lowercase forms b, c, n, o, p, s), bracket atoms with isotope,
charge and explicit H-count, branches, ring closures including %nn, and dots
for disconnected components.  Stereo markers (/, \\, @, @@) are accepted and
discarded; each discarded marker bumps ``Molecule.stereo_warnings``.
Aromaticity is trusted from the input: lowercase atoms are aromatic, no
perception or kekulization is performed, and kekulized inputs are left alone.

Out of scope by design: canonical SMILES output, tautomers, 3D geometry,
reaction SMILES (atom maps), explicit-hydrogen nodes such as ``[H]``.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Atom",
    "Bond",
    "Molecule",
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

_TWO_LETTER = ("Cl", "Br")


class ParseError(ValueError):
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


@dataclass(frozen=True)
class Atom:
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


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: int                   # BOND_SINGLE/DOUBLE/TRIPLE/AROMATIC
    in_ring: bool = False

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


@dataclass(frozen=True)
class Molecule:
    """Immutable molecular graph.  parse_smiles gives the bare graph;
    assign_implicit_hydrogens and perceive_rings each return a new molecule
    with their annotation added, and from_smiles builds the fully annotated
    molecule in one pass."""

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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.bond_keys: set[tuple[int, int]] = set()
        # ring number -> (atom index, explicit order or None, digit offset)
        self.open_rings: dict[int, tuple[int, int | None, int]] = {}
        self.branch_stack: list[tuple[int, int]] = []   # (prev atom, '(' offset)
        self.prev: int | None = None
        self.pending_order: int | None = None
        self.pending_offset = 0
        self.stereo_warnings = 0
        self.component_start = 0     # index of first atom of current component
        self.components: list[tuple[int, ...]] = []
        self.last_dot_offset: int | None = None

    def error(self, cls, message: str, offset: int | None = None):
        raise cls(message, self.pos if offset is None else offset)

    # --- token helpers -------------------------------------------------

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def take_digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.text[start:self.pos]

    # --- graph construction --------------------------------------------

    def add_atom(self, atom: Atom) -> None:
        idx = len(self.atoms)
        self.atoms.append(atom)
        if self.prev is not None:
            self.link(self.prev, idx, self.pending_order)
        elif self.pending_order is not None:
            self.error(UnknownSymbolError, "bond symbol with no preceding atom",
                       self.pending_offset)
        self.pending_order = None
        self.prev = idx

    def link(self, a: int, b: int, order: int | None, offset: int | None = None) -> None:
        at = self.pos if offset is None else offset
        if a == b:
            self.error(DuplicateBondError, "bond joins an atom to itself", at)
        if order is None:
            both_aromatic = self.atoms[a].aromatic and self.atoms[b].aromatic
            order = BOND_AROMATIC if both_aromatic else BOND_SINGLE
        key = (a, b) if a < b else (b, a)
        if key in self.bond_keys:
            self.error(DuplicateBondError,
                       f"duplicate bond between atoms {key[0]} and {key[1]}", at)
        self.bond_keys.add(key)
        self.bonds.append(Bond(a, b, order))

    def close_component(self, offset: int) -> None:
        if self.component_start == len(self.atoms):
            self.error(UnknownSymbolError, "empty component", offset)
        self.components.append(tuple(range(self.component_start, len(self.atoms))))
        self.component_start = len(self.atoms)

    # --- token parsing ---------------------------------------------------

    def parse_bracket_atom(self) -> None:
        start = self.pos
        self.take()                                    # consume '['
        isotope: int | None = None
        digits = self.take_digits()
        if digits:
            isotope = int(digits)
        sym_off = self.pos
        ch = self.peek()
        element = None
        aromatic = False
        if ch.isupper():
            two = self.text[self.pos:self.pos + 2]
            if two in _TWO_LETTER:
                element = SYMBOL_TO_NUMBER[two]
                self.pos += 2
            elif len(two) == 2 and two[1].islower():
                # a two-letter element outside the supported set (Na, Fe, ...)
                self.error(UnknownSymbolError, f"unsupported element {two!r}",
                           sym_off)
            elif ch in SYMBOL_TO_NUMBER:
                element = SYMBOL_TO_NUMBER[ch]
                self.pos += 1
            else:
                self.error(UnknownSymbolError, f"unsupported element {ch!r}", sym_off)
        elif ch in AROMATIC_SYMBOLS:
            element = AROMATIC_SYMBOLS[ch]
            aromatic = True
            self.pos += 1
        else:
            self.error(UnknownSymbolError,
                       f"expected element symbol, got {ch!r}" if ch else
                       "unterminated bracket atom", sym_off if ch else self.pos)
        explicit_h = 0
        charge = 0
        while True:
            ch = self.peek()
            if ch == "":
                self.error(UnknownSymbolError, "unterminated bracket atom")
            if ch == "]":
                self.take()
                break
            if ch == "@":
                while self.peek() == "@":
                    self.take()
                self.stereo_warnings += 1
            elif ch == "H":
                self.take()
                digits = self.take_digits()
                explicit_h = int(digits) if digits else 1
            elif ch in "+-":
                sign = 1 if ch == "+" else -1
                self.take()
                run = 1
                while self.peek() == ch:
                    self.take()
                    run += 1
                digits = self.take_digits()
                if digits:
                    if run > 1:
                        self.error(UnknownSymbolError, "malformed charge", self.pos - 1)
                    charge = sign * int(digits)
                else:
                    charge = sign * run
            else:
                self.error(UnknownSymbolError, f"unexpected {ch!r} in bracket atom")
        self.add_atom(Atom(element=element, formal_charge=charge, isotope=isotope,
                           aromatic=aromatic, explicit_h=explicit_h,
                           bracket=True, offset=start))

    def parse_ring_closure(self) -> None:
        offset = self.pos
        ch = self.take()
        if ch == "%":
            d1 = self.peek()
            if not d1.isdigit():
                self.error(UnknownSymbolError, "%% must be followed by two digits", offset)
            self.take()
            d2 = self.peek()
            if not d2.isdigit():
                self.error(UnknownSymbolError, "%% must be followed by two digits", offset)
            self.take()
            number = int(d1 + d2)
        else:
            number = int(ch)
        if self.prev is None:
            self.error(UnknownSymbolError, "ring closure with no preceding atom", offset)
        if number in self.open_rings:
            other, stored_order, _ = self.open_rings.pop(number)
            order = self.pending_order
            if order is not None and stored_order is not None and order != stored_order:
                self.error(DuplicateBondError,
                           "conflicting bond orders on ring closure", offset)
            self.link(self.prev, other, order if order is not None else stored_order,
                      offset)
        else:
            self.open_rings[number] = (self.prev, self.pending_order, offset)
        self.pending_order = None

    def set_pending(self, order: int, offset: int) -> None:
        if self.pending_order is not None:
            self.error(UnknownSymbolError, "consecutive bond symbols", offset)
        if self.prev is None:
            self.error(UnknownSymbolError, "bond symbol with no preceding atom", offset)
        self.pending_order = order
        self.pending_offset = offset

    def run(self) -> Molecule:
        text = self.text
        # surrounding whitespace is insignificant; embedded whitespace is not
        begin = 0
        end = len(text)
        while begin < end and text[begin].isspace():
            begin += 1
        while end > begin and text[end - 1].isspace():
            end -= 1
        if begin == end:
            raise EmptyInputError("empty SMILES input", 0)
        self.pos = begin
        while self.pos < end:
            ch = self.peek()
            if ch.isspace():
                self.error(UnknownSymbolError, "embedded whitespace")
            elif ch == "[":
                self.parse_bracket_atom()
            elif ch.isupper():
                offset = self.pos
                two = text[self.pos:self.pos + 2]
                if two in _TWO_LETTER:
                    self.pos += 2
                    self.add_atom(Atom(element=SYMBOL_TO_NUMBER[two], offset=offset))
                elif ch in SYMBOL_TO_NUMBER:
                    self.pos += 1
                    self.add_atom(Atom(element=SYMBOL_TO_NUMBER[ch], offset=offset))
                else:
                    self.error(UnknownSymbolError, f"unknown symbol {ch!r}")
            elif ch in AROMATIC_SYMBOLS:
                offset = self.pos
                self.pos += 1
                self.add_atom(Atom(element=AROMATIC_SYMBOLS[ch], aromatic=True,
                                   offset=offset))
            elif ch.isdigit() or ch == "%":
                self.parse_ring_closure()
            elif ch == "-":
                self.set_pending(BOND_SINGLE, self.pos)
                self.take()
            elif ch == "=":
                self.set_pending(BOND_DOUBLE, self.pos)
                self.take()
            elif ch == "#":
                self.set_pending(BOND_TRIPLE, self.pos)
                self.take()
            elif ch == ":":
                self.set_pending(BOND_AROMATIC, self.pos)
                self.take()
            elif ch in "/\\":
                # cis/trans marker: keep the single bond, drop the geometry
                self.set_pending(BOND_SINGLE, self.pos)
                self.stereo_warnings += 1
                self.take()
            elif ch == "(":
                if self.prev is None:
                    self.error(UnbalancedParenError, "branch opened before any atom")
                self.branch_stack.append((self.prev, self.pos))
                self.take()
            elif ch == ")":
                if not self.branch_stack:
                    self.error(UnbalancedParenError, "unmatched ')'")
                if self.pending_order is not None:
                    self.error(UnknownSymbolError, "dangling bond", self.pending_offset)
                self.prev = self.branch_stack.pop()[0]
                self.take()
            elif ch == ".":
                if self.pending_order is not None:
                    self.error(UnknownSymbolError, "bond symbol before dot")
                self.close_component(self.pos)
                self.prev = None
                self.last_dot_offset = self.pos
                self.take()
            else:
                self.error(UnknownSymbolError, f"unknown symbol {ch!r}")

        if self.pending_order is not None:
            raise UnknownSymbolError("dangling bond", self.pending_offset)
        if self.branch_stack:
            raise UnbalancedParenError("unclosed '('", self.branch_stack[0][1])
        if self.open_rings:
            first = min(off for (_, _, off) in self.open_rings.values())
            raise UnclosedRingError("unclosed ring bond", first)
        if self.component_start == len(self.atoms):
            raise UnknownSymbolError(
                "empty component",
                end if self.last_dot_offset is None else self.last_dot_offset)
        self.components.append(tuple(range(self.component_start, len(self.atoms))))
        return Molecule(atoms=tuple(self.atoms), bonds=tuple(self.bonds),
                        source=text, components=tuple(self.components),
                        stereo_warnings=self.stereo_warnings)


def parse_smiles(text: str) -> Molecule:
    """Parse SMILES text into a Molecule.

    Implicit hydrogens are NOT assigned and rings are NOT perceived yet; see
    assign_implicit_hydrogens and perceive_rings, or the from_smiles shortcut.
    Every failure raises a ParseError subclass carrying a character offset.
    """
    if not isinstance(text, str):
        raise TypeError("SMILES input must be a string")
    return _Parser(text).run()


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
    """Keys (Bond.key) of the bonds of mol that lie on no cycle.

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
    change is shared, as all three are frozen; every other one is
    constructed once."""
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
                              else Bond(a, b, bond.order, ring))
        bonds = tuple(ring_bonds)
    return Molecule(
        atoms=tuple(atom if atom.implicit_h == h and atom.in_ring == in_ring
                    else Atom(atom.element, atom.formal_charge, atom.isotope,
                              atom.aromatic, atom.explicit_h, h, in_ring,
                              atom.bracket, atom.offset)
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
