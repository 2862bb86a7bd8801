"""Parser suite: corpus counts, malformed inputs, hydrogens, rings."""
import csv
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import bindkit.smiles as sm
from bindkit.smiles import (
    BOND_AROMATIC,
    BOND_DOUBLE,
    BOND_SINGLE,
    Atom,
    Bond,
    DuplicateBondError,
    EmptyInputError,
    MAX_ATOMS,
    Molecule,
    ParseError,
    UnbalancedParenError,
    UnclosedRingError,
    UnknownSymbolError,
    ValenceError,
    assign_implicit_hydrogens,
    from_smiles,
    parse_smiles,
    perceive_rings,
)
from testutil import count_tokens

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ERROR_CLASSES = {
    "EmptyInput": EmptyInputError,
    "UnclosedRing": UnclosedRingError,
    "UnbalancedParen": UnbalancedParenError,
    "UnknownSymbol": UnknownSymbolError,
    "DuplicateBond": DuplicateBondError,
}


def load_corpus():
    with open(FIXTURES / "corpus.tsv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def load_malformed():
    with open(FIXTURES / "malformed.tsv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


CORPUS = load_corpus()
MALFORMED = load_malformed()


@pytest.mark.parametrize("row", CORPUS, ids=[r["name"] for r in CORPUS])
def test_corpus_counts(row):
    mol = parse_smiles(row["smiles"])
    assert len(mol.atoms) == int(row["atoms"])
    assert len(mol.bonds) == int(row["bonds"])
    assert len(mol.components) == int(row["components"])
    assert mol.stereo_warnings == int(row["stereo"])
    assert not mol.h_assigned and not mol.rings_perceived


@pytest.mark.parametrize("row", CORPUS, ids=[r["name"] for r in CORPUS])
def test_corpus_against_token_census(row):
    # the regex census never builds a graph, so it is an independent check
    census = count_tokens(row["smiles"])
    mol = parse_smiles(row["smiles"])
    assert census["atoms"] == len(mol.atoms)
    assert census["bonds"] == len(mol.bonds)
    assert census["components"] == len(mol.components)


@pytest.mark.parametrize(
    "row", MALFORMED,
    ids=[f"{r['error']}-{i}" for i, r in enumerate(MALFORMED)])
def test_malformed_inputs(row):
    cls = ERROR_CLASSES[row["error"]]
    with pytest.raises(cls) as err:
        parse_smiles(row["smiles"])
    assert err.value.offset == int(row["offset"])


def test_every_failure_is_positioned():
    for row in MALFORMED:
        with pytest.raises(sm.ParseError) as err:
            parse_smiles(row["smiles"])
        assert isinstance(err.value.offset, int)
        assert 0 <= err.value.offset <= len(row["smiles"])


def test_reparse_is_stable():
    for row in CORPUS:
        first = parse_smiles(row["smiles"])
        second = parse_smiles(first.source)
        assert first == second


def test_atoms_record_source_offsets():
    mol = parse_smiles(" CCO ")
    assert [a.offset for a in mol.atoms] == [1, 2, 3]
    with pytest.raises(UnknownSymbolError):
        parse_smiles("C C")


def test_implicit_hydrogen_basics():
    cases = {
        "C": [4], "N": [3], "O": [2], "S": [2], "I": [1],
        "CC": [3, 3], "C=C": [2, 2], "C#C": [1, 1], "CO": [3, 1],
    }
    for smiles, expect in cases.items():
        mol = assign_implicit_hydrogens(parse_smiles(smiles))
        assert [a.implicit_h for a in mol.atoms] == expect
        assert mol.h_assigned


def test_bracket_atoms_keep_explicit_h():
    mol = assign_implicit_hydrogens(parse_smiles("[NH4+]"))
    atom = mol.atoms[0]
    assert atom.explicit_h == 4 and atom.implicit_h == 0
    assert atom.total_h == 4 and atom.formal_charge == 1


def test_charge_runs_and_digits():
    assert parse_smiles("[O-]").atoms[0].formal_charge == -1
    assert parse_smiles("[O--]").atoms[0].formal_charge == -2
    assert parse_smiles("[N+2]").atoms[0].formal_charge == 2
    assert parse_smiles("[13CH3]").atoms[0].isotope == 13


# Long runs: `int` refuses more than 4,300 digits, and a huge charge
# overflows the int64 atom table of the fingerprint kernel.
LONG_DIGITS = [
    ("[" + "1" * 5000 + "C]", 1, "isotope"),
    ("[1234567890C]", 1, "isotope"),
    ("CC[CH" + "1" * 5000 + "]", 5, "hydrogen count"),
    ("[C+" + "1" * 5000 + "]", 3, "charge"),
    ("[C+99999999999999999999]", 3, "charge"),
    ("[13C@H-0123456789]", 7, "charge"),
]


@pytest.mark.parametrize("text,offset,what", LONG_DIGITS)
def test_digit_runs_over_nine_digits_are_unknown_symbols(text, offset, what):
    with pytest.raises(UnknownSymbolError, match=what) as err:
        parse_smiles(text)
    assert err.value.offset == offset


def test_nine_digit_runs_parse():
    atom = parse_smiles("[123456789CH000000003-999999999]").atoms[0]
    assert (atom.isotope, atom.explicit_h, atom.formal_charge) == \
        (123456789, 3, -999999999)


@pytest.mark.parametrize("unit", ["C", "[13CH4]."])
def test_atoms_past_max_atoms_are_a_parse_error(unit):
    # one atom per unit: MAX_ATOMS of them parse, the next one raises at
    # its own offset, however long the input goes on
    assert len(from_smiles((unit * MAX_ATOMS).rstrip(".")).atoms) == MAX_ATOMS
    for extra in (1, 24000):
        with pytest.raises(ParseError, match=f"more than {MAX_ATOMS} atoms") as err:
            parse_smiles((unit * (MAX_ATOMS + extra)).rstrip("."))
        assert type(err.value) is ParseError
        assert err.value.offset == len(unit) * MAX_ATOMS


def test_nitrogen_valence_states():
    # trivalent unless the bond sum forces the pentavalent state
    mol = assign_implicit_hydrogens(parse_smiles("NC"))
    assert mol.atoms[0].implicit_h == 2   # sum 1 -> V=3
    mol = assign_implicit_hydrogens(parse_smiles("N(=O)O"))
    assert mol.atoms[0].implicit_h == 0   # sum 3 fills V=3 exactly
    mol = assign_implicit_hydrogens(parse_smiles("N(=O)=O"))
    assert mol.atoms[0].implicit_h == 1   # sum 4 -> V=5 applies
    mol = assign_implicit_hydrogens(parse_smiles("ON(=O)=O"))
    assert mol.atoms[1].implicit_h == 0   # sum 5 -> V=5


def test_carboxyl_carbon_has_no_hydrogen():
    mol = assign_implicit_hydrogens(parse_smiles("OC(=O)O"))
    assert mol.atoms[1].implicit_h == 0


def test_aromatic_hydrogens():
    benzene = assign_implicit_hydrogens(parse_smiles("c1ccccc1"))
    assert [a.implicit_h for a in benzene.atoms] == [1] * 6
    pyridine = assign_implicit_hydrogens(parse_smiles("c1ccncc1"))
    n = [a for a in pyridine.atoms if a.element == 7][0]
    assert n.implicit_h == 0
    pyrrole = assign_implicit_hydrogens(parse_smiles("c1cc[nH]c1"))
    n = [a for a in pyrrole.atoms if a.element == 7][0]
    assert n.total_h == 1 and n.implicit_h == 0
    for smiles, heteroatom in (("c1ccoc1", 8), ("c1ccsc1", 16)):
        mol = assign_implicit_hydrogens(parse_smiles(smiles))
        het = [a for a in mol.atoms if a.element == heteroatom][0]
        assert het.total_h == 0


def test_fused_aromatic_junction_carbons():
    naph = assign_implicit_hydrogens(parse_smiles("c1ccc2ccccc2c1"))
    hs = sorted(a.implicit_h for a in naph.atoms)
    assert hs == [0, 0, 1, 1, 1, 1, 1, 1, 1, 1]


def test_valence_exceeded():
    with pytest.raises(ValenceError) as err:
        assign_implicit_hydrogens(parse_smiles("C(C)(C)(C)(C)C"))
    assert err.value.atom_index == 0 and err.value.offset == 0
    with pytest.raises(ValenceError):
        assign_implicit_hydrogens(parse_smiles("[CH5]"))
    with pytest.raises(ValenceError):
        assign_implicit_hydrogens(parse_smiles("O(C)(C)C"))


def test_valence_allows_hypervalent_s_and_p():
    for smiles in ("[O-]S(=O)(=O)[O-]", "OP(=O)(O)O", "FS(F)(F)(F)(F)F"):
        assign_implicit_hydrogens(parse_smiles(smiles))   # must not raise


def test_ring_perception_simple():
    benzene = perceive_rings(parse_smiles("c1ccccc1"))
    assert all(a.in_ring for a in benzene.atoms)
    assert all(b.in_ring for b in benzene.bonds)


def test_ring_perception_substituents_stay_out():
    toluene = perceive_rings(parse_smiles("Cc1ccccc1"))
    methyl = toluene.atoms[0]
    assert not methyl.in_ring
    link = [b for b in toluene.bonds if 0 in (b.a, b.b)][0]
    assert not link.in_ring
    assert sum(a.in_ring for a in toluene.atoms) == 6


def test_ring_perception_fused():
    naph = parse_smiles("c1ccc2ccccc2c1")
    flagged = perceive_rings(naph)
    assert all(a.in_ring for a in flagged.atoms)
    assert all(b.in_ring for b in flagged.bonds)


def test_ring_perception_bridged():
    nor = parse_smiles("C1CC2CCC1C2")
    flagged = perceive_rings(nor)
    assert all(a.in_ring for a in flagged.atoms)
    assert all(b.in_ring for b in flagged.bonds)


def test_biphenyl_link_is_a_bridge():
    mol = perceive_rings(parse_smiles("c1ccc(cc1)-c1ccccc1"))
    assert sum(not b.in_ring for b in mol.bonds) == 1
    assert sum(a.in_ring for a in mol.atoms) == 12


def bfs_ring_flags(mol):
    """Reference ring flags: a bond is in a ring when a search from one end
    reaches the other without crossing the bond (one BFS per bond); an atom
    is in a ring when one of its bonds is."""
    adj = [[] for _ in mol.atoms]
    for bond in mol.bonds:
        adj[bond.a].append(bond.b)
        adj[bond.b].append(bond.a)

    def joined_without(a, b):
        seen = {a}
        queue = [a]
        for u in queue:                     # the queue grows while it is read
            for v in adj[u]:
                if (u, v) == (a, b) or v in seen:
                    continue
                if v == b:
                    return True
                seen.add(v)
                queue.append(v)
        return False

    bond_flags = [joined_without(bond.a, bond.b) for bond in mol.bonds]
    atom_flags = [False] * len(mol.atoms)
    for bond, flag in zip(mol.bonds, bond_flags):
        if flag:
            atom_flags[bond.a] = atom_flags[bond.b] = True
    return atom_flags, bond_flags


def ring_flags(mol):
    return [a.in_ring for a in mol.atoms], [b.in_ring for b in mol.bonds]


@st.composite
def simple_graphs(draw):
    """Random simple graphs, often disconnected; perceive_rings reads only
    atoms and bonds, so components are left empty."""
    n = draw(st.integers(1, 24))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=2 * n)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    bonds = tuple(Bond(b, a, BOND_SINGLE) if flip else Bond(a, b, BOND_SINGLE)
                  for (a, b), flip in zip(edges, flips))
    return Molecule(atoms=tuple(Atom(element=6) for _ in range(n)), bonds=bonds,
                    source="", components=())


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(simple_graphs())
def test_ring_flags_match_per_bond_search_on_random_graphs(mol):
    assert ring_flags(perceive_rings(mol)) == bfs_ring_flags(mol)


@pytest.mark.parametrize("row", CORPUS, ids=[r["name"] for r in CORPUS])
def test_ring_flags_match_per_bond_search_on_corpus(row):
    mol = parse_smiles(row["smiles"])
    assert ring_flags(perceive_rings(mol)) == bfs_ring_flags(mol)


def test_ring_perception_has_no_depth_limit():
    n = 5000                 # five times the default recursion limit
    chain = [Bond(i, i + 1, BOND_SINGLE) for i in range(n - 1)]
    atoms = tuple(Atom(element=6) for _ in range(n))
    mol = perceive_rings(Molecule(atoms=atoms, bonds=tuple(chain), source="",
                                  components=(tuple(range(n)),)))
    assert not any(a.in_ring for a in mol.atoms)
    closed = Molecule(atoms=atoms, bonds=tuple(chain) + (Bond(0, n - 1, BOND_SINGLE),),
                      source="", components=(tuple(range(n)),))
    assert all(b.in_ring for b in perceive_rings(closed).bonds)


def test_acyclic_molecules_have_no_rings():
    mol = perceive_rings(parse_smiles("CC(C)CC(=O)O"))
    assert not any(a.in_ring for a in mol.atoms)
    assert not any(b.in_ring for b in mol.bonds)


def test_components_and_dot():
    mol = parse_smiles("CC(=O)[O-].C[NH3+]")
    assert mol.components == ((0, 1, 2, 3), (4, 5))
    assert len(mol.bonds) == 4


def test_bond_orders_and_inference():
    mol = parse_smiles("C=Cc1ccccc1")
    orders = [b.order for b in mol.bonds]
    assert orders.count(BOND_DOUBLE) == 1
    assert orders.count(BOND_AROMATIC) == 6
    assert orders.count(BOND_SINGLE) == 1   # vinyl-to-ring link
    kek = parse_smiles("C1=CC=CC=C1")
    kek_orders = [b.order for b in kek.bonds]
    assert kek_orders.count(BOND_DOUBLE) == 3
    assert kek_orders.count(BOND_SINGLE) == 3
    assert not any(a.aromatic for a in kek.atoms)


def test_ring_closure_bond_order_variants():
    a = from_smiles("C=1CCCCC=1")
    b = from_smiles("C1CCCCC=1")
    c = from_smiles("C=1CCCCC1")
    for mol in (a, b, c):
        closure = [x for x in mol.bonds if set((x.a, x.b)) == {0, 5}][0]
        assert closure.order == BOND_DOUBLE
    with pytest.raises(DuplicateBondError):
        parse_smiles("C=1CCCCC#1")


def test_stereo_markers_counted_not_kept():
    mol = parse_smiles("C/C=C\\C")
    assert mol.stereo_warnings == 2
    assert [b.order for b in mol.bonds].count(BOND_DOUBLE) == 1
    chiral = parse_smiles("N[C@@H](C)C(=O)O")
    assert chiral.stereo_warnings == 1


def test_molecules_are_immutable():
    mol = from_smiles("CCO")
    with pytest.raises(AttributeError):
        mol.source = "CCC"
    with pytest.raises(AttributeError):
        mol.atoms[0].element = 7


def test_atoms_and_bonds_are_named_tuples():
    atom = Atom(element=7, formal_charge=1)
    assert atom == Atom(7, 1, None, False, 0, 0, False, False, 0)
    assert atom == (7, 1, None, False, 0, 0, False, False, 0)
    assert hash(atom) == hash(Atom(element=7, formal_charge=1))
    assert (atom.symbol, atom.total_h) == ("N", 0)
    assert Atom(6, explicit_h=1, implicit_h=2).total_h == 3
    assert repr(Atom(element=6)) == (
        "Atom(element=6, formal_charge=0, isotope=None, aromatic=False, "
        "explicit_h=0, implicit_h=0, in_ring=False, bracket=False, offset=0)")
    assert atom._replace(implicit_h=2).implicit_h == 2
    bond = Bond(3, 1, BOND_DOUBLE)
    assert bond == Bond(a=3, b=1, order=BOND_DOUBLE, in_ring=False)
    assert hash(bond) == hash((3, 1, BOND_DOUBLE, False))
    with pytest.raises(AttributeError):
        atom.element = 6
    with pytest.raises(AttributeError):
        bond.order = BOND_SINGLE
    # the parser's positional build equals the keyword one
    assert parse_smiles("C[13CH3+]").atoms == (
        Atom(element=6),
        Atom(element=6, formal_charge=1, isotope=13, explicit_h=3,
             bracket=True, offset=1))
    assert parse_smiles("c1ccccc1").bonds[-1] == Bond(5, 0, BOND_AROMATIC)


def test_pipeline_returns_new_objects():
    raw = parse_smiles("c1ccccc1")
    with_h = assign_implicit_hydrogens(raw)
    ringed = perceive_rings(with_h)
    assert raw.atoms[0].implicit_h == 0
    assert with_h.atoms[0].implicit_h == 1
    assert not with_h.atoms[0].in_ring
    assert ringed.atoms[0].in_ring
    assert raw is not with_h is not ringed
    # each stage sets its own annotation and flag, and keeps the other's
    assert with_h.h_assigned and not with_h.rings_perceived
    ring_only = perceive_rings(raw)
    assert ring_only.rings_perceived and not ring_only.h_assigned
    assert ring_only.atoms[0].in_ring and ring_only.atoms[0].implicit_h == 0
    assert ringed.h_assigned and ringed.atoms[0].implicit_h == 1


def test_non_string_input_rejected():
    with pytest.raises(TypeError):
        parse_smiles(42)
    with pytest.raises(TypeError):
        from_smiles(42)


# --- one-pass build against the staged functions ---------------------------

def staged(text):
    return perceive_rings(assign_implicit_hydrogens(parse_smiles(text)))


def outcome(build, text):
    """The molecule a build returns, or the class and positions of the
    ParseError it raises."""
    try:
        mol = build(text)
    except sm.ParseError as exc:
        return type(exc), exc.offset, getattr(exc, "atom_index", None)
    assert all(type(a) is Atom for a in mol.atoms)
    assert all(type(b) is Bond for b in mol.bonds)
    return mol


def assert_one_pass_matches_stages(text):
    expected = outcome(staged, text)
    assert outcome(from_smiles, text) == expected
    # the two annotations are independent, so their order does not matter
    assert outcome(lambda t: assign_implicit_hydrogens(
        perceive_rings(parse_smiles(t))), text) == expected


VALENCE_FAILURES = ["C(C)(C)(C)(C)C", "[CH5]", "O(C)(C)C", "CC=C(=O)=O",
                    "C#C=C", "N#N#N", "FCl(C)", "CC.c1cc(=O)(C)ccc1"]


@pytest.mark.parametrize(
    "text", [r["smiles"] for r in CORPUS + MALFORMED] + VALENCE_FAILURES)
def test_from_smiles_equals_staged_build(text):
    assert_one_pass_matches_stages(text)


@pytest.mark.parametrize("row", CORPUS, ids=[r["name"] for r in CORPUS])
def test_from_smiles_equals_staged_build_field_for_field(row):
    built, expected = from_smiles(row["smiles"]), staged(row["smiles"])
    for name in ("source", "components", "stereo_warnings", "h_assigned",
                 "rings_perceived"):
        assert getattr(built, name) == getattr(expected, name)
    for got, want in ((built.atoms, expected.atoms), (built.bonds, expected.bonds)):
        assert [x._asdict() for x in got] == [x._asdict() for x in want]
        # repr also tells True from 1 and an Atom from a plain tuple
        assert list(map(repr, got)) == list(map(repr, want))


def test_valence_failures_keep_their_position_in_one_pass():
    for text in VALENCE_FAILURES:
        cls, offset, atom_index = outcome(from_smiles, text)
        assert cls is ValenceError and atom_index is not None
        assert parse_smiles(text).atoms[atom_index].offset == offset


ATOM_TOKENS = ("C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "P", "F",
               "Cl", "Br", "I", "B", "[nH]", "[NH4+]", "[O-]", "[13CH3]",
               "[C@@H]", "[S+2]")
BOND_TOKENS = ("", "", "", "=", "#", ":", "/")
TAIL_TOKENS = ("", "", "", "(C)", "(=O)", "(C3CC3)", "C4CCNC4", "c5ccccc5",
               "c1ccc2ccccc2c1", ".")

# Chains of bond-atom-tail units, often valid, ringed or over valence, next
# to free token soup, mostly malformed.
chain_smiles = st.tuples(
    st.sampled_from(ATOM_TOKENS),
    st.lists(st.tuples(st.sampled_from(BOND_TOKENS), st.sampled_from(ATOM_TOKENS),
                       st.sampled_from(TAIL_TOKENS)).map("".join), max_size=15),
).map(lambda t: t[0] + "".join(t[1]))
token_soup = st.lists(st.sampled_from(ATOM_TOKENS + BOND_TOKENS + TAIL_TOKENS
                                      + ("(", ")", "1", "2", "%10")),
                      max_size=30).map("".join)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.one_of(chain_smiles, token_soup))
def test_from_smiles_equals_staged_build_on_random_text(text):
    assert_one_pass_matches_stages(text)


# The SMILES alphabet plus non-ASCII digits (superscript two, Arabic-Indic
# three, Devanagari five), letters and a no-break space.  str.isdigit takes
# all three digits; the parser must treat them as unknown symbols.
ALPHABET = "CcNnOoSsPpBbFIlrHX[]()=#:/\\@+-%.0123456789 ²٣५Éé\u00a0"


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=20))
def test_any_text_fails_only_with_a_parse_error(text):
    try:
        from_smiles(text)
    except sm.ParseError:
        pass
