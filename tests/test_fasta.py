"""Sequence file reader tests."""
import pytest

from bindkit.fasta import (
    MAX_RESIDUES,
    RESIDUE_ALPHABET,
    EmptyRecordError,
    FastaError,
    IllegalResidueError,
    NoHeaderError,
    ProteinSequence,
    SequenceTooLongError,
    format_fasta,
    parse_fasta,
)


def test_single_record():
    recs = parse_fasta(">p1 some description\nMKV\nLQW\n")
    assert len(recs) == 1
    assert recs[0].id == "p1"
    assert recs[0].residues == "MKVLQW"
    assert not hasattr(recs[0], "length")            # len(rec.residues)


def test_multiple_records_keep_order():
    text = ">b\nAC\n>a\nDE\n>c\nFG\n"
    recs = parse_fasta(text)
    assert [r.id for r in recs] == ["b", "a", "c"]
    assert [r.residues for r in recs] == ["AC", "DE", "FG"]


def test_lowercase_is_normalized():
    recs = parse_fasta(">x\nmkvl\n")
    assert recs[0].residues == "MKVL"


@pytest.mark.parametrize("letter", ["ß", "ı", "ﬀ"])
def test_only_ascii_letters_are_upper_cased(letter):
    """str.upper would turn ß into SS, ı into I and ﬀ into FF, all
    residues; the letter is kept, and refused at its own position."""
    with pytest.raises(IllegalResidueError) as err:
        parse_fasta(f">a\nmk{letter}a\n")
    assert (err.value.position, err.value.residue) == (3, letter)


def test_blank_lines_and_crlf():
    recs = parse_fasta(">x desc\r\nMK\r\n\r\nVL\r\n")
    assert recs[0].residues == "MKVL"


def test_a_lone_carriage_return_ends_a_line():
    recs = parse_fasta(">x\rMK\r \t\rVL\r")
    assert (recs[0].id, recs[0].residues) == ("x", "MKVL")


# str.splitlines breaks a line, and str.strip trims one, at each of these;
# a FASTA line ends only at \n, \r\n or \r, and loses only spaces and tabs.
STRAY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
STRAY_IDS = [f"U+{ord(ch):04X}" for ch in STRAY]


@pytest.mark.parametrize("ch", STRAY, ids=STRAY_IDS)
def test_a_stray_separator_inside_residues_is_refused_at_its_position(ch):
    with pytest.raises(IllegalResidueError) as err:
        parse_fasta(f">a\nMK{ch}VL\n")
    assert (err.value.record_id, err.value.position, err.value.residue) == ("a", 3, ch)


@pytest.mark.parametrize("ch", STRAY, ids=STRAY_IDS)
def test_a_stray_separator_at_a_line_end_is_refused_at_its_position(ch):
    with pytest.raises(IllegalResidueError) as err:
        parse_fasta(f">a\nMKVL{ch}\r\nAC\n")
    assert (err.value.position, err.value.residue) == (5, ch)


@pytest.mark.parametrize("ch", STRAY, ids=STRAY_IDS)
def test_a_stray_separator_in_a_header_leaves_the_record_without_residues(ch):
    """The id still ends at the first whitespace, so what follows the
    character is the header's description, not a residue line."""
    with pytest.raises(EmptyRecordError, match="'a' has no residues"):
        parse_fasta(f">a{ch}MKV\n")


def test_header_id_stops_at_whitespace():
    recs = parse_fasta(">seq7\tnote here\nAAA\n")
    assert recs[0].id == "seq7"


def test_terminal_stop_is_stripped():
    recs = parse_fasta(">x\nMKV*\n")
    assert recs[0].residues == "MKV"


def test_internal_stop_is_an_error():
    with pytest.raises(IllegalResidueError):
        parse_fasta(">x\nMK*V\n")


def test_illegal_residue_reports_position():
    with pytest.raises(IllegalResidueError) as err:
        parse_fasta(">x\nMKJ\n")
    assert "position 3" in str(err.value)
    assert err.value.record_id == "x"


def test_digits_rejected():
    with pytest.raises(IllegalResidueError):
        parse_fasta(">x\nMK2V\n")


def test_missing_header():
    with pytest.raises(NoHeaderError):
        parse_fasta("MKVL\n")


def test_empty_record_rejected():
    with pytest.raises(EmptyRecordError):
        parse_fasta(">x\n>y\nMK\n")
    with pytest.raises(EmptyRecordError):
        parse_fasta(">x desc\n")


def test_empty_header_id_rejected():
    with pytest.raises(FastaError):
        parse_fasta("> \nMK\n")


def test_empty_input_gives_no_records():
    assert parse_fasta("") == []
    assert parse_fasta("\n\n") == []


def test_extended_codes_accepted():
    recs = parse_fasta(">x\nAXBZU\n")
    assert recs[0].residues == "AXBZU"
    assert set(recs[0].residues) <= set(RESIDUE_ALPHABET)


def test_sequence_past_max_residues_is_refused_before_its_residues():
    assert MAX_RESIDUES >= 35_000                   # titin must fit
    assert len(ProteinSequence("titin", "M" * MAX_RESIDUES).residues) == MAX_RESIDUES
    for residues in ("M" * (MAX_RESIDUES + 1), "J" * (MAX_RESIDUES + 1)):
        with pytest.raises(SequenceTooLongError,
                           match=f"'long' has {MAX_RESIDUES + 1} residues"):
            ProteinSequence("long", residues)
    with pytest.raises(FastaError, match="'p2'"):
        parse_fasta(">p1\nMK\n>p2\n" + "A" * (MAX_RESIDUES + 1) + "\n")


def test_sequence_object_validation():
    with pytest.raises(ValueError):
        ProteinSequence("p", "MK!")
    with pytest.raises(ValueError):
        ProteinSequence("", "MK")
    seq = ProteinSequence("p", "MK")
    with pytest.raises(AttributeError):
        seq.residues = "XX"


def test_round_trip_through_formatter():
    original = [
        ProteinSequence("alpha", "MKVL" * 40),
        ProteinSequence("beta", "AC"),
    ]
    text = format_fasta(original, width=60)
    for line in text.splitlines():
        assert len(line) <= 66
    again = parse_fasta(text)
    assert list(again) == original


def test_formatter_width_validation():
    with pytest.raises(ValueError):
        format_fasta([ProteinSequence("a", "MK")], width=0)
