"""Workspace file format: grammar, error positions, canonical serialization."""

import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import DATA, k2, make_two_copies
from gsg import (
    GammaAmalgam,
    GammaHomomorphism,
    GammaSemigroup,
    GsgError,
    InvalidIdentifier,
    ParseError,
    UnknownIdentifier,
    UnresolvedReference,
    Workspace,
    parse,
    serialize,
    validate_table,
)
from gsg import textio
from gsg.families import zmod
from gsg.textio import _column, _tokens
from oracles import grammar_tokens

Z2_TEXT = """semigroup Z2
elements 0 1
gammas g
op 0 g 0 = 0
op 0 g 1 = 1
op 1 g 0 = 1
op 1 g 1 = 0
end
"""

FIXTURE_FILES = sorted(p.name for p in DATA.glob("*.gsg"))

ID_Z2_TEXT = "hom f : Z2 -> Z2\nmap 0 -> 0\nmap 1 -> 1\ngmap g -> g\nend\n"


def interleaved_blocks():
    """Z2, the identity hom f of Z2, then Z4: a hom between two semigroups."""
    z2 = zmod(2)
    return z2, GammaHomomorphism("f", z2, z2, {"0": "0", "1": "1"}, {"g": "g"}), zmod(4)


def interleaved_text():
    return Z2_TEXT + "\n" + ID_Z2_TEXT + "\n" + (DATA / "z4.gsg").read_text()


def test_fixture_directory_is_populated():
    assert len(FIXTURE_FILES) == 12


def test_parse_single_semigroup():
    ws = parse(Z2_TEXT)
    assert len(ws.semigroups) == 1
    s = ws.semigroup("Z2")
    assert s.elements == ("0", "1")
    assert s.gammas == ("g",)
    assert (s.table == zmod(2).table).all()


def test_comments_and_blank_lines_are_ignored():
    noisy = """
# a table with every kind of noise
semigroup   Z2     # trailing comment
  elements 0 1

  gammas g
op 0 g 0 = 0   # the identity cell
op 0 g 1 = 1
op 1 g 0 = 1
op 1 g 1 = 0
end
"""
    assert parse(noisy).semigroup("Z2") == parse(Z2_TEXT).semigroup("Z2")


def test_repeated_consistent_op_lines_are_fine():
    text = Z2_TEXT.replace("end", "op 1 g 1 = 0\nend", 1)
    assert parse(text).semigroup("Z2") == parse(Z2_TEXT).semigroup("Z2")


def test_serialize_orders_op_lines_row_major():
    lines = serialize(Workspace.of(semigroups=[zmod(2)])).splitlines()
    ops = [ln for ln in lines if ln.startswith("op")]
    assert ops == ["op 0 g 0 = 0", "op 0 g 1 = 1", "op 1 g 0 = 1", "op 1 g 1 = 0"]


def test_serialize_parse_is_a_fixpoint_on_all_fixture_files():
    # every fixture lists its semigroups, then its homs, then its amalgam;
    # the last text interleaves a hom between two semigroups
    texts = [(name, (DATA / name).read_text()) for name in FIXTURE_FILES]
    for name, text in texts + [("interleaved", interleaved_text())]:
        assert serialize(parse(text)) == text, name


def test_round_trip_preserves_structure():
    for name in FIXTURE_FILES:
        ws = parse((DATA / name).read_text())
        again = parse(serialize(ws))
        assert again.semigroups == ws.semigroups, name
        assert again.homs == ws.homs, name
        assert again.amalgams == ws.amalgams, name
        assert again.blocks == ws.blocks, name


def test_serialize_round_trips_a_programmatic_workspace():
    a = make_two_copies()
    # an amalgam name is any token: punctuation but '#', '=' and '->' is kept
    for b in (a, GammaAmalgam("x-y>:z", a.core, a.parts, a.maps, a.mode)):
        ws = Workspace.of(semigroups=[b.core, *b.parts], homs=list(b.maps),
                          amalgams=[b])
        assert parse(serialize(ws)).amalgams == (b,)


def test_workspace_is_its_blocks_in_declaration_order():
    blocks = interleaved_blocks()
    ws = Workspace(blocks)
    text = serialize(ws)
    assert text == interleaved_text()
    again = parse(text)
    assert again == ws
    assert again.blocks == blocks


def test_workspace_views_are_the_blocks_of_each_kind_in_order():
    z2, f, z4 = interleaved_blocks()
    a = make_two_copies()
    ws = Workspace((z2, f, *a.parts, z4, a, a.core, *a.maps))
    assert ws.semigroups == (z2, *a.parts, z4, a.core)
    assert ws.homs == (f, *a.maps)
    assert ws.amalgams == (a,)
    # a lookup returns the first block of its kind with that name
    assert ws.semigroup("Z4") is z4 and ws.hom("f") is f and ws.amalgam(a.name) is a
    assert Workspace.of(semigroups=[z2, z4], homs=[f], amalgams=[a]).blocks == (z2, z4, f, a)


def test_serialize_writes_every_block_and_parse_rejects_a_repeated_name():
    z2, other = zmod(2), zmod(3, name="Z2")
    text = serialize(Workspace.of(semigroups=[z2, other]))
    assert text == serialize(Workspace((z2,))) + "\n" + serialize(Workspace((other,)))
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == "10:1: semigroup 'Z2' declared twice"


def test_workspace_lookup_errors():
    ws = parse(Z2_TEXT)
    with pytest.raises(UnknownIdentifier):
        ws.semigroup("nope")
    with pytest.raises(UnknownIdentifier):
        ws.hom("f")
    with pytest.raises(UnknownIdentifier):
        ws.amalgam("a")


# ------------------------------------------------------------- error positions

def err(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    return exc.value


def test_unknown_toplevel_directive():
    e = err("frobnicate Z2\n")
    assert (e.line, e.col) == (1, 1)
    assert "expected 'semigroup'" in e.message


def test_semigroup_header_needs_exactly_one_name():
    e = err("semigroup\nend\n")
    assert (e.line, e.col) == (1, 1)
    e = err("semigroup A B\nend\n")
    assert e.line == 1


def test_missing_end():
    e = err("semigroup S\nelements a\ngammas g\nop a g a = a\n")
    assert e.line == 4 and "missing 'end'" in e.message


def test_op_line_before_declarations():
    e = err("semigroup S\nop a g a = a\nend\n")
    assert (e.line, e.col) == (2, 1)
    assert "must follow" in e.message


def test_elements_line_given_twice():
    e = err("semigroup S\nelements a\nelements b\ngammas g\nend\n")
    assert (e.line, e.col) == (3, 1)


def test_unresolved_element_in_op_line():
    text = "semigroup S\nelements 0 1\ngammas g\nop 1 g 1 = 2\nend\n"
    with pytest.raises(UnresolvedReference) as exc:
        parse(text)
    e = exc.value
    assert e.name == "2"
    assert (e.line, e.col) == (4, 12)


def test_unresolved_gamma_in_op_line():
    text = "semigroup S\nelements 0\ngammas g\nop 0 h 0 = 0\nend\n"
    with pytest.raises(UnresolvedReference) as exc:
        parse(text)
    assert exc.value.name == "h"
    assert (exc.value.line, exc.value.col) == (4, 6)


def test_conflicting_op_lines():
    text = ("semigroup S\nelements 0 1\ngammas g\n"
            "op 0 g 0 = 0\nop 0 g 0 = 1\nend\n")
    e = err(text)
    assert e.line == 5
    assert "conflicting" in e.message or "0" in e.message


def test_incomplete_table_surfaces_at_end():
    text = "semigroup S\nelements 0 1\ngammas g\nop 0 g 0 = 0\nend\n"
    e = err(text)
    assert e.line == 5
    assert "missing" in e.message


def test_bad_identifier_surfaces_at_end():
    # '->' tokenizes alone, so it is taken as the block's name, and the
    # semigroup built at 'end' rejects it
    text = "semigroup ->\nelements a\ngammas g\nop a g a = a\nend\n"
    e = err(text)
    assert (e.line, e.col) == (5, 1)
    assert e.message == str(InvalidIdentifier("->", "semigroup name"))
    # a hom or amalgam block name fails at its block's 'end' the same way
    z2 = (DATA / "z2.gsg").read_text()
    for bad in ("->", "="):
        e = err(z2 + ID_Z2_TEXT.replace("hom f", f"hom {bad}"))
        assert (e.line, e.col) == (13, 1)
        assert e.message == str(InvalidIdentifier(bad, "hom name"))
    text = (DATA / "amalgam_two_copies.gsg").read_text()
    e = err(text.replace("amalgam two_copies\n", "amalgam ->\n"))
    assert (e.line, e.col) == (45, 1)
    assert e.message == str(InvalidIdentifier("->", "amalgam name"))


@pytest.mark.parametrize("text, line, col, token, kind", [
    ("semigroup S\nelements a = b\ngammas g\nend\n", 2, 12, "=", "element"),
    ("semigroup S\nelements = a\ngammas g\nend\n", 2, 10, "=", "element"),
    ("semigroup S\nelements -> a\ngammas g\n"
     + "".join(f"op {x} g {y} = a\n" for x in ("->", "a") for y in ("->", "a"))
     + "end\n", 2, 10, "->", "element"),
    ("semigroup S\nelements a\ngammas g->\nend\n", 3, 9, "->", "gamma"),
], ids=["equals-between-names", "equals-first", "arrow-with-full-table", "glued-arrow-gamma"])
def test_equals_and_arrow_are_rejected_on_the_name_lines(text, line, col, token, kind):
    e = err(text)
    assert (e.line, e.col) == (line, col)
    assert e.message == str(InvalidIdentifier(token, kind))


def test_duplicate_semigroup_name_points_at_second_header():
    text = Z2_TEXT + "\n" + Z2_TEXT
    e = err(text)
    assert "declared twice" in e.message
    assert e.line == 10          # header line of the second block


def test_hom_header_shape():
    e = err(Z2_TEXT + "hom f Z2 -> Z2\nend\n")
    assert e.line == 9
    assert "hom <name> : <src> -> <dst>" in e.message


def test_hom_unknown_source():
    with pytest.raises(UnresolvedReference) as exc:
        parse(Z2_TEXT + "hom f : ZZ -> Z2\nend\n")
    assert exc.value.name == "ZZ"
    assert (exc.value.line, exc.value.col) == (9, 9)


def test_hom_missing_map_line():
    e = err(Z2_TEXT + "hom f : Z2 -> Z2\nmap 0 -> 0\ngmap g -> g\nend\n")
    assert e.line == 12
    assert "no 'map' line" in e.message


def test_hom_element_mapped_twice():
    e = err(Z2_TEXT + "hom f : Z2 -> Z2\nmap 0 -> 0\nmap 0 -> 1\n"
            "map 1 -> 1\ngmap g -> g\nend\n")
    assert e.line == 11
    assert "mapped twice" in e.message


def test_amalgam_missing_fields_listed():
    e = err("semigroup U\nelements u\ngammas g\nop u g u = u\nend\n"
            "amalgam a\ncore U\nend\n")
    assert e.line == 8
    assert "missing" in e.message
    assert "parts" in e.message and "maps" in e.message and "mode" in e.message


def test_amalgam_rejects_unknown_mode():
    e = err("amalgam a\nmode upside-down\nend\n")
    assert (e.line, e.col) == (2, 6)
    assert "same-gamma" in e.message


def test_amalgam_defects_surface_at_header():
    # core and part disagree on the gamma list under same-gamma mode
    text = """semigroup U
elements u
gammas g
op u g u = u
end
semigroup S1
elements a
gammas g
op a g a = a
end
semigroup S2
elements c
gammas h
op c h c = c
end
hom f1 : U -> S1
map u -> a
gmap g -> g
end
hom f2 : U -> S2
map u -> c
gmap g -> h
end
amalgam broken
core U
parts S1 S2
maps f1 f2
mode same-gamma
end
"""
    e = err(text)
    assert (e.line, e.col) == (24, 1)
    assert "gamma" in e.message.lower()


# the errors of 'hom' and 'amalgam' block lines, each pinned by class, line,
# column and message: 'map' and 'gmap' lines share their checks, and so do
# the 'core', 'parts', 'maps' and 'mode' lines
HOM_HEAD = Z2_TEXT + "hom f : Z2 -> Z2\n"                      # header: line 9
HOM_LINES = "map 0 -> 0\nmap 1 -> 1\ngmap g -> g\n"
TWO_COPIES = (DATA / "amalgam_two_copies.gsg").read_text()
AMALGAM_HEAD = TWO_COPIES[:TWO_COPIES.index("amalgam")] + "amalgam a\n"  # line 40
AMALGAM_LINES = {"core": "core U\n", "parts": "parts S1 S2\n",
                 "maps": "maps f1 f2\n", "mode": "mode same-gamma\n"}


def amalgam_block(**lines):
    """The two_copies amalgam as block 'a', with some of its lines replaced."""
    return (AMALGAM_HEAD + "".join(lines.get(k, v) for k, v in AMALGAM_LINES.items())
            + "end\n")


@pytest.mark.parametrize("text, cls, line, col, message", [
    (HOM_HEAD + "map 2 -> 0\n", UnresolvedReference, 10, 5, "unresolved reference '2'"),
    (HOM_HEAD + "map 0 -> 2\n", UnresolvedReference, 10, 10, "unresolved reference '2'"),
    (HOM_HEAD + "map 0 -> 0\nmap 0 -> 1\n", ParseError, 11, 5, "element '0' mapped twice"),
    (HOM_HEAD + "map 1 -> 1\ngmap g -> g\nend\n", ParseError, 12, 1,
     "no 'map' line for element '0'"),
    (HOM_HEAD + "map 0 -> 0\ngmap g -> g\nend\n", ParseError, 12, 1,
     "no 'map' line for element '1'"),
    (HOM_HEAD + "end\n", ParseError, 10, 1, "no 'map' line for element '0'"),
    (HOM_HEAD + "map 0 0\n", ParseError, 10, 1, "expected 'map <a> -> <b>'"),
    (HOM_HEAD + "gmap h -> g\n", UnresolvedReference, 10, 6, "unresolved reference 'h'"),
    (HOM_HEAD + "gmap g -> h\n", UnresolvedReference, 10, 11, "unresolved reference 'h'"),
    (HOM_HEAD + "gmap g -> g\ngmap g -> g\n", ParseError, 11, 6, "gamma 'g' mapped twice"),
    (HOM_HEAD + "map 0 -> 0\nmap 1 -> 1\nend\n", ParseError, 12, 1,
     "no 'gmap' line for gamma 'g'"),
    (HOM_HEAD + "gmap g = g\n", ParseError, 10, 1, "expected 'gmap <a> -> <b>'"),
    (HOM_HEAD + "op 0 -> 0\n", ParseError, 10, 1,
     "expected 'map', 'gmap', or 'end', got 'op'"),
    (HOM_HEAD + HOM_LINES + "end f\n", ParseError, 13, 5, "nothing may follow 'end'"),
    (HOM_HEAD + HOM_LINES + "\n# no end\n", ParseError, 14, 1, "hom 'f' is missing 'end'"),
    (amalgam_block(core="core U\ncore U\n"), ParseError, 42, 1, "'core' given twice"),
    (amalgam_block(core="core U S1\n"), ParseError, 41, 1, "expected 'core <name>'"),
    (amalgam_block(core="core V\n"), UnresolvedReference, 41, 6, "unresolved reference 'V'"),
    (amalgam_block(parts="parts S1 S2\nparts S1 S2\n"), ParseError, 43, 1,
     "'parts' given twice"),
    (amalgam_block(parts="parts S1\n"), ParseError, 42, 1, "expected 'parts <s1> <s2>'"),
    (amalgam_block(parts="parts S1 S3\n"), UnresolvedReference, 42, 10,
     "unresolved reference 'S3'"),
    (amalgam_block(maps="maps f1 f2\nmaps f1 f2\n"), ParseError, 44, 1,
     "'maps' given twice"),
    (amalgam_block(maps="maps f1 f2 f3\n"), ParseError, 43, 1, "expected 'maps <f1> <f2>'"),
    (amalgam_block(maps="maps g1 f2\n"), UnresolvedReference, 43, 6,
     "unresolved reference 'g1'"),
    (amalgam_block(mode="mode same-gamma\nmode disjoint\n"), ParseError, 45, 1,
     "'mode' given twice"),
    (amalgam_block(mode="mode\n"), ParseError, 44, 1, "expected 'mode <name>'"),
    (amalgam_block(mode="mode glued\n"), ParseError, 44, 6,
     "mode must be 'same-gamma' or 'disjoint'"),
    (amalgam_block(mode="mode same-gamma\nhom f1\n"), ParseError, 45, 1,
     "expected 'core', 'parts', 'maps', 'mode', or 'end', got 'hom'"),
    (amalgam_block()[:-len("end\n")] + "end a\n", ParseError, 45, 5,
     "nothing may follow 'end'"),
    (amalgam_block()[:-len("end\n")], ParseError, 44, 1, "amalgam 'a' is missing 'end'"),
], ids=["map-unknown-source", "map-unknown-target", "map-twice", "map-missing-first",
        "map-missing-last", "map-missing-before-gmap", "map-malformed",
        "gmap-unknown-source", "gmap-unknown-target", "gmap-twice", "gmap-missing",
        "gmap-malformed", "hom-unknown-line", "hom-token-after-end", "hom-no-end",
        "core-twice", "core-shape", "core-unresolved", "parts-twice", "parts-shape",
        "parts-unresolved", "maps-twice", "maps-shape", "maps-unresolved",
        "mode-twice", "mode-shape", "mode-unknown", "amalgam-unknown-line",
        "amalgam-token-after-end", "amalgam-no-end"])
def test_block_line_errors(text, cls, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    e = exc.value
    assert (type(e), e.line, e.col, e.message) == (cls, line, col, message)


@pytest.mark.parametrize("name", ["x#y", "two words", "", "a=b"])
def test_amalgam_name_must_survive_the_text_format(name):
    a = make_two_copies()
    with pytest.raises(InvalidIdentifier) as exc:
        GammaAmalgam(name, a.core, a.parts, a.maps, a.mode)
    assert (exc.value.token, exc.value.kind) == (name, "amalgam name")


def test_parse_error_string_carries_position():
    e = err("frobnicate\n")
    assert str(e).startswith("1:1: ")


def test_glued_equals_and_arrows_are_tokens():
    assert _tokens("op a g b=c") == ["op", "a", "g", "b", "=", "c"]
    assert _tokens("map a->b # a->c") == ["map", "a", "->", "b"]
    assert _tokens("->>") == ["->", ">"]
    assert _tokens("a-> ->b =c= -x") == ["a", "->", "->", "b", "=", "c", "=", "-x"]
    assert _tokens("  op 0 g 1 = 1  ") == ["op", "0", "g", "1", "=", "1"]


def test_glued_lines_parse_like_spaced_ones():
    glued = (Z2_TEXT.replace(" = ", "=")
             + "hom f : Z2->Z2\nmap 0->1 # swap\nmap 1 ->0\ngmap g-> g\nend\n")
    spaced = Z2_TEXT + "hom f : Z2 -> Z2\nmap 0 -> 1\nmap 1 -> 0\ngmap g -> g\nend\n"
    assert serialize(parse(glued)) == serialize(parse(spaced))


def test_error_columns_count_glued_tokens():
    text = "semigroup S\nelements 0\ngammas g\nop 0 g 0=zz\nend\n"
    with pytest.raises(UnresolvedReference) as exc:
        parse(text)
    assert (exc.value.name, exc.value.line, exc.value.col) == ("zz", 4, 10)
    e = err(Z2_TEXT + "hom f : Z2 -> Z2\nmap 0->0\nmap  0->1\nend\n")
    assert (e.line, e.col) == (11, 6)
    assert "mapped twice" in e.message


# whitespace that does not end a line: str.split and the token grammar's
# \s both split on it
INLINE_SPACE = "".join(c for c in map(chr, range(0x110000))
                       if c.isspace() and len(f"a{c}a".splitlines()) == 1)
GRAMMAR_ALPHABET = "ab01 \t#=->>" + INLINE_SPACE


@given(st.text(alphabet=GRAMMAR_ALPHABET, max_size=40))
def test_line_tokens_follow_the_token_grammar(line):
    assert _tokens(line) == [tok for tok, _ in grammar_tokens(line)]


@given(st.text(alphabet=GRAMMAR_ALPHABET, max_size=40))
def test_token_columns_follow_the_token_grammar(line):
    assert [_column(line, k) for k in range(len(_tokens(line)))] == \
        [col for _, col in grammar_tokens(line)]


def workload_size_table():
    """An n = 40, two-gamma table as the cli benchmark writes it: its
    elements, gammas, index table, row-major entries, the entries in
    shuffled order, and the text of its block with the shuffled op lines."""
    n, g = 40, 2
    rng = np.random.default_rng(7)
    elements = tuple(f"s{i}" for i in range(n))
    gammas = tuple(f"g{j}" for j in range(g))
    table = rng.integers(n, size=(n, g, n))
    entries = [(elements[i], gammas[j], elements[k], elements[table[i, j, k]])
               for i in range(n) for j in range(g) for k in range(n)]
    shuffled = [entries[t] for t in rng.permutation(len(entries))]
    text = ("semigroup S\nelements " + " ".join(elements)
            + "\ngammas " + " ".join(gammas) + "\n"
            + "".join(f"op {x} {h} {y} = {z}\n" for x, h, y, z in shuffled) + "end\n")
    return elements, gammas, table, entries, shuffled, text


def test_workload_size_table_parses_to_the_validated_table():
    elements, gammas, table, entries, shuffled, text = workload_size_table()
    s = parse(text).semigroup("S")
    assert s == validate_table("S", elements, gammas, shuffled)
    assert s == GammaSemigroup("S", elements, gammas, table)
    canonical = serialize(Workspace.of(semigroups=[s]))
    assert canonical.splitlines()[3:-1] == [
        f"op {x} {h} {y} = {z}" for x, h, y, z in entries]
    assert serialize(parse(canonical)) == canonical


def spied_tokens(text):
    """The lines parse(text) hands to the tokenizer, and parse's outcome."""
    seen = []

    def spy(raw):
        seen.append(raw)
        return _tokens(raw)

    with mock.patch.object(textio, "_tokens", spy):
        return seen, parse_outcome(text)


def test_clean_op_lines_skip_the_tokenizer():
    text = workload_size_table()[-1]
    seen, outcome = spied_tokens(text)
    assert outcome == serialize(parse(text))
    assert seen == [ln for ln in text.splitlines() if not ln.startswith("op ")]


OP_HEADER = "semigroup S\nelements a b c\ngammas g\n"


@st.composite
def op_lines(draw):
    """Mostly well-formed op lines over OP_HEADER's names: each piece may be
    swapped for a stray one, pieces may be glued or spaced by any inline
    whitespace, and a comment may follow."""
    def rarely():
        return draw(st.sampled_from(range(6))) == 5

    stray = st.sampled_from(["op", "a", "g", "=", "->", "#", "b=c", "a->", "=c",
                             "#a", "c#", "x"])
    right = ["op", draw(st.sampled_from("abc")), "g",
             draw(st.sampled_from("abc")), "=", draw(st.sampled_from("abc"))]
    pieces = [draw(stray) if rarely() else r for r in right]
    space = st.text(alphabet=INLINE_SPACE, max_size=2)
    line = draw(space) + pieces[0]
    for piece in pieces[1:]:
        line += ("" if rarely() else draw(space) or " ") + piece
    line += draw(space)
    if rarely():
        line += draw(st.sampled_from(["#", " # a = b", "#->", "\t#op"]))
    return line


@given(op_lines())
def test_lines_that_skip_the_tokenizer_split_into_their_tokens(line):
    # a line the parser resolves without the tokenizer must be one whose
    # whitespace split is its token list, and must parse as its tokens do
    # on a line that a trailing '#' sends through the tokenizer
    seen, outcome = spied_tokens(OP_HEADER + line + "\nend\n")
    if line not in seen:
        toks = [tok for tok, _ in grammar_tokens(line)]
        assert line.split() == toks
        tokenized = " ".join(toks) + " #"
        again, tokenized_outcome = spied_tokens(OP_HEADER + tokenized + "\nend\n")
        assert tokenized in again
        assert outcome == tokenized_outcome


# ------------------------------------------------------------------- fuzzing

# clean and glued op lines, trailing comments, tabs and no-break spaces
NOISY_BASE = (
    "semigroup U\n"
    "elements\tu0 u1\n"
    "gammas g # one gamma\n"
    "op u0 g u0=u0\n"
    "op u0\tg u1 = u1   # spaced\n"
    "op u1 g\xa0u0 =u1\n"
    "op\xa0u1 g u1 = u0\t\n"
    "end\n"
    "semigroup A\n"
    "elements a0\xa0a1\n"
    "gammas\tg\n"
    "op a0 g a0 = a0 # comment\n"
    "op a0 g a1= a1\n"
    "op a1\tg a0 = a1\n"
    "op a1 g a1 = a0\n"
    "end\n"
    "hom f : U->A\n"
    "map u0->a0 # glued arrow\n"
    "map\tu1 -> a1\n"
    "gmap g\xa0-> g\n"
    "end\n"
)
MUTATION_BASES = {
    "amalgam_two_copies.gsg": (DATA / "amalgam_two_copies.gsg").read_text(),
    "z4.gsg": (DATA / "z4.gsg").read_text(),
    "noisy op lines": NOISY_BASE,
}
MUTATION_GOLDEN = DATA / "parse_mutation_outcomes.json"


def mutants(base):
    """200 seeded mutations of one file's text, each 1 to 6 single
    character replacements, insertions or deletions."""
    rng = random.Random(11)
    alphabet = "abgu01 #=->\n"
    for _ in range(200):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if kind == 0:
                chars[pos] = rng.choice(alphabet)
            elif kind == 1:
                chars.insert(pos, rng.choice(alphabet))
            else:
                del chars[pos]
        yield "".join(chars)


def parse_outcome(text):
    """The canonical text of what parses, else the error class and message."""
    try:
        return serialize(parse(text))
    except GsgError as e:
        return f"{type(e).__name__}: {e}"


def test_mutated_files_never_crash_the_parser():
    # the parser's only allowed failure mode is a GsgError, and whatever
    # parses must serialize; every outcome, error class, position and
    # message included, is pinned in the golden file
    golden = json.loads(MUTATION_GOLDEN.read_text())
    assert sorted(golden) == sorted(MUTATION_BASES)
    for name, base in MUTATION_BASES.items():
        assert [parse_outcome(m) for m in mutants(base)] == golden[name], name
