"""Line-based text format for workspaces of semigroups, homs, and amalgams.

Grammar, one directive per line, `#` starts a comment, blank lines are
ignored:

    semigroup <name>          hom <name> : <src> -> <dst>    amalgam <name>
    elements <tok>...         map <x> -> <y>                 core <name>
    gammas <tok>...           gmap <g> -> <h>                parts <s1> <s2>
    op <x> <g> <y> = <z>      end                            maps <f1> <f2>
    end                                                      mode same-gamma|disjoint
                                                             end

Tokens are runs of non-whitespace characters; `#`, `=`, and the two-character
arrow `->` never belong to a token (`_tokens` is the grammar).  References
resolve against blocks declared earlier in the same file.  `serialize` emits
the canonical form: declaration order, op lines sorted by index, single
spaces, newline line endings; its output is a byte-exact fixpoint of
parse-then-serialize.

Parsing is one pass over the lines.  A clean `op` line is one whose
whitespace split is `op x g y = z` with all four names declared in its
block; it resolves straight from that split.  Its pieces are its tokens:
a declared name is a token other than `=` and `->` (the `elements` and
`gammas` lines reject those two), so it holds no whitespace, `#`, `=` or
`->`, and the line has no comment and nothing glued.  Every other line
goes through `_tokens`.  An `op` line resolves its four names through the
name-to-index dicts of its block and writes the result index straight into
the block's table, so a conflicting entry is caught on its own line; at
`end` the block checks names and totality (`core.semigroup_from_cells`).
Columns are not tracked: an error re-scans its one line to find the column
it reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .amalgams import GammaAmalgam, validate_amalgam
from .core import GammaHomomorphism, GammaSemigroup, semigroup_from_cells
from .errors import (
    DuplicateEntry,
    GsgError,
    InvalidIdentifier,
    ParseError,
    UnknownIdentifier,
    UnresolvedReference,
)
from .words import Mode

__all__ = ["Workspace", "parse", "serialize"]


@dataclass(frozen=True)
class Workspace:
    """Everything one file declared, in declaration order."""
    semigroups: tuple[GammaSemigroup, ...]
    homs: tuple[GammaHomomorphism, ...]
    amalgams: tuple[GammaAmalgam, ...]
    order: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, semigroups: Sequence[GammaSemigroup] = (),
           homs: Sequence[GammaHomomorphism] = (),
           amalgams: Sequence[GammaAmalgam] = ()) -> "Workspace":
        order = tuple([("semigroup", s.name) for s in semigroups]
                      + [("hom", f.name) for f in homs]
                      + [("amalgam", a.name) for a in amalgams])
        return cls(tuple(semigroups), tuple(homs), tuple(amalgams), order)

    def semigroup(self, name: str) -> GammaSemigroup:
        return _by_name(self.semigroups, name, "semigroup")

    def hom(self, name: str) -> GammaHomomorphism:
        return _by_name(self.homs, name, "hom")

    def amalgam(self, name: str) -> GammaAmalgam:
        return _by_name(self.amalgams, name, "amalgam")


def _by_name(items, name: str, kind: str):
    """The first item called name; UnknownIdentifier of that kind if none is."""
    for x in items:
        if x.name == name:
            return x
    raise UnknownIdentifier(name, kind)


def _tokens(raw: str) -> list[str]:
    """The tokens of one line, comment stripped: every line but a clean
    'op' line (see the module docstring) comes here.  Each arrow '->', read
    from the left, and then each '=' becomes a token of its own; the rest
    splits on whitespace."""
    line = raw.split("#", 1)[0].replace("->", " -> ").replace("=", " = ")
    return line.split()


def _column(raw: str, k: int) -> int:
    """1-based column of token k of one line, by re-scanning that line:
    each token is the first occurrence of its text after the one before,
    since only whitespace lies between them."""
    toks, at = _tokens(raw), 0
    for tok in toks[:k]:
        at = raw.find(tok, at) + len(tok)
    return raw.find(toks[k], at) + 1


def _error(lines, i: int, k: int, message: str) -> ParseError:
    """A ParseError at token k of line i (0-based)."""
    return ParseError(i + 1, _column(lines[i], k), message)


def _unresolved(lines, i: int, toks, k: int) -> UnresolvedReference:
    return UnresolvedReference(toks[k], i + 1, _column(lines[i], k))


def _body(lines, start: int):
    """(index, tokens) of every nonblank line after line start."""
    for i in range(start + 1, len(lines)):
        toks = _tokens(lines[i])
        if toks:
            yield i, toks


def parse(text: str) -> Workspace:
    """Parse one workspace file.  Raises ParseError (or its subclass
    UnresolvedReference) with a 1-based line and column on any problem,
    including table totality and amalgam validity."""
    lines = text.splitlines()
    semigroups: dict[str, GammaSemigroup] = {}
    homs: dict[str, GammaHomomorphism] = {}
    amalgams: dict[str, GammaAmalgam] = {}
    order: list[tuple[str, str]] = []

    i = 0
    while i < len(lines):
        toks = _tokens(lines[i])
        if not toks:
            i += 1
            continue
        head, start = toks[0], i
        if head == "semigroup":
            obj, i = _parse_semigroup(lines, i, toks)
            known = semigroups
        elif head == "hom":
            obj, i = _parse_hom(lines, i, toks, semigroups)
            known = homs
        elif head == "amalgam":
            obj, i = _parse_amalgam(lines, i, toks, semigroups, homs)
            known = amalgams
        else:
            raise _error(lines, i, 0,
                         f"expected 'semigroup', 'hom', or 'amalgam', got {head!r}")
        if obj.name in known:
            raise _error(lines, start, 0, f"{head} {obj.name!r} declared twice")
        known[obj.name] = obj
        order.append((head, obj.name))
    return Workspace(tuple(semigroups.values()), tuple(homs.values()),
                     tuple(amalgams.values()), tuple(order))


def _expect_name(lines, i: int, toks, what: str) -> str:
    if len(toks) != 2:
        raise _error(lines, i, 0, f"expected '{what} <name>'")
    return toks[1]


def _parse_semigroup(lines, start: int, header):
    name = _expect_name(lines, start, header, "semigroup")
    elements: Optional[tuple[str, ...]] = None
    gammas: Optional[tuple[str, ...]] = None
    eindex: dict[str, int] = {}
    gindex: dict[str, int] = {}
    # until both name lines are read one dict is empty, so the clean-line
    # lookup below misses and the line reaches the tokenizer's checks
    n = g = 0
    # the index table, row-major over (x, g, y); -1 marks an empty cell
    table: Optional[list[int]] = None
    for i in range(start + 1, len(lines)):
        # a clean 'op' line: six whitespace pieces whose four names resolve
        # are its six tokens (see the module docstring)
        toks = lines[i].split()
        cell = -1
        if len(toks) == 6 and toks[0] == "op" and toks[4] == "=":
            try:
                cell = (eindex[toks[1]] * g + gindex[toks[2]]) * n + eindex[toks[3]]
                z = eindex[toks[5]]
            except KeyError:
                cell = -1
        if cell < 0:
            toks = _tokens(lines[i])
            if not toks:
                continue
            key = toks[0]
            if key == "op":
                if table is None:
                    raise _error(lines, i, 0, "'op' lines must follow 'elements' and 'gammas'")
                if len(toks) != 6 or toks[4] != "=":
                    raise _error(lines, i, 0, "expected 'op <x> <g> <y> = <z>'")
                try:
                    cell = (eindex[toks[1]] * g + gindex[toks[2]]) * n + eindex[toks[3]]
                    z = eindex[toks[5]]
                except KeyError:
                    k = next(k for k in (1, 3, 5, 2)
                             if toks[k] not in (gindex if k == 2 else eindex))
                    raise _unresolved(lines, i, toks, k) from None
            elif key == "end":
                if len(toks) != 1:
                    raise _error(lines, i, 1, "nothing may follow 'end'")
                if elements is None:
                    raise _error(lines, i, 0, "semigroup block has no 'elements' line")
                if gammas is None:
                    raise _error(lines, i, 0, "semigroup block has no 'gammas' line")
                try:
                    return semigroup_from_cells(name, elements, gammas, table), i + 1
                except GsgError as e:
                    raise _error(lines, i, 0, str(e)) from None
            elif key == "elements" or key == "gammas":
                if (elements if key == "elements" else gammas) is not None:
                    raise _error(lines, i, 0, f"'{key}' given twice")
                if len(toks) < 2:
                    raise _error(lines, i, 0, f"'{key}' needs at least one name")
                kind = key[:-1]
                for k in range(1, len(toks)):
                    # '=' and '->' are the only tokens that are not names
                    if toks[k] == "=" or toks[k] == "->":
                        raise _error(lines, i, k, str(InvalidIdentifier(toks[k], kind)))
                names = tuple(toks[1:])
                index = {t: k for k, t in enumerate(names)}
                if key == "elements":
                    elements, eindex, n = names, index, len(names)
                else:
                    gammas, gindex, g = names, index, len(names)
                if elements is not None and gammas is not None:
                    table = [-1] * (n * g * n)
                continue
            else:
                raise _error(lines, i, 0,
                             f"expected 'elements', 'gammas', 'op', or 'end', got {key!r}")
        old = table[cell]
        if old != z:
            if old >= 0:
                raise _error(lines, i, 0, str(DuplicateEntry(
                    toks[1], toks[2], toks[3], elements[old], toks[5])))
            table[cell] = z
    raise ParseError(len(lines), 1, f"semigroup {name!r} is missing 'end'")


def _parse_hom(lines, start: int, header, semigroups):
    if len(header) != 6 or header[2] != ":" or header[4] != "->":
        raise _error(lines, start, 0, "expected 'hom <name> : <src> -> <dst>'")
    name = header[1]
    for k in (3, 5):
        if header[k] not in semigroups:
            raise _unresolved(lines, start, header, k)
    src, dst = semigroups[header[3]], semigroups[header[5]]
    carrier: dict[str, str] = {}
    gmap: dict[str, str] = {}
    for i, toks in _body(lines, start):
        key = toks[0]
        if key == "end":
            if len(toks) != 1:
                raise _error(lines, i, 1, "nothing may follow 'end'")
            for e in src.elements:
                if e not in carrier:
                    raise _error(lines, i, 0, f"no 'map' line for element {e!r}")
            for h in src.gammas:
                if h not in gmap:
                    raise _error(lines, i, 0, f"no 'gmap' line for gamma {h!r}")
            return GammaHomomorphism(name, src, dst, carrier, gmap), i + 1
        elif key in ("map", "gmap"):
            if len(toks) != 4 or toks[2] != "->":
                raise _error(lines, i, 0, f"expected '{key} <a> -> <b>'")
            a, b = toks[1], toks[3]
            if key == "map":
                if not src.has_element(a):
                    raise _unresolved(lines, i, toks, 1)
                if not dst.has_element(b):
                    raise _unresolved(lines, i, toks, 3)
                if a in carrier:
                    raise _error(lines, i, 1, f"element {a!r} mapped twice")
                carrier[a] = b
            else:
                if a not in src.gammas:
                    raise _unresolved(lines, i, toks, 1)
                if b not in dst.gammas:
                    raise _unresolved(lines, i, toks, 3)
                if a in gmap:
                    raise _error(lines, i, 1, f"gamma {a!r} mapped twice")
                gmap[a] = b
        else:
            raise _error(lines, i, 0, f"expected 'map', 'gmap', or 'end', got {key!r}")
    raise ParseError(len(lines), 1, f"hom {name!r} is missing 'end'")


def _parse_amalgam(lines, start: int, header, semigroups, homs):
    name = _expect_name(lines, start, header, "amalgam")
    core: Optional[GammaSemigroup] = None
    parts: Optional[tuple[GammaSemigroup, GammaSemigroup]] = None
    maps: Optional[tuple[GammaHomomorphism, GammaHomomorphism]] = None
    mode: Optional[Mode] = None
    for i, toks in _body(lines, start):
        key = toks[0]
        if key == "end":
            if len(toks) != 1:
                raise _error(lines, i, 1, "nothing may follow 'end'")
            missing = [k for k, v in (("core", core), ("parts", parts),
                                      ("maps", maps), ("mode", mode)) if v is None]
            if missing:
                raise _error(lines, i, 0,
                             f"amalgam block is missing: {', '.join(missing)}")
            amalgam = GammaAmalgam(name, core, parts, maps, mode)
            defects = validate_amalgam(amalgam)
            if defects:
                raise _error(lines, start, 0, "; ".join(str(d) for d in defects))
            return amalgam, i + 1
        elif key == "core":
            if core is not None:
                raise _error(lines, i, 0, "'core' given twice")
            if _expect_name(lines, i, toks, "core") not in semigroups:
                raise _unresolved(lines, i, toks, 1)
            core = semigroups[toks[1]]
        elif key == "parts" or key == "maps":
            if (parts if key == "parts" else maps) is not None:
                raise _error(lines, i, 0, f"'{key}' given twice")
            if len(toks) != 3:
                what = "<s1> <s2>" if key == "parts" else "<f1> <f2>"
                raise _error(lines, i, 0, f"expected '{key} {what}'")
            known = semigroups if key == "parts" else homs
            for k in (1, 2):
                if toks[k] not in known:
                    raise _unresolved(lines, i, toks, k)
            found = (known[toks[1]], known[toks[2]])
            if key == "parts":
                parts = found
            else:
                maps = found
        elif key == "mode":
            if mode is not None:
                raise _error(lines, i, 0, "'mode' given twice")
            word = _expect_name(lines, i, toks, "mode")
            try:
                mode = Mode(word)
            except ValueError:
                raise _error(lines, i, 1,
                             "mode must be 'same-gamma' or 'disjoint'") from None
        else:
            raise _error(lines, i, 0,
                         f"expected 'core', 'parts', 'maps', 'mode', or 'end', "
                         f"got {key!r}")
    raise ParseError(len(lines), 1, f"amalgam {name!r} is missing 'end'")


def serialize(w: Workspace) -> str:
    """Canonical text for a workspace; see the module docstring."""
    blocks = []
    for kind, name in w.order:
        if kind == "semigroup":
            blocks.append(_ser_semigroup(w.semigroup(name)))
        elif kind == "hom":
            blocks.append(_ser_hom(w.hom(name)))
        else:
            blocks.append(_ser_amalgam(w.amalgam(name)))
    return "\n".join(blocks)


def _ser_semigroup(s: GammaSemigroup) -> str:
    out = [f"semigroup {s.name}",
           "elements " + " ".join(s.elements),
           "gammas " + " ".join(s.gammas)]
    names = s.elements
    for x, rows in zip(names, s.table.tolist()):
        for g, row in zip(s.gammas, rows):
            for y, z in zip(names, row):
                out.append(f"op {x} {g} {y} = {names[z]}")
    out.append("end")
    return "\n".join(out) + "\n"


def _ser_hom(f: GammaHomomorphism) -> str:
    out = [f"hom {f.name} : {f.source.name} -> {f.target.name}"]
    for e in f.source.elements:
        out.append(f"map {e} -> {f.carrier_map[e]}")
    for h in f.source.gammas:
        out.append(f"gmap {h} -> {f.gamma_map[h]}")
    out.append("end")
    return "\n".join(out) + "\n"


def _ser_amalgam(a: GammaAmalgam) -> str:
    out = [f"amalgam {a.name}",
           f"core {a.core.name}",
           f"parts {a.parts[0].name} {a.parts[1].name}",
           f"maps {a.maps[0].name} {a.maps[1].name}",
           f"mode {a.mode.value}",
           "end"]
    return "\n".join(out) + "\n"
