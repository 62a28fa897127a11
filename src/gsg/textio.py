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

One table, `_KINDS`, keyed by the keyword of a block's header line, names
each block kind's class, reader and writer.  A `Workspace` is its blocks in
declaration order: `parse` reads each block through the table and appends
it, `serialize` writes every block it holds through the table, and the
views `semigroups`, `homs` and `amalgams` and the lookups by name select
blocks by the table's class.

Parsing is one pass over the lines.  A clean `op` line is one whose
whitespace split is `op x g y = z` with all four names declared in its
block; it resolves straight from that split.  Its pieces are its tokens:
a declared name is a token other than `=` and `->` (the `elements` and
`gammas` lines reject those two), so it holds no whitespace, `#`, `=` or
`->`, and the line has no comment and nothing glued.  Every other line
goes through `_tokens`.  An `op` line resolves its four names through the
name-to-index dicts of its block and writes the result index straight into
the block's table, so a conflicting entry is caught on its own line; at
`end` the `GammaSemigroup` constructor checks names and totality (a cell
left -1 is a `MissingEntry`), and a constructor error of any block becomes
a ParseError at its `end` line.
Columns are not tracked: an error re-scans its one line to find the column
it reports.

`hom` and `amalgam` blocks are read by `_block`, the one statement of a
block's `end` rules, with one branch per line shape.  `semigroup` blocks
keep their own loop for the clean `op` line above, which is what keeps a
parse fast: the `op` lines are nearly all the lines of a workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .amalgams import GammaAmalgam, validate_amalgam
from .core import GammaHomomorphism, GammaSemigroup
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


Block = Union[GammaSemigroup, GammaHomomorphism, GammaAmalgam]


@dataclass(frozen=True)
class Workspace:
    """Everything one file declared: its blocks, in declaration order.
    The views by kind and the lookups by name read them through `_KINDS`."""
    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, semigroups: Sequence[GammaSemigroup] = (),
           homs: Sequence[GammaHomomorphism] = (),
           amalgams: Sequence[GammaAmalgam] = ()) -> "Workspace":
        return cls((*semigroups, *homs, *amalgams))

    @property
    def semigroups(self) -> tuple[GammaSemigroup, ...]:
        return self._of_kind("semigroup")

    @property
    def homs(self) -> tuple[GammaHomomorphism, ...]:
        return self._of_kind("hom")

    @property
    def amalgams(self) -> tuple[GammaAmalgam, ...]:
        return self._of_kind("amalgam")

    def semigroup(self, name: str) -> GammaSemigroup:
        return self._named("semigroup", name)

    def hom(self, name: str) -> GammaHomomorphism:
        return self._named("hom", name)

    def amalgam(self, name: str) -> GammaAmalgam:
        return self._named("amalgam", name)

    def _of_kind(self, kind: str) -> tuple:
        cls = _KINDS[kind].cls
        return tuple(b for b in self.blocks if isinstance(b, cls))

    def _named(self, kind: str, name: str):
        """The first block of that kind called name; UnknownIdentifier if none is."""
        for b in self._of_kind(kind):
            if b.name == name:
                return b
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


def _block(lines, start: int, what: str):
    """(index, tokens) of every nonblank line after line start, up to and
    including the block's 'end' line: the one statement of the end rules
    of a 'hom' or 'amalgam' block.  Nothing may follow 'end', and a block
    whose text runs out first is missing it."""
    for i in range(start + 1, len(lines)):
        toks = _tokens(lines[i])
        if toks:
            if toks[0] == "end" and len(toks) != 1:
                raise _error(lines, i, 1, "nothing may follow 'end'")
            yield i, toks
    raise ParseError(len(lines), 1, f"{what} is missing 'end'")


def parse(text: str) -> Workspace:
    """Parse one workspace file.  Raises ParseError (or its subclass
    UnresolvedReference) with a 1-based line and column on any problem,
    including table totality and amalgam validity."""
    lines = text.splitlines()
    # the blocks read so far, by kind and then by name
    declared: dict[str, dict[str, Block]] = {kind: {} for kind in _KINDS}
    blocks: list[Block] = []

    i = 0
    while i < len(lines):
        toks = _tokens(lines[i])
        if not toks:
            i += 1
            continue
        head, start = toks[0], i
        if head not in _KINDS:
            raise _error(lines, i, 0,
                         f"expected 'semigroup', 'hom', or 'amalgam', got {head!r}")
        obj, i = _KINDS[head].read(lines, start, toks, declared)
        if obj.name in declared[head]:
            raise _error(lines, start, 0, f"{head} {obj.name!r} declared twice")
        declared[head][obj.name] = obj
        blocks.append(obj)
    return Workspace(tuple(blocks))


def _construct(lines, i: int, cls, *args, **kwargs):
    """cls(*args, **kwargs), with a GsgError it raises turned into a
    ParseError at line i, the block's 'end' line."""
    try:
        return cls(*args, **kwargs)
    except GsgError as e:
        raise _error(lines, i, 0, str(e)) from None


def _expect_name(lines, i: int, toks, what: str) -> str:
    if len(toks) != 2:
        raise _error(lines, i, 0, f"expected '{what} <name>'")
    return toks[1]


def _parse_semigroup(lines, start: int, header, declared):
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
                cube = np.array(table, dtype=np.int64).reshape(n, g, n)
                return _construct(lines, i, GammaSemigroup, name, elements, gammas, cube), i + 1
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


def _parse_hom(lines, start: int, header, declared):
    if len(header) != 6 or header[2] != ":" or header[4] != "->":
        raise _error(lines, start, 0, "expected 'hom <name> : <src> -> <dst>'")
    name, semigroups = header[1], declared["semigroup"]
    for k in (3, 5):
        if header[k] not in semigroups:
            raise _unresolved(lines, start, header, k)
    src, dst = semigroups[header[3]], semigroups[header[5]]
    carrier: dict[str, str] = {}
    gmap: dict[str, str] = {}
    # per line kind: what it maps, the source's names in the order 'end'
    # checks them, the source's and the target's membership tests, and the
    # map read so far
    kinds = {"map": ("element", src.elements, src.has_element, dst.has_element, carrier),
             "gmap": ("gamma", src.gammas, src.gammas.__contains__,
                      dst.gammas.__contains__, gmap)}
    for i, toks in _block(lines, start, f"hom {name!r}"):
        key = toks[0]
        if key == "end":
            for kind, (what, names, _, _, done) in kinds.items():
                for a in names:
                    if a not in done:
                        raise _error(lines, i, 0, f"no '{kind}' line for {what} {a!r}")
            return _construct(lines, i, GammaHomomorphism, name, src, dst, carrier, gmap), i + 1
        if key not in kinds:
            raise _error(lines, i, 0, f"expected 'map', 'gmap', or 'end', got {key!r}")
        if len(toks) != 4 or toks[2] != "->":
            raise _error(lines, i, 0, f"expected '{key} <a> -> <b>'")
        what, _, in_source, in_target, done = kinds[key]
        a, b = toks[1], toks[3]
        if not in_source(a):
            raise _unresolved(lines, i, toks, 1)
        if not in_target(b):
            raise _unresolved(lines, i, toks, 3)
        if a in done:
            raise _error(lines, i, 1, f"{what} {a!r} mapped twice")
        done[a] = b


# the lines of an amalgam block, in the order 'end' lists the missing
# ones, each with the names it gives after its keyword
_FIELDS = {"core": ("<name>",), "parts": ("<s1>", "<s2>"),
           "maps": ("<f1>", "<f2>"), "mode": ("<name>",)}


def _parse_amalgam(lines, start: int, header, declared):
    name = _expect_name(lines, start, header, "amalgam")
    got: dict[str, object] = {}
    for i, toks in _block(lines, start, f"amalgam {name!r}"):
        key = toks[0]
        if key == "end":
            missing = [k for k in _FIELDS if k not in got]
            if missing:
                raise _error(lines, i, 0,
                             f"amalgam block is missing: {', '.join(missing)}")
            amalgam = _construct(lines, i, GammaAmalgam, name, **got)
            try:
                amalgam._valid
            except GsgError:
                raise _error(lines, start, 0, "; ".join(
                    str(d) for d in validate_amalgam(amalgam))) from None
            return amalgam, i + 1
        if key not in _FIELDS:
            raise _error(lines, i, 0,
                         f"expected 'core', 'parts', 'maps', 'mode', or 'end', "
                         f"got {key!r}")
        if key in got:
            raise _error(lines, i, 0, f"'{key}' given twice")
        shape = _FIELDS[key]
        if len(toks) != len(shape) + 1:
            raise _error(lines, i, 0, f"expected '{key} {' '.join(shape)}'")
        if key == "mode":
            try:
                got[key] = Mode(toks[1])
            except ValueError:
                raise _error(lines, i, 1,
                             "mode must be 'same-gamma' or 'disjoint'") from None
            continue
        known = declared["hom" if key == "maps" else "semigroup"]
        for k in range(1, len(toks)):
            if toks[k] not in known:
                raise _unresolved(lines, i, toks, k)
        found = tuple(known[t] for t in toks[1:])
        # 'core' names one semigroup; 'parts' and 'maps' name pairs
        got[key] = found if len(found) == 2 else found[0]


def serialize(w: Workspace) -> str:
    """Canonical text for a workspace, every block in order; see the
    module docstring."""
    writers = {kind.cls: kind.write for kind in _KINDS.values()}
    return "\n".join([writers[type(b)](b) for b in w.blocks])


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


class _Kind(NamedTuple):
    """One block kind: its class, the reader of its block from the header
    line on (returning the block and the index of the line after its
    'end'), and the writer of its canonical text."""
    cls: type
    read: Callable
    write: Callable[..., str]


# every block kind, keyed by the keyword of its header line
_KINDS = {"semigroup": _Kind(GammaSemigroup, _parse_semigroup, _ser_semigroup),
          "hom": _Kind(GammaHomomorphism, _parse_hom, _ser_hom),
          "amalgam": _Kind(GammaAmalgam, _parse_amalgam, _ser_amalgam)}
