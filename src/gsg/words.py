"""Reduced words over the free product of a family of gamma-semigroups.

A word is a nonempty alternating sequence x1 g1 x2 g2 ... xm of element
letters and gamma letters.  Every element letter carries a pointer naming
the family member it came from.  Two merge disciplines exist:

* same-gamma: all members share one gamma list.  A factor (x, g, y) merges
  to the member product x g y exactly when x and y point at the same
  member.  Reduced means no two consecutive element letters share a
  pointer.

* disjoint: members bring mutually disjoint gamma lists, and gamma letters
  carry pointers too.  A factor merges exactly when x, g, y all point at
  the same member.  A factor whose outer letters agree but whose gamma is
  foreign cannot merge; the product construction can create such factors,
  so reduced in this mode only means "no mergeable factor".  `normalize`
  refuses them in raw input, because a hand-written sequence of that shape
  is almost certainly a mistake.

Both disciplines share one normal form: `FreeProduct.reduce` merges every
mergeable factor in a single left-to-right pass over the coded letters.
Products of words associate, which is what makes that pass well defined.
`normalize`, `is_reduced`, `gamma_multiply`, `canonical_key` and the
bounded amalgam search in `amalgams` are all built on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import GammaHomomorphism, GammaSemigroup, verify_homomorphism
from .errors import (
    CrossFamilyGamma,
    GammaMismatch,
    MalformedSequence,
    MissingHomomorphism,
    ModeMismatch,
    NameClash,
    NotAHomomorphism,
    UnknownIdentifier,
)

__all__ = ["Mode", "Letter", "GammaLetter", "Word", "FreeProduct"]


class Mode(enum.Enum):
    SAME_GAMMA = "same-gamma"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class Letter:
    """An element letter: which member it points at, and the element name."""
    pointer: int
    element: str


@dataclass(frozen=True)
class GammaLetter:
    """A gamma letter; pointer is None in same-gamma mode."""
    gamma: str
    pointer: Optional[int] = None


@dataclass(frozen=True)
class Word:
    """An alternating letter sequence; construct through a FreeProduct."""
    letters: tuple
    mode: Mode

    @property
    def m(self) -> int:
        """Number of element letters."""
        return (len(self.letters) + 1) // 2

    def element_letters(self) -> tuple[Letter, ...]:
        return self.letters[0::2]

    def gamma_letters(self) -> tuple[GammaLetter, ...]:
        return self.letters[1::2]

    def tokens(self) -> tuple[str, ...]:
        return tuple(l.element if isinstance(l, Letter) else l.gamma
                     for l in self.letters)

    def __str__(self) -> str:
        return " ".join(self.tokens())


class FreeProduct:
    """The free product context: the member family plus the merge mode.

    Members must have mutually disjoint element names (that is what lets a
    plain name act as a letter).  In same-gamma mode every member must carry
    an identical gamma tuple; in disjoint mode the gamma names must be
    mutually disjoint as well.

    Internally a word is a coded state: the tuple of its letter codes.
    Element codes number the members' elements in member order; gamma codes
    number the shared gamma list, or in disjoint mode the members' gamma
    lists in member order.  `encode` and `decode` convert between words and
    states, `merge` is the merge rule and `reduce` the normal form; every
    word operation here, and the amalgam search, goes through them.
    """

    def __init__(self, members: Sequence[GammaSemigroup],
                 mode: Mode = Mode.SAME_GAMMA):
        members = tuple(members)
        if not members:
            raise ValueError("a free product needs at least one member")
        self.members = members
        self.mode = mode
        eletters = [Letter(p, e) for p, s in enumerate(members) for e in s.elements]
        self._ecode: dict[str, int] = {}
        for c, l in enumerate(eletters):
            if l.element in self._ecode:
                raise NameClash(l.element, "family element names must be disjoint")
            self._ecode[l.element] = c
        if mode is Mode.SAME_GAMMA:
            shared = members[0].gammas
            for s in members[1:]:
                if s.gammas != shared:
                    raise GammaMismatch(
                        f"same-gamma mode needs identical gamma lists, "
                        f"{s.name} has {s.gammas} vs {shared}")
            self.shared_gammas = shared
            gletters = [GammaLetter(h, None) for h in shared]
            own = [range(len(shared))] * len(members)
        else:
            gletters, own = [], []
            for p, s in enumerate(members):
                own.append(range(len(gletters), len(gletters) + s.g))
                gletters.extend(GammaLetter(h, p) for h in s.gammas)
            self.shared_gammas = None
        self._gcode: dict[str, int] = {}
        for c, l in enumerate(gletters):
            if l.gamma in self._gcode:
                raise NameClash(l.gamma, "disjoint mode needs disjoint gamma names")
            self._gcode[l.gamma] = c
        self._eletters = tuple(eletters)
        self._gletters = tuple(gletters)
        self.element_names = tuple(l.element for l in eletters)
        self.gamma_names = tuple(l.gamma for l in gletters)
        # the merge rule as one table: _mul[g][x][y] is the code of x g y when
        # x, y and (in disjoint mode) g come from one member, else None
        n = len(eletters)
        self._mul: list[list[list[Optional[int]]]] = [
            [[None] * n for _ in range(n)] for _ in gletters]
        for s, gammas in zip(members, own):
            lo = self._ecode[s.elements[0]]
            for x, by_gamma in enumerate(s.table.tolist()):
                for g, products in zip(gammas, by_gamma):
                    self._mul[g][lo + x][lo:lo + s.n] = [lo + z for z in products]

    # the word kernel -----------------------------------------------------

    def encode(self, w: Word) -> tuple:
        """The coded state of a word of this product; ModeMismatch or
        UnknownIdentifier when the word belongs elsewhere."""
        if not isinstance(w, Word) or w.mode is not self.mode:
            raise ModeMismatch("word does not belong to this product's mode")
        state = []
        for k, l in enumerate(w.letters):
            if k % 2 == 0:
                c = self._ecode.get(l.element)
                if c is None or self._eletters[c] != l:
                    raise UnknownIdentifier(l.element, "element of the family")
            else:
                c = self._gcode.get(l.gamma)
                if c is None or self._gletters[c] != l:
                    raise UnknownIdentifier(l.gamma, "gamma of the family")
            state.append(c)
        return tuple(state)

    def decode(self, state: tuple) -> Word:
        """The word a coded state stands for."""
        return Word(tuple((self._gletters if k % 2 else self._eletters)[c]
                          for k, c in enumerate(state)), self.mode)

    def merge(self, x: int, g: int, y: int) -> Optional[int]:
        """Code of x g y when the factor merges in this product's mode, else
        None.  Same-gamma: x and y come from one member.  Disjoint: x, g and
        y all come from one member."""
        return self._mul[g][x][y]

    def reduce(self, state: tuple) -> tuple[tuple, list[tuple]]:
        """Normal form of a coded state, and the merges that reach it.

        One left-to-right pass merges each element letter into the letter
        before it whenever the factor between them merges.  A merge keeps
        the member of its left letter, so it never creates a mergeable site
        to its left: the pass ends in the normal form and takes the same
        merges, in the same order, as repeatedly merging the leftmost
        mergeable site.  Each merge is (pos, x, g, y, x g y), pos counting
        element letters from the left.
        """
        mul = self._mul
        out = list(state[:1])
        merges = []
        for k in range(1, len(state), 2):
            g, y = state[k], state[k + 1]
            z = mul[g][out[-1]][y]
            if z is None:
                out += (g, y)
            else:
                merges.append((len(out) // 2, out[-1], g, y, z))
                out[-1] = z
        return tuple(out), merges

    # construction -------------------------------------------------------

    def embed(self, i: int, a: str) -> Word:
        """The one-letter word for element a of member i."""
        s = self.members[i]
        if not s.has_element(a):
            raise UnknownIdentifier(a, f"element of {s.name}")
        return Word((Letter(i, a),), self.mode)

    def _code(self, name: str, gamma: bool) -> int:
        table = self._gcode if gamma else self._ecode
        if name not in table:
            raise UnknownIdentifier(name, f"{'gamma' if gamma else 'element'} of the family")
        return table[name]

    def normalize(self, tokens: Sequence[str]) -> Word:
        """Canonical reduced word for a raw alternating name sequence.

        In disjoint mode a surviving factor whose outer letters share a
        member (so its gamma is foreign) raises CrossFamilyGamma.
        """
        tokens = list(tokens)
        if not tokens:
            raise MalformedSequence("empty word")
        if len(tokens) % 2 == 0:
            raise MalformedSequence("a word must start and end with element letters")
        state, _ = self.reduce(tuple(self._code(tok, k % 2 == 1)
                                     for k, tok in enumerate(tokens)))
        for x, g, y in zip(state[0::2], state[1::2], state[2::2]):
            if self._eletters[x].pointer == self._eletters[y].pointer:
                raise CrossFamilyGamma(self.element_names[x], self.gamma_names[g],
                                       self.element_names[y])
        return self.decode(state)

    def parse_word(self, text: str) -> Word:
        return self.normalize(text.split())

    def is_reduced(self, w: Word) -> bool:
        state = self.encode(w)
        return len(state) % 2 == 1 and not self.reduce(state)[1]

    # arithmetic ----------------------------------------------------------

    def gamma_multiply(self, a: Word, gamma: str, b: Word) -> Word:
        """The product a gamma b: the normal form of the concatenation.  For
        reduced a and b only the junction can merge."""
        left, right = self.encode(a), self.encode(b)
        state, _ = self.reduce(left + (self._code(gamma, True),) + right)
        return self.decode(state)

    def fold(self, w: Word, target: GammaSemigroup,
             homs: Sequence[Optional[GammaHomomorphism]]) -> str:
        """Evaluate a word in a target through one homomorphism per member.

        Left-to-right: h(x1) g1 h(x2) g2 ... computed in the target's table.
        In same-gamma mode the target must live over the shared gamma list
        and every hom's gamma map must be the identity; in disjoint mode
        each gamma letter goes through its own member's gamma map.
        """
        self.encode(w)
        homs = list(homs)
        for i, member in enumerate(self.members):
            if i >= len(homs) or homs[i] is None:
                raise MissingHomomorphism(i)
            f = homs[i]
            if f.source != member:
                raise GammaMismatch(
                    f"hom {f.name!r} has source {f.source.name}, expected {member.name}")
            if f.target != target:
                raise GammaMismatch(
                    f"hom {f.name!r} has target {f.target.name}, expected {target.name}")
            bad = verify_homomorphism(f)
            if bad is not None:
                raise NotAHomomorphism(f.name, bad)
            if self.mode is Mode.SAME_GAMMA:
                if set(target.gammas) != set(self.shared_gammas):
                    raise GammaMismatch(
                        f"target {target.name} does not live over the shared gamma list")
                if any(f.gamma_map[h] != h for h in self.shared_gammas):
                    raise GammaMismatch(
                        f"hom {f.name!r} must fix every shared gamma")
        letters = w.letters
        acc = homs[letters[0].pointer].apply(letters[0].element)
        for k in range(1, len(letters), 2):
            g, x = letters[k], letters[k + 1]
            if self.mode is Mode.SAME_GAMMA:
                tg = g.gamma
            else:
                tg = homs[g.pointer].apply_gamma(g.gamma)
            acc = target.mul(acc, tg, homs[x.pointer].apply(x.element))
        return acc

    # ordering ------------------------------------------------------------

    def canonical_key(self, w: Word):
        """Sort key: length first, then the letter codes.

        Words of equal length alternate in step, so element codes only ever
        compare against element codes and gamma codes against gamma codes;
        codes follow member order, then the order inside each member.
        """
        state = self.encode(w)
        return (len(state), state)
