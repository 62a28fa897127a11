"""Reduced words over the free product of a family of gamma-semigroups.

A word is a nonempty alternating sequence x1 g1 x2 g2 ... xm of element
letters and gamma letters, and a letter is its name.  The family rule
makes every element name, and in disjoint mode every gamma name, belong to
one member only, so the product, not the word, knows each letter's member.
Two merge disciplines exist:

* same-gamma: all members share one gamma list.  A factor (x, g, y) merges
  to the member product x g y exactly when x and y come from the same
  member.  Reduced means no two consecutive element letters from one
  member.

* disjoint: members bring mutually disjoint gamma lists.  A factor merges
  exactly when x, g, y all come from the same member.  A factor whose
  outer letters share a member but whose gamma is foreign cannot merge;
  the product construction can create such factors, so reduced in this
  mode only means "no mergeable factor".  `normalize` refuses them in raw
  input, because a hand-written sequence of that shape is almost
  certainly a mistake.

Both disciplines share one normal form: `FreeProduct.reduce` merges every
mergeable factor in a single left-to-right pass over the coded letters.
Products of words associate, which is what makes that pass well defined,
so every member must be associative.  `normalize`, `is_reduced`,
`gamma_multiply`, `canonical_key` and the bounded amalgam search in
`amalgams` are all built on it.

What a family must satisfy to have a free product, the family rule, is
stated once, in `_family_defects`: every element name is declared by one
member only, and in disjoint mode every gamma name too; in same-gamma mode
all members carry one gamma list and every given map fixes it.
`FreeProduct` raises its first breach, `FreeProduct.folder` checks its
homomorphisms with it, and `amalgams.validate_amalgam` reports its breaches
for the two parts of an amalgam.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    GammaHomomorphism,
    GammaSemigroup,
    _require_associative,
    _require_ends,
    _require_homomorphism,
)
from .errors import (
    CrossFamilyGamma,
    GammaMismatch,
    GsgError,
    MalformedSequence,
    MissingHomomorphism,
    ModeMismatch,
    NameClash,
    UnknownIdentifier,
)

__all__ = ["Mode", "Word", "FreeProduct"]


class Mode(enum.Enum):
    SAME_GAMMA = "same-gamma"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class Word:
    """An alternating sequence of element and gamma names; construct
    through a FreeProduct."""
    letters: tuple[str, ...]
    mode: Mode

    @property
    def m(self) -> int:
        """Number of element letters."""
        return (len(self.letters) + 1) // 2

    def tokens(self) -> tuple[str, ...]:
        return self.letters

    def __str__(self) -> str:
        return " ".join(self.letters)


def _family_defects(members: Sequence[GammaSemigroup], mode: Mode,
                    maps: Sequence[GammaHomomorphism] = ()) -> list[GsgError]:
    """Every breach of the family rule, as unraised errors; empty when the
    members have a free product in this mode.

    Each element name, and in disjoint mode each gamma name, is declared by
    one member only (NameClash).  In same-gamma mode every member carries
    the first member's gamma list, and every map in maps fixes that list:
    it maps each shared gamma to itself, in a target whose gammas are the
    shared ones in any order (GammaMismatch).
    """
    defects: list[GsgError] = []
    rules = [("elements", "family element names must be disjoint")]
    if mode is Mode.DISJOINT:
        rules.append(("gammas", "disjoint mode needs disjoint gamma names"))
    for kind, rule in rules:
        seen: set[str] = set()     # the names of the members before s
        for s in members:
            defects += [NameClash(name, rule) for name in getattr(s, kind) if name in seen]
            seen.update(getattr(s, kind))
    if mode is Mode.SAME_GAMMA:
        shared = members[0].gammas
        defects += [GammaMismatch(f"same-gamma mode needs identical gamma lists, "
                                  f"{s.name} has {s.gammas} vs {shared}")
                    for s in members[1:] if s.gammas != shared]
        defects += [GammaMismatch(f"hom {f.name!r} must map the shared gamma list "
                                  f"identically onto its target's gammas")
                    for f in maps if set(f.target.gammas) != set(shared)
                    or any(f.gamma_map.get(h) != h for h in shared)]
    return defects


class FreeProduct:
    """The free product context: the member family plus the merge mode.

    Members must satisfy the family rule, `_family_defects`, whose first
    breach the constructor raises: mutually disjoint element names (that is
    what lets a plain name act as a letter), in same-gamma mode one shared
    gamma tuple, in disjoint mode mutually disjoint gamma names as well.
    Members must also be associative (NotAssociative otherwise), since the
    normal form is only well defined when products of words associate.

    Internally a word is a coded state: the tuple of its letter codes.
    Element codes number the members' elements in member order; gamma codes
    number the shared gamma list, or in disjoint mode the members' gamma
    lists in member order.  The product is the one holder of this name to
    code map (`element_names`, `gamma_names` and their inverses `_ecode`,
    `_gcode`) and of each letter's member: `_owner` gives the member of an
    element code, `_gowner` that of a gamma code, None for every gamma in
    same-gamma mode.  `encode` and `decode` convert between words and
    states, `merge` is the merge rule and `reduce` the normal form; every
    word operation here, and the amalgam search, goes through them.
    """

    def __init__(self, members: Sequence[GammaSemigroup],
                 mode: Mode = Mode.SAME_GAMMA):
        members = tuple(members)
        if not members:
            raise ValueError("a free product needs at least one member")
        for defect in _family_defects(members, mode):
            raise defect
        _require_associative(*members)
        self.members = members
        self.mode = mode
        self.element_names = tuple(e for s in members for e in s.elements)
        self._owner = tuple(p for p, s in enumerate(members) for _ in s.elements)
        if mode is Mode.SAME_GAMMA:
            self.shared_gammas = self.gamma_names = members[0].gammas
            self._gowner = (None,) * len(self.gamma_names)
        else:
            self.shared_gammas = None
            self.gamma_names = tuple(h for s in members for h in s.gammas)
            self._gowner = tuple(p for p, s in enumerate(members) for _ in s.gammas)
        self._ecode = {e: c for c, e in enumerate(self.element_names)}
        self._gcode = {h: c for c, h in enumerate(self.gamma_names)}
        # the merge rule as one table: _mul[g][x][y] is the code of x g y when
        # x, y and (in disjoint mode) g come from one member, else None
        n = len(self.element_names)
        self._mul: list[list[list[Optional[int]]]] = [
            [[None] * n for _ in range(n)] for _ in self.gamma_names]
        for s in members:
            lo = self._ecode[s.elements[0]]
            gammas = [self._gcode[h] for h in s.gammas]
            for x, by_gamma in enumerate(s.table.tolist()):
                for g, products in zip(gammas, by_gamma):
                    self._mul[g][lo + x][lo:lo + s.n] = [lo + z for z in products]

    # the word kernel -----------------------------------------------------

    def encode(self, w: Word) -> tuple:
        """The coded state of a word of this product; ModeMismatch or
        UnknownIdentifier when the word belongs elsewhere."""
        if not isinstance(w, Word) or w.mode is not self.mode:
            raise ModeMismatch("word does not belong to this product's mode")
        return tuple(self._code(name, k % 2 == 1) for k, name in enumerate(w.letters))

    def decode(self, state: tuple) -> Word:
        """The word a coded state stands for."""
        return Word(tuple((self.gamma_names if k % 2 else self.element_names)[c]
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
        return Word((a,), self.mode)

    def _code(self, name: str, gamma: bool) -> int:
        """The code of a letter name: the one name to code lookup."""
        try:
            return (self._gcode if gamma else self._ecode)[name]
        except KeyError:
            raise UnknownIdentifier(name, f"{'gamma' if gamma else 'element'} of the family") from None

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
            if self._owner[x] == self._owner[y]:
                raise CrossFamilyGamma(self.element_names[x], self.gamma_names[g],
                                       self.element_names[y])
        return self.decode(state)

    def parse_word(self, text: str) -> Word:
        return self.normalize(text.split())

    def is_reduced(self, w: Word) -> bool:
        return self._reduced(self.encode(w))

    def _reduced(self, state: tuple) -> bool:
        """Whether a coded state is a reduced word: odd length, nothing to
        merge."""
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
        (in any order) and every hom must fix it, as the family rule says;
        in disjoint mode each gamma letter goes through its own member's
        gamma map.
        """
        return self.folder(target, homs)(self.encode(w))

    def folder(self, target: GammaSemigroup,
               homs: Sequence[Optional[GammaHomomorphism]]) -> Callable[[tuple], str]:
        """Check the homomorphisms once, as `fold` does, and return the fold
        of coded states through them; callers that fold many states of this
        product pay for the checks only here."""
        homs = list(homs)
        for i, member in enumerate(self.members):
            if i >= len(homs) or homs[i] is None:
                raise MissingHomomorphism(i)
            _require_ends(homs[i], member, target)
            _require_homomorphism(homs[i])
        for defect in _family_defects(self.members, self.mode, homs):
            raise defect
        images = [homs[p].apply(e) for p, e in zip(self._owner, self.element_names)]
        gimages = [h if p is None else homs[p].apply_gamma(h)
                   for p, h in zip(self._gowner, self.gamma_names)]
        mul = target.mul

        def fold_state(state: tuple) -> str:
            acc = images[state[0]]
            for k in range(1, len(state), 2):
                acc = mul(acc, gimages[state[k]], images[state[k + 1]])
            return acc
        return fold_state

    # ordering ------------------------------------------------------------

    def canonical_key(self, w: Word):
        """Sort key: length first, then the letter codes.

        Words of equal length alternate in step, so element codes only ever
        compare against element codes and gamma codes against gamma codes;
        codes follow member order, then the order inside each member.
        """
        return (len(w.letters), self.encode(w))
