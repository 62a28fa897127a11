"""Amalgams of two gamma-semigroups over a shared core.

An amalgam is a core U, two parts S1 and S2 with disjoint element names,
and one monomorphism from the core into each part.  Inside the free
product of the parts, the relation pairs identify the two images of every
core element; the amalgamated product is the free product modulo the
congruence those pairs generate, the pushout of the two maps.

Deciding word equality in that quotient is not bounded in general, so
`words_equal_within` runs a breadth-first search over letter sequences up
to a length bound and a visited-state budget.  The verdict is exact in one
direction only: Equal comes with a replayable rewrite chain and is a
proof; anything else is merely inconclusive within the given bound, never
a disproof.  Soundness rests on three facts about the moves:

* substituting one member of a relation pair for the other stays in the
  same congruence class;
* splitting a letter z into a factor (x, g, y) with x g y = z inside one
  part leaves the represented element unchanged, as does merging such a
  factor back;
* every sequence denotes the product of its letters, so normalisation is
  confluent.  The search normalises with the free product's own
  `FreeProduct.reduce`, the one normal-form routine shared with word
  arithmetic, and runs over the same coded states.

The search's moves are the one definition of a move: `replay_chain`
accepts a step exactly when it is one of the moves `_Search.neighbors`
offers from the current word.  A letter has at most one partner to swap
with (`_partners`).

Every move has an inverse inside the bound: a swap or gamma swap undoes
itself, because relation pairs are symmetric, and a merge is undone by the
unmerge of its product, which is allowed because the merged sequence is
one element letter shorter than the bound.  So a breadth-first search that
exhausts its bound visits exactly one connected component, whichever state
it starts from, and the one-letter states in it form the class of the
start.  `check_natural_embedding` runs one exploration per class, not one
search per element pair; `_Decider` states the budget rules of those shared
explorations.  `pushout_mediator` runs none: once its target is associative
and its maps are homomorphisms, every move keeps the fold, so it only checks
those hypotheses.

A class exploration walks the swap quotient of the state graph, in which
the letters of one relation class (a letter and its partner, if any) are
one letter.  A swap keeps the length, so a component is closed under
swapping any letter for any member of its class: it is the full preimage
of its quotient component.

A quotient state is a string with one character per letter, the `chr` of
the least code of the letter's class (`_Search.image`).  A string caches
its hash, so a state is hashed once however often it is looked up, and a
slice or a concatenation of states copies characters in C.  Strings
compare by code point, so they sort exactly as the tuples of class codes
would: the quotient tables, the order of successors, and so the meeting
points and the lifted chains, are those of the codes.  Nothing that
reaches the output iterates a set of states, whose order would follow the
string hashes, which are salted per process.

The budget counts quotient states, in walks and probes alike: a walk stops
on budget as soon as it holds more than budget of them.  A walk that stops
on budget claims nothing, so its class holds only its start, and `mu`
under it is the element's own word.

A targeted search (`words_equal_within`, a report's probe) runs on the
swap quotient as well, from the images of its start and of its target at
once (`_Search.meet`).  The component holds the target exactly when its
quotient component holds the target's image.  Without a chain, the stop
reason depends on the start's quotient component alone: "exhausted" when
it holds at most budget states, else "budget".  The side from the start
stops the probe once it holds more than budget states after expanding a
state, and when it runs dry without meeting the other side, there is no
chain.  When neither word
is longer than the bound, every move is undone inside it, so the side
from the target running dry says the same, and the side from the start
goes on alone to learn the size of its component.

When the sides meet, the quotient path is lifted to named moves
(`_Search._lift`) through one witness (x, g, y, z) per quotient merge
(X, G, Y) -> Z.  A class has at most two letters, so one swap puts any
letter where the witness needs it: a merge first swaps its three letters to
the witness, an unmerge its one letter, and at the end letters are swapped
until the word is the target.  Swaps keep the length, so the lifted chain
stays inside the bound.  No targeted search expands a state of the search
itself; `_Search.neighbors` serves replay.

An amalgam is immutable, so it builds its search once, on first use, and
every entry point reads that one.  One constructor, `_Search`'s, makes its
moves, its factorizations and the tables of its swap quotient.

A search remembers, per bound, the whole quotient components that its
probes have walked, each a set of quotient states fixed by the amalgam and
the bound, whatever the budget.  The records are written and read in
`_Search.meet` alone.  A component is recorded only when a side of a probe
runs dry: the target's side, or the start's side, alone or not.  It is
recorded only from a start with at most bound element letters: from a
longer start, a merge leads to a word still not shorter than bound, which
may not be unmerged back, so the states reachable from it are not a
component.  The one reading rule: a probe whose start lies in a recorded
component that does not hold its target stops without a search, on
"budget" when that component holds more than budget states, else on
"exhausted", as its search would.  Every other probe searches, so a chain
is always the search's own, and every answer is the one a new search would
give.  Class walks (`walk`, and so `check_natural_embedding` and `mu`)
neither read nor write the records, so a report costs the same whatever
ran before it on the same amalgam.  The records hold at most
`_RECORD_LIMIT` quotient states over all bounds, unless one component alone
holds more: a component that would pass the limit drops every older record
first, so a larger one becomes the only record.  A search thus keeps at
most one component over the limit, of at most budget states, which the
probe that found it held already.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Collection, NamedTuple, Optional, Sequence

from .core import (
    GammaHomomorphism,
    GammaSemigroup,
    _require_associative,
    _check_token,
    _require_ends,
    classify,
    injective,
    verify_homomorphism,
)
from .errors import (
    CommutingSquareFails,
    GammaMismatch,
    GsgError,
    MalformedSequence,
    NameClash,
    NonPositiveLimit,
    NotMonomorphism,
)
from .words import FreeProduct, Mode, Word, _family_defects

__all__ = [
    "GammaAmalgam",
    "RelationSet",
    "Step",
    "EqualityVerdict",
    "Collision",
    "CrossPair",
    "EmbeddingReport",
    "MediatorReport",
    "NecessaryConditionVerdict",
    "validate_amalgam",
    "relation_generators",
    "words_equal_within",
    "mu",
    "replay_chain",
    "check_natural_embedding",
    "pushout_mediator",
    "necessary_condition",
]

DEFAULT_BOUND = 6
DEFAULT_BUDGET = 200_000

# the most quotient states one search keeps records of, over all bounds,
# unless one component alone holds more (the record rule, module docstring)
_RECORD_LIMIT = 1 << 14


@dataclass(frozen=True)
class GammaAmalgam:
    """Core, two parts, and one structure map into each part.

    Construction only fixes the shape and checks that the name is a token
    of the text format; run :func:`validate_amalgam` for the real
    invariants: the parts obey the family rule of `words` (disjoint names,
    gamma discipline), and the maps are monomorphisms from the core.
    The search entry points also need the parts to be associative, which
    building the free product requires."""

    name: str
    core: GammaSemigroup
    parts: tuple[GammaSemigroup, GammaSemigroup]
    maps: tuple[GammaHomomorphism, GammaHomomorphism]
    mode: Mode = Mode.SAME_GAMMA

    def __post_init__(self):
        _check_token(self.name, "amalgam name")
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.parts) != 2 or len(self.maps) != 2:
            raise ValueError("an amalgam has exactly two parts and two maps")

    def free_product(self) -> FreeProduct:
        return FreeProduct(self.parts, self.mode)

    @cached_property
    def _valid(self) -> bool:
        """True once :func:`validate_amalgam` finds no defect, so an amalgam
        is validated once.  An invalid amalgam raises the first defect of a
        fresh run here and caches nothing, so it raises on every call, each
        time a new exception."""
        for defect in validate_amalgam(self):
            raise defect
        return True

    @cached_property
    def _search(self) -> _Search:
        """The bounded search of this amalgam, built on first use.  An
        invalid amalgam raises here and caches nothing, so it raises on
        every call."""
        return _Search(self)


def validate_amalgam(a: GammaAmalgam) -> list[GsgError]:
    """Every violated invariant, as a list of unraised errors; empty = valid.

    First the breaches of the family rule of `words` by the two parts and
    the two maps; then the core's own invariants: its element names are
    disjoint from each part's unless it is that part, in same-gamma mode it
    carries the shared gamma list, and each map is a monomorphism from the
    core into its part."""
    defects = _family_defects(a.parts, a.mode, a.maps)
    defects += [NameClash(e, f"{a.core.name} and {s.name}")
                for s in a.parts if s != a.core
                for e in a.core.elements if s.has_element(e)]
    if a.mode is Mode.SAME_GAMMA and a.core.gammas != a.parts[0].gammas:
        defects.append(GammaMismatch(
            f"same-gamma mode needs one shared gamma list; core {a.core.name} "
            f"has {a.core.gammas}, {a.parts[0].name} has {a.parts[0].gammas}"))
    for i, (f, part) in enumerate(zip(a.maps, a.parts)):
        if f.source != a.core:
            defects.append(GammaMismatch(
                f"map {f.name!r} must start at the core {a.core.name}"))
            continue
        if f.target != part:
            defects.append(GammaMismatch(
                f"map {f.name!r} must land in part {part.name}"))
            continue
        w = verify_homomorphism(f)
        if w is not None:
            defects.append(NotMonomorphism(i, f"not a homomorphism, witness {tuple(w)}"))
        else:
            carrier_inj, gamma_inj = injective(f)
            if not carrier_inj:
                defects.append(NotMonomorphism(i, "carrier map is not injective"))
            if not gamma_inj:
                defects.append(NotMonomorphism(i, "gamma map is not injective"))
    return defects


@dataclass(frozen=True)
class RelationSet:
    """Identified letter pairs (element of S1, element of S2), plus the
    gamma pairs used for gamma-letter substitution in disjoint mode."""
    element_pairs: tuple[tuple[str, str], ...]
    gamma_pairs: tuple[tuple[str, str], ...]


def relation_generators(a: GammaAmalgam) -> RelationSet:
    """The defining pairs: both images of every core element, so the whole
    core is glued.  When the core products cover the core (u g0 u' reaches
    every element, as in every regular core) these are exactly the images
    of the core products."""
    a._valid
    u = a.core
    f1, f2 = a.maps
    s1, s2 = a.parts
    pairs = {(f1.carrier_map[x], f2.carrier_map[x]) for x in u.elements}
    element_pairs = tuple(sorted(pairs, key=lambda p: (s1.index(p[0]), s2.index(p[1]))))
    if a.mode is Mode.SAME_GAMMA:
        gamma_pairs: tuple[tuple[str, str], ...] = ()
    else:
        gset = {(f1.gamma_map[h], f2.gamma_map[h]) for h in u.gammas}
        gamma_pairs = tuple(sorted(
            gset, key=lambda p: (s1.gamma_index(p[0]), s2.gamma_index(p[1]))))
    return RelationSet(element_pairs, gamma_pairs)


class Step(NamedTuple):
    """One rewrite move.  pos counts element letters from the left; a merge
    at pos k combines element letters k and k+1 with the gamma between."""
    kind: str          # "swap" | "gswap" | "unmerge" | "merge"
    pos: int
    data: tuple


@dataclass(frozen=True)
class EqualityVerdict:
    """Equal carries a replayable chain and is a proof.  Anything else only
    says the search stopped: limit is "exhausted" when every reachable
    sequence within the bound was seen, "budget" when the state allowance
    ran out first."""
    equal: bool
    chain: Optional[tuple[Step, ...]]
    limit: Optional[str]
    bound: int
    budget: int


# which slots of each move's data are gamma letters; the rest are elements
_GAMMA_SLOTS = {"swap": (), "gswap": (0, 1), "merge": (1,), "unmerge": (2,)}


def _partners(fp: FreeProduct, pairs, gamma: bool) -> list[Optional[int]]:
    """Letter code -> the code it may be swapped for, or None: for the
    element pairs, or with gamma for the gamma pairs.  Both structure maps
    are monomorphisms, so a letter has at most one partner: the other image
    of its core element, or in disjoint mode of its core gamma."""
    out: list[Optional[int]] = [None] * len(fp.gamma_names if gamma else fp.element_names)
    for n1, n2 in pairs:
        c1, c2 = fp._code(n1, gamma), fp._code(n2, gamma)
        out[c1], out[c2] = c2, c1
    return out


def _trail(parents: dict, node) -> list:
    """The states of a parent map from node back to the one whose parent
    is None."""
    out = [node]
    while parents[node] is not None:
        node = parents[node]
        out.append(node)
    return out


class _Search:
    """The moves of the bounded search over coded states of the amalgam's
    free product, and the searches of its swap quotient: class walks and
    targeted probes.  The quotient's tables are fields of the search, built
    with it: erep, grep, qmerge, qfacts and witness.  A quotient state is a
    str, one character per letter: the `chr` of the least code of the
    letter's class.  erep and grep map codes to those characters, qmerge a
    3-character factor to the sorted 1-character classes of its products,
    qfacts a 1-character class to the sorted 3-character factors of its
    members, and witness is keyed by the 4-character factor and product.
    Code points order characters as the codes order integers, so the
    sorted tables, and with them every successor list, are in the order of
    the tuples of class codes.  A move is (kind, pos, codes); named Steps
    are built only for the chains that are returned."""

    def __init__(self, a: GammaAmalgam):
        rel = relation_generators(a)
        self.fp = fp = a.free_product()
        self.subs = _partners(fp, rel.element_pairs, False)
        self.gsubs = _partners(fp, rel.gamma_pairs, True)
        # the swap quotient: each relation class is named by the character
        # of its least code, erep and grep map element and gamma codes to
        # their classes
        self.erep, self.grep = erep, grep = [
            [chr(c if r is None else min(c, r)) for c, r in enumerate(subs)]
            for subs in (self.subs, self.gsubs)]
        # factorizations x g y of each element inside its own part, in table
        # order, and (X, G, Y, Z) -> the first (x, g, y, z) in table order
        # with those classes.  That is also the first in facts order (by z,
        # then table order): a merge stays in one part, part 1's codes come
        # first, and a class holds at most one letter per part, so every
        # part-1 factorization of Z's part-1 letter comes before every
        # part-2 one in both orders.
        self.facts: dict[int, list[tuple[int, int, int]]] = {}
        self.witness: dict[str, tuple[int, ...]] = {}
        qmerge: dict[str, set[str]] = {}
        qfacts: dict[str, set[str]] = {}
        codes = range(len(fp.element_names))
        for x in codes:
            for g in range(len(fp.gamma_names)):
                for y in codes:
                    z = fp.merge(x, g, y)
                    if z is not None:
                        self.facts.setdefault(z, []).append((x, g, y))
                        key = erep[x] + grep[g] + erep[y]
                        qmerge.setdefault(key, set()).add(erep[z])
                        qfacts.setdefault(erep[z], set()).add(key)
                        self.witness.setdefault(key + erep[z], (x, g, y, z))
        # (X, G, Y) -> the classes of its products; Z -> the class factors of
        # its members
        self.qmerge = {k: tuple(sorted(v)) for k, v in qmerge.items()}
        self.qfacts = {k: tuple(sorted(v)) for k, v in qfacts.items()}
        # bound -> quotient state -> the recorded component that holds it
        self._components: dict[int, dict[str, frozenset]] = {}

    def image(self, state) -> str:
        """The quotient state of a coded state."""
        return "".join((self.grep if k % 2 else self.erep)[c] for k, c in enumerate(state))

    def _step(self, kind: str, pos: int, codes) -> Step:
        """The named Step of a coded move."""
        gammas = _GAMMA_SLOTS[kind]
        return Step(kind, pos, tuple(
            (self.fp.gamma_names if i in gammas else self.fp.element_names)[c]
            for i, c in enumerate(codes)))

    def neighbors(self, state, bound: int):
        """All one-move successors with their coded moves, in a fixed order:
        merges, then swaps, then gamma swaps, then unmerges."""
        out = []
        merge = self.fp.merge
        m = (len(state) + 1) // 2
        for k in range(m - 1):
            x, g, y = state[2 * k:2 * k + 3]
            z = merge(x, g, y)
            if z is not None:
                out.append((state[:2 * k] + (z,) + state[2 * k + 3:],
                            ("merge", k, (x, g, y, z))))
        for k in range(m):
            x = state[2 * k]
            r = self.subs[x]
            if r is not None:
                out.append((state[:2 * k] + (r,) + state[2 * k + 1:], ("swap", k, (x, r))))
        for k in range(m - 1):
            g = state[2 * k + 1]
            r = self.gsubs[g]
            if r is not None:
                out.append((state[:2 * k + 1] + (r,) + state[2 * k + 2:], ("gswap", k, (g, r))))
        if m < bound:
            for k in range(m):
                z = state[2 * k]
                for piece in self.facts.get(z, ()):
                    out.append((state[:2 * k] + piece + state[2 * k + 1:],
                                ("unmerge", k, (z, *piece))))
        return out

    def apply_step(self, state, step: Step):
        """Replay one named move: the successor of state whose move, as
        `neighbors` names it, is step.  So replay accepts a step exactly
        when it is one of the search's moves from state, at any length
        (the bound passed allows every unmerge); ValueError otherwise."""
        try:
            kind, pos, data = step
            step = Step(kind, pos, tuple(data))
        except (TypeError, ValueError):
            raise ValueError(f"malformed step {step!r}") from None
        for ns, move in self.neighbors(state, len(state) + 1):
            if move[:2] == step[:2] and self._step(*move) == step:
                return ns
        raise ValueError(f"{step} is not a move from {self.fp.decode(state)}")

    # the search itself ---------------------------------------------------

    def qmoves(self, bound: int):
        """The move function of the swap quotient at bound: it maps a
        quotient state to its successors, merges, then unmerges while the
        state has fewer than bound element letters.  This is the one move
        loop of the swap quotient."""
        qmerge, qfacts = self.qmerge, self.qfacts
        # the states shorter than this have fewer than bound element letters
        unmerges_below = 2 * bound - 1

        def successors(qstate: str) -> list[str]:
            # i steps over the positions of the element letters
            n = len(qstate)
            out = [qstate[:i] + z + qstate[i + 3:]
                   for i in range(0, n - 2, 2) for z in qmerge.get(qstate[i:i + 3], ())]
            if n < unmerges_below:
                out += [qstate[:i] + piece + qstate[i + 1:]
                        for i in range(0, n, 2) for piece in qfacts.get(qstate[i], ())]
            return out
        return successors

    def explore(self, start, bound: int, budget: int, target):
        """A chain of moves from start to target inside bound: (chain,
        None), else (None, stop reason), "exhausted" or "budget" by the
        rule `_Decider` states.  `meet` finds a path in the swap quotient
        and `_lift` turns it into named moves."""
        halves = ({self.image(start): None}, {self.image(target): None})
        meeting, limit = self.meet(halves, bound, budget)
        if meeting is None:
            return None, limit
        near, far = halves
        path = _trail(near, meeting)[::-1] + _trail(far, meeting)[1:]
        return self._lift(start, path, target), None

    def meet(self, halves: tuple[dict, dict], bound: int, budget: int):
        """Bidirectional BFS of the swap quotient.  halves are the parent
        maps of its two sides, each holding one quotient state mapped to
        None: the image of the start, then the image of the target.  A
        state found from another is mapped to it.  Returns (a state both
        halves hold, None) when the sides meet, else (None, stop reason) by
        the rule that `_Decider` states.

        Each round expands the whole frontier of the side whose frontier
        is smaller, the start's on a tie.  The target's side is read
        backwards, so its moves must be undone inside bound, and all moves
        are when neither end is longer than bound: a merge then leaves a
        state shorter than bound, as its unmerge needs.  Otherwise the
        start's side runs alone.  A side is full once it holds more than
        budget states after expanding a state: the start's side then stops
        the probe on "budget", and the target's side stops expanding but is
        still checked for a meeting.  A side that runs dry holds its whole
        component, and this is the one place where components are recorded
        (`_record`).  When the target's side runs dry, the start's side goes
        on alone.  This is also the one place where the records are read,
        by the one reading rule of the module docstring."""
        near, far = halves
        (begin,), (end,) = near, far
        if begin == end:
            return begin, None
        here = self._components.get(bound, {}).get(begin)
        if here is not None and end not in here:
            return None, "budget" if len(here) > budget else "exhausted"
        inside = len(begin) < 2 * bound and len(end) < 2 * bound
        frontiers = [[begin], [end] if inside else []]
        qmoves = self.qmoves(bound)
        while frontiers[0]:
            side = 1 if 0 < len(frontiers[1]) < len(frontiers[0]) else 0
            mine, other = halves[side], halves[1 - side]
            layer = []
            for cur in frontiers[side]:
                for ns in qmoves(cur):
                    if ns in mine:
                        continue
                    mine[ns] = cur
                    if ns in other:
                        return ns, None
                    layer.append(ns)
                if len(mine) > budget:
                    break
            if len(mine) > budget:
                if not side:
                    return None, "budget"
                layer = []      # the target's side is full
            elif not layer:
                self._record((begin, end)[side], mine, bound)
            frontiers[side] = layer
        return None, "exhausted"

    def _lift(self, start, path: list, target) -> tuple[Step, ...]:
        """Named moves from start along a path of quotient states, from the
        image of start to the image of target, and then on to target.  Each
        move of the path replaces one letter Z of the shorter state by three
        letters X G Y of the longer, and its witness (x, g, y, z)
        (`_Search.witness`) is a concrete merge with those classes.  A
        class has at most two letters, so one swap puts any letter the
        witness needs in its place: a merge swaps its three letters to the
        witness, an unmerge its one letter, and at the end the letters are
        swapped to those of target.  Swaps keep the length, so the chain
        stays inside the bound of the path."""
        witness = self.witness
        state, moves = list(start), []

        def put(i: int, c: int) -> None:
            if state[i] != c:
                moves.append(("gswap" if i % 2 else "swap", i // 2, (state[i], c)))
                state[i] = c

        for src, dst in zip(path, path[1:]):
            merge = len(dst) < len(src)
            short, long = (dst, src) if merge else (src, dst)
            i = next(i for i in range(0, len(short), 2)
                     if short[:i] == long[:i] and short[i + 1:] == long[i + 3:]
                     and long[i:i + 3] + short[i:i + 1] in witness)
            x, g, y, z = piece = witness[long[i:i + 3] + short[i:i + 1]]
            if merge:
                for j, c in enumerate((x, g, y)):
                    put(i + j, c)
                moves.append(("merge", i // 2, piece))
                state[i:i + 3] = [z]
            else:
                put(i, z)
                moves.append(("unmerge", i // 2, (z, x, g, y)))
                state[i:i + 1] = [x, g, y]
        for i, c in enumerate(target):
            put(i, c)
        return tuple(self._step(*move) for move in moves)

    def _record(self, begin, found: Collection, bound: int) -> None:
        """Record the quotient states found, the component of the quotient
        state begin at bound, which a side of a probe has run dry: each of
        them is mapped to the frozenset of them all, unless begin is
        recorded already or has more than bound element letters.  The
        limit is the module docstring's record rule."""
        table = self._components.get(bound, {})
        if begin in table or len(begin) >= 2 * bound:
            return
        if sum(map(len, self._components.values())) + len(found) > _RECORD_LIMIT:
            self._components.clear()
        found = frozenset(found)
        self._components.setdefault(bound, {}).update(dict.fromkeys(found, found))

    def walk(self, begin: str, bound: int, budget: int) -> tuple[set, str]:
        """Breadth-first search of the swap quotient from the quotient state
        begin: (the quotient states it found, stop reason).  It stops on
        "budget" as soon as it holds more than budget states; otherwise it
        holds the component of begin, "exhausted".  A walk neither reads nor
        writes the records, so a report's class explorations cost the same
        whatever ran before."""
        qmoves, seen, layer = self.qmoves(bound), {begin}, [begin]
        while layer:
            nxt = []
            for cur in layer:
                for ns in qmoves(cur):
                    if ns not in seen:
                        seen.add(ns)
                        if len(seen) > budget:
                            return seen, "budget"
                        nxt.append(ns)
            layer = nxt
        return seen, "exhausted"

    def _class_entries(self, code: int, bound: int,
                       budget: int) -> dict[int, tuple[frozenset, str]]:
        """The walk from the image of the one-letter state (code,): every
        code whose one-letter image it found, mapped to (class, stop
        reason).  An exhausted walk maps each to the class it found.  A walk
        that stops on budget claims nothing, so it maps each to itself
        alone: each lies in the component of code, whose own walk stops on
        budget too."""
        erep = self.erep
        seen, limit = self.walk(erep[code], bound, budget)
        members = frozenset(c for c, r in enumerate(erep) if r in seen)
        return {c: (members if limit == "exhausted" else frozenset((c,)), limit)
                for c in members}

    def classes(self, bound: int, budget: int) -> dict[int, tuple[frozenset, str]]:
        """Every element code of the product mapped to (class, stop reason).

        Starts run in code order, part 1 first, and a code that an earlier
        walk found gets no walk of its own: it lies in that walk's class,
        or, when that walk stopped on budget, it maps to its own class,
        which holds only that code, as its own walk would give."""
        out: dict[int, tuple[frozenset, str]] = {}
        for code in range(len(self.fp.element_names)):
            if code not in out:
                out.update(self._class_entries(code, bound, budget))
        return out


class _Decider:
    """Decides pairs of one-letter words for one report, at one bound and
    budget.  The decision on an ordered pair of codes is one record, (equal,
    chain): equal is True when the pair is proven equal, False when a
    settled class separates it, None when it is undecided; chain is the
    probe's chain when a probe proved the pair, else None.  So a proven
    pair without a chain is proven by its class.  This is the one statement
    of the budget rules:

    * a class is settled only by an exhausted exploration; one that stops
      on budget claims nothing and holds only its start (`_Search.classes`);
    * a settled class proves its members equal, and apart from the rest;
    * a pair with neither code settled gets one targeted probe,
      `_Search.explore` as in `words_equal_within`, on the amalgam's one
      `_Search`, and is undecided unless the probe returns a chain.  So
      these probes run only when some class stopped on budget, and no
      ordered pair is probed twice;
    * the budget counts quotient states: a class walk stops on budget as
      soon as it holds more than budget of them;
    * a probe searches the swap quotient from both ends (`_Search.meet`).
      It returns a chain when the ends meet.  Otherwise its stop reason
      depends on the start's component alone: "exhausted" when the
      component holds at most budget quotient states and lacks the target,
      else "budget".  The start's end stops the probe on "budget" once it
      holds more than budget states after expanding a state.  The target's
      end runs only when neither word is longer than bound; once it holds
      more than budget states it stops growing but still meets the start's
      end, and when it runs dry the start's end goes on alone.

    The components that probes record change none of these rules: the
    record rule of the module docstring answers as the search would, and a
    class walk never reads them.
    """

    def __init__(self, search: _Search, bound: int, budget: int):
        self.search, self.bound, self.budget = search, bound, budget
        self.classes = search.classes(bound, budget)
        self._probed: dict[tuple[int, int], tuple] = {}

    def pair(self, x: int, y: int) -> tuple[Optional[bool], Optional[tuple[Step, ...]]]:
        """The record of the one-letter words x, y: a class lookup when
        either class is settled, else the record of their one probe."""
        (cls_x, limit_x), (_, limit_y) = self.classes[x], self.classes[y]
        if limit_x == "exhausted":
            return y in cls_x, None
        if limit_y == "exhausted":
            return False, None
        if (x, y) not in self._probed:
            chain = self.search.explore((x,), self.bound, self.budget, (y,))[0]
            self._probed[x, y] = (None if chain is None else True), chain
        return self._probed[x, y]


def _search_within(a: GammaAmalgam, bound: int, budget: int) -> _Search:
    """The amalgam's search, for an entry point that runs it at bound and
    budget, once both are checked to be positive integers: values that
    `operator.index` takes, such as numpy integers, but not 2.5, 3.0 or
    True."""
    if isinstance(bound, bool) or isinstance(budget, bool) or not (
            hasattr(bound, "__index__") and hasattr(budget, "__index__")
            and bound >= 1 and budget >= 1):
        raise NonPositiveLimit(
            f"bound and budget must be positive integers, got {bound} and {budget}")
    return a._search


def words_equal_within(a: GammaAmalgam, w1: Word, w2: Word,
                       bound: int = DEFAULT_BOUND,
                       budget: int = DEFAULT_BUDGET) -> EqualityVerdict:
    """Bounded proof search for equality in the amalgamated product.

    Equal means proven equal, with the move chain from w1 to w2 attached.
    An inconclusive verdict carries no claim at all: the pair may be equal
    through longer words or not equal at all."""
    search = _search_within(a, bound, budget)
    states = []
    for w in (w1, w2):
        states.append(search.fp.encode(w))
        if not search.fp._reduced(states[-1]):
            raise MalformedSequence(f"word {w} is not reduced")
    start, target = states
    chain, limit = search.explore(start, bound, budget, target)
    return EqualityVerdict(chain is not None, chain, limit, bound, budget)


def replay_chain(a: GammaAmalgam, w1: Word, chain: Sequence[Step]) -> Word:
    """Run a chain from w1, each step checked to be a move of the search
    from the word so far; returns the word it produces.  ValueError on any
    malformed or illegal step."""
    search = a._search
    state = search.fp.encode(w1)
    for step in chain:
        state = search.apply_step(state, step)
    return search.fp.decode(state)


def mu(a: GammaAmalgam, part: int, element: str,
       bound: int = DEFAULT_BOUND, budget: int = DEFAULT_BUDGET) -> Word:
    """Canonical representative of one part element's class.  part is 1
    or 2.

    When the bounded search exhausts its bound, this is the least reduced
    word (length first, then letter indices) of the class, a one-letter
    word because the search starts from one.  A search that stops on budget
    claims nothing, and the representative is the element's own word.
    Either way the representative folds as the element does through any
    maps that `pushout_mediator` accepts."""
    if isinstance(part, bool) or not hasattr(part, "__index__") or part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    search = _search_within(a, bound, budget)
    fp = search.fp
    code = fp.encode(fp.embed(part - 1, element))[0]
    members, _ = search._class_entries(code, bound, budget)[code]
    return fp.decode((min(members),))


@dataclass(frozen=True)
class Collision:
    """Two distinct elements of one part proven equal: an injectivity
    failure for the natural map of that part."""
    part: int
    a: str
    b: str
    chain: tuple[Step, ...]


@dataclass(frozen=True)
class CrossPair:
    """A part-1 and part-2 element proven equal, with the core element that
    accounts for the overlap when the search found one."""
    s1: str
    s2: str
    resolved_by: Optional[str]


@dataclass(frozen=True)
class EmbeddingReport:
    """no_collision_within_bound[p] holds when part p+1 has no collision and
    no undecided pair.  The verdict is "violation-found" when a collision
    was proven, else "inconclusive" when some pair was left undecided,
    else "consistent-within-bound"."""
    amalgam: str
    collisions: tuple[Collision, ...]
    no_collision_within_bound: tuple[bool, bool]
    cross_pairs: tuple[CrossPair, ...]
    verdict: str
    bound: int
    budget: int

    @property
    def unresolved(self) -> tuple[CrossPair, ...]:
        return tuple(p for p in self.cross_pairs if p.resolved_by is None)


def check_natural_embedding(a: GammaAmalgam,
                            bound: int = DEFAULT_BOUND,
                            budget: int = DEFAULT_BUDGET) -> EmbeddingReport:
    """Probe the two necessary conditions for the parts to embed naturally.

    A collision (two distinct elements of one part proven equal) is a
    definite violation.  Cross pairs record every proven identification
    between the parts; an unexplained pair is NOT a violation, only
    unresolved at this bound.  One `_Decider` gives one record per ordered
    pair, and the report is read off the records: a collision proven by its
    class gets its chain from one probe.  A cross pair (e1, e2) is resolved
    by the first core element u (in core order) whose image f1(u) lies in
    the class of e1, which holds only e1 when its exploration stopped on
    budget; failing that, by the first u for which f1(u) = e1 is proven,
    else by none.
    """
    search = _search_within(a, bound, budget)
    decide = _Decider(search, bound, budget)
    code = search.fp._ecode
    within = [{(e, f): decide.pair(code[e], code[f]) for e, f in combinations(s.elements, 2)}
              for s in a.parts]
    across = {(e1, e2): decide.pair(code[e1], code[e2])
              for e1 in a.parts[0].elements for e2 in a.parts[1].elements}
    core, f1 = a.core.elements, a.maps[0].carrier_map

    def resolved_by(x: int) -> Optional[str]:
        cls = decide.classes[x][0]
        u = next((u for u in core if code[f1[u]] in cls), None)
        if u is None:
            u = next((u for u in core if decide.pair(code[f1[u]], x)[0]), None)
        return u

    collisions = tuple(
        Collision(p + 1, e, f, chain if chain is not None
                  else search.explore((code[e],), bound, budget, (code[f],))[0])
        for p, pairs in enumerate(within) for (e, f), (equal, chain) in pairs.items() if equal)
    clear = tuple(all(equal is False for equal, _ in pairs.values()) for pairs in within)
    cross = tuple(CrossPair(e1, e2, resolved_by(code[e1]))
                  for (e1, e2), (equal, _) in across.items() if equal)
    undecided = any(equal is None for pairs in (*within, across) for equal, _ in pairs.values())
    verdict = ("violation-found" if collisions else
               "inconclusive" if undecided else "consistent-within-bound")
    return EmbeddingReport(a.name, collisions, clear, cross, verdict, bound, budget)


@dataclass(frozen=True)
class MediatorReport:
    """A pair of maps g1, g2 into v that `pushout_mediator` accepted:
    folding words through them is a well defined map out of the
    amalgamated product.  Every check is a hypothesis on which the call
    raises, so the report holds no verdict of its own: its equations
    (relation pairs collapse, canonical representatives map where they
    must, one-letter products are respected) are constant True and their
    witnesses None.  They stay for the callers that read them."""
    amalgam: str
    target: str

    relations_respected = diagram_commutes = products_respected = all_pass = True
    relations_witness = diagram_witness = products_witness = None


def pushout_mediator(a: GammaAmalgam, v: GammaSemigroup,
                     g1: GammaHomomorphism, g2: GammaHomomorphism,
                     bound: int = DEFAULT_BOUND,
                     budget: int = DEFAULT_BUDGET) -> MediatorReport:
    """Check that the maps g_i from the parts into v fold words to a map
    out of the amalgamated product.  The hypotheses are checked in this
    order, and the first that fails raises: the maps' ends, first so that
    the squares can read the maps; the carrier square (the relations); the
    gamma square; that v is associative (NotAssociative); and, in
    `FreeProduct.folder`, which reads the ends once more, that g1, g2 are
    homomorphisms (the products) and, in same-gamma mode, map the shared
    gamma list identically (GammaMismatch).

    Nothing is left to search.  Every element is joined to its canonical
    representative (`mu`'s) by moves, and every move keeps the fold: a swap
    because the squares commute, a merge or an unmerge because g1 and g2
    are homomorphisms and v associates.  So the diagram commutes at every
    bound.  bound and budget are checked to be positive integers, and do
    not change the answer."""
    fp = _search_within(a, bound, budget).fp
    f1, f2 = a.maps
    for g, part in zip((g1, g2), a.parts):
        _require_ends(g, part, v)
    for u in a.core.elements:
        if g1.carrier_map[f1.carrier_map[u]] != g2.carrier_map[f2.carrier_map[u]]:
            raise CommutingSquareFails(u)
    for h in a.core.gammas:
        if g1.gamma_map[f1.gamma_map[h]] != g2.gamma_map[f2.gamma_map[h]]:
            raise GammaMismatch(
                f"gamma square does not commute on core gamma {h!r}")
    _require_associative(v)
    fp.folder(v, (g1, g2))
    return MediatorReport(a.name, v.name)


@dataclass(frozen=True)
class NecessaryConditionVerdict:
    """Outcome of the complete-regularity screen, which is information only.

    satisfied: both parts and the core are completely alpha-regular.
    not-applicable: some part is not; failing_parts names them.
    core-not-completely-regular: both parts are but the core is not; witness
    is the first core element with no witness pair.  This claims nothing
    about embeddability: a core element may be completely regular in a part
    through a gamma outside the core's image, and such amalgams can embed."""
    status: str
    failing_parts: tuple[str, ...]
    witness: Optional[str]


def necessary_condition(a: GammaAmalgam) -> NecessaryConditionVerdict:
    a._valid
    _require_associative(a.core, *a.parts)
    reports = [classify(s) for s in a.parts]
    failing = tuple(s.name for s, r in zip(a.parts, reports)
                    if not r.is_completely_alpha_regular)
    if failing:
        return NecessaryConditionVerdict("not-applicable", failing, None)
    core_report = classify(a.core)
    if core_report.is_completely_alpha_regular:
        return NecessaryConditionVerdict("satisfied", (), None)
    witness = next(e.element for e in core_report.per_element
                   if e.completely_regular is None)
    return NecessaryConditionVerdict("core-not-completely-regular", (), witness)
