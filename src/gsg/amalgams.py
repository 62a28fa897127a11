"""Amalgams of two gamma-semigroups over a shared core.

An amalgam is a core U, two parts S1 and S2 with disjoint element names,
and one monomorphism from the core into each part.  Inside the free
product of the parts, the relation pairs identify the two images of every
core product u g0 u'; the amalgamated product is the free product modulo
the congruence those pairs generate.

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .core import (
    GammaHomomorphism,
    GammaSemigroup,
    check_associativity,
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
    NotAssociative,
    NotMonomorphism,
)
from .words import FreeProduct, Mode, Word

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


@dataclass(frozen=True)
class GammaAmalgam:
    """Core, two parts, and one structure map into each part.

    Construction only fixes the shape; run :func:`validate_amalgam` for the
    real invariants (disjoint names, monomorphisms, gamma discipline)."""

    name: str
    core: GammaSemigroup
    parts: tuple[GammaSemigroup, GammaSemigroup]
    maps: tuple[GammaHomomorphism, GammaHomomorphism]
    mode: Mode = Mode.SAME_GAMMA

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.parts) != 2 or len(self.maps) != 2:
            raise ValueError("an amalgam has exactly two parts and two maps")

    def free_product(self) -> FreeProduct:
        return FreeProduct(self.parts, self.mode)


def validate_amalgam(a: GammaAmalgam) -> list[GsgError]:
    """Every violated invariant, as a list of unraised errors; empty = valid."""
    defects: list[GsgError] = []
    seen: dict[str, str] = {}
    for s in (a.core, *a.parts):
        for e in s.elements:
            if e in seen and seen[e] != s.name:
                defects.append(NameClash(e, f"{seen[e]} and {s.name}"))
            seen.setdefault(e, s.name)
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
    if a.mode is Mode.SAME_GAMMA:
        shared = a.core.gammas
        for s in a.parts:
            if s.gammas != shared:
                defects.append(GammaMismatch(
                    f"same-gamma mode needs one shared gamma list; "
                    f"{s.name} has {s.gammas}, core has {shared}"))
        for f in a.maps:
            if f.source == a.core and any(f.gamma_map.get(h) != h for h in a.core.gammas):
                defects.append(GammaMismatch(
                    f"same-gamma mode needs identity gamma maps, {f.name!r} is not"))
    else:
        overlap = set(a.parts[0].gammas) & set(a.parts[1].gammas)
        if overlap:
            defects.append(GammaMismatch(
                f"disjoint mode needs disjoint part gammas, shared: {sorted(overlap)}"))
    return defects


def _require_valid(a: GammaAmalgam) -> None:
    defects = validate_amalgam(a)
    if defects:
        raise defects[0]


@dataclass(frozen=True)
class RelationSet:
    """Identified letter pairs (element of S1, element of S2), plus the
    gamma pairs used for gamma-letter substitution in disjoint mode."""
    element_pairs: tuple[tuple[str, str], ...]
    gamma_pairs: tuple[tuple[str, str], ...]


def relation_generators(a: GammaAmalgam,
                        identify_elements: bool = False) -> RelationSet:
    """The defining pairs: both images of every core product u g0 u'.

    By default only products are identified; pass identify_elements=True to
    also pair the two images of every core element itself.
    """
    _require_valid(a)
    u = a.core
    f1, f2 = a.maps
    s1, s2 = a.parts
    pairs: set[tuple[str, str]] = set()
    for x in u.elements:
        for g0 in u.gammas:
            for y in u.elements:
                z = u.mul(x, g0, y)
                pairs.add((f1.carrier_map[z], f2.carrier_map[z]))
    if identify_elements:
        for x in u.elements:
            pairs.add((f1.carrier_map[x], f2.carrier_map[x]))
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


def _partners(names: tuple[str, ...], pairs) -> dict[int, tuple[int, ...]]:
    """Letter code -> the sorted codes it may be swapped for."""
    out: dict[int, set[int]] = {}
    for n1, n2 in pairs:
        c1, c2 = names.index(n1), names.index(n2)
        out.setdefault(c1, set()).add(c2)
        out.setdefault(c2, set()).add(c1)
    return {c: tuple(sorted(v)) for c, v in out.items()}


class _Search:
    """The moves of the bounded search over coded states of the amalgam's
    free product, and the BFS itself.  A move is (kind, pos, codes); named
    Steps are built only for the chains that are returned."""

    def __init__(self, a: GammaAmalgam, identify_elements: bool):
        rel = relation_generators(a, identify_elements)
        self.fp = fp = a.free_product()
        self.subs = _partners(fp.element_names, rel.element_pairs)
        self.gsubs = _partners(fp.gamma_names, rel.gamma_pairs)
        # factorizations x g y of each element inside its own part, in table order
        self.facts: dict[int, list[tuple[int, int, int]]] = {}
        codes = range(len(fp.element_names))
        for x in codes:
            for g in range(len(fp.gamma_names)):
                for y in codes:
                    z = fp.merge(x, g, y)
                    if z is not None:
                        self.facts.setdefault(z, []).append((x, g, y))

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
            for r in self.subs.get(x, ()):
                out.append((state[:2 * k] + (r,) + state[2 * k + 1:], ("swap", k, (x, r))))
        for k in range(m - 1):
            g = state[2 * k + 1]
            for r in self.gsubs.get(g, ()):
                out.append((state[:2 * k + 1] + (r,) + state[2 * k + 2:], ("gswap", k, (g, r))))
        if m < bound:
            for k in range(m):
                z = state[2 * k]
                for piece in self.facts.get(z, ()):
                    out.append((state[:2 * k] + piece + state[2 * k + 1:],
                                ("unmerge", k, (z, *piece))))
        return out

    def apply_step(self, state, step: Step):
        """Replay one named move, checking its legality against the tables
        and the relation set; raises ValueError on any mismatch."""
        kind, k, data = step.kind, step.pos, tuple(step.data)
        enames, gnames = self.fp.element_names, self.fp.gamma_names
        if kind not in _GAMMA_SLOTS:
            raise ValueError(f"unknown step kind {kind!r}")
        m = (len(state) + 1) // 2
        if not 0 <= k < (m - 1 if kind in ("gswap", "merge") else m):
            raise ValueError(f"{kind} position {k} out of range")
        if kind in ("swap", "gswap"):
            i = 2 * k + (kind == "gswap")
            subs, names = (self.gsubs, gnames) if kind == "gswap" else (self.subs, enames)
            if names[state[i]] != data[0]:
                raise ValueError(f"{kind} expects {data[0]!r} at position {k}")
            for r in subs.get(state[i], ()):
                if names[r] == data[1]:
                    return state[:i] + (r,) + state[i + 1:]
            raise ValueError(f"{data[0]!r} ~ {data[1]!r} is not a "
                             f"{'gamma' if kind == 'gswap' else 'relation'} pair")
        if kind == "unmerge":
            z = state[2 * k]
            if enames[z] != data[0]:
                raise ValueError(f"unmerge expects {data[0]!r} at position {k}")
            for x, g, y in self.facts.get(z, ()):
                if (enames[x], gnames[g], enames[y]) == data[1:]:
                    return state[:2 * k] + (x, g, y) + state[2 * k + 1:]
            raise ValueError(f"{data[1:]} is not a factorization of {data[0]!r}")
        x, g, y = state[2 * k:2 * k + 3]
        if (enames[x], gnames[g], enames[y]) != data[:3]:
            raise ValueError(f"merge at {k} expects factor {data[:3]}")
        z = self.fp.merge(x, g, y)
        if z is None:
            raise ValueError(f"factor {data[:3]} is not mergeable")
        if enames[z] != data[3]:
            raise ValueError(f"product of {data[:3]} is {enames[z]!r}, not {data[3]!r}")
        return state[:2 * k] + (z,) + state[2 * k + 3:]

    # the search itself ---------------------------------------------------

    def explore(self, start, bound: int, budget: int, target=None):
        """BFS from start.  With a target: stop as soon as some discovered
        sequence normalises to it and return (chain, None).  Without one:
        return (None, visited map) after the frontier or budget runs out.
        The third result slot is the stop reason: None (target found),
        "exhausted", or "budget"."""
        parents: dict = {start: None}
        reduce = self.fp.reduce
        if target is not None:
            nf, merges = reduce(start)
            if nf == target:
                return self._chain(parents, start, merges), None, None
        queue = deque([start])
        limit = "exhausted"
        while queue:
            cur = queue.popleft()
            for ns, move in self.neighbors(cur, bound):
                if ns in parents:
                    continue
                if len(parents) >= budget:
                    limit = "budget"
                    queue.clear()
                    break
                parents[ns] = (cur, move)
                if target is not None:
                    nf, merges = reduce(ns)
                    if nf == target:
                        return self._chain(parents, ns, merges), None, None
                queue.append(ns)
        return None, parents, limit

    def _chain(self, parents: dict, node, merges: list) -> tuple[Step, ...]:
        """Named steps along the BFS tree from the start to node, then the
        merges that normalise node."""
        moves = []
        while parents[node] is not None:
            node, move = parents[node]
            moves.append(move)
        moves.reverse()
        moves.extend(("merge", pos, codes) for pos, *codes in merges)
        return tuple(self._step(*move) for move in moves)


def words_equal_within(a: GammaAmalgam, w1: Word, w2: Word,
                       bound: int = DEFAULT_BOUND,
                       budget: int = DEFAULT_BUDGET,
                       identify_elements: bool = False) -> EqualityVerdict:
    """Bounded proof search for equality in the amalgamated product.

    Equal means proven equal, with the move chain from w1 to w2 attached.
    An inconclusive verdict carries no claim at all: the pair may be equal
    through longer words or not equal at all."""
    if bound < 1 or budget < 1:
        raise ValueError("bound and budget must be positive")
    search = _Search(a, identify_elements)
    for w in (w1, w2):
        if not search.fp.is_reduced(w):
            raise MalformedSequence(f"word {w} is not reduced")
    start, target = search.fp.encode(w1), search.fp.encode(w2)
    chain, _, limit = search.explore(start, bound, budget, target=target)
    if chain is not None:
        return EqualityVerdict(True, chain, None, bound, budget)
    return EqualityVerdict(False, None, limit, bound, budget)


def replay_chain(a: GammaAmalgam, w1: Word, chain: Sequence[Step],
                 identify_elements: bool = False) -> Word:
    """Run a chain against the tables and relation pairs, validating every
    move; returns the word it produces.  ValueError on any illegal step."""
    search = _Search(a, identify_elements)
    state = search.fp.encode(w1)
    for step in chain:
        state = search.apply_step(state, step)
    return search.fp.decode(state)


def mu(a: GammaAmalgam, part: int, element: str,
       bound: int = DEFAULT_BOUND, budget: int = DEFAULT_BUDGET,
       identify_elements: bool = False) -> Word:
    """Canonical representative of one part element's class: the least
    reduced word (length first, then letter indices) among everything the
    bounded search can reach from it.  part is 1 or 2."""
    if part not in (1, 2):
        raise ValueError("part must be 1 or 2")
    search = _Search(a, identify_elements)
    fp = search.fp
    start = fp.encode(fp.embed(part - 1, element))
    _, visited, _ = search.explore(start, bound, budget)
    # the order of FreeProduct.canonical_key, compared on coded states
    least = min((st for st in visited if not fp.reduce(st)[1]),
                key=lambda st: (len(st), st))
    return fp.decode(least)


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
    """no_collision_within_bound[p] holds when every probe of part p+1
    exhausted its bound without a proof.  The verdict is "violation-found"
    when a collision was proven, else "inconclusive" when some probe ran out
    of budget first, else "consistent-within-bound"."""
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
                            budget: int = DEFAULT_BUDGET,
                            identify_elements: bool = False) -> EmbeddingReport:
    """Probe the two necessary conditions for the parts to embed naturally.

    A collision (two distinct elements of one part proven equal) is a
    definite violation.  Cross pairs record every proven identification
    between the parts, each with the core element that explains it when one
    is found within the bound; an unexplained pair is NOT a violation, only
    unresolved at this bound.  A probe that runs out of budget proves
    nothing, so it makes the report inconclusive unless a collision is
    found elsewhere.
    """
    _require_valid(a)
    fp = a.free_product()
    f1, f2 = a.maps
    stopped: list[bool] = []        # per probe: did it run out of budget?

    def probe(w1: Word, w2: Word) -> EqualityVerdict:
        v = words_equal_within(a, w1, w2, bound, budget, identify_elements)
        stopped.append(v.limit == "budget")
        return v

    collisions: list[Collision] = []
    clear = []
    for p, s in enumerate(a.parts):
        found = []
        first = len(stopped)
        for i in range(s.n):
            for j in range(i + 1, s.n):
                v = probe(fp.embed(p, s.elements[i]), fp.embed(p, s.elements[j]))
                if v.equal:
                    found.append(Collision(p + 1, s.elements[i], s.elements[j], v.chain))
        collisions.extend(found)
        clear.append(not found and not any(stopped[first:]))

    cross: list[CrossPair] = []
    s1, s2 = a.parts
    for e1 in s1.elements:
        w1 = fp.embed(0, e1)
        for e2 in s2.elements:
            v = probe(w1, fp.embed(1, e2))
            if not v.equal:
                continue
            resolved = None
            for u in a.core.elements:
                if probe(fp.embed(0, f1.carrier_map[u]), w1).equal:
                    resolved = u
                    break
            cross.append(CrossPair(e1, e2, resolved))

    if collisions:
        verdict = "violation-found"
    elif any(stopped):
        verdict = "inconclusive"
    else:
        verdict = "consistent-within-bound"
    return EmbeddingReport(a.name, tuple(collisions), tuple(clear),
                           tuple(cross), verdict, bound, budget)


@dataclass(frozen=True)
class MediatorReport:
    """Checks that folding through g1, g2 is a well defined map out of the
    amalgamated product: relation pairs collapse, the canonical
    representatives map where they must, and length-one products are
    respected."""
    amalgam: str
    target: str
    relations_respected: bool
    relations_witness: Optional[tuple[str, str]]
    diagram_commutes: bool
    diagram_witness: Optional[tuple[int, str]]
    products_respected: bool
    products_witness: Optional[tuple[str, str, str]]
    bound: int

    @property
    def all_pass(self) -> bool:
        return (self.relations_respected and self.diagram_commutes
                and self.products_respected)


def pushout_mediator(a: GammaAmalgam, v: GammaSemigroup,
                     g1: GammaHomomorphism, g2: GammaHomomorphism,
                     bound: int = DEFAULT_BOUND,
                     budget: int = DEFAULT_BUDGET) -> MediatorReport:
    """Given maps g_i from the parts into v agreeing on the core, fold words
    through them and certify the mediating-map equations."""
    _require_valid(a)
    f1, f2 = a.maps
    for u in a.core.elements:
        if g1.carrier_map[f1.carrier_map[u]] != g2.carrier_map[f2.carrier_map[u]]:
            raise CommutingSquareFails(u)
    for h in a.core.gammas:
        if g1.gamma_map[f1.gamma_map[h]] != g2.gamma_map[f2.gamma_map[h]]:
            raise GammaMismatch(
                f"gamma square does not commute on core gamma {h!r}")
    fp = a.free_product()
    homs = [g1, g2]
    rel = relation_generators(a)

    relations_ok, rel_witness = True, None
    for (e1, e2) in rel.element_pairs:
        if g1.carrier_map[e1] != g2.carrier_map[e2]:
            relations_ok, rel_witness = False, (e1, e2)
            break

    diagram_ok, diagram_witness = True, None
    for p, (s, g) in enumerate(zip(a.parts, (g1, g2))):
        for e in s.elements:
            rep = mu(a, p + 1, e, bound, budget)
            if fp.fold(rep, v, homs) != g.carrier_map[e]:
                diagram_ok, diagram_witness = False, (p + 1, e)
                break
        if not diagram_ok:
            break

    products_ok, products_witness = True, None
    if a.mode is Mode.SAME_GAMMA:
        gnames = list(a.parts[0].gammas)
    else:
        gnames = list(a.parts[0].gammas) + list(a.parts[1].gammas)
    atoms = [(0, e) for e in a.parts[0].elements] + [(1, e) for e in a.parts[1].elements]
    for (pa, ea) in atoms:
        for gn in gnames:
            for (pb, eb) in atoms:
                wa, wb = fp.embed(pa, ea), fp.embed(pb, eb)
                prod = fp.gamma_multiply(wa, gn, wb)
                if a.mode is Mode.SAME_GAMMA:
                    tg = gn
                else:
                    owner = 0 if gn in a.parts[0].gammas else 1
                    tg = homs[owner].gamma_map[gn]
                direct = v.mul(fp.fold(wa, v, homs), tg, fp.fold(wb, v, homs))
                if fp.fold(prod, v, homs) != direct:
                    products_ok, products_witness = False, (ea, gn, eb)
                    break
            if not products_ok:
                break
        if not products_ok:
            break
    return MediatorReport(a.name, v.name, relations_ok, rel_witness,
                          diagram_ok, diagram_witness,
                          products_ok, products_witness, bound)


@dataclass(frozen=True)
class NecessaryConditionVerdict:
    """Outcome of the complete-regularity screen.

    satisfied: both parts and the core are completely alpha-regular.
    not-applicable: some part is not, so the screen says nothing.
    not-embeddable: both parts are but the core is not; no embedding of the
    amalgam into any gamma-semigroup can exist, witnessed by the first core
    element with no witness pair."""
    status: str
    failing_parts: tuple[str, ...]
    witness: Optional[str]


def necessary_condition(a: GammaAmalgam) -> NecessaryConditionVerdict:
    _require_valid(a)
    for s in (a.core, *a.parts):
        w = check_associativity(s)
        if w is not None:
            raise NotAssociative(w)
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
    return NecessaryConditionVerdict("not-embeddable", (), witness)
