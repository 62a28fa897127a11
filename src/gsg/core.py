"""Finite gamma-semigroups as dense operation tables.

A gamma-semigroup is a finite carrier S, a finite set of sandwich symbols
(the "gammas"), and a total three-place product (a, gamma, b) -> a gamma b
satisfying (a gamma b) mu c = a gamma (b mu c) for every choice of gammas.
No identity of any kind is assumed.

Tables are stored as dense integer index cubes of shape (n, g, n), so the
axiom scan, homomorphism verification, and the regularity scans each run as
one vectorised pass over the whole table.  The associativity verdict of an
(immutable) GammaSemigroup is computed once.  Every reported witness is the
first one in lexicographic index order, which keeps output stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEntry,
    GammaMismatch,
    IncompleteMap,
    InvalidIdentifier,
    MissingEntry,
    NameClash,
    NotAHomomorphism,
    NotAssociative,
    UnknownIdentifier,
)

__all__ = [
    "GammaSemigroup",
    "GammaHomomorphism",
    "AssocWitness",
    "HomWitness",
    "ElementRegularity",
    "RegularityReport",
    "validate_table",
    "check_associativity",
    "is_subsemigroup",
    "verify_homomorphism",
    "injective",
    "is_monomorphism",
    "identity_homomorphism",
    "compose",
    "left_identities",
    "preserves_left_identity",
    "alpha_regular_witness",
    "completely_regular_witness",
    "alpha_inverses",
    "classify",
]


def _check_token(tok: str, kind: str) -> None:
    # identifiers must survive the text format round trip unchanged
    if not isinstance(tok, str) or not tok:
        raise InvalidIdentifier(str(tok), kind)
    if any(c.isspace() or c in "#=" for c in tok) or "->" in tok:
        raise InvalidIdentifier(tok, kind)


def _check_unique(name: str, elements: tuple[str, ...], gammas: tuple[str, ...]) -> None:
    """NameClash for the first repeated element, then the first repeated gamma."""
    for names, kind in ((elements, "elements"), (gammas, "gammas")):
        if len(set(names)) != len(names):
            dup = next(e for i, e in enumerate(names) if e in names[:i])
            raise NameClash(dup, f"{kind} of {name}")


@dataclass(frozen=True, eq=False)
class GammaSemigroup:
    """A named finite carrier with a total table ``a gamma b``.

    ``table[i, j, k]`` holds the element index of ``elements[i] gammas[j]
    elements[k]``.  Instances are immutable; the table is a locked copy of
    the given array, which stays the caller's to change.  A -1 entry marks
    a missing one: the first such cell in index order raises MissingEntry.
    Associativity is NOT enforced here, use :func:`check_associativity`,
    which scans each instance at most once.
    """

    name: str
    elements: tuple[str, ...]
    gammas: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        elements = tuple(self.elements)
        gammas = tuple(self.gammas)
        _check_token(self.name, "semigroup name")
        for t in elements:
            _check_token(t, "element")
        for t in gammas:
            _check_token(t, "gamma")
        _check_unique(self.name, elements, gammas)
        n, g = len(elements), len(gammas)
        if n < 1 or g < 1:
            raise ValueError("a gamma-semigroup needs at least one element and one gamma")
        # a copy, so that locking it leaves the caller's array writable; an
        # entry the copy does not hold exactly, such as 0.7, is no index,
        # and neither is a flag, though True would cast to 1
        given = np.asarray(self.table)
        table = np.array(given, dtype=np.int64, order="C")
        if table.shape != (n, g, n):
            raise ValueError(f"table shape {table.shape} does not match ({n}, {g}, {n})")
        if (given.dtype == bool or table.min() < 0 or table.max() >= n
                or not np.array_equal(table, given)):
            # -1 marks a cell that no entry filled
            missing = np.argwhere(table == -1)
            if missing.size:
                i, j, k = (int(x) for x in missing[0])
                raise MissingEntry(elements[i], gammas[j], elements[k])
            raise ValueError("table entries must be element indices")
        table.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_eindex", {e: i for i, e in enumerate(elements)})
        object.__setattr__(self, "_gindex", {h: j for j, h in enumerate(gammas)})

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def g(self) -> int:
        return len(self.gammas)

    def index(self, element: str) -> int:
        try:
            return self._eindex[element]
        except KeyError:
            raise UnknownIdentifier(element, f"element of {self.name}") from None

    def gamma_index(self, gamma: str) -> int:
        try:
            return self._gindex[gamma]
        except KeyError:
            raise UnknownIdentifier(gamma, f"gamma of {self.name}") from None

    def has_element(self, element: str) -> bool:
        return element in self._eindex

    def mul(self, a: str, gamma: str, b: str) -> str:
        """Product by names: returns the name of ``a gamma b``."""
        return self.elements[self.table[self.index(a), self.gamma_index(gamma), self.index(b)]]

    @cached_property
    def _assoc_verdict(self) -> Optional[AssocWitness]:
        return _scan_associativity(self)

    def __eq__(self, other):
        if not isinstance(other, GammaSemigroup):
            return NotImplemented
        return (self.name == other.name and self.elements == other.elements
                and self.gammas == other.gammas
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.name, self.elements, self.gammas, self.table.tobytes()))

    def __repr__(self):
        return f"GammaSemigroup({self.name!r}, n={self.n}, g={self.g})"


def validate_table(name: str,
                   elements: Sequence[str],
                   gammas: Sequence[str],
                   entries: Iterable[tuple[str, str, str, str]]) -> GammaSemigroup:
    """Build a semigroup from explicit ``(a, gamma, b, result)`` entries.

    Raises NameClash for a repeated name, UnknownIdentifier for an entry
    naming an undeclared identifier, DuplicateEntry when a triple is given
    twice with different results, and MissingEntry (first missing triple in
    index order) when the table is not total.  Associativity is not checked
    here.
    """
    elements = tuple(elements)
    gammas = tuple(gammas)
    _check_unique(name, elements, gammas)
    eindex = {e: i for i, e in enumerate(elements)}
    gindex = {h: j for j, h in enumerate(gammas)}
    n, g = len(elements), len(gammas)
    if n < 1 or g < 1:
        raise ValueError("a gamma-semigroup needs at least one element and one gamma")
    table = np.full((n, g, n), -1, dtype=np.int64)
    for (a, gamma, b, z) in entries:
        for tok, kind, idx in ((a, "element", eindex), (b, "element", eindex),
                               (z, "element", eindex), (gamma, "gamma", gindex)):
            if tok not in idx:
                raise UnknownIdentifier(tok, f"{kind} of {name}")
        i, j, k, v = eindex[a], gindex[gamma], eindex[b], eindex[z]
        if table[i, j, k] != -1 and table[i, j, k] != v:
            raise DuplicateEntry(a, gamma, b, elements[table[i, j, k]], z)
        table[i, j, k] = v
    return GammaSemigroup(name, elements, gammas, table)


class AssocWitness(NamedTuple):
    a: str
    gamma: str
    b: str
    mu: str
    c: str


class HomWitness(NamedTuple):
    a: str
    gamma: str
    b: str


# cells of the (a, gamma, b, mu, c) cube that one associativity block holds
_ASSOC_BLOCK_CELLS = 1 << 18


def check_associativity(s: GammaSemigroup) -> Optional[AssocWitness]:
    """None when (a gamma b) mu c = a gamma (b mu c) everywhere, else the
    lexicographically first violating five-tuple.  The table is scanned on
    the first call for each instance only."""
    return s._assoc_verdict


def _require_associative(*semigroups: GammaSemigroup) -> None:
    """NotAssociative with the first witness of the first semigroup that is
    not associative, if any."""
    for s in semigroups:
        w = check_associativity(s)
        if w is not None:
            raise NotAssociative(w)


def _scan_associativity(s: GammaSemigroup) -> Optional[AssocWitness]:
    """Scan blocks of first factors a, of at most _ASSOC_BLOCK_CELLS cells."""
    t = s.table
    v = t.astype(np.min_scalar_type(s.n - 1))    # narrow values, less to gather
    rows = max(1, _ASSOC_BLOCK_CELLS // (s.g * s.n) ** 2)
    for i in range(0, s.n, rows):
        # lhs[a, j, k, m, c] = (a j k) m c,  rhs[a, j, k, m, c] = a j (k m c)
        lhs, rhs = v[t[i:i + rows]], v[i:i + rows][:, :, t]
        if not np.array_equal(lhs, rhs):
            a, j, k, m, c = (int(x) for x in np.argwhere(lhs != rhs)[0])
            return AssocWitness(s.elements[i + a], s.gammas[j], s.elements[k],
                                s.gammas[m], s.elements[c])
    return None


def is_subsemigroup(s: GammaSemigroup, subset: Iterable[str]) -> bool:
    """True when the nonempty subset is closed under every gamma product."""
    names = list(subset)
    if not names:
        raise ValueError("subset must be nonempty")
    idx = np.array(sorted({s.index(a) for a in names}), dtype=np.int64)
    products = s.table[np.ix_(idx, np.arange(s.g), idx)]
    return bool(np.isin(products, idx).all())


@dataclass(frozen=True)
class GammaHomomorphism:
    """A structure map: a carrier map together with a gamma map.

    The pair (f', f'') is compatible when f'(a gamma b) = f'(a) f''(gamma)
    f'(b) for all a, b, gamma of the source.  Compatibility is checked by
    :func:`verify_homomorphism`, not at construction; totality and codomain
    membership are checked here.
    """

    name: str
    source: GammaSemigroup
    target: GammaSemigroup
    carrier_map: Mapping[str, str]
    gamma_map: Mapping[str, str]

    def __post_init__(self):
        _check_token(self.name, "hom name")
        for a in self.source.elements:
            if a not in self.carrier_map:
                raise IncompleteMap("carrier", a)
        for h in self.source.gammas:
            if h not in self.gamma_map:
                raise IncompleteMap("gamma", h)
        for a, b in self.carrier_map.items():
            if not self.source.has_element(a):
                raise UnknownIdentifier(a, f"element of {self.source.name}")
            if not self.target.has_element(b):
                raise UnknownIdentifier(b, f"element of {self.target.name}")
        for h, k in self.gamma_map.items():
            if h not in self.source.gammas:
                raise UnknownIdentifier(h, f"gamma of {self.source.name}")
            if k not in self.target.gammas:
                raise UnknownIdentifier(k, f"gamma of {self.target.name}")

    def apply(self, a: str) -> str:
        return self.carrier_map[a]

    def apply_gamma(self, h: str) -> str:
        return self.gamma_map[h]

    def _index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        src, dst = self.source, self.target
        f = np.array([dst.index(self.carrier_map[a]) for a in src.elements], dtype=np.int64)
        h = np.array([dst.gamma_index(self.gamma_map[x]) for x in src.gammas], dtype=np.int64)
        return f, h

    def __repr__(self):
        return f"GammaHomomorphism({self.name!r}: {self.source.name} -> {self.target.name})"


def verify_homomorphism(f: GammaHomomorphism) -> Optional[HomWitness]:
    """None when the pair is compatible, else the first violating triple."""
    fmap, hmap = f._index_arrays()
    st, tt = f.source.table, f.target.table
    lhs = fmap[st]
    rhs = tt[fmap[:, None, None], hmap[None, :, None], fmap[None, None, :]]
    bad = np.argwhere(lhs != rhs)
    if bad.size:
        i, j, k = (int(x) for x in bad[0])
        return HomWitness(f.source.elements[i], f.source.gammas[j], f.source.elements[k])
    return None


def _require_homomorphism(f: GammaHomomorphism) -> None:
    """NotAHomomorphism with the first witness unless f is compatible."""
    w = verify_homomorphism(f)
    if w is not None:
        raise NotAHomomorphism(f.name, w)


def _require_ends(f: GammaHomomorphism, source: GammaSemigroup,
                  target: GammaSemigroup) -> None:
    """GammaMismatch unless f goes from source to target."""
    if f.source != source:
        raise GammaMismatch(
            f"hom {f.name!r} has source {f.source.name}, expected {source.name}")
    if f.target != target:
        raise GammaMismatch(
            f"hom {f.name!r} has target {f.target.name}, expected {target.name}")


def injective(f: GammaHomomorphism) -> tuple[bool, bool]:
    """Whether the carrier map and the gamma map are injective, in that order."""
    return (len(set(f.carrier_map.values())) == f.source.n,
            len(set(f.gamma_map.values())) == f.source.g)


def is_monomorphism(f: GammaHomomorphism) -> bool:
    """True when a verified homomorphism has injective carrier and gamma maps."""
    _require_homomorphism(f)
    return all(injective(f))


def identity_homomorphism(s: GammaSemigroup, name: str = "id") -> GammaHomomorphism:
    return GammaHomomorphism(name, s, s,
                             {a: a for a in s.elements},
                             {h: h for h in s.gammas})


def compose(outer: GammaHomomorphism, inner: GammaHomomorphism,
            name: str | None = None) -> GammaHomomorphism:
    """outer after inner; sources and targets must meet in the middle."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError(f"cannot compose {outer.name!r} after {inner.name!r}: "
                         f"{inner.target.name} != {outer.source.name}")
    return GammaHomomorphism(
        name or f"{outer.name}.{inner.name}",
        inner.source, outer.target,
        {a: outer.carrier_map[inner.carrier_map[a]] for a in inner.source.elements},
        {h: outer.gamma_map[inner.gamma_map[h]] for h in inner.source.gammas},
    )


def left_identities(s: GammaSemigroup) -> tuple[str, ...]:
    """Elements e with e gamma a = a for every a and gamma."""
    n = np.arange(s.n)
    hits = (s.table == n[None, None, :]).all(axis=(1, 2))
    return tuple(s.elements[i] for i in np.flatnonzero(hits))


def preserves_left_identity(f: GammaHomomorphism) -> bool:
    """True when every left identity of the source maps to one of the target.

    This is a separate, optional check; verify_homomorphism never requires it.
    """
    targets = set(left_identities(f.target))
    return all(f.carrier_map[e] in targets for e in left_identities(f.source))


# regularity scans -----------------------------------------------------------
#
# All three scans share one reading of the defining equations: a single
# sandwich symbol alpha is used in both positions, a = a alpha x alpha a.
# Witnesses come back in element-then-gamma order.

def _regularity_masks(s: GammaSemigroup, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks [a, x, alpha] for a in rows: regular a = a alpha x alpha a;
    complete, regular and a alpha x = x alpha a; inverse, regular and
    x = x alpha a alpha x."""
    t = s.table
    a = np.arange(s.n)[rows][:, None, None]
    x = np.arange(s.n)[None, :, None]
    al = np.arange(s.g)[None, None, :]
    ax, xa = t[a, al, x], t[x, al, a]
    regular = t[ax, al, a] == a
    return regular, regular & (ax == xa), regular & (t[xa, al, x] == x)


def _witnesses(s: GammaSemigroup, mask: np.ndarray) -> list[Optional[tuple[str, str]]]:
    """The first (x, alpha) of each row of a mask, or None for an empty row."""
    flat = mask.reshape(len(mask), -1)
    first = flat.argmax(axis=1)
    hits = flat[np.arange(len(flat)), first]
    names = [(x, h) for x in s.elements for h in s.gammas]    # by x * g + alpha
    return [names[k] if hit else None for k, hit in zip(first.tolist(), hits.tolist())]


def _pairs(s: GammaSemigroup, mask: np.ndarray) -> list[tuple[tuple[str, str], ...]]:
    """Every (x, alpha) of each row of a mask."""
    rows, cols = np.nonzero(mask.reshape(len(mask), -1))
    names = [(x, h) for x in s.elements for h in s.gammas]
    pairs = [names[k] for k in cols.tolist()]
    ends = np.cumsum(np.bincount(rows, minlength=len(mask))).tolist()
    return [tuple(pairs[b:e]) for b, e in zip([0] + ends[:-1], ends)]


def alpha_regular_witness(s: GammaSemigroup, a: str) -> Optional[tuple[str, str]]:
    """First (x, alpha) with a = a alpha x alpha a, or None."""
    return _witnesses(s, _regularity_masks(s, [s.index(a)])[0])[0]


def completely_regular_witness(s: GammaSemigroup, a: str) -> Optional[tuple[str, str]]:
    """First (x, alpha) with a = a alpha x alpha a and a alpha x = x alpha a."""
    return _witnesses(s, _regularity_masks(s, [s.index(a)])[1])[0]


def alpha_inverses(s: GammaSemigroup, a: str) -> tuple[tuple[str, str], ...]:
    """All (b, alpha) with a = a alpha b alpha a and b = b alpha a alpha b,
    in element-then-gamma order."""
    return _pairs(s, _regularity_masks(s, [s.index(a)])[2])[0]


@dataclass(frozen=True)
class ElementRegularity:
    element: str
    alpha_regular: Optional[tuple[str, str]]
    completely_regular: Optional[tuple[str, str]]
    inverses: tuple[tuple[str, str], ...]

    @property
    def inverse_elements(self) -> tuple[str, ...]:
        seen: list[str] = []
        for b, _ in self.inverses:
            if b not in seen:
                seen.append(b)
        return tuple(seen)


@dataclass(frozen=True)
class RegularityReport:
    semigroup: str
    per_element: tuple[ElementRegularity, ...]
    is_alpha_regular: bool
    is_gamma_inverse: bool
    is_completely_alpha_regular: bool


def classify(s: GammaSemigroup) -> RegularityReport:
    """Regularity classification of an associative table.

    is_gamma_inverse holds exactly when every element has precisely one
    inverse element (projecting the (b, alpha) witness pairs to b).
    """
    _require_associative(s)
    regular, complete, inverse = _regularity_masks(s, slice(None))
    per = tuple(ElementRegularity(*e) for e in zip(
        s.elements, _witnesses(s, regular), _witnesses(s, complete), _pairs(s, inverse)))
    is_reg = all(e.alpha_regular is not None for e in per)
    is_com = all(e.completely_regular is not None for e in per)
    is_inv = is_reg and bool((inverse.any(axis=2).sum(axis=1) == 1).all())
    return RegularityReport(s.name, per, is_reg, is_inv, is_com)
