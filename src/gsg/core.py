"""Finite gamma-semigroups as dense operation tables.

A gamma-semigroup is a finite carrier S, a finite set of sandwich symbols
(the "gammas"), and a total three-place product (a, gamma, b) -> a gamma b
satisfying (a gamma b) mu c = a gamma (b mu c) for every choice of gammas.
No identity of any kind is assumed.

Tables are stored as dense integer index cubes of shape (n, g, n), so the
axiom scan, homomorphism verification, and the regularity scans all
vectorise.  Every reported witness is the first one in lexicographic index
order, which keeps output stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEntry,
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


@dataclass(frozen=True, eq=False)
class GammaSemigroup:
    """A named finite carrier with a total table ``a gamma b``.

    ``table[i, j, k]`` holds the element index of ``elements[i] gammas[j]
    elements[k]``.  Instances are immutable; the array is locked after
    construction.  Associativity is NOT enforced here, use
    :func:`check_associativity`.
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
        if len(set(elements)) != len(elements):
            dup = next(e for i, e in enumerate(elements) if e in elements[:i])
            raise NameClash(dup, f"elements of {self.name}")
        if len(set(gammas)) != len(gammas):
            dup = next(h for j, h in enumerate(gammas) if h in gammas[:j])
            raise NameClash(dup, f"gammas of {self.name}")
        n, g = len(elements), len(gammas)
        if n < 1 or g < 1:
            raise ValueError("a gamma-semigroup needs at least one element and one gamma")
        table = np.ascontiguousarray(np.asarray(self.table, dtype=np.int64))
        if table.shape != (n, g, n):
            raise ValueError(f"table shape {table.shape} does not match ({n}, {g}, {n})")
        if table.min() < 0 or table.max() >= n:
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

    def mul_idx(self, i: int, j: int, k: int) -> int:
        return int(self.table[i, j, k])

    def mul(self, a: str, gamma: str, b: str) -> str:
        """Product by names: returns the name of ``a gamma b``."""
        return self.elements[self.table[self.index(a), self.gamma_index(gamma), self.index(b)]]

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

    Raises UnknownIdentifier for an entry naming an undeclared identifier,
    DuplicateEntry when a triple is given twice with different results, and
    MissingEntry (first missing triple in index order) when the table is not
    total.  Associativity is not checked here.
    """
    elements = tuple(elements)
    gammas = tuple(gammas)
    eindex = {e: i for i, e in enumerate(elements)}
    gindex = {h: j for j, h in enumerate(gammas)}
    if len(eindex) != len(elements):
        dup = next(e for i, e in enumerate(elements) if e in elements[:i])
        raise NameClash(dup, f"elements of {name}")
    if len(gindex) != len(gammas):
        dup = next(h for j, h in enumerate(gammas) if h in gammas[:j])
        raise NameClash(dup, f"gammas of {name}")
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
    missing = np.argwhere(table == -1)
    if missing.size:
        i, j, k = (int(x) for x in missing[0])
        raise MissingEntry(elements[i], gammas[j], elements[k])
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


def check_associativity(s: GammaSemigroup) -> Optional[AssocWitness]:
    """None when (a gamma b) mu c = a gamma (b mu c) everywhere, else the
    lexicographically first violating five-tuple."""
    t = s.table
    n = s.n
    for i in range(n):
        # lhs[j, k, m, c] = (i j k) m c,  rhs[j, k, m, c] = i j (k m c)
        lhs = t[t[i]]
        rhs = t[i][:, t]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            j, k, m, c = (int(x) for x in bad[0])
            return AssocWitness(s.elements[i], s.gammas[j], s.elements[k],
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


def injective(f: GammaHomomorphism) -> tuple[bool, bool]:
    """Whether the carrier map and the gamma map are injective, in that order."""
    return (len(set(f.carrier_map.values())) == f.source.n,
            len(set(f.gamma_map.values())) == f.source.g)


def is_monomorphism(f: GammaHomomorphism) -> bool:
    """True when a verified homomorphism has injective carrier and gamma maps."""
    w = verify_homomorphism(f)
    if w is not None:
        raise NotAHomomorphism(f.name, w)
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

def _regular_mask(s: GammaSemigroup, i: int) -> np.ndarray:
    """mask[x, j] <=> i = i j x j i."""
    t = s.table
    cols = np.arange(s.g)[:, None]
    left = t[i]                      # [j, x] = i j x
    outer = t[left, cols, i]         # [j, x] = (i j x) j i
    return (outer == i).T


def _commuting_mask(s: GammaSemigroup, i: int) -> np.ndarray:
    """mask[x, j] <=> i j x = x j i."""
    t = s.table
    return (t[i] == t[:, :, i].T).T


def alpha_regular_witness(s: GammaSemigroup, a: str) -> Optional[tuple[str, str]]:
    """First (x, alpha) with a = a alpha x alpha a, or None."""
    i = s.index(a)
    hits = np.argwhere(_regular_mask(s, i))
    if hits.size:
        x, j = (int(v) for v in hits[0])
        return (s.elements[x], s.gammas[j])
    return None


def completely_regular_witness(s: GammaSemigroup, a: str) -> Optional[tuple[str, str]]:
    """First (x, alpha) with a = a alpha x alpha a and a alpha x = x alpha a."""
    i = s.index(a)
    hits = np.argwhere(_regular_mask(s, i) & _commuting_mask(s, i))
    if hits.size:
        x, j = (int(v) for v in hits[0])
        return (s.elements[x], s.gammas[j])
    return None


def alpha_inverses(s: GammaSemigroup, a: str) -> tuple[tuple[str, str], ...]:
    """All (b, alpha) with a = a alpha b alpha a and b = b alpha a alpha b,
    in element-then-gamma order."""
    i = s.index(a)
    t = s.table
    cols = np.arange(s.g)[:, None]
    back = t[t[:, :, i], cols.T, np.arange(s.n)[:, None]]   # [b, j] = (b j i) j b
    mask = _regular_mask(s, i) & (back == np.arange(s.n)[:, None])
    return tuple((s.elements[int(b)], s.gammas[int(j)]) for b, j in np.argwhere(mask))


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
    w = check_associativity(s)
    if w is not None:
        raise NotAssociative(w)
    per = tuple(
        ElementRegularity(a,
                          alpha_regular_witness(s, a),
                          completely_regular_witness(s, a),
                          alpha_inverses(s, a))
        for a in s.elements
    )
    is_reg = all(e.alpha_regular is not None for e in per)
    is_com = all(e.completely_regular is not None for e in per)
    is_inv = is_reg and all(len(e.inverse_elements) == 1 for e in per)
    return RegularityReport(s.name, per, is_reg, is_inv, is_com)
