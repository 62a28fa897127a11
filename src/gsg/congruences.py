"""Congruences, quotients, kernels, and the first isomorphism check.

A congruence is an equivalence on the carrier compatible with every
translation: x ~ y forces (x g z) ~ (y g z) and (z g x) ~ (z g y) for all
z and g.  Classes are canonically named after their minimum-index member,
so every construction here is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import (
    GammaHomomorphism,
    GammaSemigroup,
    check_associativity,
    verify_homomorphism,
)
from .errors import NotAHomomorphism, NotAssociative, NotCompatible, UnknownIdentifier

__all__ = [
    "Congruence",
    "QuotientResult",
    "IsoReport",
    "generate_congruence",
    "compatibility_violation",
    "quotient",
    "kernel_congruence",
    "first_isomorphism_check",
]


@dataclass(frozen=True)
class Congruence:
    """An equivalence on a semigroup's carrier, stored as one representative
    index per element (the minimum index of its class).  Compatibility is a
    promise of the constructors, not re-checked here."""

    subject: GammaSemigroup
    reps: tuple[int, ...]

    def __post_init__(self):
        n = self.subject.n
        reps = tuple(int(r) for r in self.reps)
        if len(reps) != n or any(not 0 <= r < n for r in reps):
            raise ValueError("reps must assign one element index per element")
        # canonical form: the representative really is the class minimum
        for i, r in enumerate(reps):
            if reps[r] != r or r > i:
                raise ValueError("representatives must be the class minima")
        object.__setattr__(self, "reps", reps)

    @classmethod
    def from_classes(cls, subject: GammaSemigroup,
                     classes: Iterable[Iterable[str]]) -> "Congruence":
        reps = [-1] * subject.n
        for block in classes:
            idx = sorted(subject.index(a) for a in block)
            for i in idx:
                if reps[i] != -1:
                    raise ValueError(f"element {subject.elements[i]!r} listed twice")
                reps[i] = idx[0]
        if any(r == -1 for r in reps):
            missing = subject.elements[reps.index(-1)]
            raise ValueError(f"element {missing!r} not covered by the partition")
        return cls(subject, tuple(reps))

    def same(self, a: str, b: str) -> bool:
        return self.reps[self.subject.index(a)] == self.reps[self.subject.index(b)]

    def class_of(self, a: str) -> tuple[str, ...]:
        r = self.reps[self.subject.index(a)]
        return tuple(e for i, e in enumerate(self.subject.elements) if self.reps[i] == r)

    def classes(self) -> tuple[tuple[str, ...], ...]:
        """All classes, ordered by representative index."""
        out: dict[int, list[str]] = {}
        for i, r in enumerate(self.reps):
            out.setdefault(r, []).append(self.subject.elements[i])
        return tuple(tuple(out[r]) for r in sorted(out))

    def __le__(self, other: "Congruence") -> bool:
        """Refinement: every class of self sits inside a class of other."""
        if self.subject != other.subject:
            return NotImplemented
        return all(other.reps[i] == other.reps[r] for i, r in enumerate(self.reps))


def generate_congruence(s: GammaSemigroup,
                        pairs: Iterable[tuple[str, str]]) -> Congruence:
    """Least congruence containing the seed pairs.

    Union-find plus a worklist: whenever two classes merge through a seed
    or derived pair (x, y), all left and right translations (x g z, y g z)
    and (z g x, z g y) are enqueued.  Transitive consequences of enqueued
    pairs need no extra treatment because translation chains compose.
    """
    w = check_associativity(s)
    if w is not None:
        raise NotAssociative(w)
    n, g = s.n, s.g
    t = s.table
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = deque()
    for a, b in pairs:
        work.append((s.index(a), s.index(b)))
    while work:
        x, y = work.popleft()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        for j in range(g):
            for z in range(n):
                work.append((int(t[x, j, z]), int(t[y, j, z])))
                work.append((int(t[z, j, x]), int(t[z, j, y])))
    # minimum-index representatives
    groups: dict[int, int] = {}
    reps = [0] * n
    for i in range(n):
        r = find(i)
        if r not in groups:
            groups[r] = i
        reps[i] = groups[r]
    return Congruence(s, tuple(reps))


def compatibility_violation(c: Congruence) -> Optional[tuple[str, str, str, str]]:
    """First (x, y, gamma, z) where x ~ y but a translation separates them,
    or None when the relation is a congruence."""
    s = c.subject
    t = s.table
    reps = np.array(c.reps)
    for x in range(s.n):
        for y in range(x + 1, s.n):
            if reps[x] != reps[y]:
                continue
            for j in range(s.g):
                for z in range(s.n):
                    if reps[t[x, j, z]] != reps[t[y, j, z]] \
                            or reps[t[z, j, x]] != reps[t[z, j, y]]:
                        return (s.elements[x], s.elements[y],
                                s.gammas[j], s.elements[z])
    return None


class QuotientResult(NamedTuple):
    semigroup: GammaSemigroup
    projection: GammaHomomorphism


def quotient(s: GammaSemigroup, rho: Congruence) -> QuotientResult:
    """The quotient table on classes, each named after its representative,
    plus the projection homomorphism.

    Well-definedness is asserted over all representative choices; a failure
    raises NotCompatible with a concrete witness.
    """
    if rho.subject != s:
        raise ValueError("congruence was built over a different semigroup")
    reps = np.array(rho.reps)
    rep_list = sorted(set(rho.reps))
    pos = {r: i for i, r in enumerate(rep_list)}
    cls = np.array([pos[r] for r in rho.reps])   # element index -> class position
    t = s.table
    q = cls[t[np.ix_(rep_list, range(s.g), rep_list)]]
    # all choices of representatives must land in the same class
    expected = q[cls[:, None, None], np.arange(s.g)[None, :, None], cls[None, None, :]]
    bad = np.argwhere(cls[t] != expected)
    if bad.size:
        v = compatibility_violation(rho)
        if v is None:   # pragma: no cover - the scans agree by construction
            raise NotCompatible(s.elements[int(bad[0][0])], "?", s.gammas[int(bad[0][1])], "?")
        raise NotCompatible(*v)
    names = tuple(s.elements[r] for r in rep_list)
    quotient_s = GammaSemigroup(f"{s.name}_q", names, s.gammas, q)
    proj = GammaHomomorphism(
        f"{s.name}_proj", s, quotient_s,
        {e: s.elements[reps[i]] for i, e in enumerate(s.elements)},
        {h: h for h in s.gammas},
    )
    return QuotientResult(quotient_s, proj)


def kernel_congruence(f: GammaHomomorphism) -> Congruence:
    """x ~ y iff f'(x) = f'(y); the gamma map plays no part in the classes."""
    w = verify_homomorphism(f)
    if w is not None:
        raise NotAHomomorphism(f.name, w)
    s = f.source
    first: dict[str, int] = {}
    reps = []
    for i, e in enumerate(s.elements):
        img = f.carrier_map[e]
        reps.append(first.setdefault(img, i))
    return Congruence(s, tuple(reps))


@dataclass(frozen=True)
class IsoReport:
    """Outcome of the first isomorphism check for one homomorphism."""
    hom: str
    well_defined: bool
    is_homomorphism: bool
    injective: bool
    commutes: bool
    quotient_semigroup: GammaSemigroup
    image_elements: tuple[str, ...]
    mediator: dict

    @property
    def all_pass(self) -> bool:
        return self.well_defined and self.is_homomorphism and self.injective and self.commutes


def first_isomorphism_check(f: GammaHomomorphism) -> IsoReport:
    """Build source/kernel and the induced map onto the image, then check:
    the induced map is well defined, a homomorphism onto the image
    sub-table, injective, and factors the original map through the
    projection."""
    w = verify_homomorphism(f)
    if w is not None:
        raise NotAHomomorphism(f.name, w)
    rho = kernel_congruence(f)
    q, proj = quotient(f.source, rho)
    psi = {cname: f.carrier_map[cname] for cname in q.elements}

    well_defined = all(f.carrier_map[e] == psi[proj.carrier_map[e]]
                       for e in f.source.elements)
    tgt = f.target
    is_hom = all(
        psi[q.mul(u, h, v)] == tgt.mul(psi[u], f.gamma_map[h], psi[v])
        for u in q.elements for h in q.gammas for v in q.elements
    )
    injective = len(set(psi.values())) == len(psi)
    # psi is f on each class's representative, so "f is constant on kernel
    # classes" and "psi after the projection is f" are one predicate
    commutes = well_defined
    values = set(f.carrier_map.values())
    image = [e for e in tgt.elements if e in values]
    return IsoReport(f.name, well_defined, is_hom, injective, commutes,
                     q, tuple(image), psi)
