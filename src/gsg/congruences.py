"""Congruences, quotients, kernels, and the first isomorphism check.

A congruence is an equivalence on the carrier compatible with every
translation: x ~ y forces (x g z) ~ (y g z) and (z g x) ~ (z g y) for all
z and g.  Classes are canonically named after their minimum-index member,
so every construction here is deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import (
    GammaHomomorphism,
    GammaSemigroup,
    _require_associative,
    _require_homomorphism,
    injective,
    verify_homomorphism,
)
from .errors import NotCompatible

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
        reps = tuple(operator.index(r) for r in self.reps)
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

    label[x] is the least element known to share x's class.  Each round
    joins a batch of pairs, then queues the left and right translations
    (x g z, y g z) and (z g x, z g y) of every x whose label moved, paired
    with its new label y.  An x whose label stayed put had its translations
    joined in an earlier round, and x ~ y composes through the labels, so
    the closure is complete once no queued pair crosses two classes.
    """
    _require_associative(s)
    seeds = [(s.index(a), s.index(b)) for a, b in pairs]
    a, b = np.array(seeds, dtype=np.int64).reshape(-1, 2).T
    t, label = s.table, np.arange(s.n)
    while True:
        cross = label[a] != label[b]
        if not cross.any():
            break
        old = label.copy()
        _join(label, a[cross], b[cross])
        x = np.flatnonzero(label != old)
        y = label[x]
        a = np.concatenate([t[x].ravel(), t[:, :, x].ravel()])
        b = np.concatenate([t[y].ravel(), t[:, :, y].ravel()])
    return Congruence(s, tuple(label.tolist()))


def _join(label: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the classes of every pair (a[i], b[i]) in place: the larger
    class minimum is hooked under the smaller one, then pointer jumping
    sends every label to its class minimum, until no pair crosses."""
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            return
        la, lb, a, b = la[cross], lb[cross], a[cross], b[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(label[label], label):
            label[:] = label[label]


def compatibility_violation(c: Congruence) -> Optional[tuple[str, str, str, str]]:
    """First (x, y, gamma, z) with x < y and x ~ y but a translation
    separating them, in index order, or None when the relation is a
    congruence.

    Every element is compared with its class minimum in one pass; if all
    agree, every pair of a class agrees.  Otherwise the first x is the least
    minimum of a class with a disagreeing member, since that member and x
    form a violating pair, and its (y, gamma, z) is read off one comparison
    of x with the later members of its class."""
    s, reps = c.subject, np.array(c.reps)
    r = reps[s.table]
    disagree = (r != r[reps]).any(axis=(1, 2)) | (r != r[:, :, reps]).any(axis=(0, 1))
    if not disagree.any():
        return None
    x = int(reps[np.flatnonzero(disagree)].min())
    ys = np.flatnonzero(reps == x)[1:]
    bad = (r[ys] != r[x]) | (r[:, :, ys].T != r[:, :, x].T)
    k, j, z = (int(v) for v in np.argwhere(bad)[0])
    return (s.elements[x], s.elements[int(ys[k])], s.gammas[j], s.elements[z])


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
    v = compatibility_violation(rho)
    if v is not None:
        raise NotCompatible(*v)
    q = cls[s.table[np.ix_(rep_list, range(s.g), rep_list)]]
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
    _require_homomorphism(f)
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
    projection.  NotAHomomorphism when f itself is not one."""
    rho = kernel_congruence(f)
    q, proj = quotient(f.source, rho)
    psi = {cname: f.carrier_map[cname] for cname in q.elements}
    induced = GammaHomomorphism(f"{f.name}_induced", q, f.target, psi, f.gamma_map)

    well_defined = all(f.carrier_map[e] == psi[proj.carrier_map[e]]
                       for e in f.source.elements)
    # psi is f on each class's representative, so "f is constant on kernel
    # classes" and "psi after the projection is f" are one predicate
    commutes = well_defined
    values = set(f.carrier_map.values())
    image = [e for e in f.target.elements if e in values]
    return IsoReport(f.name, well_defined, verify_homomorphism(induced) is None,
                     injective(induced)[0], commutes, q, tuple(image), psi)
