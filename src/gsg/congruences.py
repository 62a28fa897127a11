"""Congruences, quotients, kernels, and the first isomorphism check.

A congruence is an equivalence on the carrier compatible with every
translation: x ~ y forces (x g z) ~ (y g z) and (z g x) ~ (z g y) for all
z and g.  Classes are canonically named after their minimum-index member,
so every construction here is deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import (
    GammaHomomorphism,
    GammaSemigroup,
    _require_associative,
    _require_homomorphism,
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
    index per element (the minimum index of its class).

    Each instance has one compatibility verdict, computed at most once
    (`_compat_verdict`, read by `compatibility_violation` and `quotient`).
    `generate_congruence` and `kernel_congruence` build their congruences
    compatible and set the verdict, so nothing scans them.  The
    constructor and `from_classes` accept any partition, such as {0, 1},
    {2}, {3} of Z4: the first read scans it, and `quotient` refuses one
    that is no congruence with NotCompatible and its witness, here
    (0, 1, g, 1).  The verdict is no field: equality and hashing read the
    subject and reps only."""

    subject: GammaSemigroup
    reps: tuple[int, ...]

    def __post_init__(self):
        n = self.subject.n
        if any(isinstance(r, bool) for r in self.reps):
            raise TypeError("reps must be element indices, not bool")
        reps = tuple(operator.index(r) for r in self.reps)
        if len(reps) != n or any(not 0 <= r < n for r in reps):
            raise ValueError("reps must assign one element index per element")
        # canonical form: the representative really is the class minimum
        for i, r in enumerate(reps):
            if reps[r] != r or r > i:
                raise ValueError("representatives must be the class minima")
        object.__setattr__(self, "reps", reps)

    @cached_property
    def _compat_verdict(self) -> Optional[tuple[str, str, str, str]]:
        """The scan behind `compatibility_violation`.  Every element is
        compared with its class minimum in one pass; if all agree, every
        pair of a class agrees.  Otherwise the first x is the least minimum
        of a class with a disagreeing member, since that member and x form a
        violating pair, and its (y, gamma, z) is read off one comparison of
        x with the later members of its class."""
        s, reps = self.subject, np.array(self.reps)
        r = reps[s.table]
        disagree = (r != r[reps]).any(axis=(1, 2)) | (r != r[:, :, reps]).any(axis=(0, 1))
        if not disagree.any():
            return None
        x = int(reps[np.flatnonzero(disagree)].min())
        ys = np.flatnonzero(reps == x)[1:]
        bad = (r[ys] != r[x]) | (r[:, :, ys].T != r[:, :, x].T)
        k, j, z = (int(v) for v in np.argwhere(bad)[0])
        return (s.elements[x], s.elements[int(ys[k])], s.gammas[j], s.elements[z])

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

    The closure has joined the translations of every moved element, so the
    congruence is compatible by construction (that argument uses no
    associativity).  It carries that verdict: nothing scans it.
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
    return _compatible(s, label.tolist())


def _compatible(s: GammaSemigroup, reps) -> Congruence:
    """The congruence with these reps, which its construction proved
    compatible: its verdict is set, so it is never scanned."""
    rho = Congruence(s, tuple(reps))
    rho.__dict__["_compat_verdict"] = None
    return rho


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
    congruence.  This is c's one verdict: None at once for the congruences
    `generate_congruence` and `kernel_congruence` build, and any other is
    scanned on the first call for each instance only."""
    return c._compat_verdict


class QuotientResult(NamedTuple):
    semigroup: GammaSemigroup
    projection: GammaHomomorphism


def quotient(s: GammaSemigroup, rho: Congruence) -> QuotientResult:
    """The quotient table on classes, each named after its representative,
    plus the projection homomorphism.

    The table is well defined when rho is compatible.  quotient reads rho's
    one verdict (`compatibility_violation`): a congruence that
    `generate_congruence` or `kernel_congruence` built is not scanned, any
    other at most once, and one that is no congruence raises NotCompatible
    with its witness.
    """
    if rho.subject != s:
        raise ValueError("congruence was built over a different semigroup")
    v = compatibility_violation(rho)
    if v is not None:
        raise NotCompatible(*v)
    # the sorted class minima, and each element's class position
    rep_list, cls = np.unique(rho.reps, return_inverse=True)
    q = cls[s.table[np.ix_(rep_list, range(s.g), rep_list)]]
    names = tuple(s.elements[r] for r in rep_list)
    quotient_s = GammaSemigroup(f"{s.name}_q", names, s.gammas, q)
    proj = GammaHomomorphism(f"{s.name}_proj", s, quotient_s,
                             {e: s.elements[r] for e, r in zip(s.elements, rho.reps)},
                             {h: h for h in s.gammas})
    return QuotientResult(quotient_s, proj)


def kernel_congruence(f: GammaHomomorphism) -> Congruence:
    """x ~ y iff f'(x) = f'(y); the gamma map plays no part in the classes.

    Compatible by construction, so the congruence carries that verdict and
    nothing scans it: f is a homomorphism, so x ~ y gives f'(x g z) =
    f'(x) f''(g) f'(z) = f'(y g z), and likewise on the left.  That step
    uses no associativity."""
    _require_homomorphism(f)
    images = [f.carrier_map[e] for e in f.source.elements]
    # the first element with each image, read back per element
    _, first, inverse = np.unique(images, return_index=True, return_inverse=True)
    return _compatible(f.source, first[inverse].tolist())


@dataclass(frozen=True)
class IsoReport:
    """The first isomorphism theorem for one homomorphism f: S -> T, built
    rather than checked: the quotient S/ker f, the image of f in T's
    element order, and the induced map psi (`mediator`) from each kernel
    class, named after its representative, to f of that representative.

    Every verdict holds by construction once `kernel_congruence` has
    accepted f, so the flags are constant True.  f is constant on kernel
    classes, so psi after the projection is f: psi is well defined and
    factors f.  psi(a g b) = f(rep(a g b)) = f(a) f''(g) f(b), so psi is a
    homomorphism; distinct kernel classes have distinct images, so psi is
    injective.  None of these steps uses associativity.  The report hashes
    without `mediator`, a dict; equality still compares it."""
    hom: str
    quotient_semigroup: GammaSemigroup
    image_elements: tuple[str, ...]
    mediator: dict = field(hash=False)

    well_defined = is_homomorphism = injective = commutes = all_pass = True


def first_isomorphism_check(f: GammaHomomorphism) -> IsoReport:
    """The quotient source/kernel, the image and the induced map of f;
    NotAHomomorphism, with its witness, when f itself is not one."""
    q, _ = quotient(f.source, kernel_congruence(f))
    values = set(f.carrier_map.values())
    image = tuple(e for e in f.target.elements if e in values)
    return IsoReport(f.name, q, image, {c: f.carrier_map[c] for c in q.elements})
