"""Seeded inputs, timed calls and output checks for the four workloads.

Every workload turns a seed into a pool of groups.  A group is a short,
fixed mix of operations; all groups of a workload have the same mix and
the same input sizes, so every run measures the same kind of work whatever
the seed.  An operation is one closure that calls gsg's public API (the
part that is timed) plus a check that compares the result with facts the
harness knows without trusting the code under test:

* tables: class counts follow from arithmetic (cosets of a subgroup of
  Z_n), and associativity, regularity and compatibility are recomputed by
  brute force over the numpy table;
* embedding: for two copies of a group glued over all of it the parts
  embed, so the only provable cross pairs are a_i = b_i; for the left-zero
  amalgams the first letter of a word (up to the glued pair) is invariant
  under every move, which rules out collisions and other cross pairs;
* equality: an Equal verdict must replay to the claimed word and evaluate
  to the same element through a cocone that the harness verifies itself;
* cli: outputs are compared with text derived from the same facts, and
  the quotient output must re-parse and serialize back byte-exactly.

No check reads a "within bound" claim as proof: a search that stopped on
its budget may make no claim, so the checks accept an inconclusive verdict
and reject only claims that contradict the known facts.

gsg is imported from the path run.py sets up and reached through the
package namespace at call time (``gsg.name``), so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import gsg
import gsg.cli
import numpy as np


@dataclass
class Op:
    """One timed call and the check of its result.  check returns None when
    the output is right, else a one-line reason; it may add to tally."""
    kind: str
    call: Callable[[], object]
    check: Callable[[object, Counter], Optional[str]]


# helpers on raw tables (numpy, independent of gsg) ---------------------------

def _cyclic(n: int, g: int) -> np.ndarray:
    x, j = np.arange(n), np.arange(g)
    return (x[:, None, None] + x[None, None, :] + j[None, :, None]) % n


def _permute(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The same structure with element i renamed perm[i]."""
    n, g, _ = table.shape
    out = np.empty_like(table)
    out[perm[:, None, None], np.arange(g)[None, :, None], perm[None, None, :]] = perm[table]
    return out


def _assoc_witness(t: np.ndarray):
    """Lexicographically first (a, g, b, m, c) with (a g b) m c != a g (b m c)."""
    bad = np.argwhere(t[t] != t[:, :, t])
    return tuple(int(v) for v in bad[0]) if bad.size else None


def _regularity_flags(t: np.ndarray) -> tuple[bool, bool, bool]:
    """(alpha-regular, gamma-inverse, completely alpha-regular), one alpha
    used in both places as in gsg.core."""
    n, g, _ = t.shape
    a = np.arange(n)[:, None, None]
    al = np.arange(g)[None, :, None]
    x = np.arange(n)[None, None, :]
    a_al_x = t[a, al, x]
    regular = t[a_al_x, al, a] == a                       # a = (a al x) al a
    commuting = a_al_x == t[x, al, a]                     # a al x = x al a
    inverse = regular & (t[t[x, al, a], al, x] == x)      # x = (x al a) al x
    is_regular = bool(regular.any(axis=(1, 2)).all())
    is_complete = bool((regular & commuting).any(axis=(1, 2)).all())
    is_inverse = is_regular and bool((inverse.any(axis=1).sum(axis=1) == 1).all())
    return is_regular, is_inverse, is_complete


def _compatible(t: np.ndarray, cls: np.ndarray) -> bool:
    """True when the partition cls is a congruence of t."""
    r = cls[t]
    for c in np.unique(cls):
        members = np.flatnonzero(cls == c)
        if not (r[members] == r[members[0]]).all():
            return False
        if not (r[:, :, members] == r[:, :, members[:1]]).all():
            return False
    return True


def _partition(names, cls) -> set:
    blocks: dict[int, set] = {}
    for name, c in zip(names, cls):
        blocks.setdefault(int(c), set()).add(name)
    return {frozenset(b) for b in blocks.values()}


# tables ----------------------------------------------------------------------

TABLE_N, TABLE_G = 64, 2
TABLE_KINDS = ("zmod", "zmod_flat", "left_zero", "right_zero", "constant",
               "zmod_x_left_zero", "zmod_x_right_zero")


def _table_family(kind: str, rng, n: int = TABLE_N, g: int = TABLE_G):
    """(table, expected class ids, seed pairs, expected class count) in
    unpermuted indices.  Every kind yields two classes of n/2, so the
    congruence work is the same size for every table."""
    x = np.arange(n)
    if kind in ("zmod", "zmod_flat"):
        # zmod_flat ignores the gamma (x g y = x + y), so each element has
        # one inverse element and the table is gamma-inverse; zmod is not
        u = 2 * int(rng.integers(n // 4)) + 1              # odd, so gcd(2u, n) = 2
        a = int(rng.integers(n))
        d = math.gcd(2 * u, n)
        t = _cyclic(n, g) if kind == "zmod" else np.repeat(_cyclic(n, 1), g, axis=1)
        return t, x % d, [(a, (a + 2 * u) % n)], d
    if kind in ("left_zero", "right_zero", "constant"):
        if kind == "left_zero":
            t = np.broadcast_to(x[:, None, None], (n, g, n))
        elif kind == "right_zero":
            t = np.broadcast_to(x[None, None, :], (n, g, n))
        else:
            t = np.full((n, g, n), int(rng.integers(n)))
        # every equivalence of these tables is a congruence, so the seed
        # chains below generate exactly the two halves
        order = rng.permutation(n)
        cls = np.zeros(n, dtype=np.int64)
        cls[order[n // 2:]] = 1
        pairs = [(int(order[i]), int(order[i + 1])) for i in range(n - 1) if i != n // 2 - 1]
        return np.ascontiguousarray(t), cls, pairs, 2
    # zmod(n/2) times a two-element left- or right-zero table, gammas paired
    m = n // 2
    x1, x2 = x // 2, x % 2
    first = _cyclic(m, g)[x1[:, None], :, x1[None, :]].transpose(0, 2, 1)
    if kind == "zmod_x_left_zero":
        second = np.broadcast_to(x2[:, None, None], (n, g, n))
    else:
        second = np.broadcast_to(x2[None, None, :], (n, g, n))
    t = first * 2 + second
    u = 2 * int(rng.integers(m // 4)) + 1
    a, b, c = int(rng.integers(m)), int(rng.integers(2)), int(rng.integers(m))
    d = math.gcd(2 * u, m)
    pairs = [(2 * a + b, 2 * ((a + 2 * u) % m) + b), (2 * c, 2 * c + 1)]
    return np.ascontiguousarray(t), x1 % d, pairs, d


def _table_op(index: int, kind: str, rng) -> Op:
    t0, cls0, pairs0, count = _table_family(kind, rng)
    n = len(cls0)
    perm = rng.permutation(n)
    t = _permute(t0, perm)
    cls = np.empty_like(cls0)
    cls[perm] = cls0
    names = tuple(f"x{i}" for i in range(n))
    gammas = tuple(f"g{j}" for j in range(TABLE_G))
    s = gsg.GammaSemigroup(f"T{index}", names, gammas, t)
    pairs = [(names[perm[a]], names[perm[b]]) for a, b in pairs0]
    expected = _partition(names, cls)
    flags = _regularity_flags(t)

    def call():
        witness = gsg.check_associativity(s)
        report = gsg.classify(s)
        rho = gsg.generate_congruence(s, pairs)
        q, proj = gsg.quotient(s, rho)
        violation = gsg.compatibility_violation(rho)
        iso = gsg.first_isomorphism_check(proj)
        return witness, report, rho, q, proj, violation, iso

    def check(out, tally):
        witness, report, rho, q, proj, violation, iso = out
        if witness is not None:
            return f"associative table reported non-associative at {witness}"
        got = (report.is_alpha_regular, report.is_gamma_inverse,
               report.is_completely_alpha_regular)
        if got != flags:
            return f"regularity flags {got}, brute force gives {flags}"
        for e in report.per_element:
            if e.alpha_regular is not None:
                xw, al = e.alpha_regular
                if s.mul(s.mul(e.element, al, xw), al, e.element) != e.element:
                    return f"regularity witness {e.alpha_regular} fails for {e.element}"
        classes = rho.classes()
        if len(classes) != count or {frozenset(c) for c in classes} != expected:
            return f"congruence has {len(classes)} classes, arithmetic gives {count}"
        if q.n != count or len({proj.carrier_map[e] for e in names}) != count:
            return f"quotient has {q.n} elements, expected {count}"
        if violation is not None:
            return f"congruence reported incompatible at {violation}"
        if not iso.all_pass or iso.quotient_semigroup.n != count:
            return "first isomorphism check of the projection failed"
        return None

    return Op(kind, call, check)


def _perturbed_table_op(index: int, rng) -> Op:
    """A table from one family with one entry changed so that it is not
    associative; the harness finds the first witness by brute force.  The
    new entry stays in the class of the old one, so the partition is still
    compatible and the compatibility scan runs to the end, as it does on
    the associative tables."""
    kind = TABLE_KINDS[int(rng.integers(len(TABLE_KINDS)))]
    t0, cls, pairs0, _ = _table_family(kind, rng)
    n, g, _ = t0.shape
    image = np.unique(t0)    # an entry outside products of products may change harmlessly
    while True:
        t = t0.copy()
        i, k = (int(image[v]) for v in rng.integers(len(image), size=2))
        j = int(rng.integers(g))
        same = np.flatnonzero((cls == cls[t[i, j, k]]) & (np.arange(n) != t[i, j, k]))
        t[i, j, k] = same[int(rng.integers(len(same)))]
        witness = _assoc_witness(t)
        if witness is not None:
            break
    names = tuple(f"x{i}" for i in range(n))
    gammas = tuple(f"g{j}" for j in range(g))
    s = gsg.GammaSemigroup(f"P{index}", names, gammas, t)
    pairs = [(names[a], names[b]) for a, b in pairs0]
    blocks = [sorted(b, key=s.index) for b in _partition(names, cls)]
    compatible = _compatible(t, cls)
    a, g1, b, g2, c = witness
    expected_witness = (names[a], gammas[g1], names[b], gammas[g2], names[c])

    def call():
        witness = gsg.check_associativity(s)
        raised = []
        for step in (lambda: gsg.classify(s), lambda: gsg.generate_congruence(s, pairs)):
            try:
                step()
                raised.append(False)
            except gsg.NotAssociative:
                raised.append(True)
        violation = gsg.compatibility_violation(gsg.Congruence.from_classes(s, blocks))
        return witness, raised, violation

    def check(out, tally):
        witness, raised, violation = out
        if witness is None or tuple(witness) != expected_witness:
            return f"associativity witness {witness}, brute force gives {expected_witness}"
        wa, wg, wb, wm, wc = witness
        if s.mul(s.mul(wa, wg, wb), wm, wc) == s.mul(wa, wg, s.mul(wb, wm, wc)):
            return f"witness {witness} does not violate associativity"
        if not all(raised):
            return "classify or generate_congruence accepted a non-associative table"
        if (violation is None) != compatible:
            return f"compatibility verdict {violation}, brute force says {compatible}"
        if violation is not None:
            vx, vy, vg, vz = violation
            c = {e: int(cls[s.index(e)]) for e in names}
            if c[vx] != c[vy] or (c[s.mul(vx, vg, vz)] == c[s.mul(vy, vg, vz)]
                                  and c[s.mul(vz, vg, vx)] == c[s.mul(vz, vg, vy)]):
                return f"compatibility witness {violation} is not a violation"
        return None

    return Op("perturbed", call, check)


def tables(rng, workdir) -> list[list[Op]]:
    groups = []
    for gi in range(4):
        group = [_table_op(8 * gi + k, kind, rng) for k, kind in enumerate(TABLE_KINDS)]
        group.append(_perturbed_table_op(8 * gi + 7, rng))
        groups.append(group)
    return groups


# amalgams shared by embedding and equality ------------------------------------

def _cyclic_copy(k: int, name: str, prefix: str, order) -> "gsg.GammaSemigroup":
    """zmod(k) with element index i standing for residue order[i], named
    prefix + residue."""
    order = [int(r) for r in order]
    where = {r: i for i, r in enumerate(order)}
    t = np.array([[[where[(order[i] + order[m]) % k] for m in range(k)]] for i in range(k)])
    return gsg.GammaSemigroup(name, tuple(f"{prefix}{r}" for r in order), ("g",), t)


def _residue_map(name, src, dst):
    """The map between two _cyclic_copy tables that keeps residues."""
    cmap = {e: dst.elements[[d[1:] for d in dst.elements].index(e[1:])] for e in src.elements}
    return gsg.GammaHomomorphism(name, src, dst, cmap, {"g": "g"})


def _two_copies(k: int, rng, with_target: bool = False):
    """Two copies of zmod(k) glued over a third, element orders shuffled;
    with a target copy T and the cocone psi1, psi2 when asked."""
    u, s1, s2, t = (_cyclic_copy(k, nm, p, rng.permutation(k))
                    for nm, p in (("U", "u"), ("S1", "a"), ("S2", "b"), ("T", "t")))
    a = gsg.GammaAmalgam(f"two_z{k}", u, (s1, s2),
                         (_residue_map("f1", u, s1), _residue_map("f2", u, s2)), gsg.Mode.SAME_GAMMA)
    if not with_target:
        return a
    return a, t, _residue_map("psi1", s1, t), _residue_map("psi2", s2, t)


def _trivial(element: str, gamma: str, name: str):
    return gsg.GammaSemigroup(name, (element,), (gamma,), np.zeros((1, 1, 1), dtype=np.int64))


def _left_zero_amalgam(rng, k1: int, k2: int, mode):
    """Core {u} into left-zero tables of k1 and k2 elements (k2 = 1 gives a
    trivial part); in disjoint mode each table has its own gamma."""
    disjoint = mode is gsg.Mode.DISJOINT
    gu, g1, g2 = ("gu", "h1", "h2") if disjoint else ("g", "g", "g")
    u = _trivial("u", gu, "U")
    p = [f"p{i}" for i in rng.permutation(k1)]
    s1 = gsg.left_zero(p, [g1], name="S1")
    q = [f"q{i}" for i in rng.permutation(k2)]
    s2 = gsg.left_zero(q, [g2], name="S2") if k2 > 1 else _trivial(q[0], g2, "S2")
    pu, qu = p[int(rng.integers(k1))], q[int(rng.integers(k2))]
    f1 = gsg.GammaHomomorphism("f1", u, s1, {"u": pu}, {gu: g1})
    f2 = gsg.GammaHomomorphism("f2", u, s2, {"u": qu}, {gu: g2})
    return gsg.GammaAmalgam("disjoint" if disjoint else "left_zero", u, (s1, s2), (f1, f2), mode)


def _table_dict(s) -> dict:
    return {(a, h, b): s.elements[s.table[i, j, k]]
            for i, a in enumerate(s.elements) for j, h in enumerate(s.gammas)
            for k, b in enumerate(s.elements)}


class Cocone:
    """Maps from both parts into a target, checked by the harness to be
    homomorphisms that agree on the core; folding a word through them is
    then a necessary condition for equality in the amalgam."""

    def __init__(self, a, target, maps):
        self.table = _table_dict(target)
        self.cmap, self.gmap = {}, {}
        for f, part in zip(maps, a.parts):
            part_table = _table_dict(part)
            for (x, h, y), z in part_table.items():
                if f.carrier_map[z] != self.table[(f.carrier_map[x], f.gamma_map[h],
                                                   f.carrier_map[y])]:
                    raise ValueError(f"{f.name} is not a homomorphism at {(x, h, y)}")
            self.cmap.update(f.carrier_map)
            self.gmap.update(f.gamma_map)
        for u in a.core.elements:
            if maps[0].carrier_map[a.maps[0].carrier_map[u]] != \
                    maps[1].carrier_map[a.maps[1].carrier_map[u]]:
                raise ValueError(f"cocone does not commute on core element {u}")

    def fold(self, tokens) -> str:
        acc = self.cmap[tokens[0]]
        for k in range(1, len(tokens), 2):
            acc = self.table[(acc, self.gmap[tokens[k]], self.cmap[tokens[k + 1]])]
        return acc


def _relation_pairs(a) -> dict:
    """Both images of every core product, as a swap map in both directions."""
    f1, f2 = a.maps
    pairs = [(f1.carrier_map[z], f2.carrier_map[z]) for z in _table_dict(a.core).values()]
    if a.mode is gsg.Mode.DISJOINT:
        pairs += [(f1.gamma_map[h], f2.gamma_map[h]) for h in a.core.gammas]
    return {**dict(pairs), **{y: x for x, y in pairs}}


# embedding ---------------------------------------------------------------------

# kind -> bound; sizes and bounds chosen so that every report costs about
# the same (two_copies(4) at bound 4 would cost four times the others; its
# group enters through the z4 mediator fixture instead)
EMBED_BOUND = {"two_copies_z3": 4, "z4_mediator": 4, "left_zero": 5, "disjoint": 4}
EMBED_LEFT_ZERO_SIZES = {"left_zero": (3, 2), "disjoint": (4, 1)}


def _embedding_check(a, cross_expected, core_of):
    """No collisions and exactly the expected cross pairs, each resolved by
    its core element; chains of any collision are replayed for the report."""
    def check(report, tally):
        if report.collisions:
            c = report.collisions[0]
            try:
                replayed = gsg.replay_chain(a, a.free_product().embed(c.part - 1, c.a), c.chain)
                tail = "replays" if str(replayed) == c.b else "does not replay"
            except ValueError as e:
                tail = f"does not replay ({e})"
            return f"collision {c.a} = {c.b} claimed in a part that embeds; chain {tail}"
        got = {(p.s1, p.s2): p.resolved_by for p in report.cross_pairs}
        if set(got) != cross_expected:
            return f"cross pairs {sorted(got)}, expected {sorted(cross_expected)}"
        for (e1, _), by in got.items():
            if by != core_of[e1]:
                return f"cross pair at {e1} resolved by {by}, expected {core_of[e1]}"
        if report.verdict != "consistent-within-bound":
            return f"verdict {report.verdict} without a collision"
        return None
    return check


def _embedding_op(kind: str, rng) -> Op:
    bound = EMBED_BOUND[kind]
    if kind == "z4_mediator":
        a, t, psi1, psi2 = _two_copies(4, rng, with_target=True)
        Cocone(a, t, (psi1, psi2))     # raises if the fixture were not a cocone

        def check(report, tally):
            if not report.all_pass:
                return (f"mediator through a verified cocone failed: relations "
                        f"{report.relations_witness} diagram {report.diagram_witness} "
                        f"products {report.products_witness}")
            return None

        return Op(kind, lambda: gsg.pushout_mediator(a, t, psi1, psi2, bound), check)
    if kind == "two_copies_z3":
        a = _two_copies(3, rng)
    else:
        a = _left_zero_amalgam(rng, *EMBED_LEFT_ZERO_SIZES[kind],
                               gsg.Mode.SAME_GAMMA if kind == "left_zero" else gsg.Mode.DISJOINT)
    f1, f2 = a.maps
    cross = {(f1.carrier_map[u], f2.carrier_map[u]) for u in a.core.elements}
    core_of = {f1.carrier_map[u]: u for u in a.core.elements}
    return Op(kind, lambda: gsg.check_natural_embedding(a, bound),
              _embedding_check(a, cross, core_of))


def embedding(rng, workdir) -> list[list[Op]]:
    return [[_embedding_op(kind, rng) for kind in EMBED_BOUND] for _ in range(8)]


# equality ----------------------------------------------------------------------

EQ_LIMITS = {"two_z4": (4, 1000), "disjoint": (5, 1000)}   # bound, budget
EQ_PER_KIND = 8        # queries per (amalgam, construction) in one batch


def _z4_with_cocone(rng):
    a, t, psi1, psi2 = _two_copies(4, rng, with_target=True)
    return a, Cocone(a, t, (psi1, psi2))


def _disjoint_with_cocone(rng):
    a = _left_zero_amalgam(rng, 2, 1, gsg.Mode.DISJOINT)
    v = gsg.left_zero(["v0", "v1"], ["h"], name="V")
    (s1, s2), (f1, f2) = a.parts, a.maps
    glued = f1.carrier_map["u"]
    psi1 = gsg.GammaHomomorphism("psi1", s1, v, {e: "v0" if e == glued else "v1"
                                                 for e in s1.elements}, {"h1": "h"})
    psi2 = gsg.GammaHomomorphism("psi2", s2, v, {s2.elements[0]: "v0"}, {"h2": "h"})
    return a, Cocone(a, v, (psi1, psi2))


def _random_letters(fp, rng, disjoint: bool) -> list:
    """Alternating (part, element) and gamma letters, m in 1..3."""
    m = int(rng.integers(1, 4))
    out = []
    for i in range(m):
        p = int(rng.integers(2))
        out.append((p, fp.members[p].elements[int(rng.integers(fp.members[p].n))]))
        if i < m - 1:
            gammas = fp.members[int(rng.integers(2))].gammas if disjoint else fp.shared_gammas
            out.append(gammas[int(rng.integers(len(gammas)))])
    return out


def _multiply_out(fp, letters):
    w = fp.embed(*letters[0])
    for k in range(1, len(letters), 2):
        w = fp.gamma_multiply(w, letters[k], fp.embed(*letters[k + 1]))
    return w


def _swapped(letters, swap, owner, rng) -> list:
    """Replace letters by their relation partners at random positions."""
    out = []
    for x in letters:
        name = x[1] if isinstance(x, tuple) else x
        if name in swap and rng.random() < 0.7:
            partner = swap[name]
            out.append((owner[partner], partner) if isinstance(x, tuple) else partner)
        else:
            out.append(x)
    return out


def equality(rng, workdir) -> list[list[Op]]:
    amalgams = [_z4_with_cocone(rng), _disjoint_with_cocone(rng)]
    prepared = []
    for a, cocone in amalgams:
        fp = a.free_product()
        owner = {e: p for p, s in enumerate(a.parts) for e in s.elements}
        prepared.append((a, cocone, fp, owner, _relation_pairs(a)))
    groups = []
    for _ in range(64):
        queries = []
        for a, cocone, fp, owner, swap in prepared:
            disjoint = a.mode is gsg.Mode.DISJOINT
            for by_construction in (True, False):
                for _ in range(EQ_PER_KIND):
                    letters = _random_letters(fp, rng, disjoint)
                    other = (_swapped(letters, swap, owner, rng) if by_construction
                             else _random_letters(fp, rng, disjoint))
                    queries.append((a, cocone, by_construction,
                                    _multiply_out(fp, letters), _multiply_out(fp, other)))
        order = rng.permutation(len(queries))
        groups.append([_equality_batch([queries[i] for i in order])])
    return groups


def _equality_batch(queries) -> Op:
    def call():
        return [gsg.words_equal_within(a, w1, w2, *EQ_LIMITS[a.name])
                for a, _, _, w1, w2 in queries]

    def check(verdicts, tally):
        for (a, cocone, by_construction, w1, w2), v in zip(queries, verdicts):
            tally["queries"] += 1
            tally["budget_stops"] += v.limit == "budget"
            tally["equal"] += bool(v.equal)
            if v.equal:
                try:
                    replayed = gsg.replay_chain(a, w1, v.chain)
                except ValueError as e:
                    return f"chain for {w1} = {w2} does not replay: {e}"
                if replayed != w2:
                    return f"chain for {w1} = {w2} replays to {replayed}"
                if cocone.fold(w1.tokens()) != cocone.fold(w2.tokens()):
                    return f"{w1} = {w2} proven, but the cocone separates them"
            elif v.limit not in ("exhausted", "budget"):
                return f"inconclusive verdict with stop reason {v.limit!r}"
            elif by_construction and v.limit == "exhausted":
                # the swaps that built w2 form a chain within the bound
                return f"{w1} = {w2} holds by construction, yet the search exhausted"
        return None

    return Op("batch", call, check)


# cli ---------------------------------------------------------------------------

CLI_N = 40
CLI_KINDS = ("zmod", "zmod_x_left_zero", "zmod_x_right_zero")


def _cli_table(kind: str, rng):
    """(table, class of each element, quotient seed pairs, value whose
    parity the hom to Q keeps) for an n = 40 table whose congruence from
    the seeds has n/2 classes."""
    n, g = CLI_N, 2
    x = np.arange(n)
    if kind == "zmod":
        a = int(rng.integers(n))
        return _cyclic(n, g), x % (n // 2), [(a, (a + n // 2) % n)], x
    t, _, _, _ = _table_family(kind, rng, n, g)
    c = int(rng.integers(n // 2))
    return t, x // 2, [(2 * c, 2 * c + 1)], x // 2


def _block(lines) -> str:
    return "\n".join(lines) + "\nend\n"


def _semigroup_text(name, elements, gammas, table, rng) -> str:
    ops = [f"op {a} {h} {b} = {elements[table[i, j, k]]}"
           for i, a in enumerate(elements) for j, h in enumerate(gammas)
           for k, b in enumerate(elements)]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return _block([f"semigroup {name}", "elements " + " ".join(elements),
                   "gammas " + " ".join(gammas)] + ops)


def _hom_text(name, src, dst, cmap, gammas) -> str:
    return _block([f"hom {name} : {src} -> {dst}"]
                  + [f"map {a} -> {b}" for a, b in cmap.items()]
                  + [f"gmap {h} -> {h}" for h in gammas])


def _cli_group(index: int, rng, workdir) -> list[Op]:
    kind = CLI_KINDS[index % len(CLI_KINDS)]
    t0, classes0, pairs0, value0 = _cli_table(kind, rng)
    n, g, _ = t0.shape
    perm = rng.permutation(n)
    t = _permute(t0, perm)
    classes, value = np.empty_like(classes0), np.empty_like(value0)
    classes[perm], value[perm] = classes0, value0
    gammas = ("g0", "g1")
    s_names = tuple(f"s{i}" for i in range(n))
    small = {"Q": "q", "U": "u", "S1": "a", "S2": "b"}       # zmod(2, 2) copies
    tables = {"S": (s_names, t)}
    for name, prefix in small.items():
        tables[name] = ((f"{prefix}0", f"{prefix}1"), _cyclic(2, g))
    text = "\n".join(_semigroup_text(name, els, gammas, tab, rng)
                     for name, (els, tab) in tables.items())
    parity = {e: f"q{int(value[i]) % 2}" for i, e in enumerate(s_names)}
    text += "\n" + _hom_text("f", "S", "Q", parity, gammas)
    text += "\n" + _hom_text("h1", "U", "S1", {"u0": "a0", "u1": "a1"}, gammas)
    text += "\n" + _hom_text("h2", "U", "S2", {"u0": "b0", "u1": "b1"}, gammas)
    text += "\n" + _block(["amalgam A", "core U", "parts S1 S2", "maps h1 h2",
                           "mode same-gamma"])
    path = os.path.join(workdir, f"ws{index}.gsg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    flags = _regularity_flags(t)
    pairs = ",".join(f"{s_names[perm[a]]}~{s_names[perm[b]]}" for a, b in pairs0)
    quotient_blocks = _partition(s_names, classes)
    # a word-mul whose junction merges inside S, computed from the table
    x, y = (int(v) for v in rng.integers(n, size=2))
    g_left, g_mid, g_right = (gammas[int(v)] for v in rng.integers(g, size=3))
    q, a = f"q{int(rng.integers(2))}", f"a{int(rng.integers(2))}"
    left, right = f"{q} {g_left} {s_names[x]}", f"{s_names[y]} {g_right} {a}"
    word = f"{q} {g_left} {s_names[t[x, gammas.index(g_mid), y]]} {g_right} {a}"
    validate_out = [f"semigroup {nm}: total, associative" for nm in tables] + [
        "hom f: S -> Q: homomorphism, monomorphism=no",
        "hom h1: U -> S1: homomorphism, monomorphism=yes",
        "hom h2: U -> S2: homomorphism, monomorphism=yes",
        "amalgam A: valid (mode same-gamma)", "validate: PASS"]
    yes = {True: "yes", False: "no"}
    flags_line = (f"flags: alpha-regular={yes[flags[0]]} gamma-inverse={yes[flags[1]]} "
                  f"completely-alpha-regular={yes[flags[2]]}")

    def exact(expected_lines):
        def check(out, tally):
            rc, text = out
            if rc != 0 or text.splitlines() != expected_lines:
                return f"exit {rc}, output {text.splitlines()[-1:]}"
            return None
        return check

    def check_classify(out, tally):
        rc, text = out
        lines = text.splitlines()
        if rc != (0 if flags[2] else 1) or flags_line not in lines:
            return f"classify exit {rc}, expected flags {flags_line!r}"
        if sum(line.startswith("element ") for line in lines) != n:
            return "classify did not report every element"
        return None

    def check_quotient(out, tally):
        rc, text = out
        lines = text.splitlines(keepends=True)
        heads = [line.split(":", 1)[1].split() for line in lines if line.startswith("# class")]
        body = "".join(line for line in lines if not line.startswith("#"))
        if rc != 0 or {frozenset(h) for h in heads} != quotient_blocks:
            return f"quotient exit {rc} with {len(heads)} classes, expected {len(quotient_blocks)}"
        try:
            again = gsg.serialize(gsg.parse(body))
        except gsg.GsgError as e:
            return f"quotient output does not re-parse: {e}"
        if again != body:
            return "quotient output does not serialize back byte-exactly"
        return None

    def check_amalgam(out, tally):
        rc, text = out
        lines = text.splitlines()
        want = ["  a0 = b0: resolved by core element u0", "  a1 = b1: resolved by core element u1"]
        # exit 3 (inconclusive) is allowed: only the facts below are asserted
        if rc not in (0, 3) or any(line.startswith("collision") for line in lines):
            return f"amalgam-check exit {rc} on an amalgam whose parts embed"
        if "intersection: 2 cross pair(s) proven equal" not in lines or \
                not all(w in lines for w in want):
            return "amalgam-check missed the cross pairs a_i = b_i"
        return None

    commands = [
        ("validate", ["validate", path], exact(validate_out)),
        ("classify", ["classify", path, "--semigroup", "S"], check_classify),
        ("hom-check", ["hom-check", path, "--hom", "f"], exact([
            "hom f: S -> Q", "compatibility: ok", "injective-carrier: no",
            "injective-gamma: yes", "monomorphism: no", "hom-check: PASS"])),
        ("iso-check", ["iso-check", path, "--hom", "f"], exact([
            "hom f: S -> Q", "well-defined: yes", "homomorphism-onto-image: yes",
            "injective: yes", "factors-original-map: yes", "kernel-classes: 2 image-size: 2",
            "iso-check: PASS"])),
        ("quotient", ["quotient", path, "--semigroup", "S", "--pairs", pairs], check_quotient),
        ("word-mul", ["word-mul", path, "--left", left, "--gamma", g_mid,
                      "--right", right], exact([word])),
        ("amalgam-check", ["amalgam-check", path, "--amalgam", "A", "--bound", "3"],
         check_amalgam),
    ]
    return [Op(kind_, _cli_call(argv), check) for kind_, argv, check in commands]


def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = gsg.cli.run(argv)
        return rc, out.getvalue() + err.getvalue()
    return call


def cli(rng, workdir) -> list[list[Op]]:
    return [_cli_group(i, rng, workdir) for i in range(6)]


WORKLOADS = {"tables": tables, "embedding": embedding, "equality": equality, "cli": cli}
