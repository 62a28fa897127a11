"""Acceptance gate: eleven criteria, one printed verdict line each.

Everything here is discrete algebra, so every comparison is exact; there
are no numeric tolerances anywhere.  Criteria that consume Equal verdicts
replay the attached chains; a verdict that does not replay is a failure
even when the flag says Equal.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import functools
import itertools
import random

import numpy as np

from conftest import (
    DATA,
    k2,
    make_core_not_regular_amalgam,
    make_embedded_z4_fixture,
    make_trivial_amalgam,
    make_two_copies,
    make_z2_in_trivial,
    make_leftzero_amalgam,
    make_disjoint_amalgam,
    small_fixture_tables,
    trivial,
    words_up_to,
)
from oracles import (
    brute_assoc_witness,
    brute_regularity,
    congruence_blocks,
    least_congruence_by_enumeration,
)
from gsg import (
    FreeProduct,
    GammaAmalgam,
    GammaHomomorphism,
    GammaSemigroup,
    GsgError,
    Mode,
    Workspace,
    check_associativity,
    check_natural_embedding,
    classify,
    first_isomorphism_check,
    generate_congruence,
    kernel_congruence,
    necessary_condition,
    parse,
    pushout_mediator,
    quotient,
    replay_chain,
    serialize,
    verify_homomorphism,
    words_equal_within,
)
from gsg.families import constant, left_zero, relabel, right_zero, zmod

EQUAL_VERDICTS = []   # (amalgam, w1, chain, w2) collected during the run


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {n}: FAIL ({label})")
                raise
            print(f"criterion {n}: PASS ({label})")
        return wrapper
    return deco


def proven_equal(a, w1, w2, **kw):
    v = words_equal_within(a, w1, w2, **kw)
    assert v.equal
    EQUAL_VERDICTS.append((a, w1, v.chain, w2))
    return v


@criterion(1, "associativity across families plus corruption detection")
def test_criterion_01():
    for n in range(1, 9):
        for kk in range(1, 5):
            assert check_associativity(zmod(n, gammas=kk)) is None
    for n in range(1, 6):
        names = [f"e{i}" for i in range(n)]
        for gammas in (["g"], ["g", "h"]):
            assert check_associativity(left_zero(names, gammas, name="L")) is None
            assert check_associativity(right_zero(names, gammas, name="R")) is None
            assert check_associativity(constant(names, names[0], gammas, name="C")) is None

    base = zmod(4, gammas=2)
    rng = np.random.default_rng(7)
    checked = 0
    draws = 0
    while checked < 50:
        draws += 1
        assert draws < 500, "corruption sampling ran away"
        t = base.table.copy()
        i, j, kk = (int(rng.integers(4)), int(rng.integers(2)), int(rng.integers(4)))
        new = int(rng.integers(4))
        if new == t[i, j, kk]:
            continue
        t[i, j, kk] = new
        s = GammaSemigroup("X", base.elements, base.gammas, t)
        brute = brute_assoc_witness(s.elements, s.gammas, {
            (x, g, y): s.mul(x, g, y)
            for x in s.elements for g in s.gammas for y in s.elements})
        if brute is None:
            continue
        w = check_associativity(s)
        assert w is not None, "library missed a corruption the oracle caught"
        a, g, b, m, c = w
        assert s.mul(s.mul(a, g, b), m, c) != s.mul(a, g, s.mul(b, m, c))
        checked += 1
    assert checked == 50


def _two_member_product():
    a = relabel(zmod(2, gammas=2), "A", ["a0", "a1"], ["g", "h"])
    b = left_zero(["p", "q"], ["g", "h"], name="B")
    return FreeProduct([a, b], Mode.SAME_GAMMA)


@criterion(2, "free product associativity, exhaustive at two letters")
def test_criterion_02():
    fp = _two_member_product()
    words = words_up_to(fp, 2)
    assert len(words) == 20
    for a in words:
        for b in words:
            for c in words:
                for al in ("g", "h"):
                    ab = fp.gamma_multiply(a, al, b)
                    for be in ("g", "h"):
                        lhs = fp.gamma_multiply(ab, be, c)
                        rhs = fp.gamma_multiply(a, al, fp.gamma_multiply(b, be, c))
                        assert lhs == rhs


@criterion(3, "fold is the unique mediating morphism at two letters")
def test_criterion_03():
    fp = _two_member_product()
    t = left_zero(["t0", "t1", "tp", "tq"], ["g", "h"], name="T")
    psi_a = GammaHomomorphism("psiA", fp.members[0], t,
                              {"a0": "t0", "a1": "t0"}, {"g": "g", "h": "h"})
    psi_b = GammaHomomorphism("psiB", fp.members[1], t,
                              {"p": "tp", "q": "tq"}, {"g": "g", "h": "h"})
    assert verify_homomorphism(psi_a) is None
    assert verify_homomorphism(psi_b) is None
    homs = [psi_a, psi_b]
    for i, psi in enumerate(homs):
        for e in fp.members[i].elements:
            assert fp.fold(fp.embed(i, e), t, homs) == psi.carrier_map[e]
    words = words_up_to(fp, 2)
    for a in words:
        for gn in ("g", "h"):
            for b in words:
                lhs = fp.fold(fp.gamma_multiply(a, gn, b), t, homs)
                rhs = t.mul(fp.fold(a, t, homs), gn, fp.fold(b, t, homs))
                assert lhs == rhs


@criterion(4, "generated congruences are least among compatible partitions")
def test_criterion_04():
    tables = [s for s in small_fixture_tables() if s.n <= 4 and s.g <= 2]
    assert len(tables) >= 10
    for s in tables:
        for x, y in itertools.combinations(s.elements, 2):
            rho = generate_congruence(s, [(x, y)])
            expected = least_congruence_by_enumeration(s, [(x, y)])
            assert congruence_blocks(rho) == expected, (s.name, x, y)


def _enumerable_homs(src, dst):
    for carrier in itertools.product(dst.elements, repeat=src.n):
        for gammas in itertools.product(dst.gammas, repeat=src.g):
            f = GammaHomomorphism("f", src, dst,
                                  dict(zip(src.elements, carrier)),
                                  dict(zip(src.gammas, gammas)))
            if verify_homomorphism(f) is None:
                yield f


@criterion(5, "first isomorphism assertions for every enumerable hom")
def test_criterion_05():
    tables = [s for s in small_fixture_tables() if s.n <= 3]
    checked = 0
    for src in tables:
        for dst in tables:
            for f in _enumerable_homs(src, dst):
                report = first_isomorphism_check(f)
                assert report.all_pass, (src.name, dst.name, f.carrier_map)
                checked += 1
    assert checked > 100


@criterion(6, "every produced quotient is again associative")
def test_criterion_06():
    produced = 0
    tables = [s for s in small_fixture_tables() if s.n <= 4 and s.g <= 2]
    for s in tables:
        for x, y in itertools.combinations(s.elements, 2):
            q, _ = quotient(s, generate_congruence(s, [(x, y)]))
            assert check_associativity(q) is None, (s.name, x, y)
            produced += 1
    small = [s for s in small_fixture_tables() if s.n <= 3]
    for src in small:
        for dst in small:
            for f in _enumerable_homs(src, dst):
                q, _ = quotient(src, kernel_congruence(f))
                assert check_associativity(q) is None
                produced += 1
    assert produced > 100


@criterion(7, "sanity amalgams: identified images, clean report, mediator")
def test_criterion_07():
    z2 = zmod(2, name="V")
    for build, g1_map, g2_map in (
            (make_trivial_amalgam, {"u1": "0"}, {"u2": "0"}),
            (make_two_copies, {"a0": "0", "a1": "1"}, {"b0": "0", "b1": "1"})):
        a = build()
        fp = a.free_product()
        f1, f2 = a.maps
        for u in a.core.elements:
            proven_equal(a, fp.embed(0, f1.carrier_map[u]),
                         fp.embed(1, f2.carrier_map[u]), bound=4)
        report = check_natural_embedding(a, bound=4)
        assert report.verdict == "consistent-within-bound"
        assert report.collisions == ()
        assert report.cross_pairs and report.unresolved == ()
        g1 = GammaHomomorphism("g1", a.parts[0], z2, g1_map, {"g": "g"})
        g2 = GammaHomomorphism("g2", a.parts[1], z2, g2_map, {"g": "g"})
        m = pushout_mediator(a, z2, g1, g2)
        assert (m.relations_respected, m.diagram_commutes,
                m.products_respected) == (True, True, True)


@criterion(8, "every Equal verdict replays step by step")
def test_criterion_08():
    # sweep all single-letter pairs of every fixture amalgam for verdicts
    for build in (make_trivial_amalgam, make_two_copies, make_leftzero_amalgam,
                  make_z2_in_trivial, make_disjoint_amalgam):
        a = build()
        fp = a.free_product()
        singles = ([fp.embed(0, e) for e in a.parts[0].elements]
                   + [fp.embed(1, e) for e in a.parts[1].elements])
        for w1, w2 in itertools.combinations(singles, 2):
            v = words_equal_within(a, w1, w2, bound=4, budget=20_000)
            if v.equal:
                EQUAL_VERDICTS.append((a, w1, v.chain, w2))
    assert len(EQUAL_VERDICTS) >= 6
    for a, w1, chain, w2 in EQUAL_VERDICTS:
        assert replay_chain(a, w1, chain) == w2


@criterion(9, "complete regularity screen: branch table and brute agreement")
def test_criterion_09():
    assert necessary_condition(make_two_copies()).status == "satisfied"

    u = trivial("u")
    s1 = trivial("s", name="S1")
    s2 = k2()
    f1 = GammaHomomorphism("f1", u, s1, {"u": "s"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "b"}, {"g": "g"})
    with_k2 = GammaAmalgam("with_k2", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)
    v = necessary_condition(with_k2)
    assert v.status == "not-applicable" and v.failing_parts == ("K2",)

    v = necessary_condition(make_core_not_regular_amalgam())
    assert v.status == "core-not-completely-regular" and v.witness == "uy"

    for s in small_fixture_tables():
        report = classify(s)
        brute = brute_regularity(s)
        assert report.is_alpha_regular == all(
            brute[e]["regular"] is not None for e in s.elements), s.name
        assert report.is_completely_alpha_regular == all(
            brute[e]["commuting"] is not None for e in s.elements), s.name
        singleton = all(len({b for b, _ in brute[e]["inverses"]}) == 1
                        for e in s.elements)
        assert report.is_gamma_inverse == (
            report.is_alpha_regular and singleton), s.name


# the 36-expression calculation that pins an element of the core between
# its two part images; each entry is a factor list (part, symbols), every
# consecutive pair must evaluate equal inside the target table
CHAIN = [
    [(2, ["s2i"])],
    [(2, ["s2i", "s2", "s2i"])],
    [(2, ["s2i"]), (2, ["s2"]), (2, ["s2i"])],
    [(2, ["s2i"]), (1, ["s1"]), (2, ["s2i"])],
    [(2, ["s2i"]), (1, ["s1", "s1i", "s1"]), (2, ["s2i"])],
    [(2, ["s2i"]), (1, ["s1"]), (1, ["s1i"]), (1, ["s1"]), (2, ["s2i"])],
    [(2, ["s2i"]), (2, ["s2"]), (1, ["s1i"]), (1, ["s1"]), (2, ["s2i"])],
    [(2, ["s2i", "s2"]), (1, ["s1i"]), (1, ["s1"]), (2, ["s2i"])],
    [(2, ["s2i", "s2"]), (1, ["s1i", "s1"]), (2, ["s2i"])],
    [(2, ["s2i", "s2"]), (1, ["s1", "s1i"]), (2, ["s2i"])],
    [(2, ["s2i", "s2"]), (1, ["s1"]), (1, ["s1i"]), (2, ["s2i"])],
    [(2, ["s2i", "s2"]), (2, ["s2"]), (1, ["s1i"]), (2, ["s2i"])],
    [(2, ["s2", "s2i"]), (2, ["s2"]), (1, ["s1i"]), (2, ["s2i"])],
    [(2, ["s2", "s2i", "s2"]), (1, ["s1i"]), (2, ["s2i"])],
    [(2, ["s2"]), (1, ["s1i"]), (2, ["s2i"])],
    [(1, ["s1"]), (1, ["s1i"]), (2, ["s2i"])],
    [(1, ["s1", "s1i"]), (2, ["s2i"])],
    [(1, ["s1i", "s1"]), (2, ["s2i"])],
    [(1, ["s1i"]), (1, ["s1"]), (2, ["s2i"])],
    [(1, ["s1i"]), (2, ["s2"]), (2, ["s2i"])],
    [(1, ["s1i"]), (2, ["s2", "s2i"])],
    [(1, ["s1i"]), (2, ["s2i", "s2"])],
    [(1, ["s1i"]), (2, ["s2i"]), (2, ["s2"])],
    [(1, ["s1i"]), (2, ["s2i"]), (1, ["s1"])],
    [(1, ["s1i"]), (2, ["s2i"]), (1, ["s1", "s1i", "s1"])],
    [(1, ["s1i"]), (2, ["s2i"]), (1, ["s1"]), (1, ["s1i"]), (1, ["s1"])],
    [(1, ["s1i"]), (2, ["s2i"]), (2, ["s2"]), (1, ["s1i"]), (1, ["s1"])],
    [(1, ["s1i"]), (2, ["s2i", "s2"]), (1, ["s1i", "s1"])],
    [(1, ["s1i"]), (2, ["s2", "s2i"]), (1, ["s1", "s1i"])],
    [(1, ["s1i"]), (2, ["s2", "s2i"]), (1, ["s1"]), (1, ["s1i"])],
    [(1, ["s1i"]), (2, ["s2", "s2i"]), (2, ["s2"]), (1, ["s1i"])],
    [(1, ["s1i"]), (2, ["s2", "s2i", "s2"]), (1, ["s1i"])],
    [(1, ["s1i"]), (2, ["s2"]), (1, ["s1i"])],
    [(1, ["s1i"]), (1, ["s1"]), (1, ["s1i"])],
    [(1, ["s1i", "s1", "s1i"])],
    [(1, ["s1i"])],
]


@criterion(10, "the embedded-target calculation replays inside T")
def test_criterion_10():
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    psis = (psi1, psi2)

    def value(expr, bind):
        parts = a.parts
        factor_values = []
        for part, syms in expr:
            s = parts[part - 1]
            v = bind[syms[0]]
            for sym in syms[1:]:
                v = s.mul(v, "g", bind[sym])
            factor_values.append(psis[part - 1].carrier_map[v])
        out = factor_values[0]
        for v in factor_values[1:]:
            out = t.mul(out, "g", v)
        return out

    for kk in range(4):
        inv = (4 - kk) % 4
        bind = {"s1": f"a{kk}", "s1i": f"a{inv}",
                "s2": f"b{kk}", "s2i": f"b{inv}"}
        values = [value(expr, bind) for expr in CHAIN]
        assert len(values) == 36
        for idx in range(len(values) - 1):
            assert values[idx] == values[idx + 1], (kk, idx)
        # and the conclusion the chain supports, inside the core itself
        u, ui = f"u{kk}", f"u{inv}"
        assert a.core.mul(a.core.mul(u, "g", ui), "g", u) == u
        assert a.core.mul(a.core.mul(ui, "g", u), "g", ui) == ui
        assert a.core.mul(u, "g", ui) == a.core.mul(ui, "g", u)


@criterion(11, "serializer fixpoint and a 10,000-case parser fuzz run")
def test_criterion_11():
    files = sorted(DATA.glob("*.gsg"))
    assert len(files) == 12
    for path in files:
        text = path.read_text()
        assert serialize(parse(text)) == text, path.name

    bases = [(DATA / "z4.gsg").read_text(),
             (DATA / "amalgam_two_copies.gsg").read_text(),
             (DATA / "amalgam_disjoint.gsg").read_text()]
    rng = random.Random(2026)
    alphabet = "abgu01 #=->\nsemigroup"
    for case in range(10_000):
        chars = list(bases[case % 3])
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(chars))
            if kind == 0:
                chars[pos] = rng.choice(alphabet)
            elif kind == 1:
                chars.insert(pos, rng.choice(alphabet))
            else:
                del chars[pos]
        try:
            ws = parse("".join(chars))
        except GsgError:
            continue
        serialize(ws)
