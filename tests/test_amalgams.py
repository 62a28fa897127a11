"""Amalgam validation, bounded word search, embedding reports, mediators.

Every Equal verdict asserted here is replayed through replay_chain before
the test passes; the chain is the proof object and must stay checkable.
"""

import numpy as np
import pytest

from conftest import (
    make_core_not_regular_amalgam,
    make_disjoint_amalgam,
    make_embedded_z4_fixture,
    make_leftzero_amalgam,
    make_trivial_amalgam,
    make_two_copies,
    make_z2_in_trivial,
    trivial,
    k2,
)
from gsg import (
    CommutingSquareFails,
    GammaAmalgam,
    GammaHomomorphism,
    GammaLetter,
    GammaMismatch,
    GammaSemigroup,
    Letter,
    MalformedSequence,
    Mode,
    ModeMismatch,
    NameClash,
    NotAssociative,
    NotMonomorphism,
    Step,
    Word,
    check_natural_embedding,
    constant,
    mu,
    necessary_condition,
    pushout_mediator,
    relation_generators,
    replay_chain,
    validate_amalgam,
    words_equal_within,
    zmod,
)


def assert_equal_with_proof(a, w1, w2, **kw):
    """Equal verdict plus a successful replay of its chain."""
    v = words_equal_within(a, w1, w2, **kw)
    assert v.equal, f"expected a proof for {w1} = {w2}"
    assert replay_chain(a, w1, v.chain, kw.get("identify_elements", False)) == w2
    return v


# ---------------------------------------------------------------- validation

def test_trivial_amalgam_is_valid():
    assert validate_amalgam(make_trivial_amalgam()) == []


def test_all_fixture_amalgams_valid():
    for build in (make_two_copies, make_leftzero_amalgam, make_z2_in_trivial,
                  make_disjoint_amalgam, make_core_not_regular_amalgam):
        assert validate_amalgam(build()) == [], build.__name__


def test_name_clash_between_parts():
    u = trivial("u")
    s1 = trivial("u1", name="S1")
    s2 = trivial("u1", name="S2")       # same element name as S1
    f1 = GammaHomomorphism("f1", u, s1, {"u": "u1"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "u1"}, {"g": "g"})
    a = GammaAmalgam("clash", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)
    defects = validate_amalgam(a)
    assert any(isinstance(d, NameClash) for d in defects)


def test_collapsing_map_is_not_a_monomorphism():
    u = zmod(2, name="U")
    s1 = k2()
    s2 = GammaSemigroup("S2", ("b0", "b1"), ("g",), zmod(2).table)
    # constant map onto the idempotent b is a homomorphism but not injective
    f1 = GammaHomomorphism("f1", u, s1, {"0": "b", "1": "b"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"0": "b0", "1": "b1"}, {"g": "g"})
    a = GammaAmalgam("collapse", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)
    defects = validate_amalgam(a)
    assert any(isinstance(d, NotMonomorphism) and d.index == 0 for d in defects)
    assert not any(isinstance(d, NotMonomorphism) and d.index == 1 for d in defects)


def test_same_gamma_mode_rejects_foreign_gamma_list():
    u = trivial("u")
    s1 = trivial("a", name="S1")
    s2 = trivial("c", gammas=("h",), name="S2")
    f1 = GammaHomomorphism("f1", u, s1, {"u": "a"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "c"}, {"g": "h"})
    a = GammaAmalgam("mixed", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)
    defects = validate_amalgam(a)
    assert any(isinstance(d, GammaMismatch) for d in defects)


def test_disjoint_mode_rejects_shared_gammas():
    u = trivial("u", gammas=("gu",))
    s1 = trivial("p", gammas=("g1",), name="S1")
    s2 = trivial("r", gammas=("g1",), name="S2")   # collides with S1's gamma
    f1 = GammaHomomorphism("f1", u, s1, {"u": "p"}, {"gu": "g1"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "r"}, {"gu": "g1"})
    a = GammaAmalgam("shared", u, (s1, s2), (f1, f2), Mode.DISJOINT)
    defects = validate_amalgam(a)
    assert any(isinstance(d, GammaMismatch) for d in defects)


def test_search_refuses_invalid_amalgam():
    u = trivial("u")
    s1 = trivial("u1", name="S1")
    s2 = trivial("u1", name="S2")
    f1 = GammaHomomorphism("f1", u, s1, {"u": "u1"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "u1"}, {"g": "g"})
    a = GammaAmalgam("clash", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)
    fp_ok = make_trivial_amalgam().free_product()
    with pytest.raises(NameClash):
        words_equal_within(a, fp_ok.embed(0, "u1"), fp_ok.embed(1, "u2"))


# ---------------------------------------------------------------- relations

def test_relation_generators_trivial():
    rel = relation_generators(make_trivial_amalgam())
    assert rel.element_pairs == (("u1", "u2"),)
    assert rel.gamma_pairs == ()


def test_relation_generators_two_copies():
    rel = relation_generators(make_two_copies())
    assert rel.element_pairs == (("a0", "b0"), ("a1", "b1"))
    assert rel.gamma_pairs == ()


def test_relation_generators_leftzero():
    rel = relation_generators(make_leftzero_amalgam())
    assert rel.element_pairs == (("a", "c"),)


def test_relation_generators_disjoint_carries_gamma_pairs():
    rel = relation_generators(make_disjoint_amalgam())
    assert rel.element_pairs == (("p", "r"),)
    assert rel.gamma_pairs == (("g1", "g2"),)


def constant_core_amalgam():
    """Core whose products cover only one of its two elements, so the
    identify_elements flag genuinely changes the relation set."""
    u = constant(["ua", "ub"], "ua", ["g"], name="Uc")
    s1 = constant(["a1", "a2"], "a1", ["g"], name="C1")
    s2 = constant(["b1", "b2"], "b1", ["g"], name="C2")
    f1 = GammaHomomorphism("f1", u, s1, {"ua": "a1", "ub": "a2"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"ua": "b1", "ub": "b2"}, {"g": "g"})
    return GammaAmalgam("const_core", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)


def test_identify_elements_widens_the_relation_set():
    a = constant_core_amalgam()
    assert validate_amalgam(a) == []
    assert relation_generators(a).element_pairs == (("a1", "b1"),)
    assert relation_generators(a, identify_elements=True).element_pairs == (
        ("a1", "b1"), ("a2", "b2"))


def test_identify_elements_changes_search_outcomes():
    a = constant_core_amalgam()
    fp = a.free_product()
    w1, w2 = fp.embed(0, "a2"), fp.embed(1, "b2")
    plain = words_equal_within(a, w1, w2, bound=4, budget=10_000)
    assert not plain.equal and plain.limit == "exhausted"
    assert_equal_with_proof(a, w1, w2, bound=4, budget=10_000,
                            identify_elements=True)


# ------------------------------------------------------------- word search

def test_equality_is_reflexive_with_empty_chain():
    a = make_trivial_amalgam()
    fp = a.free_product()
    w = fp.embed(0, "u1")
    v = words_equal_within(a, w, w)
    assert v.equal and v.chain == ()


def test_trivial_core_images_equal_in_one_swap():
    a = make_trivial_amalgam()
    fp = a.free_product()
    v = assert_equal_with_proof(a, fp.embed(0, "u1"), fp.embed(1, "u2"))
    assert v.chain == (Step("swap", 0, ("u1", "u2")),)


def test_two_copies_image_pairs_equal():
    a = make_two_copies()
    fp = a.free_product()
    assert_equal_with_proof(a, fp.embed(0, "a0"), fp.embed(1, "b0"))
    assert_equal_with_proof(a, fp.embed(0, "a1"), fp.embed(1, "b1"))


def test_two_copies_products_agree_across_parts():
    # a1 g b1 and b1 g a1 both collapse to the class of 0
    a = make_two_copies()
    fp = a.free_product()
    lhs = fp.gamma_multiply(fp.embed(0, "a1"), "g", fp.embed(1, "b1"))
    rhs = fp.gamma_multiply(fp.embed(1, "b1"), "g", fp.embed(0, "a1"))
    assert_equal_with_proof(a, lhs, rhs)
    assert_equal_with_proof(a, lhs, fp.embed(0, "a0"))


def test_distinct_part_elements_stay_apart():
    a = make_two_copies()
    fp = a.free_product()
    v = words_equal_within(a, fp.embed(0, "a0"), fp.embed(0, "a1"),
                           bound=4, budget=50_000)
    assert not v.equal
    assert v.limit == "exhausted"


def test_leftzero_pair_is_inconclusive():
    a = make_leftzero_amalgam()
    fp = a.free_product()
    v = words_equal_within(a, fp.embed(0, "a"), fp.embed(0, "b"),
                           bound=4, budget=50_000)
    assert not v.equal and v.limit == "exhausted"


def test_budget_exhaustion_is_reported():
    a = make_leftzero_amalgam()
    fp = a.free_product()
    v = words_equal_within(a, fp.embed(0, "a"), fp.embed(0, "b"),
                           bound=4, budget=2)
    assert not v.equal and v.limit == "budget"


def test_bound_and_budget_must_be_positive():
    a = make_trivial_amalgam()
    fp = a.free_product()
    w = fp.embed(0, "u1")
    with pytest.raises(ValueError):
        words_equal_within(a, w, w, bound=0)
    with pytest.raises(ValueError):
        words_equal_within(a, w, w, budget=0)


def test_search_rejects_unreduced_input():
    a = make_two_copies()
    fp = a.free_product()
    # a0 g a0 merges to a1, so handing it in raw is a malformed query
    bad = Word((Letter(0, "a0"), GammaLetter("g"), Letter(0, "a0")), Mode.SAME_GAMMA)
    with pytest.raises(MalformedSequence):
        words_equal_within(a, bad, fp.embed(0, "a0"))


def test_search_rejects_words_from_another_mode():
    same = make_two_copies()
    other = make_disjoint_amalgam()
    w = other.free_product().embed(0, "p")
    with pytest.raises(ModeMismatch):
        words_equal_within(same, w, w)


def test_equal_verdicts_are_monotone_in_bound():
    a = make_two_copies()
    fp = a.free_product()
    pairs = [(fp.embed(0, "a0"), fp.embed(1, "b0")),
             (fp.embed(0, "a1"), fp.embed(1, "b1"))]
    for w1, w2 in pairs:
        for bound in (2, 3, 4, 5):
            assert_equal_with_proof(a, w1, w2, bound=bound, budget=100_000)


def test_equality_chains_are_pinned():
    # captured from the search before it moved onto the shared word kernel:
    # any change in move order, BFS order or the final merges shows up here
    a = make_disjoint_amalgam()
    fp = a.free_product()
    v = assert_equal_with_proof(a, fp.parse_word("p g2 r"), fp.parse_word("r g2 q"),
                                bound=4, budget=20_000)
    assert v.chain == (
        Step("swap", 0, ("p", "r")),
        Step("swap", 1, ("r", "p")),
        Step("unmerge", 1, ("p", "p", "g1", "q")),
        Step("swap", 1, ("p", "r")),
        Step("gswap", 1, ("g1", "g2")),
        Step("merge", 0, ("r", "g2", "r", "r")),
    )
    a, *_ = make_embedded_z4_fixture()
    fp = a.free_product()
    v = assert_equal_with_proof(a, fp.parse_word("a0 g b1 g a2 g b3"),
                                fp.parse_word("a2"), bound=4, budget=20_000)
    assert v.chain == (
        Step("swap", 1, ("b1", "a1")),
        Step("swap", 3, ("b3", "a3")),
        Step("merge", 0, ("a0", "g", "a1", "a1")),
        Step("merge", 0, ("a1", "g", "a2", "a3")),
        Step("merge", 0, ("a3", "g", "a3", "a2")),
    )


def test_replay_validates_each_step():
    a = make_trivial_amalgam()
    fp = a.free_product()
    v = words_equal_within(a, fp.embed(0, "u1"), fp.embed(1, "u2"))
    with pytest.raises(ValueError):
        replay_chain(a, fp.embed(1, "u2"), v.chain)   # wrong starting word
    with pytest.raises(ValueError):
        replay_chain(a, fp.embed(0, "u1"),
                     (Step("swap", 3, ("u1", "u2")),))  # position out of range


def test_replay_rejects_pairs_outside_the_relation_set():
    a = make_leftzero_amalgam()
    fp = a.free_product()
    with pytest.raises(ValueError):
        replay_chain(a, fp.embed(0, "b"), (Step("swap", 0, ("b", "c")),))


# ----------------------------------------------------------------------- mu

def test_mu_trivial_collapses_to_least_name():
    a = make_trivial_amalgam()
    fp = a.free_product()
    assert mu(a, 1, "u1") == fp.embed(0, "u1")
    assert mu(a, 2, "u2") == fp.embed(0, "u1")


def test_mu_two_copies():
    a = make_two_copies()
    fp = a.free_product()
    assert mu(a, 1, "a1") == fp.embed(0, "a1")
    assert mu(a, 2, "b0") == fp.embed(0, "a0")
    assert mu(a, 2, "b1") == fp.embed(0, "a1")


def test_mu_leftzero():
    a = make_leftzero_amalgam()
    fp = a.free_product()
    assert mu(a, 1, "b") == fp.embed(0, "b")
    assert mu(a, 2, "c") == fp.embed(0, "a")


def test_mu_part_must_be_one_or_two():
    with pytest.raises(ValueError):
        mu(make_trivial_amalgam(), 3, "u1")


def test_mu_respects_the_defining_maps():
    # both images of any core element land in the same class
    for build in (make_trivial_amalgam, make_two_copies, make_leftzero_amalgam,
                  make_z2_in_trivial, make_disjoint_amalgam):
        a = build()
        fp = a.free_product()
        f1, f2 = a.maps
        for u in a.core.elements:
            assert_equal_with_proof(a, fp.embed(0, f1.carrier_map[u]),
                                    fp.embed(1, f2.carrier_map[u]))


# ------------------------------------------------------------ embedding check

def test_embedding_report_trivial():
    r = check_natural_embedding(make_trivial_amalgam())
    assert r.verdict == "consistent-within-bound"
    assert r.collisions == ()
    assert r.no_collision_within_bound == (True, True)
    assert [(p.s1, p.s2, p.resolved_by) for p in r.cross_pairs] == [
        ("u1", "u2", "u")]
    assert r.unresolved == ()


def test_embedding_report_two_copies():
    r = check_natural_embedding(make_two_copies())
    assert r.verdict == "consistent-within-bound"
    assert r.no_collision_within_bound == (True, True)
    assert [(p.s1, p.s2, p.resolved_by) for p in r.cross_pairs] == [
        ("a0", "b0", "u0"), ("a1", "b1", "u1")]


def test_embedding_report_leftzero():
    r = check_natural_embedding(make_leftzero_amalgam(), bound=4, budget=50_000)
    assert r.verdict == "consistent-within-bound"
    assert [(p.s1, p.s2, p.resolved_by) for p in r.cross_pairs] == [
        ("a", "c", "u")]


def test_embedding_report_z2_in_trivial():
    r = check_natural_embedding(make_z2_in_trivial())
    assert r.verdict == "consistent-within-bound"
    assert r.no_collision_within_bound == (True, True)
    assert [(p.s1, p.s2, p.resolved_by) for p in r.cross_pairs] == [
        ("0", "c", "u")]


def test_embedding_report_disjoint():
    r = check_natural_embedding(make_disjoint_amalgam(), bound=4, budget=50_000)
    assert r.verdict == "consistent-within-bound"
    assert [(p.s1, p.s2, p.resolved_by) for p in r.cross_pairs] == [
        ("p", "r", "u")]


def test_embedding_report_budget_stop_is_inconclusive():
    # a probe that ran out of budget proves nothing either way
    r = check_natural_embedding(make_two_copies(), budget=1)
    assert r.verdict == "inconclusive"
    assert r.collisions == ()
    assert r.no_collision_within_bound == (False, False)


def test_embedding_collision_chains_replay():
    # no fixture here produces a collision; the field contract still holds
    for build in (make_trivial_amalgam, make_two_copies, make_leftzero_amalgam):
        r = check_natural_embedding(build(), bound=4, budget=50_000)
        for c in r.collisions:
            a = build()
            fp = a.free_product()
            assert replay_chain(a, fp.embed(c.part - 1, c.a), c.chain) == \
                fp.embed(c.part - 1, c.b)


# ------------------------------------------------------------------ mediator

def _hom(name, src, dst, carrier, gmap=None):
    return GammaHomomorphism(name, src, dst,
                             dict(carrier), gmap or {h: h for h in src.gammas})


def test_mediator_trivial_target():
    a = make_trivial_amalgam()
    v = trivial("v", name="V")
    g1 = _hom("g1", a.parts[0], v, {"u1": "v"})
    g2 = _hom("g2", a.parts[1], v, {"u2": "v"})
    r = pushout_mediator(a, v, g1, g2)
    assert r.all_pass
    assert (r.relations_respected, r.diagram_commutes, r.products_respected) == \
        (True, True, True)
    assert r.relations_witness is None
    assert r.diagram_witness is None
    assert r.products_witness is None


def test_mediator_two_copies_into_z2():
    a = make_two_copies()
    v = zmod(2, name="V")
    g1 = _hom("g1", a.parts[0], v, {"a0": "0", "a1": "1"})
    g2 = _hom("g2", a.parts[1], v, {"b0": "0", "b1": "1"})
    r = pushout_mediator(a, v, g1, g2)
    assert r.all_pass
    # the induced map sends the mixed product a1 g b1 to 1+1 = 0
    fp = a.free_product()
    w = fp.gamma_multiply(fp.embed(0, "a1"), "g", fp.embed(1, "b1"))
    assert fp.fold(w, v, [g1, g2]) == "0"


def test_mediator_rejects_non_commuting_square():
    a = make_two_copies()
    v = zmod(2, name="V")
    g1 = _hom("g1", a.parts[0], v, {"a0": "0", "a1": "1"})
    g2 = _hom("g2", a.parts[1], v, {"b0": "1", "b1": "0"})   # swapped
    with pytest.raises(CommutingSquareFails) as exc:
        pushout_mediator(a, v, g1, g2)
    assert exc.value.element == "u0"


def test_mediator_rejects_non_commuting_gamma_square():
    a = make_disjoint_amalgam()
    v = GammaSemigroup("V", ("v",), ("gv", "hv"),
                       np.zeros((1, 2, 1), dtype=np.int64))
    g1 = GammaHomomorphism("g1", a.parts[0], v,
                           {"p": "v", "q": "v"}, {"g1": "gv"})
    g2 = GammaHomomorphism("g2", a.parts[1], v, {"r": "v"}, {"g2": "hv"})
    with pytest.raises(GammaMismatch):
        pushout_mediator(a, v, g1, g2)


def test_mediator_disjoint_target():
    a = make_disjoint_amalgam()
    v = GammaSemigroup("V", ("v",), ("gv", "hv"),
                       np.zeros((1, 2, 1), dtype=np.int64))
    g1 = GammaHomomorphism("g1", a.parts[0], v,
                           {"p": "v", "q": "v"}, {"g1": "gv"})
    g2 = GammaHomomorphism("g2", a.parts[1], v, {"r": "v"}, {"g2": "gv"})
    r = pushout_mediator(a, v, g1, g2)
    assert r.all_pass


def test_mediator_embedded_two_z4():
    # bound 3 reaches every canonical representative; the default blows up
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    r = pushout_mediator(a, t, psi1, psi2, bound=3, budget=20_000)
    assert r.all_pass


# --------------------------------------------------------- necessary condition

def test_necessary_condition_satisfied():
    v = necessary_condition(make_two_copies())
    assert v.status == "satisfied"
    assert v.failing_parts == () and v.witness is None


def test_necessary_condition_not_applicable():
    u = trivial("u")
    s1 = trivial("s", name="S1")
    s2 = k2()                       # element a has no regular witness
    f1 = GammaHomomorphism("f1", u, s1, {"u": "s"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "b"}, {"g": "g"})
    a = GammaAmalgam("with_k2", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)
    v = necessary_condition(a)
    assert v.status == "not-applicable"
    assert v.failing_parts == ("K2",)
    assert v.witness is None


def test_necessary_condition_not_embeddable():
    v = necessary_condition(make_core_not_regular_amalgam())
    assert v.status == "not-embeddable"
    assert v.failing_parts == ()
    assert v.witness == "uy"


def test_necessary_condition_requires_associativity():
    u = trivial("u")
    bad_table = np.array([0, 1, 0, 0], dtype=np.int64).reshape(2, 1, 2)
    s1 = GammaSemigroup("B", ("e0", "e1"), ("g",), bad_table)
    s2 = trivial("c", name="S2")
    f1 = GammaHomomorphism("f1", u, s1, {"u": "e0"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "c"}, {"g": "g"})
    a = GammaAmalgam("bad", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)
    with pytest.raises(NotAssociative):
        necessary_condition(a)


def test_fixture_amalgam_verdicts_are_stable():
    # one sweep over every fixture, as the command line surfaces them
    expected = {
        "trivial": "satisfied",
        "two_copies": "satisfied",
        "leftzero": "satisfied",          # left zero tables are self-witnessing
        "z2_in_trivial": "satisfied",
        "disjoint": "satisfied",
        "core_not_regular": "not-embeddable",
    }
    builders = {
        "trivial": make_trivial_amalgam,
        "two_copies": make_two_copies,
        "leftzero": make_leftzero_amalgam,
        "z2_in_trivial": make_z2_in_trivial,
        "disjoint": make_disjoint_amalgam,
        "core_not_regular": make_core_not_regular_amalgam,
    }
    for key, build in builders.items():
        assert necessary_condition(build()).status == expected[key], key
