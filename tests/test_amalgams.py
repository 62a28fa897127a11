"""Amalgam validation, bounded word search, embedding reports, mediators.

Every Equal verdict asserted here is replayed through replay_chain before
the test passes; the chain is the proof object and must stay checkable.
"""

import collections
import functools
import itertools

import numpy as np
import pytest

import gsg.amalgams
import gsg.core
from conftest import (
    DATA,
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
    CrossPair,
    FreeProduct,
    GammaAmalgam,
    GammaHomomorphism,
    GammaMismatch,
    GammaSemigroup,
    GsgError,
    MalformedSequence,
    Mode,
    ModeMismatch,
    NameClash,
    NotAHomomorphism,
    NotAssociative,
    NotMonomorphism,
    Step,
    Word,
    check_associativity,
    check_natural_embedding,
    constant,
    injective,
    left_zero,
    mu,
    necessary_condition,
    parse,
    pushout_mediator,
    relabel,
    relation_generators,
    replay_chain,
    validate_amalgam,
    verify_homomorphism,
    words_equal_within,
    zmod,
)
from oracles import brute_step, component_bfs, per_pair_embedding_report, targeted_bfs


def assert_equal_with_proof(a, w1, w2, **kw):
    """Equal verdict plus a successful replay of its chain."""
    v = words_equal_within(a, w1, w2, **kw)
    assert v.equal, f"expected a proof for {w1} = {w2}"
    assert replay_chain(a, w1, v.chain) == w2
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
    assert any(isinstance(d, NameClash) for d in defects)


def _glued(s1, s2, mode=Mode.SAME_GAMMA, moved=False):
    """s1 and s2, one element each, glued over a one-element core that has
    their first member's gammas; moved swaps the first two gammas in f1."""
    u = trivial("u", gammas=s1.gammas)
    swap = dict(zip(u.gammas[:2], reversed(u.gammas[:2]))) if moved else {}
    f1 = GammaHomomorphism("f1", u, s1, {"u": s1.elements[0]},
                           {h: swap.get(h, h) for h in u.gammas})
    f2 = GammaHomomorphism("f2", u, s2, {"u": s2.elements[0]}, dict(zip(u.gammas, s2.gammas)))
    return GammaAmalgam("breach", u, (s1, s2), (f1, f2), mode)


def _fold_core_through_f1(a):
    fp = FreeProduct([a.core])
    return fp.fold(fp.embed(0, "u"), a.parts[0], [a.maps[0]])


FAMILY_BREACHES = {
    "parts share an element name": (
        _glued(trivial("x", name="S1"), trivial("x", name="S2")), GammaAmalgam.free_product),
    "one part twice": (
        _glued(*[trivial("p", name="S1")] * 2), GammaAmalgam.free_product),
    "different gamma lists": (
        _glued(trivial("p", name="S1"), trivial("r", gammas=("h",), name="S2")),
        GammaAmalgam.free_product),
    "a map moves a shared gamma": (
        _glued(trivial("p", gammas=("g", "h"), name="S1"),
               trivial("r", gammas=("g", "h"), name="S2"), moved=True),
        _fold_core_through_f1),
    "disjoint parts share a gamma name": (
        _glued(trivial("p", gammas=("g1",), name="S1"),
               trivial("r", gammas=("g1",), name="S2"), Mode.DISJOINT),
        GammaAmalgam.free_product),
}


@pytest.mark.parametrize("breach", FAMILY_BREACHES)
def test_family_rule_agrees_in_validation_and_free_product(breach):
    """validate_amalgam and the free product refuse each breach of the
    family rule alike: the free product (or a fold through the amalgam's
    own map) raises the type of the first defect validation reports."""
    a, use = FAMILY_BREACHES[breach]
    defects = validate_amalgam(a)
    assert defects
    with pytest.raises(type(defects[0])):
        use(a)


def not_associative(name, p):
    """p0 g p0 = p1 and every other product p0, so (p0 g p0) g p1 = p0 but
    p0 g (p0 g p1) = p1."""
    table = np.zeros((2, 1, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    return GammaSemigroup(name, (f"{p}0", f"{p}1"), ("g",), table)


def test_search_entry_points_require_associative_parts():
    # the reduced-word normal form is only well defined for associative
    # parts; on these a search would "prove" a0 = a1 and b0 = b1
    u, s1, s2 = not_associative("U", "u"), not_associative("S1", "a"), not_associative("S2", "b")
    f1, f2 = (GammaHomomorphism(f"f{i}", u, s, {"u0": f"{p}0", "u1": f"{p}1"}, {"g": "g"})
              for i, s, p in ((1, s1, "a"), (2, s2, "b")))
    a = GammaAmalgam("A", u, (s1, s2), (f1, f2))
    assert validate_amalgam(a) == []
    w1, w2 = (Word((e,), Mode.SAME_GAMMA) for e in ("a0", "a1"))
    for call in (lambda: FreeProduct(a.parts), lambda: check_natural_embedding(a),
                 lambda: words_equal_within(a, w1, w2), lambda: mu(a, 1, "a0")):
        with pytest.raises(NotAssociative, match=r"associativity fails at \(a0, g, a0, g, a1\)"):
            call()


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
    """Core whose products cover only one of its two elements, so gluing
    the products alone would leave ub unglued."""
    u = constant(["ua", "ub"], "ua", ["g"], name="Uc")
    s1 = constant(["a1", "a2"], "a1", ["g"], name="C1")
    s2 = constant(["b1", "b2"], "b1", ["g"], name="C2")
    f1 = GammaHomomorphism("f1", u, s1, {"ua": "a1", "ub": "a2"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"ua": "b1", "ub": "b2"}, {"g": "g"})
    return GammaAmalgam("const_core", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)


def test_relation_set_glues_core_elements_outside_the_products():
    a = constant_core_amalgam()
    assert validate_amalgam(a) == []
    assert relation_generators(a).element_pairs == (("a1", "b1"), ("a2", "b2"))


def test_search_proves_the_images_of_an_unproduced_core_element_equal():
    a = constant_core_amalgam()
    fp = a.free_product()
    v = assert_equal_with_proof(a, fp.embed(0, "a2"), fp.embed(1, "b2"),
                                bound=4, budget=10_000)
    assert v.chain == (Step("swap", 0, ("a2", "b2")),)


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
    with pytest.raises(ValueError) as exc:
        words_equal_within(a, w, w, bound=0)
    assert isinstance(exc.value, GsgError)
    with pytest.raises(ValueError) as exc:
        words_equal_within(a, w, w, budget=0)
    assert isinstance(exc.value, GsgError)
    # a limit must be an integer too, a numpy one included
    with pytest.raises(ValueError, match="positive integers, got 2.5 and 10"):
        words_equal_within(a, w, w, 2.5, 10)
    assert words_equal_within(a, w, w, np.int64(3), 10).bound == 3


@pytest.mark.parametrize("limits", [(0, 1), (1, 0), (-1, 5), (5, -2), (2.5, 10), (3, 10.5),
                                    (True, 10), (3, True)])
@pytest.mark.parametrize("call", [
    lambda a, t, p1, p2, bound, budget: mu(a, 2, "b0", bound=bound, budget=budget),
    lambda a, t, p1, p2, bound, budget: check_natural_embedding(a, bound, budget),
    lambda a, t, p1, p2, bound, budget: pushout_mediator(a, t, p1, p2, bound, budget),
], ids=["mu", "check_natural_embedding", "pushout_mediator"])
def test_reports_reject_nonpositive_limits(call, limits):
    with pytest.raises(ValueError, match="bound and budget must be positive") as exc:
        call(*make_embedded_z4_fixture(), *limits)
    assert isinstance(exc.value, GsgError)


def test_search_rejects_unreduced_input():
    a = make_two_copies()
    fp = a.free_product()
    # a0 g a0 merges to a1, so handing it in raw is a malformed query
    bad = Word(("a0", "g", "a0"), Mode.SAME_GAMMA)
    with pytest.raises(MalformedSequence):
        words_equal_within(a, bad, fp.embed(0, "a0"))


def test_search_rejects_words_from_another_mode():
    same = make_two_copies()
    other = make_disjoint_amalgam()
    w = other.free_product().embed(0, "p")
    with pytest.raises(ModeMismatch):
        words_equal_within(same, w, w)


def test_search_checks_each_word_in_turn():
    # each word is encoded and then checked to be reduced before the next:
    # an unreduced first word is named before a foreign second word, and a
    # foreign first word before an unreduced second word
    a = make_two_copies()
    bad = Word(("a0", "g", "a0"), Mode.SAME_GAMMA)
    foreign = make_disjoint_amalgam().free_product().embed(0, "p")
    with pytest.raises(MalformedSequence):
        words_equal_within(a, bad, foreign)
    with pytest.raises(ModeMismatch):
        words_equal_within(a, foreign, bad)


def test_equal_verdicts_are_monotone_in_bound():
    a = make_two_copies()
    fp = a.free_product()
    pairs = [(fp.embed(0, "a0"), fp.embed(1, "b0")),
             (fp.embed(0, "a1"), fp.embed(1, "b1"))]
    for w1, w2 in pairs:
        for bound in (2, 3, 4, 5):
            assert_equal_with_proof(a, w1, w2, bound=bound, budget=100_000)


def test_equality_chains_are_pinned():
    # captured from the probe on the swap quotient: any change in move
    # order, in which side of the search expands, in the witnesses of the
    # lift or in its final swaps shows up here.  The targeted deque BFS
    # finds chains of the same lengths
    disjoint, z4 = make_disjoint_amalgam(), make_embedded_z4_fixture()[0]
    for a, w1, w2, chain in (
            (disjoint, "p g2 r", "r g2 q", (
                Step("gswap", 0, ("g2", "g1")),
                Step("swap", 1, ("r", "p")),
                Step("merge", 0, ("p", "g1", "p", "p")),
                Step("unmerge", 0, ("p", "p", "g1", "q")),
                Step("swap", 0, ("p", "r")),
                Step("gswap", 0, ("g1", "g2")))),
            (z4, "a0 g b1 g a2 g b3", "a2", (
                Step("swap", 1, ("b1", "a1")),
                Step("merge", 0, ("a0", "g", "a1", "a1")),
                Step("merge", 0, ("a1", "g", "a2", "a3")),
                Step("swap", 1, ("b3", "a3")),
                Step("merge", 0, ("a3", "g", "a3", "a2"))))):
        fp = a.free_product()
        w1, w2 = fp.parse_word(w1), fp.parse_word(w2)
        v = assert_equal_with_proof(a, w1, w2, bound=4, budget=20_000)
        assert v.chain == chain
        ref, _ = targeted_bfs(a._search, fp.encode(w1), 4, 20_000, fp.encode(w2))
        assert len(ref) == len(chain)


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


def test_replay_rejects_malformed_steps():
    # every malformed step is a ValueError that names the step, never a
    # lookup or type error from inside the replay
    a = make_trivial_amalgam()
    fp = a.free_product()
    w = fp.embed(0, "u1")
    for step in (Step("swap", 0, ("u1",)),                   # too short
                 Step("swap", 0, ("u1", "u2", "u1")),        # too long
                 Step("merge", 0, ("u1", "g", "u1")),
                 Step("swap", "0", ("u1", "u2")),            # pos not an int
                 Step("swap", None, ("u1", "u2")),
                 Step("twist", 0, ("u1", "u2")),             # unknown kind
                 Step("swap", 1, ("u1", "u2")),              # out of range
                 Step("swap", -1, ("u1", "u2")),
                 Step("unmerge", 1, ("u1", "u1", "g", "u1")),
                 Step("swap", 0, 7),                         # data not a sequence
                 ("swap", 0)):                               # not a step
        with pytest.raises(ValueError, match="swap|merge|twist"):
            replay_chain(a, w, (step,))
    # the same steps with the right shape replay
    assert replay_chain(a, w, (Step("swap", 0, ["u1", "u2"]),)) == fp.embed(1, "u2")
    assert replay_chain(a, w, (Step("unmerge", 0, ("u1", "u1", "g", "u1")),)).tokens() == \
        ("u1", "g", "u1")


_STEP_SHAPES = {"swap": "ee", "gswap": "gg", "merge": "egee", "unmerge": "eege"}


def _random_step(rng, search, state):
    """A step of any kind at any position, one past either end included.
    Half of them are a move of the search from state, of the drawn kind
    when it has one, with one field redrawn at random, or none.  The rest
    have every field at random, each data slot the letter already there or
    a random name of its sort."""
    fp = search.fp
    kind = str(rng.choice(sorted(_STEP_SHAPES)))
    pos = int(rng.integers(-1, (len(state) + 3) // 2))
    names = {"e": fp.element_names, "g": fp.gamma_names}
    moves = [move for _, move in search.neighbors(state, len(state) + 1)]
    moves = [move for move in moves if move[0] == kind] or moves
    if moves and rng.random() < 0.5:
        step = search._step(*moves[int(rng.integers(len(moves)))])
        field = int(rng.integers(6))
        if field == 0:
            return step._replace(kind=kind)
        if field == 1:
            return step._replace(pos=pos)
        if field - 2 < len(step.data):
            i = field - 2
            sort = names[_STEP_SHAPES[step.kind][i]]
            data = list(step.data)
            data[i] = sort[int(rng.integers(len(sort)))]
            return step._replace(data=tuple(data))
        return step
    tokens = fp.decode(state).tokens()
    here = list(tokens[2 * pos:]) if pos >= 0 else []
    if kind == "gswap":
        here = here[1:]
    elif kind == "unmerge":
        here = here[:1] + here
    data = []
    for i, sort in enumerate(_STEP_SHAPES[kind]):
        if i < len(here) and rng.random() < 0.7:
            data.append(here[i])
        else:
            data.append(names[sort][int(rng.integers(len(names[sort])))])
    return Step(kind, pos, tuple(data))


def test_replay_matches_the_name_oracle():
    # replay_chain accepts exactly the steps brute_step accepts, which reads
    # the rules off the tables and the maps by name, and lands on the same
    # word.  Each chain is a legal prefix of search moves from a seeded
    # start, then random steps of every kind and position; every kind is
    # accepted somewhere on each fixture
    rng = np.random.default_rng(15)
    for a in _all_amalgams():
        search = gsg.amalgams._Search(a)
        fp = search.fp
        accepted = collections.Counter()
        for start in _seeded_states(fp, rng, 40):
            chain, state = [], start
            for _ in range(int(rng.integers(4))):
                moves = search.neighbors(state, 3)
                if not moves:
                    break
                state, move = moves[int(rng.integers(len(moves)))]
                chain.append(search._step(*move))
            tokens = list(fp.decode(start).tokens())
            for step in chain:
                tokens = brute_step(a, tokens, step)
            assert tokens == list(fp.decode(state).tokens()), (a.name, chain)
            for _ in range(4):
                step = _random_step(rng, search, state)
                want = brute_step(a, tokens, step)
                try:
                    got = replay_chain(a, fp.decode(start), chain + [step])
                except ValueError:
                    got = None
                assert (got if got is None else list(got.tokens())) == want, (
                    a.name, chain, step)
                if want is not None:
                    # a rejected step is dropped, and the chain goes on
                    chain.append(step)
                    tokens, state = want, fp.encode(got)
                    accepted[step.kind] += 1
        assert set(accepted) >= {"swap", "merge", "unmerge"}, (a.name, accepted)
        assert accepted["gswap"] or a.mode is Mode.SAME_GAMMA, (a.name, accepted)


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


def test_mu_keeps_the_own_word_of_a_budget_stopped_class():
    # an exploration that stops on budget claims nothing, so mu is the
    # element's own word; an exhausted one gives the least member of the
    # class.  The deque BFS, capped at 10k states and read through the swap
    # quotient, is the reference: an exhausted BFS gives the class and the
    # size of its quotient component, and a capped one that found more than
    # budget quotient states proves a budget stop
    a = make_core_not_regular_amalgam()
    assert mu(a, 2, "bx", bound=2, budget=2) == a.free_product().embed(1, "bx")
    for a in _all_amalgams():
        search = gsg.amalgams._Search(a)
        fp = search.fp
        for bound in (2, 3, 4):
            for p, s in enumerate(a.parts):
                for e in s.elements:
                    own = fp.embed(p, e)
                    code = fp.encode(own)[0]
                    visited, limit = component_bfs(search, (code,), bound, 10_000)
                    size = len({search.image(st) for st in visited})
                    for budget in (2, 50):
                        got, where = mu(a, p + 1, e, bound, budget), (a.name, bound, budget, e)
                        if size > budget:
                            assert got == own, where
                        elif limit == "exhausted":
                            assert got == fp.decode(
                                min(st for st in visited if len(st) == 1)), where


def test_mu_part_must_be_one_or_two():
    with pytest.raises(ValueError):
        mu(make_trivial_amalgam(), 3, "u1")
    with pytest.raises(ValueError, match="part must be 1 or 2"):
        mu(make_trivial_amalgam(), 1.0, "u1")
    with pytest.raises(ValueError, match="part must be 1 or 2"):
        mu(make_two_copies(), True, "a0")


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


def null_collision_amalgam():
    return parse((DATA / "amalgam_null_collision.gsg").read_text()).amalgam(
        "null_collision")


def null_extension(name, names, products):
    """One gamma; every product is the zero (the name starting with z)
    except those listed."""
    zero = next(e for e in names if e.startswith("z"))
    table = constant(names, zero, name=name).table.copy()
    for (x, y), z in products.items():
        table[names.index(x), 0, names.index(y)] = names.index(z)
    return GammaSemigroup(name, tuple(names), ("g",), table)


def core_collision_amalgam():
    """A null core {p, u, v, z} whose images of v and z meet: v = x u =
    x (p q) = (x p) q = z q = z."""
    u = null_extension("U", ["p", "u", "v", "z"], {})
    s1 = null_extension("S1", ["p1", "u1", "v1", "z1", "x"], {("x", "u1"): "v1"})
    s2 = null_extension("S2", ["p2", "u2", "v2", "z2", "q"], {("p2", "q"): "u2"})
    f1, f2 = (GammaHomomorphism(f"f{i}", u, s, {e: e + str(i) for e in u.elements},
                                {"g": "g"}) for i, s in ((1, s1), (2, s2)))
    return GammaAmalgam("core_collision", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)


def test_embedding_collision_chains_replay():
    for a in (null_collision_amalgam(), core_collision_amalgam(), make_two_copies()):
        fp = a.free_product()
        for bound, budget in ((3, 200_000), (4, 50), (6, 1_000)):
            for c in check_natural_embedding(a, bound, budget).collisions:
                assert replay_chain(a, fp.embed(c.part - 1, c.a), c.chain) == \
                    fp.embed(c.part - 1, c.b)


def test_null_core_amalgam_collides():
    # a = x u = x (p q) = (x p) q = z q = z in every embedding, and so is b;
    # gluing only the core products would glue z alone and miss all three
    a = null_collision_amalgam()
    for s in (a.core, *a.parts):
        assert check_associativity(s) is None
    assert relation_generators(a).element_pairs == (
        ("p1", "p2"), ("u1", "u2"), ("v1", "v2"), ("z1", "z2"))
    r = check_natural_embedding(a, bound=3)
    assert r.verdict == "violation-found"
    assert [(c.part, c.a, c.b) for c in r.collisions] == [
        (1, "z1", "a"), (1, "z1", "b"), (1, "a", "b")]
    assert r.no_collision_within_bound == (False, True)
    # test_amalgam_check_proves_the_null_core_collisions pins the chains and
    # test_embedding_collision_chains_replay replays them
    assert r.cross_pairs == tuple(CrossPair(e1, e2, u) for e1, e2, u in (
        ("p1", "p2", "p"), ("u1", "u2", "u"), ("v1", "v2", "v"), ("z1", "z2", "z"),
        ("a", "z2", "z"), ("b", "z2", "z")))


def test_cross_pairs_are_resolved_by_the_first_core_element_of_their_class():
    # v and z have one class, so v1 = v2 and z1 = z2 both name v
    a = core_collision_amalgam()
    for s in (a.core, *a.parts):
        assert check_associativity(s) is None
    r = check_natural_embedding(a, bound=3)
    assert [(c.part, c.a, c.b) for c in r.collisions] == [(1, "v1", "z1"), (2, "v2", "z2")]
    assert r.cross_pairs == tuple(CrossPair(e1, e2, u) for e1, e2, u in (
        ("p1", "p2", "p"), ("u1", "u2", "u"), ("v1", "v2", "v"), ("v1", "z2", "v"),
        ("z1", "v2", "v"), ("z1", "z2", "v")))


def _conftest_amalgams():
    return [make_trivial_amalgam(), make_two_copies(), make_leftzero_amalgam(),
            make_z2_in_trivial(), make_disjoint_amalgam(),
            make_core_not_regular_amalgam(), make_embedded_z4_fixture()[0]]


def _all_amalgams():
    """The conftest amalgams, then every amalgam of tests/data that is not
    one of them (today each file repeats a builder)."""
    out = _conftest_amalgams()
    for path in sorted(DATA.glob("*.gsg")):
        out += [a for a in parse(path.read_text()).amalgams if a not in out]
    return out


def swap_parts(a):
    """The same amalgam with its parts (and maps) in the other order."""
    return GammaAmalgam(a.name, a.core, a.parts[::-1], a.maps[::-1], a.mode)


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_embedding_report_matches_the_per_pair_reference(bound, swapped):
    # swapping the parts changes which class each exploration starts from
    for a in _all_amalgams():
        if swapped:
            a = swap_parts(a)
        ref = per_pair_embedding_report(a, bound, 200_000)
        if ref is not None:
            assert check_natural_embedding(a, bound, 200_000) == ref, a.name
        fp = a.free_product()
        for budget in (1, 50):
            r = check_natural_embedding(a, bound, budget)
            for c in r.collisions:
                assert replay_chain(a, fp.embed(c.part - 1, c.a), c.chain) == \
                    fp.embed(c.part - 1, c.b)
            if ref is None:
                continue
            # a truncated report never claims more than the full one proves
            if r.verdict == "consistent-within-bound":
                assert (r.collisions, r.no_collision_within_bound, r.cross_pairs,
                        r.verdict) == (ref.collisions, ref.no_collision_within_bound,
                                       ref.cross_pairs, ref.verdict), (a.name, budget)
            for p in (0, 1):
                if r.no_collision_within_bound[p]:
                    assert ref.no_collision_within_bound[p], (a.name, budget, p)
            # every cross pair it proves is proven in full, and a resolution
            # it names is the full one; under budget a resolving probe may
            # fail, which leaves the pair unresolved (null_collision, a = z2)
            full = {(p.s1, p.s2): p.resolved_by for p in ref.cross_pairs}
            for p in r.cross_pairs:
                assert (p.s1, p.s2) in full, (a.name, budget, p)
                assert p.resolved_by in (None, full[p.s1, p.s2]), (a.name, budget, p)


@pytest.mark.parametrize("swapped", [False, True])
def test_exhausted_explorations_from_one_class_agree(swapped):
    # the premise of one exploration per class: every move is invertible
    # inside the bound, so any member of a class reaches the same states
    for a in _conftest_amalgams():
        search = gsg.amalgams._Search(swap_parts(a) if swapped else a)
        seen: dict[int, set] = {}
        for code in range(len(search.fp.element_names)):
            visited, limit = component_bfs(search, (code,), 4, 200_000)
            assert limit == "exhausted"
            states = set(visited)
            for other in (st[0] for st in states if len(st) == 1):
                assert seen.setdefault(other, states) == states, (a.name, code, other)


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
def test_quotient_component_matches_the_deque_exploration(bound, swapped):
    # a class exploration walks the swap quotient; the deque BFS without a
    # target, capped at 200k states and read through the quotient image, is
    # its reference.  When the BFS exhausts, its images are the quotient
    # component: the walk stops on "exhausted" with exactly those states
    # when they are at most budget, and the class is the BFS's one-letter
    # states; otherwise the walk stops on "budget" holding budget + 1 of
    # them, and the class holds only its start.  Where the BFS stops on its
    # cap, its images are part of the component: more than budget of them
    # prove a budget stop, and an exhausted walk holds them all.  Budgets
    # are 1, 2, 50, 200k and the number of images and its neighbours.  The
    # BFS is _start_reference's, shared with the probe oracle tests; the
    # walk and the class exploration each run on a fresh search
    for a in _all_amalgams():
        a = swap_parts(a) if swapped else a
        search = gsg.amalgams._Search(a)
        image = search.image
        codes = range(len(search.fp.element_names))
        for code in codes:
            full_limit, images, letters = _start_reference(a, search, bound, (code,))
            size = len(images)
            for budget in sorted({1, 2, 50, 200_000, size - 1, size, size + 1} - {0},
                                 reverse=True):
                where = (a.name, code, budget)
                found, limit = gsg.amalgams._Search(a).walk(image((code,)), bound, budget)
                explored = gsg.amalgams._Search(a)._class_entries(code, bound, budget)[code]
                if limit == "exhausted":
                    assert images <= found and len(found) <= budget, where
                    assert explored == (
                        frozenset(c for c in codes if image((c,)) in found), limit), where
                else:
                    assert limit == "budget" and len(found) == budget + 1, where
                    assert explored == (frozenset((code,)), "budget"), where
                if full_limit == "exhausted":
                    assert limit == ("exhausted" if size <= budget else "budget"), where
                    assert found <= images, where
                    if limit == "exhausted":
                        assert explored[0] == letters, where
                elif size > budget:
                    assert limit == "budget", where


@pytest.mark.parametrize("swapped", [False, True])
def test_witness_is_the_first_factorization_with_its_classes(swapped):
    # a lifted chain replaces each quotient merge (X, G, Y) -> Z by its
    # witness (x, g, y, z): a product inside one part, whose letters have
    # the classes X, G, Y and Z, and the first such factorization in facts
    # order, which fixes the lifted chains.  Every product that qmerge lists
    # for (X, G, Y) has a witness, and there are no others
    for a in _all_amalgams():
        search = gsg.amalgams._Search(swap_parts(a) if swapped else a)
        ordered = [(x, g, y, z) for z, pieces in search.facts.items() for x, g, y in pieces]

        def classes(x, g, y, z):
            return search.image((x, g, y)) + search.erep[z]

        for key, (x, g, y, z) in search.witness.items():
            where = (a.name, key)
            assert search.fp.merge(x, g, y) == z, where
            assert classes(x, g, y, z) == key, where
            assert next(f for f in ordered if classes(*f) == key) == (x, g, y, z), where
        assert search.witness.keys() == {
            triple + product for triple, products in search.qmerge.items()
            for product in products}, a.name


def test_quotient_state_is_the_class_code_of_each_letter():
    # a quotient state has one character per letter, whose code point is
    # the least code of that letter's relation class
    rng = np.random.default_rng(29)
    for a in _all_amalgams():
        search = gsg.amalgams._Search(a)
        for state in _seeded_states(search.fp, rng, 20):
            partners = [(search.gsubs if k % 2 else search.subs)[c]
                        for k, c in enumerate(state)]
            classes = tuple(c if r is None else min(c, r) for c, r in zip(state, partners))
            assert tuple(map(ord, search.image(state))) == classes, (a.name, state)


def test_letter_codes_past_one_byte_give_the_expected_classes():
    # two 130-element left-zero parts over a one-element core number their
    # letters 0 to 259.  At bound 2 the images a0, b0 of the core element
    # form one class and every other letter a class of its own, and each
    # walk holds the images of the deque BFS's states
    u = trivial("u", name="U")
    parts = [left_zero([f"{p}{i}" for i in range(130)], ["g"], name=f"S{k + 1}")
             for k, p in enumerate("ab")]
    maps = [GammaHomomorphism(f"f{k + 1}", u, s, {"u": s.elements[0]}, {"g": "g"})
            for k, s in enumerate(parts)]
    search = gsg.amalgams._Search(GammaAmalgam("wide", u, tuple(parts), tuple(maps)))
    assert search.erep[259] == chr(259)
    classes = search.classes(2, gsg.amalgams.DEFAULT_BUDGET)
    assert classes[0] == classes[130] == (frozenset((0, 130)), "exhausted")
    assert all(classes[c] == (frozenset((c,)), "exhausted")
               for c in range(260) if c not in (0, 130))
    for code in (0, 1, 129, 130, 131, 259):
        visited, limit = component_bfs(search, (code,), 2, 200_000)
        assert limit == "exhausted", code
        assert search.walk(search.image((code,)), 2, gsg.amalgams.DEFAULT_BUDGET) == (
            set(map(search.image, visited)), "exhausted"), code


def _seeded_states(fp, rng, count, letters=3):
    """Reduced coded states of 1 to `letters` element letters, drawn from
    rng."""
    ne, ng = len(fp.element_names), len(fp.gamma_names)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, letters + 1))
        raw = [int(rng.integers(ng if k % 2 else ne)) for k in range(2 * m - 1)]
        out.append(fp.reduce(tuple(raw))[0])
    return out


def _spy_on_halves(monkeypatch) -> list:
    """The two parent maps of every probe from now on."""
    held = []
    meet = gsg.amalgams._Search.meet

    def spy(self, halves, bound, budget):
        held.append(halves)
        return meet(self, halves, bound, budget)

    monkeypatch.setattr(gsg.amalgams._Search, "meet", spy)
    return held


def _unmerges_inside(chain, start, bound) -> bool:
    """Whether every unmerge of the chain starts from a state with fewer
    than bound element letters, as the search's own unmerges do."""
    m = (len(start) + 1) // 2
    for step in chain:
        if step.kind == "unmerge" and m >= bound:
            return False
        m += {"merge": -1, "unmerge": 1}.get(step.kind, 0)
    return True


def _most_successors(search, bound) -> int:
    """At least as many as the successors of any quotient state with at
    most bound element letters, or two at bound 1: a merge at each gap and
    an unmerge at each letter, each in as many ways as the quotient tables
    allow.  A side of a probe grows by at most this past its budget."""
    return bound * (max(map(len, search.qmerge.values()), default=0)
                    + max(map(len, search.qfacts.values()), default=0))


def _probe_cases(swapped):
    """The probes that the probe oracle tests ask about: for every fixture,
    with its parts swapped when swapped, and every bound from 1 to 5,
    (amalgam, its search, bound, pairs, seeded states).  Pairs are every
    ordered pair of distinct one-letter states and the seeded states of up
    to two letters, paired in order."""
    rng = np.random.default_rng(16)
    for a in _all_amalgams():
        a = swap_parts(a) if swapped else a
        search = gsg.amalgams._Search(a)
        n = len(search.fp.element_names)
        for bound in (1, 2, 3, 4, 5):
            states = _seeded_states(search.fp, rng, 12, letters=2)
            pairs = [((x,), (y,)) for x in range(n) for y in range(n) if x != y]
            pairs += zip(states[0::2], states[1::2])
            yield a, search, bound, pairs, states


# (fixture, first part, bound, start) -> _start_reference's answer
_START_REFERENCES: dict = {}
# one tuple per quotient state, shared by every answer that holds it: the
# answers of starts in one component overlap, and sharing halves their memory
_IMAGES: dict = {}


def _start_reference(a, search, bound, start):
    """component_bfs from start, capped at 200k states: (its stop reason,
    the quotient states its states stand for, the element codes of its
    one-letter states).  On "exhausted" these are the start's quotient
    component and its class; on "budget" they are part of them.  One run
    per fixture, part order, bound and start, shared by the class-walk and
    probe oracle tests."""
    key = (a.name, a.parts[0].name, bound, start)
    if key not in _START_REFERENCES:
        visited, limit = component_bfs(search, start, bound, 200_000)
        images = (_IMAGES.setdefault(q, q) for q in map(search.image, visited))
        _START_REFERENCES[key] = (limit, frozenset(images),
                                  frozenset(st[0] for st in visited if len(st) == 1))
    return _START_REFERENCES[key]


@pytest.mark.parametrize("swapped", [False, True])
def test_quotient_precheck_matches_the_deque_bfs_alone(swapped, monkeypatch):
    # a probe searches the swap quotient from both ends and lifts the path
    # it finds; the deque BFS on the states themselves, read through the
    # quotient (_start_reference), is its reference.  Whenever the start's
    # component holds the target and at most budget quotient states, the
    # probe finds a chain, which replays to the target and unmerges only
    # inside the bound; at budgets up to 50 so does the targeted deque BFS
    # of budget states, and it finds the target only in the start's
    # component.  The probe says "exhausted" only when the BFS finds
    # neither the target nor more than budget quotient states; each of its
    # halves stops growing once it holds more than budget quotient states
    # after an expansion (_most_successors).  Pairs come from
    # _probe_cases, every fixture with its parts in either order.  The BFS
    # runs only for starts with a pair the probe leaves without a chain.
    # Each probe runs on a search without records, so that no component an
    # earlier probe recorded spares it the traversal its halves measure
    held = _spy_on_halves(monkeypatch)
    for a, search, bound, pairs, states in _probe_cases(swapped):
        fp, image = search.fp, search.image
        probe = gsg.amalgams._Search(a)
        widest = _most_successors(search, bound)
        for start, target in pairs:
            for budget in (1, 2, 50, 2000, 200_000):
                where = (a.name, bound, budget, start, target)
                held.clear()
                probe._components.clear()
                chain, limit = probe.explore(start, bound, budget, target)
                near, far = held[0]
                assert max(len(near), len(far)) <= budget + widest, where
                if chain is not None:
                    assert limit is None, where
                    assert fp.encode(replay_chain(a, fp.decode(start), chain)) == target
                    assert _unmerges_inside(chain, start, bound), where
                    continue
                ref_limit, images, _ = _start_reference(a, search, bound, start)
                holds, size = image(target) in images, len(images)
                if budget <= 50:
                    ref_chain, direct_limit = targeted_bfs(search, start, bound, budget, target)
                    assert ref_chain is None, where
                    assert direct_limit == "budget" or (
                        ref_limit == "exhausted" and not holds), where
                if ref_limit == "exhausted":
                    assert not holds or size > budget, where
                if limit == "exhausted":
                    assert not holds and size <= budget, where
        # the walk holds the images of the untargeted BFS's states, from
        # multi-letter starts too
        for start in states:
            visited, limit = component_bfs(search, start, bound, 2000)
            images = set(map(image, visited))
            walked = search.walk(image(start), bound, 2000)
            if limit == "exhausted":
                assert walked == (images, "exhausted"), (a.name, start)
            elif walked[1] == "exhausted":
                assert images <= walked[0], (a.name, start)


@pytest.mark.parametrize("swapped", [False, True])
def test_probe_stop_reason_depends_on_the_start_component_alone(swapped, monkeypatch):
    # without a chain, a probe stops on "exhausted" exactly when the start's
    # component lacks the target and holds at most budget quotient states,
    # and on "budget" otherwise; with a component of at most budget states
    # that holds the target it always finds a chain.  The deque BFS from
    # the start is the reference (_start_reference, shared with the tests
    # above); where it stops on its cap it proves only part of the
    # component, so only a component it found the target in, or more than
    # budget quotient states of, is held to "budget".  Pairs come from
    # _probe_cases.  The probes of one fixture and part order run on one
    # search whose records may hold 200k quotient states, so each component
    # is walked whole once and later probes from it read its record, whose
    # answers are those of a fresh search
    # (test_search_answers_do_not_depend_on_earlier_queries)
    monkeypatch.setattr(gsg.amalgams, "_RECORD_LIMIT", 200_000)
    for a, search, bound, pairs, _ in _probe_cases(swapped):
        image = search.image
        for start, target in pairs:
            for budget in (1, 2, 50, 2000, 200_000):
                where = (a.name, bound, budget, start, target)
                chain, limit = search.explore(start, bound, budget, target)
                if chain is not None:
                    continue
                ref_limit, images, _ = _start_reference(a, search, bound, start)
                holds, size = image(target) in images, len(images)
                lacks = not holds and size <= budget
                if ref_limit == "exhausted":
                    assert not holds or size > budget, where
                    assert limit == ("exhausted" if lacks else "budget"), where
                elif not lacks:
                    assert limit == "budget", where


def test_walk_from_the_target_meets_a_thin_end_early(monkeypatch):
    # at bound 5 the class walk from z1 reaches a only after about 64k
    # quotient states; a's own side reaches z1 in 4, so the two sides meet
    # while they hold a few dozen states, and the probe proves z1 = a
    held = _spy_on_halves(monkeypatch)
    a = null_collision_amalgam()
    fp = a.free_product()
    w1, w2 = fp.embed(0, "z1"), fp.embed(0, "a")
    v = assert_equal_with_proof(a, w1, w2, bound=5, budget=2000)
    assert len(v.chain) == 8 and _unmerges_inside(v.chain, fp.encode(w1), 5)
    (near, far), = held
    assert len(near) + len(far) < 100


def test_probe_holds_at_most_budget_quotient_states(monkeypatch):
    # the quotient component of a1 at bound 4 has more than 50 states and
    # does not hold the image of b2, so the probe stops once its start's
    # half holds more than budget states after an expansion, which adds at
    # most _most_successors; the target's half stops growing there too.
    # Each probe runs on an amalgam no earlier call has used, so no
    # component an earlier probe recorded spares it its traversal
    held = _spy_on_halves(monkeypatch)
    a = make_embedded_z4_fixture()[0]
    fp = a.free_product()
    w1, w2 = fp.embed(0, "a1"), fp.embed(1, "b2")
    search = gsg.amalgams._Search(a)
    assert len(search.walk(search.image(fp.encode(w1)), 4, 10**6)[0]) > 50
    for budget in (1, 2, 50):
        held.clear()
        v = words_equal_within(make_embedded_z4_fixture()[0], w1, w2, bound=4, budget=budget)
        assert (v.equal, v.limit) == (False, "budget")
        (near, far), = held
        widest = _most_successors(search, 4)
        assert budget < len(near) <= budget + widest and len(far) <= budget + widest


def _spy_on_expansions(monkeypatch) -> list:
    """Every quotient state expanded from now on."""
    expanded = []
    qmoves = gsg.amalgams._Search.qmoves

    def spy(self, bound):
        successors = qmoves(self, bound)
        return lambda qstate: expanded.append(qstate) or successors(qstate)

    monkeypatch.setattr(gsg.amalgams._Search, "qmoves", spy)
    return expanded


def test_repeated_budget_stopped_probe_expands_no_quotient_state(monkeypatch):
    # the first probe from a1 to b2 at budget 1000 runs its start's side
    # dry, so it records the component of a1, which at bound 4 holds more
    # than 50 and at most 1000 quotient states and lacks b2, and stops on
    # "exhausted".  Later probes from a1 to b2 read that record and expand
    # nothing: at budget 1000 the probe stops on "exhausted" again, at
    # budget 50 on "budget", as a fresh search does
    expanded = _spy_on_expansions(monkeypatch)
    a = make_embedded_z4_fixture()[0]
    fp = a.free_product()
    w1, w2 = fp.embed(0, "a1"), fp.embed(1, "b2")
    first = words_equal_within(a, w1, w2, bound=4, budget=1000)
    assert (first.equal, first.limit) == (False, "exhausted")
    recorded = a._search._components[4][a._search.image(fp.encode(w1))]
    assert 50 < len(recorded) <= 1000 and recorded <= set(expanded)
    expanded.clear()
    assert words_equal_within(a, w1, w2, bound=4, budget=1000) == first
    stopped = words_equal_within(a, w1, w2, bound=4, budget=50)
    assert (stopped.equal, stopped.limit) == (False, "budget")
    assert expanded == []
    fresh = make_embedded_z4_fixture()[0]
    assert words_equal_within(fresh, w1, w2, bound=4, budget=50) == stopped


def test_repeated_probe_from_a_component_over_the_record_limit_expands_nothing(monkeypatch):
    # at bound 5 the component of z1 holds 66,207 quotient states, more than
    # _RECORD_LIMIT, and lacks p1.  The first probe from z1 to p1 walks it
    # whole and records it as the only record, so later probes from z1 to
    # p1 expand nothing, and answer at budgets 200k and 50k as a fresh
    # search does
    expanded = _spy_on_expansions(monkeypatch)
    a = null_collision_amalgam()
    fp = a.free_product()
    w1, w2 = fp.embed(0, "z1"), fp.embed(0, "p1")
    first = words_equal_within(a, w1, w2, bound=5, budget=200_000)
    assert (first.equal, first.limit) == (False, "exhausted")
    recorded = a._search._components[5][a._search.image(fp.encode(w1))]
    assert len(recorded) > gsg.amalgams._RECORD_LIMIT
    expanded.clear()
    again = [words_equal_within(a, w1, w2, bound=5, budget=b) for b in (200_000, 50_000)]
    assert expanded == []
    assert again == [words_equal_within(null_collision_amalgam(), w1, w2, bound=5, budget=b)
                     for b in (200_000, 50_000)]


def test_repeated_report_walks_its_classes_again(monkeypatch):
    # a class walk never reads the records, so a report on one amalgam
    # expands the same quotient states each time it runs, whatever ran
    # before it
    expanded = _spy_on_expansions(monkeypatch)
    a = make_embedded_z4_fixture()[0]
    first = check_natural_embedding(a, bound=4)
    assert first.verdict == "consistent-within-bound"
    once = list(expanded)
    expanded.clear()
    assert check_natural_embedding(a, bound=4) == first
    assert once and expanded == once


def test_separated_probe_expands_no_state(monkeypatch):
    # psi1, psi2 fold a1 and b2 apart, so no chain joins them; the probe
    # works on the swap quotient alone and never expands a state of the
    # search, whatever it finds: neighbors() serves replay only
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    fp = a.free_product()
    w1, w2 = fp.embed(0, "a1"), fp.embed(1, "b2")
    assert fp.fold(w1, t, [psi1, psi2]) != fp.fold(w2, t, [psi1, psi2])
    expanded = []
    neighbors = gsg.amalgams._Search.neighbors
    monkeypatch.setattr(gsg.amalgams._Search, "neighbors",
                        lambda self, state, bound: expanded.append(state)
                        or neighbors(self, state, bound))
    v = words_equal_within(a, w1, w2, bound=4, budget=1000)
    assert (v.equal, v.limit) == (False, "exhausted")
    # a pair in one component gets its chain without expanding a state too
    w2 = fp.embed(1, "b1")
    v = words_equal_within(a, w1, w2, bound=4, budget=1000)
    assert v.equal and expanded == []
    assert replay_chain(a, w1, v.chain) == w2
    assert expanded


@pytest.mark.parametrize("swapped", [False, True])
def test_search_answers_do_not_depend_on_earlier_queries(swapped):
    # a search remembers, per bound, every whole quotient component that a
    # side of a probe runs dry, and later probes read them back; so each
    # answer is that of a fresh search asked that one question.  Walks,
    # class explorations and probes run in a shuffled order
    # on one search per fixture and part order, at every bound, from
    # one-letter states and seeded states of up to three letters, which are
    # longer than the bound at bounds 1 and 2.  Besides the usual budgets, each
    # bound runs at the size of every class's quotient component up to
    # 2000: there a probe from that class to another may stop on budget only
    # because its start's half passes it.  Walks and class explorations
    # record nothing, which this test asserts on the tested search; as they
    # read no record either, their reference answers come from one more
    # search per fixture and part order, whose walks are memoized.  Each
    # probe's reference is a fresh search
    rng = np.random.default_rng(17)
    for a in _all_amalgams():
        a = swap_parts(a) if swapped else a
        search, reference = gsg.amalgams._Search(a), gsg.amalgams._Search(a)
        reference.walk = functools.cache(reference.walk)
        image = search.image
        n = len(search.fp.element_names)
        starts = [(c,) for c in range(n)] + _seeded_states(search.fp, rng, 8)
        pairs = [(x, y) for x in starts for y in starts if x != y]
        pairs = [pairs[i] for i in rng.choice(len(pairs), min(len(pairs), 60), replace=False)]
        queries = []
        for bound in (1, 2, 3, 4, 5):
            walks = [reference.walk(image((c,)), bound, 2000) for c in range(n)]
            sizes = {len(found) for found, limit in walks if limit == "exhausted"}
            for budget in sizes | {1, 2, 50, 2000, 200_000}:
                queries.append(("classes", (bound, budget)))
                queries += [("_class_entries", (c, bound, budget)) for c in range(n)]
                queries += [("walk", (image(s), bound, budget)) for s in starts]
                queries += [("explore", (s, bound, budget, t)) for s, t in pairs]
        for i in rng.permutation(len(queries)):
            kind, args = queries[i]
            recorded = sum(map(len, search._components.values()))
            got = getattr(search, kind)(*args)
            expected = gsg.amalgams._Search(a) if kind == "explore" else reference
            assert got == getattr(expected, kind)(*args), (a.name, kind, args)
            if kind != "explore":
                assert sum(map(len, search._components.values())) == recorded, (a.name, args)


def test_records_hold_at_most_the_record_limit(monkeypatch):
    # only probes fill the records.  Under a limit of 12 quotient states, a
    # component whose start is recorded already or longer than the bound
    # changes nothing; a new one that would pass the limit drops the older
    # records first, so one larger than the limit replaces every record by
    # itself; any other new one maps each of its states to one frozenset of
    # them all.  So the records hold at most 12 states unless they are one
    # component, and whatever they hold, every answer is that of a fresh
    # search.  Probes run from one-letter and seeded states at bounds 2 to
    # 4, in a shuffled order on one search per fixture
    monkeypatch.setattr(gsg.amalgams, "_RECORD_LIMIT", 12)
    seen = collections.Counter()
    record = gsg.amalgams._Search._record

    def spy(self, begin, found, bound):
        before = {b: dict(table) for b, table in self._components.items()}
        record(self, begin, found, bound)
        after = self._components
        held = {id(c) for table in after.values() for c in table.values()}
        assert sum(map(len, after.values())) <= 12 or len(held) == 1
        if begin in before.get(bound, {}) or len(begin) >= 2 * bound:
            assert after == before
        elif len(found) > 12 or any(table.keys() - after.get(b, {}).keys()
                                    for b, table in before.items()):
            seen["over the limit" if len(found) > 12 else "dropped"] += 1
            assert after == {bound: dict.fromkeys(found, frozenset(found))}
        else:
            assert after[bound][begin] == frozenset(found)
            assert all(after[bound][qstate] is after[bound][begin] for qstate in found)

    monkeypatch.setattr(gsg.amalgams._Search, "_record", spy)
    rng = np.random.default_rng(18)
    for a in _all_amalgams():
        search = gsg.amalgams._Search(a)
        n = len(search.fp.element_names)
        starts = [(c,) for c in range(n)] + _seeded_states(search.fp, rng, 6, letters=2)
        pairs = [(x, y) for x in starts for y in starts if x != y]
        queries = [(x, bound, 2000, y) for bound in (2, 3, 4)
                   for i in rng.choice(len(pairs), min(len(pairs), 30), replace=False)
                   for x, y in [pairs[i]]]
        for i in rng.permutation(len(queries)):
            args = queries[i]
            expected = gsg.amalgams._Search(a).explore(*args)
            assert search.explore(*args) == expected, (a.name, args)
    assert seen["over the limit"] and seen["dropped"]


def test_class_walks_never_touch_the_records(monkeypatch):
    # the records belong to probes: on a fresh amalgam a report, mu and
    # pushout_mediator leave them empty, and after probes have filled them
    # the same calls leave them as they were and expand the same quotient
    # states as on the fresh amalgam.  mu's budget of 50 is less than the
    # 85 quotient states of the component of a1 that the first probe records
    expanded = _spy_on_expansions(monkeypatch)
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    fp = a.free_product()

    def class_walks():
        expanded.clear()
        out = (check_natural_embedding(a, bound=4), mu(a, 1, "a1", bound=4, budget=50),
               pushout_mediator(a, t, psi1, psi2, bound=4),
               pushout_mediator(a, t, psi1, psi2, bound=3, budget=50))
        return out, list(expanded)

    fresh = class_walks()
    assert fresh[1] and a._search._components == {}
    for x, y, bound, budget in (((0, "a1"), (1, "b2"), 4, 1000),
                                ((0, "a0"), (0, "a2"), 3, 200_000),
                                ((0, "a2"), (1, "b3"), 4, 200_000)):
        assert not words_equal_within(a, fp.embed(*x), fp.embed(*y), bound, budget).equal
    recorded = {b: dict(table) for b, table in a._search._components.items()}
    assert recorded.keys() == {3, 4}
    assert class_walks() == fresh
    assert a._search._components == recorded


def test_one_search_per_amalgam(monkeypatch):
    built = []
    init = gsg.amalgams._Search.__init__
    monkeypatch.setattr(gsg.amalgams._Search, "__init__",
                        lambda self, a: built.append(a.name) or init(self, a))
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    fp = a.free_product()
    w1, w2 = fp.embed(0, "a1"), fp.embed(1, "b1")
    v = words_equal_within(a, w1, w2, bound=3)
    assert replay_chain(a, w1, v.chain) == w2
    assert mu(a, 2, "b1", bound=3) == w1
    assert check_natural_embedding(a, bound=3).verdict == "consistent-within-bound"
    assert pushout_mediator(a, t, psi1, psi2, bound=3).all_pass
    assert built == ["two_z4"]
    # an invalid amalgam caches nothing and raises on every call
    u = zmod(2, name="U")
    s2 = GammaSemigroup("S2", ("b0", "b1"), ("g",), zmod(2).table)
    bad = GammaAmalgam("collapse", u, (k2(), s2), (
        GammaHomomorphism("f1", u, k2(), {"0": "b", "1": "b"}, {"g": "g"}),
        GammaHomomorphism("f2", u, s2, {"0": "b0", "1": "b1"}, {"g": "g"})),
        Mode.SAME_GAMMA)
    w = bad.free_product().embed(0, "a")
    calls = (lambda: words_equal_within(bad, w, w), lambda: replay_chain(bad, w, ()),
             lambda: mu(bad, 1, "a"), lambda: check_natural_embedding(bad),
             lambda: pushout_mediator(bad, t, psi1, psi2),
             lambda: relation_generators(bad), lambda: necessary_condition(bad))
    raised = []
    for _ in range(2):
        for call in calls:
            with pytest.raises(NotMonomorphism) as exc:
                call()
            raised.append(exc.value)
    # each call raises a new exception, whose traceback holds only its frames
    assert len({id(e) for e in raised}) == len(raised)


def test_embedding_report_explores_each_class_once(monkeypatch):
    starts, explores = [], []
    walk, explore = gsg.amalgams._Search.walk, gsg.amalgams._Search.explore

    def spy_walk(self, begin, bound, budget):
        starts.append(begin)
        return walk(self, begin, bound, budget)

    def spy_explore(self, start, bound, budget, target):
        explores.append((start, target))
        return explore(self, start, bound, budget, target)

    monkeypatch.setattr(gsg.amalgams._Search, "walk", spy_walk)
    monkeypatch.setattr(gsg.amalgams._Search, "explore", spy_explore)
    a = make_two_copies()
    r = check_natural_embedding(a, bound=4)
    assert r.verdict == "consistent-within-bound"
    # at most one walk per start, n1 + n2 = 4; in fact one per class,
    # {a0, b0} and {a1, b1}, each from the image of its part-1 member
    fp = a.free_product()
    assert [fp.decode(tuple(map(ord, s))) for s in starts] == [fp.embed(0, "a0"),
                                                                fp.embed(0, "a1")]
    # every class exhausted: no probe ran
    assert explores == []
    # class explorations never run it: at the default bound and a budget
    # of 1000 some classes of core_not_regular stop on budget, and only
    # targeted probes follow
    a = make_core_not_regular_amalgam()
    classes = gsg.amalgams._Search(a).classes(gsg.amalgams.DEFAULT_BOUND, 1000)
    assert "budget" in {limit for _, limit in classes.values()}
    starts.clear()
    check_natural_embedding(a, budget=1000)
    assert starts and explores
    assert all(target is not None for _, target in explores)


def test_classes_give_no_walk_to_a_start_of_a_budget_stopped_walk(monkeypatch):
    # a walk that stops on budget claims nothing, but every code whose
    # one-letter image it found lies in its component, so that code's own
    # walk would stop on budget too: classes maps it to its own class and
    # "budget" without a walk.  At the default limits the walk from z1 on
    # null_collision stops on budget after finding z2, a and b, so none of
    # them is walked again, and each entry is the one component gives
    starts = []
    walk = gsg.amalgams._Search.walk
    monkeypatch.setattr(gsg.amalgams._Search, "walk", lambda self, begin, bound, budget:
                        starts.append(begin) or walk(self, begin, bound, budget))
    search = gsg.amalgams._Search(null_collision_amalgam())
    limits = (gsg.amalgams.DEFAULT_BOUND, gsg.amalgams.DEFAULT_BUDGET)
    classes = search.classes(*limits)
    code = {e: c for c, e in enumerate(search.fp.element_names)}
    stopped = [code[e] for e in ("z1", "z2", "a", "b")]
    assert [classes[c] for c in stopped] == [(frozenset((c,)), "budget") for c in stopped]
    image = search.image
    # z2 and z1 are one quotient letter, the image of both
    assert {image((c,)) for c in stopped} & set(starts) == {image((code["z1"],))}
    assert len(set(starts)) == len(starts)
    assert all(search._class_entries(c, *limits)[c] == classes[c] for c in stopped[2:])


def test_embedding_report_probes_only_pairs_left_open(monkeypatch):
    calls = []
    original = gsg.amalgams._Search.explore

    def explore(self, start, bound, budget, target):
        calls.append((start, target))
        return original(self, start, bound, budget, target)

    monkeypatch.setattr(gsg.amalgams._Search, "explore", explore)
    # every class exhausted: no targeted search at all
    assert check_natural_embedding(make_two_copies(), bound=4).verdict == \
        "consistent-within-bound"
    assert calls == []
    # u1's class outgrows a budget of 5 quotient states (it holds 6 at the
    # default bound 6); one probe proves u1 = u2
    a = make_trivial_amalgam()
    r = check_natural_embedding(a, budget=5)
    assert r.verdict == "consistent-within-bound"
    assert r.cross_pairs == (CrossPair("u1", "u2", "u"),)
    fp = a.free_product()
    assert calls == [(fp.encode(fp.embed(0, "u1")), fp.encode(fp.embed(1, "u2")))]
    # two core elements: each probed cross pair is resolved by its own
    r = check_natural_embedding(make_two_copies(), budget=50)
    assert r.cross_pairs == (CrossPair("a0", "b0", "u0"), CrossPair("a1", "b1", "u1"))
    assert r.verdict == "inconclusive" and r.no_collision_within_bound == (False, False)
    # no ordered pair is probed twice in one report, and only pairs with
    # neither code in a settled class are probed, besides the chain of a
    # collision.  No fixture of _all_amalgams has a collision at budgets 50
    # and 2,000.  At budget 50 the collisions of core_collision are proven
    # by probes, whose chains they reuse; at 200,000 the collisions of it
    # and null_collision are proven by their classes, so each adds exactly
    # one probe and no other probe runs
    cases = [(a, budget) for a in _all_amalgams() for budget in (50, 2000)]
    cases += [(core_collision_amalgam(), 50), (null_collision_amalgam(), 200_000),
              (core_collision_amalgam(), 200_000)]
    for a, budget in cases:
        fp = a.free_product()
        calls.clear()
        r = check_natural_embedding(a, 3, budget)
        assert len(set(calls)) == len(calls), (a.name, budget)
        classes = gsg.amalgams._Search(a).classes(3, budget)
        chains = {(fp.encode(fp.embed(c.part - 1, c.a)), fp.encode(fp.embed(c.part - 1, c.b)))
                  for c in r.collisions}
        for start, target in calls:
            assert (start, target) in chains or (
                classes[start[0]][1] == classes[target[0]][1] == "budget"), (
                a.name, budget, start, target)
        if budget == 200_000:
            assert r.collisions and set(calls) == chains and len(calls) == len(r.collisions)


def test_embedding_report_pins_the_probed_resolution_rule():
    # at budget 50 the class of z1 stops on budget, so every cross pair is
    # probed; a and b are not images of the core, and each resolving probe
    # f1(u) = a, f1(u) = b stops on budget too
    r = check_natural_embedding(null_collision_amalgam(), 3, 50)
    assert r.verdict == "inconclusive"
    assert r.no_collision_within_bound == (False, True)
    assert r.collisions == ()
    assert r.cross_pairs == tuple(CrossPair(e1, e2, u) for e1, e2, u in (
        ("p1", "p2", "p"), ("u1", "u2", "u"), ("v1", "v2", "v"), ("z1", "z2", "z"),
        ("a", "z2", None), ("b", "z2", None)))


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


def test_mediator_rejects_maps_that_miss_the_parts():
    # the maps are checked against the parts and the target before the
    # squares are read, so swapped maps are a GammaMismatch, not a KeyError
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    with pytest.raises(GammaMismatch, match="has source"):
        pushout_mediator(a, t, psi2, psi1)
    with pytest.raises(GammaMismatch, match="has target"):
        pushout_mediator(a, a.parts[0], psi1, psi2)


def test_mediator_rejects_maps_that_move_the_shared_gammas():
    # in same-gamma mode the maps must fix the shared gamma list (the family
    # rule), even when both squares commute and the target associates
    a = make_two_copies()
    v = relabel(zmod(2), "V", ["0", "1"], ["h"])
    g1 = _hom("g1", a.parts[0], v, {"a0": "0", "a1": "1"}, {"g": "h"})
    g2 = _hom("g2", a.parts[1], v, {"b0": "0", "b1": "1"}, {"g": "h"})
    with pytest.raises(GammaMismatch, match="shared gamma list identically"):
        pushout_mediator(a, v, g1, g2)


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
    # the report does not depend on the bound: bound 3 answers as the default
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    r = pushout_mediator(a, t, psi1, psi2, bound=3, budget=20_000)
    assert r.all_pass
    assert pushout_mediator(a, t, psi1, psi2) == r


def test_mediator_ignores_budget_stops():
    # a budget that stops every class walk leaves the report as it is
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    fp = a.free_product()
    truncated = pushout_mediator(a, t, psi1, psi2, bound=4, budget=1)
    assert truncated.all_pass
    assert truncated == pushout_mediator(a, t, psi1, psi2, bound=4)
    # a one-state budget leaves b0 its own least word; the full class of b0
    # holds a0
    assert mu(a, 2, "b0", bound=4, budget=1) == fp.embed(1, "b0")
    assert mu(a, 2, "b0", bound=4) == fp.embed(0, "a0")


def test_mediator_checks_the_homomorphisms_once(monkeypatch):
    calls = []
    original = gsg.core.verify_homomorphism
    monkeypatch.setattr(gsg.core, "verify_homomorphism",
                        lambda f: calls.append(f.name) or original(f))
    a, t, psi1, psi2 = make_embedded_z4_fixture()
    assert pushout_mediator(a, t, psi1, psi2, bound=3).all_pass
    assert calls == ["psi1", "psi2"]


def _associative_tables(k: int):
    """Every labelled associative table on v0 .. v(k-1) over the one gamma
    g, in the order of its cells."""
    names = tuple(f"v{i}" for i in range(k))
    for cells in itertools.product(range(k), repeat=k * k):
        v = GammaSemigroup("V", names, ("g",), np.array(cells).reshape(k, 1, k))
        if check_associativity(v) is None:
            yield v


def _maps_agreeing_on_the_core(a, v, rng):
    """Random maps g1, g2 of the parts into v whose carrier square commutes:
    g2 sends each core image f2(u) where g1 sends f1(u)."""
    def draw(s):
        return {e: v.elements[int(rng.integers(len(v.elements)))] for e in s.elements}
    (f1, f2), (c1, c2) = a.maps, map(draw, a.parts)
    c2.update({f2.carrier_map[u]: c1[f1.carrier_map[u]] for u in a.core.elements})
    return _hom("g1", a.parts[0], v, c1), _hom("g2", a.parts[1], v, c2)


def test_mediator_relations_and_products_hold_whenever_it_returns():
    # the square checks, the associativity of v and the homomorphism checks
    # of FreeProduct.folder imply every equation, so a returned report
    # passes.  Whenever it returns, the relation pairs fold to one element,
    # and a one-letter product folds as the product in v's table of its
    # folded letters.  Every labelled associative one-gamma table of 2 and
    # 3 elements, with random maps into it whose square commutes; a random
    # table that is not associative raises
    tables = [v for k in (2, 3) for v in _associative_tables(k)]
    assert len(tables) == 8 + 113
    rng = np.random.default_rng(19)
    returned = refused = 0
    for a in (make_two_copies(), make_trivial_amalgam(), make_leftzero_amalgam()):
        fp = a.free_product()
        letters = [(p, e) for p, s in enumerate(a.parts) for e in s.elements]
        for v in tables:
            for _ in range(3):
                homs = _maps_agreeing_on_the_core(a, v, rng)
                try:
                    r = pushout_mediator(a, v, *homs, bound=3)
                except NotAHomomorphism:
                    continue
                returned += 1
                for e1, e2 in relation_generators(a).element_pairs:
                    assert fp.fold(fp.embed(0, e1), v, homs) == fp.fold(fp.embed(1, e2), v, homs)
                for (p, x), (q, y) in itertools.product(letters, repeat=2):
                    product = fp.gamma_multiply(fp.embed(p, x), "g", fp.embed(q, y))
                    assert fp.fold(product, v, homs) == v.mul(
                        homs[p].carrier_map[x], "g", homs[q].carrier_map[y]), (a.name, x, y)
                assert r.all_pass and r.diagram_commutes, a.name
                assert (r.relations_respected, r.relations_witness) == (True, None), a.name
                assert (r.products_respected, r.products_witness) == (True, None), a.name
        for _ in range(40):
            k = int(rng.integers(2, 4))
            v = GammaSemigroup("V", tuple(f"v{i}" for i in range(k)), ("g",),
                               rng.integers(k, size=(k, 1, k)))
            if check_associativity(v) is None:
                continue
            refused += 1
            with pytest.raises(NotAssociative):
                pushout_mediator(a, v, *_maps_agreeing_on_the_core(a, v, rng), bound=3)
    assert returned >= 50 and refused >= 50


def _mediator_cocones():
    """(amalgam, v, g1, g2) with g1, g2 homomorphisms into an associative
    v whose squares commute: the trivial and the two-copies amalgams into
    Z2, the embedded z4 cocone, the disjoint amalgam into a one-element
    target, and core_not_regular into T, S1 with a third gamma."""
    z2 = zmod(2, name="V")
    trivial_amalgam, two = make_trivial_amalgam(), make_two_copies()
    out = [(trivial_amalgam, z2, _hom("g1", trivial_amalgam.parts[0], z2, {"u1": "0"}),
            _hom("g2", trivial_amalgam.parts[1], z2, {"u2": "0"})),
           (two, z2, _hom("g1", two.parts[0], z2, {"a0": "0", "a1": "1"}),
            _hom("g2", two.parts[1], z2, {"b0": "0", "b1": "1"})),
           make_embedded_z4_fixture()]
    dj = make_disjoint_amalgam()
    v = GammaSemigroup("V", ("v",), ("gv", "hv"), np.zeros((1, 2, 1), dtype=np.int64))
    out.append((dj, v, GammaHomomorphism("g1", dj.parts[0], v, {"p": "v", "q": "v"}, {"g1": "gv"}),
                GammaHomomorphism("g2", dj.parts[1], v, {"r": "v"}, {"g2": "gv"})))
    cnr = make_core_not_regular_amalgam()
    s1, s2 = cnr.parts
    t = GammaSemigroup("T", ("x", "y"), ("g", "h1", "h2"), s1.table[:, [0, 1, 1], :])
    out.append((cnr, t, GammaHomomorphism("g1", s1, t, {"ax": "x", "ay": "y"}, {"g1": "g", "h1": "h1"}),
                GammaHomomorphism("g2", s2, t, {"bx": "x", "by": "y"}, {"g2": "g", "h2": "h2"})))
    return out


def test_mediator_diagram_holds_without_a_walk(monkeypatch):
    # mu's class walks as an oracle for the diagram: whenever the mediator
    # returns, mu's representative of every part element folds to the
    # element's image, at every bound.  The mediator itself walks no class
    walked = []
    walk = gsg.amalgams._Search.walk
    monkeypatch.setattr(gsg.amalgams._Search, "walk",
                        lambda self, *args: walked.append(args) or walk(self, *args))
    for a, v, g1, g2 in _mediator_cocones():
        fp = a.free_product()
        for bound in range(1, 5):
            walked.clear()
            assert pushout_mediator(a, v, g1, g2, bound).all_pass
            assert walked == [], (a.name, bound)
            for p, (s, g) in enumerate(zip(a.parts, (g1, g2))):
                for e in s.elements:
                    assert fp.fold(mu(a, p + 1, e, bound), v, (g1, g2)) == g.carrier_map[e], \
                        (a.name, bound, e)
            assert walked, a.name       # mu walks the classes that the mediator skips


def test_mediator_refuses_a_target_that_is_not_associative():
    # on null_collision, the 9-element V whose products are X·U = A,
    # X·V = B, P·Q = U, P·R = V and Z for all others: (X·P)·Q = Z but
    # X·(P·Q) = A.  The evident maps are homomorphisms whose square commutes,
    # so only associativity refuses the target, at every bound.  The diagram
    # does fail here: at bound 3 mu's representative of a folds apart from
    # the image of a, which only reflects the bad target
    a = null_collision_amalgam()
    names = ("P", "U", "V", "Z", "X", "A", "B", "Q", "R")
    at = {x: i for i, x in enumerate(names)}
    table = np.full((9, 1, 9), at["Z"], dtype=np.int64)
    for x, y, z in (("X", "U", "A"), ("X", "V", "B"), ("P", "Q", "U"), ("P", "R", "V")):
        table[at[x], 0, at[y]] = at[z]
    v = GammaSemigroup("V", names, ("g",), table)
    s1, s2 = a.parts
    g1 = _hom("g1", s1, v, {e: e[0].upper() for e in s1.elements})
    g2 = _hom("g2", s2, v, {e: e[0].upper() for e in s2.elements})
    assert verify_homomorphism(g1) is None and verify_homomorphism(g2) is None
    assert a.free_product().fold(mu(a, 1, "a", 3), v, (g1, g2)) != g1.carrier_map["a"]
    for bound in range(1, gsg.amalgams.DEFAULT_BOUND + 1):
        with pytest.raises(NotAssociative) as exc:
            pushout_mediator(a, v, g1, g2, bound)
        assert exc.value.witness == check_associativity(v)


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


def test_necessary_condition_core_not_completely_regular():
    v = necessary_condition(make_core_not_regular_amalgam())
    assert v.status == "core-not-completely-regular"
    assert v.failing_parts == ()
    assert v.witness == "uy"


def test_core_not_regular_amalgam_has_injective_mediating_maps():
    # T is S1 with a third gamma h2 acting like h1; both parts map into it
    # injectively and agree on the core, so the amalgam embeds and no
    # report may claim otherwise
    a = make_core_not_regular_amalgam()
    s1, s2 = a.parts
    t = GammaSemigroup("T", ("x", "y"), ("g", "h1", "h2"), s1.table[:, [0, 1, 1], :])
    g1 = GammaHomomorphism("g1", s1, t, {"ax": "x", "ay": "y"}, {"g1": "g", "h1": "h1"})
    g2 = GammaHomomorphism("g2", s2, t, {"bx": "x", "by": "y"}, {"g2": "g", "h2": "h2"})
    assert check_associativity(t) is None
    for g in (g1, g2):
        assert verify_homomorphism(g) is None and injective(g) == (True, True)
    for f, g in zip(a.maps, (g1, g2)):
        assert {u: g.carrier_map[f.carrier_map[u]] for u in a.core.elements} == {
            "ux": "x", "uy": "y"}
        assert g.gamma_map[f.gamma_map["gu"]] == "g"
    assert pushout_mediator(a, t, g1, g2, bound=4).all_pass
    assert necessary_condition(a).status == "core-not-completely-regular"
    report = check_natural_embedding(a, bound=4)
    assert report.verdict == "consistent-within-bound"
    assert report.collisions == ()


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
        "core_not_regular": "core-not-completely-regular",
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
