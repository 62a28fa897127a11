"""Free-product words: normalization, multiplication, fold."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_core_not_regular_amalgam,
    make_disjoint_amalgam,
    make_embedded_z4_fixture,
    make_two_copies,
    trivial,
    words_up_to,
)
from gsg import (
    CrossFamilyGamma,
    FreeProduct,
    GammaHomomorphism,
    GammaMismatch,
    MalformedSequence,
    MissingHomomorphism,
    Mode,
    ModeMismatch,
    NameClash,
    Step,
    UnknownIdentifier,
    identity_homomorphism,
    replay_chain,
)
from gsg.families import left_zero, zmod
from gsg.words import Word
from oracles import brute_fold, brute_normalize


def family():
    return FreeProduct([zmod(2), left_zero(["p", "q"], ["g"], name="LZ")],
                       Mode.SAME_GAMMA)


def disjoint_family():
    s1 = zmod(2)
    s2 = left_zero(["p", "q"], ["h"], name="LZ")
    return FreeProduct([s1, s2], Mode.DISJOINT)


def test_family_requires_disjoint_element_names():
    with pytest.raises(NameClash):
        FreeProduct([zmod(2), zmod(4)], Mode.SAME_GAMMA)   # both own "0"


def test_same_gamma_requires_identical_gamma_lists():
    with pytest.raises(GammaMismatch):
        FreeProduct([zmod(2), left_zero(["p", "q"], ["h"], name="LZ")],
                    Mode.SAME_GAMMA)


def test_disjoint_requires_disjoint_gamma_names():
    with pytest.raises(NameClash):
        FreeProduct([zmod(2), left_zero(["p", "q"], ["g"], name="LZ")],
                    Mode.DISJOINT)


def test_embed():
    fp = family()
    w = fp.embed(1, "p")
    assert w.m == 1 and w.letters == ("p",)
    assert str(fp.embed(0, "1")) == "1"
    with pytest.raises(UnknownIdentifier):
        fp.embed(0, "p")


def test_normalize_worked_cases():
    fp = family()
    assert str(fp.normalize(["1", "g", "1"])) == "0"
    assert str(fp.normalize(["1", "g", "p"])) == "1 g p"
    # two merges, left to right: 1g1=0 then pgq=p
    assert str(fp.normalize(["1", "g", "1", "g", "p", "g", "q"])) == "0 g p"


@pytest.mark.parametrize("toks", [[], ["1", "g"], ["1", "g", "1", "g"]])
def test_normalize_rejects_malformed(toks):
    with pytest.raises(MalformedSequence):
        family().normalize(toks)


def test_normalize_rejects_unknown_names():
    with pytest.raises(UnknownIdentifier):
        family().normalize(["1", "g", "zz"])
    with pytest.raises(UnknownIdentifier):
        family().normalize(["1", "q?", "1"])
    with pytest.raises(UnknownIdentifier):
        family().normalize(["g"])   # odd length, but g is no element


def test_normalize_idempotent_exhaustive():
    fp = family()
    for w in words_up_to(fp, 3):
        again = fp.normalize(w.tokens())
        assert again == w and fp.is_reduced(again)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_merge_order_does_not_matter(data):
    # drive the reference normalizer with arbitrary merge-site choices and
    # require the library's left-to-right answer every time
    fp = family()
    names = ["0", "1", "p", "q"]
    m = data.draw(st.integers(1, 5))
    toks = []
    for k in range(m):
        if k:
            toks.append("g")
        toks.append(data.draw(st.sampled_from(names)))
    owner = {"0": 0, "1": 0, "p": 1, "q": 1}

    def mul(i, x, g, y):
        return fp.members[i].mul(x, g, y)

    def pick(nsites):
        return data.draw(st.integers(0, nsites - 1))

    ref = brute_normalize(toks, owner, None, mul, merge_pos=pick)
    assert tuple(ref) == family().normalize(toks).tokens()


@pytest.mark.parametrize("build", [lambda: make_embedded_z4_fixture()[0],
                                   make_disjoint_amalgam],
                         ids=["same-gamma", "disjoint"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_matches_reference_and_its_merges_replay(build, data):
    # reduce on raw coded words: the reference normalizer must agree, and
    # the merges it reports must replay as a chain onto its normal form
    a = build()
    fp = a.free_product()
    m = data.draw(st.integers(1, 6))
    state = []
    for k in range(m):
        if k:
            state.append(data.draw(st.integers(0, len(fp.gamma_names) - 1)))
        state.append(data.draw(st.integers(0, len(fp.element_names) - 1)))
    nf, merges = fp.reduce(tuple(state))
    raw = fp.decode(tuple(state))
    owner = {e: p for p, s in enumerate(fp.members) for e in s.elements}
    gowner = (None if fp.mode is Mode.SAME_GAMMA else
              {h: p for p, s in enumerate(fp.members) for h in s.gammas})

    def mul(i, x, g, y):
        return fp.members[i].mul(x, g, y)

    ref = brute_normalize(raw.tokens(), owner, gowner, mul)
    assert fp.decode(nf).tokens() == tuple(ref)
    e, g = fp.element_names, fp.gamma_names
    chain = [Step("merge", pos, (e[x], g[h], e[y], e[z])) for pos, x, h, y, z in merges]
    assert replay_chain(a, raw, chain) == fp.decode(nf)


def test_gamma_multiply_three_cases():
    fp = family()
    assert str(fp.gamma_multiply(fp.parse_word("1"), "g", fp.parse_word("1"))) == "0"
    assert str(fp.gamma_multiply(fp.parse_word("1"), "g", fp.parse_word("p"))) == "1 g p"
    assert str(fp.gamma_multiply(fp.parse_word("1 g p"), "g", fp.parse_word("q"))) == "1 g p"


def test_gamma_multiply_always_reduced():
    fp = family()
    ws = words_up_to(fp, 2)
    for a in ws:
        for b in ws:
            assert fp.is_reduced(fp.gamma_multiply(a, "g", b))


def test_gamma_multiply_associative_exhaustive():
    # (a g b) g c = a g (b g c) over every word pair with m <= 2
    fp = family()
    ws = words_up_to(fp, 2)
    for a in ws:
        for b in ws:
            for c in ws:
                lhs = fp.gamma_multiply(fp.gamma_multiply(a, "g", b), "g", c)
                rhs = fp.gamma_multiply(a, "g", fp.gamma_multiply(b, "g", c))
                assert lhs == rhs


def test_words_rebuild_from_their_letters():
    # every reduced word is the product of its one-letter words in order
    fp = family()
    for w in words_up_to(fp, 3):
        acc = None
        for k, name in enumerate(w.letters):
            if k % 2 == 1:
                continue
            member = next(p for p, s in enumerate(fp.members) if s.has_element(name))
            piece = fp.embed(member, name)
            if acc is None:
                acc = piece
            else:
                acc = fp.gamma_multiply(acc, w.letters[k - 1], piece)
        assert acc == w


def test_mode_mismatch_between_products():
    fp, dj = family(), disjoint_family()
    with pytest.raises(ModeMismatch):
        fp.gamma_multiply(dj.embed(0, "1"), "g", fp.embed(0, "1"))


def test_disjoint_junction_needs_all_three_pointers():
    dj = disjoint_family()
    one = dj.embed(0, "1")
    # gamma h belongs to the second member: no merge, h separates
    w = dj.gamma_multiply(one, "h", one)
    assert str(w) == "1 h 1"
    assert dj.is_reduced(w)   # not mergeable, hence reduced in this mode
    merged = dj.gamma_multiply(one, "g", one)
    assert str(merged) == "0"


def test_disjoint_raw_cross_site_rejected():
    dj = disjoint_family()
    with pytest.raises(CrossFamilyGamma):
        dj.normalize(["1", "h", "1"])
    # but the same shape is legal when produced by multiplication, and
    # feeding it back through normalize via tokens is the one asymmetry
    w = dj.gamma_multiply(dj.embed(0, "1"), "h", dj.embed(0, "1"))
    assert w.m == 2


def test_fold_worked_cases():
    fp = family()
    z2 = zmod(2)
    psi1 = identity_homomorphism(z2)
    psi2 = GammaHomomorphism("psi2", fp.members[1], z2,
                             {"p": "0", "q": "0"}, {"g": "g"})
    assert fp.fold(fp.parse_word("1"), z2, [psi1, psi2]) == "1"
    assert fp.fold(fp.parse_word("1 g p"), z2, [psi1, psi2]) == "1"
    assert fp.fold(fp.parse_word("0 g q g 1"), z2, [psi1, psi2]) == "1"


def test_fold_matches_reference_everywhere():
    fp = family()
    z2 = zmod(2)
    psi1 = identity_homomorphism(z2)
    psi2 = GammaHomomorphism("psi2", fp.members[1], z2,
                             {"p": "0", "q": "0"}, {"g": "g"})
    owner = {"0": 0, "1": 0, "p": 1, "q": 1}
    maps = [psi1.carrier_map, psi2.carrier_map]
    for w in words_up_to(fp, 3):
        assert fp.fold(w, z2, [psi1, psi2]) == brute_fold(
            list(w.tokens()), z2, maps, owner)


def test_fold_is_a_homomorphism():
    fp = family()
    z2 = zmod(2)
    homs = [identity_homomorphism(z2),
            GammaHomomorphism("psi2", fp.members[1], z2,
                              {"p": "0", "q": "0"}, {"g": "g"})]
    ws = words_up_to(fp, 2)
    for a in ws:
        for b in ws:
            prod = fp.gamma_multiply(a, "g", b)
            direct = z2.mul(fp.fold(a, z2, homs), "g", fp.fold(b, z2, homs))
            assert fp.fold(prod, z2, homs) == direct
    # and fold after embed is the hom itself
    for p, s in enumerate(fp.members):
        for e in s.elements:
            assert fp.fold(fp.embed(p, e), z2, homs) == homs[p].apply(e)


def test_fold_requires_every_hom():
    fp = family()
    z2 = zmod(2)
    with pytest.raises(MissingHomomorphism):
        fp.fold(fp.embed(0, "1"), z2, [identity_homomorphism(z2), None])


def test_fold_same_gamma_rejects_moved_gammas():
    fp = family()
    target = zmod(2, gammas=2)   # wrong gamma list
    h1 = GammaHomomorphism("a", fp.members[0], target,
                           {"0": "0", "1": "1"}, {"g": "g0"})
    h2 = GammaHomomorphism("b", fp.members[1], target,
                           {"p": "0", "q": "0"}, {"g": "g0"})
    with pytest.raises(GammaMismatch):
        fp.fold(fp.embed(0, "1"), target, [h1, h2])


def test_fold_accepts_the_shared_gammas_in_another_order():
    s1 = trivial("p", gammas=("g", "h"), name="S1")
    s2 = trivial("r", gammas=("g", "h"), name="S2")
    target = trivial("t", gammas=("h", "g"), name="T")
    fp = FreeProduct([s1, s2])
    homs = [GammaHomomorphism(f"psi{i}", s, target, {s.elements[0]: "t"},
                              {"g": "g", "h": "h"}) for i, s in enumerate((s1, s2))]
    w = fp.gamma_multiply(fp.embed(0, "p"), "h", fp.embed(1, "r"))
    assert fp.fold(w, target, homs) == "t"


def test_fold_disjoint_uses_gamma_maps():
    dj = disjoint_family()
    z2 = zmod(2)
    h1 = identity_homomorphism(z2)
    h2 = GammaHomomorphism("psi2", dj.members[1], z2,
                           {"p": "0", "q": "0"}, {"h": "g"})
    w = dj.gamma_multiply(dj.embed(0, "1"), "h", dj.embed(0, "1"))
    # 1 h 1 folds through h -> g: 1 g 1 = 0
    assert dj.fold(w, z2, [h1, h2]) == "0"


def test_canonical_key_orders_by_length_then_indices():
    fp = family()
    key = fp.canonical_key
    assert key(fp.parse_word("0")) < key(fp.parse_word("1"))
    assert key(fp.parse_word("1")) < key(fp.parse_word("p"))   # member order
    assert key(fp.parse_word("q")) < key(fp.parse_word("0 g p"))
    ws = sorted(words_up_to(fp, 2), key=key)
    assert [str(w) for w in ws[:5]] == ["0", "1", "p", "q", "0 g p"]


def test_products_translate_across_member_order():
    # the same names built over reversed member lists give isomorphic
    # products: translation by token round-trip preserves multiplication
    a = zmod(2)
    b = left_zero(["p", "q"], ["g"], name="LZ")
    fp1 = FreeProduct([a, b], Mode.SAME_GAMMA)
    fp2 = FreeProduct([b, a], Mode.SAME_GAMMA)

    def move(w):
        return fp2.normalize(w.tokens())

    ws = words_up_to(fp1, 2)
    assert len({move(w) for w in ws}) == len(ws)
    for w1 in ws:
        for w2 in ws:
            prod = fp1.gamma_multiply(w1, "g", w2)
            assert move(prod) == fp2.gamma_multiply(move(w1), "g", move(w2))
    back = {fp1.normalize(move(w).tokens()) for w in ws}
    assert back == set(ws)


def test_single_member_product_collapses_to_the_table():
    fp = FreeProduct([zmod(4)], Mode.SAME_GAMMA)
    for x in "0123":
        for y in "0123":
            w = fp.gamma_multiply(fp.embed(0, x), "g", fp.embed(0, y))
            assert w.m == 1 and w.letters[0] == zmod(4).mul(x, "g", y)


def test_word_equality_and_hash():
    fp = family()
    assert fp.parse_word("1 g p") == fp.parse_word("1 g p")
    assert hash(fp.parse_word("1")) != hash(fp.parse_word("0")) or True
    assert fp.parse_word("1") != fp.parse_word("0")


def test_words_round_trip_through_their_codes():
    # a word is its names: decoding its coded state gives the word back, in
    # both modes, and a word encodes alike in every product with its names
    fp = family()
    for w in words_up_to(fp, 3):
        assert fp.decode(fp.encode(w)) == w
    rng = random.Random(7)
    for a in (make_disjoint_amalgam(), make_core_not_regular_amalgam()):
        dj = a.free_product()
        for _ in range(200):
            state = [rng.randrange(len(dj.element_names))]
            for _ in range(rng.randrange(4)):
                state += [rng.randrange(len(dj.gamma_names)), rng.randrange(len(dj.element_names))]
            w = dj.decode(dj.reduce(tuple(state))[0])
            assert dj.decode(dj.encode(w)) == w and dj.is_reduced(w)
    a = make_two_copies()
    built = a.free_product()
    for w in words_up_to(built, 3):
        assert a._search.fp.encode(w) == built.encode(w)
    # the same names in products that list the members in another order
    z2, lz = zmod(2), left_zero(["p", "q"], ["g"], name="LZ")
    assert FreeProduct([z2, lz]).embed(1, "p") == FreeProduct([lz, z2]).embed(0, "p")
