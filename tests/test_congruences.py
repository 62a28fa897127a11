"""Congruence generation, quotients, kernels, first isomorphism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_tables, small_fixture_tables, trivial, z6_times_two
from gsg import (
    Congruence,
    GammaHomomorphism,
    GammaSemigroup,
    NotAHomomorphism,
    NotAssociative,
    NotCompatible,
    check_associativity,
    compatibility_violation,
    first_isomorphism_check,
    generate_congruence,
    identity_homomorphism,
    kernel_congruence,
    quotient,
)
from gsg.families import left_zero, zmod
from oracles import (
    brute_compat_witness,
    brute_least_congruence,
    congruence_blocks,
    is_congruence,
    least_congruence_by_enumeration,
)


def all_single_pairs(s):
    for i, a in enumerate(s.elements):
        for b in s.elements[i + 1:]:
            yield (a, b)


def test_reps_must_be_class_minima():
    z4 = zmod(4)
    Congruence(z4, (0, 1, 0, 1))
    with pytest.raises(ValueError):
        Congruence(z4, (2, 1, 2, 1))   # rep larger than member
    with pytest.raises(ValueError):
        Congruence(z4, (0, 1, 1, 4))


def test_reps_must_be_integers():
    # 0.5 is no element index, so it is not cut down to 0
    with pytest.raises(TypeError):
        Congruence(zmod(3), (0, 0, 0.5))
    assert Congruence(zmod(3), tuple(np.zeros(3, dtype=np.int64))).reps == (0, 0, 0)


def test_from_classes_and_accessors():
    z4 = zmod(4)
    rho = Congruence.from_classes(z4, [["0", "2"], ["1", "3"]])
    assert rho.same("0", "2") and not rho.same("0", "1")
    assert rho.class_of("3") == ("1", "3")
    assert rho.classes() == (("0", "2"), ("1", "3"))
    with pytest.raises(ValueError):
        Congruence.from_classes(z4, [["0", "2"], ["1"]])      # 3 missing
    with pytest.raises(ValueError):
        Congruence.from_classes(z4, [["0", "2"], ["1", "3", "0"]])


def test_refinement_order():
    z4 = zmod(4)
    fine = Congruence(z4, (0, 1, 2, 3))
    mid = Congruence.from_classes(z4, [["0", "2"], ["1", "3"]])
    coarse = Congruence(z4, (0, 0, 0, 0))
    assert fine <= mid <= coarse
    assert not coarse <= mid


def test_generate_empty_seed_is_identity():
    z4 = zmod(4)
    assert generate_congruence(z4, []).classes() == (("0",), ("1",), ("2",), ("3",))


def test_generate_universal_on_two_elements():
    assert generate_congruence(zmod(2), [("0", "1")]).classes() == (("0", "1"),)


def test_generate_left_zero_adds_nothing():
    # translations of a left-zero table depend only on the left argument
    l3 = left_zero(["x", "y", "z"], ["g"], name="L3")
    rho = generate_congruence(l3, [("x", "y")])
    assert rho.classes() == (("x", "y"), ("z",))


@pytest.mark.parametrize("s", small_fixture_tables(), ids=lambda s: s.name)
def test_generate_matches_fixpoint_closure(s):
    for pair in all_single_pairs(s):
        rho = generate_congruence(s, [pair])
        assert congruence_blocks(rho) == brute_least_congruence(s, [pair])
        assert is_congruence(s, rho.classes())


@pytest.mark.parametrize("s", [t for t in small_fixture_tables() if t.n <= 4],
                         ids=lambda s: s.name)
def test_generate_is_least_by_enumeration(s):
    for pair in all_single_pairs(s):
        rho = generate_congruence(s, [pair])
        assert congruence_blocks(rho) == least_congruence_by_enumeration(s, [pair])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_generate_with_multiple_seeds(data):
    tables = [t for t in small_fixture_tables() if 2 <= t.n <= 4]
    s = data.draw(st.sampled_from(tables))
    pool = list(all_single_pairs(s))
    seeds = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    rho = generate_congruence(s, seeds)
    assert congruence_blocks(rho) == brute_least_congruence(s, seeds)


@pytest.mark.parametrize("s", family_tables(), ids=lambda s: s.name)
def test_generate_matches_fixpoint_closure_on_family_tables(s):
    rng = np.random.default_rng(s.n * 31 + s.g)
    for _ in range(6):
        # chains x0 ~ x1 ~ ... of 2-4 elements, one to three of them
        seeds = []
        for _ in range(int(rng.integers(1, 4))):
            chain = rng.choice(s.n, size=int(rng.integers(2, 5)), replace=False)
            seeds += [(s.elements[a], s.elements[b]) for a, b in zip(chain, chain[1:])]
        rho = generate_congruence(s, seeds)
        assert congruence_blocks(rho) == brute_least_congruence(s, seeds), seeds
        assert compatibility_violation(rho) is None


@pytest.mark.parametrize("side", ["left", "right"])
def test_generate_follows_translations_on_both_sides(side):
    # p0 ~ p1 differ only in the zero coordinate, so only the translations
    # on the side that keeps it spread the pair: to every 2a ~ 2a + 1
    s = z6_times_two(side)
    rho = generate_congruence(s, [("p0", "p1")])
    assert rho.classes() == tuple((f"p{2 * a}", f"p{2 * a + 1}") for a in range(6))


def test_generate_requires_associativity():
    t = np.zeros((2, 1, 2), dtype=np.int64)
    t[0, 0, 0] = 1
    t[1, 0, 1] = 0
    s = GammaSemigroup("X", ("a", "b"), ("g",), t)
    with pytest.raises(NotAssociative):
        generate_congruence(s, [("a", "b")])


def test_compatibility_violation_found():
    z4 = zmod(4)
    bad = Congruence.from_classes(z4, [["0", "1"], ["2"], ["3"]])
    w = compatibility_violation(bad)
    assert w is not None
    x, y, g, z = w
    assert bad.same(x, y)
    assert not bad.same(z4.mul(x, g, z), z4.mul(y, g, z)) or \
        not bad.same(z4.mul(z, g, x), z4.mul(z, g, y))
    assert compatibility_violation(generate_congruence(z4, [("0", "2")])) is None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_compatibility_witness_is_the_reference_scans(data):
    s = data.draw(st.sampled_from(small_fixture_tables() + family_tables()))
    blocks = data.draw(st.lists(st.integers(0, s.n - 1), min_size=s.n, max_size=s.n))
    first: dict[int, int] = {}
    rho = Congruence(s, tuple(first.setdefault(b, i) for i, b in enumerate(blocks)))
    assert compatibility_violation(rho) == brute_compat_witness(rho)


def test_quotient_witness_is_the_reference_scans():
    for s in family_tables():
        rng = np.random.default_rng(s.n)
        for _ in range(5):
            first: dict[int, int] = {}
            reps = tuple(first.setdefault(int(b), i)
                         for i, b in enumerate(rng.integers(0, 3, size=s.n)))
            rho = Congruence(s, reps)
            expected = brute_compat_witness(rho)
            if expected is None:
                assert quotient(s, rho).semigroup.n == len(first)
                continue
            with pytest.raises(NotCompatible) as exc:
                quotient(s, rho)
            assert (exc.value.x, exc.value.y, exc.value.gamma, exc.value.z) == expected


def test_quotient_by_identity_is_a_renaming():
    z4 = zmod(4)
    rho = generate_congruence(z4, [])
    q, proj = quotient(z4, rho)
    assert q.elements == z4.elements and np.array_equal(q.table, z4.table)
    assert proj.carrier_map == {e: e for e in z4.elements}


def test_quotient_universal_collapses():
    q, proj = quotient(zmod(2), Congruence(zmod(2), (0, 0)))
    assert q.n == 1 and set(proj.carrier_map.values()) == {"0"}


def test_quotient_z4_mod_two_is_z2():
    z4 = zmod(4)
    q, proj = quotient(z4, generate_congruence(z4, [("0", "2")]))
    assert q.elements == ("0", "1")
    assert np.array_equal(q.table, zmod(2).table)
    assert proj.carrier_map == {"0": "0", "1": "1", "2": "0", "3": "1"}
    from gsg import verify_homomorphism
    assert verify_homomorphism(proj) is None


def test_quotient_rejects_incompatible_partition():
    z4 = zmod(4)
    bad = Congruence.from_classes(z4, [["0", "1"], ["2"], ["3"]])
    with pytest.raises(NotCompatible) as exc:
        quotient(z4, bad)
    assert bad.same(exc.value.x, exc.value.y)


def test_quotient_subject_must_match():
    rho = generate_congruence(zmod(2), [])
    with pytest.raises(ValueError):
        quotient(zmod(4), rho)


@pytest.mark.parametrize("s", small_fixture_tables(), ids=lambda s: s.name)
def test_quotients_stay_associative(s):
    for pair in all_single_pairs(s):
        q, _ = quotient(s, generate_congruence(s, [pair]))
        assert check_associativity(q) is None


def test_kernel_of_identity_and_collapse():
    z2 = zmod(2)
    assert kernel_congruence(identity_homomorphism(z2)).classes() == (("0",), ("1",))
    col = GammaHomomorphism("col", z2, trivial("t"), {"0": "t", "1": "t"}, {"g": "g"})
    assert kernel_congruence(col).classes() == (("0", "1"),)


def test_kernel_of_reduction():
    z4, z2 = zmod(4), zmod(2)
    f = GammaHomomorphism("red", z4, z2,
                          {"0": "0", "1": "1", "2": "0", "3": "1"}, {"g": "g"})
    rho = kernel_congruence(f)
    assert rho.classes() == (("0", "2"), ("1", "3"))
    assert is_congruence(z4, rho.classes())


def test_kernel_requires_homomorphism():
    z2 = zmod(2)
    swap = GammaHomomorphism("swap", z2, z2, {"0": "1", "1": "0"}, {"g": "g"})
    with pytest.raises(NotAHomomorphism):
        kernel_congruence(swap)


def test_first_isomorphism_reduction():
    z4, z2 = zmod(4), zmod(2)
    f = GammaHomomorphism("red", z4, z2,
                          {"0": "0", "1": "1", "2": "0", "3": "1"}, {"g": "g"})
    rep = first_isomorphism_check(f)
    assert rep.all_pass
    assert rep.quotient_semigroup.n == 2 and len(rep.image_elements) == 2


def test_first_isomorphism_identity():
    rep = first_isomorphism_check(identity_homomorphism(zmod(3)))
    assert rep.all_pass and rep.mediator == {"0": "0", "1": "1", "2": "2"}


def test_first_isomorphism_constant_map():
    # x -> 0 is a homomorphism on Z2 because 0 g 0 = 0
    z2 = zmod(2)
    f = GammaHomomorphism("zero", z2, z2, {"0": "0", "1": "0"}, {"g": "g"})
    rep = first_isomorphism_check(f)
    assert rep.all_pass
    assert rep.quotient_semigroup.n == 1 and rep.image_elements == ("0",)


def test_first_isomorphism_rejects_non_hom():
    z2 = zmod(2)
    swap = GammaHomomorphism("swap", z2, z2, {"0": "1", "1": "0"}, {"g": "g"})
    with pytest.raises(NotAHomomorphism):
        first_isomorphism_check(swap)


def test_first_isomorphism_into_larger_target():
    # non-surjective embedding: image is a strict sub-table
    z2, z4 = zmod(2), zmod(4)
    f = GammaHomomorphism("dbl", z2, z4, {"0": "0", "1": "2"}, {"g": "g"})
    rep = first_isomorphism_check(f)
    assert rep.all_pass and rep.image_elements == ("0", "2")


def test_every_enumerable_hom_passes_first_isomorphism():
    # all carrier maps between small fixture tables sharing one gamma,
    # filtered to genuine homomorphisms
    from itertools import product as iproduct
    from gsg import verify_homomorphism
    small = [t for t in small_fixture_tables() if t.n <= 3 and t.g == 1]
    checked = 0
    for s in small:
        for t in small:
            for images in iproduct(t.elements, repeat=s.n):
                f = GammaHomomorphism(
                    "f", s, t, dict(zip(s.elements, images)),
                    {s.gammas[0]: t.gammas[0]})
                if verify_homomorphism(f) is not None:
                    continue
                assert first_isomorphism_check(f).all_pass
                checked += 1
    assert checked > 50   # the enumeration really covered something
