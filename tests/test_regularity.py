"""Regularity witnesses, inverses, and the classification flags."""

import numpy as np
import pytest

from conftest import (
    family_tables,
    k2,
    meet_two,
    shuffled,
    small_fixture_tables,
    trivial,
    z6_times_two,
)
from gsg import (
    GammaSemigroup,
    NotAssociative,
    alpha_inverses,
    alpha_regular_witness,
    classify,
    completely_regular_witness,
)
from gsg import core
from gsg.families import constant, left_zero, right_zero, zmod
from oracles import brute_regularity


def random_tables():
    """Mostly non-associative tables: the per-element scans do not need the law."""
    out = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n, g = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        out.append(GammaSemigroup(f"rand{seed}", tuple(f"e{i}" for i in range(n)),
                                  tuple(f"h{j}" for j in range(g)),
                                  rng.integers(0, n, size=(n, g, n))))
    return out


def workload_tables():
    """Associative tables with n = 8-16 and g = 2-3, half with shuffled indices."""
    names = [f"e{i}" for i in range(12)]
    z10 = zmod(10)
    gamma_ignored = [GammaSemigroup(f"Z10i{g}", z10.elements, tuple(f"g{j}" for j in range(g)),
                                    np.repeat(z10.table, g, axis=1)) for g in (2, 3)]
    tables = gamma_ignored + [
        zmod(16, gammas=2), zmod(12, gammas=2), zmod(9, gammas=3), zmod(8, gammas=3),
        left_zero(names, ["g", "h", "k"], name="L12"),
        right_zero(names[:9], ["g", "h"], name="R9"),
        constant(names[:11], "e4", ["g", "h", "k"], name="K11"),
        z6_times_two("left"), z6_times_two("right")]
    return tables + [shuffled(t, k) for k, t in enumerate(tables)]


@pytest.mark.parametrize("s", small_fixture_tables() + random_tables(), ids=lambda s: s.name)
def test_witnesses_match_reference_scan(s):
    ref = brute_regularity(s)
    regular, complete, inverse = core._regularity_masks(s, slice(None))
    whole = zip(core._witnesses(s, regular), core._witnesses(s, complete),
                core._pairs(s, inverse))
    for a, row in zip(s.elements, whole):
        expected = (ref[a]["regular"], ref[a]["commuting"], tuple(ref[a]["inverses"]))
        assert (alpha_regular_witness(s, a), completely_regular_witness(s, a),
                alpha_inverses(s, a)) == expected
        assert row == expected


@pytest.mark.parametrize("s", family_tables() + workload_tables(), ids=lambda s: s.name)
def test_classify_matches_reference_scan_at_workload_size(s):
    ref = brute_regularity(s)
    rep = classify(s)
    assert [(e.element, e.alpha_regular, e.completely_regular, list(e.inverses))
            for e in rep.per_element] == [
        (a, ref[a]["regular"], ref[a]["commuting"], ref[a]["inverses"]) for a in s.elements]
    is_reg = all(ref[a]["regular"] is not None for a in s.elements)
    assert rep.is_alpha_regular == is_reg
    assert rep.is_completely_alpha_regular == all(
        ref[a]["commuting"] is not None for a in s.elements)
    assert rep.is_gamma_inverse == (is_reg and all(
        len({b for b, _ in ref[a]["inverses"]}) == 1 for a in s.elements))


@pytest.mark.parametrize("s", small_fixture_tables(), ids=lambda s: s.name)
def test_flags_agree_with_per_element_data(s):
    rep = classify(s)
    assert rep.is_alpha_regular == all(
        e.alpha_regular is not None for e in rep.per_element)
    assert rep.is_completely_alpha_regular == all(
        e.completely_regular is not None for e in rep.per_element)
    singleton = all(len(set(e.inverse_elements)) == 1 for e in rep.per_element)
    assert rep.is_gamma_inverse == (rep.is_alpha_regular and singleton)
    # completeness implies regularity
    for e in rep.per_element:
        if e.completely_regular is not None:
            assert e.alpha_regular is not None


def test_z2_values():
    z2 = zmod(2)
    assert alpha_regular_witness(z2, "1") == ("1", "g")   # 1+1+1 = 1 mod 2
    assert alpha_inverses(z2, "0") == (("0", "g"),)
    assert classify(z2).is_completely_alpha_regular


def test_constant_table_values():
    s = k2()
    assert alpha_regular_witness(s, "a") is None   # agxga = b for every x
    assert alpha_inverses(s, "a") == ()
    assert completely_regular_witness(s, "a") is None
    rep = classify(s)
    assert not rep.is_alpha_regular and not rep.is_gamma_inverse
    # b is fine: b g x g b = b, and the first witness is the first element
    assert alpha_regular_witness(s, "b") == ("a", "g")


def test_left_zero_values():
    s = left_zero(["x", "y"], ["g"], name="L2")
    # xgbgx = x and bgxgb = b hold for every b, so both pairs qualify
    assert alpha_inverses(s, "x") == (("x", "g"), ("y", "g"))
    assert completely_regular_witness(s, "x") == ("x", "g")
    # y commutes only with itself: ygx = y but xgy = x
    assert completely_regular_witness(s, "y") == ("y", "g")
    rep = classify(s)
    assert rep.is_completely_alpha_regular and not rep.is_gamma_inverse


def test_two_gamma_meet_values():
    s = meet_two("x", "y", ["g", "h"], "M2")
    assert alpha_inverses(s, "x") == (("x", "g"), ("x", "h"))
    assert alpha_inverses(s, "y") == (("y", "h"),)
    assert classify(s).is_gamma_inverse   # one inverse element each, two routes
    assert classify(s).is_completely_alpha_regular


def test_gamma_inverse_flag_across_moduli():
    # with two gammas the inverse of a against gamma_j is -a-2j, so the
    # inverse element is unique exactly when 2 = 0 mod n
    assert classify(zmod(2, gammas=2)).is_gamma_inverse
    assert not classify(zmod(4, gammas=2)).is_gamma_inverse
    assert classify(zmod(3)).is_gamma_inverse
    assert not classify(right_zero(["x", "y", "z"], ["g"])).is_gamma_inverse


def test_idempotents_are_regular():
    for s in small_fixture_tables():
        for a in s.elements:
            for g in s.gammas:
                if s.mul(a, g, a) != a:
                    continue
                # a itself witnesses both equations
                assert s.mul(s.mul(a, g, a), g, a) == a
                assert alpha_regular_witness(s, a) is not None
                assert completely_regular_witness(s, a) is not None


def test_trivial_table_all_flags():
    rep = classify(trivial("u"))
    assert (rep.is_alpha_regular, rep.is_gamma_inverse,
            rep.is_completely_alpha_regular) == (True, True, True)


def test_classify_requires_associativity():
    t = np.zeros((2, 1, 2), dtype=np.int64)
    t[0, 0, 0] = 1   # agb = b except aga = b'... scrambled enough to break
    t[1, 0, 1] = 0
    s = GammaSemigroup("X", ("a", "b"), ("g",), t)
    from oracles import brute_assoc_witness, table_dict
    assert brute_assoc_witness(s.elements, s.gammas, table_dict(s)) is not None
    with pytest.raises(NotAssociative):
        classify(s)
