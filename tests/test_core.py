"""Tables, associativity, homomorphisms."""

import collections
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import k2, make_two_copies, small_fixture_tables, trivial
from gsg import (
    AssocWitness,
    DuplicateEntry,
    FreeProduct,
    GammaAmalgam,
    GammaHomomorphism,
    GammaSemigroup,
    HomWitness,
    IncompleteMap,
    InvalidIdentifier,
    MissingEntry,
    Mode,
    NameClash,
    NotAHomomorphism,
    NotAssociative,
    UnknownIdentifier,
    check_associativity,
    classify,
    compose,
    first_isomorphism_check,
    generate_congruence,
    identity_homomorphism,
    is_monomorphism,
    is_subsemigroup,
    kernel_congruence,
    left_identities,
    necessary_condition,
    preserves_left_identity,
    validate_table,
    verify_homomorphism,
)
import gsg
from gsg import congruences, core
from gsg.families import left_zero, zmod
from oracles import brute_assoc_witness, brute_hom_witness, table_dict


def test_construction_and_lookup():
    z2 = zmod(2)
    assert z2.n == 2 and z2.g == 1
    assert z2.index("1") == 1 and z2.gamma_index("g") == 0
    assert z2.mul("1", "g", "1") == "0"
    assert z2.has_element("0") and not z2.has_element("2")
    with pytest.raises(UnknownIdentifier):
        z2.index("7")
    with pytest.raises(UnknownIdentifier):
        z2.gamma_index("h")


@pytest.mark.parametrize("bad", ["", "a b", "x#y", "a=b", "->", "x->y"])
def test_identifier_rules(bad):
    with pytest.raises(InvalidIdentifier):
        GammaSemigroup("S", (bad,), ("g",), np.zeros((1, 1, 1), dtype=np.int64))


def test_duplicate_names_rejected():
    with pytest.raises(NameClash):
        GammaSemigroup("S", ("a", "a"), ("g",), np.zeros((2, 1, 2), dtype=np.int64))
    with pytest.raises(NameClash):
        GammaSemigroup("S", ("a", "b"), ("g", "g"), np.zeros((2, 2, 2), dtype=np.int64))


def test_name_clash_texts_agree_for_tables_and_entries():
    # one check serves GammaSemigroup and validate_table: elements first
    for elements, gammas, text in (
            (("a", "a"), ("g",), "name 'a' declared more than once (elements of S)"),
            (("a", "b"), ("g", "g"), "name 'g' declared more than once (gammas of S)"),
            (("a", "a"), ("g", "g"), "name 'a' declared more than once (elements of S)")):
        table = np.zeros((2, len(gammas), 2), dtype=np.int64)
        for build in (lambda: GammaSemigroup("S", elements, gammas, table),
                      lambda: validate_table("S", elements, gammas, [])):
            with pytest.raises(NameClash) as exc:
                build()
            assert str(exc.value) == text


def test_table_shape_and_range_checked():
    with pytest.raises(ValueError):
        GammaSemigroup("S", ("a",), ("g",), np.zeros((1, 1, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        GammaSemigroup("S", ("a",), ("g",), np.full((1, 1, 1), 3, dtype=np.int64))


def test_table_entries_must_be_whole_indices():
    # 1.0 is the index 1, but 0.7 and 1.2 are no indices and are not cut down
    s = GammaSemigroup("S", ("a", "b"), ("g",), [[[0.0, 1.0]], [[1.0, 0.0]]])
    assert s.table.tolist() == [[[0, 1]], [[1, 0]]]
    with pytest.raises(ValueError, match="table entries must be element indices"):
        GammaSemigroup("S", ("a", "b"), ("g",), [[[0.7, 1.2]], [[1.0, 0.0]]])
    # a flag is no index either: a table of bools is not read as Z2's
    flags = [[[False, True]], [[True, False]]]
    for table in (flags, np.array(flags)):
        with pytest.raises(ValueError, match="table entries must be element indices"):
            GammaSemigroup("B", ("0", "1"), ("g",), table)


def test_table_is_a_locked_copy_of_the_given_array():
    # a contiguous int64 array is copied before it is locked, so the
    # caller's array stays writable and later writes do not reach the table
    t = np.zeros((2, 1, 2), dtype=np.int64)
    s = GammaSemigroup("S", ("a", "b"), ("g",), t)
    t[0, 0, 0] = 1
    assert s.table[0, 0, 0] == 0 and not s.table.flags.writeable
    with pytest.raises(ValueError):
        s.table[0, 0, 0] = 1


def test_minus_one_cell_is_a_missing_entry():
    # -1 marks an empty cell: the first in index order is named
    table = zmod(2).table.copy()
    table[1, 0, 1] = table[1, 0, 0] = -1
    with pytest.raises(MissingEntry) as exc:
        GammaSemigroup("S", ("0", "1"), ("g",), table)
    assert (exc.value.a, exc.value.gamma, exc.value.b) == ("1", "g", "0")
    # any other negative entry is not an element index
    table = zmod(2).table.copy()
    table[1, 0, 0] = -2
    with pytest.raises(ValueError):
        GammaSemigroup("S", ("0", "1"), ("g",), table)


def test_validate_table_accepts_complete_z2():
    entries = [("0", "g", "0", "0"), ("0", "g", "1", "1"),
               ("1", "g", "0", "1"), ("1", "g", "1", "0")]
    s = validate_table("Z2", ["0", "1"], ["g"], entries)
    assert table_dict(s) == table_dict(zmod(2))


def test_validate_table_missing_entry():
    entries = [("0", "g", "0", "0"), ("0", "g", "1", "1"), ("1", "g", "0", "1")]
    with pytest.raises(MissingEntry) as exc:
        validate_table("Z2", ["0", "1"], ["g"], entries)
    assert (exc.value.a, exc.value.gamma, exc.value.b) == ("1", "g", "1")


def test_validate_table_conflicting_entry():
    entries = [("0", "g", "0", "0"), ("0", "g", "0", "1"),
               ("0", "g", "1", "1"), ("1", "g", "0", "1"), ("1", "g", "1", "0")]
    with pytest.raises(DuplicateEntry):
        validate_table("Z2", ["0", "1"], ["g"], entries)
    # a repeated entry with the same result is harmless
    entries = [("0", "g", "0", "0")] * 3 + [("0", "g", "1", "1"),
               ("1", "g", "0", "1"), ("1", "g", "1", "0")]
    validate_table("Z2", ["0", "1"], ["g"], entries)


@pytest.mark.parametrize("s", small_fixture_tables(), ids=lambda s: s.name)
def test_fixture_tables_associative(s):
    assert check_associativity(s) is None
    assert brute_assoc_witness(s.elements, s.gammas, table_dict(s)) is None


def test_constant_table_is_associative():
    # every product is b, so both sides of the law are b
    assert check_associativity(k2()) is None


def test_witness_matches_reference_scan_on_corruptions():
    # flip single cells of Z2x2 and require exact agreement with the
    # reference scan, including the witness tuple itself
    base = zmod(2, gammas=2)
    rng = np.random.default_rng(7)
    disagreements = 0
    for _ in range(50):
        t = base.table.copy()
        i, j, kk = rng.integers(0, [2, 2, 2])
        t[i, j, kk] ^= 1
        s = GammaSemigroup("C", base.elements, base.gammas, t)
        w = check_associativity(s)
        ref = brute_assoc_witness(s.elements, s.gammas, table_dict(s))
        if (w is None) != (ref is None):
            disagreements += 1
        elif w is not None and tuple(w) != ref:
            disagreements += 1
    assert disagreements == 0


@given(st.integers(0, 3**18 - 1))
@settings(max_examples=200, deadline=None)
def test_associativity_agrees_with_reference_on_random_tables(seed):
    cells = []
    for _ in range(18):
        seed, r = divmod(seed, 3)
        cells.append(r)
    t = np.array(cells, dtype=np.int64).reshape(3, 2, 3)
    s = GammaSemigroup("R", ("a", "b", "c"), ("g", "h"), t)
    w = check_associativity(s)
    ref = brute_assoc_witness(s.elements, s.gammas, table_dict(s))
    assert (tuple(w) if w is not None else None) == ref


@pytest.mark.parametrize("row, gamma, col, value", [(47, 1, 5, 3), (0, 0, 9, 20),
                                                     (40, 0, 40, 2)])
def test_associativity_witness_across_blocks(row, gamma, col, value):
    # a table of several scan blocks with one perturbed entry: the witness
    # must be the reference scan's, whichever block it falls in
    base = left_zero([f"x{i}" for i in range(48)], ["g", "h"], name="L48")
    assert base.n * (base.g * base.n) ** 2 > core._ASSOC_BLOCK_CELLS   # two blocks
    t = base.table.copy()
    t[row, gamma, col] = value
    s = GammaSemigroup("P", base.elements, base.gammas, t)
    w = check_associativity(s)
    assert w is not None and w.a == f"x{row}"
    assert tuple(w) == brute_assoc_witness(s.elements, s.gammas, table_dict(s))


def _count_scans(monkeypatch):
    scanned = collections.Counter()
    scan = core._scan_associativity
    monkeypatch.setattr(core, "_scan_associativity",
                        lambda s: scanned.update([id(s)]) or scan(s))
    return scanned


def test_associativity_is_scanned_once_per_semigroup(monkeypatch):
    scanned = _count_scans(monkeypatch)
    a = make_two_copies()
    s = a.parts[0]
    for _ in range(2):
        assert check_associativity(s) is None
        classify(s)
        generate_congruence(s, [("a0", "a1")])
        assert necessary_condition(a).status == "satisfied"
    assert scanned == {id(t): 1 for t in (a.core, *a.parts)}


def test_non_associative_verdict_is_kept(monkeypatch):
    scanned = _count_scans(monkeypatch)
    u = trivial("u")
    s = GammaSemigroup("B", ("e0", "e1"), ("g",),
                       np.array([0, 1, 0, 0], dtype=np.int64).reshape(2, 1, 2))
    f1 = GammaHomomorphism("f1", u, s, {"u": "e0"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, trivial("c", name="S2"), {"u": "c"}, {"g": "g"})
    a = GammaAmalgam("bad", u, (s, f2.target), (f1, f2), Mode.SAME_GAMMA)
    w = check_associativity(s)
    assert tuple(w) == brute_assoc_witness(s.elements, s.gammas, table_dict(s))
    for _ in range(3):
        assert check_associativity(s) == w
        for call in (lambda: classify(s),
                     lambda: generate_congruence(s, [("e0", "e1")]),
                     lambda: necessary_condition(a)):
            with pytest.raises(NotAssociative) as exc:
                call()
            assert exc.value.witness == w
    assert scanned[id(s)] == 1


def test_non_homomorphism_raises_its_witness():
    z2 = zmod(2)
    f = GammaHomomorphism("swap", z2, z2, {"0": "1", "1": "0"}, {"g": "g"})
    w = verify_homomorphism(f)
    assert w is not None
    fp = FreeProduct([z2])
    for call in (lambda: first_isomorphism_check(f),
                 lambda: kernel_congruence(f),
                 lambda: is_monomorphism(f),
                 lambda: fp.fold(fp.parse_word("1"), z2, [f])):
        with pytest.raises(NotAHomomorphism) as exc:
            call()
        assert exc.value.name == f.name and exc.value.witness == w


def test_isomorphism_check_verifies_only_the_map(monkeypatch):
    # the induced map holds its verdicts by construction, so the one check
    # is kernel_congruence's, on f; conftest.check_first_isomorphism checks
    # the induced map itself
    calls = []
    original = core.verify_homomorphism

    def spy(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(core, "verify_homomorphism", spy)
    monkeypatch.setattr(congruences, "verify_homomorphism", spy, raising=False)
    z4, z2 = zmod(4), zmod(2)
    f = GammaHomomorphism("red", z4, z2,
                          {"0": "0", "1": "1", "2": "0", "3": "1"}, {"g": "g"})
    report = first_isomorphism_check(f)
    assert report.all_pass
    assert len(calls) == 1 and calls[0] is f
    assert report.mediator == {"0": "0", "1": "1"}


def test_subsemigroup_membership():
    z4 = zmod(4)
    assert is_subsemigroup(z4, ["0", "2"])
    assert not is_subsemigroup(z4, ["0", "1"])   # 1 g 1 = 2
    assert is_subsemigroup(z4, z4.elements)
    with pytest.raises(UnknownIdentifier):
        is_subsemigroup(z4, ["0", "9"])


def test_homomorphism_reduction_z4_to_z2():
    z4, z2 = zmod(4), zmod(2)
    f = GammaHomomorphism("red", z4, z2,
                          {"0": "0", "1": "1", "2": "0", "3": "1"}, {"g": "g"})
    assert verify_homomorphism(f) is None
    assert brute_hom_witness(f) is None
    assert not is_monomorphism(f)


def test_homomorphism_swap_witness():
    z2 = zmod(2)
    f = GammaHomomorphism("swap", z2, z2, {"0": "1", "1": "0"}, {"g": "g"})
    w = verify_homomorphism(f)
    assert w == HomWitness("0", "g", "0")   # f(0g0)=1 but 1g1=0
    assert w == brute_hom_witness(f)
    with pytest.raises(NotAHomomorphism):
        is_monomorphism(f)


def test_monomorphism_inclusion():
    u = trivial("u")
    f = GammaHomomorphism("inc", u, zmod(2), {"u": "0"}, {"g": "g"})
    assert verify_homomorphism(f) is None
    assert is_monomorphism(f)


def test_homomorphism_totality_enforced():
    z2 = zmod(2)
    with pytest.raises(IncompleteMap):
        GammaHomomorphism("f", z2, z2, {"0": "0"}, {"g": "g"})
    with pytest.raises(UnknownIdentifier):
        GammaHomomorphism("f", z2, z2, {"0": "0", "1": "5"}, {"g": "g"})


def test_identity_and_composition():
    z4, z2 = zmod(4), zmod(2)
    i4 = identity_homomorphism(z4)
    assert verify_homomorphism(i4) is None and is_monomorphism(i4)
    f = GammaHomomorphism("red", z4, z2,
                          {"0": "0", "1": "1", "2": "0", "3": "1"}, {"g": "g"})
    h = GammaHomomorphism("col", z2, trivial("t"), {"0": "t", "1": "t"}, {"g": "g"})
    hf = compose(h, f)
    assert verify_homomorphism(hf) is None
    assert hf.carrier_map == {"0": "t", "1": "t", "2": "t", "3": "t"}


def test_compose_requires_matching_middle():
    z4, z2 = zmod(4), zmod(2)
    f = GammaHomomorphism("red", z4, z2,
                          {"0": "0", "1": "1", "2": "0", "3": "1"}, {"g": "g"})
    with pytest.raises(ValueError):
        compose(f, f)


def test_left_identities():
    assert left_identities(zmod(2)) == ("0",)
    assert left_identities(zmod(2, gammas=2)) == ()
    assert left_identities(left_zero(["x", "y"])) == ()
    # every element of a right-zero table... x g y = y, so all are left ids
    from gsg.families import right_zero
    assert left_identities(right_zero(["x", "y"])) == ("x", "y")


def test_preserves_left_identity():
    z2 = zmod(2)
    assert preserves_left_identity(identity_homomorphism(z2))
    f2 = GammaHomomorphism("c", z2, k2(), {"0": "b", "1": "b"}, {"g": "g"})
    # K2 has no left identity at all, so the image of 0 cannot be one
    assert not preserves_left_identity(f2)


def test_star_import_binds_every_public_name_and_no_module():
    # gsg.__all__ names what the package exports; the submodules that its
    # own imports bind are not among them
    namespace: dict = {}
    exec("from gsg import *", namespace)
    del namespace["__builtins__"]
    assert [n for n, v in namespace.items() if isinstance(v, types.ModuleType)] == []
    assert namespace.keys() == set(gsg.__all__)
    assert all(namespace[name] is getattr(gsg, name) for name in gsg.__all__)
