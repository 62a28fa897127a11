"""Command line behavior: exact reports, exit codes, determinism."""

import argparse
import inspect
import os
import subprocess
import sys

import pytest

import gsg.amalgams
import gsg.cli
import gsg.textio
from conftest import DATA
from gsg import check_natural_embedding, parse
from gsg.cli import run

TWO_COPIES = str(DATA / "amalgam_two_copies.gsg")
DISJOINT = str(DATA / "amalgam_disjoint.gsg")
Z2 = str(DATA / "z2.gsg")
Z4 = str(DATA / "z4.gsg")
K2 = str(DATA / "k2.gsg")
HOM = str(DATA / "hom_z4_to_z2.gsg")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(capsys):
    code, out, err = invoke(capsys, "validate", TWO_COPIES)
    assert code == 0 and err == ""
    assert out == """\
semigroup U: total, associative
semigroup S1: total, associative
semigroup S2: total, associative
hom f1: U -> S1: homomorphism, monomorphism=yes
hom f2: U -> S2: homomorphism, monomorphism=yes
amalgam two_copies: valid (mode same-gamma)
validate: PASS
"""


def test_validate_reports_associativity_failure(tmp_path, capsys):
    p = tmp_path / "bad.gsg"
    p.write_text("semigroup B\nelements e0 e1\ngammas g\n"
                 "op e0 g e0 = e0\nop e0 g e1 = e1\n"
                 "op e1 g e0 = e0\nop e1 g e1 = e0\nend\n")
    code, out, _ = invoke(capsys, "validate", str(p))
    assert code == 1
    assert ("semigroup B: associativity fails at (e1 g e0 g e1): "
            "(e1 g e0) g e1 = e1 but e1 g (e0 g e1) = e0") in out
    assert out.endswith("validate: FAIL\n")


def test_validate_reports_hom_failure(tmp_path, capsys):
    p = tmp_path / "badhom.gsg"
    p.write_text((DATA / "z2.gsg").read_text()
                 + "\nhom f : Z2 -> Z2\nmap 0 -> 1\nmap 1 -> 0\ngmap g -> g\nend\n")
    code, out, _ = invoke(capsys, "validate", str(p))
    assert code == 1
    assert ("hom f: not a homomorphism, witness (0 g 0): "
            "image of product is 1, product of images is 0") in out


def test_classify_pass(capsys):
    code, out, _ = invoke(capsys, "classify", Z2, "--semigroup", "Z2")
    assert code == 0
    assert out == """\
semigroup Z2: 2 element(s), 1 gamma(s)
element 0: regular-witness=(0,g) commuting-witness=(0,g) inverses=(0,g)
element 1: regular-witness=(1,g) commuting-witness=(1,g) inverses=(1,g)
flags: alpha-regular=yes gamma-inverse=yes completely-alpha-regular=yes
classify: PASS
"""


def test_classify_fail_with_certificate(capsys):
    code, out, _ = invoke(capsys, "classify", K2, "--semigroup", "K2")
    assert code == 1
    assert "element a: regular-witness=- commuting-witness=- inverses=-" in out
    assert "certificate: element a has no alpha-regular witness" in out
    assert out.endswith("classify: FAIL\n")


def test_classify_lists_every_inverse(capsys):
    code, out, _ = invoke(capsys, "classify", str(DATA / "leftzero3.gsg"),
                          "--semigroup", "LZ3")
    assert code == 0
    assert "element y: regular-witness=(x,g) commuting-witness=(y,g) " \
           "inverses=(x,g) (y,g) (z,g)" in out
    assert "gamma-inverse=no" in out


def test_hom_check(capsys):
    code, out, _ = invoke(capsys, "hom-check", HOM, "--hom", "dbl")
    assert code == 0
    assert out == """\
hom dbl: Z4 -> Z2
compatibility: ok
injective-carrier: no
injective-gamma: yes
monomorphism: no
hom-check: PASS
"""


def test_iso_check(capsys):
    code, out, _ = invoke(capsys, "iso-check", HOM, "--hom", "dbl")
    assert code == 0
    assert out == """\
hom dbl: Z4 -> Z2
well-defined: yes
homomorphism-onto-image: yes
injective: yes
factors-original-map: yes
kernel-classes: 2 image-size: 2
iso-check: PASS
"""


# what hom-check and iso-check print for a hom that is not a homomorphism
NOT_A_HOMOMORPHISM = {
    "hom-check": "hom f: Z2 -> Z2\ncompatibility: fails at (0 g 0)\nhom-check: FAIL\n",
    "iso-check": "hom f: not a homomorphism, witness (0 g 0)\niso-check: FAIL\n",
}


@pytest.mark.parametrize("command", NOT_A_HOMOMORPHISM)
def test_hom_that_is_not_a_homomorphism_fails(tmp_path, capsys, command):
    """Z2 -> Z2 with 0, 1 -> 1 is well formed, but 0 g 0 = 0 maps to 1
    while 1 g 1 = 0."""
    p = tmp_path / "nothom.gsg"
    p.write_text((DATA / "z2.gsg").read_text()
                 + "\nhom f : Z2 -> Z2\nmap 0 -> 1\nmap 1 -> 1\ngmap g -> g\nend\n")
    code, out, err = invoke(capsys, command, str(p), "--hom", "f")
    assert (code, out, err) == (1, NOT_A_HOMOMORPHISM[command], "")


def test_quotient_emits_parseable_block(capsys):
    code, out, _ = invoke(capsys, "quotient", Z4, "--semigroup", "Z4",
                          "--pairs", "0~2")
    assert code == 0
    assert out.startswith("# class 0: 0 2\n# class 1: 1 3\n")
    body = "\n".join(ln for ln in out.splitlines() if not ln.startswith("#"))
    q = parse(body).semigroup("Z4_q")
    assert q.elements == ("0", "1")
    assert q.mul("1", "g", "1") == "0"


def test_quotient_rejects_bad_pair_syntax(capsys):
    code, out, err = invoke(capsys, "quotient", Z4, "--semigroup", "Z4",
                            "--pairs", "0~")
    assert code == 2
    assert "bad pair" in err


def test_word_mul_keeps_reduced_junction(capsys):
    code, out, _ = invoke(capsys, "word-mul", TWO_COPIES, "--mode", "same-gamma",
                          "--gamma", "g", "--left", "a1", "--right", "b1 g a0")
    assert code == 0
    assert out == "a1 g b1 g a0\n"


def test_word_mul_merges_same_member(capsys):
    code, out, _ = invoke(capsys, "word-mul", TWO_COPIES, "--mode", "same-gamma",
                          "--gamma", "g", "--left", "a1", "--right", "a1")
    assert code == 0
    assert out == "a0\n"


def test_word_mul_disjoint_mode(capsys):
    # in disjoint mode a gamma merges only inside its own member: g1 is
    # S1's, so p g1 q merges to p, while g2 is S2's and separates p from r
    for gamma, right, expected in (("g1", "q", "p\n"), ("g2", "r", "p g2 r\n")):
        code, out, err = invoke(capsys, "word-mul", DISJOINT, "--mode", "disjoint",
                                "--left", "p", "--gamma", gamma, "--right", right)
        assert (code, out, err) == (0, expected, "")


def test_word_mul_unknown_letter(capsys):
    code, out, err = invoke(capsys, "word-mul", Z2, "--gamma", "g",
                            "--left", "zz", "--right", "0")
    assert code == 2
    assert "zz" in err


def test_amalgam_check_two_copies(capsys):
    code, out, _ = invoke(capsys, "amalgam-check", TWO_COPIES,
                          "--amalgam", "two_copies")
    assert code == 0
    assert out == """\
amalgam two_copies: core U, parts S1 S2, mode same-gamma
necessary-condition: satisfied
relations: 2 element pair(s)
  a0 ~ b0
  a1 ~ b1
injectivity S1: no collisions within bound 6
injectivity S2: no collisions within bound 6
intersection: 2 cross pair(s) proven equal
  a0 = b0: resolved by core element u0
  a1 = b1: resolved by core element u1
verdict: consistent-within-bound
amalgam-check: PASS
"""


def test_amalgam_check_validates_its_amalgam_once(monkeypatch, capsys):
    # parse validates the amalgam at its 'end'; the necessary condition,
    # the relations and the search read that verdict
    runs = []
    validate = gsg.amalgams.validate_amalgam

    def spy(a):
        runs.append(a.name)
        return validate(a)

    monkeypatch.setattr(gsg.amalgams, "validate_amalgam", spy)
    monkeypatch.setattr(gsg.textio, "validate_amalgam", spy)
    code, _, _ = invoke(capsys, "amalgam-check", TWO_COPIES,
                        "--amalgam", "two_copies", "--bound", "3")
    assert code == 0 and runs == ["two_copies"]


def test_amalgam_check_budget_stop_is_inconclusive(capsys):
    # a budget of one state settles no class, so the run may claim neither
    # absence of collisions nor PASS; a0 = b0 and a1 = b1 are still proven,
    # each by one swap, because both sides of the probe have one image in
    # the swap quotient
    code, out, _ = invoke(capsys, "amalgam-check", TWO_COPIES,
                          "--amalgam", "two_copies", "--budget", "1")
    assert code == 3
    assert out == """\
amalgam two_copies: core U, parts S1 S2, mode same-gamma
necessary-condition: satisfied
relations: 2 element pair(s)
  a0 ~ b0
  a1 ~ b1
injectivity S1: budget 1 ran out before bound 6
injectivity S2: budget 1 ran out before bound 6
intersection: 2 cross pair(s) proven equal
  a0 = b0: resolved by core element u0
  a1 = b1: resolved by core element u1
verdict: inconclusive
amalgam-check: INCONCLUSIVE
"""


def test_amalgam_check_probes_pairs_a_small_budget_leaves_open(capsys):
    # the class of u1 at bound 6 holds 6 quotient states, more than 5, so its
    # exploration stops on budget; a targeted search proves u1 = u2 in one swap
    code, out, _ = invoke(capsys, "amalgam-check", str(DATA / "amalgam_trivial.gsg"),
                          "--amalgam", "trivial", "--budget", "5")
    assert code == 0
    assert out == """\
amalgam trivial: core U, parts S1 S2, mode same-gamma
necessary-condition: satisfied
relations: 1 element pair(s)
  u1 ~ u2
injectivity S1: no collisions within bound 6
injectivity S2: no collisions within bound 6
intersection: 1 cross pair(s) proven equal
  u1 = u2: resolved by core element u
verdict: consistent-within-bound
amalgam-check: PASS
"""


def test_amalgam_check_unresolved_cross_pair_is_inconclusive(tmp_path, capsys):
    # two copies of the Brandt semigroup B2 = {e11, e12, e21, e22, 0}
    # (eij ekl = eil when j = k, else 0) over the core without e21: every
    # pair is decided and no collision is found, but a21 = b21 is proven
    # with no core element to account for it, so the check is inconclusive
    core, b2 = ["11", "12", "22", "0"], ["11", "12", "21", "22", "0"]

    def mul(x, y):
        return x[0] + y[1] if "0" not in (x, y) and x[1] == y[0] else "0"

    def table(name, p, elements):
        ops = "".join(f"op {p}{x} g {p}{y} = {p}{mul(x, y)}\n" for x in elements for y in elements)
        return f"semigroup {name}\nelements {' '.join(p + e for e in elements)}\ngammas g\n{ops}end\n"

    def embed(name, part, p):
        maps = "".join(f"map u{e} -> {p}{e}\n" for e in core)
        return f"hom {name} : U -> {part}\n{maps}gmap g -> g\nend\n"

    path = tmp_path / "brandt.gsg"
    path.write_text(table("U", "u", core) + table("S1", "a", b2) + table("S2", "b", b2)
                    + embed("f1", "S1", "a") + embed("f2", "S2", "b")
                    + "amalgam brandt\ncore U\nparts S1 S2\nmaps f1 f2\nmode same-gamma\nend\n")
    code, out, err = invoke(capsys, "amalgam-check", str(path), "--amalgam", "brandt", "--bound", "3")
    assert (code, err) == (3, "")
    assert out == """\
amalgam brandt: core U, parts S1 S2, mode same-gamma
necessary-condition: not-applicable (not completely alpha-regular: S1, S2)
relations: 4 element pair(s)
  a11 ~ b11
  a12 ~ b12
  a22 ~ b22
  a0 ~ b0
injectivity S1: no collisions within bound 3
injectivity S2: no collisions within bound 3
intersection: 5 cross pair(s) proven equal
  a11 = b11: resolved by core element u11
  a12 = b12: resolved by core element u12
  a21 = b21: unresolved within bound 3
  a22 = b22: resolved by core element u22
  a0 = b0: resolved by core element u0
verdict: consistent-within-bound
amalgam-check: INCONCLUSIVE
"""


@pytest.mark.parametrize("flags", [("--bound", "0"), ("--budget", "0"),
                                   ("--bound", "-1"), ("--budget", "-5")])
def test_amalgam_check_rejects_nonpositive_limits(capsys, flags):
    code, out, err = invoke(capsys, "amalgam-check", TWO_COPIES,
                            "--amalgam", "two_copies", *flags)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "must be positive" in err


# the full amalgam-check report of every amalgam in tests/data at the
# default limits
GOLDEN_AMALGAM_CHECK = {
    "amalgam_core_not_regular.gsg": ("core_not_regular", 0, """\
amalgam core_not_regular: core U, parts S1 S2, mode disjoint
necessary-condition: core-not-completely-regular (core element uy has no \
witness pair)
relations: 2 element pair(s), 1 gamma pair(s)
  ax ~ bx
  ay ~ by
  gamma g1 ~ g2
injectivity S1: no collisions within bound 6
injectivity S2: no collisions within bound 6
intersection: 2 cross pair(s) proven equal
  ax = bx: resolved by core element ux
  ay = by: resolved by core element uy
verdict: consistent-within-bound
amalgam-check: PASS
"""),
    "amalgam_disjoint.gsg": ("disjoint", 0, """\
amalgam disjoint: core U, parts S1 S2, mode disjoint
necessary-condition: satisfied
relations: 1 element pair(s), 1 gamma pair(s)
  p ~ r
  gamma g1 ~ g2
injectivity S1: no collisions within bound 6
injectivity S2: no collisions within bound 6
intersection: 1 cross pair(s) proven equal
  p = r: resolved by core element u
verdict: consistent-within-bound
amalgam-check: PASS
"""),
    # the whole core is glued; S1's classes outgrow the default budget before
    # bound 6, and targeted probes prove the three collisions, as at bound 3
    "amalgam_null_collision.gsg": ("null_collision", 1, """\
amalgam null_collision: core U, parts S1 S2, mode same-gamma
necessary-condition: not-applicable (not completely alpha-regular: S1, S2)
relations: 4 element pair(s)
  p1 ~ p2
  u1 ~ u2
  v1 ~ v2
  z1 ~ z2
injectivity S2: no collisions within bound 6
collision in S1: z1 = a proven by:
    1. swap @0: z1 -> z2
    2. unmerge @0: z2 -> z2 g q
    3. swap @0: z2 -> z1
    4. unmerge @0: z1 -> x g p1
    5. swap @1: p1 -> p2
    6. merge @1: p2 g q -> u2
    7. swap @1: u2 -> u1
    8. merge @0: x g u1 -> a
collision in S1: z1 = b proven by:
    1. swap @0: z1 -> z2
    2. unmerge @0: z2 -> z2 g r
    3. swap @0: z2 -> z1
    4. unmerge @0: z1 -> x g p1
    5. swap @1: p1 -> p2
    6. merge @1: p2 g r -> v2
    7. swap @1: v2 -> v1
    8. merge @0: x g v1 -> b
collision in S1: a = b proven by:
    1. unmerge @0: a -> x g u1
    2. swap @1: u1 -> u2
    3. unmerge @1: u2 -> p2 g q
    4. swap @1: p2 -> p1
    5. merge @0: x g p1 -> z1
    6. swap @0: z1 -> z2
    7. merge @0: z2 g q -> z2
    8. unmerge @0: z2 -> z2 g r
    9. swap @0: z2 -> z1
    10. unmerge @0: z1 -> x g p1
    11. swap @1: p1 -> p2
    12. merge @1: p2 g r -> v2
    13. swap @1: v2 -> v1
    14. merge @0: x g v1 -> b
intersection: 6 cross pair(s) proven equal
  p1 = p2: resolved by core element p
  u1 = u2: resolved by core element u
  v1 = v2: resolved by core element v
  z1 = z2: resolved by core element z
  a = z2: resolved by core element z
  b = z2: resolved by core element z
verdict: violation-found
amalgam-check: FAIL
"""),
    "amalgam_leftzero.gsg": ("leftzero", 0, """\
amalgam leftzero: core U, parts S1 S2, mode same-gamma
necessary-condition: satisfied
relations: 1 element pair(s)
  a ~ c
injectivity S1: no collisions within bound 6
injectivity S2: no collisions within bound 6
intersection: 1 cross pair(s) proven equal
  a = c: resolved by core element u
verdict: consistent-within-bound
amalgam-check: PASS
"""),
    "amalgam_trivial.gsg": ("trivial", 0, """\
amalgam trivial: core U, parts S1 S2, mode same-gamma
necessary-condition: satisfied
relations: 1 element pair(s)
  u1 ~ u2
injectivity S1: no collisions within bound 6
injectivity S2: no collisions within bound 6
intersection: 1 cross pair(s) proven equal
  u1 = u2: resolved by core element u
verdict: consistent-within-bound
amalgam-check: PASS
"""),
    "amalgam_two_copies.gsg": ("two_copies", 0, """\
amalgam two_copies: core U, parts S1 S2, mode same-gamma
necessary-condition: satisfied
relations: 2 element pair(s)
  a0 ~ b0
  a1 ~ b1
injectivity S1: no collisions within bound 6
injectivity S2: no collisions within bound 6
intersection: 2 cross pair(s) proven equal
  a0 = b0: resolved by core element u0
  a1 = b1: resolved by core element u1
verdict: consistent-within-bound
amalgam-check: PASS
"""),
    "amalgam_z2_trivial.gsg": ("z2_in_trivial", 0, """\
amalgam z2_in_trivial: core U, parts Z2 S2, mode same-gamma
necessary-condition: satisfied
relations: 1 element pair(s)
  0 ~ c
injectivity Z2: no collisions within bound 6
injectivity S2: no collisions within bound 6
intersection: 1 cross pair(s) proven equal
  0 = c: resolved by core element u
verdict: consistent-within-bound
amalgam-check: PASS
"""),
}


def test_golden_outputs_cover_every_data_amalgam():
    assert sorted(GOLDEN_AMALGAM_CHECK) == sorted(
        p.name for p in DATA.glob("*.gsg") if "\namalgam " in p.read_text())


@pytest.mark.parametrize("path", sorted(GOLDEN_AMALGAM_CHECK))
def test_amalgam_check_golden_output(capsys, path):
    name, expected_code, expected_out = GOLDEN_AMALGAM_CHECK[path]
    code, out, err = invoke(capsys, "amalgam-check", str(DATA / path),
                            "--amalgam", name)
    assert (code, out, err) == (expected_code, expected_out, "")


def test_amalgam_check_exit_status_agrees_with_the_report(capsys):
    # every data amalgam at bounds 1-6 and three budgets: exit 1 on a
    # collision, else 3 on an undecided pair or an unresolved cross pair,
    # else 0; "budget ran out" for a part with undecided pairs but no collision
    codes = set()
    for path in sorted(GOLDEN_AMALGAM_CHECK):
        a = parse((DATA / path).read_text()).amalgam(GOLDEN_AMALGAM_CHECK[path][0])
        for bound in range(1, 7):
            for budget in (10, 1_000, 200_000):
                r = check_natural_embedding(a, bound, budget)
                code, out, err = invoke(capsys, "amalgam-check", str(DATA / path), "--amalgam",
                                        a.name, "--bound", str(bound), "--budget", str(budget))
                case = (path, bound, budget)
                assert err == "", case
                assert (code == 1) == bool(r.collisions), case
                assert (code == 3) == (not r.collisions and (
                    r.verdict == "inconclusive" or bool(r.unresolved))), case
                assert code in (0, 1, 3), case
                for p, s in enumerate(a.parts):
                    ran_out = f"injectivity {s.name}: budget {budget} ran out before bound {bound}\n"
                    assert (ran_out in out) == (not r.no_collision_within_bound[p] and all(
                        c.part != p + 1 for c in r.collisions)), (case, p)
                codes.add(code)
    assert codes == {0, 1, 3}


def test_amalgam_check_trivial_at_small_bound(capsys):
    code, out, _ = invoke(capsys, "amalgam-check",
                          str(DATA / "amalgam_trivial.gsg"),
                          "--amalgam", "trivial", "--bound", "4")
    assert code == 0
    assert "  u1 = u2: resolved by core element u" in out
    assert "verdict: consistent-within-bound" in out


def test_amalgam_check_disjoint_lists_gamma_pairs(capsys):
    code, out, _ = invoke(capsys, "amalgam-check",
                          str(DATA / "amalgam_disjoint.gsg"),
                          "--amalgam", "disjoint", "--bound", "4")
    assert code == 0
    assert "relations: 1 element pair(s), 1 gamma pair(s)" in out
    assert "  gamma g1 ~ g2" in out


def test_amalgam_check_core_not_regular_runs_the_search(capsys):
    # the screen is information only: this amalgam embeds (see
    # test_core_not_regular_amalgam_has_injective_mediating_maps)
    code, out, _ = invoke(capsys, "amalgam-check",
                          str(DATA / "amalgam_core_not_regular.gsg"),
                          "--amalgam", "core_not_regular", "--bound", "4")
    assert code == 0
    assert out == """\
amalgam core_not_regular: core U, parts S1 S2, mode disjoint
necessary-condition: core-not-completely-regular (core element uy has no \
witness pair)
relations: 2 element pair(s), 1 gamma pair(s)
  ax ~ bx
  ay ~ by
  gamma g1 ~ g2
injectivity S1: no collisions within bound 4
injectivity S2: no collisions within bound 4
intersection: 2 cross pair(s) proven equal
  ax = bx: resolved by core element ux
  ay = by: resolved by core element uy
verdict: consistent-within-bound
amalgam-check: PASS
"""


def test_amalgam_check_proves_the_null_core_collisions(capsys):
    # a = x u = x (p q) = (x p) q = z q = z once the whole core is glued
    code, out, err = invoke(capsys, "amalgam-check",
                            str(DATA / "amalgam_null_collision.gsg"),
                            "--amalgam", "null_collision", "--bound", "3")
    assert (code, err) == (1, "")
    assert out == """\
amalgam null_collision: core U, parts S1 S2, mode same-gamma
necessary-condition: not-applicable (not completely alpha-regular: S1, S2)
relations: 4 element pair(s)
  p1 ~ p2
  u1 ~ u2
  v1 ~ v2
  z1 ~ z2
injectivity S2: no collisions within bound 3
collision in S1: z1 = a proven by:
    1. swap @0: z1 -> z2
    2. unmerge @0: z2 -> z2 g q
    3. swap @0: z2 -> z1
    4. unmerge @0: z1 -> x g p1
    5. swap @1: p1 -> p2
    6. merge @1: p2 g q -> u2
    7. swap @1: u2 -> u1
    8. merge @0: x g u1 -> a
collision in S1: z1 = b proven by:
    1. swap @0: z1 -> z2
    2. unmerge @0: z2 -> z2 g r
    3. swap @0: z2 -> z1
    4. unmerge @0: z1 -> x g p1
    5. swap @1: p1 -> p2
    6. merge @1: p2 g r -> v2
    7. swap @1: v2 -> v1
    8. merge @0: x g v1 -> b
collision in S1: a = b proven by:
    1. unmerge @0: a -> x g u1
    2. swap @1: u1 -> u2
    3. unmerge @1: u2 -> p2 g q
    4. swap @1: p2 -> p1
    5. merge @0: x g p1 -> z1
    6. swap @0: z1 -> z2
    7. merge @0: z2 g q -> z2
    8. unmerge @0: z2 -> z2 g r
    9. swap @0: z2 -> z1
    10. unmerge @0: z1 -> x g p1
    11. swap @1: p1 -> p2
    12. merge @1: p2 g r -> v2
    13. swap @1: v2 -> v1
    14. merge @0: x g v1 -> b
intersection: 6 cross pair(s) proven equal
  p1 = p2: resolved by core element p
  u1 = u2: resolved by core element u
  v1 = v2: resolved by core element v
  z1 = z2: resolved by core element z
  a = z2: resolved by core element z
  b = z2: resolved by core element z
verdict: violation-found
amalgam-check: FAIL
"""


def bad_arguments(capsys, *argv):
    """The error argparse gives for argv: exit 2 and one line, no usage."""
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.count("\n") == 1 and "usage:" not in err
    return err


def test_amalgam_check_has_no_identify_elements_flag(capsys):
    err = bad_arguments(capsys, "amalgam-check", TWO_COPIES, "--amalgam", "two_copies",
                        "--identify-elements")
    assert err == "gsg: error: unrecognized arguments: --identify-elements\n"


def test_non_integer_bound_is_a_one_line_error(capsys):
    err = bad_arguments(capsys, "amalgam-check", TWO_COPIES, "--amalgam", "two_copies",
                        "--bound", "x")
    assert err == "gsg amalgam-check: error: argument --bound: invalid int value: 'x'\n"


def test_missing_file(capsys):
    code, out, err = invoke(capsys, "validate", "/nonexistent/nope.gsg")
    assert code == 2
    assert err.startswith("cannot read /nonexistent/nope.gsg:")


def test_parse_error_carries_file_and_position(tmp_path, capsys):
    p = tmp_path / "junk.gsg"
    p.write_text("frobnicate\n")
    code, out, err = invoke(capsys, "validate", str(p))
    assert code == 2
    assert err.startswith(f"{p}:1:1: ")


def test_file_that_is_not_utf8_is_a_read_error(tmp_path, capsys):
    p = tmp_path / "latin.gsg"
    p.write_bytes(b"semigroup S\xff\n")
    code, out, err = invoke(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {p}: ") and err.count("\n") == 1
    assert "can't decode byte 0xff" in err


def test_word_mul_without_semigroups_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "empty.gsg"
    p.write_text("# no blocks\n")
    code, out, err = invoke(capsys, "word-mul", str(p), "--gamma", "g",
                            "--left", "a", "--right", "b")
    assert (code, out) == (2, "")
    assert err == "word-mul needs a workspace with at least one semigroup\n"


def test_unknown_semigroup_name(capsys):
    code, out, err = invoke(capsys, "classify", Z2, "--semigroup", "Z9")
    assert code == 2
    assert "Z9" in err


def test_missing_required_flag_exits_two(capsys):
    assert bad_arguments(capsys, "amalgam-check", TWO_COPIES) == (
        "gsg amalgam-check: error: the following arguments are required: --amalgam\n")


def test_unknown_subcommand_exits_two(capsys):
    assert bad_arguments(capsys, "frobnicate", Z2).startswith(
        "gsg: error: argument command: invalid choice: 'frobnicate'")


def test_output_is_byte_deterministic():
    # two runs under each of two string-hash seeds print the same bytes:
    # quotient states are strings, whose hashes are salted per process, and
    # no output may follow their order in a set.  null_collision at bound 3
    # proves its collisions through chains
    cases = [([TWO_COPIES, "--amalgam", "two_copies"], 0),
             ([str(DATA / "amalgam_null_collision.gsg"), "--amalgam", "null_collision",
               "--bound", "3"], 1)]
    for args, code in cases:
        runs = [subprocess.run([sys.executable, "-m", "gsg", "amalgam-check", *args],
                               capture_output=True,
                               env={**os.environ, "PYTHONHASHSEED": seed})
                for seed in ("0", "0", "1", "1")]
        assert [r.returncode for r in runs] == [code] * 4, args
        assert len({r.stdout for r in runs}) == 1, args
        assert {r.stderr for r in runs} == {b""}, args


def non_associative_workspace(tmp_path) -> str:
    """Three copies U, S1, S2 of one 2-element table that is not associative,
    renamed into each other by f1 and f2, glued as the amalgam A."""
    def table(name, p):  # x0 g x0 = x1, every other product x0: not associative
        ops = "".join(f"op {p}{x} g {p}{y} = {p}{int(x == y == 0)}\n"
                      for x in range(2) for y in range(2))
        return f"semigroup {name}\nelements {p}0 {p}1\ngammas g\n{ops}end\n"

    def rename(name, part, p):
        return (f"hom {name} : U -> {part}\nmap u0 -> {p}0\nmap u1 -> {p}1\n"
                "gmap g -> g\nend\n")

    path = tmp_path / "not_associative.gsg"
    path.write_text(table("U", "u") + table("S1", "a") + table("S2", "b")
                    + rename("f1", "S1", "a") + rename("f2", "S2", "b")
                    + "amalgam A\ncore U\nparts S1 S2\nmaps f1 f2\nmode same-gamma\nend\n")
    return str(path)


# each subcommand that reads a table of the workspace above, its flags, and
# the first associativity witness it reports
NOT_ASSOCIATIVE = {
    "classify": (["--semigroup", "S1"], "a0, g, a0, g, a1"),
    "hom-check": (["--hom", "f2"], "u0, g, u0, g, u1"),
    "iso-check": (["--hom", "f1"], "u0, g, u0, g, u1"),
    "quotient": (["--semigroup", "S2", "--pairs", "b0~b1"], "b0, g, b0, g, b1"),
    "word-mul": (["--gamma", "g", "--left", "a0", "--right", "b0"], "u0, g, u0, g, u1"),
    "amalgam-check": (["--amalgam", "A"], "u0, g, u0, g, u1"),
}


@pytest.mark.parametrize("command", NOT_ASSOCIATIVE)
def test_amalgam_check_input_error_prints_no_header(tmp_path, capsys, command):
    """A table that is not associative is an input error wherever the laws
    are used: exit 2, one line on stderr, and nothing on stdout (for
    amalgam-check, not even the amalgam's header)."""
    flags, witness = NOT_ASSOCIATIVE[command]
    code, out, err = invoke(capsys, command, non_associative_workspace(tmp_path), *flags)
    assert (code, out) == (2, "")
    assert err == f"associativity fails at ({witness})\n"


def test_validate_reports_a_table_that_is_not_associative(tmp_path, capsys):
    code, out, err = invoke(capsys, "validate", non_associative_workspace(tmp_path))
    assert (code, err) == (1, "")
    assert out.startswith("semigroup U: associativity fails at (u0 g u0 g u1)")
    assert out.endswith("amalgam A: parts not associative: S1, S2\nvalidate: FAIL\n")


def test_one_part_given_twice_is_an_input_error(tmp_path, capsys):
    """parts S1 S1 breaks the family rule, so the file does not parse."""
    path = tmp_path / "s1_twice.gsg"
    path.write_text(open(TWO_COPIES).read().replace("parts S1 S2", "parts S1 S1")
                    .replace("maps f1 f2", "maps f1 f1"))
    for argv in (["validate"], ["amalgam-check", "--amalgam", "two_copies"]):
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "declared more than once" in err


# every subcommand once, each on a fixture where it passes
EVERY_SUBCOMMAND = [
    ["validate", TWO_COPIES],
    ["classify", Z2, "--semigroup", "Z2"],
    ["hom-check", HOM, "--hom", "dbl"],
    ["quotient", Z4, "--semigroup", "Z4", "--pairs", "0~2"],
    ["word-mul", TWO_COPIES, "--gamma", "g", "--left", "a1", "--right", "b1"],
    ["amalgam-check", TWO_COPIES, "--amalgam", "two_copies", "--bound", "3"],
    ["iso-check", HOM, "--hom", "dbl"],
]

FLAGS = {
    "validate": [],
    "classify": ["--semigroup"],
    "hom-check": ["--hom"],
    "quotient": ["--semigroup", "--pairs"],
    "word-mul": ["--mode", "--gamma", "--left", "--right"],
    "amalgam-check": ["--amalgam", "--bound", "--budget"],
    "iso-check": ["--hom"],
}


def subparsers() -> dict:
    (action,) = [a for a in gsg.cli._PARSER._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_subcommand_has_a_case_and_its_flags_listed():
    assert list(subparsers()) == list(FLAGS) == [argv[0] for argv in EVERY_SUBCOMMAND]


def test_handler_parameters_are_the_subcommand_options():
    """A renamed flag fails here, not only when its subcommand runs."""
    for name, sub in subparsers().items():
        dests = [a.dest for a in sub._actions if a.dest not in ("help", "file")]
        params = list(inspect.signature(sub.get_default("handler")).parameters)
        assert params[0] == "ws", name
        assert sorted(params[1:]) == sorted(dests), name


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    def rebuild():
        raise AssertionError("run built a parser")

    monkeypatch.setattr(gsg.cli, "_build_parser", rebuild)
    for argv in EVERY_SUBCOMMAND:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "") and out, argv


def test_the_parser_keeps_no_state_between_runs(capsys):
    first = [invoke(capsys, *argv) for argv in EVERY_SUBCOMMAND]
    bad_arguments(capsys, "amalgam-check", TWO_COPIES)
    for argv, before in reversed(list(zip(EVERY_SUBCOMMAND, first))):
        assert invoke(capsys, *argv) == before, argv


@pytest.mark.parametrize("name", [None, *FLAGS])
def test_every_help_exits_zero_and_lists_its_flags(capsys, name):
    argv = ["--help"] if name is None else [name, "--help"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    if name is None:
        assert out.startswith("usage: gsg ")
        assert all(sub in out for sub in FLAGS)
    else:
        assert out.startswith(f"usage: gsg {name} ")
        assert all(flag in out for flag in ["--help", *FLAGS[name]])
