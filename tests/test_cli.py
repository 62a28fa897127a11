"""Command line behavior: exact reports, exit codes, determinism."""

import subprocess
import sys

import pytest

from conftest import DATA
from gsg.cli import run

TWO_COPIES = str(DATA / "amalgam_two_copies.gsg")
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


def test_quotient_emits_parseable_block(capsys):
    code, out, _ = invoke(capsys, "quotient", Z4, "--semigroup", "Z4",
                          "--pairs", "0~2")
    assert code == 0
    assert out.startswith("# class 0: 0 2\n# class 1: 1 3\n")
    from gsg import parse
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


def test_amalgam_check_budget_stop_is_inconclusive(capsys):
    # at the default budget this run proves a0 = b0 and a1 = b1; a budget of
    # one state proves nothing, so it may claim neither absence nor PASS
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
intersection: no cross pairs proven equal
verdict: inconclusive
amalgam-check: INCONCLUSIVE
"""


@pytest.mark.parametrize("flags", [("--bound", "0"), ("--budget", "0"),
                                   ("--bound", "-1"), ("--budget", "-5")])
def test_amalgam_check_rejects_nonpositive_limits(capsys, flags):
    code, out, err = invoke(capsys, "amalgam-check", TWO_COPIES,
                            "--amalgam", "two_copies", *flags)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "must be positive" in err


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


def test_amalgam_check_not_embeddable(capsys):
    code, out, _ = invoke(capsys, "amalgam-check",
                          str(DATA / "amalgam_core_not_regular.gsg"),
                          "--amalgam", "core_not_regular")
    assert code == 1
    assert out == """\
amalgam core_not_regular: core U, parts S1 S2, mode disjoint
necessary-condition: not-embeddable
certificate: core element uy has no witness pair although both parts are \
completely alpha-regular
amalgam-check: FAIL
"""


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


def test_unknown_semigroup_name(capsys):
    code, out, err = invoke(capsys, "classify", Z2, "--semigroup", "Z9")
    assert code == 2
    assert "Z9" in err


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["amalgam-check", TWO_COPIES])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", Z2])
    assert exc.value.code == 2


def test_output_is_byte_deterministic():
    argv = [sys.executable, "-m", "gsg", "amalgam-check", TWO_COPIES,
            "--amalgam", "two_copies"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == b""
