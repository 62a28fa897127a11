"""Command line front door.

Exit codes: 0 every check passed, 1 a check failed (a certificate is
printed), 2 the input could not be read, parsed, or validated, 3 a bounded
search ended without a verdict.  Output is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .amalgams import (
    DEFAULT_BOUND,
    DEFAULT_BUDGET,
    Step,
    check_natural_embedding,
    necessary_condition,
    relation_generators,
)
from .congruences import first_isomorphism_check, generate_congruence, quotient
from .core import (
    check_associativity,
    classify,
    injective,
    verify_homomorphism,
)
from .errors import GsgError, NotAHomomorphism, ParseError
from .textio import Workspace, parse, serialize
from .words import FreeProduct, Mode


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gsg", description="compute with finite gamma-semigroup workspaces")
    sub = p.add_subparsers(dest="command", required=True)

    def with_file(name: str, help: str) -> argparse.ArgumentParser:
        q = sub.add_parser(name, help=help)
        q.add_argument("file", help="workspace file")
        return q

    with_file("validate", "totality, associativity, hom and amalgam checks")

    q = with_file("classify", "regularity classification of one semigroup")
    q.add_argument("--semigroup", required=True)

    q = with_file("hom-check", "compatibility and monomorphism flags of one hom")
    q.add_argument("--hom", required=True)

    q = with_file("quotient", "quotient by the congruence the given pairs generate")
    q.add_argument("--semigroup", required=True)
    q.add_argument("--pairs", required=True,
                   help="comma-separated seed pairs, e.g. '0~2,1~3'")

    q = with_file("word-mul", "multiply two words in the free product of the file")
    q.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.SAME_GAMMA.value)
    q.add_argument("--gamma", required=True)
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)

    q = with_file("amalgam-check", "necessary condition and embedding probe")
    q.add_argument("--amalgam", required=True)
    q.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    q.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    q.add_argument("--identify-elements", action="store_true",
                   help="also identify the two images of every core element")

    q = with_file("iso-check", "first isomorphism assertions for one hom")
    q.add_argument("--hom", required=True)
    return p


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _chain_lines(chain: Sequence[Step], indent: str = "    ") -> list[str]:
    out = []
    for n, step in enumerate(chain, start=1):
        d = step.data
        if step.kind == "swap" or step.kind == "gswap":
            body = f"{d[0]} -> {d[1]}"
        elif step.kind == "merge":
            body = f"{d[0]} {d[1]} {d[2]} -> {d[3]}"
        else:
            body = f"{d[0]} -> {d[1]} {d[2]} {d[3]}"
        out.append(f"{indent}{n}. {step.kind} @{step.pos}: {body}")
    return out


def _cmd_validate(ws: Workspace) -> int:
    ok = True
    for s in ws.semigroups:
        w = check_associativity(s)
        if w is None:
            print(f"semigroup {s.name}: total, associative")
        else:
            ok = False
            a, g, b, m, c = w
            lhs = s.mul(s.mul(a, g, b), m, c)
            rhs = s.mul(a, g, s.mul(b, m, c))
            print(f"semigroup {s.name}: associativity fails at ({a} {g} {b} {m} {c}): "
                  f"({a} {g} {b}) {m} {c} = {lhs} but {a} {g} ({b} {m} {c}) = {rhs}")
    for f in ws.homs:
        w = verify_homomorphism(f)
        if w is None:
            print(f"hom {f.name}: {f.source.name} -> {f.target.name}: "
                  f"homomorphism, monomorphism={_yesno(all(injective(f)))}")
        else:
            ok = False
            a, g, b = w
            print(f"hom {f.name}: not a homomorphism, witness ({a} {g} {b}): "
                  f"image of product is {f.carrier_map[f.source.mul(a, g, b)]}, "
                  f"product of images is "
                  f"{f.target.mul(f.carrier_map[a], f.gamma_map[g], f.carrier_map[b])}")
    for a in ws.amalgams:
        print(f"amalgam {a.name}: valid (mode {a.mode.value})")
    print("validate: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_classify(ws: Workspace, name: str) -> int:
    s = ws.semigroup(name)
    report = classify(s)
    print(f"semigroup {s.name}: {s.n} element(s), {s.g} gamma(s)")
    for e in report.per_element:
        inv = " ".join(f"({b},{g})" for b, g in e.inverses) or "-"
        reg = f"({e.alpha_regular[0]},{e.alpha_regular[1]})" if e.alpha_regular else "-"
        com = (f"({e.completely_regular[0]},{e.completely_regular[1]})"
               if e.completely_regular else "-")
        print(f"element {e.element}: regular-witness={reg} "
              f"commuting-witness={com} inverses={inv}")
    print(f"flags: alpha-regular={_yesno(report.is_alpha_regular)} "
          f"gamma-inverse={_yesno(report.is_gamma_inverse)} "
          f"completely-alpha-regular={_yesno(report.is_completely_alpha_regular)}")
    if report.is_completely_alpha_regular:
        print("classify: PASS")
        return 0
    for e in report.per_element:
        if e.completely_regular is None:
            what = "alpha-regular" if e.alpha_regular is None else "commuting"
            print(f"certificate: element {e.element} has no {what} witness")
            break
    print("classify: FAIL")
    return 1


def _cmd_hom_check(ws: Workspace, name: str) -> int:
    f = ws.hom(name)
    print(f"hom {f.name}: {f.source.name} -> {f.target.name}")
    w = verify_homomorphism(f)
    if w is not None:
        a, g, b = w
        print(f"compatibility: fails at ({a} {g} {b})")
        print("hom-check: FAIL")
        return 1
    carrier_inj, gamma_inj = injective(f)
    print("compatibility: ok")
    print(f"injective-carrier: {_yesno(carrier_inj)}")
    print(f"injective-gamma: {_yesno(gamma_inj)}")
    print(f"monomorphism: {_yesno(carrier_inj and gamma_inj)}")
    print("hom-check: PASS")
    return 0


def _cmd_quotient(ws: Workspace, name: str, pairs_arg: str) -> int:
    s = ws.semigroup(name)
    pairs = []
    for chunk in pairs_arg.split(","):
        halves = chunk.split("~")
        if len(halves) != 2 or not halves[0].strip() or not halves[1].strip():
            raise GsgError(f"bad pair {chunk!r}; expected 'a~b'")
        pairs.append((halves[0].strip(), halves[1].strip()))
    rho = generate_congruence(s, pairs)
    q, proj = quotient(s, rho)
    for block in rho.classes():
        print(f"# class {proj.carrier_map[block[0]]}: {' '.join(block)}")
    print(serialize(Workspace.of(semigroups=[q])), end="")
    return 0


def _cmd_word_mul(ws: Workspace, mode: str, gamma: str, left: str, right: str) -> int:
    fp = FreeProduct(ws.semigroups, Mode(mode))
    a = fp.parse_word(left)
    b = fp.parse_word(right)
    print(fp.gamma_multiply(a, gamma, b))
    return 0


def _cmd_amalgam_check(ws: Workspace, name: str, bound: int, budget: int,
                       identify: bool) -> int:
    if bound < 1 or budget < 1:
        raise GsgError(f"--bound and --budget must be positive integers, "
                       f"got {bound} and {budget}")
    a = ws.amalgam(name)
    print(f"amalgam {a.name}: core {a.core.name}, parts {a.parts[0].name} "
          f"{a.parts[1].name}, mode {a.mode.value}")
    nc = necessary_condition(a)
    print(f"necessary-condition: {nc.status}"
          + (f" (not completely alpha-regular: {', '.join(nc.failing_parts)})"
             if nc.failing_parts else ""))
    if nc.status == "not-embeddable":
        print(f"certificate: core element {nc.witness} has no witness pair "
              f"although both parts are completely alpha-regular")
        print("amalgam-check: FAIL")
        return 1
    rel = relation_generators(a, identify)
    print(f"relations: {len(rel.element_pairs)} element pair(s)"
          + (f", {len(rel.gamma_pairs)} gamma pair(s)" if rel.gamma_pairs else ""))
    for e1, e2 in rel.element_pairs:
        print(f"  {e1} ~ {e2}")
    for h1, h2 in rel.gamma_pairs:
        print(f"  gamma {h1} ~ {h2}")
    report = check_natural_embedding(a, bound, budget, identify)
    for p, s in enumerate(a.parts):
        if report.no_collision_within_bound[p]:
            print(f"injectivity {s.name}: no collisions within bound {bound}")
        elif all(c.part != p + 1 for c in report.collisions):
            print(f"injectivity {s.name}: budget {budget} ran out before bound {bound}")
    for c in report.collisions:
        print(f"collision in {a.parts[c.part - 1].name}: {c.a} = {c.b} proven by:")
        for line in _chain_lines(c.chain):
            print(line)
    if report.cross_pairs:
        print(f"intersection: {len(report.cross_pairs)} cross pair(s) proven equal")
        for p in report.cross_pairs:
            status = (f"resolved by core element {p.resolved_by}"
                      if p.resolved_by else f"unresolved within bound {bound}")
            print(f"  {p.s1} = {p.s2}: {status}")
    else:
        print("intersection: no cross pairs proven equal")
    print(f"verdict: {report.verdict}")
    if report.verdict == "violation-found":
        print("amalgam-check: FAIL")
        return 1
    if report.verdict == "inconclusive" or report.unresolved:
        print("amalgam-check: INCONCLUSIVE")
        return 3
    print("amalgam-check: PASS")
    return 0


def _cmd_iso_check(ws: Workspace, name: str) -> int:
    f = ws.hom(name)
    try:
        report = first_isomorphism_check(f)
    except NotAHomomorphism as e:
        a, g, b = e.witness
        print(f"hom {f.name}: not a homomorphism, witness ({a} {g} {b})")
        print("iso-check: FAIL")
        return 1
    print(f"hom {f.name}: {f.source.name} -> {f.target.name}")
    print(f"well-defined: {_yesno(report.well_defined)}")
    print(f"homomorphism-onto-image: {_yesno(report.is_homomorphism)}")
    print(f"injective: {_yesno(report.injective)}")
    print(f"factors-original-map: {_yesno(report.commutes)}")
    print(f"kernel-classes: {report.quotient_semigroup.n} "
          f"image-size: {len(report.image_elements)}")
    print("iso-check: " + ("PASS" if report.all_pass else "FAIL"))
    return 0 if report.all_pass else 1


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    try:
        ws = parse(text)
        if args.command == "validate":
            return _cmd_validate(ws)
        if args.command == "classify":
            return _cmd_classify(ws, args.semigroup)
        if args.command == "hom-check":
            return _cmd_hom_check(ws, args.hom)
        if args.command == "quotient":
            return _cmd_quotient(ws, args.semigroup, args.pairs)
        if args.command == "word-mul":
            return _cmd_word_mul(ws, args.mode, args.gamma, args.left, args.right)
        if args.command == "amalgam-check":
            return _cmd_amalgam_check(ws, args.amalgam, args.bound, args.budget,
                                      args.identify_elements)
        return _cmd_iso_check(ws, args.hom)
    except ParseError as e:
        print(f"{args.file}:{e}", file=sys.stderr)
        return 2
    except GsgError as e:
        print(str(e), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
