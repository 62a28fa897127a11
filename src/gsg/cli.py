"""Command line front door.

Exit codes: every subcommand that checks something ends with one status
line, `<command>: <status>` (`_finish`), and the status table `_EXIT` is the
one statement of the exit code of each status. quotient and word-mul print
their result and exit 0, and `run` exits 2 when the input could not be
read, parsed, or validated. Each subcommand computes everything that can
fail on its input before it prints its first line, so an input error prints
nothing on stdout. Output is deterministic byte for byte. Each subcommand is
declared once, in `_build_parser`, where its subparser names its handler;
the parser is built once per process.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

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
    _require_associative,
    check_associativity,
    classify,
    injective,
    verify_homomorphism,
)
from .errors import GsgError, NotAHomomorphism, ParseError
from .textio import Workspace, parse, serialize
from .words import FreeProduct, Mode


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments on one line, with exit code 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    """Each handler takes the workspace and its options as keywords named by dest."""
    p = _Parser(
        prog="gsg", description="compute with finite gamma-semigroup workspaces")
    sub = p.add_subparsers(dest="command", required=True)

    def with_file(name: str, handler: Callable, help: str) -> argparse.ArgumentParser:
        q = sub.add_parser(name, help=help)
        q.add_argument("file", help="workspace file")
        q.set_defaults(handler=handler)
        return q

    with_file("validate", _cmd_validate,
              "totality, associativity, hom and amalgam checks")

    q = with_file("classify", _cmd_classify, "regularity classification of one semigroup")
    q.add_argument("--semigroup", required=True)

    q = with_file("hom-check", _cmd_hom_check,
                  "compatibility and monomorphism flags of one hom")
    q.add_argument("--hom", required=True)

    q = with_file("quotient", _cmd_quotient,
                  "quotient by the congruence the given pairs generate")
    q.add_argument("--semigroup", required=True)
    q.add_argument("--pairs", required=True,
                   help="comma-separated seed pairs, e.g. '0~2,1~3'")

    q = with_file("word-mul", _cmd_word_mul,
                  "multiply two words in the free product of the file")
    q.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.SAME_GAMMA.value)
    q.add_argument("--gamma", required=True)
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)

    q = with_file("amalgam-check", _cmd_amalgam_check,
                  "necessary condition and embedding probe")
    q.add_argument("--amalgam", required=True)
    q.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                   help="longest word searched, in element letters "
                        f"(default {DEFAULT_BOUND})")
    q.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="quotient states a class walk or probe side may hold "
                        f"(default {DEFAULT_BUDGET})")

    q = with_file("iso-check", _cmd_iso_check, "first isomorphism assertions for one hom")
    q.add_argument("--hom", required=True)
    return p


# the exit code of each status: PASS every check passed, FAIL a check failed
# (a certificate is printed; for amalgam-check, a proven collision),
# INCONCLUSIVE a bounded search ended without a verdict
_EXIT = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 3}


def _finish(command: str, status: str) -> int:
    """Print the status line of command and return its exit code."""
    print(f"{command}: {status}")
    return _EXIT[status]


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _chain_lines(chain: Sequence[Step]) -> list[str]:
    out = []
    for n, step in enumerate(chain, start=1):
        d = step.data
        if step.kind == "swap" or step.kind == "gswap":
            body = f"{d[0]} -> {d[1]}"
        elif step.kind == "merge":
            body = f"{d[0]} {d[1]} {d[2]} -> {d[3]}"
        else:
            body = f"{d[0]} -> {d[1]} {d[2]} {d[3]}"
        out.append(f"    {n}. {step.kind} @{step.pos}: {body}")
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
        failing = [s.name for s in a.parts if check_associativity(s) is not None]
        if failing:
            print(f"amalgam {a.name}: parts not associative: {', '.join(failing)}")
        else:
            print(f"amalgam {a.name}: valid (mode {a.mode.value})")
    return _finish("validate", "PASS" if ok else "FAIL")


def _cmd_classify(ws: Workspace, semigroup: str) -> int:
    s = ws.semigroup(semigroup)
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
        return _finish("classify", "PASS")
    for e in report.per_element:
        if e.completely_regular is None:
            what = "alpha-regular" if e.alpha_regular is None else "commuting"
            print(f"certificate: element {e.element} has no {what} witness")
            break
    return _finish("classify", "FAIL")


def _cmd_hom_check(ws: Workspace, hom: str) -> int:
    f = ws.hom(hom)
    _require_associative(f.source, f.target)
    print(f"hom {f.name}: {f.source.name} -> {f.target.name}")
    w = verify_homomorphism(f)
    if w is not None:
        a, g, b = w
        print(f"compatibility: fails at ({a} {g} {b})")
        return _finish("hom-check", "FAIL")
    carrier_inj, gamma_inj = injective(f)
    print("compatibility: ok")
    print(f"injective-carrier: {_yesno(carrier_inj)}")
    print(f"injective-gamma: {_yesno(gamma_inj)}")
    print(f"monomorphism: {_yesno(carrier_inj and gamma_inj)}")
    return _finish("hom-check", "PASS")


def _cmd_quotient(ws: Workspace, semigroup: str, pairs: str) -> int:
    s = ws.semigroup(semigroup)
    seeds = []
    for chunk in pairs.split(","):
        halves = chunk.split("~")
        if len(halves) != 2 or not halves[0].strip() or not halves[1].strip():
            raise GsgError(f"bad pair {chunk!r}; expected 'a~b'")
        seeds.append((halves[0].strip(), halves[1].strip()))
    rho = generate_congruence(s, seeds)
    q, proj = quotient(s, rho)
    for block in rho.classes():
        print(f"# class {proj.carrier_map[block[0]]}: {' '.join(block)}")
    print(serialize(Workspace.of(semigroups=[q])), end="")
    return 0


def _cmd_word_mul(ws: Workspace, mode: str, gamma: str, left: str, right: str) -> int:
    if not ws.semigroups:
        raise GsgError("word-mul needs a workspace with at least one semigroup")
    fp = FreeProduct(ws.semigroups, Mode(mode))
    print(fp.gamma_multiply(fp.parse_word(left), gamma, fp.parse_word(right)))
    return 0


def _cmd_amalgam_check(ws: Workspace, amalgam: str, bound: int, budget: int) -> int:
    a = ws.amalgam(amalgam)
    nc = necessary_condition(a)
    rel = relation_generators(a)
    report = check_natural_embedding(a, bound, budget)
    print(f"amalgam {a.name}: core {a.core.name}, parts {a.parts[0].name} "
          f"{a.parts[1].name}, mode {a.mode.value}")
    print(f"necessary-condition: {nc.status}"
          + (f" (not completely alpha-regular: {', '.join(nc.failing_parts)})"
             if nc.failing_parts else "")
          + (f" (core element {nc.witness} has no witness pair)" if nc.witness else ""))
    print(f"relations: {len(rel.element_pairs)} element pair(s)"
          + (f", {len(rel.gamma_pairs)} gamma pair(s)" if rel.gamma_pairs else ""))
    for e1, e2 in rel.element_pairs:
        print(f"  {e1} ~ {e2}")
    for h1, h2 in rel.gamma_pairs:
        print(f"  gamma {h1} ~ {h2}")
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
    status = ("FAIL" if report.verdict == "violation-found" else
              "INCONCLUSIVE" if report.verdict == "inconclusive" or report.unresolved else
              "PASS")
    return _finish("amalgam-check", status)


def _cmd_iso_check(ws: Workspace, hom: str) -> int:
    f = ws.hom(hom)
    _require_associative(f.source, f.target)
    try:
        report = first_isomorphism_check(f)
    except NotAHomomorphism as e:
        a, g, b = e.witness
        print(f"hom {f.name}: not a homomorphism, witness ({a} {g} {b})")
        return _finish("iso-check", "FAIL")
    print(f"hom {f.name}: {f.source.name} -> {f.target.name}")
    # the induced map holds each of these by construction (`IsoReport`)
    print("well-defined: yes\nhomomorphism-onto-image: yes\n"
          "injective: yes\nfactors-original-map: yes")
    print(f"kernel-classes: {report.quotient_semigroup.n} "
          f"image-size: {len(report.image_elements)}")
    return _finish("iso-check", "PASS")


_PARSER = _build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    options = vars(_PARSER.parse_args(argv))
    options.pop("command")
    path, handler = options.pop("file"), options.pop("handler")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        return 2
    try:
        return handler(parse(text), **options)
    except ParseError as e:
        print(f"{path}:{e}", file=sys.stderr)
        return 2
    except GsgError as e:
        print(str(e), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
