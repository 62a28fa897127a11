"""Shared table and amalgam builders for the suites."""

import pathlib

import numpy as np

from gsg import GammaAmalgam, GammaHomomorphism, GammaSemigroup, Mode
from gsg.families import constant, left_zero, relabel, right_zero, zmod

DATA = pathlib.Path(__file__).resolve().parent / "data"


def trivial(element: str, gammas=("g",), name=None) -> GammaSemigroup:
    """One element, every product equal to it."""
    g = len(gammas)
    return GammaSemigroup(name or element.upper(), (element,), tuple(gammas),
                          np.zeros((1, g, 1), dtype=np.int64))


def k2() -> GammaSemigroup:
    # constant table: a g b = b for every pair, so a is never regular
    return constant(["a", "b"], "b", ["g"], name="K2")


def meet_two(x: str, y: str, gammas, name) -> GammaSemigroup:
    """Two gammas on {x, y}: the first constant-x, the second the meet
    semilattice with x at the bottom."""
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[1, 1, 1] = 1
    return GammaSemigroup(name, (x, y), tuple(gammas), table)


def make_trivial_amalgam() -> GammaAmalgam:
    u = trivial("u", name="U")
    s1 = trivial("u1", name="S1")
    s2 = trivial("u2", name="S2")
    f1 = GammaHomomorphism("f1", u, s1, {"u": "u1"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "u2"}, {"g": "g"})
    return GammaAmalgam("trivial", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)


def make_two_copies() -> GammaAmalgam:
    """Two disjoint copies of the 2-element group glued over a third."""
    z2 = zmod(2)
    u = relabel(z2, "U", ["u0", "u1"], ["g"])
    s1 = relabel(z2, "S1", ["a0", "a1"], ["g"])
    s2 = relabel(z2, "S2", ["b0", "b1"], ["g"])
    f1 = GammaHomomorphism("f1", u, s1, {"u0": "a0", "u1": "a1"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u0": "b0", "u1": "b1"}, {"g": "g"})
    return GammaAmalgam("two_copies", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)


def make_leftzero_amalgam() -> GammaAmalgam:
    """Left-zero part against a one-element part; only a is identified."""
    u = trivial("u", name="U")
    s1 = left_zero(["a", "b"], ["g"], name="S1")
    s2 = trivial("c", name="S2")
    f1 = GammaHomomorphism("f1", u, s1, {"u": "a"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "c"}, {"g": "g"})
    return GammaAmalgam("leftzero", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)


def make_z2_in_trivial() -> GammaAmalgam:
    u = trivial("u", name="U")
    s1 = zmod(2)
    s2 = trivial("c", name="S2")
    f1 = GammaHomomorphism("f1", u, s1, {"u": "0"}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "c"}, {"g": "g"})
    return GammaAmalgam("z2_in_trivial", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)


def make_disjoint_amalgam() -> GammaAmalgam:
    u = trivial("u", gammas=("gu",), name="U")
    s1 = left_zero(["p", "q"], ["g1"], name="S1")
    s2 = trivial("r", gammas=("g2",), name="S2")
    f1 = GammaHomomorphism("f1", u, s1, {"u": "p"}, {"gu": "g1"})
    f2 = GammaHomomorphism("f2", u, s2, {"u": "r"}, {"gu": "g2"})
    return GammaAmalgam("disjoint", u, (s1, s2), (f1, f2),
                        Mode.DISJOINT)


def make_core_not_regular_amalgam() -> GammaAmalgam:
    """Both parts completely alpha-regular, the core not: the core is the
    constant sub-structure each part's first gamma generates."""
    u = constant(["ux", "uy"], "ux", ["gu"], name="U")
    s1 = meet_two("ax", "ay", ["g1", "h1"], "S1")
    s2 = meet_two("bx", "by", ["g2", "h2"], "S2")
    f1 = GammaHomomorphism("f1", u, s1, {"ux": "ax", "uy": "ay"}, {"gu": "g1"})
    f2 = GammaHomomorphism("f2", u, s2, {"ux": "bx", "uy": "by"}, {"gu": "g2"})
    return GammaAmalgam("core_not_regular", u, (s1, s2), (f1, f2),
                        Mode.DISJOINT)


def make_embedded_z4_fixture():
    """Two copies of the 4-element cyclic table over a third, all embedded
    in one target T by collapsing the copies. Returns (amalgam, T,
    psi1, psi2)."""
    z4 = zmod(4)
    u = relabel(z4, "U", ["u0", "u1", "u2", "u3"], ["g"])
    s1 = relabel(z4, "S1", ["a0", "a1", "a2", "a3"], ["g"])
    s2 = relabel(z4, "S2", ["b0", "b1", "b2", "b3"], ["g"])
    f1 = GammaHomomorphism("f1", u, s1,
                           {f"u{k}": f"a{k}" for k in range(4)}, {"g": "g"})
    f2 = GammaHomomorphism("f2", u, s2,
                           {f"u{k}": f"b{k}" for k in range(4)}, {"g": "g"})
    a = GammaAmalgam("two_z4", u, (s1, s2), (f1, f2), Mode.SAME_GAMMA)
    t = relabel(z4, "T", ["t0", "t1", "t2", "t3"], ["g"])
    psi1 = GammaHomomorphism("psi1", s1, t,
                             {f"a{k}": f"t{k}" for k in range(4)}, {"g": "g"})
    psi2 = GammaHomomorphism("psi2", s2, t,
                             {f"b{k}": f"t{k}" for k in range(4)}, {"g": "g"})
    return a, t, psi1, psi2


def words_up_to(fp, max_m: int) -> list:
    """Every reduced word of a same-gamma product with <= max_m element
    letters, in a deterministic order."""
    from gsg.words import Word

    out = []

    def extend(prefix, last, m):
        # last: the member of the prefix's last element letter
        out.append(Word(tuple(prefix), fp.mode))
        if m == max_m:
            return
        for p, s in enumerate(fp.members):
            if p == last:
                continue
            for g in fp.shared_gammas:
                for e in s.elements:
                    extend(prefix + [g, e], p, m + 1)

    for p, s in enumerate(fp.members):
        for e in s.elements:
            extend([e], p, 1)
    return out


def small_fixture_tables() -> list[GammaSemigroup]:
    """Associative tables with n <= 4, g <= 2: congruence and hom fodder."""
    return [
        trivial("u"),
        zmod(2),
        zmod(2, gammas=2),
        zmod(3),
        zmod(4),
        zmod(4, gammas=2),
        left_zero(["x", "y"], ["g"], name="L2"),
        left_zero(["x", "y", "z"], ["g"], name="L3"),
        left_zero(["x", "y"], ["g", "h"], name="L2x2"),
        right_zero(["x", "y", "z"], ["g"], name="R3"),
        k2(),
        constant(["a", "b", "c"], "a", ["g", "h"], name="K3x2"),
        meet_two("x", "y", ["g", "h"], "M2"),
    ]


def shuffled(s, seed):
    """The same table with element i renamed perm[i], names kept in order,
    so that classes no longer follow index order."""
    perm = np.random.default_rng(seed).permutation(s.n)
    t = np.empty_like(s.table)
    t[perm[:, None, None], np.arange(s.g)[None, :, None], perm[None, None, :]] = perm[s.table]
    return GammaSemigroup(f"{s.name}p", s.elements, s.gammas, t)


def family_tables():
    """Associative family tables with 8 <= n <= 16, some with shuffled indices."""
    names = [f"e{i}" for i in range(10)]
    tables = [zmod(8), zmod(12, gammas=2), zmod(16), zmod(9, gammas=3),
              left_zero(names, ["g", "h"], name="L10"), right_zero(names[:8], name="R8"),
              constant(names[:9], "e4", ["g", "h"], name="K9"),
              z6_times_two("left"), z6_times_two("right")]
    return tables + [shuffled(t, k) for k, t in enumerate(tables[:3] + tables[-2:])]


def z6_times_two(side):
    """Z6 with two gammas times a two-element left- or right-zero table:
    p = 2a + b, and p g_j q = 2(a + a' + j) + b (left) or + b' (right)."""
    a, b, j = np.arange(12) // 2, np.arange(12) % 2, np.arange(2)
    keep = b[:, None, None] if side == "left" else b[None, None, :]
    return GammaSemigroup(f"Z6{side[0].upper()}2", tuple(f"p{i}" for i in range(12)),
                          ("g0", "g1"), 2 * ((a[:, None, None] + a + j[:, None]) % 6) + keep)
