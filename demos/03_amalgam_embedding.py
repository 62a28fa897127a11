"""
Amalgams: proving that the two images of the core coincide
==========================================================

Two tables sharing a common core are pushed into one free product,
where words are rewritten under the relations "image of u in part 1
equals image of u in part 2".  Every equality the search reports comes
with a replayable chain of elementary steps, so a verdict is never
just a boolean.
"""

import textwrap

from gsg import (
    check_natural_embedding,
    necessary_condition,
    parse,
    pushout_mediator,
    replay_chain,
    words_equal_within,
    GammaHomomorphism,
)
from gsg.families import zmod

# The amalgam lives in a small text format; parse gives a workspace.
ws = parse(textwrap.dedent("""\
    semigroup U
    elements u0 u1
    gammas g
    op u0 g u0 = u0
    op u0 g u1 = u1
    op u1 g u0 = u1
    op u1 g u1 = u0
    end

    semigroup S1
    elements a0 a1
    gammas g
    op a0 g a0 = a0
    op a0 g a1 = a1
    op a1 g a0 = a1
    op a1 g a1 = a0
    end

    semigroup S2
    elements b0 b1
    gammas g
    op b0 g b0 = b0
    op b0 g b1 = b1
    op b1 g b0 = b1
    op b1 g b1 = b0
    end

    hom f1 : U -> S1
    map u0 -> a0
    map u1 -> a1
    gmap g -> g
    end

    hom f2 : U -> S2
    map u0 -> b0
    map u1 -> b1
    gmap g -> g
    end

    amalgam two_copies
    core U
    parts S1 S2
    maps f1 f2
    mode same-gamma
    end
    """))
a = ws.amalgam("two_copies")
fp = a.free_product()

# Both images of the core element u1 reduce to one another.
w1 = fp.embed(0, "a1")
w2 = fp.embed(1, "b1")
verdict = words_equal_within(a, w1, w2, bound=4)
print("a1 ~ b1:", verdict.equal)
for step in verdict.chain:
    print("  step:", step.kind, "at", step.pos, step.data)

# Replaying the chain is an independent confirmation: each step is
# checked against the relation set, and the result must be w2.
print("chain replays to w2:", replay_chain(a, w1, verdict.chain) == w2)

# The embedding report combines a collision search inside each part
# with a resolution check across parts.
report = check_natural_embedding(a, bound=4)
print("verdict:", report.verdict)
for pair in report.cross_pairs:
    print("  cross pair", pair.s1, "~", pair.s2, "resolved by", pair.resolved_by)

# The complete-regularity screen is information only: it says whether
# both parts and the core are completely alpha-regular, and claims
# nothing about embeddability.  Here all three are.
print("necessary condition:", necessary_condition(a).status)

# Finally, any compatible pair of maps into a common target factors
# through the amalgam.  Z2 is associative and receives both parts through
# homomorphisms that agree on the core, so the mediator accepts them; it
# raises on the first of those hypotheses that fails, and searches nothing.
z2 = zmod(2, name="V")
g1 = GammaHomomorphism("g1", a.parts[0], z2, {"a0": "0", "a1": "1"}, {"g": "g"})
g2 = GammaHomomorphism("g2", a.parts[1], z2, {"b0": "0", "b1": "1"}, {"g": "g"})
m = pushout_mediator(a, z2, g1, g2)
print("mediator relations/diagram/products:",
      m.relations_respected, m.diagram_commutes, m.products_respected)
