"""Brute-force reference implementations.

Everything here trades speed for obviousness: plain dicts, triple loops in
declaration order, no vectorization, no shared code with the package. The
suites compare library output against these on small inputs, and several
frozen expected values in the tests were computed by running these once.
"""

import re
from collections import deque
from itertools import product


# the token grammar of the workspace format: a token is the arrow '->',
# '=', or a run of characters other than whitespace, '#' and '=' that holds
# no '->'; a '#' starts a comment
TOKEN_RE = re.compile(r"(?:->)|=|(?:(?!->)[^\s#=])+")


def grammar_tokens(line):
    """(token, 1-based column) of every token of one line, by TOKEN_RE."""
    return [(m.group(), m.start() + 1)
            for m in TOKEN_RE.finditer(line.split("#", 1)[0])]


def table_dict(s):
    """The operation table as a plain {(a, gamma, b): c} dict of names."""
    out = {}
    for a in s.elements:
        for g in s.gammas:
            for b in s.elements:
                out[(a, g, b)] = s.mul(a, g, b)
    return out


def brute_assoc_witness(elements, gammas, table):
    """First (a, g, b, m, c) with (agb)mc != ag(bmc), scanning in
    declaration order; None when the law holds everywhere."""
    for a in elements:
        for g in gammas:
            for b in elements:
                for m in gammas:
                    for c in elements:
                        lhs = table[(table[(a, g, b)], m, c)]
                        rhs = table[(a, g, table[(b, m, c)])]
                        if lhs != rhs:
                            return (a, g, b, m, c)
    return None


def brute_compat_witness(c):
    """First (x, y, gamma, z) with x ~ y, x before y, and a translation
    that separates them: one quadruple loop over the indices in order.
    None when the partition is a congruence."""
    s = c.subject
    t = s.table
    reps = c.reps
    for x in range(s.n):
        for y in range(x + 1, s.n):
            if reps[x] != reps[y]:
                continue
            for j in range(s.g):
                for z in range(s.n):
                    if reps[t[x, j, z]] != reps[t[y, j, z]] \
                            or reps[t[z, j, x]] != reps[t[z, j, y]]:
                        return (s.elements[x], s.elements[y],
                                s.gammas[j], s.elements[z])
    return None


def brute_hom_witness(f):
    """First (a, g, b) where f'(a g b) != f'(a) f''(g) f'(b)."""
    s, t = f.source, f.target
    for a in s.elements:
        for g in s.gammas:
            for b in s.elements:
                lhs = f.carrier_map[s.mul(a, g, b)]
                rhs = t.mul(f.carrier_map[a], f.gamma_map[g], f.carrier_map[b])
                if lhs != rhs:
                    return (a, g, b)
    return None


def brute_regularity(s):
    """Per-element witness scan in element-then-gamma order.

    Returns {a: {"regular": (x, g) | None,
                 "commuting": (x, g) | None,
                 "inverses": [(b, g), ...]}}.
    """
    out = {}
    for a in s.elements:
        regular = None
        commuting = None
        inverses = []
        for x in s.elements:
            for g in s.gammas:
                back = s.mul(s.mul(a, g, x), g, a)
                if back != a:
                    continue
                if regular is None:
                    regular = (x, g)
                if commuting is None and s.mul(a, g, x) == s.mul(x, g, a):
                    commuting = (x, g)
                if s.mul(s.mul(x, g, a), g, x) == x:
                    inverses.append((x, g))
        out[a] = {"regular": regular, "commuting": commuting,
                  "inverses": inverses}
    return out


# ---------------------------------------------------------------- partitions

def all_partitions(items):
    """Every set partition of items, as tuples of tuples, via restricted
    growth strings. Bell(4) = 15, Bell(5) = 52; fine at test scale."""
    items = list(items)
    if not items:
        return
    n = len(items)
    growth = [0] * n

    def emit():
        k = max(growth) + 1
        blocks = [[] for _ in range(k)]
        for i, b in enumerate(growth):
            blocks[b].append(items[i])
        yield tuple(tuple(b) for b in blocks)

    def rec(i, m):
        if i == n:
            yield from emit()
            return
        for b in range(m + 2):
            growth[i] = b
            yield from rec(i + 1, max(m, b))

    yield from rec(1, 0)


def partition_lookup(blocks):
    where = {}
    for bi, block in enumerate(blocks):
        for e in block:
            where[e] = bi
    return where


def is_congruence(s, blocks):
    """Compatibility of a partition: x ~ y forces xgz ~ ygz and zgx ~ zgy."""
    where = partition_lookup(blocks)
    for block in blocks:
        for x in block:
            for y in block:
                for g in s.gammas:
                    for z in s.elements:
                        if where[s.mul(x, g, z)] != where[s.mul(y, g, z)]:
                            return False
                        if where[s.mul(z, g, x)] != where[s.mul(z, g, y)]:
                            return False
    return True


def least_congruence_by_enumeration(s, seeds):
    """Intersection of every congruence whose classes contain the seeds:
    x ~ y iff all of them agree. Exponential; n <= 5 only."""
    compatible = []
    for blocks in all_partitions(s.elements):
        where = partition_lookup(blocks)
        if not all(where[a] == where[b] for a, b in seeds):
            continue
        if is_congruence(s, blocks):
            compatible.append(where)
    assert compatible, "the universal partition is always a congruence"
    classes = {}
    for e in s.elements:
        key = tuple(w[e] for w in compatible)
        classes.setdefault(key, []).append(e)
    return sorted(tuple(sorted(c, key=s.elements.index))
                  for c in classes.values())


def brute_least_congruence(s, seeds):
    """Naive fixpoint closure with frozenset classes; no union-find."""
    classes = {e: frozenset([e]) for e in s.elements}

    def join(a, b):
        if classes[a] is classes[b]:
            return False
        merged = classes[a] | classes[b]
        for e in merged:
            classes[e] = merged
        return True

    for a, b in seeds:
        join(a, b)
    changed = True
    while changed:
        changed = False
        for x, y in product(s.elements, s.elements):
            if classes[x] is not classes[y]:
                continue
            for g in s.gammas:
                for z in s.elements:
                    if join(s.mul(x, g, z), s.mul(y, g, z)):
                        changed = True
                    if join(s.mul(z, g, x), s.mul(z, g, y)):
                        changed = True
    seen = []
    for e in s.elements:
        block = tuple(sorted(classes[e], key=s.elements.index))
        if block not in seen:
            seen.append(block)
    return sorted(seen)


def congruence_blocks(rho):
    """Library Congruence -> the same sorted-block form the oracles use."""
    return sorted(tuple(block) for block in rho.classes())


# ------------------------------------------------------------------- words

def brute_normalize(tokens, owner, gowner, mul, merge_pos=None):
    """Reference normalizer over plain token lists.

    owner: element name -> family index; gowner: gamma name -> family index
    or None in shared-gamma mode; mul(i, x, g, y): product in family i.
    Repeatedly rewrites one mergeable factor until none remains. merge_pos
    picks which mergeable site to take each round (a function of the list
    of candidate indices); default takes the first, but any choice must
    land on the same output if merging is confluent.
    """
    toks = list(tokens)
    while True:
        sites = []
        for k in range(0, len(toks) - 2, 2):
            x, g, y = toks[k], toks[k + 1], toks[k + 2]
            if owner[x] != owner[y]:
                continue
            if gowner is not None and gowner[g] != owner[x]:
                continue
            sites.append(k)
        if not sites:
            return toks
        k = sites[0] if merge_pos is None else sites[merge_pos(len(sites))]
        x, g, y = toks[k], toks[k + 1], toks[k + 2]
        toks[k:k + 3] = [mul(owner[x], x, g, y)]


def brute_fold(tokens, target, carrier_maps, owner, gamma_of=None):
    """Left-to-right evaluation of a word in the target table.

    carrier_maps: per-family element translation dicts; gamma_of translates
    gamma letters (identity when None).
    """
    val = carrier_maps[owner[tokens[0]]][tokens[0]]
    k = 1
    while k < len(tokens):
        g, y = tokens[k], tokens[k + 1]
        h = g if gamma_of is None else gamma_of[g]
        val = target.mul(val, h, carrier_maps[owner[y]][y])
        k += 2
    return val


# ----------------------------------------------------------------- amalgams

class _BudgetStop(Exception):
    pass


def per_pair_embedding_report(a, bound, budget):
    """The embedding report by one bounded search per element pair: every
    pair of one part, every cross pair, and for each proven cross pair the
    core elements in order until one's part-1 image is proven equal to it.

    Returns None as soon as some search runs out of budget: only then may
    check_natural_embedding's report differ from this one."""
    from gsg import Collision, CrossPair, EmbeddingReport, words_equal_within

    fp = a.free_product()

    def probe(w1, w2):
        v = words_equal_within(a, w1, w2, bound, budget)
        if v.limit == "budget":
            raise _BudgetStop
        return v

    try:
        collisions, clear = [], []
        for p, s in enumerate(a.parts):
            found = []
            for i in range(s.n):
                for j in range(i + 1, s.n):
                    v = probe(fp.embed(p, s.elements[i]), fp.embed(p, s.elements[j]))
                    if v.equal:
                        found.append(Collision(p + 1, s.elements[i], s.elements[j],
                                               v.chain))
            collisions.extend(found)
            clear.append(not found)

        cross = []
        f1 = a.maps[0]
        for e1 in a.parts[0].elements:
            w1 = fp.embed(0, e1)
            for e2 in a.parts[1].elements:
                if not probe(w1, fp.embed(1, e2)).equal:
                    continue
                resolved = None
                for u in a.core.elements:
                    if probe(fp.embed(0, f1.carrier_map[u]), w1).equal:
                        resolved = u
                        break
                cross.append(CrossPair(e1, e2, resolved))
    except _BudgetStop:
        return None

    verdict = "violation-found" if collisions else "consistent-within-bound"
    return EmbeddingReport(a.name, tuple(collisions), tuple(clear),
                           tuple(cross), verdict, bound, budget)


def targeted_bfs(search, start, bound, budget, target):
    """The targeted deque BFS with the normal-form test on every state it
    discovers, on the moves of a `_Search`: (chain, stop reason).  The
    chain is the path of the BFS tree to the first state that normalises
    to target, then the merges of its normal form."""
    reduce = search.fp.reduce
    parents = {start: None}

    def chain(node, merges):
        moves = [("merge", pos, tuple(codes)) for pos, *codes in merges]
        while parents[node] is not None:
            node, move = parents[node]
            moves.insert(0, move)
        return tuple(search._step(*move) for move in moves)

    nf, merges = reduce(start)
    if nf == target:
        return chain(start, merges), None
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for ns, move in search.neighbors(cur, bound):
            if ns in parents:
                continue
            if len(parents) >= budget:
                return None, "budget"
            parents[ns] = (cur, move)
            nf, merges = reduce(ns)
            if nf == target:
                return chain(ns, merges), None
            queue.append(ns)
    return None, "exhausted"


def component_bfs(search, start, bound, budget):
    """The deque BFS without a target on the moves of a `_Search`: (the
    states it visits, as dict keys in the order it visits them, stop
    reason).  They are the component of start when the stop reason is
    "exhausted"."""
    visited = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for ns, _ in search.neighbors(cur, bound):
            if ns in visited:
                continue
            if len(visited) >= budget:
                return visited, "budget"
            visited[ns] = None
            queue.append(ns)
    return visited, "exhausted"


def brute_step(a, tokens, step):
    """The tokens after one named move (kind, pos, data) of the amalgam a,
    or None when the move is not legal there.  The rules are read off the
    tables and the structure maps by name:

    * swap (x, y): x at element position pos, and x, y are the two images
      f1(u), f2(u) of one core element u, in either order;
    * gswap (g, h): disjoint mode only; g at the gamma after element pos,
      and g, h are the two images of one core gamma;
    * merge (x, g, y, z): x g y at pos, x and y in one part whose gammas
      hold g (all of them in same-gamma mode, its own in disjoint mode),
      and z their product there;
    * unmerge (z, x, g, y): z at pos and the merge of x g y gives z.

    pos counts element letters from the left."""
    from gsg import Mode

    kind, pos, data = step
    toks = list(tokens)
    m = (len(toks) + 1) // 2
    owner = {e: p for p, s in enumerate(a.parts) for e in s.elements}
    f1, f2 = a.maps
    pairs = set()
    for u in a.core.elements:
        x, y = f1.carrier_map[u], f2.carrier_map[u]
        pairs |= {(x, y), (y, x)}
    gpairs = set()
    if a.mode is Mode.DISJOINT:
        for h in a.core.gammas:
            g, k = f1.gamma_map[h], f2.gamma_map[h]
            gpairs |= {(g, k), (k, g)}

    def product(x, g, y):
        p = owner.get(x)
        if p is None or owner.get(y) != p or g not in a.parts[p].gammas:
            return None
        return a.parts[p].mul(x, g, y)

    if not isinstance(pos, int) or not isinstance(data, tuple) or pos < 0:
        return None
    if kind == "swap" and len(data) == 2 and pos < m:
        if toks[2 * pos] == data[0] and data in pairs:
            toks[2 * pos] = data[1]
            return toks
    elif kind == "gswap" and len(data) == 2 and pos < m - 1:
        if toks[2 * pos + 1] == data[0] and data in gpairs:
            toks[2 * pos + 1] = data[1]
            return toks
    elif kind == "merge" and len(data) == 4 and pos < m - 1:
        if toks[2 * pos:2 * pos + 3] == list(data[:3]) and product(*data[:3]) == data[3]:
            toks[2 * pos:2 * pos + 3] = [data[3]]
            return toks
    elif kind == "unmerge" and len(data) == 4 and pos < m:
        if toks[2 * pos] == data[0] and product(*data[1:]) == data[0]:
            toks[2 * pos:2 * pos + 1] = list(data[1:])
            return toks
    return None
