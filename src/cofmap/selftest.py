"""The law registry: every property of the monoid that the project checks,
stated once, with the seeded generators and independent oracles it needs.

Each entry of :data:`CHECKS` is a named law ``fn(rng, cases)`` that
returns its failure count; its draw counts scale with ``cases``.  Check
``name`` draws from :func:`rng_for` ``(seed, name)``, so a run is
reproducible given (seed, cases).  ``cofmap selftest`` runs the registry
at 300 cases, and ``tests/test_acceptance.py`` runs it at 10,000, where
``cofmap selftest --seed 1 --cases 10000`` replays any failure.

Generators: gap sets inside [1, 30] with at most 10 entries per side
unless a check says otherwise.  The oracles build maps the naive way: pair
the k-th smallest domain point with the k-th smallest image point inside a
finite window, compose pointwise through dictionaries, rewrite bicyclic
words, and enumerate candidates exhaustively.  None of them goes through
the library's gap-set formulas.
"""

from __future__ import annotations

import functools
import random
from itertools import chain, combinations, islice

from .bicyclic import (
    Bicyclic,
    as_bicyclic,
    congruence_witnesses,
    conjugation_witness,
    embed,
    fresh_bicyclic,
    group_congruent,
    standard_below,
    tail_projection,
)
from .core import (
    CofMap,
    canonical_leq,
    compose,
    evaluate,
    invert,
    is_idempotent,
    iter_up_set,
    natural_leq,
    shift,
    shift_threshold,
    tail_identity,
)
from .extensions import (
    ZERO,
    adj_mul,
    in_adj_nbhd,
    in_zero_nbhd,
    zero_mul,
    zero_stability_bound,
)
from .green import (
    connect_idempotents,
    green_d,
    green_h,
    green_l,
    green_r,
    semilattice_iso,
    simplicity_witness,
    solve_left,
    solve_right,
)

# -- seeded generators and exhaustive universes ------------------------------


def random_gapset(rng, max_gap: int = 30, max_size: int = 10) -> tuple:
    k = rng.randint(0, min(max_size, max_gap))
    return tuple(sorted(rng.sample(range(1, max_gap + 1), k)))


def random_cofmap(rng, max_gap: int = 30, max_size: int = 10) -> CofMap:
    return CofMap(
        random_gapset(rng, max_gap, max_size),
        random_gapset(rng, max_gap, max_size),
    )


def random_idempotent(rng, max_gap: int = 30, max_size: int = 10) -> CofMap:
    gaps = random_gapset(rng, max_gap, max_size)
    return CofMap(gaps, gaps)


def all_gapsets(max_gap: int) -> list[tuple]:
    """Every gap set inside [1, max_gap], all 2**max_gap of them."""
    universe = range(1, max_gap + 1)
    return list(
        chain.from_iterable(combinations(universe, k) for k in range(max_gap + 1))
    )


@functools.cache
def all_cofmaps(max_gap: int) -> tuple[CofMap, ...]:
    """Every map whose gap sets fit inside [1, max_gap] (4**max_gap maps),
    built once and shared by every check that searches it."""
    subs = all_gapsets(max_gap)
    return tuple(CofMap(d, r) for d in subs for r in subs)


# -- independent oracles -----------------------------------------------------


def two_row(dom_gaps, ran_gaps, n=200, slack=60):
    """Truncated explicit map as a dict, built positionally."""
    dom_block = set(dom_gaps)
    ran_block = set(ran_gaps)
    dom_pts = [x for x in range(1, n + 1) if x not in dom_block]
    ran_pts = []
    y = 1
    while len(ran_pts) < len(dom_pts):
        if y not in ran_block:
            ran_pts.append(y)
        y += 1
        if y > n + slack:
            raise AssertionError("window too small for the gap sets")
    return dict(zip(dom_pts, ran_pts))


def two_row_compose(m1, m2):
    """Pointwise composition of truncated dicts (apply m1 first)."""
    return {x: m2[m1[x]] for x in m1 if m1[x] in m2}


def rewrite_product(m1, n1, m2, n2):
    """Bicyclic product by literal word rewriting of the single relation."""
    word = "q" * m1 + "p" * n1 + "q" * m2 + "p" * n2
    while "pq" in word:
        word = word.replace("pq", "", 1)
    qs = len(word) - len(word.lstrip("q"))
    ps = len(word) - len(word.rstrip("p"))
    assert word == "q" * qs + "p" * ps
    return qs, ps


# -- the registry ------------------------------------------------------------

CHECKS = []


def check(name):
    def register(fn):
        CHECKS.append((name, fn))
        return fn
    return register


def rng_for(seed: int, name: str) -> random.Random:
    """The generator of check ``name`` in a run with master ``seed``."""
    # string seeds hash stably (sha512), unlike tuples under PYTHONHASHSEED
    return random.Random(f"{seed}:{name}")


@check("compose agrees with pointwise composition")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        g, h = random_cofmap(rng), random_cofmap(rng)
        got = compose(g, h)
        oracle = two_row_compose(two_row(g.dom_gaps, g.ran_gaps, n=260),
                                 two_row(h.dom_gaps, h.ran_gaps, n=260))
        rows = two_row(got.dom_gaps, got.ran_gaps, n=200)
        if any(oracle.get(x) != rows.get(x) for x in range(1, 201)):
            bad += 1
        if any(evaluate(got, x) != oracle.get(x) for x in (rng.randint(1, 200) for _ in range(4))):
            bad += 1
        for x in range(1, 121):
            y = evaluate(g, x)
            if evaluate(got, x) != (None if y is None else evaluate(h, y)):
                bad += 1
                break
    return bad


@check("composition is associative")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        a, b, c = (random_cofmap(rng) for _ in range(3))
        if compose(compose(a, b), c) != compose(a, compose(b, c)):
            bad += 1
    return bad


@check("inverse axioms and commuting idempotents")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        g, h = random_cofmap(rng), random_cofmap(rng)
        gi = invert(g)
        if compose(compose(g, gi), g) != g or compose(compose(gi, g), gi) != gi:
            bad += 1
        if invert(compose(g, h)) != compose(invert(h), gi):
            bad += 1
        e, f = random_idempotent(rng), random_idempotent(rng)
        ef = compose(e, f)
        if ef != compose(f, e) or not is_idempotent(ef):
            bad += 1
        if set(ef.dom_gaps) != set(e.dom_gaps) | set(f.dom_gaps):
            bad += 1
    return bad


@check("shift is additive and the tail law holds")
def _(rng, cases):
    # the standard bicyclic copy realises every shift
    bad = sum(shift(embed(Bicyclic(max(-n, 0), max(n, 0)))) != n for n in range(-10, 11))
    for _ in range(cases):
        g, h = random_cofmap(rng), random_cofmap(rng)
        if shift(compose(g, h)) != shift(g) + shift(h):
            bad += 1
        t, f = shift_threshold(g), shift(g)
        for i in (t, t + 1, t + 17):
            if evaluate(g, i) != i + f:
                bad += 1
        max_d = g.dom_gaps[-1] if g.dom_gaps else 0
        max_r = g.ran_gaps[-1] if g.ran_gaps else 0
        if t > 1:
            y = evaluate(g, t - 1)
            if t - 1 > max_d and y is not None and y > max_r:
                bad += 1  # threshold was not minimal
    return bad


@check("Green relations match their idempotent forms; H is equality")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        a = random_cofmap(rng)
        roll = rng.random()
        if roll < 0.25:
            b = CofMap(a.dom_gaps, random_cofmap(rng).ran_gaps)
        elif roll < 0.5:
            b = CofMap(random_cofmap(rng).dom_gaps, a.ran_gaps)
        else:
            b = random_cofmap(rng)
        r, l = green_r(a, b), green_l(a, b)
        if r != (compose(a, invert(a)) == compose(b, invert(b))):
            bad += 1
        if l != (compose(invert(a), a) == compose(invert(b), b)):
            bad += 1
        if (r and l) != (a == b) or green_h(a, b) != (a == b) or not green_d(a, b):
            bad += 1
    return bad


@check("simplicity witness satisfies g*a*d == b")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        a, b = random_cofmap(rng), random_cofmap(rng)
        g, d = simplicity_witness(a, b)
        if compose(compose(g, a), d) != b:
            bad += 1
    return bad


@check("connecting map links any two idempotents")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        e, i = random_idempotent(rng), random_idempotent(rng)
        a = connect_idempotents(e, i)
        if compose(a, invert(a)) != e or compose(invert(a), a) != i:
            bad += 1
    # uniqueness: every map with gaps in [1,6], with the two idempotents it links
    links = [(compose(x, invert(x)), compose(invert(x), x), x) for x in all_cofmaps(6)]
    for _ in range(max(1, cases // 100)):
        e = random_idempotent(rng, max_gap=6, max_size=3)
        i = random_idempotent(rng, max_gap=6, max_size=3)
        if [x for left, right, x in links if left == e and right == i] != [connect_idempotents(e, i)]:
            bad += 1
    return bad


@check("natural order reverses gap inclusion; gap map is a hom")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        e, f = random_idempotent(rng), random_idempotent(rng)
        leq = natural_leq(e, f)
        if leq != (set(e.dom_gaps) >= set(f.dom_gaps)):
            bad += 1
        if leq != (set(semilattice_iso(e)) >= set(semilattice_iso(f))):
            bad += 1
        if set(semilattice_iso(compose(e, f))) != set(semilattice_iso(e)) | set(semilattice_iso(f)):
            bad += 1
    return bad


@check("up-set size is 2**gaps")
def _(rng, cases):
    bad = 0
    for _ in range(max(1, cases // 10)):
        e = random_idempotent(rng, max_size=12)
        ups = list(iter_up_set(e))
        if len(ups) != 2 ** len(e.dom_gaps) or len(set(ups)) != len(ups):
            bad += 1
        if any(not natural_leq(e, u) for u in ups):
            bad += 1
    for _ in range(cases):
        # a 20-step strictly descending chain, closing one more point a step
        current = e = random_idempotent(rng)
        for x in islice((x for x in range(1, 1000) if x not in e.dom_gaps), 20):
            below = compose(current, CofMap((x,), (x,)))
            if not natural_leq(below, current) or below == current:
                bad += 1
                break
            current = below
    return bad


@check("canonical order implies equal shift and pointwise restriction")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        b = random_cofmap(rng)
        e = random_idempotent(rng)
        a = compose(b, e)  # a is a restriction of b by construction
        if not canonical_leq(a, b):
            bad += 1
        if shift(a) != shift(b):
            bad += 1
        for x in range(1, 40):
            if x not in a.dom_gaps and evaluate(a, x) != evaluate(b, x):
                bad += 1
                break
    return bad


@check("translation equations match exhaustive search")
def _(rng, cases):
    # factor/target gaps within [1,4], at most 2 per side: every solution
    # then provably has its gaps within [1,6], so the universe is covering
    universe = all_cofmaps(6)

    @functools.cache
    def by_product(side, a):
        """Every map x of the universe, filed under a*x (right) or x*a (left)."""
        table = {}
        for x in universe:
            table.setdefault(compose(a, x) if side == "right" else compose(x, a), set()).add(x)
        return table

    bad = 0
    for _ in range(max(1, cases // 30)):
        a = random_cofmap(rng, max_gap=4, max_size=2)
        b = random_cofmap(rng, max_gap=4, max_size=2)
        if set(solve_right(a, b).solutions) != by_product("right", a).get(b, set()):
            bad += 1
        if set(solve_left(a, b).solutions) != by_product("left", a).get(b, set()):
            bad += 1
    return bad


@check("bicyclic product matches word rewriting")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        x = Bicyclic(rng.randint(0, 20), rng.randint(0, 20))
        y = Bicyclic(rng.randint(0, 20), rng.randint(0, 20))
        z = x * y
        if (z.m, z.n) != rewrite_product(x.m, x.n, y.m, y.n):
            bad += 1
        if embed(z) != compose(embed(x), embed(y)):
            bad += 1
        if as_bicyclic(embed(z)) != z or as_bicyclic(embed(x)) != x:
            bad += 1
    return bad


@check("fresh bicyclic copy avoids the standard one")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        e = random_idempotent(rng)
        unity, up, down = fresh_bicyclic(e)
        if not natural_leq(unity, e) or compose(up, down) != unity:
            bad += 1
        if as_bicyclic(unity) is not None:
            bad += 1
        pow_up = [unity]
        for _ in range(9):
            pow_up.append(compose(pow_up[-1], up))
        s, t = rng.randint(0, 6), rng.randint(0, 6)
        s2, t2 = rng.randint(0, 3), rng.randint(0, 3)
        if as_bicyclic(compose(invert(pow_up[s]), pow_up[t])) is not None:
            bad += 1
        # the copy obeys the bicyclic relation: q^s p^t q^s2 p^t2 == q^(s+s2-k) p^(t+t2-k)
        k = min(t, s2)
        lhs = compose(compose(invert(pow_up[s]), pow_up[t]), compose(invert(pow_up[s2]), pow_up[t2]))
        if lhs != compose(invert(pow_up[s + s2 - k]), pow_up[t + t2 - k]):
            bad += 1
    return bad


@check("tail projection glues the map to its standard stand-in")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        g = random_cofmap(rng)
        mu, eps = tail_projection(g)
        if as_bicyclic(mu) is None or as_bicyclic(eps) is None:
            bad += 1
        if compose(g, eps) != compose(mu, eps) or compose(eps, g) != compose(eps, mu):
            bad += 1
    return bad


@check("absorbing and dominated standard idempotents")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        e = random_idempotent(rng)
        eps = standard_below(e)
        if compose(e, eps) != eps or as_bicyclic(eps) is None or not natural_leq(eps, e):
            bad += 1
        psi = tail_identity(len(eps.dom_gaps) + 1 + rng.randint(0, 5))
        if not natural_leq(psi, eps) or as_bicyclic(compose(psi, eps)) is None:
            bad += 1
    return bad


@check("conjugates of the tail idempotent stay standard")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        g = random_cofmap(rng)
        eps, left, right = conjugation_witness(g)
        for c in (left, right):
            if not is_idempotent(c) or as_bicyclic(c) is None:
                bad += 1
        gi = invert(g)
        if left != compose(compose(g, eps), gi) or right != compose(compose(gi, eps), g):
            bad += 1
    return bad


@check("group congruence is the shift kernel, with working witnesses")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        a, b = random_cofmap(rng), random_cofmap(rng)
        same_fiber = shift(a) == shift(b)
        w = congruence_witnesses(a, b)
        if group_congruent(a, b) != same_fiber or (w is None) == same_fiber:
            bad += 1
        if w is not None:
            l, r = w
            if as_bicyclic(l) is None or as_bicyclic(r) is None:
                bad += 1
            if compose(l, a) != compose(l, b) or compose(a, r) != compose(b, r):
                bad += 1
        else:
            # no idempotent merges maps from different fibers: neither a
            # tail identity nor a random one
            eps = tail_identity(max(shift_threshold(a), shift_threshold(b)) + 5)
            if compose(eps, a) == compose(eps, b):
                bad += 1
            e = random_idempotent(rng)
            if compose(e, a) == compose(e, b) or compose(a, e) == compose(b, e):
                bad += 1
    return bad


@check("zero and adjunction semigroups are associative")
def _(rng, cases):
    def pick_zero():
        return ZERO if rng.random() < 0.3 else random_cofmap(rng)

    def pick_adj():
        return rng.randint(-10, 10) if rng.random() < 0.4 else random_cofmap(rng)

    bad = 0
    for _ in range(cases):
        x, y, z = pick_zero(), pick_zero(), pick_zero()
        if zero_mul(zero_mul(x, y), z) != zero_mul(x, zero_mul(y, z)):
            bad += 1
        u, v, w = pick_adj(), pick_adj(), pick_adj()
        if adj_mul(adj_mul(u, v), w) != adj_mul(u, adj_mul(v, w)):
            bad += 1
    return bad


@check("neighborhood bases filter correctly")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        g, h = random_cofmap(rng), random_cofmap(rng)
        i = rng.randint(1, 6)
        if in_zero_nbhd(i + 1, g) and not in_zero_nbhd(i, g):
            bad += 1
        if in_zero_nbhd(i, g) != in_zero_nbhd(i, invert(g)):
            bad += 1
        if in_zero_nbhd(i, g) and in_zero_nbhd(i, h) and not in_zero_nbhd(i, compose(g, h)):
            bad += 1
        anchor = random_cofmap(rng)
        x = shift(anchor)
        elem = random_cofmap(rng)
        want = shift(elem) == x and not canonical_leq(anchor, elem)
        if in_adj_nbhd(x, anchor, elem) != want or not in_adj_nbhd(x, anchor, x):
            bad += 1
    return bad


@check("translation keeps zero neighborhoods stable")
def _(rng, cases):
    bad = 0
    for _ in range(cases):
        i, g, a = rng.randint(1, 6), random_cofmap(rng), random_cofmap(rng, max_size=5)
        if in_zero_nbhd(zero_stability_bound(i, a), g):
            if not (in_zero_nbhd(i, compose(g, a)) and in_zero_nbhd(i, compose(a, g))):
                bad += 1
    return bad


@check("expression round-trip through the printer")
def _(rng, cases):
    from . import cli  # deferred: only this check needs the parser

    bad = 0
    for _ in range(cases):
        roll = rng.random()
        if roll < 0.55:
            v = random_cofmap(rng)
        elif roll < 0.75:
            v = Bicyclic(rng.randint(0, 20), rng.randint(0, 20))
        elif roll < 0.95:
            v = rng.randint(-50, 50)
        else:
            v = ZERO
        if cli.eval_expr(cli.parse(cli.render(v))) != v:
            bad += 1
    return bad


def run_selftest(seed: int = 1, cases: int = 300) -> list[tuple[str, int]]:
    """``(name, failures)`` for every check, in registry order."""
    return [(name, fn(rng_for(seed, name), cases)) for name, fn in CHECKS]
