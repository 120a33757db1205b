"""The law registry: every property of the monoid that the project checks,
stated once, with the seeded generators and independent oracles it needs.

Each law is a generator ``law(rng, cases)`` that yields, for every
condition it tests, whether that condition held; its draw counts scale
with ``cases``.  :func:`check` files it in :data:`CHECKS` as ``(name,
fn)``, where ``fn(rng, cases)`` returns how many conditions failed, so
the laws keep no tally of their own.  Check ``name`` draws from
:func:`rng_for` ``(seed, name)``, so a run is reproducible given (seed,
cases).  ``cofmap selftest`` runs the registry at 300 cases, and
``tests/test_acceptance.py`` runs it at 10,000, where ``cofmap selftest
--seed 1 --cases 10000`` replays any failure.

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
from itertools import accumulate, chain, combinations, islice, pairwise

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


def random_gapset_holding(rng, size: int, part, max_gap: int = 40) -> tuple:
    """At least ``size`` gaps inside [1, max_gap], among them a random part of ``part``."""
    held = rng.sample(part, rng.randint(0, len(part)))
    rest = [x for x in range(1, max_gap + 1) if x not in held]
    return tuple(sorted(held + rng.sample(rest, max(0, size + rng.randint(0, 2) - len(held)))))


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


def restricts(a: CofMap, b: CofMap) -> bool:
    """Whether ``b`` agrees with ``a`` on dom a, judged on :func:`two_row`
    windows, which decide it when both shift thresholds lie inside them."""
    rows = two_row(b.dom_gaps, b.ran_gaps)
    return all(rows.get(x) == y for x, y in two_row(a.dom_gaps, a.ran_gaps).items())


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
    """Register the generator ``law(rng, cases)`` as check ``name``: its
    entry in :data:`CHECKS` runs the law to the end and returns how many of
    the outcomes it yielded are false."""
    def register(law):
        CHECKS.append((name, lambda rng, cases: sum(not held for held in law(rng, cases))))
        return law
    return register


def rng_for(seed: int, name: str) -> random.Random:
    """The generator of check ``name`` in a run with master ``seed``."""
    # string seeds hash stably (sha512), unlike tuples under PYTHONHASHSEED
    return random.Random(f"{seed}:{name}")


@check("compose agrees with pointwise composition")
def _(rng, cases):
    for _ in range(cases):
        g, h = random_cofmap(rng), random_cofmap(rng)
        got = compose(g, h)
        oracle = two_row_compose(two_row(g.dom_gaps, g.ran_gaps, n=260),
                                 two_row(h.dom_gaps, h.ran_gaps, n=260))
        rows = two_row(got.dom_gaps, got.ran_gaps, n=200)
        yield all(oracle.get(x) == rows.get(x) for x in range(1, 201))
        yield all(evaluate(got, x) == oracle.get(x) for x in (rng.randint(1, 200) for _ in range(4)))
        yield all(evaluate(got, x) == (None if (y := evaluate(g, x)) is None else evaluate(h, y))
                  for x in range(1, 121))


@check("composition is associative")
def _(rng, cases):
    for _ in range(cases):
        a, b, c = (random_cofmap(rng) for _ in range(3))
        yield compose(compose(a, b), c) == compose(a, compose(b, c))


@check("inverse axioms and commuting idempotents")
def _(rng, cases):
    for _ in range(cases):
        g, h = random_cofmap(rng), random_cofmap(rng)
        gi = invert(g)
        yield compose(compose(g, gi), g) == g and compose(compose(gi, g), gi) == gi
        yield invert(compose(g, h)) == compose(invert(h), gi)
        e, f = random_idempotent(rng), random_idempotent(rng)
        ef = compose(e, f)
        yield ef == compose(f, e) and is_idempotent(ef)
        yield set(ef.dom_gaps) == set(e.dom_gaps) | set(f.dom_gaps)


@check("shift is additive and the tail law holds")
def _(rng, cases):
    # the standard bicyclic copy realises every shift
    for n in range(-10, 11):
        yield shift(embed(Bicyclic(max(-n, 0), max(n, 0)))) == n
    for _ in range(cases):
        g, h = random_cofmap(rng), random_cofmap(rng)
        yield shift(compose(g, h)) == shift(g) + shift(h)
        t, f = shift_threshold(g), shift(g)
        for i in (t, t + 1, t + 17):
            yield evaluate(g, i) == i + f
        max_d = g.dom_gaps[-1] if g.dom_gaps else 0
        max_r = g.ran_gaps[-1] if g.ran_gaps else 0
        if t > 1:
            # the threshold is minimal: t - 1 is not past the gaps of both sides
            y = evaluate(g, t - 1)
            yield t - 1 <= max_d or y is None or y <= max_r


@check("Green relations match their idempotent forms; H is equality")
def _(rng, cases):
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
        yield r == (compose(a, invert(a)) == compose(b, invert(b)))
        yield l == (compose(invert(a), a) == compose(invert(b), b))
        yield (r and l) == (a == b) and green_h(a, b) == (a == b) and green_d(a, b)


@check("simplicity witness satisfies g*a*d == b")
def _(rng, cases):
    for _ in range(cases):
        a, b = random_cofmap(rng), random_cofmap(rng)
        g, d = simplicity_witness(a, b)
        yield compose(compose(g, a), d) == b


@check("connecting map links any two idempotents")
def _(rng, cases):
    for _ in range(cases):
        e, i = random_idempotent(rng), random_idempotent(rng)
        a = connect_idempotents(e, i)
        yield compose(a, invert(a)) == e and compose(invert(a), a) == i
    # uniqueness: every map with gaps in [1,6], with the two idempotents it links
    links = [(compose(x, invert(x)), compose(invert(x), x), x) for x in all_cofmaps(6)]
    for _ in range(max(1, cases // 100)):
        e = random_idempotent(rng, max_gap=6, max_size=3)
        i = random_idempotent(rng, max_gap=6, max_size=3)
        yield [x for left, right, x in links if left == e and right == i] == [connect_idempotents(e, i)]


@check("natural order reverses gap inclusion; gap map is a hom")
def _(rng, cases):
    for _ in range(cases):
        e, f = random_idempotent(rng), random_idempotent(rng)
        leq = natural_leq(e, f)
        yield leq == (compose(e, f) == e)
        yield leq == (set(semilattice_iso(e)) >= set(semilattice_iso(f)))
        yield set(semilattice_iso(compose(e, f))) == set(semilattice_iso(e)) | set(semilattice_iso(f))


@check("up-set size is 2**gaps")
def _(rng, cases):
    for _ in range(max(1, cases // 10)):
        e = random_idempotent(rng, max_size=12)
        ups = list(iter_up_set(e))
        yield len(ups) == 2 ** len(e.dom_gaps) and len(set(ups)) == len(ups)
        yield all(natural_leq(e, u) for u in ups)
    for _ in range(cases):
        # a 20-step strictly descending chain, closing one more point a step
        e = random_idempotent(rng)
        closed = islice((x for x in range(1, 1000) if x not in e.dom_gaps), 20)
        descent = accumulate(closed, lambda above, x: compose(above, CofMap((x,), (x,))), initial=e)
        yield all(natural_leq(below, above) and below != above for above, below in pairwise(descent))


@check("canonical order implies equal shift and pointwise restriction")
def _(rng, cases):
    for _ in range(cases):
        b = random_cofmap(rng)
        e = random_idempotent(rng)
        a = compose(b, e)  # a is a restriction of b by construction
        yield canonical_leq(a, b)
        yield shift(a) == shift(b)
        yield all(x in a.dom_gaps or evaluate(a, x) == evaluate(b, x) for x in range(1, 40))
        # pairs seldom in the order, with b's shift: a with an image gap
        # moved to a free point, and a random map with n - f and n gaps
        if a.ran_gaps:
            gone = rng.choice(a.ran_gaps)
            new = rng.choice([x for x in range(1, 41) if x not in a.ran_gaps])
            c = CofMap(a.dom_gaps, sorted({*a.ran_gaps, new} - {gone}))
            yield canonical_leq(c, b) == restricts(c, b)
        f = shift(b)
        n = rng.randint(max(0, f), min(10, 10 + f))
        c = CofMap(sorted(rng.sample(range(1, 31), n - f)), sorted(rng.sample(range(1, 31), n)))
        yield canonical_leq(c, b) == restricts(c, b)


@check("translation equations match exhaustive search")
def _(rng, cases):
    # factor gaps within [1,4], at most 2 per side, and target gaps within
    # [1,4]: every solution then has its gaps within [1,6] (checked over all
    # such pairs), so the universe is covering
    universe = all_cofmaps(6)

    @functools.cache
    def by_product(side, a):
        """Every map x of the universe, filed under a*x (right) or x*a (left)."""
        table = {}
        for x in universe:
            table.setdefault(compose(a, x) if side == "right" else compose(x, a), []).append(x)
        return table

    for _ in range(max(1, cases // 30)):
        a = random_cofmap(rng, max_gap=4, max_size=2)
        for side, solve in (("right", solve_right), ("left", solve_left)):
            b = random_cofmap(rng, max_gap=4, max_size=2)
            if rng.random() < 0.75:  # a product, whose set is not empty and often has several members
                x = random_cofmap(rng, max_gap=4, max_size=2)
                product = compose(a, x) if side == "right" else compose(x, a)
                if max(product.dom_gaps + product.ran_gaps, default=0) <= 4:
                    b = product
            want = sorted(by_product(side, a).get(b, ()), key=lambda m: (m.dom_gaps, m.ran_gaps))
            sols = solve(a, b)
            yield list(sols) == want and sols.count == len(want)


@check("bicyclic product matches word rewriting")
def _(rng, cases):
    for _ in range(cases):
        x = Bicyclic(rng.randint(0, 20), rng.randint(0, 20))
        y = Bicyclic(rng.randint(0, 20), rng.randint(0, 20))
        z = x * y
        yield (z.m, z.n) == rewrite_product(x.m, x.n, y.m, y.n)
        yield embed(z) == compose(embed(x), embed(y))
        yield as_bicyclic(embed(z)) == z and as_bicyclic(embed(x)) == x


@check("fresh bicyclic copy avoids the standard one")
def _(rng, cases):
    for _ in range(cases):
        e = random_idempotent(rng)
        unity, up, down = fresh_bicyclic(e)
        yield natural_leq(unity, e) and compose(up, down) == unity
        yield as_bicyclic(unity) is None
        pow_up = [unity]
        for _ in range(9):
            pow_up.append(compose(pow_up[-1], up))
        s, t = rng.randint(0, 6), rng.randint(0, 6)
        s2, t2 = rng.randint(0, 3), rng.randint(0, 3)
        yield as_bicyclic(compose(invert(pow_up[s]), pow_up[t])) is None
        # the copy obeys the bicyclic relation: q^s p^t q^s2 p^t2 == q^(s+s2-k) p^(t+t2-k)
        k = min(t, s2)
        lhs = compose(compose(invert(pow_up[s]), pow_up[t]), compose(invert(pow_up[s2]), pow_up[t2]))
        yield lhs == compose(invert(pow_up[s + s2 - k]), pow_up[t + t2 - k])


@check("tail projection glues the map to its standard stand-in")
def _(rng, cases):
    for _ in range(cases):
        g = random_cofmap(rng)
        mu, eps = tail_projection(g)
        yield as_bicyclic(mu) is not None and as_bicyclic(eps) is not None
        yield compose(g, eps) == compose(mu, eps) and compose(eps, g) == compose(eps, mu)


@check("absorbing and dominated standard idempotents")
def _(rng, cases):
    for _ in range(cases):
        e = random_idempotent(rng)
        eps = standard_below(e)
        yield compose(e, eps) == eps and as_bicyclic(eps) is not None and natural_leq(eps, e)
        psi = tail_identity(len(eps.dom_gaps) + 1 + rng.randint(0, 5))
        yield natural_leq(psi, eps) and as_bicyclic(compose(psi, eps)) is not None


@check("conjugates of the tail idempotent stay standard")
def _(rng, cases):
    for _ in range(cases):
        g = random_cofmap(rng)
        eps, left, right = conjugation_witness(g)
        for c in (left, right):
            yield is_idempotent(c) and as_bicyclic(c) is not None
        gi = invert(g)
        yield left == compose(compose(g, eps), gi) and right == compose(compose(gi, eps), g)


@check("group congruence is the shift kernel, with working witnesses")
def _(rng, cases):
    for _ in range(cases):
        a, b = random_cofmap(rng), random_cofmap(rng)
        same_fiber = shift(a) == shift(b)
        w = congruence_witnesses(a, b)
        yield group_congruent(a, b) == same_fiber and (w is None) != same_fiber
        if w is not None:
            l, r = w
            yield as_bicyclic(l) is not None and as_bicyclic(r) is not None
            yield compose(l, a) == compose(l, b) and compose(a, r) == compose(b, r)
        else:
            # no idempotent merges maps from different fibers: neither a
            # tail identity nor a random one
            eps = tail_identity(max(shift_threshold(a), shift_threshold(b)) + 5)
            yield compose(eps, a) != compose(eps, b)
            e = random_idempotent(rng)
            yield compose(e, a) != compose(e, b) and compose(a, e) != compose(b, e)


@check("zero and adjunction semigroups are associative")
def _(rng, cases):
    def pick_zero():
        return ZERO if rng.random() < 0.3 else random_cofmap(rng)

    def pick_adj():
        return rng.randint(-10, 10) if rng.random() < 0.4 else random_cofmap(rng)

    for _ in range(cases):
        x, y, z = pick_zero(), pick_zero(), pick_zero()
        yield zero_mul(zero_mul(x, y), z) == zero_mul(x, zero_mul(y, z))
        u, v, w = pick_adj(), pick_adj(), pick_adj()
        yield adj_mul(adj_mul(u, v), w) == adj_mul(u, adj_mul(v, w))


@check("neighborhood bases filter correctly")
def _(rng, cases):
    for _ in range(cases):
        g, h = random_cofmap(rng), random_cofmap(rng)
        i = rng.randint(1, 6)
        yield not in_zero_nbhd(i + 1, g) or in_zero_nbhd(i, g)
        yield in_zero_nbhd(i, g) == in_zero_nbhd(i, invert(g))
        yield not (in_zero_nbhd(i, g) and in_zero_nbhd(i, h)) or in_zero_nbhd(i, compose(g, h))
        elem = random_cofmap(rng)
        # in a third of the draws elem extends the anchor, a restriction of it
        anchor = compose(random_idempotent(rng), elem) if rng.randrange(3) == 0 else random_cofmap(rng)
        x = shift(anchor)
        want = shift(elem) == x and not restricts(anchor, elem)
        yield in_adj_nbhd(x, anchor, elem) == want and in_adj_nbhd(x, anchor, x)


@check("translation keeps zero neighborhoods stable")
def _(rng, cases):
    # g misses j points a side or more, so the premise holds, and has some
    # image gaps on domain gaps of a and some domain gaps on image gaps of a,
    # where g * a and a * g miss the fewest points
    for _ in range(cases):
        i, a = rng.randint(1, 6), random_cofmap(rng, max_size=5)
        j = zero_stability_bound(i, a)
        g = CofMap(random_gapset_holding(rng, j, a.ran_gaps), random_gapset_holding(rng, j, a.dom_gaps))
        yield in_zero_nbhd(i, compose(g, a)) and in_zero_nbhd(i, compose(a, g))


@check("expression round-trip through the printer")
def _(rng, cases):
    from . import cli  # deferred: only this check needs the parser

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
        yield cli.eval_expr(cli.parse(cli.render(v))) == v


def run_selftest(seed: int = 1, cases: int = 300) -> list[tuple[str, int]]:
    """``(name, failures)`` for every check, in registry order."""
    return [(name, fn(rng_for(seed, name), cases)) for name, fn in CHECKS]
