"""wide-maps: maps with thousands of gaps a side, in several shapes.

The quadratic gap-set composition and the linear rank scan behind
``evaluate``/``preimage`` dominate here.  Compose-side operations feed
``ops_per_s`` and point queries ``query_per_s``, so a change that speeds
one side and slows the other shows.  Shapes and sizes are fixed per
round; the seed only places the gaps.
"""

from __future__ import annotations

import oracle as o
import props
from props import gaps as gp
from gen import clusters, gapset, interleave, overlapping, render
from harness import Op, Plan, Process, Slot
from oracle import expect

K = 1000            # gaps a side for the 1:1 shapes
BIG = 2500          # the large side of the size-ratio pairs
SPREAD = 4          # gaps of a k-gap side lie inside [1, SPREAD * k]
QUERY_SLOT = 50
QUERIES_PER_MAP = 200
PROCESS_K = 600


def shapes(rng):
    """(name, left pair, right pair): how the left map's image gaps meet
    the right map's domain gaps, and the ratio of the two maps' sizes."""
    hi = SPREAD * K
    g_ran, h_dom = interleave(rng, K, 2 * hi)
    out = [("interleaved", (gapset(rng, K, hi), g_ran), (h_dom, gapset(rng, K, hi)))]
    out.append(("clustered", (clusters(rng, K, hi), clusters(rng, K, hi)),
                (clusters(rng, K, hi), clusters(rng, K, hi))))
    seg = tuple(range(1, K + 1))
    out.append(("initial-segments", (seg, tuple(range(1, K // 2 + 1))), (seg, seg)))
    base = gapset(rng, K, hi)
    out.append(("heavy-overlap", (gapset(rng, K, hi), base),
                (overlapping(rng, base, 0.9, hi), gapset(rng, K, hi))))
    out.append(("light-overlap", (gapset(rng, K, hi), gapset(rng, K, hi)),
                (gapset(rng, K, 3 * hi, 2 * hi), gapset(rng, K, hi))))
    for ratio in (10, 100, 1000):
        small = BIG // ratio
        big_pair = (gapset(rng, BIG, SPREAD * BIG), gapset(rng, BIG, SPREAD * BIG))
        small_pair = (gapset(rng, small, SPREAD * BIG), gapset(rng, small, SPREAD * BIG))
        out.append((f"ratio-{ratio}:1", big_pair, small_pair))
        out.append((f"ratio-1:{ratio}", small_pair, big_pair))
    return out


def build(rng, L, lib) -> Plan:
    M = lambda pair: lib.CofMap(*pair)  # noqa: E731
    slots = []
    pairs = shapes(rng)
    for _, g, h in pairs:
        slots.append(Slot("ops", [Op(L.compose, (M(g), M(h)),
                                     lambda out, g=g, h=h: props.compose(g, h, gp(out)))]))

    chain = [(gapset(rng, 800, 3200), gapset(rng, 800, 3200)) for _ in range(3)]

    def product_chain(*maps):
        out = maps[0]
        for m in maps[1:]:
            out = L.compose(out, m)
        return out
    slots.append(Slot("ops", [Op(product_chain, tuple(map(M, chain)),
                                 lambda out: expect(gp(out) == o.product(*chain), "chain", len(chain)))]))

    b = (gapset(rng, 1000, 4000), gapset(rng, 1000, 4000))
    for a in (o.restrict(b, gapset(rng, 200, 4000)), (gapset(rng, 1000, 4000), gapset(rng, 1000, 4000))):
        slots.append(Slot("ops", [Op(L.canonical_leq, (M(a), M(b)), lambda out, a=a: expect(
            out == o.restricts(a, b), "wide canonical_leq", len(a[0]), len(b[0])))]))

    small_ops = []
    for _, g, h in pairs[:4]:
        small_ops.append(Op(L.invert, (M(g),), lambda out, g=g: props.invert(g, gp(out), gp(lib.invert(out)))))
        small_ops.append(Op(L.shift_threshold, (M(h),), lambda out, h=h: expect(
            out == o.threshold(h), "shift_threshold", out)))
        small_ops.append(Op(L.tail_projection, (M(g),), lambda out, g=g: props.tail_projection(
            g, gp(out[0]), gp(out[1]))))
    slots.append(Slot("ops", small_ops))

    memo = {}

    def oracle_points(g):
        # built on the first check, so neither set-up nor the timed loop pays for it
        if g not in memo:
            points = o.window(g, 2 * o.horizon(g))
            memo[g] = points, {y: x for x, y in points.items()}
        return memo[g]

    queries = []
    for _, g, _h in pairs[:1] + pairs[5:7]:
        top = max(max(g[0]), max(g[1])) + 40
        m = M(g)
        for k in range(QUERIES_PER_MAP):
            # one seeded point in each of QUERIES_PER_MAP equal strips of [1, top]:
            # spread across and beyond the gaps, and the scan lengths sum alike on every seed
            x, v = (1 + int((k + rng.random()) * top / QUERIES_PER_MAP) for _ in range(2))
            queries.append(Op(L.evaluate, (m, x), lambda out, g=g, x=x: expect(
                out == oracle_points(g)[0].get(x), "wide evaluate", x, out)))
            queries.append(Op(L.preimage, (m, v), lambda out, g=g, v=v: expect(
                out == oracle_points(g)[1].get(v), "wide preimage", v, out)))
    rng.shuffle(queries)
    slots += [Slot("query", queries[i:i + QUERY_SLOT]) for i in range(0, len(queries), QUERY_SLOT)]

    g, h = (gapset(rng, PROCESS_K, 4 * PROCESS_K), gapset(rng, PROCESS_K, 4 * PROCESS_K)), \
        (gapset(rng, PROCESS_K, 4 * PROCESS_K), gapset(rng, PROCESS_K, 4 * PROCESS_K))
    text = render(("map", g)) + " * " + render(("map", h))
    want = []

    def check_process(code, out, err):
        if not want:
            want.append(render(("map", o.product(g, h))) + "\n")
        expect(code == 0 and out == want[0] and not err, "wide cofmap eval process", code, err)
    return Plan(slots, Process(["eval", text], check_process))

