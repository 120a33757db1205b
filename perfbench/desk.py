"""desk-mix: a seeded stream of desk-size operations across core, green,
bicyclic and extensions (gaps inside [1, 30], at most 10 a side).

Per-call overhead dominates here, not gap-count complexity.  The counts
of each kind of operation are fixed per round and only the operands come
from the seed, so the cost of a round hardly depends on the seed.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from math import comb

import oracle as o
import props
from props import gaps as gp
from gen import desk_gaps, desk_idempotent, desk_pair, gapset, render, same_shift
from harness import Op, Plan, Process, Slot
from oracle import expect

SLOT_OPS = 50
PRODUCERS = {
    "construct": 150, "compose": 200, "associate": 40, "invert": 100,
    "connect": 40, "simplicity": 40, "solve": 16, "bicyclic_mul": 200,
    "embed": 60, "tail_projection": 40, "conjugation": 40, "congruence": 40,
    "zero_mul": 60, "adj_mul": 60,
}
QUERIES = {
    "evaluate": 200, "preimage": 100, "canonical_leq": 80, "natural_leq": 80,
    "green": 160, "as_bicyclic": 60, "zero_nbhd": 60, "adj_nbhd": 60,
}
# standard-copy pairs (p, q) placed at a seeded offset: C(p+q, p) <= 70 solutions
SOLVE_PQ = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
PROCESS_FACTORS = 8


def build(rng, L, lib) -> Plan:
    M = lambda pair: lib.CofMap(*pair)  # noqa: E731
    solve_specs = [(side, p, q) for side in ("right", "left") for p, q in SOLVE_PQ]
    calls = defaultdict(count)

    def turn(kind, n):
        """Cycles 0..n-1 over the calls of one maker: the branches a kind of
        operation takes come in fixed shares, so a seed moves no cost."""
        return next(calls[kind]) % n

    def construct():
        d, r = desk_pair(rng)
        return Op(L.construct, (d, r), lambda out: expect(gp(out) == (d, r), "construct", d, r))

    def compose():
        g, h = M(desk_pair(rng)), M(desk_pair(rng))
        return Op(L.compose, (g, h), lambda out: props.compose(gp(g), gp(h), gp(out)))

    def associate():
        a, b, c = (M(desk_pair(rng)) for _ in range(3))

        def both_ways(a, b, c):
            return L.compose(L.compose(a, b), c), L.compose(a, L.compose(b, c))
        return Op(both_ways, (a, b, c),
                  lambda out: props.associative(gp(a), gp(b), gp(c), gp(out[0]), gp(out[1])))

    def invert():
        g = M(desk_pair(rng))
        return Op(L.invert, (g,), lambda out: props.invert(gp(g), gp(out), gp(lib.invert(out))))

    def connect():
        e, i = M(desk_idempotent(rng)), M(desk_idempotent(rng))
        return Op(L.connect_idempotents, (e, i), lambda out: props.connect(gp(e), gp(i), gp(out)))

    def simplicity():
        a, b = M(desk_pair(rng)), M(desk_pair(rng))
        return Op(L.simplicity_witness, (a, b),
                  lambda out: props.simple(gp(a), gp(b), gp(out[0]), gp(out[1])))

    def solve():
        side, p, q = solve_specs.pop()
        k = rng.randint(0, 20)
        a, b = M(((), tuple(range(k + 1, k + p + 1)))), M(((), tuple(range(k + 1, k + q + 1))))
        if side == "left":
            a, b = M(gp(a)[::-1]), M(gp(b)[::-1])

        def check(out):
            sols = [gp(s) for s in out.solutions]
            expect(len(sols) == comb(p + q, p), "desk solve count is not C(p+q, p)", side, p, q)
            props.solutions(side, gp(a), gp(b), sols)
        return Op(L.solve_right if side == "right" else L.solve_left, (a, b), check)

    def bicyclic_mul():
        x, y = (lib.Bicyclic(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(2))
        return Op(L.bicyclic_mul, (x, y), lambda out: expect(
            (out.m, out.n) == o.bicyclic_product((x.m, x.n), (y.m, y.n)), "bicyclic product", x, y, out))

    def embed():
        x = lib.Bicyclic(rng.randint(0, 15), rng.randint(0, 15))
        return Op(L.embed, (x,), lambda out: expect(gp(out) == o.standard(x.m, x.n), "embed", x, out))

    def tail_projection():
        g = M(desk_pair(rng))
        return Op(L.tail_projection, (g,), lambda out: props.tail_projection(gp(g), gp(out[0]), gp(out[1])))

    def conjugation():
        g = M(desk_pair(rng))
        return Op(L.conjugation_witness, (g,),
                  lambda out: props.conjugation(gp(g), *(gp(c) for c in out)))

    def congruence():
        a = desk_pair(rng)
        b = same_shift(rng, a) if turn("congruence", 2) else desk_pair(rng)
        return Op(L.congruence_witnesses, (M(a), M(b)), lambda out: props.congruence(
            a, b, None if out is None else (gp(out[0]), gp(out[1]))))

    def zero_or_map(zero):
        return lib.ZERO if zero else M(desk_pair(rng))

    def zero_mul():
        i = turn("zero_mul", 4)
        x, y = zero_or_map(i == 0), zero_or_map(i == 1)

        def check(out):
            if lib.ZERO in (x, y):
                expect(out is lib.ZERO, "zero does not absorb", x, y, out)
            else:
                props.compose(gp(x), gp(y), gp(out))
        return Op(L.zero_mul, (x, y), check)

    def adj_mul():
        i = turn("adj_mul", 3)
        x, y = (rng.randint(-20, 20) if i == j else M(desk_pair(rng)) for j in range(2))

        def check(out):
            if isinstance(x, int) or isinstance(y, int):
                want = sum(v if isinstance(v, int) else o.shift(gp(v)) for v in (x, y))
                expect(out == want, "adjunction product of an integer", x, y, out)
            else:
                props.compose(gp(x), gp(y), gp(out))
        return Op(L.adj_mul, (x, y), check)

    def evaluate():
        g, x = desk_pair(rng), rng.randint(1, 45)
        return Op(L.evaluate, (M(g), x), lambda out: expect(out == o.image_of(g, x), "evaluate", g, x, out))

    def preimage():
        g, v = desk_pair(rng), rng.randint(1, 45)
        return Op(L.preimage, (M(g), v),
                  lambda out: expect(out == o.image_of(o.inverse(g), v), "preimage", g, v, out))

    def canonical_leq():
        b = desk_pair(rng)
        a = o.restrict(b, gapset(rng, rng.randint(0, 3), 35)) if turn("canonical_leq", 2) else desk_pair(rng)
        return Op(L.canonical_leq, (M(a), M(b)),
                  lambda out: expect(out == o.restricts(a, b), "canonical_leq", a, b, out))

    def natural_leq():
        f = desk_idempotent(rng, 7)
        e = tuple(sorted(set(f[0]) | set(gapset(rng, 3, 30)))) if turn("natural_leq", 2) else desk_gaps(rng)
        e = (e, e)
        return Op(L.natural_leq, (M(e), M(f)),
                  lambda out: expect(out == o.dom_within(e, f), "natural_leq", e, f, out))

    def green():
        a = desk_pair(rng)
        i = turn("green", 8)
        rel = "RLHD"[i % 4]
        b = {"R": (a[0], desk_gaps(rng)), "L": (desk_gaps(rng), a[1]),
             "H": a, "D": desk_pair(rng)}[rel] if i < 4 else desk_pair(rng)
        want = {"R": lambda: o.dom_within(a, b) and o.dom_within(b, a),
                "L": lambda: o.dom_within(o.inverse(a), o.inverse(b))
                and o.dom_within(o.inverse(b), o.inverse(a)),
                "H": lambda: o.restricts(a, b) and o.restricts(b, a),
                "D": lambda: True}[rel]
        fn = {"R": L.green_r, "L": L.green_l, "H": L.green_h, "D": L.green_d}[rel]
        return Op(fn, (M(a), M(b)), lambda out: expect(out == want(), f"green {rel}", a, b, out))

    def as_bicyclic():
        g = o.standard(rng.randint(0, 12), rng.randint(0, 12)) if turn("as_bicyclic", 2) else desk_pair(rng)

        def check(out):
            if o.is_standard(g):
                expect(out is not None and (out.m, out.n) == (len(g[0]), len(g[1])), "as_bicyclic", g, out)
            else:
                expect(out is None, "as_bicyclic of a non-standard map", g, out)
        return Op(L.as_bicyclic, (M(g),), check)

    def zero_nbhd():
        i, x = rng.randint(1, 6), zero_or_map(turn("zero_nbhd", 5) == 0)
        return Op(L.in_zero_nbhd, (i, x), lambda out: props.zero_nbhd(
            i, None if x is lib.ZERO else gp(x), out))

    def adj_nbhd():
        pick = turn("adj_nbhd", 10)
        if pick < 3:
            elem = desk_pair(rng)
            anchor = o.restrict(elem, gapset(rng, rng.randint(0, 2), 35))  # elem extends it
        else:
            anchor = desk_pair(rng)
            f = o.shift(anchor)
            elem = rng.choice([f, f + 1]) if pick < 5 else same_shift(rng, anchor)
        point = o.shift(anchor)
        arg = elem if isinstance(elem, int) else M(elem)
        return Op(L.in_adj_nbhd, (point, M(anchor), arg),
                  lambda out: props.adj_nbhd(point, anchor, elem, out))

    makers = locals()
    slots = []
    for side, counts in (("ops", PRODUCERS), ("query", QUERIES)):
        ops = [makers[kind]() for kind, n in counts.items() for _ in range(n)]
        rng.shuffle(ops)
        slots += [Slot(side, ops[i:i + SLOT_OPS]) for i in range(0, len(ops), SLOT_OPS)]

    factors = [desk_pair(rng) for _ in range(PROCESS_FACTORS)]
    text = " * ".join(render(("map", f)) for f in factors) + "'"
    want = render(("map", o.product(*factors[:-1], o.inverse(factors[-1])))) + "\n"

    def check_process(code, out, err):
        expect(code == 0 and out == want and not err, "cofmap eval process", text, code, out, err)
    return Plan(slots, Process(["eval", text], check_process))
