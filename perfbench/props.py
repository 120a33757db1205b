"""Checks of program outputs against the oracles, on plain gap pairs.

Each function raises :class:`oracle.CheckFailed` when an output is wrong.
Where the answer is unique the output is compared with the oracle's
answer; where the method may pick among several right answers (witnesses,
stand-ins) the output is checked for the properties that define them.
"""

from __future__ import annotations

from math import comb

import oracle as o
from oracle import expect


def gaps(m):
    """The gap pair of a library map."""
    return m.dom_gaps, m.ran_gaps


def compose(g, h, out):
    expect(out == o.product(g, h), "compose disagrees with pointwise composition", g, h, out)
    expect(o.shift(out) == o.shift(g) + o.shift(h), "shift is not additive", g, h, out)


def associative(a, b, c, left, right):
    expect(left == right, "composition is not associative", a, b, c)
    expect(left == o.product(a, b, c), "triple product disagrees with pointwise", a, b, c)


def invert(g, out, back):
    expect(out == o.inverse(g), "invert disagrees with the swapped points", g, out)
    expect(back == g, "invert is not an involution", g, back)


def idempotent(e, what):
    expect(o.is_idempotent(e), f"{what} is not an idempotent", e)


def connect(e, i, a):
    inv = o.inverse(a)
    expect(o.product(a, inv) == e and o.product(inv, a) == i,
           "connecting map does not link the idempotents", e, i, a)


def simple(a, b, g, d):
    expect(o.product(g, a, d) == b, "simplicity witness fails g*a*d == b", a, b, g, d)


def tail_projection(g, mu, eps):
    idempotent(eps, "gluing idempotent")
    expect(o.is_standard(mu) and o.is_standard(eps), "stand-in not in the standard copy", mu, eps)
    expect(o.shift(mu) == o.shift(g), "stand-in has another shift", g, mu)
    expect(o.product(g, eps) == o.product(mu, eps) and o.product(eps, g) == o.product(eps, mu),
           "stand-in and map differ past the gluing idempotent", g, mu, eps)


def conjugation(g, eps, left, right):
    idempotent(eps, "conjugated idempotent")
    gi = o.inverse(g)
    expect(left == o.product(g, eps, gi) and right == o.product(gi, eps, g),
           "conjugates disagree with pointwise products", g, eps, left, right)
    for c in (left, right):
        expect(o.is_standard(c) and o.is_idempotent(c), "conjugate is not a standard idempotent", g, c)


def congruence(a, b, witnesses):
    if o.shift(a) != o.shift(b):
        expect(witnesses is None, "witnesses given for maps with different shifts", a, b)
        return
    expect(witnesses is not None, "no witnesses for maps with equal shifts", a, b)
    left, right = witnesses
    idempotent(left, "left witness")
    idempotent(right, "right witness")
    expect(o.product(left, a) == o.product(left, b) and o.product(a, right) == o.product(b, right),
           "congruence witnesses do not identify the maps", a, b, left, right)


def fresh(e, unity, up, down):
    idempotent(unity, "fresh unity")
    expect(o.dom_within(unity, e), "fresh unity is not below e", e, unity)
    expect(not o.is_standard(unity), "fresh unity lies in the standard copy", unity)
    expect(o.product(up, down) == unity and down == o.inverse(up),
           "fresh generators do not multiply to the unity", up, down, unity)
    expect(not o.is_standard(up) and not o.is_standard(down), "fresh generator is standard", up)


def below(e, out):
    idempotent(out, "standard idempotent below e")
    expect(o.is_standard(out) and o.dom_within(out, e), "not a standard idempotent below e", e, out)


def increasing(sols):
    expect(all(s < t for s, t in zip(sols, sols[1:])),
           "solutions not distinct in strictly increasing lexicographic order")


def solutions(side, a, b, sols):
    """``sols`` are exactly the exhaustive search's solutions, in order, and
    each satisfies its equation pointwise."""
    increasing(sols)
    want = o.brute_solutions(side, a, b)
    expect(sols == want, "solution set differs from the oracle's", side, a, b, len(sols), len(want))
    for x in sols:
        expect(o.satisfies(side, a, b, x), "a listed solution fails its equation", side, a, b, x)


def standard_solutions(side, p, q, sols, sample):
    """Solutions of the standard-copy pair with p and q gaps, streamed.

    Distinct, increasing, C(p+q, p) of them and each of the closed form's
    shape means they are all of them; ``sample`` indices are also checked
    pointwise."""
    expect(len(sols) == comb(p + q, p), "solution count is not C(p+q, p)", side, p, q, len(sols))
    increasing(sols)
    a, b = o.standard(0, p), o.standard(0, q)
    if side == "left":
        a, b = o.inverse(a), o.inverse(b)
    for x in sols:
        d, r = x if side == "right" else (x[1], x[0])
        expect(set(d) <= set(range(1, p + 1)) and set(r) <= set(range(1, q + 1))
               and p - len(d) == q - len(r), "solution outside the closed form", side, p, q, x)
    for i in sample:
        expect(o.satisfies(side, a, b, sols[i]), "a listed solution fails its equation", side, p, q, sols[i])


def zero_nbhd(i, x, got):
    want = True if x is None else (len(x[0]) >= i and len(x[1]) >= i)
    expect(got == want, "zero-neighborhood membership is wrong", i, x, got)


def adj_nbhd(point, anchor, elem, got):
    if isinstance(elem, int):
        want = elem == point
    else:
        want = o.shift(elem) == point and not o.restricts(anchor, elem)
    expect(got == want, "integer-neighborhood membership is wrong", point, anchor, elem, got)
