"""Independent oracles for the benchmark's correctness checks.

A map is handled here as a pair of gap tuples ``(dom_gaps, ran_gaps)`` and
is only ever turned into explicit points: the k-th domain point is paired
with the k-th image point inside a finite window, products are composed
pointwise through dicts, bicyclic products are found by rewriting words,
and solution sets come from a closed form or from exhaustive search.
Nothing here calls the library's gap-set formulas, so a fault in them
cannot hide in the oracle.
"""

from __future__ import annotations

from itertools import combinations


class CheckFailed(AssertionError):
    """A program output disagreed with an oracle or a required property."""


def expect(ok: bool, what: str, *detail):
    if not ok:
        raise CheckFailed(what + "".join(f" {d!r}" for d in detail)[:400])


# -- maps as explicit points ------------------------------------------------

def horizon(*maps) -> int:
    """A bound that every gap of any product of ``maps`` (and of their
    inverses) stays below: the largest gap plus the total gap count.

    A product chain misses a domain point ``d`` only where some factor's
    domain gap sits at most ``d - (domain gaps before it)`` along the way,
    and an image point only where the images it passes are pushed up by at
    most the image gaps after it; both are covered by this sum.
    """
    top = max((max(g) for m in maps for g in m if g), default=0)
    return top + sum(len(g) for m in maps for g in m) + 1


def window(m, n: int) -> dict:
    """``m`` as a dict on its domain points in [1, n], by rank pairing."""
    dom_block, ran_block = set(m[0]), set(m[1])
    out, y = {}, 0
    for x in range(1, n + 1):
        if x in dom_block:
            continue
        y += 1
        while y in ran_block:
            y += 1
        out[x] = y
    return out


def gaps_of(points: dict, bound: int) -> tuple:
    """Gap pair of a map known pointwise, when all its gaps are <= bound and
    every point mapping at or below ``bound`` is in ``points``."""
    image = set(points.values())
    return (tuple(x for x in range(1, bound + 1) if x not in points),
            tuple(y for y in range(1, bound + 1) if y not in image))


def product(*maps) -> tuple:
    """Gap pair of the left-to-right product (apply the first map first)."""
    m = horizon(*maps)
    # a point <= 2m reaches at most m + (all image gaps) < 2m on the way
    points = window(maps[0], 2 * m)
    for f in maps[1:]:
        w = window(f, 2 * m)
        points = {x: w[y] for x, y in points.items() if y in w}
    return gaps_of(points, m)


def inverse(m) -> tuple:
    """Gap pair of the inverse, read off the swapped points."""
    n = horizon(m)
    points = {y: x for x, y in window(m, 2 * n).items()}
    return gaps_of(points, n)


def image_of(m, x: int):
    """Image of the point ``x``, or None when ``x`` is a domain gap."""
    return window(m, x).get(x)


def shift(m) -> int:
    """Eventual translation: the difference of the gap counts."""
    return len(m[1]) - len(m[0])


def threshold(m) -> int:
    """Least ``t`` past every domain gap whose image clears every image gap."""
    n = 2 * horizon(m)
    points = window(m, n)
    max_d = max(m[0], default=0)
    max_r = max(m[1], default=0)
    return next(t for t in range(max_d + 1, n + 1) if points[t] > max_r)


def is_idempotent(m) -> bool:
    return all(x == y for x, y in window(m, 2 * horizon(m)).items())


def is_standard(m) -> bool:
    """Both gap sets are initial segments {1..k}."""
    return all(g == tuple(range(1, len(g) + 1)) for g in m)


def restricts(a, b) -> bool:
    """``a`` is ``b`` cut down to a smaller domain (the canonical order)."""
    n = 2 * horizon(a, b)
    wb = window(b, n)
    return all(wb.get(x) == y for x, y in window(a, n).items())


def dom_within(e, f) -> bool:
    """The domain of ``e`` lies inside the domain of ``f``."""
    n = 2 * horizon(e, f)
    wf = window(f, n)
    return all(x in wf for x in window(e, n))


def standard(m: int, n: int) -> tuple:
    """The standard copy of the bicyclic word d^m u^n: i -> i - m + n."""
    return tuple(range(1, m + 1)), tuple(range(1, n + 1))


# -- the bicyclic monoid by word rewriting ---------------------------------

def bicyclic_product(x, y) -> tuple:
    """``x * y`` on pairs (m, n) read as words d^m u^n with ``ud = 1``."""
    word = "d" * x[0] + "u" * x[1] + "d" * y[0] + "u" * y[1]
    while "ud" in word:
        word = word.replace("ud", "")
    return word.count("d"), word.count("u")


# -- translation equations --------------------------------------------------

def satisfies(side: str, a, b, x) -> bool:
    """``a * x == b`` (right) or ``x * a == b`` (left), pointwise."""
    return (product(a, x) if side == "right" else product(x, a)) == (tuple(b[0]), tuple(b[1]))


def brute_solutions(side: str, a, b) -> list:
    """Every solution, by trying every candidate gap pair that could be one.

    For ``a * x == b``: x must be defined with value b(y) at a(y) for y in
    dom b, so its domain gaps are the points a(y) for y outside dom b plus
    any subset of the points a misses, and its image gaps a subset of b's.
    Each candidate is tested pointwise; the left side is the mirror image.
    """
    if side == "left":
        return sorted((r, d) for d, r in brute_solutions("right", (a[1], a[0]), (b[1], b[0])))
    n = 2 * horizon(a, b)
    wa = window(a, n)
    barred = {wa[y] for y in b[0] if y in wa}
    out = []
    for i in range(len(a[1]) + 1):
        for extra in combinations(a[1], i):
            dom = tuple(sorted(barred | set(extra)))
            for j in range(len(b[1]) + 1):
                for ran in combinations(b[1], j):
                    if satisfies("right", a, b, (dom, ran)):
                        out.append((dom, ran))
    out.sort()
    return out


def restrict(m, points) -> tuple:
    """Gap pair of ``m`` cut down by removing ``points`` from its domain."""
    n = horizon(m) + max(points, default=0)
    w = window(m, 2 * n)
    for x in points:
        w.pop(x, None)
    return gaps_of(w, n)
