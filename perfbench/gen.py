"""Seeded input generators.  The benchmark makes its own inputs so that a
change to the program's samplers cannot change what is measured."""

from __future__ import annotations

DESK_MAX_GAP = 30
DESK_MAX_SIZE = 10


def gapset(rng, k: int, hi: int, lo: int = 1) -> tuple:
    """``k`` distinct points of [lo, hi], sorted."""
    return tuple(sorted(rng.sample(range(lo, hi + 1), k)))


def desk_gaps(rng, max_size: int = DESK_MAX_SIZE) -> tuple:
    return gapset(rng, rng.randint(0, max_size), DESK_MAX_GAP)


def desk_pair(rng, max_size: int = DESK_MAX_SIZE) -> tuple:
    """Gap pair of a desk-size map: gaps inside [1, 30], at most 10 a side."""
    return desk_gaps(rng, max_size), desk_gaps(rng, max_size)


def desk_idempotent(rng, max_size: int = DESK_MAX_SIZE) -> tuple:
    g = desk_gaps(rng, max_size)
    return g, g


def same_shift(rng, m) -> tuple:
    """A random desk pair with the same eventual shift as ``m``."""
    f = len(m[1]) - len(m[0])
    k = rng.randint(max(0, -f), min(DESK_MAX_SIZE, DESK_MAX_SIZE - f))
    return gapset(rng, k, DESK_MAX_GAP), gapset(rng, k + f, DESK_MAX_GAP)


def clusters(rng, k: int, hi: int, runs: int = 8) -> tuple:
    """``k`` points in ``runs`` runs of consecutive integers inside [1, hi]."""
    sizes = [k // runs + (i < k % runs) for i in range(runs)]
    slack = hi - k
    cuts = sorted(rng.sample(range(slack + 1), runs))
    out, used = [], 0
    for size, cut in zip(sizes, cuts):
        start = cut + used + 1
        out.extend(range(start, start + size))
        used += size
    return tuple(out)


def interleave(rng, k: int, hi: int) -> tuple:
    """Two disjoint ``k``-sets inside [1, hi] that alternate."""
    pts = gapset(rng, 2 * k, hi)
    return pts[0::2], pts[1::2]


def overlapping(rng, base: tuple, share: float, hi: int) -> tuple:
    """A set of len(base) points sharing about ``share`` of them with base."""
    keep = set(rng.sample(base, round(share * len(base))))
    rest = [x for x in range(1, hi + 1) if x not in base]
    keep.update(rng.sample(rest, len(base) - len(keep)))
    return tuple(sorted(keep))


def render(v) -> str:
    """Expression-language text of an oracle value (see the CLI grammar)."""
    kind, x = v
    if kind == "map":
        return "m[%s;%s]" % (",".join(map(str, x[0])), ",".join(map(str, x[1])))
    if kind == "bic":
        return f"b[{x[0]},{x[1]}]"
    if kind == "int":
        return f"z[{x}]"
    return "O"
