"""Green's relations and structural witnesses for the cofinite-map monoid.

The monoid is bisimple: the D relation (hence J) is universal, H is
trivial, and R / L are decided by domains and images alone.  This module
also solves the one-sided translation equations ``a * x == b`` and
``x * a == b`` exactly; both solution sets are always finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CofMap,
    _trusted,
    evaluate,
    invert,
    require_idempotent,
    to_dict,
)


def green_r(a: CofMap, b: CofMap) -> bool:
    """R-related iff the domains coincide."""
    return a.dom_gaps == b.dom_gaps


def green_l(a: CofMap, b: CofMap) -> bool:
    """L-related iff the images coincide."""
    return a.ran_gaps == b.ran_gaps


def green_h(a: CofMap, b: CofMap) -> bool:
    """H is trivial: related iff equal."""
    return a == b


def green_d(a: CofMap, b: CofMap) -> bool:
    """D is universal (the monoid is bisimple)."""
    return True


def connect_idempotents(e: CofMap, i: CofMap) -> CofMap:
    """The unique map ``a`` with ``a * a.inverse() == e`` and
    ``a.inverse() * a == i``.

    Uniqueness comes from H being trivial: the map is forced to be the
    monotone bijection from dom e onto dom i.
    """
    require_idempotent(e)
    require_idempotent(i)
    return _trusted(e.dom_gaps, i.dom_gaps)


def simplicity_witness(a: CofMap, b: CofMap) -> tuple[CofMap, CofMap]:
    """Maps ``(g, d)`` with ``g * a * d == b``, for any ``a`` and ``b``.

    ``g`` carries dom b onto dom a and ``d`` carries the image of ``a``
    onto the image of ``b``; their existence makes the monoid simple.
    """
    return _trusted(b.dom_gaps, a.dom_gaps), _trusted(a.ran_gaps, b.ran_gaps)


def semilattice_iso(e: CofMap) -> tuple:
    """Gap set of an idempotent: an isomorphism onto finite sets of ints.

    Multiplication of idempotents goes to union of gap sets, and the
    natural order reverses inclusion.
    """
    require_idempotent(e)
    return e.dom_gaps


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of a one-sided translation equation.

    ``side == "right"`` solves ``factor * x == target``; ``side == "left"``
    solves ``x * factor == target``.  Solutions are listed in lexicographic
    order of their gap-set pairs; the set may be empty.
    """

    solutions: tuple[CofMap, ...]
    side: str
    factor: CofMap
    target: CofMap

    def to_dict(self) -> dict:
        return {
            "equation": {
                "side": self.side,
                "factor": to_dict(self.factor),
                "target": to_dict(self.target),
            },
            "solutions": [to_dict(s) for s in self.solutions],
        }


def solve_right(a: CofMap, b: CofMap) -> SolutionSet:
    """Every map ``x`` with ``a * x == b`` (left-to-right composition).

    The equation forces ``x`` on the whole image of ``a`` restricted to
    dom b, a cofinite set, so only finitely many extensions remain: each
    point missed by ``a`` may optionally enter dom x with an image chosen
    from the finite interval between its forced neighbors.
    """
    return SolutionSet(tuple(_right_solutions(a, b)), "right", a, b)


def solve_left(a: CofMap, b: CofMap) -> SolutionSet:
    """Every map ``x`` with ``x * a == b``.

    Mirror image of :func:`solve_right`: invert the equation, solve, and
    invert the solutions back.
    """
    mirror = _right_solutions(invert(a), invert(b))
    sols = sorted((invert(s) for s in mirror), key=lambda m: (m.dom_gaps, m.ran_gaps))
    return SolutionSet(tuple(sols), "left", a, b)


def _right_solutions(a: CofMap, b: CofMap) -> list[CofMap]:
    a_dom = set(a.dom_gaps)
    if not set(b.dom_gaps) >= a_dom:
        return []  # dom b must sit inside dom a

    a_inv = invert(a)
    # points of the image of a whose preimage leaves dom b: barred from dom x
    barred = {evaluate(a, x) for x in b.dom_gaps if x not in a_dom}
    # points missed by a entirely: free to enter dom x
    optional = set(a.ran_gaps)
    b_ran = set(b.ran_gaps)

    images = {}

    def forced_image(z):
        # x is pinned on z = a(y) with y in dom b: it must send z to b(y).
        # Only forced points next to an optional one are asked for, once per
        # search path, so each image is computed once and then looked up.
        v = images.get(z)
        if v is None:
            v = images[z] = evaluate(b, evaluate(a_inv, z))
        return v

    horizon = max(barred | optional, default=0) + 1

    def build(picks):
        picked_points = {p for p, _ in picks}
        picked_images = {v for _, v in picks}
        dom_gaps = sorted((optional - picked_points) | barred)
        ran_gaps = sorted(b_ran - picked_images)
        return _trusted(tuple(dom_gaps), tuple(ran_gaps))

    def _next_forced(p):
        q = p + 1
        while q in barred or q in optional:
            q += 1
        return q

    # Depth-first search over (point, image of the last point in dom x,
    # picks so far) with an explicit stack: barred and forced points are
    # walked in place and only optional points branch, so neither the stack
    # of the interpreter nor a reference cycle holds the solutions.
    solutions = []
    pending = [(1, 0, ())]
    while pending:
        p, prev_img, picks = pending.pop()
        last_forced = None
        while p <= horizon and p not in optional:
            if p not in barred:
                last_forced = p
            p += 1
        if last_forced is not None:
            prev_img = forced_image(last_forced)
        if p > horizon:
            solutions.append(build(picks))
            continue
        pending.append((p + 1, prev_img, picks))  # leave p out of dom x
        upper = forced_image(_next_forced(p))
        for v in range(prev_img + 1, upper):
            pending.append((p + 1, v, picks + ((p, v),)))

    solutions.sort(key=lambda m: (m.dom_gaps, m.ran_gaps))
    return solutions
