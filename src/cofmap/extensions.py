"""Two enlargements of the cofinite-map monoid.

One adjoins an absorbing zero; the other glues on the additive integers
along the eventual-shift homomorphism (any product touching an integer
lands in the integers).  Both come with the membership predicates for
their natural neighborhood bases: around the zero, "missing at least i
points on each side"; around an integer x, "same shift x and not an
extension of the anchor map".
"""

from __future__ import annotations

from .core import CofMap, canonical_leq, compose, shift


class AdjoinedZero:
    """The absorbing element: any product with it is it."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO"


ZERO = AdjoinedZero()

ZeroElement = AdjoinedZero | CofMap
AdjElement = int | CofMap


def zero_mul(x: ZeroElement, y: ZeroElement) -> ZeroElement:
    """Product in the zero-adjoined monoid."""
    if isinstance(x, AdjoinedZero) or isinstance(y, AdjoinedZero):
        return ZERO
    return compose(x, y)


def in_zero_nbhd(i: int, x: ZeroElement) -> bool:
    """Membership in the i-th basic neighborhood of the adjoined zero:
    the zero itself plus every map missing at least ``i`` points on each
    side.  The neighborhoods are nested downward in ``i``."""
    if i < 1:
        raise ValueError("neighborhood index must be >= 1")
    if isinstance(x, AdjoinedZero):
        return True
    return len(x.dom_gaps) >= i and len(x.ran_gaps) >= i


def adj_mul(x: AdjElement, y: AdjElement) -> AdjElement:
    """Product in the adjunction semigroup of maps and integers.

    Two maps compose; any factor that is an integer pushes the product
    into the integers, with map factors contributing their shift.
    """
    if isinstance(x, CofMap) and isinstance(y, CofMap):
        return compose(x, y)
    xv = shift(x) if isinstance(x, CofMap) else x
    yv = shift(y) if isinstance(y, CofMap) else y
    return xv + yv


def in_adj_nbhd(x: int, anchor: CofMap, elem: AdjElement) -> bool:
    """Membership in the anchor's basic neighborhood of the integer ``x``.

    The neighborhood holds ``x`` itself plus every map of shift ``x`` that
    is not an extension of the anchor (anchor not canonically below it).
    The anchor must itself have shift ``x``.
    """
    if shift(anchor) != x:
        raise ValueError(
            f"anchor shift {shift(anchor)} must equal the neighborhood's integer {x}"
        )
    if isinstance(elem, CofMap):
        return shift(elem) == x and not canonical_leq(anchor, elem)
    return elem == x


def zero_stability_bound(i: int, a: CofMap) -> int:
    """Neighborhood depth from which translation by ``a`` stays i-deep.

    Returns ``j = i + max(gap counts of a)``: any map missing at least
    ``j`` points per side still misses at least ``i`` per side after
    multiplication by ``a`` on either side.  (Products of two i-deep maps
    are i-deep outright, and inversion preserves depth exactly.)
    """
    if i < 1:
        raise ValueError("neighborhood index must be >= 1")
    return i + max(len(a.dom_gaps), len(a.ran_gaps))
