"""The bicyclic monoid and its standard copy inside the cofinite-map monoid.

Abstract elements are kept in normal form (lower ``m`` times, then raise
``n`` times).  The standard copy consists of exactly the maps whose gap
sets are initial segments {1..m} / {1..n}; it is generated by the unit
up-shift and its inverse.  The tail machinery here attaches to every map a
standard-copy stand-in that is indistinguishable from it past a cutoff,
which yields the least group congruence: two maps are identified exactly
when their eventual shifts agree.
"""

from __future__ import annotations

from .core import (
    MAX_SEGMENT,
    CofMap,
    _trusted,
    initial_segment,
    invert,
    require_idempotent,
    shift,
    shift_threshold,
    tail_identity,
)


class Bicyclic:
    """Normal form of a bicyclic-monoid element.

    ``m`` counts lowering steps, ``n`` raising steps; the single relation
    "raise then lower is the identity" reduces every word to this shape.
    (0, 0) is the identity and the idempotents are exactly the (k, k).
    """

    __slots__ = ("m", "n")
    __setattr__ = __delattr__ = CofMap.__setattr__  # immutable, like a map

    def __new__(cls, m: int, n: int):
        if type(m) is not int or type(n) is not int:  # bool and float print badly
            raise ValueError(f"normal-form exponents must be integers, got {m!r}, {n!r}")
        if m < 0 or n < 0:
            raise ValueError("normal-form exponents must be nonnegative")
        x = object.__new__(Bicyclic)
        _set_m(x, m)
        _set_n(x, n)
        return x

    def __eq__(self, other):
        if other.__class__ is not Bicyclic:
            return NotImplemented
        return self.m == other.m and self.n == other.n

    def __hash__(self):
        return hash((self.m, self.n))

    def __reduce__(self):
        return Bicyclic, (self.m, self.n)

    def __repr__(self) -> str:
        return f"Bicyclic(m={self.m!r}, n={self.n!r})"

    def __mul__(self, other) -> "Bicyclic":
        if not isinstance(other, Bicyclic):
            return NotImplemented
        k = min(self.n, other.m)
        return Bicyclic(self.m + other.m - k, self.n + other.n - k)

    def inverse(self) -> "Bicyclic":
        return Bicyclic(self.n, self.m)

    def is_idempotent(self) -> bool:
        return self.m == self.n


_set_m, _set_n = Bicyclic.m.__set__, Bicyclic.n.__set__


def embed(x: Bicyclic) -> CofMap:
    """The standard copy of ``x``: the map i -> i - m + n on {m+1, m+2, ...}.

    An injective homomorphism; its image is recognized by
    :func:`as_bicyclic`.
    """
    return _trusted(initial_segment(x.m), initial_segment(x.n))


def as_bicyclic(g: CofMap) -> Bicyclic | None:
    """Normal form of ``g`` if it lies in the standard copy, else None.

    Membership means both gap sets are initial segments of the positive
    integers (possibly empty).
    """
    d, r = g.dom_gaps, g.ran_gaps
    if (not d or d[-1] == len(d)) and (not r or r[-1] == len(r)):
        return Bicyclic(len(d), len(r))
    return None


def fresh_bicyclic(e: CofMap) -> tuple[CofMap, CofMap, CofMap]:
    """A bicyclic copy sitting below ``e`` and disjoint from the standard one.

    Returns ``(unity, up, down)``.  The unity is an idempotent below ``e``
    whose gap set is not an initial segment, ``up * down == unity``, and
    the maps ``down**s * up**t`` form a bicyclic monoid none of whose
    elements is standard: every product keeps the anchor point fixed while
    missing the point just below it.
    """
    gaps = require_idempotent(e).dom_gaps
    anchor = (gaps[-1] if gaps else 0) + 2
    # {1..anchor} and {1..anchor+1}, each without anchor - 1
    base = initial_segment(anchor - 2) + (anchor,)
    raised = base + (anchor + 1,)
    up = _trusted(base, raised)
    return _trusted(base, base), up, invert(up)


def _tail_segment(g: CofMap) -> tuple[int, int, tuple]:
    """``g``'s shift threshold ``t``, its shift ``f``, and the segment
    {1..T-1} for ``T = t + max(0, f)``; the gap sets of the standard-copy
    stand-ins are slices of it, or extend it."""
    t = shift_threshold(g)
    f = shift(g)
    # the error names the first gap set too long: mu's domain gaps {1..t-1},
    # else {1..T-1}
    return t, f, initial_segment(t - 1 if t - 1 > MAX_SEGMENT else t - 1 + max(0, f))


def tail_projection(g: CofMap) -> tuple[CofMap, CofMap]:
    """Standard-copy stand-in for ``g`` plus the tail idempotent gluing them.

    Returns ``(mu, eps)`` with both in the standard copy, ``eps`` a tail
    identity, and ``g * eps == mu * eps`` as well as ``eps * g == eps * mu``.
    ``mu`` is the pure shift that agrees with ``g`` past its threshold.
    """
    t, f, seg = _tail_segment(g)
    return _trusted(seg[:t - 1], seg[:t + f - 1]), _trusted(seg, seg)


def standard_below(e: CofMap) -> CofMap:
    """A standard-copy idempotent below ``e`` in the natural order: the
    identity on the tail starting right after e's last gap.  It absorbs
    ``e``: ``e * standard_below(e) == standard_below(e)``."""
    gaps = require_idempotent(e).dom_gaps
    return tail_identity((gaps[-1] if gaps else 0) + 1)


def conjugation_witness(g: CofMap) -> tuple[CofMap, CofMap, CofMap]:
    """Tail idempotent whose two conjugates under ``g`` stay standard.

    Returns ``(eps, g * eps * g.inverse(), g.inverse() * eps * g)``; both
    conjugates are idempotents of the standard copy.  With ``t`` the shift
    threshold, ``f`` the shift and ``eps = tail_identity(T)`` for
    ``T = t + max(0, f)``, they are ``tail_identity(T - f)`` and
    ``tail_identity(T + f)``, built without composing: from ``t`` on ``g``
    is the pure shift ``x -> x + f``, and below ``t`` its values stay below
    ``t + f <= T``.  So ``g * eps * g.inverse()`` is defined exactly where
    ``x + f >= T`` and fixes those points, and ``g.inverse() * eps * g``
    exactly on the image ``{T + f, T + f + 1, ...}`` of ``eps``'s tail.
    The longer conjugate may pass ``MAX_SEGMENT`` points, as a product may.
    """
    _, f, seg = _tail_segment(g)
    k, a = len(seg), abs(f)
    near = seg[:k - a]  # {1..T-|f|-1}
    far = seg + tuple(range(k + 1, k + 1 + a))  # {1..T+|f|-1}
    eps, near, far = _trusted(seg, seg), _trusted(near, near), _trusted(far, far)
    return (eps, near, far) if f >= 0 else (eps, far, near)


def group_congruent(a: CofMap, b: CofMap) -> bool:
    """Least group congruence: related iff the eventual shifts agree,
    iff the two maps coincide on some tail of the positive integers."""
    return shift(a) == shift(b)


def congruence_witnesses(a: CofMap, b: CofMap) -> tuple[CofMap, CofMap] | None:
    """Standard-copy tail idempotents witnessing the congruence on each side.

    Returns ``(left, right)`` with ``left * a == left * b`` and
    ``a * right == b * right``, or None when the shifts differ (then no
    witness can exist on either side, since shifts are additive).
    """
    f = shift(a)
    if f != shift(b):
        return None
    base = max(shift_threshold(a), shift_threshold(b)) + max(0, f)
    eps = tail_identity(base)
    return eps, eps
