"""Green's relations and structural witnesses for the cofinite-map monoid.

The monoid is bisimple: the D relation (hence J) is universal, H is
trivial, and R / L are decided by domains and images alone.  This module
also solves the one-sided translation equations ``a * x == b`` and
``x * a == b`` exactly; both solution sets are always finite.

The monoid is an inverse semigroup, so when ``a * x == b`` has a solution
``a' * b`` is its least one in the restriction order (``canonical_leq``),
and every solution extends it; every solution of ``x * a == b`` extends
``b * a'``.  A solution's domain gaps are thus a subset of the least
solution's, and ``core._ordered_subsets``, the walk behind
``iter_up_set``, lists them in order with a cap a block.  A block lies
between two consecutive points where the equation pins ``x`` down; with
``o`` optional points and ``g`` free image slots it has C(o+g, o)
fillings.  Costs, for equations with n gaps in all, whatever the values of
the gaps: ``solve_right``/``solve_left`` and the exact ``count`` take one
``compose`` and two binary searches a block, and list nothing; ``x in
solutions`` is one ``compose``; iteration is lazy, walks listings of any
depth with no recursion, and does O(n) work a solution when the blocks are
few, O(n) a block at most.  It builds the solutions a chunk at a time in
C-level loops, with no Python call a solution, each chunk as many maps as
fit in ``CHUNK_GAPS`` (2**16) image gaps, or one map.  So taking the first
solution costs time and memory linear in the gaps, however many blocks
there are.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations, repeat
from math import comb
from operator import add

from .core import (
    CofMap,
    _ordered_subsets,
    _trusted,
    _trusted_chunk,
    _unrank,
    compose,
    invert,
    require_idempotent,
    shift,
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


CHUNK_GAPS = 2 ** 16  # image gap entries a listing builds at a time


def _choices(free, keep, required, tail):
    # a level's image gaps in lexicographic order: keep of its free slots,
    # sorted in with its required gaps, then its fixed gaps after
    kept = combinations(free, keep)
    if required:
        kept = map(tuple, map(sorted, map(add, kept, repeat(required))))
    if tail:
        kept = map(add, kept, repeat(tail))
    return kept


def _joined(levels, head):
    # For each choice of the levels above the last, in lexicographic order,
    # a C-level iterator over the last level's choices, each joined to head
    # and that choice.  A stack of choice iterators walks the upper levels
    # over one list, and one prefix tuple is frozen for each choice of them,
    # so memory stays linear in the gaps however many levels there are.
    upper, last = len(levels) - 1, levels[-1]
    out, starts, stack = list(head), [len(head)], [_choices(*levels[0])]
    while stack:
        for choice in stack[-1]:
            out[starts[-1]:] = choice
            if len(stack) < upper:
                starts.append(len(out))
                stack.append(_choices(*levels[len(stack)]))
                break
            yield map(tuple(out).__add__, _choices(*last))
        else:
            stack.pop()
            starts.pop()


class SolutionSet:
    """All solutions of a one-sided translation equation, held as blocks.

    ``side == "right"`` solves ``factor * x == target``; ``side == "left"``
    solves ``x * factor == target``.  The set is a lazy container and is
    never listed unless iterated:

    - ``count`` is the exact number of solutions, the product of the block
      sizes; ``len()`` gives the same number but raises OverflowError past
      ``sys.maxsize``;
    - ``x in s`` is one composition;
    - iteration yields the solutions in lexicographic order of their
      gap-set pairs, at most one chunk of ``CHUNK_GAPS`` image gaps ahead
      of the consumer; the set may be empty.

    Two sets are equal when they solve the same equation, since the
    equation fixes the members.  The ``solutions`` alias (the set itself)
    and ``len()`` are kept for the benchmark in ``perfbench/``.
    """

    __slots__ = ("side", "factor", "target", "count", "_walk", "_blocks", "_tail")

    def __init__(self, side: str, factor: CofMap, target: CofMap):
        self.side, self.factor, self.target = side, factor, target
        self.count, self._walk, self._blocks, self._tail = 0, None, (), ()
        # x * a == b iff a' * x' == b': on the left, the mirror's solutions inverted
        a, b = (factor, target) if side == "right" else (invert(factor), invert(target))
        # The least solution a' * b (see solve_right) has the image gaps of b,
        # the slots.  Its domain gaps, the unforced points, are the image gaps
        # of a, which a solution may take into its domain (optional), and the
        # images under a of the domain gaps of b, which none may (barred).
        least = compose(invert(a), b)
        if len(least.ran_gaps) != len(b.ran_gaps):
            return  # b maps a domain gap of a, whose image a' * b misses
        unforced, slots = least.dom_gaps, least.ran_gaps
        barred = set(unforced).difference(a.ran_gaps)
        # The points either side of a run of consecutive unforced points are
        # in every solution's domain, with their values in the least
        # solution, and a solution sends the optional points of the run that
        # it takes, in order, to the slots between those values: a run with
        # both is a block.  A solution leaves out k of a block's free domain
        # points (on the left, its slots), at most as many as it has free
        # image points, and keeps all but k of those as image gaps.
        dom, ran = (unforced, slots) if side == "right" else (slots, unforced)
        of = [-1] * len(dom)  # block of each point of dom, -1 if every solution keeps it
        blocks, sizes, count = [], [], 1  # sizes: the points of dom in each block
        at = 0  # ran[:at] lie before the last block or in it
        start = taken = 0  # the run starts at unforced[start]; slots[:taken] lie below it
        for end in range(1, len(unforced) + 1):
            if end < len(unforced) and unforced[end] == unforced[end - 1] + 1:
                continue
            optional = [i for i in range(start, end) if unforced[i] not in barred]
            if optional:
                # the points on either side have ranks r and r + 1 in dom x,
                # and slots[lo:taken] lie between their images
                r = unforced[start] - 1 - start
                lo = _unrank(slots, r, taken) - r
                taken = _unrank(slots, r + 1, lo) - r - 1
                if lo < taken:
                    j = len(blocks)
                    if side == "right":
                        free, required, s, t = slots[lo:taken], (), lo, taken
                        for i in optional:
                            of[i] = j
                    else:
                        free, s, t = tuple(unforced[i] for i in optional), start, end
                        required = tuple(p for p in unforced[start:end] if p in barred)
                        of[lo:taken] = [j] * (taken - lo)
                    count *= comb(len(optional) + taken - lo, len(optional))
                    sizes.append(len(optional) if side == "right" else taken - lo)
                    # with the image gaps every solution has between the block before and this one
                    blocks.append((ran[at:s], free, required))
                    at = t
            start = end
        sizes.append(0)  # for the kept points, block -1, which no block reads
        self.count, self._walk = count, (dom, of, sizes)
        self._blocks, self._tail = tuple(blocks), ran[at:]

    @property
    def solutions(self) -> "SolutionSet":
        return self

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:  # truth without len(), which overflows
        return self.count > 0

    def __contains__(self, x) -> bool:
        if not isinstance(x, CofMap):
            return False
        product = compose(self.factor, x) if self.side == "right" else compose(x, self.factor)
        return product == self.target

    def __iter__(self):
        if not self.count:
            return iter(())
        dom, of, sizes = self._walk
        walk = _ordered_subsets(dom, of, [len(free) for _, free, _ in self._blocks])
        grow = shift(self.target) - shift(self.factor)  # image less domain gaps of each solution
        return chain.from_iterable(map(self._built, walk, repeat(dict(zip(dom, of))), repeat(sizes),
                                       repeat(grow)))

    def _built(self, dom_gaps, block, sizes, grow):
        # the maps with domain gaps dom_gaps: their first chunk now, the rest
        # a chunk at a time as the listing reaches them, each chunk at most
        # CHUNK_GAPS image gaps in all (one map if it has more).  ks[j] counts
        # the points of block j that they leave out: its size less those taken.
        ks = list(sizes)
        for j in map(block.__getitem__, dom_gaps):
            ks[j] -= 1
        levels, head = self._rans(ks)
        if not levels:  # one image
            return (_trusted(dom_gaps, head),)
        if len(levels) > 1:
            rans = chain.from_iterable(_joined(levels, head))
        elif head:
            rans = map(head.__add__, _choices(*levels[0]))
        else:  # the empty prefix joins nothing
            rans = _choices(*levels[0])
        size = CHUNK_GAPS // (len(dom_gaps) + grow) or 1
        maps = _trusted_chunk(dom_gaps, rans, size)
        if len(maps) < size:
            return maps
        return chain(maps, chain.from_iterable(iter(partial(_trusted_chunk, dom_gaps, rans, size), [])))

    def _rans(self, ks):
        # (levels, head) for the image gaps of the solutions whose blocks
        # leave out ks: block i keeps all but ks[i] of its free slots, and
        # _joined lists them in lexicographic order.  A block with one way to
        # keep them joins the fixed gaps around it, so that every level of
        # the walk has two choices or more and a solution costs O(gaps),
        # however many blocks there are; with no level, head is the one
        # image.  The fixed gaps gather in a list a level, frozen once, so a
        # domain group costs O(blocks + gaps) in copying.
        levels = []  # [free slots, how many to keep, required gaps, fixed gaps after]
        head = fixed = []
        for (lead, free, required), k in zip(self._blocks, ks):
            fixed += lead
            if 0 < k < len(free):
                fixed = []
                levels.append([free, len(free) - k, required, fixed])
                continue
            kept = free if k == 0 else ()
            fixed += sorted(kept + required) if required else kept
        fixed += self._tail
        for level in levels:
            level[3] = tuple(level[3])
        return levels, tuple(head)

    def __eq__(self, other):
        if not isinstance(other, SolutionSet):
            return NotImplemented
        return (self.side, self.factor, self.target) == (other.side, other.factor, other.target)

    def __hash__(self):
        return hash((self.side, self.factor, self.target))

    def __repr__(self) -> str:
        return f"SolutionSet({self.side!r}, {self.factor!r}, {self.target!r}, count={self.count})"


def solve_right(a: CofMap, b: CofMap) -> SolutionSet:
    """Every map ``x`` with ``a * x == b`` (left-to-right composition).

    There is a solution iff dom b sits inside dom a, and then ``a' * b`` is
    the least one: every solution extends it, taking some of the points
    that ``a`` misses into its domain, each with an image chosen from the
    finite interval between its forced neighbors.
    """
    return SolutionSet("right", a, b)


def solve_left(a: CofMap, b: CofMap) -> SolutionSet:
    """Every map ``x`` with ``x * a == b``.

    Mirror image of :func:`solve_right`: the same blocks, built from the
    inverted equation, with the roles of domain and image swapped.  The
    least solution is ``b * a'``.
    """
    return SolutionSet("left", a, b)
