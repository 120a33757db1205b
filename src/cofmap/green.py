"""Green's relations and structural witnesses for the cofinite-map monoid.

The monoid is bisimple: the D relation (hence J) is universal, H is
trivial, and R / L are decided by domains and images alone.  This module
also solves the one-sided translation equations ``a * x == b`` and
``x * a == b`` exactly; both solution sets are always finite.

A solution set is a product of independent blocks, one between each two
consecutive points where the equation pins ``x`` down; a block with ``o``
free points and ``g`` free image slots has C(o+g, o) fillings.  Costs, for
equations with n gaps in all, whatever the values of the gaps:
``solve_right``/``solve_left`` and the exact ``count`` take O(n) (plus a
binary search a block) and list nothing; ``x in solutions`` is one
``compose``; iteration is lazy and does O(n) work a solution.  It builds
the solutions a chunk of ``CHUNK`` (1,024) at a time in C-level loops,
with no Python call a solution, so taking the first builds one chunk at
most.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import partial
from itertools import chain, combinations, islice, repeat
from math import comb
from operator import add

from .core import (
    CofMap,
    _merge,
    _ordered_subsets,
    _pull,
    _set_dom,
    _set_ran,
    _trusted,
    compose,
    invert,
    require_idempotent,
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


CHUNK = 1024  # maps a listing builds at a time


def _chunk(dom_gaps, rans):
    # The maps with domain gaps dom_gaps and the next CHUNK image gap tuples
    # of rans, [] past the last: _trusted's work, in C-level loops.  The
    # gap tuples come from the block walk, valid by construction.  The slot
    # setters return None, so any() runs each map to its end.
    rans = list(islice(rans, CHUNK))
    maps = list(map(object.__new__, repeat(CofMap, len(rans))))
    any(map(_set_dom, maps, repeat(dom_gaps)))
    any(map(_set_ran, maps, rans))
    return maps


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
      gap-set pairs, O(gaps) work each, built ``CHUNK`` at a time with no
      Python call a solution and at most one chunk ahead of the consumer;
      the set may be empty.

    ``solutions`` is the set itself.  Two sets are equal when they solve
    the same equation, since the equation fixes the members.
    """

    __slots__ = ("side", "factor", "target", "count", "_head", "_blocks")

    def __init__(self, side: str, factor: CofMap, target: CofMap):
        self.side, self.factor, self.target = side, factor, target
        if side == "right":
            found = _right_blocks(factor, target)
        else:  # x * a == b iff a^-1 * x^-1 == b^-1: the inverses of the mirror's solutions
            found = _right_blocks(invert(factor), invert(target))
        self._head, self._blocks, self.count = None, (), 0
        if found is None:
            return
        dom_fixed, ran_fixed, blocks = found
        if side == "left":  # the mirror's image side is the domain side of x
            dom_fixed, ran_fixed = ran_fixed, dom_fixed
        self._head = (dom_fixed[0], ran_fixed[0])
        self.count = 1
        # A block's domain side holds the candidate domain gaps, some of them
        # required, and a solution leaves out k of the others (k <= the free
        # image slots); the image side then keeps all but k of its free slots.
        # ends: None if every solution has a domain gap past block i's own
        # points, else the k of each later block in the one that has none.
        oriented = []
        ends = ()
        for i in range(len(blocks) - 1, -1, -1):
            run, barred, slots = blocks[i]
            optional = tuple(p for p in run if p not in barred)
            self.count *= comb(len(optional) + len(slots), len(slots))
            if side == "right":
                dom, required, ran_free, ran_required = run, barred, slots, ()
            else:
                dom, required, ran_free, ran_required = slots, (), optional, tuple(sorted(barred))
            dom_tail, ran_tail = dom_fixed[i + 1], ran_fixed[i + 1]
            ends = None if dom_tail else ends
            oriented.append((dom, required, ran_free, ran_required, dom_tail, ran_tail, ends))
            # block i can leave out all its points if none is required and it
            # has a free image slot for each
            if ends is not None and not required and len(dom) <= len(ran_free):
                ends = (len(dom),) + ends
            else:
                ends = None
        self._blocks = tuple(reversed(oriented))

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
        if self._head is None:
            return iter(())
        dom_head, ran_head = self._head
        return chain.from_iterable(map(self._built, self._doms(0, dom_head, ()), repeat(ran_head)))

    def _built(self, group, ran_head):
        # the maps of one domain group: its first chunk now, the rest a chunk
        # at a time as the listing reaches them
        dom_gaps, ks = group
        levels, prefix = self._rans(ran_head, ks)
        if not levels:  # one image
            return (_trusted(dom_gaps, prefix),)
        rans = self._kept(levels, 0, prefix)
        maps = _chunk(dom_gaps, rans)
        if len(maps) < CHUNK:
            return maps
        return chain(maps, chain.from_iterable(iter(partial(_chunk, dom_gaps, rans), [])))

    def _doms(self, i, prefix, ks):
        # (domain gaps, the k of every block) of the solutions whose domain
        # gaps before block i are ``prefix``, in lexicographic order
        if i == len(self._blocks):
            yield prefix, ks
            return
        dom, required, ran_free, _, dom_tail, _, ends = self._blocks[i]
        for reached, sub, k in _ordered_subsets(dom, required, len(ran_free)):
            if reached:
                if ends is not None:  # nothing after sub: sub is a prefix of the rest
                    yield prefix + sub, ks + (k,) + ends
            else:
                rest = self._doms(i + 1, prefix + sub + dom_tail, ks + (k,))
                if ends is not None:
                    next(rest)  # the empty remainder, yielded on reaching sub
                yield from rest

    def _rans(self, prefix, ks):
        # (levels, prefix) for the image gaps of the solutions whose blocks
        # leave out ks: block i keeps all but ks[i] of its free slots, and
        # _kept lists them in lexicographic order.  A block with one way to
        # keep them joins the fixed gaps before it, so that every level of
        # the walk has two choices or more and a solution costs O(gaps),
        # however many blocks there are; with no level, prefix is the one
        # image.
        levels = []  # [free slots, how many to keep, required gaps, fixed gaps after]
        for (_, _, free, required, _, tail, _), k in zip(self._blocks, ks):
            if 0 < k < len(free):
                levels.append([free, len(free) - k, required, tail])
                continue
            kept = free if k == 0 else ()
            fixed = (tuple(sorted(kept + required)) if required else kept) + tail
            if levels:
                levels[-1][3] += fixed
            else:
                prefix += fixed
        return levels, prefix

    def _kept(self, levels, i, prefix):
        free, keep, required, tail = levels[i]
        kept = combinations(free, keep)
        if required:
            kept = map(tuple, map(sorted, map(add, kept, repeat(required))))
        if tail:
            kept = map(add, kept, repeat(tail))
        if i + 1 == len(levels):
            return map(prefix.__add__, kept)
        deeper = map(self._kept, repeat(levels), repeat(i + 1), map(prefix.__add__, kept))
        return chain.from_iterable(deeper)

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

    The equation forces ``x`` on the whole image of ``a`` restricted to
    dom b, a cofinite set, so only finitely many extensions remain: each
    point missed by ``a`` may optionally enter dom x with an image chosen
    from the finite interval between its forced neighbors.
    """
    return SolutionSet("right", a, b)


def solve_left(a: CofMap, b: CofMap) -> SolutionSet:
    """Every map ``x`` with ``x * a == b``.

    Mirror image of :func:`solve_right`: the same blocks, built from the
    inverted equation, with the roles of domain and image swapped.
    """
    return SolutionSet("left", a, b)


def _right_blocks(a: CofMap, b: CofMap):
    """The blocks of ``a * x == b``, or None when it has no solution.

    A point in the image of ``a`` over dom b is forced: x sends it to the
    target's value.  One in the image of ``a`` outside dom b is barred from
    dom x.  One that ``a`` misses is optional.  Between two consecutive
    forced points, the optional points and the image gaps of ``b`` between
    the forced images (the free slots) make a block: a solution matches
    k of the optional points with k of the slots, in order.

    Returns ``(dom_fixed, ran_fixed, blocks)``.  ``blocks[i]`` is ``(run,
    barred, slots)``: the barred and optional points between two forced
    ones, the barred ones, and the slots; only blocks with both an optional
    point and a slot are listed.  ``dom_fixed[i]`` and ``ran_fixed[i]`` are
    the domain and image gaps shared by every solution that lie before
    block i (after the last block for the final entry).
    """
    # the image under a of each domain gap of b that a maps
    barred = _pull(b.dom_gaps, a.dom_gaps, a.ran_gaps)
    if len(barred) != len(b.dom_gaps) - len(a.dom_gaps):
        return None  # dom b must sit inside dom a
    unforced = _merge(a.ran_gaps, list(barred))
    runs, start = [], 0
    for i in range(1, len(unforced) + 1):
        if i == len(unforced) or unforced[i] != unforced[i - 1] + 1:
            runs.append(unforced[start:i])
            start = i
    # x on the forced points on either side of each run: back through a,
    # then on through b; 0, standing for "no forced point below", stays 0
    bounds = [p for run in runs for p in (run[0] - 1, run[-1] + 1)]
    images = _pull(_pull(bounds, a.ran_gaps, a.dom_gaps), b.dom_gaps, b.ran_gaps)
    barred = set(barred)
    b_ran = b.ran_gaps
    dom_fixed, ran_fixed, blocks = [[]], [], []
    taken = 0  # image gaps of b before this index are placed
    for r, run in enumerate(runs):
        lo = bisect_right(b_ran, images[2 * r], taken)
        hi = bisect_left(b_ran, images[2 * r + 1], lo)
        if lo < hi and not barred.issuperset(run):
            ran_fixed.append(b_ran[taken:lo])
            taken = hi
            blocks.append((run, barred.intersection(run), b_ran[lo:hi]))
            dom_fixed.append([])
        else:  # every point of the run stays out of dom x, every slot out of im x
            dom_fixed[-1].extend(run)
    ran_fixed.append(b_ran[taken:])
    return [tuple(d) for d in dom_fixed], ran_fixed, blocks
