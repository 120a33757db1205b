"""Exact algebra of monotone injective partial selfmaps of the positive
integers whose domain and image are both cofinite.

Such a map is pinned down by two finite "gap sets": the positive integers
missing from its domain and the ones missing from its image.  Monotonicity
forces the k-th smallest domain point onto the k-th smallest image point,
so the pair of gap sets is a complete canonical description and everything
here is exact integer arithmetic on short sorted tuples.

Costs, for maps with n gaps in all: ``canonical_leq`` takes one pass over
the sorted gap tuples, O(n).  The costs of ``evaluate`` and ``preimage``
follow the rank index policy in :class:`CofMap`'s docstring.  ``compose``
takes one pass, unless one factor has far more gaps than the other: for s
and n gaps, s <= n, it then takes about s log n Python steps plus O(n)
C-level copying.  Costs follow the number of gaps, never their values:
the initial segments {1..k} that tail identities and the standard copy
need are capped at ``MAX_SEGMENT`` points.

Composition is written left to right: ``compose(g, h)`` is ``x -> h(g(x))``
(apply ``g`` first).  The ``*`` operator on :class:`CofMap` follows the
same convention.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from operator import sub

GapSet = tuple  # strictly increasing tuple of positive ints
MAX_SEGMENT = 10**6  # longest initial segment {1..k} built as a gap set


def gapset(entries) -> GapSet:
    """Freeze ``entries`` as a gap set, rejecting malformed input."""
    gaps = tuple(entries)
    last = 0
    for q in gaps:
        if not isinstance(q, int) or q < 1 or q is True:  # bool: False fails q < 1
            raise ValueError(f"gap entries must be positive integers, got {q!r}")
        if q <= last:
            raise ValueError(f"gap entries must be strictly increasing, got {gaps!r}")
        last = q
    return gaps


def _trusted(dom_gaps: GapSet, ran_gaps: GapSet) -> CofMap:
    # Build a map from gap tuples that are valid by construction, skipping
    # the checks of CofMap(...); input from outside never comes through here.
    g = object.__new__(CofMap)
    _set_dom(g, dom_gaps)
    _set_ran(g, ran_gaps)
    return g


def _trusted_chunk(dom_gaps: GapSet, rans, size: int) -> list[CofMap]:
    # _trusted in bulk: the maps with domain gaps dom_gaps and the next size
    # image gap tuples of the iterator rans, [] past its end, built in
    # C-level loops.  The slot setters return None, so any() runs each map
    # to its end.
    rans = list(islice(rans, size))
    maps = list(map(object.__new__, repeat(CofMap, len(rans))))
    any(map(_set_dom, maps, repeat(dom_gaps)))
    any(map(_set_ran, maps, rans))
    return maps


class CofMap:
    """A cofinite monotone partial bijection of {1, 2, 3, ...}.

    ``dom_gaps`` lists the points outside the domain, ``ran_gaps`` the
    points outside the image; both are finite and strictly increasing.
    Every pair of gap sets is valid and names exactly one map (the unique
    monotone bijection between the two cofinite sets), so equality of maps
    is equality of the pairs.  Instances are immutable and hashable.

    One private slot, empty until the map answers a point query, caches a
    rank index per side, ``gaps[i] - i`` as a list.  The first ``preimage``
    (domain side) or ``evaluate`` (image side) on a map bisects that side's
    gaps in Python, O(log n) steps for n gaps, and only marks the side, so
    a one-off query builds nothing; the second builds that side's index,
    O(n) in C; every later query takes two C-level bisections, O(log n).
    The index is derived from the gaps and invisible: equality, hashing,
    pickling and ``repr`` read only the gap tuples, and ``invert`` does not
    carry it over.
    """

    __slots__ = ("dom_gaps", "ran_gaps", "_index")

    def __setattr__(self, name, *value):  # fields are set once, through their slot descriptors
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def __new__(cls, dom_gaps=(), ran_gaps=()):
        return _trusted(gapset(dom_gaps), gapset(ran_gaps))

    def __eq__(self, other):
        if other.__class__ is not CofMap:
            return NotImplemented
        return self.dom_gaps == other.dom_gaps and self.ran_gaps == other.ran_gaps

    def __hash__(self):
        return hash((self.dom_gaps, self.ran_gaps))

    def __reduce__(self):
        return CofMap, (self.dom_gaps, self.ran_gaps)

    def __call__(self, n: int) -> int | None:
        return evaluate(self, n)

    def __mul__(self, other) -> "CofMap":
        if isinstance(other, CofMap):
            return compose(self, other)
        return NotImplemented

    def inverse(self) -> "CofMap":
        return invert(self)

    def __repr__(self) -> str:
        return f"CofMap({list(self.dom_gaps)}, {list(self.ran_gaps)})"


_set_dom, _set_ran = CofMap.dom_gaps.__set__, CofMap.ran_gaps.__set__
_set_index = CofMap._index.__set__
IDENTITY = CofMap()


def _unrank(gaps: GapSet, r: int, lo: int = 0) -> int:
    # r-th smallest positive integer (1-based) outside `gaps`: r plus the
    # number of gaps below it.  gaps[i] lies below it iff gaps[i] - i <= r,
    # and gaps[i] - i is nondecreasing, so that number is a binary search,
    # started at `lo` by a caller that knows gaps[:lo] all lie below.  It
    # answers the first point query on a side and the two-row preview's
    # points, and the skewed compose path and the solver search with it
    # from a lower bound on maps they see once: where a rank index would
    # not pay.
    hi = len(gaps)
    while lo < hi:
        mid = (lo + hi) // 2
        if gaps[mid] - mid <= r:
            lo = mid + 1
        else:
            hi = mid
    return r + lo


def _query(g: CofMap, n: int, near: GapSet, far: GapSet, side: int) -> int | None:
    # The point outside `far` whose rank equals n's rank outside `near`, or
    # None when n is in `near`: an image for (dom, ran, side 1), a preimage
    # for (ran, dom, side 0).  The index policy is in CofMap's docstring.
    if n < 1:
        raise ValueError("maps act on positive integers")
    k = bisect_right(near, n)
    if k and near[k - 1] == n:
        return None
    r = n - k
    try:
        index = g._index
    except AttributeError:  # the first query on g
        index = [None, None]
        _set_index(g, index)
    ranks = index[side]
    if ranks.__class__ is not list:
        if ranks is None:  # the first query on this side
            index[side] = True
            return _unrank(far, r)
        index[side] = ranks = list(map(sub, far, range(len(far))))
    return r + bisect_right(ranks, r)


def evaluate(g: CofMap, n: int) -> int | None:
    """Image of ``n`` under ``g``, or None when ``n`` is a domain gap.

    Costs follow the index policy in :class:`CofMap`'s docstring.
    """
    return _query(g, n, g.dom_gaps, g.ran_gaps, 1)


def preimage(g: CofMap, v: int) -> int | None:
    """Unique ``x`` with ``evaluate(g, x) == v``, or None when ``v`` is missed.

    Costs follow the index policy in :class:`CofMap`'s docstring.
    """
    return _query(g, v, g.ran_gaps, g.dom_gaps, 0)


def _pull(points: GapSet, skip: GapSet, gaps: GapSet) -> list[int]:
    # For each of `points` outside `skip`, in order: take its rank among the
    # integers outside `skip` and return the integer of that rank outside
    # `gaps`.  With skip/gaps the domain/image gaps of a map this carries
    # domain points to their images, as canonical_leq needs.  The ranks
    # increase with the points, so two pointers walk `skip` and `gaps`
    # once: O(len of all three).
    out = []
    i = j = 0
    n_skip, n_gaps = len(skip), len(gaps)
    for p in points:
        while i < n_skip and skip[i] < p:
            i += 1
        if i < n_skip and skip[i] == p:
            continue
        r = p - i
        while j < n_gaps and gaps[j] - j <= r:
            j += 1
        out.append(r + j)
    return out


def _pull_few(points: GapSet, skip: GapSet, gaps: GapSet) -> GapSet:
    # `gaps` merged with _pull(points, skip, gaps), for a few points against
    # long `skip` and `gaps`: each point finds its rank by bisection and its
    # image by _unrank, and the gaps between two images move as one slice.
    out = []
    i = j = 0
    n_skip = len(skip)
    for p in points:
        i = bisect_left(skip, p, i)
        if i < n_skip and skip[i] == p:
            continue
        r = p - i
        v = _unrank(gaps, r, j)
        k = v - r  # gaps below v
        out += gaps[j:k]
        out.append(v)
        j = k
    if not out:
        return gaps
    out += gaps[j:]
    return tuple(out)


def _pull_many(points: GapSet, skip: GapSet, gaps: GapSet) -> GapSet:
    # `gaps` merged with _pull(points, skip, gaps), for many points against
    # short `skip` and `gaps`.  The events are the points of `skip`, which
    # drop out, and for each gaps[j] the least point whose rank reaches
    # gaps[j] - j, before whose image gaps[j] goes.  Between two events the
    # points move by one offset, so each run is found by bisection and
    # copied as a slice, with no arithmetic where the offset is 0.
    events = []
    i = 0
    n_skip = len(skip)
    for j, q in enumerate(gaps):
        t = q - j
        while i < n_skip and skip[i] - i <= t:
            events.append((skip[i], 0))
            i += 1
        events.append((t + i, q))
    events += [(s, 0) for s in skip[i:]]
    if not events:
        return points
    out = []
    pos = off = 0
    n = len(points)
    for x, q in events:
        k = bisect_left(points, x, pos)
        if off:
            for p in points[pos:k]:
                out.append(p + off)
        else:
            out += points[pos:k]
        if q:
            out.append(q)
            off += 1
        else:
            off -= 1
            if k < n and points[k] == x:
                k += 1
        pos = k
    out += [p + off for p in points[pos:]] if off else points[pos:]
    return tuple(out)


def compose(g: CofMap, h: CofMap) -> CofMap:
    """Left-to-right composite ``x -> h(g(x))``.

    Gap sets are computed exactly from the factors' gap sets, never by
    truncating the maps: the composite misses a domain point where ``g``
    does or where ``g`` lands on a domain gap of ``h``, and misses an image
    point where ``h`` does or where ``h`` maps a point that ``g`` missed.

    Costs, for factors with s and n gaps in all, s <= n: when n is more
    than 16 s + 32, about s log n Python steps, which place the small
    factor's gaps among the large one's, plus O(n) C-level copying of the
    large one's gaps in slices; otherwise one pass over the four sorted
    gap tuples.
    """
    g_dom, g_ran, h_dom, h_ran = g.dom_gaps, g.ran_gaps, h.dom_gaps, h.ran_gaps
    n_a, n_b, n_c, n_d = len(g_ran), len(h_dom), len(g_dom), len(h_ran)
    # skewed pairs: the bound is about where the slices and the walk took
    # equal time, on random factors of 16 to 5,000 gaps
    if n_a + n_c > 16 * (n_b + n_d) + 32:
        return _trusted(_pull_few(h_dom, g_ran, g_dom), _pull_many(g_ran, h_dom, h_ran))
    if n_b + n_d > 16 * (n_a + n_c) + 32:
        return _trusted(_pull_many(h_dom, g_ran, g_dom), _pull_few(g_ran, h_dom, h_ran))
    # One walk over the middle, where the image gaps of g meet the domain
    # gaps of h.  A domain gap p of h outside g_ran is pulled back through
    # g: its rank outside g_ran is p - a, with a image gaps of g passed, and
    # c domain gaps of g lie below its preimage.  An image gap q of g outside
    # h_dom is pushed forward through h: its rank outside h_dom is q - b,
    # with b domain gaps of h passed, and d image gaps of h lie below its
    # image.
    dom = []
    ran = []
    a = b = c = d = 0
    for q in g_ran:
        while b < n_b and h_dom[b] < q:
            r = h_dom[b] - a
            while c < n_c and g_dom[c] - c <= r:
                c += 1
            dom.append(r + c)
            b += 1
        if b < n_b and h_dom[b] == q:
            b += 1
        else:
            r = q - b
            while d < n_d and h_ran[d] - d <= r:
                d += 1
            ran.append(r + d)
        a += 1
    while b < n_b:
        r = h_dom[b] - a
        while c < n_c and g_dom[c] - c <= r:
            c += 1
        dom.append(r + c)
        b += 1
    # each list is sorted and disjoint from the factor's gaps: the sort
    # merges the two runs in one pass
    if dom:
        dom += g_dom
        dom.sort()
        g_dom = tuple(dom)
    if ran:
        ran += h_ran
        ran.sort()
        h_ran = tuple(ran)
    return _trusted(g_dom, h_ran)


def invert(g: CofMap) -> CofMap:
    """The inverse partial bijection (swap the gap sets)."""
    return _trusted(g.ran_gaps, g.dom_gaps)


def is_idempotent(g: CofMap) -> bool:
    """True iff ``g`` is an identity map on its domain (equal gap sets)."""
    return g.dom_gaps == g.ran_gaps


def require_idempotent(e: CofMap) -> CofMap:
    if not is_idempotent(e):
        raise ValueError(f"not an idempotent (dom gaps differ from ran gaps): {e!r}")
    return e


def shift(g: CofMap) -> int:
    """Eventual translation amount of ``g``.

    Far enough out the map is a pure shift, ``evaluate(g, i) == i + shift(g)``
    for every ``i >= shift_threshold(g)``, and the amount is the difference
    of the gap counts.  Additive under composition, so it is a homomorphism
    onto the integers.
    """
    return len(g.ran_gaps) - len(g.dom_gaps)


def shift_threshold(g: CofMap) -> int:
    """Least point past every domain gap whose image clears every image gap.

    From the returned ``t`` on, ``evaluate(g, i) == i + shift(g)`` for all
    ``i >= t``.  ``t`` is minimal for the defining property above (not
    necessarily for the translation law itself).
    """
    max_d = g.dom_gaps[-1] if g.dom_gaps else 0
    max_r = g.ran_gaps[-1] if g.ran_gaps else 0
    # for t > max_d the image clears max_r exactly when the rank t - |D|
    # exceeds the number of non-gaps <= max_r; both conditions are monotone
    return max(max_d + 1, max_r - len(g.ran_gaps) + len(g.dom_gaps) + 1)


def initial_segment(k: int) -> GapSet:
    """The gap set {1, 2, ..., k} (empty for k <= 0).

    Raises ValueError past ``MAX_SEGMENT`` points, where the tuple alone
    would take tens of megabytes.
    """
    if k > MAX_SEGMENT:
        raise ValueError(f"initial segment {{1..{k}}} has more than {MAX_SEGMENT} points")
    return tuple(range(1, k + 1))


def tail_identity(k: int) -> CofMap:
    """The idempotent acting as the identity on {k, k+1, k+2, ...}."""
    if k < 1:
        raise ValueError("tail start must be a positive integer")
    gaps = initial_segment(k - 1)
    return _trusted(gaps, gaps)


def natural_leq(e: CofMap, f: CofMap) -> bool:
    """Natural order on idempotents: ``e <= f`` iff dom e is inside dom f."""
    require_idempotent(e)
    require_idempotent(f)
    return set(e.dom_gaps) >= set(f.dom_gaps)


def canonical_leq(a: CofMap, b: CofMap) -> bool:
    """Restriction order: ``a <= b`` iff ``a`` equals ``b`` cut down to dom a.

    Equivalently ``a == b * (a.inverse() * a)``, i.e. ``a`` arises from ``b``
    by multiplying with an idempotent on the right.  Decided from the gap
    sets in one pass: the shifts must be equal, and the image of ``a`` must
    miss exactly what ``b`` misses plus the ``b``-images of the points that
    dom a drops; with equal shifts, that forces dom a inside dom b.
    """
    if shift(a) != shift(b):
        return False
    merged = _pull(a.dom_gaps, b.dom_gaps, b.ran_gaps)
    merged += b.ran_gaps
    merged.sort()  # two sorted, disjoint runs: merged in one pass
    return a.ran_gaps == tuple(merged)


def _ordered_subsets(points: GapSet, blocks, caps):
    """The subsets of ``points`` in lexicographic order of their sorted
    tuples, a tuple before every tuple it is a prefix of.

    ``blocks[i]`` is the block of ``points[i]``, or -1 for a point that every
    subset keeps, and a subset leaves out at most ``caps[j]`` points of block
    ``j``.  The points of a block must be consecutive, apart from kept
    points among them.

    The walk is depth first over the tree of tuple prefixes, with one shared
    prefix and the pending decisions (take the next point, or leave it out)
    on a stack, so memory stays linear and nothing recurses.  It takes the
    points that every extension must take in one step, so every node it
    enters yields a subset or branches, and a subset costs O(len(points)).
    """
    n = len(points)
    # cap[i]: the cap of points[i]'s block, -1 for a kept point; last[i]:
    # points[i] ends its block, so the count of points left out starts again;
    # ends[i]: the most points of the current block left out before i that
    # still lets every point from i on be left out, < 0 when none does
    cap = [caps[j] if j >= 0 else -1 for j in blocks]
    last = [False] * n
    ends = [0] * (n + 1)
    later = -1  # the block of the next point that is not kept
    for i in range(n - 1, -1, -1):
        j = blocks[i]
        if j < 0:
            ends[i] = -1
        elif j == later:
            ends[i] = ends[i + 1] - 1
        else:
            later, last[i] = j, True
            ends[i] = caps[j] - 1 if ends[i + 1] >= 0 else -1
    prefix = []
    # (next point, prefix length, points of its block left out, whether the
    # prefix was a candidate before): the decisions still to walk
    stack = [(0, 0, 0, False)]
    while stack:
        i, m, out, tried = stack.pop()
        del prefix[m:]
        while i < n and out >= cap[i]:  # every extension takes points[i]
            prefix.append(points[i])
            if last[i]:
                out = 0
            i += 1
            tried = False
        if not tried and out <= ends[i]:
            yield tuple(prefix)
        if i < n:
            m = len(prefix)
            taken, left = (0, 0) if last[i] else (out, out + 1)
            if i + 1 < n:  # leave points[i] out; as the last point, that gives prefix again
                stack.append((i + 1, m, left, True))
            prefix.append(points[i])
            stack.append((i + 1, m + 1, taken, False))  # take it, first


def iter_up_set(e: CofMap):
    """The idempotents above ``e`` in the natural order, one at a time.

    These are the identity maps whose gap set is a subset of e's, so there
    are exactly ``2 ** len(e.dom_gaps)`` of them; they come sorted by gap
    set.
    """
    gaps = require_idempotent(e).dom_gaps
    walk = _ordered_subsets(gaps, [0] * len(gaps), (len(gaps),))
    return (_trusted(sub, sub) for sub in walk)

