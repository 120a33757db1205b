"""Core algebra: construction, evaluation, composition, inverses, orders."""

import copy
import pickle
import random
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

import cofmap
from cofmap import (
    Bicyclic,
    CofMap,
    IDENTITY,
    MAX_SEGMENT,
    canonical_leq,
    compose,
    embed,
    evaluate,
    gapset,
    initial_segment,
    invert,
    is_idempotent,
    iter_up_set,
    natural_leq,
    preimage,
    shift,
    shift_threshold,
    tail_identity,
)
from cofmap.cli import to_json
from cofmap.core import _ordered_subsets
from cofmap.selftest import two_row, two_row_compose

UP = CofMap((), (1,))   # n -> n + 1
DOWN = CofMap((1,), ())    # n -> n - 1 on {2, 3, ...}

gap_sets = st.frozensets(st.integers(min_value=1, max_value=30), max_size=10).map(
    lambda s: tuple(sorted(s))
)
cofmaps = st.builds(CofMap, gap_sets, gap_sets)
idempotents = gap_sets.map(lambda g: CofMap(g, g))


def sample_gaps(rng, k, hi, lo=1):
    return tuple(sorted(rng.sample(range(lo, hi + 1), k)))


def wide_window(*maps):
    """(n, slack, upto) for two_row on the given maps.

    ``upto`` lies past every gap and every shift threshold, and far enough
    out that two maps built from these differ below it if they differ at
    all.  A point ``x <= upto`` maps to at most ``upto`` plus an image gap
    count, which the window ``n`` still covers, so every truncated oracle
    is exact up to ``upto``, also after composing two of them.
    """
    top = max((q for m in maps for q in m.dom_gaps + m.ran_gaps), default=0)
    count = max((len(m.dom_gaps) + len(m.ran_gaps) for m in maps), default=0)
    upto = top + 2 * count + 2
    return upto + 2 * count + 100, count + 10, upto


def oracle_map(g, n, slack):
    return two_row(g.dom_gaps, g.ran_gaps, n=n, slack=slack)


def oracle_restricts(a, b):
    """The definition ``b * (a^-1 * a) == a``, composed pointwise."""
    n, slack, upto = wide_window(a, b)
    am, bm = oracle_map(a, n, slack), oracle_map(b, n, slack)
    onto_image = two_row_compose({v: x for x, v in am.items()}, am)
    want = two_row_compose(bm, onto_image)
    return all(want.get(x) == am.get(x) for x in range(1, upto + 1))


def wide_pairs():
    """(shape, g, h) with 1,000 to 2,000 gaps a side, seeded."""
    rng = random.Random(2011)
    k, hi = 1000, 4000
    pts = sample_gaps(rng, 2 * k, 2 * hi)
    g_ran, h_dom = pts[::2], pts[1::2]
    seg = tuple(range(1, k + 1))
    big = (sample_gaps(rng, 2000, 8000), sample_gaps(rng, 2000, 8000))
    tiny = (sample_gaps(rng, 2, 8000), sample_gaps(rng, 2, 8000))
    return [
        ("interleaved", CofMap(sample_gaps(rng, k, hi), g_ran), CofMap(h_dom, sample_gaps(rng, k, hi))),
        ("initial-segments", CofMap(seg, tuple(range(1, 2 * k + 1))), CofMap(seg, seg)),
        ("disjoint-ranges", CofMap(sample_gaps(rng, k, hi), sample_gaps(rng, k, hi)),
         CofMap(sample_gaps(rng, k, 2 * hi, hi + 1), sample_gaps(rng, k, 2 * hi, hi + 1))),
        ("ratio-1000:1", CofMap(*big), CofMap(*tiny)),
        ("ratio-1:1000", CofMap(*tiny), CofMap(*big)),
        ("empty-right", CofMap(*big), IDENTITY),
        ("empty-left", IDENTITY, CofMap(*big)),
    ]


WIDE_PAIRS = wide_pairs()


@st.composite
def small_and_large(draw):
    """(small, large): a map with 0 to 4 gaps a side and one with 100 to
    400 gaps in all.  ``compose`` walks a pair whose large factor has at
    most 16 s + 32 gaps, s the small factor's, and treats it as skewed
    past that; the sizes fall on both sides.  Some gaps of the small map
    are gaps of the large one where the two meet in a product (its domain
    gaps among the large image gaps, its image gaps among the large domain
    gaps), and some small maps are idempotents, whose runs move by 0."""
    rng = draw(st.randoms(use_true_random=False))
    k_dom = draw(st.integers(0, 4))
    k_ran = k_dom if draw(st.booleans()) else draw(st.integers(0, 4))
    bound = 16 * (k_dom + k_ran) + 32
    total = draw(st.integers(100, min(max(bound, 100), 400)) | st.integers(max(bound + 1, 100), 400))
    hi = 4 * total
    n_dom = rng.randint(0, total)
    large = CofMap(sample_gaps(rng, n_dom, hi), sample_gaps(rng, total - n_dom, hi))

    def side(k, shared):
        from_large = rng.sample(shared, min(len(shared), draw(st.integers(0, k))))
        rest = [q for q in range(1, hi + 20) if q not in from_large]
        return tuple(sorted(from_large + rng.sample(rest, k - len(from_large))))

    dom = side(k_dom, large.ran_gaps)
    ran = dom if k_ran == k_dom and draw(st.booleans()) else side(k_ran, large.dom_gaps)
    return CofMap(dom, ran), large


class TestConstruction:
    def test_empty_gaps_is_identity(self):
        assert CofMap() == CofMap((), ())
        assert evaluate(IDENTITY, 7) == 7

    @pytest.mark.parametrize("bad", [(3, 2), (1, 1), (0,), (-2,), (1.5,), ("x",)])
    def test_malformed_gapsets_rejected(self, bad):
        with pytest.raises(ValueError):
            gapset(bad)
        with pytest.raises(ValueError):
            CofMap(bad, ())

    @pytest.mark.parametrize("bad", [(True,), (1, True), (2, True)])
    def test_bool_entries_rejected(self, bad):
        # True == 1, but it would render as m[True;], which does not parse
        for args in ((bad, ()), ((), bad)):
            with pytest.raises(ValueError, match="^gap entries must be positive integers, got True$"):
                CofMap(*args)

    def test_equality_is_structural(self):
        assert CofMap((1,), (2,)) == CofMap((1,), (2,))
        assert CofMap((1,), (2,)) != CofMap((1,), (3,))
        assert len({CofMap((1,), (2,)), CofMap((1,), (2,))}) == 1


class TestValueType:
    G = CofMap((1, 3), (2,))

    def test_fields_cannot_be_assigned_or_deleted(self):
        g = self.G
        with pytest.raises(AttributeError):
            g.dom_gaps = ()
        with pytest.raises(AttributeError):
            g.extra = 1
        with pytest.raises(AttributeError):
            del g.ran_gaps
        assert g == CofMap((1, 3), (2,))

    def test_pickle_and_copy(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(self.G, protocol)) == self.G
        assert copy.copy(self.G) == self.G
        assert copy.deepcopy(self.G) == self.G

    def test_not_equal_to_its_gap_tuples(self):
        assert CofMap((1,), ()) != ((1,), ())
        assert ((1,), ()) != CofMap((1,), ())

    def test_hash_is_the_hash_of_the_gap_pair(self):
        # keeps set and dict orders, and so the printed output, as they were
        assert hash(self.G) == hash(((1, 3), (2,)))
        assert hash(IDENTITY) == hash(((), ()))

    def test_products_with_other_types_are_refused(self):
        for product in (lambda: CofMap() * 2, lambda: CofMap() * Bicyclic(0, 1),
                        lambda: Bicyclic(0, 1) * CofMap()):
            with pytest.raises(TypeError):
                product()

    def test_repr(self):
        assert repr(self.G) == "CofMap([1, 3], [2])"
        assert repr(IDENTITY) == "CofMap([], [])"

    def test_keyword_and_default_construction(self):
        assert CofMap(dom_gaps=[1], ran_gaps=[]) == CofMap((1,), ())
        assert CofMap(dom_gaps=[1], ran_gaps=[]).dom_gaps == (1,)
        assert CofMap() == IDENTITY


class TestEvaluate:
    def test_unit_shift(self):
        assert evaluate(UP, 3) == 4
        assert all(evaluate(UP, n) == n + 1 for n in range(1, 50))
        assert evaluate(DOWN, 1) is None
        assert all(evaluate(DOWN, n) == n - 1 for n in range(2, 50))

    def test_rank_based_lookup(self):
        g = CofMap((2,), (1, 3))
        assert evaluate(g, 3) == 4
        assert evaluate(g, 1) == 2
        assert evaluate(g, 2) is None

    def test_rejects_nonpositive_points(self):
        with pytest.raises(ValueError):
            evaluate(IDENTITY, 0)
        with pytest.raises(ValueError):
            preimage(IDENTITY, 0)

    @given(cofmaps, st.integers(min_value=1, max_value=120))
    def test_matches_two_row_oracle(self, g, n):
        oracle = two_row(g.dom_gaps, g.ran_gaps)
        assert evaluate(g, n) == oracle.get(n)

    def test_wide_map_matches_two_row_oracle(self):
        # Two draws are moved past 2**64, gaps q -> q + base: below base + 1
        # such a map is the identity, and from there on it acts as the drawn
        # map does, moved by base.
        rng = random.Random(7)
        for k_dom, k_ran, base in (2000, 1500, 0), (1500, 2000, 2**64), (40, 2500, 2**64 + 12345):
            dom, ran = sample_gaps(rng, k_dom, 8000), sample_gaps(rng, k_ran, 8000)
            drawn = CofMap(dom, ran)
            n, slack, upto = wide_window(drawn)
            forward = oracle_map(drawn, n, slack)
            backward = {v: x for x, v in forward.items()}
            g = CofMap([q + base for q in dom], [q + base for q in ran])
            moved = lambda y: None if y is None else y + base  # noqa: E731
            window = list(range(1, upto + 1))
            # the first pass builds the rank index of each side, the second,
            # in shuffled order, reads it
            for x in window + rng.sample(window, len(window)):
                assert evaluate(g, x + base) == moved(forward.get(x))
                assert preimage(g, x + base) == moved(backward.get(x))
            if base:
                assert [evaluate(g, x) for x in (1, 2, base)] == [1, 2, base]
                assert [preimage(g, x) for x in (1, 2, base)] == [1, 2, base]

    def test_rank_index_is_invisible(self):
        g = CofMap((1, 3, 7), (2, 5))
        assert [evaluate(g, x) for x in range(1, 12)] == [None, 1, None, 3, 4, 6, None, 7, 8, 9, 10]
        assert [preimage(g, v) for v in range(1, 12)] == [2, None, 4, 5, None, 6, 8, 9, 10, 11, 12]
        fresh = CofMap(g.dom_gaps, g.ran_gaps)
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(g, protocol))
            assert back == g
            assert [evaluate(back, x) for x in range(1, 12)] == [evaluate(g, x) for x in range(1, 12)]
        assert repr(g) == "CofMap([1, 3, 7], [2, 5])"
        for name in CofMap.__slots__:
            with pytest.raises(AttributeError):
                setattr(g, name, ())
        assert g == fresh

    def test_first_second_and_third_queries_on_a_side(self):
        # The first query on a side bisects its gaps in Python, the second
        # builds the side's rank index and the third reads it; each side
        # counts its own queries, so the sides are also queried interleaved.
        rng = random.Random(21)
        drawn = [CofMap(sample_gaps(rng, 2, 30), sample_gaps(rng, 3, 30)),
                 CofMap(sample_gaps(rng, 300, 2000), sample_gaps(rng, 250, 2000)),
                 CofMap(sample_gaps(rng, 40, 3000), sample_gaps(rng, 2500, 3000))]
        for g in drawn:
            n, slack, upto = wide_window(g)
            forward = oracle_map(g, n, slack)
            backward = {v: x for x, v in forward.items()}
            xs = [x for x in range(1, upto + 1) if x in forward]
            vs = [v for v in range(1, upto + 1) if v in backward]
            for times in 1, 2, 3:
                for interleaved in False, True:
                    h = CofMap(g.dom_gaps, g.ran_gaps)
                    queries = [(evaluate, x, forward[x]) for x in rng.sample(xs, times)]
                    pulls = [(preimage, v, backward[v]) for v in rng.sample(vs, times)]
                    if interleaved:
                        queries = [q for pair in zip(queries, pulls) for q in pair]
                    else:
                        queries += pulls
                    for query, point, want in queries:
                        assert query(h, point) == want
                    assert h == g and hash(h) == hash(g)

    @given(cofmaps, st.integers(min_value=1, max_value=120))
    def test_preimage_inverts_evaluate(self, g, n):
        y = evaluate(g, n)
        if y is not None:
            assert preimage(g, y) == n
        assert preimage(g, n) == evaluate(invert(g), n)


class TestCompose:
    def test_unit_shifts_cancel(self):
        assert compose(UP, DOWN) == IDENTITY
        assert compose(DOWN, UP) == CofMap((1,), (1,))

    @given(cofmaps)
    def test_identity_laws(self, g):
        assert compose(IDENTITY, g) == g
        assert compose(g, IDENTITY) == g

    @given(cofmaps, cofmaps)
    def test_matches_pointwise_oracle(self, g, h):
        gm = two_row(g.dom_gaps, g.ran_gaps)
        hm = two_row(h.dom_gaps, h.ran_gaps)
        want = two_row_compose(gm, hm)
        got = compose(g, h)
        for x in range(1, 150):
            assert evaluate(got, x) == want.get(x)

    @pytest.mark.parametrize("shape,g,h", WIDE_PAIRS, ids=[p[0] for p in WIDE_PAIRS])
    def test_wide_matches_pointwise_oracle(self, shape, g, h):
        n, slack, upto = wide_window(g, h)
        want = two_row_compose(oracle_map(g, n, slack), oracle_map(h, n, slack))
        got = compose(g, h)
        for x in range(1, upto + 1):
            assert evaluate(got, x) == want.get(x)

    @given(small_and_large())
    def test_small_by_large_matches_pointwise_oracle(self, pair):
        small, large = pair
        n, slack, upto = wide_window(small, large)
        sm, lm = oracle_map(small, n, slack), oracle_map(large, n, slack)
        for g, h, gm, hm in ((small, large, sm, lm), (large, small, lm, sm)):
            want = two_row_compose(gm, hm)
            got = compose(g, h)
            assert got == CofMap(got.dom_gaps, got.ran_gaps)
            for x in range(1, upto + 1):
                assert evaluate(got, x) == want.get(x)

    def test_small_by_standard_copy_of_large_shift(self):
        # m[5,9;2,7] is 1->1, 2->3, 3->4, 4->5, 6->6, 7->8, 8->9 and x->x
        # from 10 on; the standard copy of b[0,10**5] adds 10**5 to every
        # point, so the image misses 1..10**5 and the shifted gaps 2 and 7
        want = CofMap((5, 9), (*range(1, 10**5 + 1), 10**5 + 2, 10**5 + 7))
        assert CofMap((5, 9), (2, 7)) * embed(Bicyclic(0, 10**5)) == want

    @pytest.mark.parametrize("shape,g,h", WIDE_PAIRS, ids=[p[0] for p in WIDE_PAIRS])
    def test_results_equal_validated_construction(self, shape, g, h):
        for got in (compose(g, h), compose(h, g), invert(g)):
            built = CofMap(got.dom_gaps, got.ran_gaps)
            assert type(got.dom_gaps) is tuple and type(got.ran_gaps) is tuple
            assert got == built and hash(got) == hash(built)

    @given(cofmaps, cofmaps)
    def test_results_equal_validated_construction_small(self, g, h):
        for got in (compose(g, h), invert(g)):
            built = CofMap(got.dom_gaps, got.ran_gaps)
            assert got == built and hash(got) == hash(built)

    @given(cofmaps, cofmaps, cofmaps)
    def test_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_exact_for_large_entries(self):
        # g: x -> x+1 below 10**6 and x -> x above it; h: 1 -> 1, then x -> x-1
        # up to 10**6+5 and x -> x beyond
        g = CofMap((10**6,), (1,))
        h = CofMap((2,), (10**6 + 5,))
        assert evaluate(g, 10**6 - 1) == 10**6
        assert evaluate(g, 10**6 + 1) == 10**6 + 1
        gh = compose(g, h)
        assert gh == CofMap((1, 10**6), (1, 10**6 + 5))
        assert evaluate(gh, 12) == 12
        assert evaluate(gh, 10**6 + 1) == 10**6
        assert evaluate(gh, 10**6 + 6) == 10**6 + 6


class TestInverse:
    def test_swaps_gap_sets(self):
        assert invert(IDENTITY) == IDENTITY
        assert invert(UP) == DOWN
        assert invert(CofMap((2,), (1, 3))) == CofMap((1, 3), (2,))

    @given(cofmaps)
    def test_inverse_axioms(self, g):
        gi = invert(g)
        assert compose(compose(g, gi), g) == g
        assert compose(compose(gi, g), gi) == gi
        assert compose(g, gi) == CofMap(g.dom_gaps, g.dom_gaps)
        assert compose(gi, g) == CofMap(g.ran_gaps, g.ran_gaps)

    @given(cofmaps, cofmaps)
    def test_antihomomorphism(self, g, h):
        assert invert(compose(g, h)) == compose(invert(h), invert(g))


class TestIdempotents:
    def test_detection(self):
        assert is_idempotent(IDENTITY)
        assert is_idempotent(CofMap((1, 4), (1, 4)))
        assert not is_idempotent(UP)
        assert compose(UP, UP) != UP

    @given(idempotents, idempotents)
    def test_meet_is_gap_union(self, e, f):
        ef = compose(e, f)
        assert ef == compose(f, e)
        assert is_idempotent(ef)
        assert set(ef.dom_gaps) == set(e.dom_gaps) | set(f.dom_gaps)


class TestShift:
    def test_values(self):
        assert shift(IDENTITY) == 0
        assert shift(UP) == 1
        assert shift(CofMap((1, 2, 3), (5,))) == -2

    @given(cofmaps, cofmaps)
    def test_additive(self, g, h):
        assert shift(compose(g, h)) == shift(g) + shift(h)


class TestShiftThreshold:
    def test_values(self):
        assert shift_threshold(IDENTITY) == 1
        assert shift_threshold(UP) == 1
        assert shift_threshold(CofMap((1, 2, 3), (5,))) == 8

    @given(cofmaps)
    def test_matches_scan(self, g):
        # scan definition: least t past the last domain gap whose image
        # clears the last image gap
        max_d = g.dom_gaps[-1] if g.dom_gaps else 0
        max_r = g.ran_gaps[-1] if g.ran_gaps else 0
        t = max_d + 1
        while not evaluate(g, t) > max_r:
            t += 1
        assert shift_threshold(g) == t

    @given(cofmaps)
    def test_tail_law_and_minimality(self, g):
        t, f = shift_threshold(g), shift(g)
        for i in (t, t + 1, t + 9, t + 100):
            assert evaluate(g, i) == i + f
        if t > 1:
            max_d = g.dom_gaps[-1] if g.dom_gaps else 0
            max_r = g.ran_gaps[-1] if g.ran_gaps else 0
            y = evaluate(g, t - 1)
            assert not (t - 1 > max_d and y is not None and y > max_r)


class TestTailIdentity:
    def test_values(self):
        assert tail_identity(1) == IDENTITY
        assert tail_identity(4) == CofMap((1, 2, 3), (1, 2, 3))
        assert tail_identity(2) == compose(DOWN, UP)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tail_identity(0)


class TestNaturalOrder:
    def test_values(self):
        e = CofMap((1, 2), (1, 2))
        assert natural_leq(e, e)
        assert natural_leq(e, CofMap((1,), (1,)))
        assert not natural_leq(CofMap((1,), (1,)), CofMap((2,), (2,)))

    def test_rejects_non_idempotents(self):
        with pytest.raises(ValueError):
            natural_leq(UP, IDENTITY)

    @given(idempotents, idempotents)
    def test_matches_product_definition(self, e, f):
        # e <= f in the idempotent order iff ef == fe == e
        assert natural_leq(e, f) == (compose(e, f) == e)

    @given(idempotents, idempotents, idempotents)
    def test_partial_order(self, e, f, g):
        assert natural_leq(e, e)
        if natural_leq(e, f) and natural_leq(f, e):
            assert e == f
        if natural_leq(e, f) and natural_leq(f, g):
            assert natural_leq(e, g)


class TestCanonicalOrder:
    def test_values(self):
        assert canonical_leq(UP, UP)
        # the restriction of the unit shift to {2,3,...} is m[1;1,2]
        assert canonical_leq(CofMap((1,), (1, 2)), UP)
        assert not canonical_leq(CofMap((1,), (2,)), UP)
        assert not canonical_leq(UP, DOWN)

    @given(cofmaps, idempotents)
    def test_restrictions_are_below(self, b, e):
        a = compose(b, e)
        assert canonical_leq(a, b)
        for x in range(1, 60):
            if x not in a.dom_gaps:
                assert evaluate(a, x) == evaluate(b, x)

    @given(cofmaps, cofmaps)
    def test_matches_definition(self, a, b):
        want = oracle_restricts(a, b)
        assert want == (compose(b, compose(invert(a), a)) == a)
        assert canonical_leq(a, b) == want

    @given(cofmaps, idempotents, st.integers(min_value=1, max_value=40))
    def test_perturbed_restrictions(self, b, e, q):
        # toggling one image gap of a restriction mostly breaks the order
        a = compose(b, e)
        ran = set(a.ran_gaps) ^ {q}
        for c in (a, CofMap(a.dom_gaps, tuple(sorted(ran)))):
            assert canonical_leq(c, b) == oracle_restricts(c, b)

    def test_wide_pairs(self):
        rng = random.Random(11)
        b = CofMap(sample_gaps(rng, 1000, 4000), sample_gaps(rng, 1000, 4000))
        a = compose(b, CofMap(*[sample_gaps(rng, 1000, 4000)] * 2))
        moved = CofMap(a.dom_gaps, a.ran_gaps[:-1] + (a.ran_gaps[-1] + 1,))
        unrelated = CofMap(sample_gaps(rng, 1500, 4000), sample_gaps(rng, 1500, 4000))
        cases = [(a, b, True), (b, b, True), (moved, b, False), (unrelated, b, False), (b, a, False)]
        for x, y, want in cases:
            assert oracle_restricts(x, y) == want
            assert canonical_leq(x, y) == want

    @given(cofmaps, cofmaps)
    def test_implies_equal_shift(self, a, b):
        if canonical_leq(a, b):
            assert shift(a) == shift(b)


class TestUpSet:
    def test_values(self):
        assert list(iter_up_set(IDENTITY)) == [IDENTITY]
        assert list(iter_up_set(CofMap((1,), (1,)))) == [IDENTITY, CofMap((1,), (1,))]
        assert len(list(iter_up_set(CofMap((1, 2), (1, 2))))) == 4

    def test_rejects_non_idempotents(self):
        with pytest.raises(ValueError):
            list(iter_up_set(UP))

    @settings(max_examples=40)
    @given(st.frozensets(st.integers(1, 20), max_size=8).map(lambda s: tuple(sorted(s))))
    def test_counts_and_membership(self, gaps):
        e = CofMap(gaps, gaps)
        ups = list(iter_up_set(e))
        assert len(ups) == 2 ** len(gaps)
        assert len(set(ups)) == len(ups)
        for u in ups:
            assert natural_leq(e, u)
        want = sorted(sub for k in range(len(gaps) + 1) for sub in combinations(gaps, k))
        assert [u.dom_gaps for u in ups] == want

    def test_streams_without_building_the_list(self):
        gaps = tuple(range(1, 41))
        first = list(islice(iter_up_set(CofMap(gaps, gaps)), 3))
        assert first == [IDENTITY, CofMap((1,), (1,)), CofMap((1, 2), (1, 2))]
        with pytest.raises(ValueError):
            iter_up_set(UP)  # refused on the call, before any member is asked for


@st.composite
def walk_inputs(draw):
    # points, a block per point (-1: kept; a block's points consecutive,
    # apart from kept points among them) and a cap per block
    points = draw(st.frozensets(st.integers(1, 30), max_size=9).map(lambda s: tuple(sorted(s))))
    blocks, j = [], -1
    for _ in points:
        step = draw(st.sampled_from(["kept", "same", "next"]))
        if step == "next" or step == "same" and j < 0:
            j += 1
        blocks.append(-1 if step == "kept" else j)
    caps = draw(st.lists(st.integers(0, 4), min_size=j + 1, max_size=j + 1))
    return points, blocks, caps


class TestOrderedSubsets:
    @given(walk_inputs())
    def test_matches_brute_force(self, inputs):
        points, blocks, caps = inputs
        want = []
        for k in range(len(points) + 1):
            for taken in combinations(range(len(points)), k):
                out = [blocks[i] for i in range(len(points)) if i not in taken]
                if -1 not in out and all(out.count(j) <= cap for j, cap in enumerate(caps)):
                    want.append(tuple(points[i] for i in taken))
        assert list(_ordered_subsets(points, blocks, caps)) == sorted(want)


class TestInitialSegment:
    def test_values_and_limit(self):
        assert initial_segment(0) == () and initial_segment(-1) == ()
        assert initial_segment(3) == (1, 2, 3)
        assert len(initial_segment(MAX_SEGMENT)) == MAX_SEGMENT
        with pytest.raises(ValueError):
            initial_segment(MAX_SEGMENT + 1)
        with pytest.raises(ValueError):
            tail_identity(MAX_SEGMENT + 2)


class TestPublicNames:
    def test_aliases_and_test_only_names_are_gone(self):
        # each was an alias of another construction, or used only by tests
        removed = ["absorbing_idempotent", "up_set", "dom_tail_start", "ran_tail_start",
                   "tail_start", "SHIFT_UP", "SHIFT_DOWN", "BICYCLIC_IDENTITY", "__all__"]
        for module in (cofmap, cofmap.core, cofmap.bicyclic):
            assert [name for name in removed if hasattr(module, name)] == []


class TestJson:
    def test_schema(self):
        g = CofMap((1, 3), (2,))
        assert to_json(g) == {"dom_gaps": [1, 3], "ran_gaps": [2]}
