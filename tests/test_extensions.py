"""The zero-adjoined monoid, the integer adjunction, and their neighborhoods."""

import random

import pytest
from hypothesis import given, strategies as st

from cofmap import (
    CofMap,
    IDENTITY,
    ZERO,
    adj_mul,
    canonical_leq,
    compose,
    in_adj_nbhd,
    in_zero_nbhd,
    invert,
    shift,
    zero_mul,
    zero_stability_bound,
)
from cofmap.cli import to_json

UP = CofMap((), (1,))
DOWN = CofMap((1,), ())

gap_sets = st.frozensets(st.integers(min_value=1, max_value=30), max_size=10).map(
    lambda s: tuple(sorted(s))
)
cofmaps = st.builds(CofMap, gap_sets, gap_sets)
zero_elems = st.one_of(st.just(ZERO), cofmaps)
adj_elems = st.one_of(st.integers(min_value=-12, max_value=12), cofmaps)


class TestZeroMonoid:
    def test_zero_absorbs(self):
        assert zero_mul(ZERO, UP) is ZERO
        assert zero_mul(UP, ZERO) is ZERO
        assert zero_mul(ZERO, ZERO) is ZERO
        assert zero_mul(UP, DOWN) == IDENTITY

    def test_repr(self):
        assert repr(ZERO) == "ZERO"

    @given(zero_elems, zero_elems, zero_elems)
    def test_associative(self, x, y, z):
        assert zero_mul(zero_mul(x, y), z) == zero_mul(x, zero_mul(y, z))


class TestZeroNeighborhoods:
    def test_values(self):
        assert in_zero_nbhd(1, ZERO)
        assert in_zero_nbhd(2, CofMap((1, 3), (2, 5)))
        assert not in_zero_nbhd(2, UP)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            in_zero_nbhd(0, ZERO)

    @given(st.integers(1, 8), st.integers(1, 8), zero_elems)
    def test_nested(self, i, j, x):
        lo, hi = min(i, j), max(i, j)
        if in_zero_nbhd(hi, x):
            assert in_zero_nbhd(lo, x)

    @given(st.integers(1, 6), cofmaps, cofmaps)
    def test_products_stay_inside(self, i, g, h):
        if in_zero_nbhd(i, g) and in_zero_nbhd(i, h):
            assert in_zero_nbhd(i, compose(g, h))

    @given(st.integers(1, 6), cofmaps)
    def test_inversion_preserves_depth(self, i, g):
        assert in_zero_nbhd(i, g) == in_zero_nbhd(i, invert(g))


class TestAdjunction:
    def test_four_cases(self):
        assert adj_mul(3, -2) == 1
        assert adj_mul(2, UP) == 3
        assert adj_mul(UP, 2) == 3
        assert adj_mul(UP, DOWN) == IDENTITY

    @given(adj_elems, adj_elems, adj_elems)
    def test_associative(self, x, y, z):
        assert adj_mul(adj_mul(x, y), z) == adj_mul(x, adj_mul(y, z))

    @given(cofmaps, cofmaps)
    def test_shift_projection_is_a_hom(self, a, b):
        assert adj_mul(shift(a), b) == shift(compose(a, b))


class TestIntegerNeighborhoods:
    def test_values(self):
        assert in_adj_nbhd(1, UP, 1)
        assert not in_adj_nbhd(1, UP, 5)
        assert not in_adj_nbhd(1, UP, UP)

    def test_rejects_mismatched_anchor(self):
        with pytest.raises(ValueError):
            in_adj_nbhd(1, CofMap((1,), (2,)), UP)

    def test_restriction_asymmetry(self):
        # the restriction of the unit shift is below it, so each excludes
        # the other from exactly one of the two paired neighborhoods
        restriction = CofMap((1,), (1, 2))
        assert canonical_leq(restriction, UP)
        assert in_adj_nbhd(1, restriction, UP) is False
        assert in_adj_nbhd(1, UP, restriction) is True

    @given(cofmaps, cofmaps)
    def test_matches_order_predicate(self, anchor, elem):
        x = shift(anchor)
        want = shift(elem) == x and not canonical_leq(anchor, elem)
        assert in_adj_nbhd(x, anchor, elem) == want

    @given(cofmaps, st.frozensets(st.integers(1, 20), min_size=1, max_size=6))
    def test_paired_membership(self, b, extra):
        e = tuple(sorted(extra))
        a = compose(b, CofMap(e, e))
        if a != b:
            x = shift(b)
            assert in_adj_nbhd(x, b, a) is True
            assert in_adj_nbhd(x, a, b) is False


class TestStability:
    def test_bound_values(self):
        assert zero_stability_bound(1, IDENTITY) == 1
        assert zero_stability_bound(3, UP) == 4
        assert zero_stability_bound(2, CofMap((1, 5), (2,))) == 4

    @given(st.integers(1, 5), cofmaps, cofmaps)
    def test_bound_guarantee(self, i, a, g):
        j = zero_stability_bound(i, a)
        if in_zero_nbhd(j, g):
            assert in_zero_nbhd(i, compose(g, a))
            assert in_zero_nbhd(i, compose(a, g))

    def test_sampling_reports_no_violations(self):
        # every draw misses at least j points a side, so each meets the premise
        rng, i, a = random.Random(99), 2, CofMap((1, 5), (2,))
        j = zero_stability_bound(i, a)
        for _ in range(400):
            g = CofMap(*(tuple(sorted(rng.sample(range(1, 31), rng.randint(j, 10)))) for _ in "dr"))
            assert in_zero_nbhd(j, g)
            assert in_zero_nbhd(i, compose(g, a)) and in_zero_nbhd(i, compose(a, g))


class TestTaggedJson:
    @pytest.mark.parametrize(
        "x,d",
        [
            (ZERO, {"kind": "zero"}),
            (7, {"kind": "int", "value": 7}),
        ],
    )
    def test_schema(self, x, d):
        assert to_json(x) == d
