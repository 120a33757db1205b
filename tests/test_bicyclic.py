"""Bicyclic normal forms, the standard copy, and the tail constructions."""

import copy
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from cofmap import (
    Bicyclic,
    CofMap,
    IDENTITY,
    MAX_SEGMENT,
    as_bicyclic,
    compose,
    congruence_witnesses,
    conjugation_witness,
    embed,
    evaluate,
    fresh_bicyclic,
    group_congruent,
    invert,
    is_idempotent,
    natural_leq,
    shift,
    shift_threshold,
    standard_below,
    tail_identity,
    tail_projection,
)
from cofmap.selftest import rewrite_product

UP = CofMap((), (1,))
DOWN = CofMap((1,), ())

exps = st.integers(min_value=0, max_value=20)
bicyclics = st.builds(Bicyclic, exps, exps)
gap_sets = st.frozensets(st.integers(min_value=1, max_value=30), max_size=10).map(
    lambda s: tuple(sorted(s))
)
cofmaps = st.builds(CofMap, gap_sets, gap_sets)
idempotents = gap_sets.map(lambda g: CofMap(g, g))


class TestNormalForm:
    def test_multiplication_table(self):
        assert Bicyclic(0, 1) * Bicyclic(1, 0) == Bicyclic(0, 0)
        assert Bicyclic(1, 0) * Bicyclic(0, 1) == Bicyclic(1, 1)
        assert Bicyclic(2, 3) * Bicyclic(1, 5) == Bicyclic(2, 7)

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Bicyclic(-1, 0)

    @pytest.mark.parametrize("m,n", [(1.5, 0), (True, 0), (0, False), ("1", 0), (None, 1)])
    def test_rejects_exponents_that_are_not_ints(self, m, n):
        # b[1.5,0] and b[True,0] would not parse back
        with pytest.raises(ValueError, match="^normal-form exponents must be integers"):
            Bicyclic(m, n)

    @given(bicyclics, bicyclics)
    def test_matches_word_rewriting(self, x, y):
        assert (x * y) == Bicyclic(*rewrite_product(x.m, x.n, y.m, y.n))

    @given(bicyclics, bicyclics, bicyclics)
    def test_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(bicyclics)
    def test_inverse_and_idempotents(self, x):
        assert x * x.inverse() * x == x
        assert (x * x.inverse()).is_idempotent()
        assert x.is_idempotent() == (x.m == x.n)


class TestValueType:
    X = Bicyclic(1, 2)

    def test_fields_cannot_be_assigned_or_deleted(self):
        x = self.X
        with pytest.raises(AttributeError):
            x.m = 0
        with pytest.raises(AttributeError):
            x.extra = 1
        with pytest.raises(AttributeError):
            del x.n
        assert x == Bicyclic(1, 2)

    def test_pickle_and_copy(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(self.X, protocol)) == self.X
        assert copy.copy(self.X) == self.X
        assert copy.deepcopy(self.X) == self.X

    def test_equality_and_hash(self):
        assert self.X != (1, 2)
        assert self.X != embed(self.X)
        assert hash(self.X) == hash((1, 2))

    def test_repr(self):
        assert repr(self.X) == "Bicyclic(m=1, n=2)"
        assert repr(Bicyclic(m=0, n=0)) == "Bicyclic(m=0, n=0)"


class TestEmbedding:
    def test_values(self):
        assert embed(Bicyclic(0, 0)) == IDENTITY
        assert embed(Bicyclic(0, 1)) == UP
        assert embed(Bicyclic(1, 0)) == DOWN
        g = embed(Bicyclic(2, 3))
        assert g == CofMap((1, 2), (1, 2, 3))
        assert [evaluate(g, i) for i in (3, 4, 10)] == [4, 5, 11]

    def test_membership(self):
        assert as_bicyclic(IDENTITY) == Bicyclic(0, 0)
        assert as_bicyclic(CofMap((1, 2), (1,))) == Bicyclic(2, 1)
        assert as_bicyclic(CofMap((2,), (1,))) is None
        assert as_bicyclic(CofMap((1, 3), (1, 2))) is None

    @given(bicyclics, bicyclics)
    def test_homomorphism(self, x, y):
        assert embed(x * y) == compose(embed(x), embed(y))

    @given(bicyclics)
    def test_round_trip_and_shift(self, x):
        assert as_bicyclic(embed(x)) == x
        assert shift(embed(x)) == x.n - x.m
        assert invert(embed(x)) == embed(x.inverse())

    @given(cofmaps)
    def test_membership_means_initial_segments(self, g):
        want = set(g.dom_gaps) == set(range(1, len(g.dom_gaps) + 1)) and set(
            g.ran_gaps
        ) == set(range(1, len(g.ran_gaps) + 1))
        assert (as_bicyclic(g) is not None) == want


class TestFreshBicyclic:
    def test_instance_values(self):
        unity, up, down = fresh_bicyclic(CofMap((2,), (2,)))
        assert unity == CofMap((1, 2, 4), (1, 2, 4))
        assert up == CofMap((1, 2, 4), (1, 2, 4, 5))
        assert down == invert(up)
        assert fresh_bicyclic(IDENTITY)[0] == CofMap((2,), (2,))

    def test_rejects_non_idempotents(self):
        with pytest.raises(ValueError):
            fresh_bicyclic(UP)

    @given(idempotents)
    def test_postconditions(self, e):
        unity, up, down = fresh_bicyclic(e)
        assert natural_leq(unity, e)
        assert compose(up, down) == unity
        assert as_bicyclic(unity) is None

    @settings(max_examples=50, deadline=None)
    @given(idempotents, st.integers(0, 6), st.integers(0, 6),
           st.integers(0, 6), st.integers(0, 6))
    def test_copy_is_bicyclic_and_disjoint(self, e, s, t, s2, t2):
        unity, up, down = fresh_bicyclic(e)
        pow_up = [unity]
        for _ in range(12):
            pow_up.append(compose(pow_up[-1], up))

        def elem(i, j):
            return compose(invert(pow_up[i]), pow_up[j])

        assert as_bicyclic(elem(s, t)) is None
        k = min(t, s2)
        assert compose(elem(s, t), elem(s2, t2)) == elem(s + s2 - k, t + t2 - k)


class TestTailProjection:
    def test_values(self):
        assert tail_projection(IDENTITY) == (IDENTITY, IDENTITY)
        assert tail_projection(UP) == (UP, CofMap((1,), (1,)))
        mu, eps = tail_projection(CofMap((1, 2, 3), (5,)))
        assert mu == CofMap((1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5))
        assert eps == tail_identity(8)

    @given(cofmaps)
    def test_postconditions(self, g):
        mu, eps = tail_projection(g)
        assert as_bicyclic(mu) is not None
        assert as_bicyclic(eps) is not None and is_idempotent(eps)
        assert compose(g, eps) == compose(mu, eps)
        assert compose(eps, g) == compose(eps, mu)


class TestAbsorbingIdempotent:
    """``standard_below(e)`` absorbs ``e``: ``e * eps == eps``."""

    def test_values(self):
        for e, eps in [
            (IDENTITY, IDENTITY),
            (CofMap((2,), (2,)), CofMap((1, 2), (1, 2))),
            (CofMap((1, 4), (1, 4)), tail_identity(5)),
        ]:
            assert standard_below(e) == eps
            assert compose(e, eps) == eps

    @given(idempotents)
    def test_postconditions(self, e):
        eps = standard_below(e)
        assert compose(e, eps) == eps and as_bicyclic(eps) is not None
        # any standard idempotent below eps is absorbed the same way
        psi = tail_identity(len(eps.dom_gaps) + 3)
        assert natural_leq(psi, eps)
        assert as_bicyclic(compose(psi, eps)) is not None
        assert is_idempotent(compose(psi, eps))


class TestStandardBelow:
    def test_values(self):
        assert standard_below(IDENTITY) == IDENTITY
        assert standard_below(CofMap((2,), (2,))) == CofMap((1, 2), (1, 2))
        assert standard_below(CofMap((1, 4), (1, 4))) == tail_identity(5)

    def test_rejects_non_idempotents(self):
        with pytest.raises(ValueError):
            standard_below(UP)

    @given(idempotents)
    def test_postconditions(self, e):
        below = standard_below(e)
        assert as_bicyclic(below) is not None
        assert natural_leq(below, e)


class TestConjugationWitness:
    def test_values(self):
        assert conjugation_witness(IDENTITY) == (IDENTITY, IDENTITY, IDENTITY)
        eps, left, right = conjugation_witness(UP)
        assert eps == CofMap((1,), (1,))
        assert left == IDENTITY
        assert right == CofMap((1, 2), (1, 2))

    @given(cofmaps)
    def test_postconditions(self, g):
        eps, left, right = conjugation_witness(g)
        gi = invert(g)
        assert left == compose(compose(g, eps), gi)
        assert right == compose(compose(gi, eps), g)
        for c in (left, right):
            assert is_idempotent(c)
            assert as_bicyclic(c) is not None

    @pytest.mark.parametrize("g", [
        CofMap(tuple(range(2, 2001, 2)), tuple(range(3, 4501, 3))),  # shift 500
        CofMap(tuple(range(3, 4501, 3)), tuple(range(2, 2001, 2))),  # shift -500
        CofMap(tuple(range(1, 1201)), tuple(range(5, 6001, 5))),     # shift 0
    ])
    def test_wide_maps_match_composition(self, g):
        eps, left, right = conjugation_witness(g)
        gi = invert(g)
        assert eps == tail_projection(g)[1]
        assert left == compose(compose(g, eps), gi)
        assert right == compose(compose(gi, eps), g)

    def test_longer_conjugate_is_not_capped(self):
        # {1..T-1} is 600,000 points, within the cap; the right conjugate
        # needs 1,200,000, like the product g' * eps * g it equals
        eps, left, right = conjugation_witness(CofMap((), tuple(range(1, 600_001))))
        assert eps == tail_identity(600_001)
        assert left == IDENTITY
        assert right.dom_gaps == right.ran_gaps == tuple(range(1, 1_200_001))


class TestSegmentCap:
    # an idempotent m[1..k;1..k] needs the tail identity past k, {1..k} as gaps
    @pytest.mark.parametrize("construction", [tail_projection, conjugation_witness])
    def test_returns_at_the_cap_and_raises_past_it(self, construction):
        at_cap = tuple(range(1, MAX_SEGMENT + 1))
        e = CofMap(at_cap, at_cap)
        assert all(w == e for w in construction(e))
        past = at_cap + (MAX_SEGMENT + 1,)
        with pytest.raises(ValueError, match=re.escape(f"{{1..{MAX_SEGMENT + 1}}}")):
            construction(CofMap(past, past))


class TestGroupCongruence:
    def test_values(self):
        assert group_congruent(UP, UP)
        # the restriction of the unit shift to {2,3,...} also has shift 1
        assert group_congruent(UP, CofMap((1,), (1, 2)))
        assert not group_congruent(UP, CofMap((1,), (2,)))
        assert not group_congruent(UP, DOWN)
        assert congruence_witnesses(UP, DOWN) is None

    @given(cofmaps, cofmaps)
    def test_witnesses_verify(self, a, b):
        w = congruence_witnesses(a, b)
        assert (w is not None) == group_congruent(a, b) == (shift(a) == shift(b))
        if w is not None:
            left, right = w
            assert as_bicyclic(left) is not None and as_bicyclic(right) is not None
            assert compose(left, a) == compose(left, b)
            assert compose(a, right) == compose(b, right)
        else:
            # no tail identity can merge maps with different shifts
            eps = tail_identity(max(shift_threshold(a), shift_threshold(b)) + 3)
            assert compose(eps, a) != compose(eps, b)
            assert compose(a, eps) != compose(b, eps)

    @given(cofmaps, cofmaps, cofmaps)
    def test_is_a_congruence(self, a, b, c):
        if group_congruent(a, b):
            assert group_congruent(compose(c, a), compose(c, b))
            assert group_congruent(compose(a, c), compose(b, c))

    @given(st.integers(-10, 10))
    def test_shift_is_onto(self, n):
        witness = embed(Bicyclic(0, n)) if n >= 0 else embed(Bicyclic(-n, 0))
        assert shift(witness) == n
