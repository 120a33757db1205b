"""Green's relations, structural witnesses, and the translation solver."""

import time
import tracemalloc
from itertools import combinations, islice
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cofmap import (
    CofMap,
    IDENTITY,
    canonical_leq,
    compose,
    connect_idempotents,
    green_d,
    green_h,
    green_l,
    green_r,
    invert,
    natural_leq,
    semilattice_iso,
    simplicity_witness,
    solve_left,
    solve_right,
)
from cofmap.green import CHUNK
from cofmap.selftest import all_gapsets

UP = CofMap((), (1,))
DOWN = CofMap((1,), ())

gap_sets = st.frozensets(st.integers(min_value=1, max_value=30), max_size=10).map(
    lambda s: tuple(sorted(s))
)
cofmaps = st.builds(CofMap, gap_sets, gap_sets)
idempotents = gap_sets.map(lambda g: CofMap(g, g))


class TestGreenRelations:
    def test_values(self):
        assert green_r(UP, UP)
        assert green_r(CofMap((), (1,)), CofMap((), (2,)))
        assert not green_l(CofMap((), (1,)), CofMap((), (2,)))
        assert not green_h(CofMap((), (1,)), CofMap((), (2,)))
        assert green_d(UP, DOWN)

    @given(cofmaps, cofmaps)
    def test_idempotent_characterisation(self, a, b):
        assert green_r(a, b) == (compose(a, invert(a)) == compose(b, invert(b)))
        assert green_l(a, b) == (compose(invert(a), a) == compose(invert(b), b))
        assert green_h(a, b) == (green_r(a, b) and green_l(a, b)) == (a == b)


class TestConnectIdempotents:
    def test_values(self):
        assert connect_idempotents(IDENTITY, IDENTITY) == IDENTITY
        a = connect_idempotents(CofMap((1,), (1,)), CofMap((2,), (2,)))
        assert a == CofMap((1,), (2,))
        assert [a(n) for n in (2, 3, 4)] == [1, 3, 4]

    def test_rejects_non_idempotents(self):
        with pytest.raises(ValueError):
            connect_idempotents(UP, IDENTITY)

    @given(idempotents, idempotents)
    def test_postconditions(self, e, i):
        a = connect_idempotents(e, i)
        assert compose(a, invert(a)) == e
        assert compose(invert(a), a) == i

    @given(idempotents)
    def test_diagonal(self, e):
        assert connect_idempotents(e, e) == e

    def test_uniqueness_small(self):
        # no other candidate map in a small universe links the same pair
        subs = all_gapsets(4)
        universe = [CofMap(d, r) for d in subs for r in subs]
        for e_gaps in [(1,), (2, 3), (1, 4)]:
            for i_gaps in [(), (1,), (2, 4)]:
                e, i = CofMap(e_gaps, e_gaps), CofMap(i_gaps, i_gaps)
                found = [
                    x
                    for x in universe
                    if compose(x, invert(x)) == e and compose(invert(x), x) == i
                ]
                assert found == [connect_idempotents(e, i)]


class TestSimplicityWitness:
    def test_values(self):
        a = CofMap((1, 3), (2,))
        g, d = simplicity_witness(a, a)
        assert g == CofMap(a.dom_gaps, a.dom_gaps)
        assert d == CofMap(a.ran_gaps, a.ran_gaps)
        g, d = simplicity_witness(IDENTITY, UP)
        assert (g, d) == (IDENTITY, UP)
        assert compose(compose(g, IDENTITY), d) == UP

    @given(cofmaps, cofmaps)
    def test_composes_to_target(self, a, b):
        g, d = simplicity_witness(a, b)
        assert compose(compose(g, a), d) == b


class TestSemilatticeIso:
    def test_values(self):
        assert semilattice_iso(IDENTITY) == ()
        assert semilattice_iso(CofMap((1, 4), (1, 4))) == (1, 4)
        e, f = CofMap((1,), (1,)), CofMap((2,), (2,))
        assert semilattice_iso(compose(e, f)) == (1, 2)

    def test_rejects_non_idempotents(self):
        with pytest.raises(ValueError):
            semilattice_iso(UP)

    @given(idempotents, idempotents)
    def test_homomorphism_and_order(self, e, f):
        assert set(semilattice_iso(compose(e, f))) == set(
            semilattice_iso(e)
        ) | set(semilattice_iso(f))
        assert natural_leq(e, f) == (
            set(semilattice_iso(e)) >= set(semilattice_iso(f))
        )


def brute_solutions(a, b, bound, side):
    subs = all_gapsets(bound)
    out = []
    for d in subs:
        for r in subs:
            x = CofMap(d, r)
            prod = compose(a, x) if side == "right" else compose(x, a)
            if prod == b:
                out.append(x)
    return sorted(out, key=lambda m: (m.dom_gaps, m.ran_gaps))


# factor/target gap sets within [1,3] and at most 2 per side: solutions then
# provably fit inside [1,5], so a [1,6] brute-force universe is covering
tiny_gaps = st.frozensets(st.integers(min_value=1, max_value=3), max_size=2).map(
    lambda s: tuple(sorted(s))
)
tiny_maps = st.builds(CofMap, tiny_gaps, tiny_gaps)


class TestSolve:
    def test_identity_factor(self):
        b = CofMap((2,), (1, 3))
        assert tuple(solve_right(IDENTITY, b)) == (b,)
        assert tuple(solve_left(IDENTITY, b)) == (b,)

    def test_spec_instances(self):
        assert tuple(solve_right(UP, UP)) == (IDENTITY, CofMap((1,), (1,)))
        assert tuple(solve_right(UP, IDENTITY)) == (DOWN,)
        left = solve_left(DOWN, IDENTITY)
        assert tuple(left) == (UP,)
        assert left.side == "left" and left.factor == DOWN

    def test_empty_set_is_a_normal_result(self):
        # the target's domain must sit inside the factor's domain, else no x
        assert tuple(solve_right(DOWN, IDENTITY)) == ()
        # mirror condition on images for the left equation
        assert tuple(solve_left(UP, IDENTITY)) == ()

    def test_far_single_gap(self):
        # one optional point far out: the search must not take a stack frame
        # per point below it
        far = CofMap((), (1000,))
        assert tuple(solve_right(far, far)) == (IDENTITY, CofMap((1000,), (1000,)))
        assert tuple(solve_left(invert(far), invert(far))) == (IDENTITY, CofMap((1000,), (1000,)))

    @settings(max_examples=60, deadline=None)
    @given(tiny_maps, tiny_maps)
    def test_right_matches_exhaustive(self, a, b):
        got = solve_right(a, b)
        assert list(got) == brute_solutions(a, b, 6, "right")

    @settings(max_examples=60, deadline=None)
    @given(tiny_maps, tiny_maps)
    def test_left_matches_exhaustive(self, a, b):
        got = solve_left(a, b)
        assert list(got) == brute_solutions(a, b, 6, "left")

    @given(cofmaps, cofmaps)
    def test_solutions_satisfy_equation(self, a, b):
        rt = solve_right(a, b)
        for x in rt:
            assert compose(a, x) == b
        lt = solve_left(a, b)
        for x in lt:
            assert compose(x, a) == b

    @given(cofmaps, cofmaps)
    def test_deterministic_ordering(self, a, b):
        sols = solve_right(a, b)
        keys = [(s.dom_gaps, s.ran_gaps) for s in sols]
        assert keys == sorted(keys)
        assert len(set(sols)) == len(sols)

    @settings(deadline=None)
    @given(cofmaps, cofmaps)
    def test_every_solution_extends_the_least(self, a, b):
        # the monoid is inverse: a' * b solves a * x == b when anything does,
        # and lies below every solution in the natural order; b * a' likewise
        # for x * a == b
        for sols, least in ((solve_right(a, b), compose(invert(a), b)),
                            (solve_left(a, b), compose(b, invert(a)))):
            if sols.count:
                assert least in sols
                assert all(canonical_leq(least, x) for x in islice(sols, 200))

    @settings(deadline=None)
    @given(cofmaps, cofmaps)
    def test_count_is_the_number_listed(self, a, b):
        for sols in (solve_right(a, b), solve_left(a, b)):
            assert sols.count == len(sols) == len(list(sols))


# (factor, target) of right equations whose solutions split into two or three
# blocks, with barred points inside a block, gaps shared by every solution
# before, between and after the blocks, and blocks after which every solution
# still has a domain gap; every gap of the equations and their solutions is
# at most 7, so the brute-force universe [1,7] covers them.  The left side
# solves the inverted equations, whose blocks are the same with domain and
# image swapped.
MULTI_BLOCK = [
    (CofMap((2, 5), (1, 3, 5)), CofMap((2, 4, 5, 6), (1, 3, 5, 7))),
    (CofMap((3, 4, 5), (1, 3, 5)), CofMap((3, 4, 5, 6, 7), (1, 3, 4, 6, 7))),
    (CofMap((1, 4, 6), (1, 3, 5)), CofMap((1, 3, 4, 6, 7), (1, 3, 4, 5, 7))),
    (CofMap((1, 4), (1, 3, 5)), CofMap((1, 4, 6), (1, 3, 5, 7))),
    (CofMap((1, 5), (1, 3, 4, 6)), CofMap((1, 3, 5), (1, 3, 4, 5, 6, 7))),
    (CofMap((5,), (1, 3, 4, 5)), CofMap((5,), (1, 3, 4, 5, 6, 7))),
    (CofMap((), (2, 4, 6)), CofMap((), (2, 4, 6))),  # three blocks of one point and one slot
]



def segment(n):
    return tuple(range(1, n + 1))


def standard_solutions(p, q, side):
    """The solutions of ``m[;1..p] * x == m[;1..q]`` from the closed form,
    with no call to the solver: ``m[D;R]`` for ``D`` in [p] and ``R`` in [q]
    with ``p - |D| == q - |R|``, sorted by ``(D, R)``.  The left mirror,
    ``x * m[1..p;] == m[1..q;]``, has the swapped pairs ``m[R;D]``, sorted.
    """
    pairs = [(d, r) for k in range(max(0, p - q), p + 1) for d in combinations(segment(p), k)
             for r in combinations(segment(q), q - p + k)]
    if side == "left":
        pairs = [(r, d) for d, r in pairs]
    return [CofMap(d, r) for d, r in sorted(pairs)]


class TestSolutionSet:
    @pytest.mark.parametrize("a, b", MULTI_BLOCK)
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_order_and_membership_match_exhaustive(self, side, a, b):
        if side == "left":
            sols = solve_left(invert(a), invert(b))
            want = brute_solutions(invert(a), invert(b), 7, "left")
        else:
            sols = solve_right(a, b)
            want = brute_solutions(a, b, 7, "right")
        assert len(want) > 1
        assert list(sols) == want
        assert sols.count == len(want)
        members = set(want)
        subs = all_gapsets(7)
        for d in subs:
            for r in subs:
                x = CofMap(d, r)
                assert (x in sols) == (x in members)

    def test_far_gap_costs_nothing(self):
        far = CofMap((), (10**9,))
        start = time.perf_counter()
        sols = list(solve_right(far, far))
        elapsed = time.perf_counter() - start
        assert sols == [IDENTITY, CofMap((10**9,), (10**9,))]
        assert elapsed < 0.01

    def test_many_points_for_one_slot(self):
        # m[;1..n] * x == m[;1]: x keeps every point 1..n out of its domain,
        # or all but one p, which it sends to the one free slot, 1
        n = 300
        a, b = CofMap((), tuple(range(1, n + 1))), CofMap((), (1,))
        every = tuple(range(1, n + 1))
        want = [CofMap(every, (1,))] + [CofMap(every[:p - 1] + every[p:], ()) for p in every]
        want.sort(key=lambda m: (m.dom_gaps, m.ran_gaps))
        assert list(solve_right(a, b)) == want
        mirrored = sorted((invert(x) for x in want), key=lambda m: (m.dom_gaps, m.ran_gaps))
        assert list(solve_left(invert(a), invert(b))) == mirrored

    def test_exact_count_past_the_index_size(self):
        seg = CofMap((), tuple(range(1, 41)))
        sols = solve_right(seg, seg)
        assert sols.count == comb(80, 40)
        with pytest.raises(OverflowError):
            len(sols)
        assert sols and not solve_right(CofMap((1,), ()), IDENTITY)
        first = next(iter(sols))
        assert first == IDENTITY and first in sols
        assert CofMap((1,), ()) not in sols and "m[;]" not in sols

    def test_equal_when_the_equation_is(self):
        a, b = MULTI_BLOCK[0]
        assert solve_right(a, b) == solve_right(a, b)
        assert hash(solve_right(a, b)) == hash(solve_right(a, b))
        assert solve_right(a, b) != solve_left(a, b)
        assert solve_right(a, b) != solve_right(b, b)
        assert solve_right(UP, UP) != 5

    def test_repr(self):
        assert repr(solve_right(UP, UP)) == "SolutionSet('right', CofMap([], [1]), CofMap([], [1]), count=2)"

    # 1,716 solutions, or 27,132 with 1,716 of them sharing m[;1..6]'s domain
    @pytest.mark.parametrize("p, q", [(6, 7), (7, 6), (6, 13)])
    @pytest.mark.parametrize("side", ["right", "left"])
    def test_listing_past_one_chunk_matches_closed_form(self, side, p, q):
        if side == "right":
            sols = solve_right(CofMap((), segment(p)), CofMap((), segment(q)))
        else:
            sols = solve_left(CofMap(segment(p), ()), CofMap(segment(q), ()))
        want = standard_solutions(p, q, side)
        assert len(want) == comb(p + q, p) > CHUNK
        assert list(sols) == want
        assert sols.count == len(want)

    def test_iterators_over_one_set_are_independent(self):
        sols = solve_right(CofMap((), segment(6)), CofMap((), segment(7)))
        first, second = iter(sols), iter(sols)
        pairs = list(zip(first, second))  # advanced in turn
        assert len(pairs) == sols.count > CHUNK
        assert all(x == y for x, y in pairs)
        assert [x for x, _ in pairs] == list(sols)

    def test_listing_past_one_chunk_of_a_huge_set(self):
        a = b = CofMap((), segment(40))
        sols = solve_right(a, b)
        head = list(islice(sols, 2500))
        keys = [(x.dom_gaps, x.ran_gaps) for x in head]
        assert len(head) == 2500
        assert all(k < k_next for k, k_next in zip(keys, keys[1:]))  # increasing, so distinct
        assert all(compose(a, x) == b for x in head)

    def test_listing_past_a_thousand_blocks_matches_closed_form(self):
        # x * m[;E] == m[;E] for E = (2, 4, ..., 3000): 1,500 blocks of one
        # point and one slot, listed from m[;] through m[E[:i];E[:i]]
        evens = tuple(range(2, 3001, 2))
        want = [CofMap(evens[:i], evens[:i]) for i in range(1200)]
        a = CofMap((), evens)
        assert list(islice(solve_right(a, a), 1200)) == want
        assert list(islice(solve_left(invert(a), invert(a)), 1200)) == want

    def test_construction_memory_is_linear_in_blocks(self):
        a = CofMap((), tuple(range(2, 10001, 2)))  # 5,000 blocks
        tracemalloc.start()
        try:
            sols = solve_right(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sols.count == 2 ** 5000
        assert peak < 10 * 2 ** 20
