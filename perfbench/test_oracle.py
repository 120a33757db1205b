"""The benchmark's oracles on cases worked by hand.

    python3 -m pytest perfbench/test_oracle.py
"""

from math import comb

import oracle as o

UP = ((), (1,))          # n -> n + 1
DOWN = ((1,), ())        # n -> n - 1 on {2, 3, ...}
ID = ((), ())
M = ((2,), (1, 3))       # 1->2, 3->4, 4->5, ...


def test_window_pairs_ranks():
    assert o.window(M, 5) == {1: 2, 3: 4, 4: 5, 5: 6}
    assert o.window(UP, 3) == {1: 2, 2: 3, 3: 4}
    assert o.window(DOWN, 3) == {2: 1, 3: 2}


def test_product_applies_the_left_factor_first():
    assert o.product(UP, DOWN) == ID
    assert o.product(DOWN, UP) == ((1,), (1,))
    assert o.product(UP, UP, UP) == ((), (1, 2, 3))
    # 1->2->None: 2 is a domain gap of M, so 1 leaves the domain
    assert o.product(UP, M) == ((1,), (1, 2, 3))


def test_inverse_and_points():
    assert o.inverse(M) == ((1, 3), (2,))
    assert o.image_of(M, 2) is None
    assert o.image_of(M, 3) == 4
    assert o.product(M, o.inverse(M), M) == M


def test_shift_and_threshold():
    g = ((1, 2, 3), (5,))
    assert o.shift(g) == -2
    # 4->1, 5->2, 6->3, 7->4, 8->6: 8 is the first image past the gap 5
    assert o.threshold(g) == 8
    assert o.threshold(ID) == 1


def test_orders_and_idempotents():
    assert o.is_idempotent(((2, 5), (2, 5)))
    assert not o.is_idempotent(M)
    assert o.restricts(((1,), (1,)), ID)
    assert not o.restricts(ID, ((1,), (1,)))
    assert o.restrict(ID, (2,)) == ((2,), (2,))
    assert o.restrict(UP, (1,)) == ((1,), (1, 2))
    assert o.dom_within(((1, 2), (1, 2)), ((1,), (1,)))
    assert not o.dom_within(((1,), (1,)), ((1, 2), (1, 2)))
    assert o.is_standard(((1, 2), (1,))) and not o.is_standard(((2,), ()))
    assert o.standard(2, 1) == ((1, 2), (1,))


def test_bicyclic_words():
    assert o.bicyclic_product((0, 1), (1, 0)) == (0, 0)   # raise then lower
    assert o.bicyclic_product((1, 0), (0, 1)) == (1, 1)   # lower then raise
    assert o.bicyclic_product((2, 3), (1, 5)) == (2, 7)
    assert o.bicyclic_product((0, 2), (5, 0)) == (3, 0)


def test_brute_solutions():
    assert o.brute_solutions("right", UP, UP) == [ID, ((1,), (1,))]
    # m[;1,2] * x == m[;1]: x sends 3, 4, ... to 2, 3, ... and 1 or 2 or neither to 1
    assert o.brute_solutions("right", ((), (1, 2)), UP) == [((1,), ()), ((1, 2), (1,)), ((2,), ())]
    for p, q in ((3, 2), (4, 4)):
        sols = o.brute_solutions("right", o.standard(0, p), o.standard(0, q))
        assert len(sols) == comb(p + q, p)
    # x * m[1,2;] == m[1;]: three maps, as worked out by hand
    assert o.brute_solutions("left", ((1, 2), ()), ((1,), ())) == [((), (1,)), ((), (2,)), ((1,), (1, 2))]
    assert o.brute_solutions("right", ((1,), ()), ID) == []   # dom b is not inside dom a
    assert o.satisfies("left", ((1, 2), ()), ((1,), ()), ((1,), (1, 2)))
    assert not o.satisfies("right", UP, UP, UP)
