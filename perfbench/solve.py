"""solve-enum: the translation solver on equations with 35 to 24,310
solutions.

Output size, not input size, sets the cost here.  Every equation is sent
twice a round: an enumerate request solves and walks every solution
(``ops_per_s``); a count request solves, takes the number of solutions and
tests a few maps for membership (``query_per_s``).  The standard-copy pairs
``m[;1..p]``, ``m[;1..q]`` fix the large counts, C(p+q, p), whatever the
seed; the seed draws the random pairs and the maps tested for membership.
The requests keep one order on every seed, so that memory is allocated
and freed in the same pattern and the peak resident size repeats.

One enumerate request fails today and is counted as failed:
``solve_right(m[;1000], m[;1000])`` raises RecursionError in the recursive
search of ``green._right_solutions``.
"""

from __future__ import annotations

import json
from math import comb

import oracle as o
import props
from props import gaps as gp
from gen import gapset
from harness import Op, Plan, Process, Slot
from oracle import expect

RIGHT_PQ = [(4, 5), (6, 6), (7, 8), (8, 9)]       # 126, 924, 6435, 24310 solutions
LEFT_PQ = [(3, 4), (5, 6), (7, 7)]                # 35, 462, 3432 solutions
RANDOM_PAIRS = 6                                  # a side
SAMPLE = 200                                      # solutions checked pointwise per request
DEEP_GAP = 1000
PROCESS_PQ = (5, 6)


def digest(sols):
    """Order-sensitive fingerprint of a solution set, for later rounds."""
    h, n = 0, 0
    for s in sols.solutions:
        h = hash((h, s.dom_gaps, s.ran_gaps))
        n += 1
    return n, h


def random_pair(rng):
    """(a, b, x0) with a * x0 == b, small enough to search exhaustively."""
    a = (gapset(rng, rng.randint(0, 3), 12), gapset(rng, rng.randint(1, 3), 12))
    x0 = (gapset(rng, rng.randint(0, 3), 14), gapset(rng, rng.randint(0, 3), 14))
    return a, o.product(a, x0), x0


def standard_member(rng, p, q):
    """A seeded solution of the standard-copy pair, from the closed form."""
    k = rng.randint(0, min(p, q))
    s, t = set(rng.sample(range(1, p + 1), k)), set(rng.sample(range(1, q + 1), k))
    return (tuple(i for i in range(1, p + 1) if i not in s),
            tuple(i for i in range(1, q + 1) if i not in t))


def build(rng, L, lib) -> Plan:
    M = lambda pair: lib.CofMap(*pair)  # noqa: E731
    flip = lambda pair: (pair[1], pair[0])  # noqa: E731  the inverse, by definition

    def enumerate_request(solver, a, b):
        sols = solver(a, b)
        L.solutions_iter(sols)
        return sols

    def count_request(solver, a, b, probes):
        sols = solver(a, b)
        return L.solutions_len(sols), tuple(L.solutions_contain(sols, x) for x in probes)

    equations = []   # (side, a, b, probes, check of the solution list, expected count)
    for side, pqs in (("right", RIGHT_PQ), ("left", LEFT_PQ)):
        for p, q in pqs:
            a, b, n = o.standard(0, p), o.standard(0, q), comb(p + q, p)
            members = [standard_member(rng, p, q) for _ in range(2)]
            probes = members + [(members[0][0], members[0][1] + (q + 1,))]
            if side == "left":
                a, b, probes = flip(a), flip(b), [flip(x) for x in probes]
            sample = sorted(rng.sample(range(n), min(n, SAMPLE)))
            equations.append((side, a, b, probes, lambda sols, side=side, p=p, q=q, s=sample:
                              props.standard_solutions(side, p, q, sols, s), lambda n=n: n))
    for side in ("right", "left"):
        for _ in range(RANDOM_PAIRS):
            a, b, x0 = random_pair(rng)
            probes = [x0, (gapset(rng, 2, 12), gapset(rng, 2, 12)), (x0[0], x0[1] + (40,))]
            if side == "left":
                a, b, probes = flip(a), flip(b), [flip(x) for x in probes]
            equations.append((side, a, b, probes, lambda sols, side=side, a=a, b=b:
                              props.solutions(side, a, b, sols),
                              lambda side=side, a=a, b=b: len(o.brute_solutions(side, a, b))))
    enumerate_ops, count_ops = [], []
    for side, a, b, probes, check, count in equations:
        solver = L.solve_right if side == "right" else L.solve_left
        enumerate_ops.append(Op(enumerate_request, (solver, M(a), M(b)),
                                lambda out, check=check: check([gp(s) for s in out.solutions]),
                                digest))

        def check_count(out, side=side, a=a, b=b, probes=probes, count=count):
            n, hits = out
            expect(n == count(), "solution count is wrong", side, a, b, n)
            expect(list(hits) == [o.satisfies(side, a, b, x) for x in probes],
                   "membership test disagrees with the pointwise oracle", side, a, b)
        count_ops.append(Op(count_request, (solver, M(a), M(b), tuple(map(M, probes))), check_count))

    deep = ((), (DEEP_GAP,))
    enumerate_ops.append(Op(enumerate_request, (L.solve_right, M(deep), M(deep)), lambda out: props.solutions(
        "right", deep, deep, [gp(s) for s in out.solutions]), digest))

    slots = [Slot("ops", [op]) for op in enumerate_ops] + [Slot("query", [op]) for op in count_ops]

    p, q = PROCESS_PQ
    argv = ["solve", "right", "m[;%s]" % ",".join(map(str, range(1, p + 1))),
            "m[;%s]" % ",".join(map(str, range(1, q + 1))), "--json"]

    def check_process(code, out, err):
        expect(code == 0 and not err, "cofmap solve process", code, err)
        doc = json.loads(out)
        expect(doc["equation"] == {"side": "right", "factor": {"dom_gaps": [], "ran_gaps": list(range(1, p + 1))},
                                   "target": {"dom_gaps": [], "ran_gaps": list(range(1, q + 1))}},
               "cofmap solve --json echoes another equation", doc["equation"])
        sols = [(tuple(s["dom_gaps"]), tuple(s["ran_gaps"])) for s in doc["solutions"]]
        props.standard_solutions("right", p, q, sols, range(0, len(sols), 23))
    return Plan(slots, Process(argv, check_process))
