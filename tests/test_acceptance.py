"""Acceptance suite: every law of the registry ``cofmap.selftest.CHECKS``
at 10,000 cases, one test per check, with the check name as the test id.

Each check draws from the generator that ``cofmap selftest`` gives it, so a
failure here replays exactly with ``cofmap selftest --seed 1 --cases 10000``.
The registry's power is tested too: each known-wrong implementation below,
put in place of the library's, makes its law report failures at the
default ``cofmap selftest`` settings.
"""

import pytest

import cofmap.selftest
from cofmap import CofMap, compose, evaluate, shift
from cofmap.selftest import CHECKS, rng_for

SEED = 1
CASES = 10_000


@pytest.mark.parametrize("name,law", CHECKS, ids=[name for name, _ in CHECKS])
def test_law(name, law):
    failures = law(rng_for(SEED, name), CASES)
    assert failures == 0, (
        f"{failures} failure(s); replay with: cofmap selftest --seed {SEED} --cases {CASES}")


def _compose_dropping_last_gaps(g, h):
    # drops the last gap of each side once the product has more than 3 domain gaps
    p = compose(g, h)
    return CofMap(p.dom_gaps[:-1], p.ran_gaps[:-1]) if len(p.dom_gaps) > 3 else p


def _evaluate_off_by_one(g, x):
    # one too far at the points from 25 on that are multiples of 7
    y = evaluate(g, x)
    return y + 1 if y is not None and x >= 25 and x % 7 == 0 else y


MUTANTS = [
    ("compose", _compose_dropping_last_gaps, "compose agrees with pointwise composition"),
    ("evaluate", _evaluate_off_by_one, "shift is additive and the tail law holds"),
    ("zero_stability_bound", lambda i, a: i + min(len(a.dom_gaps), len(a.ran_gaps)),
     "translation keeps zero neighborhoods stable"),
    ("canonical_leq", lambda a, b: shift(a) == shift(b),
     "canonical order implies equal shift and pointwise restriction"),
]


@pytest.mark.parametrize("attr,wrong,name", MUTANTS, ids=[attr for attr, _, _ in MUTANTS])
def test_law_catches_a_wrong_implementation(monkeypatch, attr, wrong, name):
    monkeypatch.setattr(cofmap.selftest, attr, wrong)
    law = dict(CHECKS)[name]
    assert law(rng_for(SEED, name), 300) > 0
