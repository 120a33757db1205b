"""Acceptance suite: every law of the registry ``cofmap.selftest.CHECKS``
at 10,000 cases, one test per check, with the check name as the test id.

Each check draws from the generator that ``cofmap selftest`` gives it, so a
failure here replays exactly with ``cofmap selftest --seed 1 --cases 10000``.
"""

import pytest

from cofmap.selftest import CHECKS, rng_for

SEED = 1
CASES = 10_000


@pytest.mark.parametrize("name,law", CHECKS, ids=[name for name, _ in CHECKS])
def test_law(name, law):
    failures = law(rng_for(SEED, name), CASES)
    assert failures == 0, (
        f"{failures} failure(s); replay with: cofmap selftest --seed {SEED} --cases {CASES}")
