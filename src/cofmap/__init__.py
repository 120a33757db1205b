"""Exact computation in the inverse monoid of cofinite monotone partial
bijections of the positive integers, its bicyclic-monoid skeleton, and two
classical enlargements (adjoined zero, integer adjunction).  The names
imported below are the public API."""

from .core import (
    CofMap,
    GapSet,
    IDENTITY,
    MAX_SEGMENT,
    canonical_leq,
    compose,
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
from .green import (
    SolutionSet,
    connect_idempotents,
    green_d,
    green_h,
    green_l,
    green_r,
    semilattice_iso,
    simplicity_witness,
    solve_left,
    solve_right,
)
from .bicyclic import (
    Bicyclic,
    as_bicyclic,
    congruence_witnesses,
    conjugation_witness,
    embed,
    fresh_bicyclic,
    group_congruent,
    standard_below,
    tail_projection,
)
from .extensions import (
    AdjElement,
    AdjoinedZero,
    ZERO,
    ZeroElement,
    adj_mul,
    in_adj_nbhd,
    in_zero_nbhd,
    zero_mul,
    zero_stability_bound,
)

__version__ = "0.1.0"
