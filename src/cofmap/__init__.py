"""Exact computation in the inverse monoid of cofinite monotone partial
bijections of the positive integers, its bicyclic-monoid skeleton, and two
classical enlargements (adjoined zero, integer adjunction).

The names of :data:`_HOME` are the public API, each filed under its home
module.  Importing the package imports none of those modules: the first
access to a name (``cofmap.compose``, ``from cofmap import compose``)
imports its home module and binds the name here, so later accesses are
plain attribute lookups.  The submodules are attributes too, loaded on
first access.  So a process loads only what it uses: ``cofmap eval`` of
maps compiles ``core`` and ``cli`` alone.  ``from cofmap import *`` binds
only the names already loaded; import names or submodules explicitly.
"""

_HOME = {
    **dict.fromkeys(["CofMap", "GapSet", "IDENTITY", "MAX_SEGMENT", "canonical_leq", "compose",
                     "evaluate", "gapset", "initial_segment", "invert", "is_idempotent",
                     "iter_up_set", "natural_leq", "preimage", "shift", "shift_threshold",
                     "tail_identity"], "core"),
    **dict.fromkeys(["SolutionSet", "connect_idempotents", "green_d", "green_h", "green_l",
                     "green_r", "semilattice_iso", "simplicity_witness", "solve_left",
                     "solve_right"], "green"),
    **dict.fromkeys(["Bicyclic", "as_bicyclic", "congruence_witnesses", "conjugation_witness",
                     "embed", "fresh_bicyclic", "group_congruent", "standard_below",
                     "tail_projection"], "bicyclic"),
    **dict.fromkeys(["AdjElement", "AdjoinedZero", "ZERO", "ZeroElement", "adj_mul",
                     "in_adj_nbhd", "in_zero_nbhd", "zero_mul", "zero_stability_bound"],
                    "extensions"),
}
_SUBMODULES = ("core", "green", "bicyclic", "extensions", "cli", "selftest")

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home or name}")  # which binds the submodule here
    if home is not None:
        globals()[name] = getattr(globals()[home], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
