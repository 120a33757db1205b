"""The library calls the workloads make, one name per call.

Untraced, each name is the library function itself (or a one-line helper
where the call is an operator or a loop), so an untraced run pays nothing
for the indirection.  Traced, each name is wrapped in a span named after
its module's layer; the CLI's own ``parse``, ``eval_expr``, ``render``
and ``build_parser`` are rebound in ``cofmap.cli`` for the run, so their
spans nest inside the ``cli.main`` span that calls them.
"""

from __future__ import annotations

import cofmap
from cofmap import cli


def _mul(x, y):
    return x * y


def _len(sols):
    return len(sols.solutions)


def _iterate(sols):
    n = 0
    for _ in sols.solutions:
        n += 1
    return n


def _contains(sols, x):
    return x in sols.solutions


# attribute -> (span name, function)
CALLS = {
    "construct": ("core.construct", cofmap.CofMap),
    "compose": ("core.compose", cofmap.compose),
    "invert": ("core.invert", cofmap.invert),
    "canonical_leq": ("core.canonical_leq", cofmap.canonical_leq),
    "natural_leq": ("core.natural_leq", cofmap.natural_leq),
    "evaluate": ("core.evaluate", cofmap.evaluate),
    "preimage": ("core.preimage", cofmap.preimage),
    "shift_threshold": ("core.shift_threshold", cofmap.shift_threshold),
    "solve_right": ("green.solve", cofmap.solve_right),
    "solve_left": ("green.solve", cofmap.solve_left),
    "solutions_len": ("green.solve.len", _len),
    "solutions_iter": ("green.solve.iter", _iterate),
    "solutions_contain": ("green.solve.contains", _contains),
    "connect_idempotents": ("green.witness", cofmap.connect_idempotents),
    "simplicity_witness": ("green.witness", cofmap.simplicity_witness),
    "green_r": ("green.relation", cofmap.green_r),
    "green_l": ("green.relation", cofmap.green_l),
    "green_h": ("green.relation", cofmap.green_h),
    "green_d": ("green.relation", cofmap.green_d),
    "bicyclic_mul": ("bicyclic.mul", _mul),
    "embed": ("bicyclic.embed", cofmap.embed),
    "as_bicyclic": ("bicyclic.embed", cofmap.as_bicyclic),
    "tail_projection": ("bicyclic.tail", cofmap.tail_projection),
    "conjugation_witness": ("bicyclic.tail", cofmap.conjugation_witness),
    "congruence_witnesses": ("bicyclic.tail", cofmap.congruence_witnesses),
    "zero_mul": ("extensions.mul", cofmap.zero_mul),
    "adj_mul": ("extensions.mul", cofmap.adj_mul),
    "in_zero_nbhd": ("extensions.nbhd", cofmap.in_zero_nbhd),
    "in_adj_nbhd": ("extensions.nbhd", cofmap.in_adj_nbhd),
    "cli_main": ("cli.main", cli.main),
}


def _gap_count(*maps):
    return sum(len(m.dom_gaps) + len(m.ran_gaps) for m in maps)


# span name -> counter(tracer, args, result), for the layers that count work
COUNTERS = {
    "core.construct": lambda t, a, r: t.count("core.construct.gaps", len(a[0]) + len(a[1])),
    "core.compose": lambda t, a, r: (t.count("core.compose.gaps_in", _gap_count(*a)),
                                     t.count("core.compose.gaps_out", _gap_count(r))),
    "green.solve": lambda t, a, r: t.count("green.solve.solutions", len(r.solutions)),
}


class Layers:
    """Namespace of the calls above, plain or traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._restore = {}
        for attr, (span, fn) in CALLS.items():
            setattr(self, attr, fn if tracer is None else self._wrap(span, fn))
        if tracer is not None:
            self._trace_cli()

    def _wrap(self, span, fn):
        call, counter, tracer = self.tracer.call, COUNTERS.get(span), self.tracer
        if counter is None:
            return lambda *args: call(span, fn, *args)

        def traced(*args):
            out = call(span, fn, *args)
            counter(tracer, args, out)
            return out
        return traced

    def _trace_cli(self):
        call, tracer = self.tracer.call, self.tracer
        parse, eval_expr = cli.parse, cli.eval_expr
        self._restore = {name: getattr(cli, name)
                         for name in ("parse", "eval_expr", "render", "build_parser")}

        def traced_parse(text):
            tracer.count("cli.parse.chars", len(text))
            return call("cli.parse", parse, text)

        def traced_eval_expr(node):
            # the recursion inside runs untraced, at its usual stack depth
            cli.eval_expr = eval_expr
            try:
                return call("cli.eval_expr", eval_expr, node)
            finally:
                cli.eval_expr = traced_eval_expr

        cli.parse = traced_parse
        cli.eval_expr = traced_eval_expr
        cli.render = self._wrap("cli.render", self._restore["render"])
        cli.build_parser = self._wrap("cli.build_parser", self._restore["build_parser"])

    def close(self):
        for name, fn in self._restore.items():
            setattr(cli, name, fn)
        self._restore = {}
