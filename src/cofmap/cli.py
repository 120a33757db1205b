"""Command-line calculator for the cofinite-map monoid and its relatives.

Expression language (whitespace-insensitive):

    elem  :=  "m[" gaps ";" gaps "]"  |  "b[" nat "," nat "]"
           |  "z[" int "]"  |  "O"  |  "id"
    gaps  :=  ""  |  nat ("," nat)*
    expr  :=  term ("*" term)*
    term  :=  elem  |  "(" expr ")"  |  term "'"

``m[...;...]`` is a map given by its two gap lists, ``b[m,n]`` a bicyclic
normal form, ``z[k]`` an integer of the adjunction semigroup, ``O`` the
adjoined zero, and ``id`` is shorthand for ``m[;]``.  Postfix ``'``
inverts.  NOTE: ``*`` composes LEFT TO RIGHT, i.e. ``g * h`` applies ``g``
first; this is the opposite of the classical function-composition order.

Mixed carriers: bicyclic operands are promoted to maps when multiplied
with maps; integers absorb maps through the shift homomorphism; the zero
absorbs maps.  Integers and the zero do not mix with each other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

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
from .core import (
    CofMap,
    canonical_leq,
    compose,
    evaluate,
    gapset,
    invert,
    natural_leq,
    shift,
    shift_threshold,
    to_dict,
    up_set,
)
from .extensions import (
    ZERO,
    AdjoinedZero,
    adj_mul,
    element_to_dict,
    in_adj_nbhd,
    in_zero_nbhd,
    sample_zero_stability,
    zero_mul,
    zero_stability_bound,
)
from .green import connect_idempotents, simplicity_witness, solve_left, solve_right

OUTPUT_MODE_ENV = "COFMAP_OUTPUT"  # set to "json" to default to --json


class ParseError(ValueError):
    """Syntax error in the expression language, with the offending span."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} (at {span[0]}..{span[1]})")
        self.span = span


class ExprTypeError(ValueError):
    """Carrier mismatch discovered while evaluating, with the span."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} (at {span[0]}..{span[1]})")
        self.span = span


@dataclass(frozen=True)
class Lit:
    value: object
    span: tuple


@dataclass(frozen=True)
class Inv:
    child: object
    span: tuple


@dataclass(frozen=True)
class Mul:
    left: object
    right: object
    span: tuple


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", (self.pos, self.pos + 1))
        self.pos += 1

    def number(self, signed=False) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            raise ParseError("expected a number", (start, start + 1))
        return int(self.text[start:self.pos])


def parse(text: str):
    """Parse an expression; raises :class:`ParseError` on bad syntax."""
    sc = _Scanner(text)
    node = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("trailing input", (sc.pos, len(text)))
    return node


def _parse_expr(sc: _Scanner):
    node = _parse_term(sc)
    while sc.peek() == "*":
        sc.take("*")
        right = _parse_term(sc)
        node = Mul(node, right, (node.span[0], right.span[1]))
    return node


def _parse_term(sc: _Scanner):
    node = _parse_atom(sc)
    while sc.peek() == "'":
        start = sc.pos
        sc.take("'")
        span = (start, sc.pos)
        if isinstance(node, Lit) and isinstance(node.value, (int, AdjoinedZero)) \
                and not isinstance(node.value, CofMap):
            raise ParseError("integers and the zero have no inverse", span)
        node = Inv(node, (node.span[0], sc.pos))
    return node


def _parse_atom(sc: _Scanner):
    ch = sc.peek()
    start = sc.pos
    if ch == "(":
        sc.take("(")
        node = _parse_expr(sc)
        sc.take(")")
        return node
    if ch == "m":
        sc.pos += 1
        sc.take("[")
        dom = _parse_gaps(sc, ";")
        sc.take(";")
        ran = _parse_gaps(sc, "]")
        sc.take("]")
        return Lit(CofMap(dom, ran), (start, sc.pos))
    if ch == "b":
        sc.pos += 1
        sc.take("[")
        m = sc.number()
        sc.take(",")
        n = sc.number()
        sc.take("]")
        return Lit(Bicyclic(m, n), (start, sc.pos))
    if ch == "z":
        sc.pos += 1
        sc.take("[")
        k = sc.number(signed=True)
        sc.take("]")
        return Lit(k, (start, sc.pos))
    if ch == "O":
        sc.pos += 1
        return Lit(ZERO, (start, sc.pos))
    if ch == "i":
        sc.skip_ws()
        if sc.text[sc.pos:sc.pos + 2] == "id":
            sc.pos += 2
            return Lit(CofMap(), (start, sc.pos))
    raise ParseError("expected an element, '(' or 'id'", (sc.pos, sc.pos + 1))


def _parse_gaps(sc: _Scanner, closer: str) -> tuple:
    if sc.peek() == closer:
        return ()
    start = sc.pos
    gaps = [sc.number()]
    while sc.peek() == ",":
        sc.take(",")
        gaps.append(sc.number())
    try:
        return gapset(gaps)
    except ValueError as exc:
        raise ParseError(str(exc), (start, sc.pos)) from None


def eval_expr(node):
    """Evaluate a parsed expression to a canonical element value."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Inv):
        v = eval_expr(node.child)
        if isinstance(v, CofMap):
            return invert(v)
        if isinstance(v, Bicyclic):
            return v.inverse()
        raise ExprTypeError("integers and the zero have no inverse", node.span)
    v = eval_expr(node.left)
    w = eval_expr(node.right)
    return _mul_values(v, w, node.span)


def _mul_values(v, w, span):
    if isinstance(v, Bicyclic) and isinstance(w, Bicyclic):
        return v * w
    if isinstance(v, Bicyclic):
        v = embed(v)
    if isinstance(w, Bicyclic):
        w = embed(w)
    if isinstance(v, AdjoinedZero) or isinstance(w, AdjoinedZero):
        if isinstance(v, int) or isinstance(w, int):
            raise ExprTypeError("integers and the zero belong to different carriers", span)
        return zero_mul(v, w)
    if isinstance(v, int) or isinstance(w, int):
        return adj_mul(v, w)
    return compose(v, w)


def render(v) -> str:
    """Deterministic canonical text form; parse(render(v)) == v."""
    if isinstance(v, AdjoinedZero):
        return "O"
    if isinstance(v, Bicyclic):
        return f"b[{v.m},{v.n}]"
    if isinstance(v, CofMap):
        return "m[%s;%s]" % (
            ",".join(map(str, v.dom_gaps)),
            ",".join(map(str, v.ran_gaps)),
        )
    return f"z[{v}]"


def value_to_jsonable(v):
    if isinstance(v, CofMap):
        return to_dict(v)
    if isinstance(v, Bicyclic):
        return v.to_dict()
    return element_to_dict(v)


def two_row_preview(g: CofMap, k: int) -> list[str]:
    """First ``k`` columns of the map as a two-row table, then an ellipsis."""
    xs, n = [], 1
    while len(xs) < k:
        if n not in g.dom_gaps:
            xs.append(n)
        n += 1
    ys = [evaluate(g, x) for x in xs]
    widths = [max(len(str(a)), len(str(b))) for a, b in zip(xs, ys)]
    top = " ".join(str(a).rjust(w) for a, w in zip(xs, widths))
    bot = " ".join(str(b).rjust(w) for b, w in zip(ys, widths))
    return [f"( {top} ... )", f"( {bot} ... )"]


def _expr_arg(text: str):
    if text == "-":
        text = sys.stdin.read()
    return eval_expr(parse(text))


def _map_arg(text: str) -> CofMap:
    v = _expr_arg(text)
    if isinstance(v, Bicyclic):
        v = embed(v)
    if not isinstance(v, CofMap):
        raise ValueError(f"expected a map-valued expression, got {render(v)}")
    return v


class _Out:
    """Collects result lines; JSON mode prints one compact document."""

    def __init__(self, args):
        mode = os.environ.get(OUTPUT_MODE_ENV, "text").strip().lower()
        self.json = bool(getattr(args, "json", False)) or mode == "json"
        self.rows = getattr(args, "rows", 0) or 0

    def emit(self, payload, lines):
        if self.json:
            print(json.dumps(payload, separators=(",", ":")))
        else:
            for line in lines:
                print(line)

    def element_lines(self, v, label=None):
        head = f"{label} = {render(v)}" if label else render(v)
        out = [head]
        if self.rows and isinstance(v, CofMap):
            out.extend(two_row_preview(v, self.rows))
        return out


def _bool_result(out, flag: bool, extra_lines=(), payload=None):
    out.emit(payload if payload is not None else flag,
             [str(flag).lower(), *extra_lines])
    return 0


def cmd_eval(args, out):
    v = _expr_arg(args.expr)
    out.emit(value_to_jsonable(v), out.element_lines(v))
    return 0


def cmd_apply(args, out):
    g = _map_arg(args.expr)
    if args.point < 1:
        raise ValueError("maps act on positive integers")
    y = evaluate(g, args.point)
    out.emit(y, ["undefined" if y is None else str(y)])
    return 0


def cmd_f(args, out):
    v = _expr_arg(args.expr)
    if isinstance(v, CofMap):
        n = shift(v)
    elif isinstance(v, Bicyclic):
        n = v.n - v.m
    elif isinstance(v, int):
        n = v
    else:
        raise ValueError("the zero has no shift index")
    out.emit(n, [str(n)])
    return 0


def cmd_tail(args, out):
    t = shift_threshold(_map_arg(args.expr))
    out.emit(t, [str(t)])
    return 0


def cmd_green(args, out):
    a, b = _map_arg(args.first), _map_arg(args.second)
    rel = {"R": lambda: a.dom_gaps == b.dom_gaps,
           "L": lambda: a.ran_gaps == b.ran_gaps,
           "H": lambda: a == b,
           "D": lambda: True}[args.relation]()
    return _bool_result(out, rel)


def cmd_leq(args, out):
    a, b = _map_arg(args.first), _map_arg(args.second)
    res = natural_leq(a, b) if args.order == "nat" else canonical_leq(a, b)
    return _bool_result(out, res)


def cmd_connect(args, out):
    g = connect_idempotents(_map_arg(args.first), _map_arg(args.second))
    out.emit(to_dict(g), out.element_lines(g))
    return 0


def cmd_simple_witness(args, out):
    g, d = simplicity_witness(_map_arg(args.first), _map_arg(args.second))
    out.emit({"left": to_dict(g), "right": to_dict(d)},
             out.element_lines(g, "left") + out.element_lines(d, "right"))
    return 0


def cmd_solve(args, out):
    solver = solve_right if args.side == "right" else solve_left
    sols = solver(_map_arg(args.factor), _map_arg(args.target))
    lines = [f"{len(sols.solutions)} solution(s)"]
    for s in sols.solutions:
        lines.extend(out.element_lines(s))
    out.emit(sols.to_dict(), lines)
    return 0


def cmd_upset(args, out):
    ups = up_set(_map_arg(args.expr))
    lines = [f"{len(ups)} idempotent(s)"]
    for e in ups:
        lines.extend(out.element_lines(e))
    out.emit([to_dict(e) for e in ups], lines)
    return 0


def cmd_bc_member(args, out):
    x = as_bicyclic(_map_arg(args.expr))
    out.emit(None if x is None else x.to_dict(),
             ["absent" if x is None else render(x)])
    return 0


def cmd_fresh_bicyclic(args, out):
    unity, up, down = fresh_bicyclic(_map_arg(args.expr))
    out.emit({"unity": to_dict(unity), "up": to_dict(up), "down": to_dict(down)},
             out.element_lines(unity, "unity")
             + out.element_lines(up, "up")
             + out.element_lines(down, "down"))
    return 0


def cmd_project_c(args, out):
    mu, eps = tail_projection(_map_arg(args.expr))
    out.emit({"approximant": to_dict(mu), "idempotent": to_dict(eps)},
             out.element_lines(mu, "approximant") + out.element_lines(eps, "idempotent"))
    return 0


def cmd_below_c(args, out):
    e = standard_below(_map_arg(args.expr))
    out.emit(to_dict(e), out.element_lines(e))
    return 0


def cmd_conj_witness(args, out):
    eps, left, right = conjugation_witness(_map_arg(args.expr))
    out.emit({"idempotent": to_dict(eps),
              "conjugate_left": to_dict(left),
              "conjugate_right": to_dict(right)},
             out.element_lines(eps, "idempotent")
             + out.element_lines(left, "conjugate_left")
             + out.element_lines(right, "conjugate_right"))
    return 0


def cmd_gcong(args, out):
    a, b = _map_arg(args.first), _map_arg(args.second)
    ok = group_congruent(a, b)
    w = congruence_witnesses(a, b)
    payload = {"congruent": ok,
               "left_witness": to_dict(w[0]) if w else None,
               "right_witness": to_dict(w[1]) if w else None}
    lines = [str(ok).lower()]
    if w:
        lines += out.element_lines(w[0], "left_witness")
        lines += out.element_lines(w[1], "right_witness")
    out.emit(payload, lines)
    return 0


def cmd_nbhd_zero(args, out):
    elem = _expr_arg(args.expr)
    if isinstance(elem, Bicyclic):
        elem = embed(elem)
    if isinstance(elem, int):
        raise ValueError("integers are not elements of the zero-adjoined monoid")
    return _bool_result(out, in_zero_nbhd(args.depth, elem))


def cmd_nbhd_adj(args, out):
    anchor = _map_arg(args.anchor)
    elem = _expr_arg(args.expr)
    if isinstance(elem, Bicyclic):
        elem = embed(elem)
    if isinstance(elem, AdjoinedZero):
        raise ValueError("the zero is not an element of the adjunction semigroup")
    return _bool_result(out, in_adj_nbhd(args.point, anchor, elem))


def cmd_stability(args, out):
    import random

    a = _map_arg(args.expr)
    j = zero_stability_bound(args.depth, a)
    bad = sample_zero_stability(args.depth, a, random.Random(args.seed), args.cases)
    out.emit({"bound": j, "cases": args.cases, "violations": bad},
             [f"bound = {j}", f"sampled {args.cases} cases, {bad} violation(s)"])
    return 0 if bad == 0 else 1


def cmd_selftest(args, out):
    from . import selftest  # imported here, not at start-up: only this command needs it

    report = selftest.run_selftest(seed=args.seed, cases=args.cases)
    payload = {"seed": args.seed, "cases": args.cases,
               "passed": report.passed, "failed": report.failed,
               "checks": [{"name": n, "failures": k} for n, k in report.results]}
    lines = [f"{'PASS' if k == 0 else 'FAIL'}  {n}" + ("" if k == 0 else f"  ({k} failures)")
             for n, k in report.results]
    lines.append(f"passed={report.passed} failed={report.failed} "
                 f"seed={args.seed} cases={args.cases}")
    out.emit(payload, lines)
    return 0 if report.failed == 0 else 1


def _add_common(sp):
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument("--rows", type=int, default=0, metavar="K",
                    help="also print the first K mapped points as a two-row table")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cofmap",
        description="exact calculator for cofinite monotone partial bijections "
                    "(note: g * h applies g first)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, args=()):
        sp = sub.add_parser(name, help=help_)
        for spec in args:
            sp.add_argument(**spec)
        _add_common(sp)
        sp.set_defaults(func=fn)
        return sp

    expr = {"dest": "expr", "help": "expression ('-' reads stdin)"}
    add("eval", cmd_eval, "evaluate an expression", [expr])
    add("apply", cmd_apply, "apply a map expression to a point",
        [expr, {"dest": "point", "type": int}])
    add("f", cmd_f, "eventual shift index of an element", [expr])
    add("tail", cmd_tail, "threshold past which the map is a pure shift", [expr])
    add("green", cmd_green, "test a Green relation",
        [{"dest": "relation", "choices": ["R", "L", "H", "D"]},
         {"dest": "first"}, {"dest": "second"}])
    add("leq", cmd_leq, "natural (idempotents) or canonical order",
        [{"dest": "order", "choices": ["nat", "canon"]},
         {"dest": "first"}, {"dest": "second"}])
    add("connect", cmd_connect, "map linking two idempotents",
        [{"dest": "first"}, {"dest": "second"}])
    add("simple-witness", cmd_simple_witness, "maps g,d with g*A*d == B",
        [{"dest": "first"}, {"dest": "second"}])
    add("solve", cmd_solve, "all x with A*x == B (right) or x*A == B (left)",
        [{"dest": "side", "choices": ["right", "left"]},
         {"dest": "factor"}, {"dest": "target"}])
    add("upset", cmd_upset, "all idempotents above an idempotent", [expr])
    add("bc-member", cmd_bc_member, "normal form in the standard bicyclic copy", [expr])
    add("fresh-bicyclic", cmd_fresh_bicyclic,
        "bicyclic copy below an idempotent, disjoint from the standard one", [expr])
    add("project-c", cmd_project_c, "standard-copy stand-in and gluing idempotent", [expr])
    add("below-c", cmd_below_c, "standard-copy idempotent below an idempotent", [expr])
    add("conj-witness", cmd_conj_witness,
        "idempotent whose conjugates under the map stay standard", [expr])
    add("gcong", cmd_gcong, "least-group-congruence test with witnesses",
        [{"dest": "first"}, {"dest": "second"}])
    add("nbhd-zero", cmd_nbhd_zero, "membership in a basic zero neighborhood",
        [{"dest": "depth", "type": int}, expr])
    add("nbhd-adj", cmd_nbhd_adj, "membership in a basic integer neighborhood",
        [{"dest": "point", "type": int}, {"dest": "anchor"}, expr])
    add("stability", cmd_stability, "translation-stability bound for zero neighborhoods",
        [{"dest": "depth", "type": int}, expr,
         {"dest": "cases", "nargs": "?", "type": int, "default": 500},
         {"dest": "seed", "nargs": "?", "type": int, "default": 0}])
    sp = sub.add_parser("selftest", help="run the randomized property suite")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--cases", type=int, default=300)
    _add_common(sp)
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Out(args)
    try:
        return args.func(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ExprTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
