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
Numbers are written in Unicode decimal digits, which ``int`` reads:
``m[١;]`` is ``m[1;]``, while a superscript such as ``²`` is not a digit.

Parsing takes one regular expression match per term (an element or ``(``)
and one per run of primes or operator (``*``, ``)``), and splits a map's gap
lists with ``str`` methods, so its cost follows the number of terms and gaps,
with no Python step per character, prime or number.  A run of equal factors
(the same text, such as ``m[;1]' * m[;1]' * ...`` or ``(a*b)*(a*b)*...``) is
read as its first factor and a power, in O(log n) C-level ``startswith``
calls.  Only a term that does not read is read again, a step at a time, to
place its error.  Evaluation multiplies a product chain pairwise, round by
round, and raises a power by squaring, so a run of n equal factors costs
O(log n) products, not n - 1.

Mixed carriers: bicyclic operands are promoted to maps when multiplied
with maps; integers absorb maps through the shift homomorphism; the zero
absorbs maps.  Integers and the zero do not mix with each other.

Limits: product chains and runs of primes may be of any length, but
parentheses nest at most ``MAX_NESTING`` (100) deep; deeper input is a
parse error with a span.  ``solve`` and ``upset`` take ``--count``
(print the number of members only) and ``--limit N`` (print the first N
members in order).  Their answers can be exponentially long (``upset``
lists 2**n idempotents for an idempotent with n gaps), so without either
option they refuse to list more than 2**``LISTING_LIMIT_LOG2`` (2**16)
members, and an ``N`` above that is a usage error.  ``--rows`` is at most
``MAX_ROWS``, and ``selftest --cases`` at most ``MAX_CASES``.

Reading argv: :func:`_read` reads every argv by the grammar that
:func:`build_parser` builds from the command's row of :data:`COMMANDS`.
Options go anywhere after the command, as ``--flag value`` or
``--flag=value``, spelled in full.  Positionals are the tokens that do
not start with ``-``, a lone ``-`` (stdin, once at most), a negative
number, a token with a space, and all after ``--``.  ``-h`` or ``--help``
before any ``--`` prints help, exit 0; a refused argv prints a usage line
and the error on stderr, exit 2.  A stdout closed early exits 1, quietly.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from itertools import islice
from operator import lt
from types import SimpleNamespace

from .bicyclic import (
    Bicyclic,
    as_bicyclic,
    congruence_witnesses,
    conjugation_witness,
    embed,
    fresh_bicyclic,
    standard_below,
    tail_projection,
)
from .core import (
    IDENTITY,
    CofMap,
    _trusted,
    _unrank,
    canonical_leq,
    compose,
    evaluate,
    gapset,
    iter_up_set,
    natural_leq,
    shift,
    shift_threshold,
)
from .extensions import (
    ZERO,
    AdjoinedZero,
    adj_mul,
    in_adj_nbhd,
    in_zero_nbhd,
    zero_mul,
    zero_stability_bound,
)
from .green import (
    SolutionSet, connect_idempotents, green_d, green_h, green_l, green_r,
    simplicity_witness, solve_left, solve_right,
)

# evaluation recurses once per level of parentheses, so this keeps it far
# inside the interpreter's recursion limit
MAX_NESTING = 100
LISTING_LIMIT_LOG2 = 16  # 2**16 members at most in a listing, which is built before printing
MAX_ROWS = 1000  # columns of a --rows preview
MAX_CASES = 10_000  # sample cases of selftest


class SpannedError(ValueError):
    """An error at a span of the expression text, which its message ends with."""

    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} (at {span[0]}..{span[1]})")
        self.span = span


class ParseError(SpannedError):
    """Syntax error in the expression language, with the offending span."""


class ExprTypeError(SpannedError):
    """Carrier mismatch discovered while evaluating, with the span."""


class Lit:
    __slots__ = ("value", "span")

    def __init__(self, value, span):
        self.value, self.span = value, span


class Inv:
    __slots__ = ("child", "primes", "first_end", "span")

    def __init__(self, child, primes, first_end, span):
        self.child, self.primes = child, primes  # never an Inv; primes invert by their parity
        self.first_end = first_end  # the end of its first prime
        self.span = span  # from the child's start to the end of its last prime


class Mul:
    __slots__ = ("factors", "span")

    def __init__(self, factors, span):
        self.factors = factors  # two or more terms, multiplied left to right
        self.span = span


class Pow:
    __slots__ = ("child", "count", "span")

    def __init__(self, child, count, span):
        self.child, self.count = child, count  # the factor before it, repeated count more times
        self.span = span  # the text of those copies, each through its "*" and the whitespace after


# _TERM reads a whole term after any whitespace (group 1): a map's bracket
# text (group 2), the numbers of b[m,n] and z[k], "id", "O" or "(".  _AFTER
# reads what may follow a term: a run of primes with any whitespace between
# them (group 1), then "*", ")" or nothing (group 2), then any whitespace.
_TERM = re.compile(r"\s*(m\s*\[([\d\s,;]*)\]|b\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]"
                   r"|z\s*\[\s*([+-]?\d+)\s*\]|id|[O(])")
_AFTER = re.compile(r"\s*('(?:\s*')*)?\s*([*)]?)\s*")
_SPACE = re.compile(r"\s*")
_strip = str.strip  # \s matches "\x1c".."\x1f", which int() does not strip


def parse(text: str):
    """Parse an expression; raises :class:`ParseError` on bad syntax.

    Each term is one match of ``_TERM`` and each run of primes with the
    operator after it one match of ``_AFTER``; the parentheses open around
    the current product are kept on a stack, so nothing recurses.

    A term followed by ``*`` is checked for copies: its text from its start
    through the ``*`` and the whitespace after it, repeated back to back.
    The copies are counted by :func:`_copies` in O(log n) ``startswith``
    calls and kept as one :class:`Pow` after the term, which stays an
    ordinary node.  Equal text at one depth is an equal term, so nothing in
    the copies is read again: an error lies in the first copy or after the
    last, and is raised there, as a term-by-term reading would.
    """
    term, after, startswith = _TERM.match, _AFTER.match, text.startswith
    outer = []  # the factors and "(" position of each enclosing product, innermost last
    factors = []  # the factors of the current product
    pos = 0
    while True:
        # a term: an element or "("
        tok = term(text, pos)
        if tok is None:
            _malformed(text, pos)
        start, pos = tok.span(1)
        head = text[start]
        if head == "m":
            try:
                dom, ran = tok[2].split(";")
                g = _trusted(_gap_list(dom), _gap_list(ran))
            except ValueError:  # not one ";", or a list that is not a gap set
                _malformed(text, start)
            node = Lit(g, (start, pos))
        elif head == "b":
            node = Lit(Bicyclic(_number(tok, 3), _number(tok, 4)), (start, pos))
        elif head == "z":
            node = Lit(_number(tok, 5), (start, pos))
        elif head == "(":
            if len(outer) == MAX_NESTING:
                raise ParseError(f"parentheses nest more than {MAX_NESTING} deep", (start, pos))
            outer.append((factors, start))
            factors = []
            continue
        elif head == "O":
            node = Lit(ZERO, (start, pos))
        else:
            node = Lit(IDENTITY, (start, pos))
        # a run of primes, then "*", ")" or the end
        while True:
            tok = after(text, pos)
            if tok[1]:
                first, end = tok.span(1)
                if type(node) is Lit and isinstance(node.value, (int, AdjoinedZero)):
                    raise ParseError("integers and the zero have no inverse", (first, first + 1))
                if type(node) is not Inv:  # after "(a')", a run adds to the inverse inside
                    node = Inv(node, 0, first + 1, node.span)
                node.primes += text.count("'", first, end)
                node.span = (node.span[0], end)
            op = tok[2]
            pos = tok.end()
            factors.append(node)
            if op == "*":
                unit = text[start:pos]  # the term, its "*" and the whitespace after
                if startswith(unit, pos):
                    count, end = _copies(text, unit, pos)
                    factors.append(Pow(node, count, (pos, end)))
                    pos = end
                break
            node = factors[0] if len(factors) == 1 else \
                Mul(tuple(factors), (factors[0].span[0], node.span[1]))
            if op and outer:
                factors, start = outer.pop()
                continue
            at = tok.start(2)
            if outer:
                raise ParseError("expected ')'", (at, at + 1))
            if at != len(text):
                raise ParseError("trailing input", (at, len(text)))
            return node


def _copies(text: str, unit: str, pos: int):
    """How many copies of ``unit`` stand back to back at ``pos`` (one at
    least), and where the last ends: blocks of 1, 2, 4, ... copies while
    they match, then of half as many each step down to one, so O(log n)
    ``startswith`` calls over O(n) characters."""
    count, k = 0, 1
    while text.startswith(unit, pos):
        pos += len(unit)
        count += k
        unit += unit
        k += k
    while k > 1:
        k >>= 1
        unit = unit[:len(unit) >> 1]
        if text.startswith(unit, pos):
            pos += len(unit)
            count += k
    return count, pos


def _gap_list(text: str) -> tuple:
    # The gaps of one list of a map's bracket text; ValueError if it is not
    # a list of positive, strictly increasing numbers.
    try:
        gaps = tuple(map(int, text.split(","))) if "," in text else (int(text),) if text else ()
    except ValueError:  # blanks, a separator int() does not strip, or no number
        if not _strip(text):
            return ()
        gaps = tuple(map(int, map(_strip, text.split(","))))
    if gaps and (gaps[0] < 1 or len(gaps) > 1 and not all(map(lt, gaps, gaps[1:]))):
        raise ValueError
    return gaps


def _number(match, group: int) -> int:
    try:
        return int(match.group(group))
    except ValueError:  # past the interpreter's digit limit, its guard against quadratic time
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"number has more than {limit} digits", match.span(group)) from None


# The steps of an element after its letter, which _malformed reads one at a
# time: a character, or G a gap list, N a natural number, I an integer.
_STEPS = {"m": "[G;G]", "b": "[N,N]", "z": "[I]"}
_DIGITS = re.compile(r"\d+")
_READS = {"G": re.compile(r"\d+(?:\s*,\s*\d+)*"), "N": _DIGITS, "I": re.compile(r"[+-]?\d+")}


def _gaps(text: str, s: int, e: int):
    # Check the gap list text[s:e] that _malformed read: its numbers, then
    # a "," after it with no number, then gapset.  The span of a bad list
    # runs from its first digit past the whitespace after its last.
    gaps = [_number(n, 0) for n in _DIGITS.finditer(text, s, e)]
    at = _SPACE.match(text, e).end()
    if text.startswith(",", at):
        at = _SPACE.match(text, at + 1).end()
        raise ParseError("expected a number", (at, at + 1))
    try:
        gapset(gaps)
    except ValueError as exc:
        raise ParseError(str(exc), (s, at)) from None


def _malformed(text: str, pos: int):
    """Raise the error of the term at ``pos``, which :func:`parse` refused.

    The term is read again a step of :data:`_STEPS` at a time, after any
    whitespace, and the first step that does not read is the error.  Each
    number is converted as it is read (``int`` refuses very long ones).  A
    gap list is checked as soon as it is read: its numbers, then a ``,``
    after its last one, then :func:`gapset`, so a bad list is reported
    before a missing separator after it.  A gap list with no number is an
    empty list only when its closing separator comes next; otherwise a
    number was expected.  A term that reads to its end is a fault of the
    reader, never a value.
    """
    start = _SPACE.match(text, pos).end()
    steps = _STEPS.get(text[start:start + 1])
    if steps is None:
        raise ParseError("expected an element, '(' or 'id'", (start, start + 1))
    end = start + 1
    for i, step in enumerate(steps):
        at = _SPACE.match(text, end).end()
        if step not in _READS:  # a character
            if not text.startswith(step, at):
                raise ParseError(f"expected '{step}'", (at, at + 1))
            end = at + 1
            continue
        tok = _READS[step].match(text, at)
        if tok is None:
            if step == "G" and text.startswith(steps[i + 1], at):
                continue  # an empty gap list
            raise ParseError("expected a number", (at, at + 1))
        end = tok.end()
        if step == "G":
            _gaps(text, at, end)
        else:
            _number(tok, 0)
    raise AssertionError(f"the reader refused a well-formed term at {start} of {text!r}")


def eval_expr(node):
    """Evaluate a parsed expression to a canonical element value.

    An ``Inv`` inverts by the parity of its primes, which :func:`parse`
    totals over nested parentheses.  A product chain checks its carriers
    left to right, so a mismatch is reported where a left fold meets it,
    then multiplies pairwise, round by round: every carrier is associative,
    and a left fold of n one-gap maps costs O(n**2) gap steps.  A ``Pow``
    raises the value of the factor before it by squaring, so a run of n
    equal factors costs its factor's value twice (first and last copy) and
    at most 2*ceil(log2 n) products more.  Recursion follows only
    parentheses, which the parser caps.
    """
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Inv):
        v = eval_expr(node.child)
        if not isinstance(v, (CofMap, Bicyclic)):
            # the first prime of the first run is the first inversion applied
            raise ExprTypeError("integers and the zero have no inverse",
                                (node.child.span[0], node.first_end))
        return v.inverse() if node.primes % 2 else v
    values, carriers = [], set()
    for term in node.factors:
        if type(term) is Lit:
            v = term.value
        elif type(term) is Pow:  # v is the value of the factor it repeats
            v = _power(v, term.count)
        else:
            v = eval_expr(term)
        if isinstance(v, (int, AdjoinedZero)):
            carriers.add(type(v))
            if len(carriers) == 2:
                raise ExprTypeError("integers and the zero belong to different carriers",
                                    (node.span[0], term.span[1]))
        values.append(v)
    while len(values) > 1:
        paired = [compose(v, w) if type(v) is CofMap and type(w) is CofMap else _mul_values(v, w)
                  for v, w in zip(values[::2], values[1::2])]
        values = paired + values[-1:] if len(values) % 2 else paired
    return values[0]


def _power(v, n: int):
    """The product of ``n`` copies of ``v``, by squaring: at most
    2*floor(log2 n) products."""
    mul = compose if type(v) is CofMap else _mul_values
    acc = None
    while True:
        if n & 1:
            acc = v if acc is None else mul(acc, v)
        n >>= 1
        if not n:
            return acc
        v = mul(v, v)


def _promote(v):
    """A bicyclic element as its map in the standard copy; others unchanged."""
    return embed(v) if isinstance(v, Bicyclic) else v


def _mul_values(v, w):
    # eval_expr has already refused a chain that mixes integers and the zero
    if isinstance(v, Bicyclic) and isinstance(w, Bicyclic):
        return v * w
    v, w = _promote(v), _promote(w)
    return adj_mul(v, w) if isinstance(v, int) or isinstance(w, int) else zero_mul(v, w)


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


def to_json(v):
    """JSON form: a map's two gap lists, a bicyclic normal form's exponents,
    and a ``kind`` tag for the zero and the integers."""
    if isinstance(v, CofMap):
        return {"dom_gaps": list(v.dom_gaps), "ran_gaps": list(v.ran_gaps)}
    if isinstance(v, Bicyclic):
        return {"m": v.m, "n": v.n}
    if isinstance(v, AdjoinedZero):
        return {"kind": "zero"}
    return {"kind": "int", "value": v}


def two_row_preview(g: CofMap, k: int) -> list[str]:
    """First ``k`` columns of the map as a two-row table, then an ellipsis.

    The i-th smallest point of the domain maps to the i-th smallest point
    of the image, so each row is the first ``k`` points outside its gaps,
    each found by bisection: O(k log n) for n gaps.
    """
    xs = [_unrank(g.dom_gaps, r) for r in range(1, k + 1)]
    ys = [_unrank(g.ran_gaps, r) for r in range(1, k + 1)]
    widths = [max(len(str(a)), len(str(b))) for a, b in zip(xs, ys)]
    top = " ".join(str(a).rjust(w) for a, w in zip(xs, widths))
    bot = " ".join(str(b).rjust(w) for b, w in zip(ys, widths))
    return [f"( {top} ... )", f"( {bot} ... )"]


# -- arguments: expression text is evaluated inside main's try --------------

def _expr_arg(text: str):
    if text == "-":
        text = sys.stdin.read()
    return eval_expr(parse(text))


def _map_arg(text: str) -> CofMap:
    v = _promote(_expr_arg(text))
    if not isinstance(v, CofMap):
        raise ValueError(f"expected a map-valued expression, got {render(v)}")
    return v


def _bounded(most):
    """A type of argument: an int in [0, most]."""
    def count(text):
        n = int(text)
        if not 0 <= n <= most:
            raise ValueError(f"must be between 0 and {most}, got {text!r}")
        return n
    return count


ELEM, MAP = _expr_arg, _map_arg
COUNT = _bounded(MAX_CASES)  # a number of sample cases
CHOICE = "choice"  # the argument picks the function from the row's dict
EXPR, FIRST, SECOND = ("expr", MAP), ("first", MAP), ("second", MAP)


# -- the functions of the commands that have no single library call ---------

def _shift_index(v):
    if isinstance(v, AdjoinedZero):
        raise ValueError("the zero has no shift index")
    if isinstance(v, CofMap):
        return shift(v)
    return v.n - v.m if isinstance(v, Bicyclic) else v


def _upset(e):
    return 2 ** len(e.dom_gaps), iter_up_set(e)


def _nbhd_zero(depth, elem):
    if isinstance(elem, int):
        raise ValueError("integers are not elements of the zero-adjoined monoid")
    return in_zero_nbhd(depth, _promote(elem))


def _nbhd_adj(point, anchor, elem):
    if isinstance(elem, AdjoinedZero):
        raise ValueError("the zero is not an element of the adjunction semigroup")
    return in_adj_nbhd(point, anchor, _promote(elem))


def _selftest(seed, cases):
    from .selftest import run_selftest  # not at start-up: only this command needs it

    results = run_selftest(seed=seed, cases=cases)
    return SimpleNamespace(results=results, failed=sum(1 for _, k in results if k))


# -- output shapes: result, args -> the JSON document if args.json, else the
# text lines; only the form that is printed is built ------------------------

def _lines(v, rows, label=None):
    head = f"{label} = {render(v)}" if label else render(v)
    return [head, *two_row_preview(v, rows)] if rows and isinstance(v, CofMap) else [head]


def _scalar(v, args):
    """A number, a truth value, or an undefined point."""
    return v if args.json else ["undefined" if v is None else str(v).lower()]


def _element(v, args):
    """One element, or none."""
    if args.json:
        return None if v is None else to_json(v)
    return ["absent"] if v is None else _lines(v, args.rows)


def _labelled(*labels):
    """A tuple of elements, one per label."""
    def shape(values, args):
        if args.json:
            return {k: to_json(v) for k, v in zip(labels, values)}
        return [line for k, v in zip(labels, values) for line in _lines(v, args.rows, k)]
    return shape


class _Listing:
    """A count line, then one element per line; JSON lists the elements, or
    for a solution set gives its equation too.  The result is a
    :class:`SolutionSet` or a ``(count, members)`` pair, members in order;
    only ``--limit`` of them are taken, and ``--count`` prints the count
    alone.  A whole list of more than 2**``LISTING_LIMIT_LOG2`` members is
    refused."""

    def __init__(self, noun):
        self.noun = noun

    def __call__(self, v, args):
        solutions = isinstance(v, SolutionSet)
        count, members = (v.count, v) if solutions else v
        if args.count:
            return _scalar(count, args)
        if args.limit is None and count > 2 ** LISTING_LIMIT_LOG2:
            # the count itself may pass the digit limit of str(), so it is not shown
            raise ValueError(f"{args.command} would list more than 2**{LISTING_LIMIT_LOG2} "
                             f"{self.noun}; give --count or --limit")
        shown = islice(members, args.limit)
        if not args.json:
            return [f"{count} {self.noun}", *(line for e in shown for line in _lines(e, args.rows))]
        listed = [to_json(e) for e in shown]
        if solutions:
            return {"equation": {"side": v.side, "factor": to_json(v.factor),
                                 "target": to_json(v.target)},
                    "solutions": listed}
        return listed


def _congruence(witnesses, args):
    """The verdict, then the two witnesses; there are none when the shifts differ."""
    labels = ("left_witness", "right_witness")
    if witnesses is None:
        return {"congruent": False, **dict.fromkeys(labels)} if args.json else ["false"]
    shown = _labelled(*labels)(witnesses, args)
    return {"congruent": True, **shown} if args.json else ["true", *shown]


def _selftest_report(report, args):
    passed = len(report.results) - report.failed
    if args.json:
        return {"seed": args.seed, "cases": args.cases, "passed": passed, "failed": report.failed,
                "checks": [{"name": n, "failures": k} for n, k in report.results]}
    return ([f"{'PASS' if k == 0 else 'FAIL'}  {n}" + ("" if k == 0 else f"  ({k} failures)")
             for n, k in report.results]
            + [f"passed={passed} failed={report.failed} seed={args.seed} cases={args.cases}"])


# name -> (help, arguments, function, output shape).  An argument is (name,
# kind), or an option ("--name", kind, default).  int and COUNT are
# read with argv, ELEM and MAP text in main's try, where a ParseError is a
# parse error, not a usage error.  CHOICE picks the function from the row's
# dict; the other arguments reach it in order.
COMMANDS = {
    "eval": ("evaluate an expression", [("expr", str)], ELEM, _element),
    "apply": ("apply a map expression to a point", [EXPR, ("point", int)], evaluate, _scalar),
    "f": ("eventual shift index of an element", [("expr", ELEM)], _shift_index, _scalar),
    "tail": ("threshold past which the map is a pure shift", [EXPR], shift_threshold, _scalar),
    "green": ("test a Green relation", [("relation", CHOICE), FIRST, SECOND],
              {"R": green_r, "L": green_l, "H": green_h, "D": green_d}, _scalar),
    "leq": ("natural (idempotents) or canonical order", [("order", CHOICE), FIRST, SECOND],
            {"nat": natural_leq, "canon": canonical_leq}, _scalar),
    "connect": ("map linking two idempotents", [FIRST, SECOND], connect_idempotents, _element),
    "simple-witness": ("maps g,d with g*A*d == B", [FIRST, SECOND],
                       simplicity_witness, _labelled("left", "right")),
    "solve": ("all x with A*x == B (right) or x*A == B (left)",
              [("side", CHOICE), ("factor", MAP), ("target", MAP)],
              {"right": solve_right, "left": solve_left}, _Listing("solution(s)")),
    "upset": ("all idempotents above an idempotent", [EXPR], _upset, _Listing("idempotent(s)")),
    "bc-member": ("normal form in the standard bicyclic copy", [EXPR], as_bicyclic, _element),
    "fresh-bicyclic": ("bicyclic copy below an idempotent, disjoint from the standard one", [EXPR],
                       fresh_bicyclic, _labelled("unity", "up", "down")),
    "project-c": ("standard-copy stand-in and gluing idempotent", [EXPR],
                  tail_projection, _labelled("approximant", "idempotent")),
    "below-c": ("standard-copy idempotent below an idempotent", [EXPR], standard_below, _element),
    "conj-witness": ("idempotent whose conjugates under the map stay standard", [EXPR],
                     conjugation_witness, _labelled("idempotent", "conjugate_left", "conjugate_right")),
    "gcong": ("least-group-congruence test with witnesses", [FIRST, SECOND],
              congruence_witnesses, _congruence),
    "nbhd-zero": ("membership in a basic zero neighborhood", [("depth", int), ("expr", ELEM)],
                  _nbhd_zero, _scalar),
    "nbhd-adj": ("membership in a basic integer neighborhood",
                 [("point", int), ("anchor", MAP), ("expr", ELEM)], _nbhd_adj, _scalar),
    "stability": ("translation-stability bound for zero neighborhoods", [("depth", int), EXPR],
                  zero_stability_bound, _scalar),
    "selftest": ("run the randomized property suite", [("--seed", int, 1), ("--cases", COUNT, 300)],
                 _selftest, _selftest_report),
}


# The options of every command, and of a listing, as a row of COMMANDS writes
# an argument, with a default, metavar and help; a switch has kind None.
OPTIONS = [
    ("--json", None, False, None, "machine-readable output"),
    ("--rows", _bounded(MAX_ROWS), 0, "K", "also print the first K mapped points as a two-row table"),
]
LISTING_OPTIONS = OPTIONS + [
    ("--count", None, False, None, "print only the number of members"),
    ("--limit", _bounded(2 ** LISTING_LIMIT_LOG2), None, "N",
     "print only the first N members, in order"),
]
_NEGATIVE = re.compile(r"-\d+$")


@functools.cache
def build_parser(name: str):
    """A command's grammar from its row of :data:`COMMANDS`, built on the first call
    (the traced benchmark run wraps this name): positionals as ``(label, dest, type,
    choices)``, options by flag alike, every dest's default, the usage line and the
    help lines."""
    _, arguments, fn, shape = COMMANDS[name]
    positionals, options, defaults = [], {}, {"command": name}
    usage, lines = [f"usage: cofmap {name} [-h]"], [("-h, --help", "show this help and exit")]
    for dest, kind, *default in arguments + (LISTING_OPTIONS if type(shape) is _Listing else OPTIONS):
        key, choices = dest.lstrip("-"), tuple(fn) if kind is CHOICE else None
        type_ = str if kind in (CHOICE, str, ELEM, MAP) else kind
        defaults[key], *shown = default or [None]
        metavar, text = shown or (key.upper(), f"one of {', '.join(choices)}" if choices
                                  else "expression ('-' reads stdin)" if type_ is str
                                  else "integer" + (f", default {default[0]}" if default else ""))
        if dest.startswith("-"):
            options[dest] = (dest, key, type_, choices)
        else:
            positionals.append((dest, key, type_, choices))
        label = f"{dest} {metavar}" if dest in options and kind is not None else dest
        usage.append(f"[{label}]" if default else label)
        lines.append((label, text))
    return positionals, options, defaults, " ".join(usage), lines


def _stop(name, error=None) -> SystemExit:
    """Print a command's help (cofmap's if name is None), giving ``SystemExit(0)``;
    or with an error its usage line and the error on stderr, giving ``SystemExit(2)``."""
    usage, lines = build_parser(name)[3:] if name else (
        "usage: cofmap [-h] COMMAND ...", [(command, row[0]) for command, row in COMMANDS.items()])
    if error:
        print(f"{usage}\ncofmap{' ' + name if name else ''}: error: {error}", file=sys.stderr)
        return SystemExit(2)
    about = COMMANDS[name][0] if name else (
        "exact calculator for cofinite monotone partial bijections (note: g * h applies g first)")
    width = max(len(label) for label, _ in lines)
    print("\n".join([usage, "", about, "", *(f"  {label:{width}}  {text}" for label, text in lines)]))
    return SystemExit(0)


def _read(argv):
    """The namespace of ``argv`` by the module docstring's rules; help and usage errors exit."""
    head = argv[:argv.index("--")] if "--" in argv else argv
    name = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in head or "--help" in head:
        raise _stop(name)
    if name is None:
        raise _stop(None, f"argument command: invalid choice {argv[0]!r} (choose from "
                          f"{', '.join(COMMANDS)})" if argv else "a command is required")
    positionals, options, defaults, *_ = build_parser(name)
    values, texts, given = dict(defaults), [], []
    tokens = islice(head, 1, None)
    for token in tokens:
        if token[:1] != "-" or token == "-":
            texts.append(token)
            continue
        flag, eq, text = token.partition("=")
        spec = options.get(flag)
        if spec is None and (" " in token or _NEGATIVE.match(token)):
            texts.append(token)
            continue
        if spec is None or eq and spec[2] is None:  # a switch takes no value
            raise _stop(name, f"unrecognized argument {token!r}")
        if spec[2] is None:
            values[spec[1]] = True
        elif eq or (text := next(tokens, None)) is not None:
            given.append((spec, text))
        else:
            raise _stop(name, f"argument {flag}: expected a value")
    texts += argv[len(head) + 1:]
    if len(texts) < len(positionals):
        raise _stop(name, "the following arguments are required: "
                    + ", ".join(dest for dest, *_ in positionals[len(texts):]))
    if len(texts) > len(positionals):
        raise _stop(name, f"unrecognized argument {texts[len(positionals)]!r}")
    if texts.count("-") > 1:
        second = positionals[texts.index("-", texts.index("-") + 1)][1]
        raise _stop(name, f"argument {second}: stdin ('-') is read by an earlier argument")
    given += zip(positionals, texts)
    for (label, dest, type_, choices), text in given:
        try:
            value = type_(text)
        except ValueError as exc:
            raise _stop(name, f"argument {label}: {exc}") from None
        if choices is not None and value not in choices:
            raise _stop(name, f"argument {label}: invalid choice {text!r} "
                              f"(choose from {', '.join(choices)})")
        values[dest] = value
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = _read(sys.argv[1:] if argv is None else argv)
    _, arguments, fn, shape = COMMANDS[args.command]
    try:
        values = []
        for dest, kind, *_ in arguments:
            text = getattr(args, dest.lstrip("-"))
            if kind is CHOICE:
                fn = fn[text]
            else:
                values.append(kind(text))
        result = fn(*values)
        shown = shape(result, args)
        if args.json:
            import json

            output = json.dumps(shown, separators=(",", ":"))
        else:
            output = "\n".join(shown)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # str() or json.dumps of a too long int
            exc = f"result has a number with more than {sys.get_int_max_str_digits()} digits"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early.  The interpreter flushes stdout again at
        # exit, so it is pointed at devnull first, as the docs of the signal
        # module show for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # only selftest reports failures; it exits 1 after printing them
    return 1 if getattr(result, "failed", 0) else 0


if __name__ == "__main__":
    sys.exit(main())
