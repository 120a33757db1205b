"""Expression language, rendering, subcommands, and exit codes."""

import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import cofmap
from cofmap import Bicyclic, CofMap, IDENTITY, ZERO, adj_mul, compose, embed, zero_mul
from cofmap.cli import (
    CHOICE,
    COMMANDS,
    COUNT,
    ExprTypeError,
    ParseError,
    _read,
    build_parser,
    eval_expr,
    main,
    parse,
    render,
    two_row_preview,
)
from cofmap.selftest import two_row

UP = CofMap((), (1,))

# the pieces of the expression language, for strings that may not parse
PIECES = ["m[", "b[", "z[", "id", "O", "(", ")", "*", "'", ";", ",", "]", "+", "-",
          *"0123456789", " ", "\t", "²", "١", "m[;1]", "m[2;1,3]", "b[2,3]", "z[-7]"]

# a number longer than int's default digit limit (4,300), which int refuses
BIG = "9" * 5000
TOO_LONG = "number has more than 4300 digits"

# (text, str(ParseError)): at least one input for each place a parse error
# is raised; the messages and spans are pinned byte for byte
SYNTAX_ERRORS = [
    # gap lists: entries, order, and which error comes first
    ("m[3,2;]", "gap entries must be strictly increasing, got (3, 2) (at 2..5)"),
    ("m[1,1;]", "gap entries must be strictly increasing, got (1, 1) (at 2..5)"),
    ("m[0;]", "gap entries must be positive integers, got 0 (at 2..3)"),
    ("m[;0]", "gap entries must be positive integers, got 0 (at 3..4)"),
    ("m[;3,2]", "gap entries must be strictly increasing, got (3, 2) (at 3..6)"),
    ("m[2, 1 ;]", "gap entries must be strictly increasing, got (2, 1) (at 2..7)"),
    ("m[3,2 x", "gap entries must be strictly increasing, got (3, 2) (at 2..6)"),
    ("m[3,2;x]", "gap entries must be strictly increasing, got (3, 2) (at 2..5)"),
    ("m[;3,2 x", "gap entries must be strictly increasing, got (3, 2) (at 3..7)"),
    # maps: brackets, separators, numbers
    ("m 1", "expected '[' (at 2..3)"),
    ("m[1 2;]", "expected ';' (at 4..5)"),
    ("m[;1", "expected ']' (at 4..5)"),
    ("m[1;2;]", "expected ']' (at 5..6)"),
    ("m [ 1 , ;2]", "expected a number (at 8..9)"),
    ("m[1,x;]", "expected a number (at 4..5)"),
    ("m[0,;]", "expected a number (at 4..5)"),
    ("m[;1,]", "expected a number (at 5..6)"),
    ("m[;+1]", "expected a number (at 3..4)"),
    ("m[,1;]", "expected a number (at 2..3)"),
    ("m[1,,2;]", "expected a number (at 4..5)"),
    ("m[3,2 1;]", "gap entries must be strictly increasing, got (3, 2) (at 2..6)"),
    ("m[;1,2,]", "expected a number (at 7..8)"),
    ("m[1,2", "expected ';' (at 5..6)"),
    ("m[;1;]", "expected ']' (at 4..5)"),
    ("m[;00]", "gap entries must be positive integers, got 0 (at 3..5)"),
    ("m[;1 x]", "expected ']' (at 5..6)"),
    ("m[;]]", "trailing input (at 4..5)"),
    # where each step of an element ends the input
    ("m", "expected '[' (at 1..2)"),
    ("m[", "expected a number (at 2..3)"),
    ("m[1;", "expected a number (at 4..5)"),
    ("b", "expected '[' (at 1..2)"),
    ("b[", "expected a number (at 2..3)"),
    ("b[1", "expected ',' (at 3..4)"),
    ("b[1,", "expected a number (at 4..5)"),
    ("z", "expected '[' (at 1..2)"),
    ("z[", "expected a number (at 2..3)"),
    ("z[5", "expected ']' (at 3..4)"),
    # bicyclic elements
    ("b 1", "expected '[' (at 2..3)"),
    ("b[1]", "expected ',' (at 3..4)"),
    ("b[1;2]", "expected ',' (at 3..4)"),
    ("b[1,2,3]", "expected ']' (at 5..6)"),
    ("b[1,2", "expected ']' (at 5..6)"),
    ("b[x,1]", "expected a number (at 2..3)"),
    ("b[ 1 , x]", "expected a number (at 7..8)"),
    ("b[-1,2]", "expected a number (at 2..3)"),
    # integers
    ("z 1", "expected '[' (at 2..3)"),
    ("z[1 2]", "expected ']' (at 4..5)"),
    ("z[]", "expected a number (at 2..3)"),
    ("z[- 5]", "expected a number (at 2..3)"),
    ("z[+]", "expected a number (at 2..3)"),
    # literal inversion of an integer or the zero
    ("z[1]'", "integers and the zero have no inverse (at 4..5)"),
    ("O'", "integers and the zero have no inverse (at 1..2)"),
    ("(z[1])'", "integers and the zero have no inverse (at 6..7)"),
    ("z[5] ' '", "integers and the zero have no inverse (at 5..6)"),
    # terms, parentheses and the end of the input
    ("q", "expected an element, '(' or 'id' (at 0..1)"),
    ("i d", "expected an element, '(' or 'id' (at 0..1)"),
    ("", "expected an element, '(' or 'id' (at 0..1)"),
    ("  ", "expected an element, '(' or 'id' (at 2..3)"),
    ("()", "expected an element, '(' or 'id' (at 1..2)"),
    ("m[;1] *", "expected an element, '(' or 'id' (at 7..8)"),
    ("m[;1]'' *", "expected an element, '(' or 'id' (at 9..10)"),
    ("(m[;1]", "expected ')' (at 6..7)"),
    ("id id", "trailing input (at 3..5)"),
    ("m[;1] )", "trailing input (at 6..7)"),
    ("m[;1]x", "trailing input (at 5..6)"),
    # numbers past the digit limit, in each place a number is read
    (f"z[{BIG}]", f"{TOO_LONG} (at 2..5002)"),
    (f"z[-{BIG}]", f"{TOO_LONG} (at 2..5003)"),
    (f"z[{BIG}", f"{TOO_LONG} (at 2..5002)"),
    (f"b[{BIG},1]", f"{TOO_LONG} (at 2..5002)"),
    (f"b[1, {BIG}]", f"{TOO_LONG} (at 5..5005)"),
    (f"b[1,{BIG}", f"{TOO_LONG} (at 4..5004)"),
    (f"m[{BIG};]", f"{TOO_LONG} (at 2..5002)"),
    (f"m[;1, {BIG}]", f"{TOO_LONG} (at 6..5006)"),
    (f"m[1,{BIG}", f"{TOO_LONG} (at 4..5004)"),
    (f"m[;{BIG}", f"{TOO_LONG} (at 3..5003)"),
    # a list's numbers are read before its order is checked
    (f"m[3,2,{BIG};]", f"{TOO_LONG} (at 6..5006)"),
    (f"m[3,2;{BIG}]", "gap entries must be strictly increasing, got (3, 2) (at 2..5)"),
    # after a run of equal factors, which is read as one power: the error is
    # where it is without runs
    ("m[;1]'*m[;1]'*m[;1]'*m[3,2;]", "gap entries must be strictly increasing, got (3, 2) (at 23..26)"),
    ("(m[;1]) * (m[;1]) * (m[;1]) * q", "expected an element, '(' or 'id' (at 30..31)"),
    ("b[2,3]*b[2,3]*b[2,3]*b[1", "expected ',' (at 24..25)"),
    ("z[2]\t*\nz[2]\t*\nz[2]\t*\nz[", "expected a number (at 23..24)"),
    ("m[;1]*m[;1]*m[;1]*", "expected an element, '(' or 'id' (at 18..19)"),
    ("(m[;1]*m[;1]*m[;1]*)", "expected an element, '(' or 'id' (at 19..20)"),
    ("m[;1]*m[;1]*m[;1] )", "trailing input (at 18..19)"),
    ("id*id*id id", "trailing input (at 9..11)"),
    ("O*O*O*O'", "integers and the zero have no inverse (at 7..8)"),
    ("(m[;1])*(m[;1])*(m[;1]", "expected ')' (at 22..23)"),
    ("z[1]*z[1]*z[1]'", "integers and the zero have no inverse (at 14..15)"),
]


# maps and bicyclic elements, the values that have inverses
invertible_values = st.one_of(
    st.builds(
        CofMap,
        st.frozensets(st.integers(1, 30), max_size=10).map(lambda s: tuple(sorted(s))),
        st.frozensets(st.integers(1, 30), max_size=10).map(lambda s: tuple(sorted(s))),
    ),
    st.builds(Bicyclic, st.integers(0, 20), st.integers(0, 20)),
)


def run_cli(*args, stdin=None, python_options=()):
    cmd = [sys.executable, *python_options, "-m", "cofmap", *args]
    return subprocess.run(cmd, input=stdin, capture_output=True)


class TestParse:
    def test_literals(self):
        assert eval_expr(parse("m[;1]")) == UP
        assert eval_expr(parse("m[;]")) == IDENTITY
        assert eval_expr(parse("id")) == IDENTITY
        assert eval_expr(parse("m[2;1,3]")) == CofMap((2,), (1, 3))
        assert eval_expr(parse("b[2,3]")) == Bicyclic(2, 3)
        assert eval_expr(parse("z[-7]")) == -7
        assert eval_expr(parse("O")) is ZERO

    def test_whitespace_insensitive(self):
        a = eval_expr(parse("m[ 1 , 2 ; 3 ] * ( m[;1] ' )"))
        b = eval_expr(parse("m[1,2;3]*(m[;1]')"))
        assert a == b

    @pytest.mark.parametrize("text,want", [
        ("m[1\x1c,2;]", "m[1,2;]"), ("m[\t1\n,2;]", "m[1,2;]"), ("m[١,٢;]", "m[1,2;]"),
        ("m[ ; ]", "m[;]"), ("m[;01,2]", "m[;1,2]"), ("m[;1 ]", "m[;1]"),
    ])
    def test_gap_list_spellings(self, text, want):
        # separators int() does not strip, other whitespace, other digits
        # and leading zeros all read as the plain list
        assert eval_expr(parse(text)) == eval_expr(parse(want))

    def test_inversion_and_grouping(self):
        assert eval_expr(parse("m[2;1,3]'")) == CofMap((1, 3), (2,))
        assert eval_expr(parse("b[2,3]'")) == Bicyclic(3, 2)
        assert eval_expr(parse("(m[;1] * m[;1])'")) == CofMap((1, 2), ())
        assert eval_expr(parse("m[;1]''")) == UP

    @given(invertible_values, st.lists(st.sampled_from(("", " ", "\t", "\n  ", "\x1c")), max_size=6))
    def test_run_of_primes_inverts_by_parity(self, v, spaces):
        # each prime after its own whitespace: the run is one token, and the
        # same primes one to a group of parentheses give the same value
        want = v.inverse() if len(spaces) % 2 else v
        run = "".join(ws + "'" for ws in spaces)
        assert eval_expr(parse(render(v) + run)) == want
        nested = "(" * len(spaces) + render(v) + "".join(")" + ws + "'" for ws in spaces)
        assert eval_expr(parse(nested)) == want

    def test_composition_is_left_to_right(self):
        assert eval_expr(parse("m[;1] * m[1;]")) == IDENTITY
        assert eval_expr(parse("m[1;] * m[;1]")) == CofMap((1,), (1,))

    @pytest.mark.parametrize("text,message", SYNTAX_ERRORS, ids=[t.replace(BIG, "<5000 nines>") for t, _ in SYNTAX_ERRORS])
    def test_syntax_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join),
           st.sampled_from(("", "m[", "b[", "z[", "m[1,", "m[,", "m[1 ", "m[;1,", "m[\x1c")),
           st.integers(1, 4))
    def test_only_parse_errors(self, text, head, copies):
        text = "*".join([head + text] * copies)
        # every string either parses, and its value round-trips through the
        # printer, or raises ParseError with a span inside the text (an
        # error at the end points one past it); the head makes an element
        # that goes wrong inside its brackets likely, and the copies make
        # runs of equal factors, read as powers, before it
        try:
            node = parse(text)
        except ParseError as exc:
            start, end = exc.span
            assert 0 <= start < end <= len(text) + 1
            return
        try:
            v = eval_expr(node)
        except ExprTypeError:
            return
        assert eval_expr(parse(render(v))) == v

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("m[;1] * m[5,4;]")
        assert err.value.span[0] >= 10

    def test_type_errors_surface_at_eval(self):
        # a literal inversion is already a parse error; a computed one is not
        with pytest.raises(ParseError):
            parse("(z[1])'")
        with pytest.raises(ExprTypeError):
            eval_expr(parse("(z[1] * z[2])'"))
        with pytest.raises(ExprTypeError):
            eval_expr(parse("z[1] * O"))
        with pytest.raises(ExprTypeError):
            eval_expr(parse("O * z[1]"))


class TestEval:
    def test_carrier_promotions(self):
        assert eval_expr(parse("b[0,1] * m[1;]")) == IDENTITY
        assert eval_expr(parse("m[1;] * b[0,1]")) == CofMap((1,), (1,))
        assert eval_expr(parse("b[0,1] * b[1,0]")) == Bicyclic(0, 0)
        assert eval_expr(parse("z[2] * m[;1]")) == 3
        assert eval_expr(parse("m[;1] * z[2]")) == 3
        assert eval_expr(parse("z[2] * b[0,1]")) == 3
        assert eval_expr(parse("z[3] * z[-2]")) == 1
        assert eval_expr(parse("O * m[;1]")) is ZERO
        assert eval_expr(parse("b[1,1] * O")) is ZERO


mixed_values = st.one_of(invertible_values, st.integers(-50, 50), st.just(ZERO))


class TestRender:
    def test_canonical_forms(self):
        assert render(IDENTITY) == "m[;]"
        assert render(CofMap((1, 2), (5,))) == "m[1,2;5]"
        assert render(Bicyclic(0, 3)) == "b[0,3]"
        assert render(-4) == "z[-4]"
        assert render(ZERO) == "O"

    @given(mixed_values)
    def test_round_trip(self, v):
        assert eval_expr(parse(render(v))) == v

    def test_two_row_preview(self):
        top, bottom = two_row_preview(CofMap((2,), (1, 3)), 3)
        assert top == "( 1 3 4 ... )"
        assert bottom == "( 2 4 5 ... )"

    def test_two_row_preview_is_linear_in_columns_and_gaps(self):
        g = CofMap(tuple(range(1, 20001)), ())
        start = time.perf_counter()
        top, bottom = two_row_preview(g, 1000)
        elapsed = time.perf_counter() - start
        oracle = two_row(g.dom_gaps, g.ran_gaps, n=21000)
        xs = sorted(oracle)[:1000]
        assert top.split()[1:-2] == [str(x) for x in xs]
        assert bottom.split()[1:-2] == [str(oracle[x]) for x in xs]
        assert elapsed < 0.1  # a walk costing (K + gaps) * gaps takes seconds here

    def test_two_row_preview_builds_nothing_per_gap(self):
        g = CofMap((), range(10**6, 2 * 10**6))
        tracemalloc.start()
        try:
            rows = two_row_preview(g, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == ["( 1 2 3 4 5 ... )", "( 1 2 3 4 5 ... )"]
        assert peak < 2**20  # a set of the million gaps takes tens of megabytes


# an element outside the carrier a command works in
CARRIER_REFUSALS = [
    (["f", "O"], "the zero has no shift index"),
    (["nbhd-zero", "1", "z[1]"], "integers are not elements of the zero-adjoined monoid"),
    (["nbhd-adj", "0", "m[;]", "O"], "the zero is not an element of the adjunction semigroup"),
]


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["eval", "m[;1] * m[1;]"]) == 0
        assert capsys.readouterr().out == "m[;]\n"

    def test_parse_error_is_2(self, capsys):
        assert main(["eval", "m[3,2;]"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_literal_inversion_of_zero_is_parse_error(self, capsys):
        assert main(["eval", "z[1]'"]) == 2

    @pytest.mark.parametrize("text", ["m[²;]", "b[²,1]", "z[²]"])
    def test_non_decimal_digit_is_parse_error(self, capsys, text):
        # str.isdigit accepts "²" but int does not; digits are decimal ones
        assert main(["eval", text]) == 2
        assert capsys.readouterr().err == "parse error: expected a number (at 2..3)\n"

    def test_number_past_the_digit_limit_is_parse_error(self, capsys):
        assert main(["eval", f"m[;1] * z[{BIG}]"]) == 2
        assert capsys.readouterr().err == f"parse error: {TOO_LONG} (at 10..5010)\n"

    # every number here has 4,300 digits, but tail and the product add 1 to one
    @pytest.mark.parametrize("argv", [
        argv + flags
        for argv in (["tail", f"m[{'9' * 4300};]"], ["eval", f"m[;{'9' * 4300}] * m[;1]"])
        for flags in ([], ["--json"])
    ], ids=lambda argv: " ".join([argv[0], *argv[2:]]))
    def test_result_past_the_digit_limit_is_1(self, capsys, argv):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: result has a number with more than 4300 digits\n")

    @pytest.mark.parametrize("argv", [["apply", "m[;1]", "0"], ["apply", "m[;1]", "--", "-4"],
                                      ["apply", "m[;1]", "-4"], ["apply", "--json", "m[;1]", "-4"]])
    def test_apply_outside_the_positive_integers_is_1(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: maps act on positive integers\n"

    def test_unicode_decimal_digits_are_numbers(self, capsys):
        assert main(["eval", "m[١;١٢] * z[-١]"]) == 0
        assert capsys.readouterr().out == "z[-1]\n"

    def test_domain_error_is_1(self, capsys):
        assert main(["leq", "nat", "m[;1]", "m[1;1]"]) == 1
        assert "idempotent" in capsys.readouterr().err

    def test_type_error_is_1(self, capsys):
        assert main(["eval", "z[1] * O"]) == 1

    @pytest.mark.parametrize("argv,message", CARRIER_REFUSALS,
                             ids=[" ".join(argv) for argv, _ in CARRIER_REFUSALS])
    def test_element_outside_the_command_carrier_is_1(self, capsys, argv, message):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["green", "Q", "m[;]", "m[;]"])
        assert err.value.code == 2


class TestSubcommands:
    @pytest.mark.parametrize(
        "args,want",
        [
            (["f", "m[1,2,3;5]"], "-2\n"),
            (["green", "R", "m[;1]", "m[;2]"], "true\n"),
            (["green", "L", "m[;1]", "m[;2]"], "false\n"),
            (["green", "H", "m[;1]", "m[;1]"], "true\n"),
            (["green", "D", "m[;1]", "m[1,2;]"], "true\n"),
            (["leq", "nat", "m[1,2;1,2]", "m[1;1]"], "true\n"),
            (["leq", "canon", "m[1;1,2]", "m[;1]"], "true\n"),
            (["apply", "m[2;1,3]", "3"], "4\n"),
            (["apply", "m[2;1,3]", "2"], "undefined\n"),
            (["tail", "m[1,2,3;5]"], "8\n"),
            (["connect", "m[1;1]", "m[2;2]"], "m[1;2]\n"),
            (["bc-member", "m[1,2;1]"], "b[2,1]\n"),
            (["bc-member", "m[2;1]"], "absent\n"),
            (["below-c", "m[1,4;1,4]"], "m[1,2,3,4;1,2,3,4]\n"),
            (["nbhd-zero", "2", "m[1,3;2,5]"], "true\n"),
            (["nbhd-zero", "1", "O"], "true\n"),
            (["nbhd-adj", "1", "m[;1]", "z[1]"], "true\n"),
            (["nbhd-adj", "1", "m[;1]", "m[;1]"], "false\n"),
            (["f", "z[5]"], "5\n"),
            (["f", "b[2,0]"], "-2\n"),
        ],
    )
    def test_text_outputs(self, capsys, args, want):
        assert main(args) == 0
        assert capsys.readouterr().out == want

    def test_solve_text(self, capsys):
        assert main(["solve", "right", "m[;1]", "m[;1]"]) == 0
        assert capsys.readouterr().out == "2 solution(s)\nm[;]\nm[1;1]\n"

    def test_upset_lists_all(self, capsys):
        assert main(["upset", "m[1,2;1,2]"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "4 idempotent(s)"
        assert set(out[1:]) == {"m[;]", "m[1;1]", "m[2;2]", "m[1,2;1,2]"}

    def test_simple_witness(self, capsys):
        assert main(["simple-witness", "m[1;2]", "m[;1]"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("left = ") and lines[1].startswith("right = ")

    def test_fresh_bicyclic(self, capsys):
        assert main(["fresh-bicyclic", "m[2;2]"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "unity = m[1,2,4;1,2,4]",
            "up = m[1,2,4;1,2,4,5]",
            "down = m[1,2,4,5;1,2,4]",
        ]

    def test_project_and_conj(self, capsys):
        assert main(["project-c", "m[1,2,3;5]"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "approximant = m[1,2,3,4,5,6,7;1,2,3,4,5]",
            "idempotent = m[1,2,3,4,5,6,7;1,2,3,4,5,6,7]",
        ]
        assert main(["conj-witness", "m[;1]"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "idempotent = m[1;1]",
            "conjugate_left = m[;]",
            "conjugate_right = m[1,2;1,2]",
        ]

    def test_gcong(self, capsys):
        assert main(["gcong", "m[;1]", "m[1;1,2]"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "true" and len(out) == 3
        assert main(["gcong", "m[;1]", "m[1;]"]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_stability(self, capsys):
        # the bound alone: the sampled check is a law of cofmap selftest
        assert main(["stability", "3", "m[;1]"]) == 0
        assert capsys.readouterr().out == "4\n"
        assert main(["stability", "3", "m[;1]", "--json"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_rows_preview(self, capsys):
        assert main(["eval", "m[2;1,3]'", "--rows", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "m[1,3;2]",
            "( 2 4 5 ... )",
            "( 1 3 4 ... )",
        ]


class TestJsonOutputs:
    def test_documented_examples_are_byte_exact(self):
        r = run_cli("f", "m[1,2,3;5]", "--json")
        assert (r.returncode, r.stdout) == (0, b"-2\n")
        r = run_cli("green", "R", "m[;1]", "m[;2]", "--json")
        assert (r.returncode, r.stdout) == (0, b"true\n")
        r = run_cli("solve", "right", "m[;1]", "m[;1]", "--json")
        want = (
            b'{"equation":{"side":"right","factor":{"dom_gaps":[],"ran_gaps":[1]},'
            b'"target":{"dom_gaps":[],"ran_gaps":[1]}},'
            b'"solutions":[{"dom_gaps":[],"ran_gaps":[]},'
            b'{"dom_gaps":[1],"ran_gaps":[1]}]}\n'
        )
        assert (r.returncode, r.stdout) == (0, want)

    def test_eval_json_schemas(self, capsys):
        assert main(["eval", "m[1;2]", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"dom_gaps": [1], "ran_gaps": [2]}
        assert main(["eval", "b[2,3]", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"m": 2, "n": 3}
        assert main(["eval", "z[2] * m[;1]", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"kind": "int", "value": 3}
        assert main(["eval", "O", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"kind": "zero"}

    def test_apply_json_null(self, capsys):
        assert main(["apply", "m[2;1,3]", "2", "--json"]) == 0
        assert capsys.readouterr().out == "null\n"

    def test_gcong_json(self, capsys):
        assert main(["gcong", "m[;1]", "m[1;]", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "congruent": False,
            "left_witness": None,
            "right_witness": None,
        }


class TestIO:
    def test_stdin_expression(self):
        r = run_cli("eval", "-", stdin=b"m[1,4;2] * m[;5]")
        assert (r.returncode, r.stdout) == (0, b"m[1,4;2,5]\n")

    def test_startup_imports_neither_dataclasses_nor_selftest(self):
        # only the selftest command imports cofmap.selftest: stability prints a bound
        code = ("import sys, cofmap.cli; print(sorted({'dataclasses', 'cofmap.selftest'} & set(sys.modules)));"
                " code = cofmap.cli.main(['stability', '3', 'm[;1]']); print(code, 'cofmap.selftest' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cofmap.__file__)))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (r.returncode, r.stdout) == (0, "[]\n4\n0 False\n")

    @pytest.mark.parametrize("argv,out,extra", [
        (["eval", "m[1;2] * m[;3]"], "m[1;2,3]\n", []),
        (["eval", "b[1,2]"], "b[1,2]\n", ["cofmap.bicyclic"]),
        (["solve", "right", "m[;1]", "m[;1,2]"], "3 solution(s)\nm[;1]\nm[;2]\nm[1;1,2]\n", ["cofmap.green"]),
    ], ids=["eval-maps", "eval-bicyclic", "solve"])
    def test_a_process_loads_the_modules_its_command_reaches(self, argv, out, extra):
        # the CLI as `python -m cofmap` runs it, compiling from source; the
        # modules it loaded are printed after its output
        code = ("import runpy, sys\n"
                f"sys.argv = ['cofmap', *{argv!r}]\n"
                "try:\n    runpy.run_module('cofmap', run_name='__main__')\n"
                "except SystemExit as exc:\n    assert exc.code == 0\n"
                "print(*sorted(name for name in sys.modules if name.startswith('cofmap')))")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cofmap.__file__)))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        want = " ".join(sorted(["cofmap", "cofmap.cli", "cofmap.core", *extra]))
        assert (r.returncode, r.stdout, r.stderr) == (0, f"{out}{want}\n", "")

    def test_submodules_and_names_load_on_first_access(self):
        code = ("import cofmap; from cofmap import CofMap; "
                "print(cofmap.green.solve_right(CofMap((), (1,)), CofMap((), (1, 2))).count)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cofmap.__file__)))
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (r.returncode, r.stdout) == (0, "3\n")
        for name, home in cofmap._HOME.items():
            assert getattr(cofmap, name) is getattr(getattr(cofmap, home), name)
        assert {*cofmap._HOME, "core", "green", "bicyclic", "extensions", "cli", "selftest"} <= set(dir(cofmap))
        with pytest.raises(AttributeError):
            cofmap.no_such_name

    def test_no_argv_loads_argparse_or_gettext(self):
        # json is loaded only to print --json output
        def imported(*argv, stdin=None):  # the module names that -X importtime lists on stderr
            r = run_cli(*argv, stdin=stdin, python_options=("-X", "importtime"))
            names = {line.rsplit("|", 1)[1].strip() for line in r.stderr.decode().splitlines()
                     if line.startswith("import time:")}
            assert "cofmap.cli" in names and not {"argparse", "gettext"} & names
            return r, names

        r, names = imported("eval", "id")
        assert (r.returncode, r.stdout) == (0, b"m[;]\n") and "json" not in names
        r, names = imported("eval", "-", stdin=b"m[;1]")
        assert (r.returncode, r.stdout) == (0, b"m[;1]\n") and "json" not in names
        r, names = imported("eval", "id", "--json")
        assert (r.returncode, r.stdout) == (0, b'{"dom_gaps":[],"ran_gaps":[]}\n') and "json" in names
        for argv in (["-h"], ["eval", "-h"]):
            r, _ = imported(*argv)
            assert r.returncode == 0 and r.stdout.startswith(b"usage: cofmap")
        for argv in (["frobnicate"], ["eval", "id", "--js"]):
            r, _ = imported(*argv)
            assert (r.returncode, r.stdout) == (2, b"")

    def test_reader_that_closes_early_gets_exit_1_and_no_traceback(self):
        # 3.5 MB of output, far more than a pipe holds, so the write fails
        cmd = [sys.executable, "-m", "cofmap", "conj-witness", "m[;100000]"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(100).startswith(b"idempotent = m[1,2,3,")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_out_of_memory_exits_1_with_no_traceback(self, capsys, monkeypatch):
        def exhausted(node):
            raise MemoryError

        monkeypatch.setattr(cofmap.cli, "eval_expr", exhausted)
        assert main(["eval", "m[;1]"]) == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")

    def test_selftest_smoke(self, capsys):
        assert main(["selftest", "--cases", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "passed=" in out and "failed=0" in out

    def test_selftest_failure_is_counted_and_exits_1(self, capsys, monkeypatch):
        # a bound too shallow by the difference of the gap counts breaks one law
        import cofmap.selftest

        monkeypatch.setattr(cofmap.selftest, "zero_stability_bound",
                            lambda i, a: i + min(len(a.dom_gaps), len(a.ran_gaps)))
        name = "translation keeps zero neighborhoods stable"
        argv = ["selftest", "--seed", "1", "--cases", "300"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert f"FAIL  {name}  (45 failures)" in lines
        assert lines[-1] == "passed=20 failed=1 seed=1 cases=300"
        assert main([*argv, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["passed"], doc["failed"]) == (20, 1)
        assert [c for c in doc["checks"] if c["failures"]] == [{"name": name, "failures": 45, "error": None}]

    def test_a_law_that_raises_is_one_failure_of_that_law(self, capsys, monkeypatch):
        # a shift one too high on maps with more than 3 domain gaps: the
        # neighborhood law then draws an anchor that in_adj_nbhd refuses
        import cofmap.selftest

        shift = cofmap.selftest.shift
        monkeypatch.setattr(cofmap.selftest, "shift", lambda g: shift(g) + (len(g.dom_gaps) > 3))
        name = "neighborhood bases filter correctly"
        error = "ValueError: anchor shift -1 must equal the neighborhood's integer 0"
        argv = ["selftest", "--seed", "1", "--cases", "300"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len([line for line in lines if line.startswith(("PASS  ", "FAIL  "))]) == 21
        at = lines.index(f"FAIL  {name}  (2 failures)")
        assert lines[at + 1] == f"  error: {error}"
        assert [line for line in lines if "error" in line] == [f"  error: {error}"]
        assert lines[-1].startswith("passed=") and err == ""
        assert main([*argv, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["checks"]) == 21
        assert [(c["name"], c["failures"], c["error"]) for c in doc["checks"] if c["error"]] == [(name, 2, error)]

    def test_selftest_deterministic_across_processes(self):
        a = run_cli("selftest", "--cases", "30", "--json")
        b = run_cli("selftest", "--cases", "30", "--json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


# Every subcommand's stdout, byte for byte, as (argv, text, --json, --rows 3).
GOLDEN = [
    (["eval", "m[2;1,3]' * b[1,2]"],
     "m[1,2,3;1,2,3]\n",
     '{"dom_gaps":[1,2,3],"ran_gaps":[1,2,3]}\n',
     "m[1,2,3;1,2,3]\n( 4 5 6 ... )\n( 4 5 6 ... )\n"),
    (["eval", "z[2] * m[;1]"], "z[3]\n", '{"kind":"int","value":3}\n', "z[3]\n"),
    (["eval", "O"], "O\n", '{"kind":"zero"}\n', "O\n"),
    (["apply", "m[2;1,3] * m[;1]", "3"], "5\n", "5\n", "5\n"),
    (["f", "b[2,0] * m[1;]"], "-3\n", "-3\n", "-3\n"),
    (["tail", "m[1,2,3;5]"], "8\n", "8\n", "8\n"),
    (["green", "L", "m[;1]", "m[1;1]"], "true\n", "true\n", "true\n"),
    (["leq", "canon", "m[1;1,2]", "m[;1]"], "true\n", "true\n", "true\n"),
    (["connect", "m[1;1]", "m[2,3;2,3]"],
     "m[1;2,3]\n",
     '{"dom_gaps":[1],"ran_gaps":[2,3]}\n',
     "m[1;2,3]\n( 2 3 4 ... )\n( 1 4 5 ... )\n"),
    (["simple-witness", "m[1;2]", "m[;1]"],
     "left = m[;1]\nright = m[2;1]\n",
     '{"left":{"dom_gaps":[],"ran_gaps":[1]},"right":{"dom_gaps":[2],"ran_gaps":[1]}}\n',
     "left = m[;1]\n( 1 2 3 ... )\n( 2 3 4 ... )\nright = m[2;1]\n( 1 3 4 ... )\n( 2 3 4 ... )\n"),
    (["solve", "left", "m[1;]", "m[1,2;]"],
     "3 solution(s)\nm[1;]\nm[1,2;1]\nm[2;]\n",
     '{"equation":{"side":"left","factor":{"dom_gaps":[1],"ran_gaps":[]},'
     '"target":{"dom_gaps":[1,2],"ran_gaps":[]}},"solutions":[{"dom_gaps":[1],"ran_gaps":[]},'
     '{"dom_gaps":[1,2],"ran_gaps":[1]},{"dom_gaps":[2],"ran_gaps":[]}]}\n',
     "3 solution(s)\nm[1;]\n( 2 3 4 ... )\n( 1 2 3 ... )\nm[1,2;1]\n( 3 4 5 ... )\n"
     "( 2 3 4 ... )\nm[2;]\n( 1 3 4 ... )\n( 1 2 3 ... )\n"),
    (["upset", "m[1,3;1,3]"],
     "4 idempotent(s)\nm[;]\nm[1;1]\nm[1,3;1,3]\nm[3;3]\n",
     '[{"dom_gaps":[],"ran_gaps":[]},{"dom_gaps":[1],"ran_gaps":[1]},'
     '{"dom_gaps":[1,3],"ran_gaps":[1,3]},{"dom_gaps":[3],"ran_gaps":[3]}]\n',
     "4 idempotent(s)\nm[;]\n( 1 2 3 ... )\n( 1 2 3 ... )\nm[1;1]\n( 2 3 4 ... )\n( 2 3 4 ... )\n"
     "m[1,3;1,3]\n( 2 4 5 ... )\n( 2 4 5 ... )\nm[3;3]\n( 1 2 4 ... )\n( 1 2 4 ... )\n"),
    (["bc-member", "m[1,2;1]"], "b[2,1]\n", '{"m":2,"n":1}\n', "b[2,1]\n"),
    (["bc-member", "m[2;1]"], "absent\n", "null\n", "absent\n"),
    (["fresh-bicyclic", "m[2;2]"],
     "unity = m[1,2,4;1,2,4]\nup = m[1,2,4;1,2,4,5]\ndown = m[1,2,4,5;1,2,4]\n",
     '{"unity":{"dom_gaps":[1,2,4],"ran_gaps":[1,2,4]},"up":{"dom_gaps":[1,2,4],"ran_gaps":[1,2,4,5]},'
     '"down":{"dom_gaps":[1,2,4,5],"ran_gaps":[1,2,4]}}\n',
     "unity = m[1,2,4;1,2,4]\n( 3 5 6 ... )\n( 3 5 6 ... )\nup = m[1,2,4;1,2,4,5]\n( 3 5 6 ... )\n"
     "( 3 6 7 ... )\ndown = m[1,2,4,5;1,2,4]\n( 3 6 7 ... )\n( 3 5 6 ... )\n"),
    (["project-c", "m[1,2,3;5]"],
     "approximant = m[1,2,3,4,5,6,7;1,2,3,4,5]\nidempotent = m[1,2,3,4,5,6,7;1,2,3,4,5,6,7]\n",
     '{"approximant":{"dom_gaps":[1,2,3,4,5,6,7],"ran_gaps":[1,2,3,4,5]},'
     '"idempotent":{"dom_gaps":[1,2,3,4,5,6,7],"ran_gaps":[1,2,3,4,5,6,7]}}\n',
     "approximant = m[1,2,3,4,5,6,7;1,2,3,4,5]\n( 8 9 10 ... )\n( 6 7  8 ... )\n"
     "idempotent = m[1,2,3,4,5,6,7;1,2,3,4,5,6,7]\n( 8 9 10 ... )\n( 8 9 10 ... )\n"),
    (["below-c", "m[1,4;1,4]"],
     "m[1,2,3,4;1,2,3,4]\n",
     '{"dom_gaps":[1,2,3,4],"ran_gaps":[1,2,3,4]}\n',
     "m[1,2,3,4;1,2,3,4]\n( 5 6 7 ... )\n( 5 6 7 ... )\n"),
    (["conj-witness", "m[;1]"],
     "idempotent = m[1;1]\nconjugate_left = m[;]\nconjugate_right = m[1,2;1,2]\n",
     '{"idempotent":{"dom_gaps":[1],"ran_gaps":[1]},"conjugate_left":{"dom_gaps":[],"ran_gaps":[]},'
     '"conjugate_right":{"dom_gaps":[1,2],"ran_gaps":[1,2]}}\n',
     "idempotent = m[1;1]\n( 2 3 4 ... )\n( 2 3 4 ... )\nconjugate_left = m[;]\n( 1 2 3 ... )\n"
     "( 1 2 3 ... )\nconjugate_right = m[1,2;1,2]\n( 3 4 5 ... )\n( 3 4 5 ... )\n"),
    (["gcong", "m[;1]", "m[1;1,2]"],
     "true\nleft_witness = m[1,2;1,2]\nright_witness = m[1,2;1,2]\n",
     '{"congruent":true,"left_witness":{"dom_gaps":[1,2],"ran_gaps":[1,2]},'
     '"right_witness":{"dom_gaps":[1,2],"ran_gaps":[1,2]}}\n',
     "true\nleft_witness = m[1,2;1,2]\n( 3 4 5 ... )\n( 3 4 5 ... )\n"
     "right_witness = m[1,2;1,2]\n( 3 4 5 ... )\n( 3 4 5 ... )\n"),
    (["gcong", "m[;1]", "m[1;]"],
     "false\n",
     '{"congruent":false,"left_witness":null,"right_witness":null}\n',
     "false\n"),
    (["nbhd-zero", "2", "b[2,2]"], "true\n", "true\n", "true\n"),
    (["nbhd-adj", "1", "m[;1]", "z[1]"], "true\n", "true\n", "true\n"),
    (["stability", "3", "m[;1]"], "4\n", "4\n", "4\n"),
]

SELFTEST_CHECKS = [
    "compose agrees with pointwise composition",
    "composition is associative",
    "inverse axioms and commuting idempotents",
    "shift is additive and the tail law holds",
    "Green relations match their idempotent forms; H is equality",
    "simplicity witness satisfies g*a*d == b",
    "connecting map links any two idempotents",
    "natural order reverses gap inclusion; gap map is a hom",
    "up-set size is 2**gaps",
    "canonical order implies equal shift and pointwise restriction",
    "translation equations match exhaustive search",
    "bicyclic product matches word rewriting",
    "fresh bicyclic copy avoids the standard one",
    "tail projection glues the map to its standard stand-in",
    "absorbing and dominated standard idempotents",
    "conjugates of the tail idempotent stay standard",
    "group congruence is the shift kernel, with working witnesses",
    "zero and adjunction semigroups are associative",
    "neighborhood bases filter correctly",
    "translation keeps zero neighborhoods stable",
    "expression round-trip through the printer",
]
_selftest_text = "".join(f"PASS  {n}\n" for n in SELFTEST_CHECKS) + "passed=21 failed=0 seed=2 cases=5\n"
GOLDEN.append((
    ["selftest", "--cases", "5", "--seed", "2"],
    _selftest_text,
    '{"seed":2,"cases":5,"passed":21,"failed":0,"checks":['
    + ",".join('{"name":"%s","failures":0,"error":null}' % n for n in SELFTEST_CHECKS) + "]}\n",
    _selftest_text,
))


class TestGoldenOutputs:
    def test_every_subcommand_is_covered(self):
        assert {argv[0] for argv, *_ in GOLDEN} == set(COMMANDS)

    # each spelling of the options, with the index of its output in a GOLDEN row;
    # a value may be joined to its flag by "=", and a repeated switch is one switch
    @pytest.mark.parametrize(
        "argv,want",
        [(argv + flags, outs[i])
         for argv, *outs in GOLDEN
         for flags, i in (([], 0), (["--json"], 1), (["--rows", "3"], 2), (["--rows=3"], 2),
                          (["--json", "--rows", "0", "--json"], 1))],
        ids=lambda x: " ".join(x) if isinstance(x, list) else "",
    )
    def test_byte_exact(self, capsys, argv, want):
        assert main(argv) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (want, "")


def _split(argv):
    """The options of a well-formed argv, each value joined to its flag by
    "=", and its positionals."""
    options, texts, tokens = [], [], iter(argv[1:])
    for token in tokens:
        if token in ("--json", "--count"):
            options.append(token)
        elif token.startswith("--"):
            options.append(f"{token}={next(tokens)}")
        else:
            texts.append(token)
    return options, texts


def _argparse_vars(argv):
    """What argparse, given a command's grammar and no abbreviations or -h,
    reads from ``argv``: the namespace's dict, or None where it refuses ``argv``."""
    import argparse

    positionals, options, defaults, *_ = build_parser(argv[0])
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    for _, dest, type_, choices in positionals:
        parser.add_argument(dest, type=type_, choices=choices)
    for flag, dest, type_, _ in options.values():
        if type_ is None:
            parser.add_argument(flag, action="store_true")
        else:
            parser.add_argument(flag, type=type_, default=defaults[dest])
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return {"command": argv[0], **vars(parser.parse_args(argv[1:]))}
    except SystemExit:
        return None


class TestArgv:
    @pytest.mark.parametrize("argv", [
        *(argv + flags
          for argv, *_ in GOLDEN
          for flags in ([], ["--json"], ["--rows", "3"], ["--json", "--rows", "0", "--json"])),
        ["eval", "-"],
    ], ids=" ".join)
    def test_well_formed_argv_is_read_directly(self, argv):
        options, texts = _split(argv)
        args = _read(argv)
        # the same namespace with the options first, each value joined by "="
        assert vars(_read([argv[0], *options, *texts])) == vars(args)
        dests = [dest for dest, *_ in COMMANDS[argv[0]][1] if not dest.startswith("-")]
        assert [str(getattr(args, dest)) for dest in dests[:len(texts)]] == texts
        for option in options:
            flag, eq, value = option.partition("=")
            assert getattr(args, flag[2:]) == (int(value) if eq else True)
        assert args.json == ("--json" in options) and args.rows == (3 if "--rows=3" in options else 0)

    def test_trailing_double_dash(self, capsys):
        assert main(["eval", "id", "--"]) == 0
        assert capsys.readouterr().out == "m[;]\n"

    def test_after_double_dash_every_token_is_a_positional(self, capsys):
        assert main(["eval", "--", "-h"]) == 2
        assert capsys.readouterr().err == "parse error: expected an element, '(' or 'id' (at 0..1)\n"
        assert main(["eval", "--", "--json"]) == 2

    def test_empty_expression_is_a_parse_error(self, capsys):
        assert main(["eval", ""]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "parse error: expected an element, '(' or 'id' (at 0..1)\n")

    def test_positional_after_an_option(self, capsys):
        # the positionals need not come before the options
        assert main(["apply", "m[;1]", "--json", "5"]) == 0
        assert capsys.readouterr().out == "6\n"

    def test_one_dash_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("m[;1]"))
        assert main(["green", "R", "-", "m[;1] * m[1;1]"]) == 0
        assert capsys.readouterr().out == "true\n"

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_direct_reader_agrees_with_argparse(self, data):
        # whatever argparse accepts, the reader reads alike, but a second "-";
        # argparse does not read a second "--" as a positional, as the reader does
        name = data.draw(st.sampled_from(list(COMMANDS)))
        tokens = ["--", "-h", "--rows=3", "--js", "-4", "-", "--json", "--rows", "--count",
                  "--limit", "--seed", "--cases", "R", "nat", "left", "Q", "0", "3", "1001",
                  "65537", "x", "", "id", "m[;1]"]
        argv = [name, *data.draw(st.lists(st.sampled_from(tokens), max_size=7))]
        want = _argparse_vars(argv) if argv.count("--") < 2 else None
        if want is None:
            return
        if argv.count("-") > 1:
            with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
                _read(argv)
            assert exc.value.code == 2
        else:
            assert vars(_read(argv)) == want


# argv that the reader refuses, with the start of the error line after the usage line
USAGE_ERRORS = [
    ([], "cofmap: error: a command is required"),
    (["frobnicate"], "cofmap: error: argument command: invalid choice 'frobnicate' (choose from eval, "),
    (["eval"], "cofmap eval: error: the following arguments are required: expr"),
    (["eval", "x", "y"], "cofmap eval: error: unrecognized argument 'y'"),
    (["eval", "id", "-4"], "cofmap eval: error: unrecognized argument '-4'"),
    (["stability", "3", "m[;1]", "40"], "cofmap stability: error: unrecognized argument '40'"),
    (["eval", "id", "-"], "cofmap eval: error: unrecognized argument '-'"),
    (["leq", "sideways", "id", "id"],
     "cofmap leq: error: argument order: invalid choice 'sideways' (choose from nat, canon)"),
    (["upset", "m[1;1]", "--limit", "x"], "cofmap upset: error: argument --limit: invalid literal for int()"),
    (["upset", "m[1;1]", "--limit", "65537"],
     "cofmap upset: error: argument --limit: must be between 0 and 65536, got '65537'"),
    (["eval", "id", "--rows"], "cofmap eval: error: argument --rows: expected a value"),
    (["eval", "id", "--count"], "cofmap eval: error: unrecognized argument '--count'"),
    (["eval", "id", "--js"], "cofmap eval: error: unrecognized argument '--js'"),
    (["eval", "--json=1", "id"], "cofmap eval: error: unrecognized argument '--json=1'"),
    # stdin is read once: a second "-" would read it after it is used up
    (["green", "R", "-", "-"], "cofmap green: error: argument second: stdin ('-') is read by an earlier"),
    (["gcong", "-", "-", "--json"], "cofmap gcong: error: argument second: stdin ('-') is read by an earlier"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv,error", USAGE_ERRORS,
                             ids=[" ".join(argv) or "no command" for argv, _ in USAGE_ERRORS])
    def test_usage_line_then_error(self, capsys, monkeypatch, argv, error):
        monkeypatch.setattr(sys, "stdin", io.StringIO("m[;1]"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        usage, line = out.err.splitlines()
        name = argv[0] if argv and argv[0] in COMMANDS else None
        assert usage.startswith(f"usage: cofmap {name} [-h]" if name else "usage: cofmap [-h]")
        assert line.startswith(error)
        assert sys.stdin.read() == "m[;1]"  # a refused argv reads nothing


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["frobnicate", "--help"], ["eval", "-h"], ["eval", "id", "-h"],
        ["solve", "x", "--help", "--", "-h"], ["upset", "--limit", "-h"], ["selftest", "--cases=1", "-h"],
    ], ids=" ".join)
    def test_help_on_stdout_and_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert (exc.value.code, out.err) == (0, "")
        lines = out.out.splitlines()
        if argv[0] not in COMMANDS:  # each command with its help string
            assert lines[0].startswith("usage: cofmap [-h]")
            listed = {line.split()[0]: line.split(None, 1)[1] for line in lines if line.startswith("  ")}
            assert listed == {name: row[0] for name, row in COMMANDS.items()}
        else:  # the command's help string, then each of its arguments
            name, (help_, arguments, _, shape) = argv[0], COMMANDS[argv[0]]
            assert lines[0].startswith(f"usage: cofmap {name} [-h]") and lines[2] == help_
            flags = {line.split()[0] for line in lines if line.startswith("  -")}
            want = {"-h,", "--json", "--rows", *(dest for dest, *_ in arguments if dest.startswith("-"))}
            assert flags == want | ({"--count", "--limit"} if name in ("solve", "upset") else set())


class TestEvalErrorSpans:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("(z[1] * z[2])''", "integers and the zero have no inverse (at 1..14)"),
            ("(z[1] * z[2])'''", "integers and the zero have no inverse (at 1..14)"),
            ("m[;1] * z[1] * m[;2] * O * z[2]",
             "integers and the zero belong to different carriers (at 0..24)"),
            ("O * (z[1]*m[;1])", "integers and the zero belong to different carriers (at 0..15)"),
            ("z[1] * O * (z[1] * O)", "integers and the zero belong to different carriers (at 0..8)"),
            ("z[1] * O * (z[1]*z[1])'", "integers and the zero belong to different carriers (at 0..8)"),
            ("(z[1]*z[1])' * z[1] * O", "integers and the zero have no inverse (at 1..12)"),
            ("b[1,1] * z[1] * b[0,1] * O",
             "integers and the zero belong to different carriers (at 0..26)"),
            # a product's span ends at the last prime of a run, the error of
            # an inversion at the first
            ("O * (z[2] * m[;1]'')", "integers and the zero belong to different carriers (at 0..19)"),
            ("O * (z[2] * m[;1] ' ')",
             "integers and the zero belong to different carriers (at 0..21)"),
            ("(z[1] * z[2]) ' '", "integers and the zero have no inverse (at 1..15)"),
            ("((z[1]*z[2])')'", "integers and the zero have no inverse (at 2..13)"),
            # a run of equal factors meets a mismatch at its first copy
            ("z[1]*z[1]*z[1]*O", "integers and the zero belong to different carriers (at 0..16)"),
            ("O*O*z[1]", "integers and the zero belong to different carriers (at 0..8)"),
            ("(z[1]*z[1])'*(z[1]*z[1])'*(z[1]*z[1])'", "integers and the zero have no inverse (at 1..12)"),
        ],
    )
    def test_first_error_left_to_right(self, text, message):
        with pytest.raises(ExprTypeError) as err:
            eval_expr(parse(text))
        assert str(err.value) == message


class TestDeepInput:
    def test_long_product(self, capsys):
        n = 3000
        assert main(["eval", "*".join(["m[;1]"] * n)]) == 0
        assert capsys.readouterr().out == render(CofMap((), tuple(range(1, n + 1)))) + "\n"

    @pytest.mark.parametrize("primes,want", [(3000, "m[2;1]\n"), (2001, "m[1;2]\n")])
    def test_long_run_of_primes(self, capsys, primes, want):
        assert main(["eval", "m[2;1]" + "'" * primes]) == 0
        assert capsys.readouterr().out == want

    def test_deep_parentheses_are_a_parse_error(self, capsys):
        assert main(["eval", "(" * 2000 + "m[;1]" + ")" * 2000]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert re.fullmatch(r"parse error: .*\(at \d+\.\.\d+\)\n", out.err)

    def test_nesting_limit(self):
        from cofmap.cli import MAX_NESTING

        inner = "m[;1] * " + "(" * (MAX_NESTING - 1) + "m[;1]'" + ")" * (MAX_NESTING - 1)
        assert eval_expr(parse("(" + inner + ")")) == IDENTITY
        with pytest.raises(ParseError) as err:
            parse("((" + inner + "))")
        assert err.value.span == (MAX_NESTING + 8, MAX_NESTING + 9)  # the 101st "("


def reference_mul(v, w):
    if isinstance(v, Bicyclic) and isinstance(w, Bicyclic):
        return v * w
    v, w = (embed(x) if isinstance(x, Bicyclic) else x for x in (v, w))
    if v is ZERO or w is ZERO:
        return zero_mul(v, w)
    if isinstance(v, int) or isinstance(w, int):
        return adj_mul(v, w)
    return compose(v, w)


primed_values = mixed_values.flatmap(
    lambda v: st.tuples(st.just(v), st.integers(0, 3) if isinstance(v, (CofMap, Bicyclic)) else st.just(0))
)


# whitespace that may stand before and after every bracket, separator and operator
SPACING = st.sampled_from(("", " ", "\t", "\n", "\x1c"))
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


class TestChains:
    @given(st.lists(primed_values, min_size=1, max_size=40))
    def test_random_chain_is_the_left_fold(self, chain):
        text = " * ".join(render(v) + "'" * k for v, k in chain)
        values = [v if k % 2 == 0 else v.inverse() for v, k in chain]
        if any(isinstance(v, int) for v in values) and any(v is ZERO for v in values):
            with pytest.raises(ExprTypeError):
                eval_expr(parse(text))
        else:
            assert eval_expr(parse(text)) == functools.reduce(reference_mul, values)

    @given(st.lists(st.tuples(primed_values, st.booleans()), min_size=1, max_size=12), st.data())
    def test_spacing_and_digits_keep_the_value(self, chain, data):
        # a chain as above, some factors in parentheses, read once plain
        # and once with drawn whitespace around every one of [ ] ; , * ( ) '
        # and some numbers in Arabic-Indic digits
        plain = " * ".join((f"({render(v)})" if wrap else render(v)) + "'" * k
                           for (v, k), wrap in chain)
        spelled = []
        for piece in re.split(r"(\d+)", plain):
            if piece.isdigit():
                spelled.append(piece.translate(ARABIC_INDIC) if data.draw(st.booleans()) else piece)
                continue
            spelled += (data.draw(SPACING) + c + data.draw(SPACING) if c in "[];,*()'" else c
                        for c in piece)
        text = "".join(spelled)
        try:
            want = eval_expr(parse(plain))
        except ExprTypeError:
            with pytest.raises(ExprTypeError):
                eval_expr(parse(text))
        else:
            assert eval_expr(parse(text)) == want


# a term of a chain with its value: a map, a bicyclic element or "id",
# maybe in parentheses, then 0 to 3 primes
@st.composite
def valued_terms(draw):
    v, text = draw(st.one_of(invertible_values.map(lambda v: (v, render(v))),
                             st.just((IDENTITY, "id"))))
    if draw(st.booleans()):
        text = f"({text})"
    primes = draw(st.integers(0, 3))
    return text + "'" * primes, v.inverse() if primes % 2 else v


class TestRepeatedFactors:
    @given(st.lists(valued_terms(), min_size=3, max_size=3),
           st.lists(st.integers(0, 2), min_size=1, max_size=60))
    def test_chain_from_three_terms_is_the_left_fold(self, pool, picks):
        text = "*".join(pool[i][0] for i in picks)
        want = functools.reduce(reference_mul, [pool[i][1] for i in picks])
        assert eval_expr(parse(text)) == want

    def test_a_run_of_equal_factors_takes_log_many_products(self, monkeypatch):
        # every product, of maps or of other carriers, is counted; a run
        # evaluates its factor at most twice (its first and last copy), and
        # multiplies the copies in at most 2 * ceil(log2 n) products more
        calls = []

        def counted(mul):
            return lambda v, w: calls.append(1) or mul(v, w)

        monkeypatch.setattr(cofmap.cli, "compose", counted(compose))
        monkeypatch.setattr(cofmap.cli, "_mul_values", counted(cofmap.cli._mul_values))
        for factor in ("m[;1]", "m[;1]'", "(m[;1]*m[1;])", "(m[2;1])''", "b[2,3]", "z[2]", "O"):
            calls.clear()
            one = eval_expr(parse(factor))
            own = len(calls)
            folds = [one]  # the left fold of n copies, made here without the parser
            while len(folds) < 4096:
                folds.append(reference_mul(folds[-1], one))
            for sep in ("*", " * ", "\t*\n"):
                for n in [*range(1, 301), 4096]:
                    calls.clear()
                    assert eval_expr(parse(sep.join([factor] * n))) == folds[n - 1]
                    assert len(calls) <= 2 * own + 2 * (n - 1).bit_length()  # 2 * ceil(log2 n)

    @pytest.mark.parametrize("factor", ["m[;1]'", "(m[;1]*m[1;])"])
    def test_three_thousand_copies_take_at_most_24_compositions(self, monkeypatch, factor):
        calls = []
        monkeypatch.setattr(cofmap.cli, "compose", lambda g, h: calls.append(1) or compose(g, h))
        eval_expr(parse("*".join([factor] * 3000)))
        assert len(calls) <= 24

    def test_a_repeated_literal_is_one_map_with_a_span_per_occurrence(self):
        node = parse("m[;1] * m[2;1]*m[;1]")
        first, _, third = node.factors
        assert first.value == third.value
        assert (first.span, third.span) == ((0, 5), (15, 20))

    def test_a_run_is_its_first_factor_then_a_power(self):
        # the copies after the first, each through its "*" and the
        # whitespace after it, are one Pow; the last copy, with no "*"
        # after it, is read as an ordinary term
        first, power, last = parse("m[;1]' * m[;1]' * m[;1]' * m[;1]'").factors
        assert (power.child, power.count, power.span) == (first, 2, (9, 27))
        assert (first.span, last.span) == ((0, 6), (27, 33))

    def test_malformed_term_after_a_long_run_reports_its_span(self):
        text = "m[;1]*" * 1000 + "m[3,2;]"
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == "gap entries must be strictly increasing, got (3, 2) (at 6002..6005)"
        with pytest.raises(ParseError) as err:
            parse("m[;1]*" * 1000 + "m[;1")
        assert str(err.value) == "expected ']' (at 6004..6005)"

    def test_carrier_mismatch_after_a_long_run_reports_its_span(self):
        text = "m[;1]*" * 1000 + "m[;1]*z[1]*O"
        with pytest.raises(ExprTypeError) as err:
            eval_expr(parse(text))
        assert str(err.value) == f"integers and the zero belong to different carriers (at 0..{len(text)})"


def _segment_text(k):
    return ",".join(map(str, range(1, k + 1)))


class TestUpsetLimit:
    def test_refuses_more_than_sixteen_gaps(self, capsys):
        gaps = ",".join(map(str, range(1, 18)))
        assert main(["upset", f"m[{gaps};{gaps}]"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and "16" in out.err

    def test_non_idempotents_are_still_refused_as_such(self, capsys):
        gaps = ",".join(map(str, range(1, 18)))
        assert main(["upset", f"m[{gaps};]"]) == 1
        assert "not an idempotent" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,noun", [
        # 2**14286 has more digits than str() prints by default
        (["upset", f"m[{_segment_text(14_286)};{_segment_text(14_286)}]"], "idempotent(s)"),
        (["upset", f"m[{_segment_text(14_286)};{_segment_text(14_286)}]", "--json"], "idempotent(s)"),
        # C(80, 40) solutions, whose text would never fit in memory
        (["solve", "right", f"m[;{_segment_text(40)}]", f"m[;{_segment_text(40)}]"], "solution(s)"),
        (["solve", "left", f"m[{_segment_text(40)};]", f"m[{_segment_text(40)};]", "--json"],
         "solution(s)"),
    ])
    def test_long_listings_are_refused(self, capsys, argv, noun):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {argv[0]} would list more than 2**16 {noun}; give --count or --limit\n"

    def test_the_limit_is_inclusive(self, capsys):
        gaps = _segment_text(16)
        for flags in ([], ["--limit", "65536"]):
            assert main(["upset", f"m[{gaps};{gaps}]", *flags]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0] == "65536 idempotent(s)" and len(out) == 1 + 2 ** 16


class TestCountAndLimit:
    def test_solve_count_is_exact_without_listing(self, capsys):
        seg = _segment_text(40)
        assert main(["solve", "right", f"m[;{seg}]", f"m[;{seg}]", "--count"]) == 0
        assert capsys.readouterr().out == "107507208733336176461620\n"  # C(80, 40)
        assert main(["solve", "left", f"m[{seg};]", f"m[{seg};]", "--count", "--json"]) == 0
        assert capsys.readouterr().out == "107507208733336176461620\n"
        assert main(["solve", "right", "m[1;]", "m[;]", "--count"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_solve_limit_streams_the_first_members(self, capsys):
        seg = _segment_text(40)
        assert main(["solve", "right", f"m[;{seg}]", f"m[;{seg}]", "--limit", "3"]) == 0
        assert capsys.readouterr().out == "107507208733336176461620 solution(s)\nm[;]\nm[1;1]\nm[1;2]\n"
        assert main(["solve", "left", "m[1;]", "m[1,2;]", "--limit", "2", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"equation":{"side":"left","factor":{"dom_gaps":[1],"ran_gaps":[]},'
            '"target":{"dom_gaps":[1,2],"ran_gaps":[]}},"solutions":[{"dom_gaps":[1],"ran_gaps":[]},'
            '{"dom_gaps":[1,2],"ran_gaps":[1]}]}\n')
        assert main(["solve", "right", "m[;1]", "m[;1]", "--limit", "5"]) == 0
        assert capsys.readouterr().out == "2 solution(s)\nm[;]\nm[1;1]\n"

    def test_solve_limit_lists_past_a_thousand_blocks(self, capsys):
        # 1,500 blocks of one point and one slot: the listing walks as deep
        # as it needs, with no recursion
        evens = ",".join(map(str, range(2, 3001, 2)))
        assert main(["solve", "right", f"m[;{evens}]", f"m[;{evens}]", "--limit", "1200"]) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert out.err == "" and len(lines) == 1201
        assert lines[0] == f"{2 ** 1500} solution(s)"
        last = ",".join(map(str, range(2, 2399, 2)))
        assert lines[-1] == f"m[{last};{last}]"

    def test_upset_count_and_limit_past_the_gap_limit(self, capsys):
        seg = _segment_text(30)
        assert main(["upset", f"m[{seg};{seg}]", "--count"]) == 0
        assert capsys.readouterr().out == f"{2 ** 30}\n"
        assert main(["upset", f"m[{seg};{seg}]", "--limit", "3"]) == 0
        assert capsys.readouterr().out == f"{2 ** 30} idempotent(s)\nm[;]\nm[1;1]\nm[1,2;1,2]\n"
        assert main(["upset", "m[1,3;1,3]", "--limit", "2", "--json"]) == 0
        assert capsys.readouterr().out == '[{"dom_gaps":[],"ran_gaps":[]},{"dom_gaps":[1],"ran_gaps":[1]}]\n'
        assert main(["upset", f"m[{seg};]", "--count"]) == 1
        assert "not an idempotent" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve", "right", "m[;1]", "m[;1]", "--limit", "-1"],
        ["upset", "m[1;1]", "--limit", "-2"],
        ["upset", "m[1;1]", "--limit", "x"],
        ["eval", "m[;]", "--rows", "-3"],
        ["eval", "m[;]", "--rows", "1001"],
        ["eval", "m[;]", "--count"],
        ["selftest", "--cases", "-3"],
        ["selftest", "--cases=-5"],
        ["upset", "m[1;1]", "--limit", "65537"],
        ["solve", "right", f"m[;{_segment_text(40)}]", f"m[;{_segment_text(40)}]",
         "--limit", "100000000000"],
        ["selftest", "--cases", "1000001"],
        ["selftest", "--cases", "10001"],
    ])
    def test_out_of_range_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


class TestLargeGapValues:
    # each of these once built a tuple of every point up to the gap value
    @pytest.mark.parametrize("argv", [
        ["project-c", "m[100000000;]"],
        ["below-c", "m[100000000;100000000]"],
        ["gcong", "m[;100000000]", "m[;100000001]"],
        ["fresh-bicyclic", "m[50000000;50000000]"],
        ["eval", "b[100000000,0]*m[;]"],
    ])
    def test_refused_as_domain_errors(self, capsys, argv):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: initial segment")

    def test_rows_at_the_limit(self, capsys):
        assert main(["eval", "m[;]", "--rows", "1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith(" 999 1000 ... )") and len(lines) == 3


# argument texts for the exit-code contract: large gap values, numbers of
# 4,300 digits, 40-gap idempotents and maps, and malformed text
NINES = "9" * 4300  # as long as the digit limit lets a number be
EXPRESSIONS = [
    "id", "m[;1]", "m[1,3;1,3]", "m[2;1,3]' * b[1,2]", "b[2,1]", "z[3]", "O", "z[1] * O",
    "m[100000000;]", "m[;100000000]", "b[100000000,0]", f"m[;{NINES}]",
    f"z[{NINES}]", f"m[{_segment_text(40)};{_segment_text(40)}]",
    f"m[;{_segment_text(40)}]", f"m[{_segment_text(40)};]",
    "m[3,2;]", "m[;1", "(", "q", "", "z[1]'", f"z[{BIG}]",
]
NUMBERS = ["0", "1", "3", "-4", "x", "", "100000000", NINES]
CASES = ["0", "1", "3", "-4", "x", "10001"]  # selftest --cases, at most MAX_CASES
FLAGS = [
    ["--json"], ["--rows", "3"], ["--rows", "1001"], ["--count"], ["--limit", "3"],
    ["--limit", "65537"], ["--limit", "100000000000"], ["--limit", "-1"],
    ["--seed", "5"], ["--cases", "3"], ["--"], ["-h"], ["--help"], ["--rows=3"], ["--js"], ["-4"],
    ["--json=1"], ["--limit=3"], ["--rows="], ["--seed=-5"], [""],
]


@st.composite
def cli_argv(draw):
    """A command with the arguments its row takes, some defaulted options
    left out, and options and stray tokens put anywhere."""
    name = draw(st.sampled_from(list(COMMANDS)))
    _, arguments, fn, _ = COMMANDS[name]
    argv = [name]
    for dest, kind, *default in arguments:
        # a number of cases is always given: its default takes seconds
        if default and kind is not COUNT and draw(st.booleans()):
            continue
        if kind is CHOICE:
            text = draw(st.sampled_from([*fn, "Q"]))
        elif kind is COUNT:
            text = draw(st.sampled_from(CASES))
        elif kind is int:
            text = draw(st.sampled_from(NUMBERS))
        else:
            text = draw(st.sampled_from(EXPRESSIONS))
        argv += [dest, text] if dest.startswith("-") else [text]
    for flag in draw(st.lists(st.sampled_from(FLAGS), max_size=3)):
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = flag
    return argv


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(cli_argv())
    def test_every_argv_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # help and usage errors
                code = exc.code
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
        if code == 2 and not err.getvalue().startswith("parse error: "):
            assert err.getvalue().startswith("usage: cofmap")
