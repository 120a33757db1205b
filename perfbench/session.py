"""cli-session: in-process ``cli.main(argv)`` calls with captured output,
over a seeded script of subcommands in text, ``--json`` and ``--rows``
modes.

This is the path CLI users take, where argparse, parsing, evaluation,
rendering and start-up imports dominate and the algebra is cheap.
Commands that build elements feed ``ops_per_s`` and commands that answer a
question about them (a point, a shift, a relation, a membership) feed
``query_per_s``.  Expressions run from single elements to product chains
of hundreds of factors with primes and parentheses, and maps with
hundreds of gaps.  Every output is checked against the oracles, and every
exit code against the contract: 0 ok, 1 domain error, 2 parse or usage.

Three inputs fail today and are counted as failed: ``eval`` of a
3,000-factor product, of 3,000 primes and of 2,000 nested parentheses each
raise RecursionError out of ``cli.parse`` or ``cli.eval_expr``.  Either a
value or exit 2 with a span would pass.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

from cofmap.cli import eval_expr, parse, render as cli_render

import oracle as o
import props
from gen import desk_idempotent, desk_pair, gapset, render
from harness import Op, Plan, Process, Slot
from oracle import CheckFailed, expect

CHAIN_FACTORS = (100, 200, 300)
WIDE_GAPS = (200, 400)
DEEP = {"factors": 3000, "primes": 3000, "parens": 2000}


# -- the expression language, evaluated by the oracles ----------------------

def as_map(v):
    return ("map", o.standard(*v[1])) if v[0] == "bic" else v


def mul(v, w):
    if v[0] == w[0] == "bic":
        return "bic", o.bicyclic_product(v[1], w[1])
    v, w = as_map(v), as_map(w)
    kinds = {v[0], w[0]}
    if "zero" in kinds:
        expect("int" not in kinds, "the script mixed an integer with the zero")
        return "zero", None
    if "int" in kinds:
        return "int", sum(x[1] if x[0] == "int" else o.shift(x[1]) for x in (v, w))
    return "map", o.product(v[1], w[1])


def inv(v):
    if v[0] == "map":
        return "map", o.inverse(v[1])
    return "bic", v[1][::-1]   # d^m u^n reversed and swapped is d^n u^m


def element(rng):
    pick = rng.random()
    if pick < 0.75:
        return "map", desk_pair(rng)
    if pick < 0.95:
        return "bic", (rng.randint(0, 9), rng.randint(0, 9))
    return "id", None


def expr(rng, factors, depth=0):
    """(text, tree) of a product of ``factors`` maps and bicyclic elements,
    with seeded primes, parenthesised groups and spacing.  The tree is
    evaluated by :func:`value` only when a check needs it."""
    parts, left = [], factors
    while left > 0:
        if depth < 3 and left > 2 and rng.random() < 0.1:
            k = rng.randint(2, min(left, 20))
            text, tree = expr(rng, k, depth + 1)
            text = f"({text})"
            left -= k
        else:
            kind, x = element(rng)
            text, tree = ("id", ("elem", ("map", ((), ())))) if kind == "id" \
                else (render((kind, x)), ("elem", (kind, x)))
            left -= 1
        for _ in range(rng.choice((0, 0, 0, 0, 1, 2))):
            text, tree = text + "'", ("inv", tree)
        parts.append((text, tree))
    text = rng.choice((" * ", "*", " *")).join(t for t, _ in parts)
    return text, ("mul", [t for _, t in parts])


def value(tree):
    """The oracle's value of an expression tree."""
    if tree[0] == "elem":
        return tree[1]
    if tree[0] == "inv":
        return inv(value(tree[1]))
    out = value(tree[1][0])
    for t in tree[1][1:]:
        out = mul(out, value(t))
    return out


def wide_map(rng, k):
    return gapset(rng, k, 3 * k), gapset(rng, k, 3 * k)


# -- reading the CLI's output -----------------------------------------------

ELEM = re.compile(r"m\[([\d,]*);([\d,]*)\]|b\[(\d+),(\d+)\]|z\[(-?\d+)\]|O")


def read_elem(text):
    m = ELEM.fullmatch(text.strip())
    expect(m is not None, "not an element", text)
    if m.group(0).startswith("m"):
        return "map", tuple(tuple(int(x) for x in g.split(",")) if g else () for g in m.group(1, 2))
    if m.group(0).startswith("b"):
        return "bic", (int(m.group(3)), int(m.group(4)))
    if m.group(0).startswith("z"):
        return "int", int(m.group(5))
    return "zero", None


def from_json(doc):
    if doc is None:
        return None
    if "m" in doc:
        return "bic", (doc["m"], doc["n"])
    if doc.get("kind") == "int":
        return "int", doc["value"]
    if doc.get("kind") == "zero":
        return "zero", None
    return "map", (tuple(doc["dom_gaps"]), tuple(doc["ran_gaps"]))


def labelled(out, json_mode, labels):
    """The labelled elements a command printed, as gap pairs."""
    if json_mode:
        doc = json.loads(out)
        return [from_json(doc[k])[1] for k in labels]
    lines = dict(line.split(" = ", 1) for line in out.splitlines())
    expect(list(lines) == list(labels), "labels", out)
    return [read_elem(lines[k])[1] for k in labels]


def rows(m, k):
    points = o.window(m, o.horizon(m) + k)
    xs = sorted(points)[:k]
    ys = [points[x] for x in xs]
    widths = [max(len(str(x)), len(str(y))) for x, y in zip(xs, ys)]
    return ["( %s ... )" % " ".join(str(v).rjust(w) for v, w in zip(vals, widths)) for vals in (xs, ys)]


def to_json(v):
    kind, x = v
    if kind == "map":
        return {"dom_gaps": list(x[0]), "ran_gaps": list(x[1])}
    if kind == "bic":
        return {"m": x[0], "n": x[1]}
    if kind == "int":
        return {"kind": "int", "value": x}
    return {"kind": "zero"}


def ok_output(code, err):
    expect(code == 0 and err == "", "command did not exit 0 cleanly", code, err[:200])


def value_check(text, tree, mode, k):
    """eval's output: the oracle's value, printed canonically, round-tripping
    through the library's own parse and render."""
    def check(res):
        code, out, err = res
        ok_output(code, err)
        v = value(tree)
        if mode == "json":
            expect(json.loads(out) == to_json(v), "eval --json", text[:80], out[:200])
            return
        lines = out.splitlines()
        want = [render(v)] + (rows(v[1], k) if k and v[0] == "map" else [])
        expect(lines == want, "eval output", text[:80], lines[:3], want[:3])
        got = eval_expr(parse(lines[0]))
        expect(eval_expr(parse(cli_render(got))) == got, "parse(render(v)) != v", lines[0][:80])
    return check


# -- the script ---------------------------------------------------------------

def build(rng, L, lib) -> Plan:
    def run_main(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = L.cli_main(argv)
            except SystemExit as exc:   # argparse's usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def command(side, argv, check):
        return side, Op(run_main, (argv,), check)

    def mode():
        return rng.choice(("text", "text", "json"))

    def flags(m):
        return ["--json"] if m == "json" else []

    def map_expr():
        """(text, thunk of the map's gap pair) of a small map-valued expression."""
        text, tree = expr(rng, rng.randint(1, 4))
        return text, lambda: as_map(value(tree))[1]

    def eval_cmd(text, tree, m, k=0):
        argv = ["eval", text] + flags(m) + (["--rows", str(k)] if k else [])
        return command("ops", argv, value_check(text, tree, m, k))

    def scalar_expr():
        text, tree = expr(rng, rng.randint(1, 4))
        if rng.random() < 0.2:
            z = rng.randint(-9, 9)
            text, tree = f"z[{z}] * {text}", ("mul", [("elem", ("int", z)), tree])
        elif rng.random() < 0.2:
            text, tree = f"{text} * O", ("mul", [tree, ("elem", ("zero", None))])
        return text, tree

    def eval_small():
        return eval_cmd(*scalar_expr(), mode())

    def eval_rows():
        return eval_cmd(*expr(rng, rng.randint(1, 4)), "text", rng.randint(1, 12))

    chains = list(CHAIN_FACTORS)

    def eval_chain():
        return eval_cmd(*expr(rng, chains.pop()), mode())

    wides = list(WIDE_GAPS)

    def eval_wide():
        k = wides.pop()
        f, g = wide_map(rng, k), wide_map(rng, k)
        text = f"{render(('map', f))} * ({render(('map', g))})'"
        return eval_cmd(text, ("mul", [("elem", ("map", f)), ("inv", ("elem", ("map", g)))]), mode())

    def scalar_cmd(name, args, want):
        """A command printing one scalar; ``want()`` gives the oracle's."""
        m = mode()

        def check(res):
            code, out, err = res
            ok_output(code, err)
            w = want()
            got = json.loads(out) if m == "json" else out.strip()
            expect(got == (w if m == "json" else ("undefined" if w is None else str(w).lower())),
                   name, args[:1], got, w)
        return command("query", [name, *args] + flags(m), check)

    def apply():
        (text, g), x = map_expr(), rng.randint(1, 50)
        return scalar_cmd("apply", [text, str(x)], lambda: o.image_of(g(), x))

    def shift_index():
        text, tree = scalar_expr()
        if tree[1][-1] == ("elem", ("zero", None)):
            return command("query", ["f", text], exit_code(1, "error: "))

        def want():
            kind, x = value(tree)
            return x if kind == "int" else x[1] - x[0] if kind == "bic" else o.shift(x)
        return scalar_cmd("f", [text], want)

    def tail():
        text, g = map_expr()
        return scalar_cmd("tail", [text], lambda: o.threshold(g()))

    def green():
        a = desk_pair(rng)
        rel = rng.choice("RLHD")
        b = {"R": (a[0], desk_pair(rng)[1]), "L": (desk_pair(rng)[0], a[1]), "H": a,
             "D": desk_pair(rng)}[rel] if rng.random() < 0.5 else desk_pair(rng)
        want = {"R": lambda: o.dom_within(a, b) and o.dom_within(b, a),
                "L": lambda: o.dom_within(o.inverse(a), o.inverse(b)) and o.dom_within(o.inverse(b), o.inverse(a)),
                "H": lambda: o.restricts(a, b) and o.restricts(b, a), "D": lambda: True}[rel]
        return scalar_cmd("green", [rel, render(("map", a)), render(("map", b))], want)

    def leq():
        if rng.random() < 0.5:
            e, f = desk_idempotent(rng, 6), desk_idempotent(rng, 6)
            if rng.random() < 0.5:
                e = (tuple(sorted(set(e[0]) | set(f[0]))),) * 2
            return scalar_cmd("leq", ["nat", render(("map", e)), render(("map", f))], lambda: o.dom_within(e, f))
        b = desk_pair(rng)
        a = o.restrict(b, gapset(rng, 2, 30)) if rng.random() < 0.5 else desk_pair(rng)
        return scalar_cmd("leq", ["canon", render(("map", a)), render(("map", b))], lambda: o.restricts(a, b))

    def exit_code(code, prefix):
        def check(res):
            expect(res[0] == code and res[1] == "" and res[2].startswith(prefix),
                   f"exit-code contract: wanted {code}", res)
        return check

    def labelled_cmd(name, args, labels, prop):
        m = mode()

        def check(res):
            code, out, err = res
            ok_output(code, err)
            prop(*labelled(out, m == "json", labels))
        return command("ops", [name, *args] + flags(m), check)

    def connect():
        e, i = desk_idempotent(rng), desk_idempotent(rng)
        if rng.random() < 0.2:
            d, r = desk_pair(rng)
            a = (d, r if r != d else r + (31,))   # not an idempotent
            return command("ops", ["connect", render(("map", a)), render(("map", i))], exit_code(1, "error: "))
        m = mode()

        def check(res):
            code, out, err = res
            ok_output(code, err)
            got = from_json(json.loads(out)) if m == "json" else read_elem(out)
            props.connect(e, i, got[1])
        return command("ops", ["connect", render(("map", e)), render(("map", i))] + flags(m), check)

    def simple_witness():
        a, b = desk_pair(rng), desk_pair(rng)
        return labelled_cmd("simple-witness", [render(("map", a)), render(("map", b))], ("left", "right"),
                            lambda g, d: props.simple(a, b, g, d))

    def solve():
        side = rng.choice(("right", "left"))
        p, q, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 20)
        a, b = ((), tuple(range(k + 1, k + p + 1))), ((), tuple(range(k + 1, k + q + 1)))
        if side == "left":
            a, b = a[::-1], b[::-1]
        m = mode()

        def check(res):
            code, out, err = res
            ok_output(code, err)
            if m == "json":
                doc = json.loads(out)
                expect(doc["equation"] == {"side": side, "factor": to_json(("map", a)),
                                           "target": to_json(("map", b))}, "solve --json equation", doc)
                got = [from_json(s)[1] for s in doc["solutions"]]
            else:
                lines = out.splitlines()
                expect(lines[0] == f"{len(lines) - 1} solution(s)", "solve count line", lines[0])
                got = [read_elem(s)[1] for s in lines[1:]]
            props.solutions(side, a, b, got)
        return command("ops", ["solve", side, render(("map", a)), render(("map", b))] + flags(m), check)

    def upset():
        g = gapset(rng, rng.randint(0, 4), 30)
        want = [(s, s) for k in range(len(g) + 1) for s in combinations(g, k)]
        want.sort()
        m = mode()

        def check(res):
            code, out, err = res
            ok_output(code, err)
            if m == "json":
                got = [from_json(d)[1] for d in json.loads(out)]
            else:
                lines = out.splitlines()
                expect(lines[0] == f"{len(want)} idempotent(s)", "upset count line", lines[0])
                got = [read_elem(s)[1] for s in lines[1:]]
            expect(got == want, "upset differs from every subset of the gaps", g, got[:4])
        return command("ops", ["upset", render(("map", (g, g)))] + flags(m), check)

    def bc_member():
        g = o.standard(rng.randint(0, 9), rng.randint(0, 9)) if rng.random() < 0.5 else desk_pair(rng)
        want = ("bic", (len(g[0]), len(g[1]))) if o.is_standard(g) else None
        m = mode()

        def check(res):
            code, out, err = res
            ok_output(code, err)
            got = from_json(json.loads(out)) if m == "json" else (
                None if out == "absent\n" else read_elem(out))
            expect(got == want, "bc-member", g, got)
        return command("query", ["bc-member", render(("map", g))] + flags(m), check)

    def fresh_bicyclic():
        e = desk_idempotent(rng)
        return labelled_cmd("fresh-bicyclic", [render(("map", e))], ("unity", "up", "down"),
                            lambda unity, up, down: props.fresh(e, unity, up, down))

    def project_c():
        text, g = map_expr()
        return labelled_cmd("project-c", [text], ("approximant", "idempotent"),
                            lambda mu, eps: props.tail_projection(g(), mu, eps))

    def below_c():
        e = desk_idempotent(rng)
        m = mode()

        def check(res):
            code, out, err = res
            ok_output(code, err)
            got = from_json(json.loads(out)) if m == "json" else read_elem(out)
            props.below(e, got[1])
        return command("ops", ["below-c", render(("map", e))] + flags(m), check)

    def conj_witness():
        text, g = map_expr()
        return labelled_cmd("conj-witness", [text], ("idempotent", "conjugate_left", "conjugate_right"),
                            lambda eps, left, right: props.conjugation(g(), eps, left, right))

    def gcong():
        a = desk_pair(rng)
        b = desk_pair(rng)
        if rng.random() < 0.5:
            f = o.shift(a)
            n = rng.randint(max(0, -f), min(10, 10 - f))
            b = (gapset(rng, n, 30), gapset(rng, n + f, 30))
        m = mode()

        def check(res):
            code, out, err = res
            ok_output(code, err)
            if m == "json":
                doc = json.loads(out)
                flag = doc["congruent"]
                w = None if doc["left_witness"] is None else (
                    from_json(doc["left_witness"])[1], from_json(doc["right_witness"])[1])
            else:
                lines = out.splitlines()
                flag = lines[0] == "true"
                w = labelled("\n".join(lines[1:]), False, ("left_witness", "right_witness")) if flag else None
            expect(flag == (o.shift(a) == o.shift(b)), "gcong flag", a, b, flag)
            props.congruence(a, b, w)
        return command("ops", ["gcong", render(("map", a)), render(("map", b))] + flags(m), check)

    def nbhd_zero():
        i = rng.randint(1, 6)
        x = None if rng.random() < 0.2 else desk_pair(rng)
        want = x is None or (len(x[0]) >= i and len(x[1]) >= i)
        return scalar_cmd("nbhd-zero", [str(i), "O" if x is None else render(("map", x))], lambda: want)

    def nbhd_adj():
        elem = desk_pair(rng)
        anchor = o.restrict(elem, gapset(rng, 1, 30)) if rng.random() < 0.3 else desk_pair(rng)
        point = o.shift(anchor)
        if rng.random() < 0.15:
            return command("query", ["nbhd-adj", str(point + 1), render(("map", anchor)), render(("map", elem))],
                           exit_code(1, "error: "))
        if rng.random() < 0.2:
            return scalar_cmd("nbhd-adj", [str(point), render(("map", anchor)), f"z[{point}]"], lambda: True)
        return scalar_cmd("nbhd-adj", [str(point), render(("map", anchor)), render(("map", elem))],
                          lambda: o.shift(elem) == point and not o.restricts(anchor, elem))

    def parse_error():
        g = desk_pair(rng)
        bad = rng.choice([
            "m[%d,%d;]" % (rng.randint(5, 9), rng.randint(1, 4)),   # not increasing
            "m[0;]", "m[;1", "b[1]", "q", "z[]", "id id", "z[1]'", "O'",
            render(("map", g)) + " *", render(("map", g)) + " * m[4,4;]",
        ])

        def check(res):
            code, out, err = res
            expect(code == 2 and out == "" and err.startswith("parse error:") and re.search(r"\(at \d+\.\.\d+\)", err),
                   "exit-code contract: a parse error exits 2 with a span", bad, res)
        return command("ops", ["eval", bad], check)

    def type_error():
        z = rng.randint(-9, 9)
        text = rng.choice((f"z[{z}] * O", f"O * z[{z}]", f"(z[{z}] * z[1])'"))
        return command("ops", ["eval", text], exit_code(1, "error: "))

    def usage_error():
        argv = rng.choice((["frobnicate"], ["apply", "m[;1]"], ["leq", "sideways", "id", "id"], []))
        return command("ops", argv, lambda res: expect(res[0] == 2 and res[1] == "", "usage error exits 2", argv, res))

    def deep(kind):
        n = DEEP[kind]
        if kind == "factors":
            text, want = "*".join(["m[;1]"] * n), ("map", ((), tuple(range(1, n + 1))))
        elif kind == "primes":
            text, want = "m[2;1]" + "'" * n, ("map", ((2,), (1,)))
        else:
            text, want = "(" * n + "m[;1]" + ")" * n, ("map", ((), (1,)))

        def check(res):
            if res[0] == 2:
                expect(res[2].startswith("parse error:") and "(at " in res[2], "deep input refused without a span")
            else:
                value_check(text[:80], ("elem", want), "text", 0)(res)
        return command("ops", ["eval", text], check)

    script = [eval_small() for _ in range(20)] + [eval_rows() for _ in range(5)]
    script += [eval_chain() for _ in CHAIN_FACTORS] + [eval_wide() for _ in WIDE_GAPS]
    for maker, n in ((apply, 6), (shift_index, 6), (tail, 4), (green, 6), (leq, 6), (connect, 5),
                     (simple_witness, 3), (solve, 4), (upset, 2), (bc_member, 4), (fresh_bicyclic, 2),
                     (project_c, 3), (below_c, 2), (conj_witness, 3), (gcong, 4), (nbhd_zero, 3),
                     (nbhd_adj, 4), (parse_error, 5), (type_error, 2), (usage_error, 1)):
        script += [maker() for _ in range(n)]
    script += [deep(kind) for kind in DEEP]
    rng.shuffle(script)
    slots = [Slot(side, [op]) for side, op in script]

    text, tree = expr(rng, 12)

    def check_process(code, out, err):
        try:
            value_check(text, tree, "text", 0)((code, out, err))
        except (CheckFailed, ValueError) as exc:
            raise CheckFailed(f"cofmap eval process: {exc}") from None
    return Plan(slots, Process(["eval", text], check_process))
