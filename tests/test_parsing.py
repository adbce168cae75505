import json
import random
import sys
from fractions import Fraction

import pytest

from nccalc import (
    GF,
    QQ,
    ExprSyntaxError,
    NCPoly,
    RuleFileError,
    builtin,
    default_names,
    format_poly,
    load_rule,
    parse_expr,
    parse_rule_dict,
    rule_to_dict,
    save_rule,
)
from helpers import ncpoly_parse_expr, random_poly

NAMES = ("x1", "x2")


def p(text, names=NAMES, **kw):
    return parse_expr(text, names, **kw)


def test_basic_forms():
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    assert p("x1") == x1
    assert p("2*x1*x2 - x2*x1") == 2 * (x1 * x2) - x2 * x1
    assert len(p("2*x1*x2 - x2*x1").terms) == 2
    assert p("x1^3") == NCPoly.from_word(2, (1, 1, 1))
    assert p("0") == NCPoly.zero(2)
    assert p("7") == NCPoly.constant(2, Fraction(7))
    assert p("3/4") == NCPoly.constant(2, Fraction(3, 4))


def test_precedence_and_grouping():
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    assert p("x1 + x2*x1") == x1 + x2 * x1
    assert p("(x1 + x2)*x1") == (x1 + x2) * x1
    assert p("x1*x2^2") == x1 * x2 * x2
    assert p("(x1*x2)^2") == x1 * x2 * x1 * x2
    assert p("-x1*x2") == -(x1 * x2)
    assert p("x1 - -x2") == x1 + x2
    assert p("2*(x1 - x2)") == 2 * x1 - 2 * x2
    assert p("x2^0") == NCPoly.one(2)


def test_rational_coefficients():
    x1 = NCPoly.gen(2, 1)
    assert p("1/2*x1") == Fraction(1, 2) * x1
    assert p("x1 - 3/2*x1") == Fraction(-1, 2) * x1


def test_parse_errors():
    for text in ("x1 +* x2", "x1 + ", "(x1", "x1)", "x1^", "x1^-2", "x1^x2",
                 "", "x1 x2", "1/x1", "@", "x1**x2"):
        with pytest.raises(ExprSyntaxError):
            p(text)


def test_zero_denominator():
    with pytest.raises(ExprSyntaxError, match="zero"):
        p("1/0")


def test_error_positions():
    with pytest.raises(ExprSyntaxError, match=r"line 1, column 6"):
        p("x1 + * x2")
    with pytest.raises(ExprSyntaxError, match=r"line 2"):
        p("x1 +\n* x2")
    # a superscript digit is no decimal digit, though str.isdigit says it is
    with pytest.raises(ExprSyntaxError) as err:
        p("x1^\u00b2")
    assert (err.value.line, err.value.col) == (1, 4)
    with pytest.raises(ExprSyntaxError) as err:
        p("x1 +\n\u00b2*x2")
    assert (err.value.line, err.value.col) == (2, 1)
    # a run of more digits than int() reads, as a factor, a denominator or
    # an exponent
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        big = "9" * (limit + 700)
        for text, where in ((f"x1 + {big}", (1, 6)), (f"x1 +\n2/{big}*x2", (2, 3)),
                            (f"x2*x1^{big}", (1, 7))):
            with pytest.raises(ExprSyntaxError, match="too long") as err:
                p(text)
            assert (err.value.line, err.value.col) == where


def test_nesting_depth_is_bounded():
    # 100 levels parse; the 101st opening parenthesis is refused where it
    # stands, on later lines too, and sibling groups do not add up
    assert p("(" * 100 + "x1" + ")" * 100) == NCPoly.gen(2, 1)
    assert p(" + ".join(["(" * 100 + "x2" + ")" * 100] * 3)) == 3 * NCPoly.gen(2, 2)
    with pytest.raises(ExprSyntaxError,
                       match=r"nested deeper than 100 levels \(line 1, column 101\)"):
        p("(" * 101 + "x1" + ")" * 101)
    with pytest.raises(ExprSyntaxError, match=r"\(line 2, column 51\)"):
        p("(" * 50 + "\n" + "(" * 1000 + "x1")


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier 'q'"):
        p("q*x1")


def test_params_resolve_before_vars():
    x1 = NCPoly.gen(2, 1)
    got = p("q*x1", params={"q": Fraction(5)})
    assert got == 5 * x1
    # a parameter may not shadow a generator name
    shadowed = p("x2*x1", params={"q": Fraction(5)})
    assert shadowed == NCPoly.gen(2, 2) * x1


def test_parse_over_prime_field():
    F = GF(7)
    x1 = NCPoly.gen(2, 1, F)
    assert p("1/2*x1", field=F) == F.of(4) * x1
    with pytest.raises(ExprSyntaxError, match="invertible"):
        p("1/7*x1", field=F)


def test_reducible_literals_over_prime_fields():
    # a literal is its value: 3/6 is 1/2, invertible mod 3, and 9/3 and
    # 0/3 are 3 and 0
    assert p("3/6", field=GF(3)) == NCPoly.constant(2, 2, GF(3))
    assert p("9/3*x1", field=GF(3)) == NCPoly.zero(2, GF(3))
    assert p("0/3 + x2", field=GF(3)) == NCPoly.gen(2, 2, GF(3))
    with pytest.raises(ExprSyntaxError, match=r"not invertible .*\(line 1, column 6\)"):
        p("x1 + 2/6", field=GF(3))


def _rand_literal(rng, char):
    """An int or a/b, often reducible; rarely a den that the field's
    characteristic divides."""
    if rng.random() < 0.4:
        return str(rng.randint(0, 12))
    den = rng.choice([d for d in (2, 3, 4, 6, 7) if not char or d % char])
    if char and rng.random() < 0.03:
        den *= char
    return f"{rng.randint(0, 12) * rng.choice((1, den))}/{den}"


def _rand_expr(rng, names, char, depth):
    """A random expression of the grammar; a few parts cancel to zero."""
    def atom(depth):
        r = rng.random()
        if depth and r < 0.3:
            return f"({_rand_expr(rng, names, char, depth - 1)})"
        if r < 0.55:
            return _rand_literal(rng, char)
        return rng.choice(names)

    def factor(depth):
        text = atom(depth)
        if rng.random() < 0.25:
            top = 3 if text[0] != "(" else 2
            text += f"^{rng.randint(0, top)}"
        return text

    def term(depth):
        text = "*".join(factor(depth) for _ in range(rng.randint(1, 3)))
        return "-" + text if rng.random() < 0.25 else text

    text = term(depth)
    for _ in range(rng.randint(0, 2)):
        text += rng.choice((" + ", " - ", "\n- ", "+")) + term(depth)
    if rng.random() < 0.1:
        text = f"{text} - ({text})"
    return text


def _mutated(rng, text):
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(text))
        r = rng.random()
        if r < 0.4:
            text = text[:i] + rng.choice("+-*/^()  @x\n\u00b20") + text[i:]
        elif r < 0.7:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i]
    return text


def _outcome(parse, text, names, params, field):
    try:
        return parse(text, names, params, field)
    except (ExprSyntaxError, ZeroDivisionError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(10007)],
                         ids=["Q", "Fp2", "Fp3", "Fp10007"])
def test_random_expressions_match_the_ncpoly_parser(field):
    rng = random.Random(3007 + (field.p or 0))
    names = ("x1", "x2", "x3")
    scalars = [field.of(Fraction(a, b)) for a, b in ((1, 5), (-7, 1), (0, 1), (3, 7), (10007, 1))]
    results = errors = zeros = 0
    for _ in range(250):
        # params resolve before the generator names, which one may shadow
        params = {"q": rng.choice(scalars), "zero": field.zero}
        if rng.random() < 0.2:
            params["x3"] = rng.choice(scalars)
        text = _rand_expr(rng, names + tuple(params), field.p, 2)
        for candidate in (text, _mutated(rng, text)):
            got = _outcome(parse_expr, candidate, names, params, field)
            expected = _outcome(ncpoly_parse_expr, candidate, names, params, field)
            assert got == expected, candidate
            if isinstance(got, NCPoly):
                assert {type(c) for c in got.terms.values()} <= {type(field.one)}, candidate
                results += 1
                zeros += not got
            else:
                errors += 1
    assert results > 250 and errors > 50 and zeros > 10, (results, errors, zeros)


def test_parser_builds_no_intermediate_ncpoly(monkeypatch, tmp_path):
    # every atom, sum, product and power is evaluated on ints: the
    # polynomial arithmetic is never called while an expression is parsed
    def refuse(*args):
        raise AssertionError("the parser called NCPoly arithmetic")

    path = tmp_path / "rule.json"
    path.write_text(json.dumps({
        "n": 3, "field": "Q", "vars": ["x", "y", "z"], "params": {"q": "-2/3"},
        "A": [[["y", "-x", "0"], ["0", "z", "x"], ["1/2*z", "0", "q*y"]],
              [["x", "0", "-z"], ["y", "(y - z)^1", "0"], ["0", "x", "z"]],
              [["0", "z", "x"], ["-y", "0", "x"], ["z", "y + x - x", "0"]]]}))
    want = [load_rule(path).rule, p("(1/3*x1 - 2/5*x2)^12"),
            p("-(x1 - x2)^3*x1 + 3/6", field=GF(3))]
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__"):
        monkeypatch.setattr(NCPoly, name, refuse)
    got = [load_rule(path).rule, p("(1/3*x1 - 2/5*x2)^12"),
           p("-(x1 - x2)^3*x1 + 3/6", field=GF(3))]
    monkeypatch.undo()
    assert got == want
    assert len(got[1].terms) == 2 ** 12


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        parse_expr("a", ("a", "a"))


def test_print_parse_fixpoint():
    rng = random.Random(70)
    for n in (2, 3):
        names = default_names(n)
        for _ in range(150):
            poly = random_poly(rng, n, 3)
            text = format_poly(poly, names)
            again = parse_expr(text, names)
            assert again == poly
            assert format_poly(again, names) == text


def test_rule_document_round_trip(tmp_path):
    r = builtin("ex3.5", mu=2, lam=3)
    path = tmp_path / "rule.json"
    save_rule(path, r)
    doc = load_rule(path)
    assert doc.rule == r
    assert doc.var_names == ("x1", "x2")
    assert doc.params == {}


def test_rule_to_dict_shape():
    d = rule_to_dict(builtin("ex3.5", mu=1, lam=1))
    assert list(d.keys()) == ["n", "field", "vars", "A"]
    assert d["n"] == 2
    assert d["field"] == "Q"
    assert d["vars"] == ["x1", "x2"]
    assert d["A"][0] == [["x2", "-x2"], ["0", "0"]]
    assert d["A"][1] == [["0", "0"], ["-x1", "x1"]]
    again = parse_rule_dict(d)
    assert again.rule == builtin("ex3.5", mu=1, lam=1)


def test_rule_dict_params_round_trip():
    doc = {
        "n": 2,
        "field": "Q",
        "vars": ["a", "b"],
        "params": {"c": "1/2", "d": 3},
        "A": [[["c*a", "0"], ["0", "d*b"]], [["0", "0"], ["0", "0"]]],
    }
    rd = parse_rule_dict(doc)
    a, b = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    assert rd.rule.image(1).entry(1, 1) == Fraction(1, 2) * a
    assert rd.rule.image(1).entry(2, 2) == 3 * b
    assert rd.params == {"c": Fraction(1, 2), "d": Fraction(3)}
    assert rd.var_names == ("a", "b")


def test_rule_dict_integer_entries_accepted():
    doc = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
           "A": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
    assert parse_rule_dict(doc).rule == builtin("ex3.2-zero", n=2)


def test_rule_dict_validation_errors():
    base = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
            "A": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}

    def broken(**edits):
        doc = {k: (json.loads(json.dumps(v))) for k, v in base.items()}
        doc.update(edits)
        return doc

    with pytest.raises(RuleFileError, match="unknown rule file keys"):
        parse_rule_dict(broken(extra=1))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(n=0))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(n="2"))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(vars=["x1"]))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(vars=["x1", "x1"]))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(vars=["x1", "2bad"]))
    # a name with a trailing newline would print broken lines
    with pytest.raises(RuleFileError, match="is not an identifier"):
        parse_rule_dict(broken(vars=["x1\n", "x2"]))
    with pytest.raises(RuleFileError, match="is not an identifier"):
        parse_rule_dict(broken(params={"q\n": 1}))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(field="Zp:7"))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(params={"x1": 1}))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(A=[[["0", "0"], ["0", "0"]]]))
    with pytest.raises(RuleFileError):
        parse_rule_dict(broken(A=[[["0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]))
    missing = {k: v for k, v in base.items() if k != "A"}
    with pytest.raises(RuleFileError):
        parse_rule_dict(missing)


def test_rule_dict_entry_error_is_located():
    doc = {"n": 2, "field": "Q", "vars": ["x1", "x2"],
           "A": [[["x1", "x?"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}
    with pytest.raises(RuleFileError, match=r"A\[1\]\[1\]\[2\]"):
        parse_rule_dict(doc)


def test_load_rule_io_errors(tmp_path):
    with pytest.raises(RuleFileError):
        load_rule(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(RuleFileError):
        load_rule(bad)
    notdict = tmp_path / "arr.json"
    notdict.write_text("[1, 2]")
    with pytest.raises(RuleFileError):
        load_rule(notdict)


def test_prime_field_rule_file(tmp_path):
    F = GF(10007)
    doc = {"n": 2, "field": "Fp:10007", "vars": ["x1", "x2"],
           "A": [[["3*x1", "0"], ["0", "5004*x1"]],
                 [["2*x2", "0"], ["0", "3*x2"]]]}
    rd = parse_rule_dict(doc)
    assert rd.rule.field is F
    path = tmp_path / "fp.json"
    save_rule(path, rd.rule)
    assert load_rule(path).rule == rd.rule


def test_custom_names_round_trip_in_dict():
    r = builtin("ex3.5", mu=1, lam=1)
    d = rule_to_dict(r, var_names=("a", "b"))
    assert d["vars"] == ["a", "b"]
    assert d["A"][0][0] == ["b", "-b"]
    assert parse_rule_dict(d).rule == r
