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
from helpers import random_poly

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
