"""Refusals of inputs the library cannot serve, each with its message,
beside an input of the right form that answers."""

import pytest

from nccalc import (GF, QQ, FpElement, NCPoly, RuleFileError, Subspace, compute_U,
                    ideal_component, invert_matrix, is_regular, optimal_ideal, parse_rule_dict,
                    preimage)
from nccalc.examples import build_example

_X = ["x1", "x2"]
_GRID = [[["x1", "0"], ["0", "x1"]], [["x2", "0"], ["0", "x2"]]]


def _doc(**changes):
    doc = {"n": 2, "field": "Q", "vars": _X, "A": _GRID}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("changes, message", [
    ({"params": ["q", "1/2"]}, '"params" must be an object'),
    ({"params": {"x2": "1/2"}}, "parameter 'x2' shadows a generator name"),
    ({"params": {"q": True}}, "parameter 'q' must be a rational string or integer"),
    ({"params": {"q": "1/0"}}, "parameter 'q' has a bad rational value '1/0'"),
    ({"field": "Fp:3", "params": {"q": "1/3"}},
     "parameter 'q': denominator is not invertible in Fp:3"),
    ({"A": [[["x1", "0"]], _GRID[1]]}, r"A\[1\] must be an 2x2 grid"),
    ({"A": [_GRID[0], [["x2"], ["0", "x2"]]]}, r"A\[2\] row 1 must have 2 cells"),
], ids=["params-list", "shadow", "bool", "one-over-zero", "not-invertible", "rows",
        "cells"])
def test_rule_file_refusals(changes, message):
    with pytest.raises(RuleFileError, match=f"^{message}$"):
        parse_rule_dict(_doc(**changes))


def test_rule_file_params_that_are_served():
    doc = parse_rule_dict(_doc(field="Fp:3", params={"q": "1/2", "r": 4}))
    assert doc.params == {"q": FpElement(2, 3), "r": FpElement(1, 3)}


def test_fp_right_division():
    # 2 / 3 = 2 * 5 = 3 in F_7
    assert 2 / FpElement(3, 7) == FpElement(3, 7)
    with pytest.raises(ZeroDivisionError, match="^division by zero in F_7$"):
        2 / FpElement(0, 7)
    with pytest.raises(ZeroDivisionError, match="^division by zero in F_7$"):
        FpElement(2, 7) / 0


def test_filtration_degree_refusals():
    rule = build_example("thm4.1-I")
    with pytest.raises(ValueError, match="^max_degree must be at least 1, got 0$"):
        optimal_ideal(rule, 0)
    for s in (1, 0):
        with pytest.raises(ValueError, match=f"^the derivative-preimage step starts at "
                                             f"degree 2, got {s}$"):
            compute_U(rule, s, Subspace.zero(2, 1, QQ))
    assert optimal_ideal(rule, 1).component(1).dim == 0
    assert compute_U(rule, 2, Subspace.zero(2, 1, QQ)).dim == 1


def test_compute_u_names_what_differs_in_prev():
    rule = build_example("thm4.1-I")
    with pytest.raises(ValueError, match="^previous component must live at degree 1, "
                                         "got degree 2$"):
        compute_U(rule, 2, Subspace.zero(2, 2, QQ))
    # these two prev have degree 1, as asked, and were refused as if not
    with pytest.raises(ValueError, match="^previous component has 3 generators, "
                                         "rule has 2$"):
        compute_U(rule, 2, Subspace.zero(3, 1, QQ))
    with pytest.raises(ValueError, match="^previous component and rule coefficient "
                                         "fields differ$"):
        compute_U(rule, 2, Subspace.zero(2, 1, GF(5)))


def test_is_regular_needs_two_generators():
    three = parse_rule_dict({"n": 3, "field": "Q", "vars": ["x", "y", "z"],
                             "A": [[["0"] * 3] * 3] * 3}).rule
    with pytest.raises(ValueError, match="^regularity is defined for two-generator rules$"):
        is_regular(three)
    assert is_regular(build_example("thm4.1-I"))


def test_ideal_component_refusals():
    x1, y1 = NCPoly.gen(2, 1, QQ), NCPoly.gen(3, 1, QQ)
    for gens in ([x1 * x1, y1 * y1], [x1 * x1, NCPoly.gen(2, 1, GF(5)) ** 2]):
        with pytest.raises(ValueError, match="^ideal generators disagree on algebra$"):
            ideal_component(gens, 2)
    for gens in ([], [NCPoly.zero(2, QQ)]):
        with pytest.raises(ValueError, match="^no nonzero generators and no explicit "
                                             "n/field$"):
            ideal_component(gens, 2)
    # given n and field, no generator spans the zero slice
    assert ideal_component([NCPoly.zero(2, QQ)], 2, 2, QQ).dim == 0
    assert ideal_component([x1 * x1], 2).dim == 1


@pytest.mark.parametrize("build", [
    lambda d: Subspace.zero(2, d, QQ),
    lambda d: Subspace.full(2, d, QQ),
    lambda d: Subspace.coordinate(2, d, QQ, []),
], ids=["zero", "full", "coordinate"])
def test_subspace_of_a_negative_degree(build):
    with pytest.raises(ValueError, match="^subspace degree must be nonnegative, got -1$"):
        build(-1)
    assert build(0).ambient_dim == 1


def test_linear_algebra_shape_refusals():
    with pytest.raises(ValueError, match="^empty spanning set needs explicit n and field$"):
        Subspace.span([], 1)
    assert Subspace.span([], 1, 2, QQ).dim == 0
    target = Subspace.zero(2, 1, QQ)
    x1 = NCPoly.gen(2, 1, QQ)
    with pytest.raises(ValueError, match="^expected 2 basis images, got 1$"):
        preimage([x1], target, 1, 2, QQ)
    assert preimage([x1, NCPoly.zero(2, QQ)], target, 1, 2, QQ).dim == 1
    with pytest.raises(ValueError, match="^matrix is not square$"):
        invert_matrix([[1, 2]], QQ)
    with pytest.raises(ValueError, match="^matrix is not square$"):
        invert_matrix([[1, 2], [3]], QQ)
    assert invert_matrix([[2]], QQ) == [[QQ.of(1) / 2]]
