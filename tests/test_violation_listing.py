"""The violation listing of ``check_consistent_ideal``, read off the
per-degree residual tables, against one walk per basis element."""

import logging
import random

import pytest

from nccalc import GF, QQ, NCPoly, Subspace, check_consistent_ideal
from nccalc.commrule import _poly, _walk
from nccalc.examples import build_example, example_names
from nccalc.optimal import _extend_slices, _residual_tables
from nccalc.parsing import parse_expr
from nccalc.rulefile import parse_rule_dict
from helpers import dense_consistent_ideal_violations, random_poly, walk_listing_violations

# the three-generator rule of the CI workflow; 1/2*z makes L = 2 over Q
_CI_IMAGES = [[["y", "-x", "0"], ["0", "z", "x"], ["1/2*z", "0", "y"]],
              [["x", "0", "-z"], ["y", "y", "0"], ["0", "x", "z"]],
              [["0", "z", "x"], ["-y", "0", "x"], ["z", "y", "0"]]]


def _commutator(field, n=2):
    x1, x2 = NCPoly.gen(n, 1, field), NCPoly.gen(n, 2, field)
    return x1 * x2 - x2 * x1


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(10007)], ids=str)
def test_ex35_listing_matches_the_walk(field):
    rule = build_example("ex3.5", field)
    comm = _commutator(field)
    got = check_consistent_ideal(rule, [comm], 8).violations
    assert got and got == walk_listing_violations(rule, [comm], 8)


@pytest.mark.parametrize("name", ["thm4.1-I", "thm4.1-II", "thm4.1-III", "thm4.1-IV"])
@pytest.mark.parametrize("deg", [2, 3])
def test_seeded_relations_listing_matches_the_walk(name, deg):
    rule = build_example(name)
    rng = random.Random(2300 + deg)
    rels = [r for r in (random_poly(rng, 2, deg, QQ, homogeneous=deg)
                        for _ in range(2)) if r]
    got = check_consistent_ideal(rule, rels, 7).violations
    assert got and got == walk_listing_violations(rule, rels, 7)


@pytest.mark.parametrize("field", ["Q", "Fp:10007"])
@pytest.mark.parametrize("pairs", [[(1, 2)], [(1, 2), (1, 3), (2, 3)]], ids=["xy", "all"])
def test_three_generator_listing_matches_the_walk(field, pairs):
    # x*y - y*x alone leaves J_d under half the words up to degree 5, so
    # every degree is walked; with all three commutators the tables list
    # from degree 3 on
    doc = parse_rule_dict({"n": 3, "field": field, "vars": ["x", "y", "z"],
                           "A": _CI_IMAGES})
    rule = doc.rule
    gens = [NCPoly.gen(3, i, rule.field) for i in (1, 2, 3)]
    rels = [gens[i - 1] * gens[j - 1] - gens[j - 1] * gens[i - 1] for i, j in pairs]
    got = check_consistent_ideal(rule, rels, 5, names=doc.var_names).violations
    assert got and got == walk_listing_violations(rule, rels, 5, doc.var_names)


def test_sparse_ideal_is_walked_without_tables(caplog):
    # one degree-5 relation leaves J_d far under half the words up to
    # degree 8: no degree builds a table, and the listing is the walk's
    caplog.set_level(logging.DEBUG, logger="nccalc")
    rule = build_example("thm4.1-I")
    x1, x2 = NCPoly.gen(2, 1, QQ), NCPoly.gen(2, 2, QQ)
    rel = x1 ** 4 * x2 - x2 * x1 ** 4 + x1 * x2 ** 4
    got = check_consistent_ideal(rule, [rel], 8).violations
    assert got and got == walk_listing_violations(rule, [rel], 8)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "nccalc" and r.getMessage().startswith("listing")]
    assert len(messages) == 8
    assert all("table words=0 " in m for m in messages)


# every example over every field, but ex3.1-diag's q grid holds 1/2,
# which F_2 lacks
_EXAMPLES_OVER = [(name, field) for field in (QQ, GF(2), GF(3), GF(10007))
                  for name in example_names() if (name, field) != ("ex3.1-diag", GF(2))]


@pytest.mark.parametrize("name, field", _EXAMPLES_OVER, ids=str)
def test_table_rows_are_the_walked_columns_reduced(name, field):
    # every table word's Dbar and Abar are its walked D and A, reduced
    # modulo the slices of an ideal J with a commutator and a seeded cubic;
    # the tables hold every word below the top degree and, at the top,
    # exactly the support of J_6's basis rows
    rule = build_example(name, field)
    n = rule.n
    rng = random.Random(4700)
    gens = [_commutator(field, n), random_poly(rng, n, 3, field, homogeneous=3)]
    slices = [Subspace.zero(n, 0, field)]
    _extend_slices(slices, gens, 6)
    assert 0 < slices[6].dim < n ** 6
    held = {}
    for d, ((partials, pden), (images, aden)) in _residual_tables(rule, slices):
        assert set(partials) == set(images)
        held[d] = set(images)
        below, within = slices[d - 1], slices[d]
        for col in images:
            cols, scale = _walk(rule, {d: {col: 1}}, 1, True, True)
            for e, walked in enumerate(cols):
                space, table, den = ((below, partials, pden) if e >= n * n
                                     else (within, images, aden))
                row = table[col][e - n * n if e >= n * n else e]
                got = field.values([row.get(c, 0) for c in space.free], den)
                poly = _poly(rule, walked, scale)
                assert got == space.residual(poly), (d, col, e)
    support = {c for row in slices[6]._int_rows() for c, _ in row}
    assert held == {**{d: set(range(n ** d)) for d in range(1, 6)}, 6: support}


def _logged_table_words(caplog):
    """The ``table words`` count of each listing record, in order."""
    return [int(r.getMessage().split("table words=")[1].split()[0]) for r in caplog.records
            if r.name == "nccalc" and r.getMessage().startswith("listing")]


@pytest.mark.parametrize("name, rel, top, tabled", [
    # J = (x1^2): J_d has 2^d minus a Fibonacci number of words, 3 of 8 at
    # degree 3 and 8 of 16 at degree 4
    ("thm4.1-I", "x1^2", 3, False),
    ("thm4.1-I", "x1^2", 4, True),
    # the commutator ideal: dim J_d = 2^d - d - 1, 1 of 4 at degree 2 and
    # 4 of 8 at degree 3
    ("ex3.5", "x1*x2 - x2*x1", 2, False),
    ("ex3.5", "x1*x2 - x2*x1", 3, True),
])
def test_half_the_top_words_decides_tables_for_the_whole_listing(caplog, name, rel, top,
                                                                   tabled):
    # J_S at exactly half the n^S words tables every degree, and one
    # basis row fewer walks every degree
    caplog.set_level(logging.DEBUG, logger="nccalc")
    rule = build_example(name)
    gen = parse_expr(rel, ["x1", "x2"], {}, QQ)
    slices = [Subspace.zero(2, 0, QQ)]
    _extend_slices(slices, [gen], top)
    assert 2 * slices[top].dim == 2 ** top - (0 if tabled else 2)
    got = check_consistent_ideal(rule, [gen], top).violations
    assert got and got == dense_consistent_ideal_violations(rule, [gen], top)
    words = _logged_table_words(caplog)
    assert len(words) == top
    assert all(words) if tabled else not any(words)


def test_debug_log_has_one_record_per_listed_degree(caplog):
    caplog.set_level(logging.DEBUG, logger="nccalc")
    rule = build_example("ex3.5")
    rep = check_consistent_ideal(rule, [_commutator(QQ)], 4)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "nccalc" and r.getMessage().startswith("listing")]
    # J is the commutator ideal: dim J_d = 2^d - (d+1).  J_4 holds at least
    # half the words, so every degree is listed from tables, even J_1 and
    # J_2, which hold fewer: they hold every word below degree 4, and at
    # degree 4 J_4's support, every word but x1^4 and x2^4.
    assert messages[:2] == [
        "listing degree 1: dim J=0 free=2 table words=2 failing=0",
        "listing degree 2: dim J=1 free=3 table words=4 failing=1"]
    assert len(messages) == 4
    for d, message in enumerate(messages, 1):
        failing = len({v.source for v in rep.violations if v.degree == d})
        words = 2 ** d - 2 if d == 4 else 2 ** d
        assert message == (f"listing degree {d}: dim J={2 ** d - d - 1} free={d + 1} "
                           f"table words={words} failing={failing}")
