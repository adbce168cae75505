"""The L_s-first filtration against the dense construction on all words.

``helpers.dense_optimal_ideal`` builds every component from the full
derivative preimage U_s and runs the invariant rounds on all of it; the
library works on the normal words of L_s only.  The two must agree on
the echelon rows and pivots of every component.  Likewise L_s itself,
built by block elimination, must match one dense ``rref`` of the shifts.
"""

import logging
import random

import pytest

from nccalc import GF, QQ, IdealPropertyViolation, Subspace, linalg, optimal_ideal
from nccalc.examples import build_example, example_names
from nccalc.optimal import _ideal_slice
from helpers import dense_ideal_slice, dense_optimal_ideal, random_invertible, rule_over
from test_acceptance import _dim_pool

FP = GF(10007)


def echelon(components):
    return [(c.rows, c.pivots) for c in components]


def assert_matches_dense(rule, max_degree):
    got = optimal_ideal(rule, max_degree).components
    assert echelon(got) == echelon(dense_optimal_ideal(rule, max_degree))


@pytest.mark.parametrize("name", example_names())
def test_builtin_examples_match_dense_construction(name):
    assert_matches_dense(build_example(name), 7)


@pytest.mark.parametrize("field", [QQ, FP, GF(3), GF(2**61 - 1)],
                         ids=["Q", "Fp10007", "Fp3", "Fp2^61-1"])
@pytest.mark.parametrize("n, max_degree, cases", [(2, 6, 12), (3, 4, 5)])
def test_pool_rules_match_dense_construction(field, n, max_degree, cases):
    # the rules of the basis-change dim-invariance suite, as drawn there;
    # over F_3 the derivative system's int residuals often vanish only
    # mod p, and the rules with a denominator divisible by 3 (from the
    # diagonal grids and the moves) have no reduction there
    rng = random.Random(9400 + n)
    checked = 0
    for _ in range(cases):
        rule = _dim_pool(rng, n)
        moved = rule.change_basis(random_invertible(rng, n))
        for r in (rule, moved):
            try:
                r = r if field == QQ else rule_over(r, field)
            except ZeroDivisionError:
                assert field == GF(3)
                continue
            assert_matches_dense(r, max_degree)
            checked += 1
    # more than half of the rules reduce mod 3
    assert checked > cases


@pytest.mark.parametrize("name", ["ex3.1-diag", "thm4.1-I", "thm4.1-II",
                                  "thm4.1-III", "thm4.1-IV"])
def test_quantum_plane_like_quotients_grow_linearly(name):
    filt = optimal_ideal(build_example(name), 9)
    assert filt.quotient_dims() == [(s, s + 1) for s in range(1, 10)]


def test_debug_log_has_one_record_per_degree(caplog):
    caplog.set_level(logging.DEBUG, logger="nccalc")
    optimal_ideal(build_example("thm4.1-I"), 4)
    messages = [r.getMessage() for r in caplog.records if r.name == "nccalc"]
    # from degree 3 on U_s = L_s, so no invariant round runs; the left
    # shifts give dim L minus the right shifts' rank; the derivative
    # system of the normal words has full rank |N_s| exactly when C = 0
    assert messages == [
        "degree 2: right-shift residuals=0 rank=0 dim L=0 normal words=4 "
        "derivative system=4x4 rank=3 dim U=1 invariant rounds=1 dim I=1",
        "degree 3: right-shift residuals=2 rank=2 dim L=4 normal words=4 "
        "derivative system=4x6 rank=4 dim U=4 invariant rounds=0 dim I=4",
        "degree 4: right-shift residuals=6 rank=3 dim L=11 normal words=5 "
        "derivative system=5x8 rank=5 dim U=11 invariant rounds=0 dim I=11",
    ]


def test_ideal_slice_check_catches_a_component_missing_l_s(monkeypatch):
    rule = build_example("ex3.1-diag")
    optimal_ideal(rule, 3)
    # a sum that drops its left summand loses L_3
    monkeypatch.setattr(Subspace, "__add__", lambda self, other: other)
    with pytest.raises(IdealPropertyViolation, match="not an ideal slice"):
        optimal_ideal(rule, 3)


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Fp10007"])
@pytest.mark.parametrize("name", example_names())
def test_ideal_slice_matches_dense_shifts(name, field):
    rule = rule_over(build_example(name), field)
    for prev in optimal_ideal(rule, 8).components:
        got, _ = _ideal_slice(prev)
        assert list(got.tails.items()) == list(dense_ideal_slice(prev).tails.items())


def test_filtration_eliminates_only_small_blocks(monkeypatch):
    cells, widths = [], []
    original = linalg.rref

    def spy(rows):
        rows = [list(r) for r in rows]
        cells.append(sum(map(len, rows)))
        widths.extend(map(len, rows))
        return original(rows)

    monkeypatch.setattr(linalg, "rref", spy)
    optimal_ideal(build_example("thm4.1-I"), 9)
    # one dense elimination of L_9 alone takes about 2 * 502 rows of 512
    assert sum(cells) < 20_000 and max(widths) <= 64
