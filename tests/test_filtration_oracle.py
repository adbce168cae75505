"""The L_s-first filtration against the dense construction on all words.

``helpers.dense_optimal_ideal`` builds every component from the full
derivative preimage U_s and runs the invariant rounds on all of it; the
library works on the normal words of L_s only.  The two must agree on
the echelon rows and pivots of every component.  Likewise L_s itself,
built by block elimination, must match one dense ``rref`` of the shifts.
"""

import logging
import random
from fractions import Fraction

import pytest

from nccalc import (GF, QQ, CommRule, FpElement, IdealPropertyViolation, Subspace, builtin, linalg,
                    optimal, optimal_ideal, parse_expr, word_partials)
from nccalc.commrule import _int_images
from nccalc.examples import build_example, example_names
from nccalc.freealg import index_word
from nccalc.optimal import (_derivative_rows, _equation_rows, _ideal_slice, _normal_step,
                            _packed_partials, _unit_partials)
from nccalc.rulefile import parse_rule_dict
from helpers import (dense_ideal_component, dense_ideal_slice, dense_optimal_ideal,
                     random_homogeneous_rule, random_invertible, rule_over)
from test_acceptance import _dim_pool
from test_calculus import _RULE3

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
    # system of the normal words has full rank |N_s| exactly when C = 0.
    # From degree 3 on one equation holds a single normal word: the peel
    # fixes that word at zero, and the core keeps the other words and the
    # equations that still hold any
    assert messages == [
        "degree 2: right-shift residuals=0 rank=0 dim L=0 normal words=4 "
        "derivative system=4x4 rank=3 dim U=1 invariant rounds=1 dim I=1 "
        "peeled=0 core=4x4",
        "degree 3: right-shift residuals=2 rank=2 dim L=4 normal words=4 "
        "derivative system=4x6 rank=4 dim U=4 invariant rounds=0 dim I=4 "
        "peeled=1 core=5x3",
        "degree 4: right-shift residuals=6 rank=3 dim L=11 normal words=5 "
        "derivative system=5x8 rank=5 dim U=11 invariant rounds=0 dim I=11 "
        "peeled=1 core=7x4",
    ]


def test_debug_log_counts_words_in_no_equation_in_the_core(caplog):
    caplog.set_level(logging.DEBUG, logger="nccalc")
    optimal_ideal(build_example("ex3.4"), 3)
    messages = [r.getMessage() for r in caplog.records if r.name == "nccalc"]
    # at degree 2 one word is alone in an equation and is fixed at zero;
    # the other three lie in no equation, so the core handed to nullspace
    # has no equation and three zero columns, one unit kernel vector each
    assert messages == [
        "degree 2: right-shift residuals=0 rank=0 dim L=0 normal words=4 "
        "derivative system=4x4 rank=1 dim U=3 invariant rounds=1 dim I=3 "
        "peeled=1 core=0x3",
        "degree 3: right-shift residuals=1 rank=1 dim L=7 normal words=1 "
        "derivative system=1x2 rank=1 dim U=7 invariant rounds=0 dim I=7 "
        "peeled=1 core=0x0",
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
        want = dense_ideal_slice(prev)
        # the stored int form against the oracle's
        assert list(got.tails.items()) == list(want.tails.items())
        assert got.den == want.den


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Fp10007"])
def test_normal_word_derivatives_match_word_table(field):
    # the recursion against the derivatives in the free algebra reduced
    # in field elements: the table kept for the next degree exactly, the
    # system up to one factor per degree.  The rules' images have
    # denominators, so the tables carry common factors to divide out
    rng = random.Random(9700)
    diag = builtin("ex3.1-diag", q=[[Fraction(1, 2), 3], [Fraction(1, 3), Fraction(2, 3)]])
    moved = build_example("thm4.1-I").change_basis([[1, Fraction(1, 2)], [Fraction(1, 3), 1]])
    pool = _dim_pool(rng, 2).change_basis(random_invertible(rng, 2))
    for rule in (diag, moved, pool):
        rule = rule if field == QQ else rule_over(rule, field)
        n = rule.n
        comps = optimal_ideal(rule, 6).components
        known = ({w: [{0: 1} if j == w else {} for j in range(n)] for w in range(n)}, 1)
        for s in range(2, 7):
            prev = comps[s - 2]
            words = _ideal_slice(prev)[0].free
            known = _normal_step(rule, prev, known, words, True)
            system = _derivative_rows(known[0], words, prev.ambient_dim)
            table, den = known
            factor = None
            for col, row in zip(words, system):
                want = [prev.residual(d) for d in word_partials(rule, index_word(col, s, n))]
                assert [{c: field.of(Fraction(v, den)) for c, v in d.items()}
                        for d in table[col]] == \
                    [{c: v for c, v in zip(prev.free, r) if v} for r in want]
                # the row holds D_k's entry at free column c under key
                # k*n^(s-1) + c, and no zero entry
                dense = {k * prev.ambient_dim + c: true
                         for k, r in enumerate(want) for c, true in zip(prev.free, r)}
                assert set(row) <= set(dense)
                for key, true in dense.items():
                    if not true:
                        assert key not in row
                        continue
                    got = field.of(row[key])
                    if factor is None:
                        factor = got / true
                        assert factor
                    assert got == factor * true


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Fp10007"])
def test_zero_rule_derivative_rows_hold_one_entry(field):
    # D_k(x^a*w) = delta_ak*w: each word's row of the derivative system
    # holds one entry, so the peel settles every unknown and leaves no core
    rule = rule_over(build_example("ex3.2-zero"), field)
    known = _unit_partials(2)
    for s in range(2, 10):
        prev = Subspace.zero(2, s - 1, field)
        words = _ideal_slice(prev)[0].free
        known = _normal_step(rule, prev, known, words, True)
        system = _derivative_rows(known[0], words, prev.ambient_dim)
        assert len(system) == 2 ** s
        assert all(len(row) == 1 for row in system)
        _, peeled, core = Subspace.coordinate(2, s, field, words)._kernel(system)
        assert (peeled, core) == (2 ** s, (0, 0))


def test_filtration_eliminates_only_small_blocks(monkeypatch):
    # every elimination, over F_p and over Q alike, ends in _rref_mod
    cells, widths = [], []
    original = linalg._rref_mod

    def spy(rows, p):
        rows = [list(r) for r in rows]
        cells.append(sum(map(len, rows)))
        widths.extend(map(len, rows))
        return original(rows, p)

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    optimal_ideal(build_example("thm4.1-I"), 9)
    # one dense elimination of L_9 alone takes about 2 * 502 rows of 512
    assert sum(cells) < 20_000 and max(widths) <= 64


@pytest.mark.parametrize("name, p, dims, gens", [
    ("thm4.1-III", 3, [2, 3, 2, 1, 0, 0], ["x1*x2 - x2*x1", "x1^3", "x2^3"]),
    ("thm4.1-III", 5, [2, 3, 4, 5, 4, 3, 2, 1], ["x1*x2 - x2*x1", "x1^5", "x2^5"]),
    ("ex3.1-diag", 5, [2, 3, 4, 3, 2, 1, 0], ["x1*x2 - 1/2*x2*x1", "x1^4", "x2^4"]),
], ids=["thm4.1-III-3-dims0", "thm4.1-III-5-dims1", "ex3.1-diag-5-dims2"])
def test_small_primes_gain_relations(name, p, dims, gens):
    # over Q each of these quotients has dim s+1 in degree s; mod a small
    # prime sums cancel in the residue tails and the ideal grows (over
    # F_3, x1^3 and x2^3 have zero derivatives), and every I_s is the
    # slice of the ideal that the closed form's generators produce
    field = GF(p)
    rule = build_example(name, field)
    got = optimal_ideal(rule, len(dims))
    assert [d for _, d in got.quotient_dims()] == dims
    assert echelon(got.components) == echelon(dense_optimal_ideal(rule, len(dims)))
    gens = [parse_expr(g, ("x1", "x2"), field=field) for g in gens]
    for s, comp in enumerate(got.components, 1):
        assert comp.equal(dense_ideal_component(gens, s, 2, field))


# ---- the packed prefix: free degrees on the rows of their equations ----

def rule3(field):
    """The three-generator rule of the free-quotient CI steps: I = 0, and
    U_s has dimension 1 at the even degrees."""
    return parse_rule_dict({"n": 3, "field": field, "vars": ["x", "y", "z"],
                            "A": _RULE3}).rule


def spy_on_packing(monkeypatch):
    """Record the number of words of each degree whose derivative system
    ``optimal_ideal`` builds as packed rows."""
    sizes = []

    def spy(rule, rows, den, last):
        sizes.append(rule.n * len(rows[0]))
        return _packed_partials(rule, rows, den, last)

    monkeypatch.setattr(optimal, "_packed_partials", spy)
    return sizes


def dense_pool(seed, field, count):
    """Criterion 9's dense three-generator rules, each as drawn and after
    a change of basis, over ``field``."""
    rng = random.Random(seed)
    rules = []
    for _ in range(count):
        rule = random_homogeneous_rule(rng, 3)
        for r in (rule, rule.change_basis(random_invertible(rng, 3))):
            rules.append(r if field == QQ else rule_over(r, field))
    return rules


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Fp10007"])
def test_packed_prefix_matches_dense_construction(field, monkeypatch):
    sizes = spy_on_packing(monkeypatch)
    for rule in dense_pool(9800, field, 3):
        sizes.clear()
        got = optimal_ideal(rule, 4).components
        # the quotients are free to degree 4, and degrees 3 and 4 are packed
        assert [c.dim for c in got] == [0] * 4
        assert sizes == [27, 81]
        assert got == tuple(dense_optimal_ideal(rule, 4))


@pytest.mark.parametrize("field", ["Q", "Fp:10007"])
def test_packed_prefix_keeps_a_nonzero_kernel(field, monkeypatch):
    # U_2 and U_4 have dimension 1 while I = 0: the kernel of a packed
    # degree goes on to the invariant rounds
    sizes = spy_on_packing(monkeypatch)
    rule = rule3(field)
    got = optimal_ideal(rule, 4).components
    assert sizes == [27, 81]
    assert got == tuple(dense_optimal_ideal(rule, 4))


def test_packed_prefix_is_exact_after_an_unlucky_first_prime(monkeypatch):
    # mod 3 every system of degree 4 loses rank, so the next prime must
    # settle it, by full rank or by the certified lift
    rules = dense_pool(9801, QQ, 2) + [rule3("Q")]
    want = [optimal_ideal(rule, 4).components for rule in rules]
    moduli = []
    rref_mod = linalg._rref_mod

    def spy(rows, p):
        red, pivots = rref_mod(rows, p)
        if (len(rows), len(rows[0])) == (81, 81):
            moduli.append((p, len(pivots)))
        return red, pivots

    monkeypatch.setattr(linalg, "_PRIMES", (3,) + linalg._PRIMES)
    monkeypatch.setattr(linalg, "_rref_mod", spy)
    sizes = spy_on_packing(monkeypatch)
    for rule, components in zip(rules, want):
        assert optimal_ideal(rule, 4).components == components
    assert len(sizes) == 2 * len(rules)
    assert [p for p, _ in moduli] == [3, linalg._PRIMES[1]] * len(rules)
    assert all(rank < 81 for p, rank in moduli if p == 3)


@pytest.mark.parametrize("n, p, seed, dims", [
    (2, 3, 34, [0, 0, 1, 3, 8]),
    (2, 5, 25, [0, 0, 0, 1, 3]),
])
def test_packed_prefix_hands_over_to_the_table(n, p, seed, dims, monkeypatch):
    # seeded dense rules over small primes, found by a search over seeds:
    # the quotient is free to degree s-1 and I_s != 0, so the table of
    # degree s comes from the short rank of the packed degree s, and the
    # next degree reads it
    sizes = spy_on_packing(monkeypatch)
    tables = spy_on_handover(monkeypatch)
    rule = random_homogeneous_rule(random.Random(f"handover/{n}/{p}/{seed}"), n, GF(p))
    got = optimal_ideal(rule, len(dims)).components
    assert [c.dim for c in got] == dims
    s = dims.index(1) + 1
    assert sizes == [n ** d for d in range(3, s + 1)]
    assert tables[0] == (s, free_table(rule, s))
    assert got == tuple(dense_optimal_ideal(rule, len(dims)))


def free_table(rule, s):
    """The Dbar table of all words of degree s, from degree 1 by
    ``_normal_step`` modulo zero subspaces: the derivatives themselves."""
    n = rule.n
    known = _unit_partials(n)
    for d in range(2, s + 1):
        known = _normal_step(rule, Subspace.zero(n, d - 1, rule.field), known,
                             range(n ** d), True)
    return known


def spy_on_handover(monkeypatch):
    """Record, in order, ``(degree, table)`` for each table that the table
    path of ``optimal_ideal`` reads modulo a nonzero I_{s-1}: the first is
    the one a packed prefix hands over."""
    tables = []
    step = optimal._normal_step

    def spy(rule, space, known, words, derivatives):
        if space.dim:
            tables.append((space.degree, known))
        return step(rule, space, known, words, derivatives)

    monkeypatch.setattr(optimal, "_normal_step", spy)
    return tables


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Fp10007"])
def test_packed_rows_match_the_table_recursion(field):
    # the packed residue recursion, run from the table of degree 2 as a
    # free prefix runs it, gives at every degree the rows of the table
    # that _normal_step builds, mod q and up to one nonzero constant: lead
    # times the true rows against den times them.  The basis change has
    # large denominators, so over Q the images' lcm L is large too
    q = field.p or linalg._PRIMES[0]
    rng = random.Random(9802)
    alpha = [[Fraction(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(2)]
             for _ in range(2)]
    for rule in (rule3("Q"), build_example("thm4.1-I").change_basis(alpha)):
        rule = rule if field == QQ else rule_over(rule, field)
        n = rule.n
        known = free_table(rule, 2)
        rows, den = _equation_rows(known, n)
        residues = [[x % q for x in r] for r in rows], den % q
        for s in range(3, 6):
            residues = _packed_partials(rule, *residues, q)
            known = _normal_step(rule, Subspace.zero(n, s - 1, field), known,
                                 range(n ** s), True)
            rows, den = _equation_rows(known, n)
            lead = residues[1]
            assert lead and den % q
            assert [[x * den % q for x in r] for r in residues[0]] == \
                [[x * lead % q for x in r] for r in rows]
    if field == QQ:
        assert _int_images(rule)[0] > 2 ** 64


def spy_on_steps(monkeypatch):
    """Record, in order, each packed step of ``optimal_ideal``: ("residues",
    words) for the residue step of every packed degree, and ("table", e, s)
    where a degree s whose rank falls short steps the exact table of
    degree e on to s."""
    steps = []
    residue_step, table_step = optimal._packed_partials, optimal._free_table

    def residues(rule, rows, *args):
        steps.append(("residues", rule.n * len(rows[0])))
        return residue_step(rule, rows, *args)

    def table(rule, e, known, s):
        steps.append(("table", e, s))
        return table_step(rule, e, known, s)

    monkeypatch.setattr(optimal, "_packed_partials", residues)
    monkeypatch.setattr(optimal, "_free_table", table)
    return steps


def test_free_degrees_build_exact_rows_only_where_the_rank_falls_short(monkeypatch):
    # a dense rule free to degree 5 is decided on residues alone; rule3
    # has U_4 != 0, so degree 4 steps the exact table of degree 2 on to
    # degree 4, once
    steps = spy_on_steps(monkeypatch)
    rule = dense_pool(9800, QQ, 1)[0]
    assert [c.dim for c in optimal_ideal(rule, 5).components] == [0] * 5
    assert steps == [("residues", 27), ("residues", 81), ("residues", 243)]
    steps.clear()
    optimal_ideal(rule3("Q"), 4)
    assert steps == [("residues", 27), ("residues", 81), ("table", 2, 4)]


def test_residue_decision_is_exact_when_q_divides_the_scale(monkeypatch):
    # with 3 first among the primes, q = 3 divides L, the lcm of the
    # images' denominators, so lead is zero mod q and every system loses
    # rank there; each degree then steps the exact table on to its own
    # degree, hands the table's rows and their mod-3 RREF to the certified
    # lift as the first prime's, and the next prime settles it.  No system
    # is eliminated twice mod 3
    monkeypatch.setattr(linalg, "_PRIMES", (3,) + linalg._PRIMES)
    moduli = []
    rref_mod = linalg._rref_mod

    def spy(rows, p):
        red, pivots = rref_mod(rows, p)
        if len(rows[0]) in (27, 81):
            moduli.append((p, len(rows[0]), len(pivots)))
        return red, pivots

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    steps = spy_on_steps(monkeypatch)
    for rule in dense_pool(9803, QQ, 1):
        # the same rule with every coefficient divided by 3
        rule = CommRule([image.scale(Fraction(1, 3)) for image in rule.images])
        assert _int_images(rule)[0] % 3 == 0
        moduli.clear()
        steps.clear()
        got = optimal_ideal(rule, 4).components
        assert [(p, cols) for p, cols, _ in moduli] == [
            (3, 27), (linalg._PRIMES[1], 27), (3, 81), (linalg._PRIMES[1], 81)]
        assert all(rank < cols for p, cols, rank in moduli if p == 3)
        assert steps == [("residues", 27), ("table", 2, 3), ("residues", 81), ("table", 3, 4)]
        assert got == tuple(dense_optimal_ideal(rule, 4))


def test_packed_prefix_over_q_hands_over_from_exact_rows(monkeypatch):
    # a seeded dense rule over Q, found by a search over seeds as the
    # rules above were: U_3 != 0 while I_3 = 0, and I_4 != 0, so the table
    # of degree 4 comes from the exact table its short rank built
    steps = spy_on_steps(monkeypatch)
    tables = spy_on_handover(monkeypatch)
    rule = random_homogeneous_rule(random.Random("handover/2/Q/202"), 2, QQ)
    got = optimal_ideal(rule, 6).components
    assert [c.dim for c in got] == [0, 0, 0, 1, 4, 11]
    assert steps == [("residues", 8), ("table", 2, 3), ("residues", 16), ("table", 3, 4)]
    # the table handed over is the exact derivative table of degree 4, over
    # the den of the table recursion from degree 1
    assert tables[0] == (4, free_table(rule, 4))
    assert got == tuple(dense_optimal_ideal(rule, 6))


def test_small_field_sample_matches_dense_construction(monkeypatch):
    # a seeded sample of dense rules over F_2 and F_3, where the packed
    # systems often lose rank: every short degree but the last steps the
    # exact table on, and its next degree reads that table or restarts the
    # residues from it
    steps = spy_on_steps(monkeypatch)
    for n, max_degree in ((2, 6), (3, 4)):
        for p in (2, 3):
            rng = random.Random(f"small-fields/{n}/{p}")
            for _ in range(25):
                rule = random_homogeneous_rule(rng, n, GF(p))
                assert optimal_ideal(rule, max_degree).components == \
                    tuple(dense_optimal_ideal(rule, max_degree))
    assert sum(step[0] == "table" for step in steps) >= 50


def test_examples_never_build_packed_rows(monkeypatch):
    # every example has I_2 != 0, or, for the zero rule, a derivative
    # system that the peel settles without a core
    sizes = spy_on_packing(monkeypatch)
    optimal_ideal(build_example("ex3.2-zero"), 10)
    for name in example_names():
        optimal_ideal(build_example(name), 8)
    assert sizes == []


def test_dense_free_rule_packs_every_degree_from_3(monkeypatch):
    sizes = spy_on_packing(monkeypatch)
    optimal_ideal(rule3("Fp:10007"), 5)
    assert sizes == [27, 81, 243]


def test_debug_log_of_packed_degrees(caplog):
    caplog.set_level(logging.DEBUG, logger="nccalc")
    optimal_ideal(rule3("Q"), 4)
    messages = [r.getMessage() for r in caplog.records if r.name == "nccalc"]
    # a packed degree peels nothing and hands every equation and every
    # word to the elimination
    assert messages == [
        "degree 2: right-shift residuals=0 rank=0 dim L=0 normal words=9 "
        "derivative system=9x9 rank=8 dim U=1 invariant rounds=1 dim I=0 "
        "peeled=0 core=9x9",
        "degree 3: right-shift residuals=0 rank=0 dim L=0 normal words=27 "
        "derivative system=27x27 rank=27 dim U=0 invariant rounds=0 dim I=0 "
        "peeled=0 core=27x27",
        "degree 4: right-shift residuals=0 rank=0 dim L=0 normal words=81 "
        "derivative system=81x81 rank=80 dim U=1 invariant rounds=1 dim I=0 "
        "peeled=0 core=81x81",
    ]
