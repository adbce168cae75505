"""End-to-end acceptance checks.

Each criterion prints one verdict line on the real stdout so the summary
stays visible under pytest's output capture. Expected values come from
three independent routes: closed-form dimension counts, brute-force span
oracles, and hand-checked matrix displays.
"""

import random
from fractions import Fraction

import pytest

from nccalc import (
    GF,
    QQ,
    NCPoly,
    builtin,
    build_family,
    commutator_in_I2,
    commutes_mod_commutative,
    invert_matrix,
    match_family,
    necessary_conditions,
    optimal_ideal,
    pairing,
    partial,
    quotient_dims,
    vf_apply,
    vf_right_action,
    left_mul_form,
    OneForm,
    VectorField,
)
from nccalc import linalg
from helpers import (
    dense_ideal_component,
    params_match,
    random_any_rule,
    random_family_params,
    random_homogeneous_rule,
    random_invertible,
    random_poly,
    random_q_grid,
)


@pytest.fixture
def report(capfd):
    # capfd.disabled() restores the real stdout, so the verdict lines
    # stay visible under pytest's default fd-level capture
    def _report(num, desc, ok):
        line = f"criterion {num:2d} [{'pass' if ok else 'FAIL'}]: {desc}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def ideal_dims(rule, max_degree):
    return [c.dim for c in optimal_ideal(rule, max_degree).components]


def oracle_equal(rule, generators, max_degree):
    filt = optimal_ideal(rule, max_degree)
    return all(
        filt.component(s).equal(
            dense_ideal_component(generators, s, rule.n, rule.field))
        for s in range(2, max_degree + 1))


def generic_q(field=QQ):
    three = field.of(3)
    two = field.of(2)
    return [[three, two], [field.of(1) / two, three]]


def nilpotent_q(field=QQ):
    mone = field.of(-1)
    two = field.of(2)
    return [[mone, two], [field.of(1) / two, mone]]


def xgen(n, i, field=QQ):
    return NCPoly.gen(n, i, field)


def generic_generators(field=QQ):
    x1, x2 = xgen(2, 1, field), xgen(2, 2, field)
    return [field.of(2) * (x1 * x2) - x2 * x1]


def nilpotent_generators(field=QQ):
    x1, x2 = xgen(2, 1, field), xgen(2, 2, field)
    return generic_generators(field) + [x1 * x1, x2 * x2]


def survivor_generators(field=QQ):
    x1, x2 = xgen(2, 1, field), xgen(2, 2, field)
    return [x1 * x2, x2 * x1, x2 * x2]


def split_generators(field=QQ):
    x1, x2 = xgen(2, 1, field), xgen(2, 2, field)
    return [x1 * x2, x2 * x1]


def test_criterion_01_zero_rule_ideal_vanishes(report):
    ok = (ideal_dims(builtin("ex3.2-zero", n=2), 8) == [0] * 8
          and ideal_dims(builtin("ex3.2-zero", n=3), 6) == [0] * 6)
    report(1, "zero rule keeps the whole algebra (dims 0 through degree 8/6)", ok)


def test_criterion_02_sign_flip_rule_kills_everything(report):
    ok = True
    for n in (2, 3):
        filt = optimal_ideal(builtin("ex3.3-minus", n=n), 5)
        ok = ok and filt.component(2).dim == n**2
        ok = ok and all(d == 0 for s, d in quotient_dims(filt) if s >= 2)
        ok = ok and [c.dim for c in filt.components] == [0] + [n**s for s in range(2, 6)]
    report(2, "sign-flip rule leaves only scalars and the linear span (n=2,3)", ok)


def test_criterion_03_generic_diagonal_rule_is_quantum_plane(report):
    rule = builtin("ex3.1-diag", q=generic_q())
    filt = optimal_ideal(rule, 7)
    ok = [d for _, d in quotient_dims(filt)] == [s + 1 for s in range(1, 8)]
    ok = ok and oracle_equal(rule, generic_generators(), 7)
    report(3, "generic diagonal rule: quotient dims s+1, ideal spanned by the "
              "braided commutator (degree 7)", ok)


def test_criterion_04_nilpotent_diagonal_rule(report):
    rule = builtin("ex3.1-diag", q=nilpotent_q())
    filt = optimal_ideal(rule, 6)
    x1, x2 = xgen(2, 1), xgen(2, 2)
    ok = [d for _, d in quotient_dims(filt)] == [2, 1, 0, 0, 0, 0]
    ok = ok and filt.component(2).contains(x1 * x1)
    ok = ok and filt.component(2).contains(x2 * x2)
    ok = ok and oracle_equal(rule, nilpotent_generators(), 6)
    report(4, "unit-root diagonal rule: squares die, quotient dims 2,1,0,...", ok)


def test_criterion_05_one_variable_survivor(report):
    rule = builtin("ex3.4", alphas=[1])
    dims = ideal_dims(rule, 7)
    ok = dims == [0] + [2**s - 1 for s in range(2, 8)]
    ok = ok and oracle_equal(rule, survivor_generators(), 7)
    report(5, "survivor rule: dim I_s = 2^s - 1, ideal spanned by the three "
              "degree-2 words (degree 7)", ok)


def test_criterion_06_split_rule(report):
    rule = builtin("ex3.5", mu=1, lam=1)
    dims = ideal_dims(rule, 7)
    ok = dims == [0] + [2**s - 2 for s in range(2, 8)]
    ok = ok and oracle_equal(rule, split_generators(), 7)
    report(6, "split rule: dim I_s = 2^s - 2, ideal spanned by the two mixed "
              "words (degree 7)", ok)


def test_criterion_07_q_power_derivatives(report):
    rng = random.Random(80)
    ok = True
    for n in (2, 2, 3):
        q = random_q_grid(rng, n)
        rule = builtin("ex3.1-diag", q=q)
        for j in range(1, n + 1):
            xj = xgen(n, j)
            qjj = q[j - 1][j - 1]
            for m in range(1, 7):
                qint = sum((qjj**t for t in range(m)), Fraction(0))
                for k in range(1, n + 1):
                    want = qint * xj**(m - 1) if k == j else NCPoly.zero(n)
                    ok = ok and partial(rule, k, xj**m) == want
    report(7, "diagonal rule: geometric-sum coefficient for all powers up to 6,"
              " three parameter draws", ok)


def test_criterion_08_two_generator_families(report):
    rng = random.Random(81)
    comm = xgen(2, 1) * xgen(2, 2) - xgen(2, 2) * xgen(2, 1)
    failures = []
    for fam in ("I", "II", "III", "IV"):
        for t in range(20):
            p = random_family_params(rng, fam)
            rule = build_family(p)
            if partial(rule, 1, comm) or partial(rule, 2, comm):
                failures.append((fam, t, "derivative"))
            if not commutator_in_I2(rule):
                failures.append((fam, t, "ideal"))
            if not necessary_conditions(rule).ok:
                failures.append((fam, t, "conditions"))
            if not commutes_mod_commutative(rule):
                failures.append((fam, t, "abelianized"))
            matches = match_family(rule)
            if not any(params_match(p, m) for m in matches):
                failures.append((fam, t, "round-trip"))
    report(8, "family suite: 20 draws per family keep the commutator and "
              "round-trip through the matcher", not failures)


def _suite_product_rule(rng, n, cases):
    for _ in range(cases):
        r = random_any_rule(rng, n)
        u = random_poly(rng, n, 3)
        v = random_poly(rng, n, 3)
        m = r.apply(u)
        for k in range(1, n + 1):
            rhs = partial(r, k, u) * v
            for i in range(1, n + 1):
                rhs = rhs + m.entry(k, i) * partial(r, i, v)
            if partial(r, k, u * v) != rhs:
                return False
    return True


def _suite_multiplicative(rng, n, cases):
    for _ in range(cases):
        r = random_any_rule(rng, n)
        p = random_poly(rng, n, 3)
        q = random_poly(rng, n, 3)
        if r.apply(p * q) != r.apply(p) * r.apply(q):
            return False
    return True


def _suite_last_letter(rng, n, cases):
    for _ in range(cases):
        r = random_homogeneous_rule(rng, n)
        v = random_poly(rng, n, 3)
        m = r.apply(v)
        k = rng.randint(1, n)
        for i in range(1, n + 1):
            xi = xgen(n, i)
            if partial(r, k, v * xi) - partial(r, k, v) * xi != m.entry(k, i):
                return False
    return True


def _suite_vector_fields(rng, n, cases):
    for _ in range(cases):
        r = random_any_rule(rng, n)
        y = VectorField(tuple(random_poly(rng, n, 2) for _ in range(n)))
        u = random_poly(rng, n, 2)
        v = random_poly(rng, n, 2)
        lhs = vf_apply(r, y, u * v)
        rhs = vf_apply(r, y, u) * v + vf_apply(r, vf_right_action(r, y, u), v)
        if lhs != rhs:
            return False
    return True


def _suite_adjunction(rng, n, cases):
    for _ in range(cases):
        r = random_any_rule(rng, n)
        y = VectorField(tuple(random_poly(rng, n, 2) for _ in range(n)))
        w = OneForm(tuple(random_poly(rng, n, 2) for _ in range(n)))
        f = random_poly(rng, n, 2)
        if pairing(vf_right_action(r, y, f), w) != pairing(y, left_mul_form(r, f, w)):
            return False
    return True


def _dim_pool(rng, n):
    if n == 2:
        kind = rng.randrange(6)
        if kind == 0:
            return builtin("ex3.1-diag", q=random_q_grid(rng, 2))
        if kind == 1:
            return builtin("ex3.4", alphas=[rng.randint(-2, 2)])
        if kind == 2:
            return builtin("ex3.5", mu=rng.randint(-2, 2), lam=rng.randint(-2, 2))
        if kind == 3:
            fam = rng.choice(("I", "II", "III", "IV"))
            return build_family(random_family_params(rng, fam))
        if kind == 4:
            return builtin("ex3.3-minus", n=2)
        return random_homogeneous_rule(rng, 2)
    kind = rng.randrange(10)
    if kind == 0:
        return builtin("ex3.3-minus", n=3)
    if kind == 1:
        return builtin("ex3.2-zero", n=3)
    if kind in (2, 3):
        return builtin("ex3.4", alphas=[rng.randint(-2, 2), rng.randint(-2, 2)])
    return random_homogeneous_rule(rng, 3)


def _suite_dim_invariance(rng, n, cases, diag_budget=3):
    spent = 0
    for _ in range(cases):
        rule = _dim_pool(rng, n)
        if n == 3 and spent < diag_budget and rng.random() < 0.05:
            rule = builtin("ex3.1-diag", q=random_q_grid(rng, 3))
            spent += 1
        alpha = random_invertible(rng, n)
        moved = rule.change_basis(alpha)
        if ideal_dims(rule, 4) != ideal_dims(moved, 4):
            return False
    return True


def test_criterion_09_property_suites(report):
    suites = [
        ("product rule", _suite_product_rule),
        ("multiplicative images", _suite_multiplicative),
        ("last-letter round trip", _suite_last_letter),
        ("vector-field product rule", _suite_vector_fields),
        ("pairing adjunction", _suite_adjunction),
        ("basis-change dim invariance", _suite_dim_invariance),
    ]
    bad = []
    for idx, (label, fn) in enumerate(suites):
        rng = random.Random(9000 + idx)
        if not fn(rng, 2, 100) or not fn(rng, 3, 100):
            bad.append(label)
    report(9, "six property suites, 200 random cases each over n=2 and n=3",
           not bad)


def test_dim_invariance_suite_needs_no_fraction_fallback(monkeypatch):
    # criterion 9's seed for this suite; the n=2 run only advances it
    rng = random.Random(9005)
    assert _suite_dim_invariance(rng, 2, 100)
    # every rational rref of the n=3 run is certified from the word
    # primes: none is left to the Fraction elimination
    calls = []
    fraction_rref = linalg._rref_fraction
    monkeypatch.setattr(linalg, "_rref_fraction",
                        lambda rows: calls.append(rows) or fraction_rref(rows))
    assert _suite_dim_invariance(rng, 3, 100)
    assert not calls


def test_criterion_10_prime_field_agreement(report):
    F = GF(10007)
    pairs = [
        (builtin("ex3.1-diag", q=generic_q()),
         builtin("ex3.1-diag", field=F, q=generic_q(F)),
         generic_generators(F), 7),
        (builtin("ex3.1-diag", q=nilpotent_q()),
         builtin("ex3.1-diag", field=F, q=nilpotent_q(F)),
         nilpotent_generators(F), 6),
        (builtin("ex3.4", alphas=[1]),
         builtin("ex3.4", field=F, alphas=[1]),
         survivor_generators(F), 7),
        (builtin("ex3.5", mu=1, lam=1),
         builtin("ex3.5", field=F, mu=1, lam=1),
         split_generators(F), 7),
    ]
    ok = True
    for rational_rule, fp_rule, fp_gens, bound in pairs:
        ok = ok and ideal_dims(rational_rule, bound) == ideal_dims(fp_rule, bound)
        ok = ok and oracle_equal(fp_rule, fp_gens, bound)
    report(10, "prime-field rerun (p=10007) reproduces every rational "
               "dimension and span", ok)
