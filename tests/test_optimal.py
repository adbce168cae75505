import random
from dataclasses import replace
from fractions import Fraction

import pytest

from nccalc import (
    GF,
    QQ,
    CommRule,
    IdealPropertyViolation,
    MatrixPoly,
    NCPoly,
    NonHomogeneousRuleError,
    Subspace,
    builtin,
    check_consistent_ideal,
    check_same_degree_consistency,
    compute_U,
    ideal_component,
    is_regular,
    largest_invariant,
    optimal_ideal,
    partial,
    preimage,
    quotient_dims,
    word_partials,
)
from nccalc.examples import build_example
from nccalc.freealg import all_words
from helpers import (
    dense_consistent_ideal_violations,
    dense_ideal_component,
    dense_same_degree_violations,
    orbit_stays_inside,
    random_family_params,
    random_homogeneous_rule,
    random_invertible,
    random_poly,
    random_q_grid,
    rule_over,
)
from nccalc import FamilyParams, build_family


def x(n, *letters):
    return NCPoly.from_word(n, tuple(letters))


def strict_fixpoint_rule():
    """The invariant-subspace loop must shrink twice before stabilizing."""
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    zero = NCPoly.zero(2)
    a1 = MatrixPoly([[-x1, -x2], [zero, zero]])
    a2 = MatrixPoly([[zero, zero], [-x1, x1 - x2]])
    return CommRule([a1, a2])


def test_compute_u_fixtures():
    zero1 = Subspace.zero(2, 1, QQ)
    assert compute_U(builtin("ex3.2-zero", n=2), 2, zero1).dim == 0
    assert compute_U(builtin("ex3.3-minus", n=2), 2, zero1).dim == 4
    u = compute_U(builtin("ex3.4", alphas=[1]), 2, zero1)
    expect = Subspace.span([x(2, 1, 2), x(2, 2, 1), x(2, 2, 2)], 2, n=2, field=QQ)
    assert u.equal(expect)


def test_largest_invariant_fixtures():
    r = builtin("ex3.4", alphas=[1])
    zero2 = Subspace.zero(2, 2, QQ)
    full2 = Subspace.full(2, 2, QQ)
    assert largest_invariant(r, zero2).dim == 0
    assert largest_invariant(r, full2).equal(full2)
    u = Subspace.span([x(2, 1, 2), x(2, 2, 1), x(2, 2, 2)], 2, n=2, field=QQ)
    assert largest_invariant(r, u).equal(u)


def test_largest_invariant_refuses_a_space_of_another_algebra():
    # the rule has two generators over Q: a space over three generators,
    # or over F_5, is no subspace its matrices act on
    rule = build_example("thm4.1-I")
    with pytest.raises(ValueError, match="space has 3 generators, rule has 2"):
        largest_invariant(rule, Subspace.full(3, 2, QQ))
    with pytest.raises(ValueError, match="space and rule coefficient fields differ"):
        largest_invariant(rule, Subspace.full(2, 2, GF(5)))
    assert largest_invariant(rule, Subspace.full(2, 2, QQ)).dim == 4


def test_largest_invariant_strict_shrink():
    r = strict_fixpoint_rule()
    u = compute_U(r, 2, Subspace.zero(2, 1, QQ))
    assert u.dim == 3
    core = largest_invariant(r, u)
    assert core.dim == 0
    # any nonzero start inside u must be driven out by the entry maps
    for start in u.basis_polys():
        assert not orbit_stays_inside(r, start, u)


def test_optimal_ideal_fixtures():
    assert [c.dim for c in optimal_ideal(builtin("ex3.2-zero", n=2), 6).components] == [0] * 6
    dims3 = [c.dim for c in optimal_ideal(builtin("ex3.3-minus", n=2), 4).components]
    assert dims3 == [0, 4, 8, 16]
    dims5 = [c.dim for c in optimal_ideal(builtin("ex3.5", mu=1, lam=1), 5).components]
    assert dims5 == [0, 2, 6, 14, 30]


def test_quotient_dims_fixtures():
    filt = optimal_ideal(builtin("ex3.2-zero", n=2), 4)
    assert quotient_dims(filt) == [(1, 2), (2, 4), (3, 8), (4, 16)]
    filt = optimal_ideal(builtin("ex3.1-diag", q=[[3, 2], [Fraction(1, 2), 3]]), 5)
    assert quotient_dims(filt) == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    filt = optimal_ideal(builtin("ex3.4", alphas=[1]), 5)
    assert quotient_dims(filt) == [(1, 2), (2, 1), (3, 1), (4, 1), (5, 1)]
    assert filt.quotient_dims() == quotient_dims(filt)


def test_quantum_plane_dims_three_generators():
    q = [[2, 3, 5], [Fraction(1, 3), 2, 7], [Fraction(1, 5), Fraction(1, 7), 2]]
    filt = optimal_ideal(builtin("ex3.1-diag", q=q), 4)
    # commutative-size quotient: binomial(s+2, 2)
    assert [d for _, d in quotient_dims(filt)] == [3, 6, 10, 15]


def test_nilpotent_diag_quotient():
    r = builtin("ex3.1-diag", q=[[-1, 2], [Fraction(1, 2), -1]])
    filt = optimal_ideal(r, 5)
    assert [d for _, d in quotient_dims(filt)] == [2, 1, 0, 0, 0]
    I2 = filt.component(2)
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    assert I2.contains(x1 * x1)
    assert I2.contains(x2 * x2)
    assert I2.contains(2 * (x1 * x2) - x2 * x1)


def test_ideal_filtration_api():
    filt = optimal_ideal(builtin("ex3.5", mu=1, lam=1), 3)
    assert filt.component(1).dim == 0
    assert filt.component(2).dim == 2
    with pytest.raises(ValueError):
        filt.component(0)
    with pytest.raises(ValueError):
        filt.component(4)


def test_defining_invariants_hold():
    rng = random.Random(50)
    rules = [
        builtin("ex3.4", alphas=[1]),
        builtin("ex3.5", mu=2, lam=3),
        builtin("ex3.1-diag", q=[[-1, 2], [Fraction(1, 2), -1]]),
        strict_fixpoint_rule(),
        random_homogeneous_rule(rng, 2),
    ]
    for r in rules:
        filt = optimal_ideal(r, 4)
        comps = filt.components
        assert comps[0].dim == 0
        for s in range(2, 5):
            I_s, I_prev = comps[s - 1], comps[s - 2]
            for b in I_s.basis_polys():
                # derivatives drop into the previous component
                for k in range(1, 3):
                    assert I_prev.contains(partial(r, k, b))
                # image entries stay inside
                m = r.apply(b)
                for k in (1, 2):
                    for i in (1, 2):
                        assert I_s.contains(m.entry(k, i))
            # two-sided ideal property, re-verified at the polynomial level
            for b in I_prev.basis_polys():
                for i in (1, 2):
                    g = NCPoly.gen(2, i)
                    assert I_s.contains(g * b)
                    assert I_s.contains(b * g)


def test_maximality_probe():
    # vectors of U_s outside I_s must escape U_s under the entry maps
    rng = random.Random(51)
    checked = 0
    rules = [strict_fixpoint_rule()] + [random_homogeneous_rule(rng, 2) for _ in range(20)]
    for r in rules:
        filt = optimal_ideal(r, 3)
        prev = Subspace.zero(2, 1, QQ)
        for s in (2, 3):
            u = compute_U(r, s, prev)
            I_s = filt.component(s)
            if u.dim > I_s.dim:
                for b in u.basis_polys():
                    if I_s.contains(b):
                        continue
                    assert not orbit_stays_inside(r, b, u)
                    checked += 1
            prev = I_s
    assert checked > 0


def test_span_oracle_equality():
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    r = builtin("ex3.1-diag", q=[[3, 2], [Fraction(1, 2), 3]])
    filt = optimal_ideal(r, 5)
    gen = 2 * (x1 * x2) - x2 * x1
    for s in range(2, 6):
        assert filt.component(s).equal(ideal_component([gen], s, n=2, field=QQ))
    r35 = builtin("ex3.5", mu=1, lam=1)
    filt35 = optimal_ideal(r35, 5)
    for s in range(2, 6):
        assert filt35.component(s).equal(
            ideal_component([x1 * x2, x2 * x1], s, n=2, field=QQ))


def test_ideal_component_fixtures():
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    g = 2 * (x1 * x2) - x2 * x1
    assert ideal_component([g], 3, n=2, field=QQ).dim == 4
    assert ideal_component([g], 1, n=2, field=QQ).dim == 0
    words2 = [x(2, 1, 1), x(2, 1, 2), x(2, 2, 1), x(2, 2, 2)]
    assert ideal_component(words2, 2, n=2, field=QQ).dim == 4
    assert ideal_component([], 3, n=2, field=QQ).dim == 0
    with pytest.raises(ValueError):
        ideal_component([x1 + x1 * x2], 3, n=2, field=QQ)
    with pytest.raises(ValueError):
        ideal_component([NCPoly.one(2)], 2, n=2, field=QQ)
    with pytest.raises(ValueError, match="slice degree must be nonnegative"):
        ideal_component([g], -1, n=2, field=QQ)


def test_non_homogeneous_rule_rejected():
    x1 = NCPoly.gen(2, 1)
    zero = NCPoly.zero(2)
    bad = CommRule([MatrixPoly([[NCPoly.one(2), zero], [zero, zero]]),
                    MatrixPoly([[zero, zero], [zero, x1]])])
    with pytest.raises(NonHomogeneousRuleError):
        optimal_ideal(bad, 3)
    with pytest.raises(NonHomogeneousRuleError):
        compute_U(bad, 2, Subspace.zero(2, 1, QQ))
    assert issubclass(NonHomogeneousRuleError, ValueError)


def test_same_degree_consistency_fixtures():
    rng = random.Random(52)
    # braided commutators of the diagonal rule are consistent
    for n in (2, 3):
        q = [[Fraction(1) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            q[i][i] = Fraction(rng.randint(1, 4))
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = Fraction(rng.randint(1, 4))
                q[j][i] = 1 / q[i][j]
        r = builtin("ex3.1-diag", q=q)
        rels = []
        xs = [NCPoly.gen(n, t) for t in range(1, n + 1)]
        for l in range(n):
            for j in range(l + 1, n):
                rels.append(q[l][j] * (xs[l] * xs[j]) - xs[j] * xs[l])
        rep = check_same_degree_consistency(r, rels)
        assert rep.verdict is True
        assert rep.mode == "same-degree"
        assert not rep.violations
    # the commutator is consistent for every family draw
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    comm = x1 * x2 - x2 * x1
    for _ in range(5):
        fam = build_family(random_family_params(rng, "I"))
        assert check_same_degree_consistency(fam, [comm]).verdict is True
    # zero rule: D_1(x1x2) = x2 does not vanish
    bad = check_same_degree_consistency(builtin("ex3.2-zero", n=2), [x1 * x2])
    assert bad.verdict is False
    assert any(v.check == "partial" for v in bad.violations)


def test_same_degree_rejects_mixed_degrees():
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    r = builtin("ex3.2-zero", n=2)
    with pytest.raises(ValueError):
        check_same_degree_consistency(r, [x1 * x2, x1 * x2 * x1])
    with pytest.raises(ValueError):
        check_same_degree_consistency(r, [x1 + x1 * x2])


def test_degree_bounded_consistency_fixtures():
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    r35 = builtin("ex3.5", mu=1, lam=1)
    rep = check_consistent_ideal(r35, [x1 * x2, x2 * x1], 5)
    assert rep.verdict is True
    assert rep.mode == "degree-bounded"
    assert rep.checked_degree == 5
    r34 = builtin("ex3.4", alphas=[1])
    gens34 = [x1 * x2, x2 * x1, x2 * x2]
    assert check_consistent_ideal(r34, gens34, 5).verdict is True
    rz = builtin("ex3.2-zero", n=2)
    bad = check_consistent_ideal(rz, [x1], 3)
    assert bad.verdict is False


def test_constant_relations_are_refused_in_both_modes():
    one = NCPoly.constant(2, 1)
    r = builtin("ex3.5", mu=1, lam=1)
    for rels in ([one], [2 * one, 3 * one]):
        with pytest.raises(ValueError, match="constant ideal generators are not supported"):
            check_same_degree_consistency(r, rels)
        with pytest.raises(ValueError, match="constant ideal generators are not supported"):
            check_consistent_ideal(r, rels, 3)


def test_degree_bound_is_checked_before_the_empty_shortcut():
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    r = builtin("ex3.5", mu=1, lam=1)
    for gens in ([], [NCPoly.zero(2)], [x1 * x2 - x2 * x1]):
        for bound in (0, -2):
            with pytest.raises(ValueError, match="max_degree must be at least 1"):
                check_consistent_ideal(r, gens, bound)
    rep = check_consistent_ideal(r, [], 1)
    assert rep.verdict is True and rep.checked_degree == 1


def test_violations_are_labelled_with_the_given_names():
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    r = builtin("ex3.5", mu=1, lam=1)
    comm = x1 * x2 - x2 * x1
    for report in (lambda **kw: check_same_degree_consistency(r, [comm], **kw),
                   lambda **kw: check_consistent_ideal(r, [comm], 3, **kw)):
        default, named = report(), report(names=("a", "b"))
        assert default.violations and default == report(names=None)
        assert default.violations[0].source == "x1*x2 - x2*x1"
        assert named.violations[0].source == "a*b - b*a"
        assert named.violations == tuple(
            replace(v, source=v.source.replace("x1", "a").replace("x2", "b"))
            for v in default.violations)


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["Q", "Fp10007"])
@pytest.mark.parametrize("name", ["ex3.5", "thm4.1-I", "thm4.1-II",
                                  "thm4.1-III", "thm4.1-IV"])
def test_closure_checks_match_dense_membership(name, field):
    rule = build_example(name, field)
    x1, x2 = NCPoly.gen(2, 1, field), NCPoly.gen(2, 2, field)
    comm = x1 * x2 - x2 * x1
    same = check_same_degree_consistency(rule, [comm]).violations
    assert same == dense_same_degree_violations(rule, [comm])
    bounded = check_consistent_ideal(rule, [comm], 6).violations
    assert bounded == dense_consistent_ideal_violations(rule, [comm], 6)
    # the commutator is consistent exactly for the regular families
    assert bool(same) == bool(bounded) == (name == "ex3.5")
    # seeded relations whose derivatives leave the ideal
    rng = random.Random(5300)
    for deg in (2, 3):
        rels = [r for r in (random_poly(rng, 2, deg, field, homogeneous=deg)
                            for _ in range(2)) if r]
        same = check_same_degree_consistency(rule, rels).violations
        assert same == dense_same_degree_violations(rule, rels)
        bounded = check_consistent_ideal(rule, rels, deg + 2).violations
        assert bounded == dense_consistent_ideal_violations(rule, rels, deg + 2)
        assert any(v.check == "partial" for v in bounded)


def _degree_bounded_cases(field, count=100):
    """Seeded (rule, generators, bound) inputs for the degree-bounded check.

    In turn: a regular two-generator rule with a scaled commutator, the
    n=3 diagonal rule with some of its q-commutators (both consistent
    unless an extra random degree-3 generator lies within the bound), and
    random relations of degrees 1-3 for n=2 and n=3 rules.
    """
    rng = random.Random(6100)
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            n = 2
            if rng.random() < 0.5:
                rule = build_example(rng.choice(["thm4.1-I", "thm4.1-II",
                                                 "thm4.1-III", "thm4.1-IV"]), field)
            else:
                fam = rng.choice(["I", "II", "III", "IV"])
                rule = build_family(random_family_params(rng, fam), field)
            x1, x2 = NCPoly.gen(2, 1, field), NCPoly.gen(2, 2, field)
            comm = field.of(rng.choice([1, -1, 2, 3])) * (x1 * x2 - x2 * x1)
            gens = [comm]
            if rng.random() < 0.5:
                gens.append(rng.choice([x1, x2]) * comm)
        elif kind == 1:
            n = 3
            q = random_q_grid(rng, n, field)
            rule = builtin("ex3.1-diag", field=field, q=q)
            xs = [NCPoly.gen(n, a, field) for a in range(1, n + 1)]
            # x_a*x_b - q[b][a]*x_b*x_a has zero derivatives
            gens = [xs[a] * xs[b] - q[b][a] * (xs[b] * xs[a])
                    for a in range(n) for b in range(a + 1, n) if rng.random() < 0.6]
        else:
            n = 2 if kind == 2 else 3
            if rng.random() < 0.5:
                rule = random_homogeneous_rule(rng, n, field)
            elif n == 2:
                rule = build_example(rng.choice(["ex3.5", "thm4.1-I", "thm4.1-II"]), field)
            else:
                rule = builtin("ex3.3-minus", field=field, n=3)
            gens = [random_poly(rng, n, d, field, homogeneous=d)
                    for d in rng.sample([1, 2, 2, 3, 3], rng.randint(1, 3))]
        if kind < 2 and rng.random() < 0.5:
            gens.append(random_poly(rng, n, 3, field, homogeneous=3))
        out.append((rule, gens, rng.randint(1, 4 if n == 2 else 3)))
    return out


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["Q", "Fp10007"])
def test_degree_bounded_check_matches_dense_enumeration(field):
    cases = _degree_bounded_cases(field)
    consistent = 0
    for rule, gens, bound in cases:
        got = check_consistent_ideal(rule, gens, bound).violations
        assert got == dense_consistent_ideal_violations(rule, gens, bound)
        consistent += not got
    # both paths are exercised: the generator-only answer and the listing
    assert len(cases) // 4 <= consistent <= len(cases) - len(cases) // 4


def test_consistent_ideal_builds_slices_at_generator_degrees_only(monkeypatch):
    import nccalc.optimal as optimal
    built = []
    real = optimal._next_slice

    def spy(prev, gens):
        built.append(prev.degree + 1)
        return real(prev, gens)

    monkeypatch.setattr(optimal, "_next_slice", spy)
    x1, x2 = NCPoly.gen(2, 1), NCPoly.gen(2, 2)
    comm = x1 * x2 - x2 * x1
    # a degree-5 generator above the bound plays no part
    above = x1 * x1 * x2 * x1 * x2
    rep = check_consistent_ideal(build_example("thm4.1-I"), [comm, x2 * comm, above], 4)
    assert rep.verdict and rep.checked_degree == 4
    assert sorted(built) == [1, 2, 3]
    # a failing generator lists every degree, building each slice once
    built.clear()
    rep = check_consistent_ideal(builtin("ex3.5", mu=1, lam=1), [comm], 5)
    assert not rep.verdict
    assert sorted(built) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_ideal_component_matches_dense_enumeration(field):
    # random generator sets of mixed degrees, some above d, and d = 0
    rng = random.Random(4711)
    for _ in range(12):
        n = rng.randint(2, 3)
        top = 5 if n == 2 else 4
        gens = [random_poly(rng, n, 3, field, homogeneous=rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        for d in range(top + 1):
            got = ideal_component(gens, d, n, field)
            assert got.equal(dense_ideal_component(gens, d, n, field)), (gens, d)


def test_is_regular_fixtures():
    classical = build_family(FamilyParams("III", u=(1, 0), v=(0, 1)))
    assert is_regular(classical)
    assert not is_regular(builtin("ex3.5", mu=1, lam=1))
    assert not is_regular(builtin("ex3.3-minus", n=2))
    assert not is_regular(builtin("ex3.2-zero", n=2))


def test_dims_stable_under_change_of_basis():
    rng = random.Random(54)
    pool = [
        builtin("ex3.5", mu=1, lam=1),
        builtin("ex3.4", alphas=[1]),
        builtin("ex3.1-diag", q=[[-1, 2], [Fraction(1, 2), -1]]),
    ]
    for r in pool:
        base = [c.dim for c in optimal_ideal(r, 4).components]
        for _ in range(3):
            alpha = random_invertible(rng, 2)
            moved = r.change_basis(alpha)
            assert [c.dim for c in optimal_ideal(moved, 4).components] == base


def test_prime_field_agrees_on_dims():
    F = GF(10007)
    q_f = [[F.of(-1), F.of(2)], [F.of(1) / F.of(2), F.of(-1)]]
    filt_f = optimal_ideal(builtin("ex3.1-diag", field=F, q=q_f), 4)
    filt_q = optimal_ideal(builtin("ex3.1-diag", q=[[-1, 2], [Fraction(1, 2), -1]]), 4)
    assert [c.dim for c in filt_f.components] == [c.dim for c in filt_q.components]


def test_largest_invariant_refuses_a_round_that_does_not_shrink(monkeypatch):
    # a round that fails to shrink would loop forever; it must raise, also
    # under python -O
    r = strict_fixpoint_rule()
    u = compute_U(r, 2, Subspace.zero(2, 1, QQ))
    # a kernel step that keeps the whole space
    monkeypatch.setattr(Subspace, "kernel_of", lambda self, residuals: self)
    with pytest.raises(IdealPropertyViolation, match="did not shrink"):
        largest_invariant(r, u)


@pytest.mark.parametrize("field", [QQ, GF(10007), GF(2**61 - 1)],
                         ids=["Q", "Fp10007", "Fp2^61-1"])
def test_derivative_preimage_matches_word_table(field):
    # U_s against targets of codimension 1 or 2 with fractional tails:
    # the kernel is large, so it changes if the int residuals scale the
    # free part and the pivot part of a derivative differently
    rng = random.Random(5300)
    fractional = 0
    for n, s in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        for _ in range(3):
            moved = random_homogeneous_rule(rng, n).change_basis(random_invertible(rng, n))
            rule = moved if field == QQ else rule_over(moved, field)
            size = n ** (s - 1)
            polys = [NCPoly(n, field, {w: field.of(Fraction(rng.randint(-5, 5),
                                                            rng.randint(1, 4)))
                                       for w in all_words(s - 1, n)})
                     for _ in range(size - rng.randint(1, 2))]
            prev = Subspace.span(polys, s - 1, n, field)
            fractional += prev.den != 1
            images = [word_partials(rule, w) for w in all_words(s, n)]
            want = preimage(images, (prev,) * n, s, n, field)
            got = compute_U(rule, s, prev)
            assert 0 < got.dim < n ** s
            assert got.equal(want)
    assert fractional or field != QQ
