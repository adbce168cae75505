import random
from fractions import Fraction

import pytest

from nccalc import (
    GF,
    QQ,
    CommRule,
    FamilyParams,
    MatrixPoly,
    NCPoly,
    build_family,
    builtin,
    commutator_in_I2,
    commutes_mod_commutative,
    is_regular,
    match_family,
    necessary_conditions,
    optimal_ideal,
    partial,
)
from helpers import (
    commutes_by_grid_evaluation,
    params_match,
    random_family_params,
    random_homogeneous_rule,
    rule_over,
)
from nccalc.optimal import _degree_two_verdicts

SWAP = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]


def gens2():
    return NCPoly.gen(2, 1), NCPoly.gen(2, 2)


def commutator():
    x1, x2 = gens2()
    return x1 * x2 - x2 * x1


def test_build_family_display_fixtures():
    x1, x2 = gens2()
    zero = NCPoly.zero(2)
    r = build_family(FamilyParams("I", u=(0, 0), v=(0, 0), w=(0, 0), lam=0))
    assert r.image(1) == MatrixPoly([[zero, zero], [zero, x1]])
    assert r.image(2) == MatrixPoly([[x2, zero], [zero, x2]])
    r = build_family(FamilyParams("III", u=(1, 0), v=(0, 1)))
    assert r.image(1) == MatrixPoly([[x1, zero], [zero, x1]])
    assert r.image(2) == MatrixPoly([[x2, zero], [zero, x2]])
    r = build_family(FamilyParams("IV", u=(0, 0), v=(0, 0), w=(0, 0)))
    assert r.image(1).is_zero()
    assert r.image(2) == MatrixPoly([[x2, zero], [-x1, zero]])


def test_build_family_general_shapes():
    x1, x2 = gens2()
    r = build_family(FamilyParams("I", u=(2, 1), v=(1, 3), w=(0, 5), lam=Fraction(7, 2)))
    u = 2 * x1 + x2
    v = x1 + 3 * x2
    w = 5 * x2
    lam = Fraction(7, 2)
    assert r.image(1) == MatrixPoly([[u, w], [v, lam * v + x1]])
    assert r.image(2) == MatrixPoly([[w + x2, lam * w],
                                     [lam * v, lam * lam * v - lam * u + w + lam * x1 + x2]])
    r = build_family(FamilyParams("II", v=(1, 0), v1=(0, 1), lam=2, mu=3))
    v, v1 = x1, x2
    assert r.image(1) == MatrixPoly([[x1 + 3 * v + v1, 2 * v], [v, x1 + v1]])
    assert r.image(2) == MatrixPoly([[x2 + 2 * v, 2 * v1], [v1, x2 + 2 * v - 3 * v1]])
    r = build_family(FamilyParams("IV", u=(0, 1), v=(1, 0), w=(1, 0)))
    zero = NCPoly.zero(2)
    assert r.image(1) == MatrixPoly([[x2, zero], [zero, x2]])
    assert r.image(2) == MatrixPoly([[x2, x1], [x2 - x1, x1]])


def test_build_family_swap_is_generator_exchange():
    rng = random.Random(60)
    for fam in ("I", "II", "III", "IV"):
        p = random_family_params(rng, fam, swapped=False)
        ps = FamilyParams(fam, swapped=True, u=p.u, v=p.v, w=p.w, v1=p.v1,
                          lam=p.lam, mu=p.mu)
        assert build_family(ps) == build_family(p).change_basis(SWAP)


def test_build_family_slot_validation():
    with pytest.raises(ValueError):
        build_family(FamilyParams("I", u=(1, 0)))
    with pytest.raises(ValueError):
        build_family(FamilyParams("III", u=(1, 0), v=(0, 1), w=(1, 1)))
    with pytest.raises(ValueError):
        build_family(FamilyParams("V", u=(1, 0)))
    with pytest.raises(ValueError):
        build_family(FamilyParams("II", v=(1, 0), v1=(0, 1), lam=1))


def test_commutator_derivatives_vanish_for_all_families():
    rng = random.Random(61)
    comm = commutator()
    for fam in ("I", "II", "III", "IV"):
        for _ in range(10):
            r = build_family(random_family_params(rng, fam))
            assert partial(r, 1, comm) == NCPoly.zero(2)
            assert partial(r, 2, comm) == NCPoly.zero(2)


def test_conditions_hold_for_family_rules():
    rng = random.Random(62)
    for fam in ("I", "II", "III", "IV"):
        for _ in range(8):
            rep = necessary_conditions(build_family(random_family_params(rng, fam)))
            assert rep.ok
            assert rep.violations == ()


def test_conditions_hold_for_split_rule():
    # both cross-entry equations hold: the off-diagonal entries pair up as
    # 0 = x1 - x1 and 0 = x2 - x2
    rep = necessary_conditions(builtin("ex3.5", mu=4, lam=9))
    assert rep.ok


def test_conditions_zero_rule_fails_minus_rule_passes():
    rep = necessary_conditions(builtin("ex3.2-zero", n=2))
    assert not rep.ok
    assert rep.violations == ((1, 2, 2), (2, 1, 1))
    # the sign-flip rule satisfies the cross conditions even though it
    # matches no family; the conditions are necessary, not sufficient
    assert necessary_conditions(builtin("ex3.3-minus", n=2)).ok
    assert match_family(builtin("ex3.3-minus", n=2)) == []


def test_conditions_three_generators():
    rep = necessary_conditions(builtin("ex3.2-zero", n=3))
    assert rep.n == 3 and not rep.ok
    # all-ones grid is the classical rule in disguise
    ones = [[Fraction(1)] * 3 for _ in range(3)]
    assert necessary_conditions(builtin("ex3.1-diag", q=ones)).ok
    generic = [[2, 3, 5], [Fraction(1, 3), 2, 7], [Fraction(1, 5), Fraction(1, 7), 2]]
    assert not necessary_conditions(builtin("ex3.1-diag", q=generic)).ok


def test_family_one_affine_identity():
    # A(x2) is an affine function of A(x1): lam*A(x1) + (w + x2 - lam*u)*E
    rng = random.Random(63)
    x1, x2 = gens2()
    for _ in range(10):
        p = random_family_params(rng, "I", swapped=False)
        r = build_family(p)
        u = p.u[0] * x1 + p.u[1] * x2
        w = p.w[0] * x1 + p.w[1] * x2
        lam = Fraction(p.lam)
        shift = w + x2 - lam * u
        expect = r.image(1).scale(lam) + MatrixPoly([[shift, NCPoly.zero(2)],
                                                     [NCPoly.zero(2), shift]])
        assert r.image(2) == expect
        assert commutes_mod_commutative(r)


def test_diagonal_family_commutes_mod_commutative():
    rng = random.Random(64)
    for _ in range(10):
        r = build_family(random_family_params(rng, "III", swapped=False))
        assert commutes_mod_commutative(r)
    # images commute exactly only when u lies along x2 and v along x1
    classical = build_family(FamilyParams("III", u=(0, 2), v=(3, 0)))
    a1, a2 = classical.image(1), classical.image(2)
    assert a1 * a2 == a2 * a1
    generic = build_family(FamilyParams("III", u=(1, 1), v=(0, 1)))
    assert generic.image(1) * generic.image(2) != generic.image(2) * generic.image(1)
    assert commutes_mod_commutative(generic)


def test_commutes_mod_commutative_counterexample():
    x1, x2 = gens2()
    zero = NCPoly.zero(2)
    a1 = MatrixPoly([[zero, x1], [zero, zero]])
    a2 = MatrixPoly([[zero, zero], [x2, zero]])
    r = CommRule([a1, a2])
    assert not commutes_mod_commutative(r)
    assert not commutes_by_grid_evaluation(r)


def test_commutes_mod_commutative_matches_grid_oracle():
    rng = random.Random(65)
    for _ in range(60):
        r = random_homogeneous_rule(rng, 2)
        assert commutes_mod_commutative(r) == commutes_by_grid_evaluation(r)
    assert commutes_mod_commutative(builtin("ex3.2-zero", n=2))
    assert commutes_mod_commutative(builtin("ex3.1-diag", q=[[3, 2], [Fraction(1, 2), 3]]))


def test_match_family_classical():
    classical = build_family(FamilyParams("III", u=(1, 0), v=(0, 1)))
    matches = match_family(classical)
    assert any(m.family == "III" and not m.swapped
               and m.u == (Fraction(1), Fraction(0))
               and m.v == (Fraction(0), Fraction(1)) for m in matches)
    # the fully classical rule satisfies every family display
    assert {(m.family, m.swapped) for m in matches} == {
        (f, s) for f in ("I", "II", "III", "IV") for s in (False, True)}
    for m in matches:
        assert build_family(m) == classical


def test_match_family_overlap():
    r = build_family(FamilyParams("I", u=(0, 0), v=(0, 0), w=(0, 0), lam=0))
    matches = match_family(r)
    kinds = {(m.family, m.swapped) for m in matches}
    assert ("I", False) in kinds
    assert ("III", False) in kinds
    for m in matches:
        if m.family == "III" and not m.swapped:
            assert m.u == (Fraction(0), Fraction(0))
            assert m.v == (Fraction(0), Fraction(1))
        assert build_family(m) == r


def test_match_family_rejects_non_members():
    assert match_family(builtin("ex3.3-minus", n=2)) == []
    assert match_family(builtin("ex3.5", mu=1, lam=1)) == []
    assert match_family(builtin("ex3.2-zero", n=2)) == []


def test_match_family_round_trip():
    rng = random.Random(66)
    for fam in ("I", "II", "III", "IV"):
        for _ in range(20):
            p = random_family_params(rng, fam)
            r = build_family(p)
            matches = match_family(r)
            assert matches, (fam, p)
            assert any(params_match(p, m) for m in matches), (fam, p, matches)
            for m in matches:
                assert build_family(m) == r


def test_converse_of_theorem_4_1_over_f2():
    # by the product rule, D_k(x1x2 - x2x1) = delta_1k*x2 - delta_2k*x1
    # + A(x1)^2_k - A(x2)^1_k, so with T = tensor_coefficient it vanishes
    # iff T(2,1,k,l) = T(1,2,k,l) + shift[k, l] for k, l = 1, 2: an
    # affine subspace of codimension 4, here all 2^12 rules in it over F_2
    F = GF(2)
    shift = {(1, 1): 0, (1, 2): -1, (2, 1): 1, (2, 2): 0}
    free = [(i, j, k, l) for i in (1, 2) for j in (1, 2) for k in (1, 2)
            for l in (1, 2) if (i, j) != (2, 1)]
    x1, x2 = NCPoly.gen(2, 1, F), NCPoly.gen(2, 2, F)
    comm = x1 * x2 - x2 * x1
    regular = 0
    for bits in range(1 << len(free)):
        t = {key: bits >> b & 1 for b, key in enumerate(free)}
        for (k, l), c in shift.items():
            t[2, 1, k, l] = (t[1, 2, k, l] + c) % 2
        rule = CommRule.from_tensor(2, [(*key, c) for key, c in t.items() if c], F)
        assert not partial(rule, 1, comm) and not partial(rule, 2, comm), t
        if is_regular(rule):
            regular += 1
            # every regular rule lies in this set (its commutator is in
            # I_2, and I_1 = 0) and in one of the four families, so over
            # F_2 classify2's "families: none" marks an irregular rule
            assert necessary_conditions(rule).ok, t
            assert match_family(rule), t
    assert regular == 126


def test_commutator_membership():
    rng = random.Random(67)
    for fam in ("I", "II", "III", "IV"):
        for _ in range(5):
            assert commutator_in_I2(build_family(random_family_params(rng, fam)))
    assert commutator_in_I2(builtin("ex3.5", mu=1, lam=1))
    assert not commutator_in_I2(builtin("ex3.2-zero", n=2))


def test_degree_two_verdicts_match_the_component():
    # dim I_2 and the commutator's membership, read off the truncated
    # basis, against the canonical I_2 and its own membership test
    rng = random.Random(131)
    rules = [builtin(name, n=2) for name in ("ex3.2-zero", "ex3.3-minus")]
    rules += [builtin("ex3.5", mu=1, lam=1)]
    rules += [build_family(random_family_params(rng, fam)) for fam in ("I", "II", "III", "IV")
              for _ in range(3)]
    for field in (QQ, GF(2), GF(3), GF(10007)):
        rules += [random_homogeneous_rule(rng, 2, field) for _ in range(15)]
    rules += [rule_over(rule, GF(3)) for rule in rules[:16]]
    seen = set()
    for rule in rules:
        i2 = optimal_ideal(rule, 2).component(2)
        x1, x2 = NCPoly.gen(2, 1, rule.field), NCPoly.gen(2, 2, rule.field)
        want = (i2.dim, i2.contains(x1 * x2 - x2 * x1))
        assert _degree_two_verdicts(rule) == want, rule
        seen.add(want)
    # free, commutative, regular and larger ideals all occur
    assert {(0, False), (1, True), (2, True)} <= seen and any(not h and d for d, h in seen)


def test_split_rule_is_irregular_with_two_dim_kernel():
    filt = optimal_ideal(builtin("ex3.5", mu=1, lam=1), 2)
    assert filt.component(2).dim == 2
    assert filt.component(2).contains(commutator())
