import random
from fractions import Fraction

import pytest

from nccalc import (
    BUILTIN_NAMES,
    GF,
    QQ,
    CommRule,
    MatrixPoly,
    NCPoly,
    OneForm,
    VectorField,
    builtin,
    invert_matrix,
    left_mul_form,
    optimal_ideal,
    partial,
    substitute_generators,
    vf_right_action,
)
from helpers import (
    dense_change_basis,
    matrix_apply,
    rand_proper_fraction,
    random_any_rule,
    random_fraction_poly,
    random_fraction_rule,
    random_homogeneous_rule,
    random_invertible,
    random_poly,
    random_q_grid,
)


def gens(n):
    return [NCPoly.gen(n, i) for i in range(1, n + 1)]


def matrix_eq(m, rows):
    return m == MatrixPoly(rows)


def test_builtin_names_frozen():
    assert BUILTIN_NAMES == ("ex3.1-diag", "ex3.2-zero", "ex3.3-minus", "ex3.4", "ex3.5")


def test_split_rule_matrices():
    x1, x2 = gens(2)
    zero = NCPoly.zero(2)
    r = builtin("ex3.5", mu=2, lam=3)
    assert matrix_eq(r.image(1), [[2 * x2, -x2], [zero, zero]])
    assert matrix_eq(r.image(2), [[zero, zero], [-x1, 3 * x1]])
    assert r.homogeneous
    assert r.n == 2


def test_zero_rule_builtin():
    r = builtin("ex3.2-zero", n=3)
    for j in (1, 2, 3):
        assert r.image(j).is_zero()
    assert r.homogeneous


def test_sign_flip_builtin():
    r = builtin("ex3.3-minus", n=2)
    x1, x2 = gens(2)
    zero = NCPoly.zero(2)
    assert matrix_eq(r.image(1), [[-x1, -x2], [zero, zero]])
    assert matrix_eq(r.image(2), [[zero, zero], [-x1, -x2]])


def test_diag_builtin_and_constraint():
    q = [[3, 2], [Fraction(1, 2), 3]]
    r = builtin("ex3.1-diag", q=q)
    x1, x2 = gens(2)
    zero = NCPoly.zero(2)
    assert matrix_eq(r.image(1), [[3 * x1, zero], [zero, Fraction(1, 2) * x1]])
    assert matrix_eq(r.image(2), [[2 * x2, zero], [zero, 3 * x2]])
    with pytest.raises(ValueError, match="1.*2|2.*1"):
        builtin("ex3.1-diag", q=[[3, 2], [1, 3]])


def test_one_variable_survivor_builtin():
    r = builtin("ex3.4", alphas=[1])
    x1, x2 = gens(2)
    zero = NCPoly.zero(2)
    assert matrix_eq(r.image(1), [[x2, -x2], [zero, zero]])
    assert matrix_eq(r.image(2), [[zero, zero], [-x1, -x2]])


def test_homogeneity_flag():
    x1 = NCPoly.gen(2, 1)
    zero = NCPoly.zero(2)
    quad = MatrixPoly([[x1 * NCPoly.gen(2, 2), zero], [zero, zero]])
    assert not CommRule([quad, MatrixPoly.zero(2)]).homogeneous
    const = MatrixPoly([[NCPoly.one(2), zero], [zero, zero]])
    assert not CommRule([const, MatrixPoly.zero(2)]).homogeneous


def test_tensor_round_trip():
    q = [[Fraction(3), Fraction(2)], [Fraction(1, 2), Fraction(3)]]
    entries = []
    for i in (1, 2):
        for j in (1, 2):
            # q[i][j] at image j, row/col i, letter j
            entries.append((i, j, i, j, q[i - 1][j - 1]))
    r = CommRule.from_tensor(2, entries)
    assert r == builtin("ex3.1-diag", q=q)
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    want = q[i - 1][j - 1] if (k, l) == (i, j) else Fraction(0)
                    assert r.tensor_coefficient(i, j, k, l) == want


def test_tensor_fixtures():
    assert CommRule.from_tensor(2, []) == builtin("ex3.2-zero", n=2)
    # sign flip concentrates row j of the j-th image: entry (i, j, j, i, -1)
    entries = [(i, j, j, i, Fraction(-1)) for i in (1, 2) for j in (1, 2)]
    assert CommRule.from_tensor(2, entries) == builtin("ex3.3-minus", n=2)
    # transposing the deltas instead yields the all-(-1) diagonal rule
    swapped = [(i, j, i, j, Fraction(-1)) for i in (1, 2) for j in (1, 2)]
    allminus = [[Fraction(-1)] * 2 for _ in range(2)]
    assert CommRule.from_tensor(2, swapped) == builtin("ex3.1-diag", q=allminus)


def test_apply_is_unital():
    r = builtin("ex3.5", mu=1, lam=1)
    assert r.apply(NCPoly.one(2)) == MatrixPoly.identity(2)
    assert r.apply(NCPoly.zero(2)).is_zero()


def test_apply_product_display():
    x1, x2 = gens(2)
    zero = NCPoly.zero(2)
    for lam in (Fraction(1), Fraction(3), Fraction(-2)):
        r = builtin("ex3.5", mu=5, lam=lam)
        m = r.apply(x1 * x2)
        assert matrix_eq(m, [[x2 * x1, -lam * (x2 * x1)], [zero, zero]])
    r = builtin("ex3.5", mu=1, lam=1)
    assert matrix_eq(r.apply(x2 * x1),
                     [[zero, zero], [-(x1 * x2), x1 * x2]])


def test_apply_on_diag_relations():
    # the diagonal rule maps each braided commutator to a scalar multiple
    # of itself in every diagonal slot
    rng = random.Random(20)
    for n in (2, 3):
        q = random_q_grid(rng, n)
        r = builtin("ex3.1-diag", q=q)
        xs = gens(n)
        for l in range(1, n + 1):
            for j in range(1, n + 1):
                rel = q[l - 1][j - 1] * (xs[l - 1] * xs[j - 1]) - xs[j - 1] * xs[l - 1]
                m = r.apply(rel)
                for k in range(1, n + 1):
                    for i in range(1, n + 1):
                        if i != k:
                            assert m.entry(k, i) == NCPoly.zero(n)
                        else:
                            assert m.entry(k, i) == q[k - 1][l - 1] * q[k - 1][j - 1] * rel


def test_homomorphism_law_random():
    rng = random.Random(21)
    for _ in range(200):
        r = random_any_rule(rng, 2)
        p = random_poly(rng, 2, 3)
        q = random_poly(rng, 2, 3)
        assert r.apply(p * q) == r.apply(p) * r.apply(q)
    for _ in range(40):
        r = random_homogeneous_rule(rng, 3)
        p = random_poly(rng, 3, 2)
        q = random_poly(rng, 3, 2)
        assert r.apply(p * q) == r.apply(p) * r.apply(q)


def test_apply_linearity():
    rng = random.Random(22)
    for _ in range(50):
        r = random_any_rule(rng, 2)
        p = random_poly(rng, 2, 3)
        q = random_poly(rng, 2, 3)
        c = Fraction(rng.randint(-3, 3))
        lhs = r.apply(p + c * q)
        rhs = r.apply(p) + r.apply(q).scale(c)
        assert lhs == rhs


def test_derivative_round_trip_identity():
    # removing the last letter: D_k(v*x_i) - D_k(v)*x_i recovers apply(v)
    rng = random.Random(23)
    for n in (2, 3):
        for _ in range(60):
            r = random_homogeneous_rule(rng, n)
            v = random_poly(rng, n, 3)
            m = r.apply(v)
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    xi = NCPoly.gen(n, i)
                    assert partial(r, k, v * xi) - partial(r, k, v) * xi == m.entry(k, i)


def test_change_basis_identity_and_inverse():
    r = builtin("ex3.1-diag", q=[[3, 2], [Fraction(1, 2), 3]])
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert r.change_basis(eye) == r
    rng = random.Random(24)
    for _ in range(20):
        alpha = random_invertible(rng, 2)
        beta = invert_matrix(alpha, QQ)
        assert r.change_basis(alpha).change_basis(beta) == r


def test_change_basis_zero_rule_and_errors():
    rz = builtin("ex3.2-zero", n=2)
    alpha = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
    assert rz.change_basis(alpha) == rz
    with pytest.raises(ValueError):
        rz.change_basis([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_change_basis_preserves_homogeneity_and_dims():
    rng = random.Random(25)
    r = builtin("ex3.4", alphas=[2])
    base = [c.dim for c in optimal_ideal(r, 4).components]
    for _ in range(5):
        alpha = random_invertible(rng, 2)
        moved = r.change_basis(alpha)
        assert moved.homogeneous
        assert [c.dim for c in optimal_ideal(moved, 4).components] == base


def test_derivative_covariance_under_change_of_basis():
    # new-basis derivative of the rewritten polynomial equals the inverse
    # matrix contraction of the rewritten old derivatives
    rng = random.Random(26)
    for n in (2, 3):
        for _ in range(25):
            r = random_homogeneous_rule(rng, n)
            alpha = random_invertible(rng, n)
            beta = invert_matrix(alpha, QQ)
            moved = r.change_basis(alpha)
            f = random_poly(rng, n, 3)
            sf = substitute_generators(f, beta)
            for k in range(1, n + 1):
                want = NCPoly.zero(n)
                for i in range(1, n + 1):
                    want = want + beta[i - 1][k - 1] * substitute_generators(
                        partial(r, i, f), beta)
                assert partial(moved, k, sf) == want


def _change_matrices(rng, n, field):
    """An invertible matrix of fractions with denominators 2..7, then a
    permutation matrix with nonzero scalars in place of its ones."""
    while True:
        dense = [[rand_proper_fraction(rng, field) for _ in range(n)] for _ in range(n)]
        if invert_matrix(dense, field) is not None:
            break
    perm = rng.sample(range(n), n)
    scaled = [[rand_proper_fraction(rng, field, nonzero=True) if i == perm[p]
               else field.zero for i in range(n)] for p in range(n)]
    return dense, scaled


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(10007)], ids=str)
def test_change_basis_matches_entrywise_oracle(field):
    # n = 2 and 3, homogeneous rules and non-homogeneous ones with
    # fractional coefficients, dense and permutation matrices
    rng = random.Random(6400)
    for t in range(16):
        n = 2 + t % 2
        make = random_fraction_rule if t % 4 < 2 else random_homogeneous_rule
        rule = make(rng, n, field)
        for alpha in _change_matrices(rng, n, field):
            got = rule.change_basis(alpha)
            assert got == dense_change_basis(rule, alpha)
            assert all(type(c) is type(field.one) for m in got.images
                       for r in m.rows for e in r for c in e.terms.values())


def test_substitute_generators_is_a_homomorphism():
    rng = random.Random(27)
    mat = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1)]]
    for _ in range(40):
        p = random_poly(rng, 2, 3)
        q = random_poly(rng, 2, 3)
        assert substitute_generators(p * q, mat) == (
            substitute_generators(p, mat) * substitute_generators(q, mat))
        assert substitute_generators(p + q, mat) == (
            substitute_generators(p, mat) + substitute_generators(q, mat))
    assert substitute_generators(NCPoly.one(2), mat) == NCPoly.one(2)


def test_apply_memoization_is_stable():
    r = builtin("ex3.5", mu=1, lam=1)
    p = random_poly(random.Random(28), 2, 4)
    first = r.apply(p)
    assert r.apply(p) == first


def test_apply_on_long_words():
    x1 = NCPoly.gen(2, 1)
    m = 1500
    # under the zero rule A(w) = 0 for every nonempty word
    zero_rule = builtin("ex3.2-zero", n=2)
    assert zero_rule.apply(x1**m + NCPoly.constant(2, 3)) == MatrixPoly.identity(2).scale(3)
    # the diagonal rule gives A(x1^m) = diag(q[1][1]^m, q[2][1]^m) * x1^m
    diag = builtin("ex3.1-diag", q=[[3, 2], [Fraction(1, 2), 3]])
    z = NCPoly.zero(2)
    assert diag.apply(x1**m) == MatrixPoly([[3**m * x1**m, z],
                                            [z, Fraction(1, 2**m) * x1**m]])


def test_apply_on_words_is_the_product_of_images():
    # every word of length 0..7, drawn in random order: A(w) is the
    # product of its letters' images
    rng = random.Random(6300)
    rule = builtin("ex3.5", mu=2, lam=-1)
    for _ in range(40):
        w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 7)))
        expected = MatrixPoly.identity(2)
        for a in w:
            expected = expected * rule.image(a)
        assert rule.apply(NCPoly.from_word(2, w)) == expected


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(10007)], ids=str)
def test_apply_matches_matrix_products(field):
    # images with denominators 2..7 (L > 1 over Q), constants and
    # quadratic terms (non-homogeneous rules); over F_2 and F_3 many sums
    # cancel
    rng = random.Random(6301)
    for _ in range(30):
        n = rng.randint(1, 3)
        rule = random_fraction_rule(rng, n, field)
        for _ in range(2):
            f = random_fraction_poly(rng, n, 4, field)
            got = rule.apply(f)
            assert got == matrix_apply(rule, f)
            assert all(type(c) is type(field.one) for r in got.rows
                       for e in r for c in e.terms.values())


@pytest.mark.parametrize("p", [2, 3])
def test_apply_sums_that_vanish_mod_p(p):
    # x1 and x2 share the image x1 at (1, 1), so the first-letter pass
    # adds p equal terms into one entry: zero in F_p, not over Q
    entries = [(1, 1, 1, 1, 1), (1, 2, 1, 1, 1)]
    for field in (GF(p), QQ):
        rule = CommRule.from_tensor(2, entries, field)
        x1, x2 = NCPoly.gen(2, 1, field), NCPoly.gen(2, 2, field)
        for f in (x1 + field.of(p - 1) * x2, x1 * x1 + field.of(p - 1) * x2 * x1):
            got = rule.apply(f)
            assert got == matrix_apply(rule, f)
            assert got.is_zero() == (field is not QQ)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_apply_refuses_invalid_letters(field):
    rule = builtin("ex3.5", field, mu=1, lam=1)
    form = OneForm.basis(2, 1, field)
    y = VectorField.basis(2, 1, field)
    for w in ((0,), (3,), (1, 2, 0), (1, 3, 2)):
        bad = next(a for a in w if not 1 <= a <= 2)
        f = NCPoly(2, field, {w: field.one})
        for call in (lambda: rule.apply(f),
                     lambda: left_mul_form(rule, f, form),
                     lambda: vf_right_action(rule, y, f)):
            with pytest.raises(ValueError, match=f"letter {bad} out of range 1..2"):
                call()


def test_prime_field_rule():
    F = GF(10007)
    q = [[F.of(3), F.of(2)], [F.of(1) / F.of(2), F.of(3)]]
    r = builtin("ex3.1-diag", field=F, q=q)
    assert r.field is F
    x1 = NCPoly.gen(2, 1, F)
    assert partial(r, 1, x1 * x1 * x1) == F.of(13) * (x1 * x1)


def test_image_count_must_match():
    with pytest.raises(ValueError):
        CommRule([MatrixPoly.zero(2)])
