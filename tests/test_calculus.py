import random
from fractions import Fraction

import pytest

from nccalc import (
    GF,
    FpElement,
    QQ,
    CommRule,
    MatrixPoly,
    NCPoly,
    OneForm,
    Subspace,
    VectorField,
    builtin,
    differential,
    ideal_component,
    left_mul_form,
    pairing,
    partial,
    vf_apply,
    vf_right_action,
    word_partials,
)
from nccalc.commrule import _int_images, _int_terms, _poly, _walk
from nccalc.examples import build_example
from nccalc.freealg import format_poly, index_word, word_index
from nccalc.optimal import _normal_step, _unit_partials
from nccalc.rulefile import parse_rule_dict
from helpers import (
    field_partials,
    matrix_apply,
    partial_rightmost,
    random_any_rule,
    random_fraction_poly,
    random_fraction_rule,
    random_homogeneous_rule,
    random_poly,
    random_q_grid,
    rand_proper_fraction,
    rule_over,
    word_table_partials,
)

FP = GF(10007)


def gens(n):
    return [NCPoly.gen(n, i) for i in range(1, n + 1)]


def delta(n, i, k):
    return NCPoly.one(n) if i == k else NCPoly.zero(n)


def test_generators_and_constants():
    rng = random.Random(30)
    for n in (2, 3):
        r = random_any_rule(rng, n)
        for k in range(1, n + 1):
            assert partial(r, k, NCPoly.one(n)) == NCPoly.zero(n)
            assert partial(r, k, NCPoly.zero(n)) == NCPoly.zero(n)
            for i in range(1, n + 1):
                assert partial(r, k, NCPoly.gen(n, i)) == delta(n, i, k)


def test_q_power_fixture():
    q = [[3, 2], [Fraction(1, 2), 3]]
    r = builtin("ex3.1-diag", q=q)
    x1 = NCPoly.gen(2, 1)
    # 1 + 3 + 9 = 13
    assert partial(r, 1, x1**3) == 13 * x1**2
    assert partial(r, 2, x1**3) == NCPoly.zero(2)


def test_q_power_identity_random():
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(6):
            q = random_q_grid(rng, n)
            r = builtin("ex3.1-diag", q=q)
            for j in range(1, n + 1):
                xj = NCPoly.gen(n, j)
                for m in range(1, 5):
                    qjj = q[j - 1][j - 1]
                    qint = sum((qjj**t for t in range(m)), Fraction(0))
                    for k in range(1, n + 1):
                        want = qint * xj**(m - 1) if k == j else NCPoly.zero(n)
                        assert partial(r, k, xj**m) == want


def test_split_rule_cube_fixture():
    x1, x2 = gens(2)
    for mu in (Fraction(1), Fraction(2), Fraction(-3)):
        r = builtin("ex3.5", mu=mu, lam=1)
        got = partial(r, 1, x1**3)
        free_value = x1 * x1 + mu * (x2 * x1) + mu**2 * (x2 * x2)
        assert got == free_value
        # modulo the span of x1x2 and x2x1 the middle term dies, leaving
        # the square-sum shape of the quotient calculus
        J2 = ideal_component([x1 * x2, x2 * x1], 2, n=2, field=QQ)
        reduced = NCPoly.from_coords(2, 2, J2.reduce(got.coords(2)))
        assert reduced == x1 * x1 + mu**2 * (x2 * x2)


def test_zero_rule_picks_left_coefficient():
    r = builtin("ex3.2-zero", n=3)
    rng = random.Random(32)
    for _ in range(30):
        parts = [random_poly(rng, 3, 2) for _ in range(3)]
        u = NCPoly.zero(3)
        for i, ui in enumerate(parts, start=1):
            u = u + NCPoly.gen(3, i) * ui
        for k in (1, 2, 3):
            assert partial(r, k, u) == parts[k - 1]
    r2 = builtin("ex3.2-zero", n=2)
    assert vf_apply(r2, VectorField.basis(2, 1, QQ),
                    NCPoly.gen(2, 1) * NCPoly.gen(2, 1)) == NCPoly.gen(2, 1)


def test_sign_flip_kills_degree_two():
    r = builtin("ex3.3-minus", n=2)
    for i in (1, 2):
        for j in (1, 2):
            w = NCPoly.gen(2, i) * NCPoly.gen(2, j)
            assert differential(r, w) == OneForm.zero(2, QQ)


def test_differential_fixtures():
    rng = random.Random(33)
    r = random_any_rule(rng, 2)
    assert differential(r, NCPoly.one(2)) == OneForm.zero(2, QQ)
    for i in (1, 2):
        assert differential(r, NCPoly.gen(2, i)) == OneForm.basis(2, i, QQ)


def test_leibniz_law_random():
    rng = random.Random(34)
    for n in (2, 3):
        for make in (random_homogeneous_rule, random_any_rule):
            for _ in range(40):
                r = make(rng, n)
                u = random_poly(rng, n, 3)
                v = random_poly(rng, n, 3)
                m = r.apply(u)
                for k in range(1, n + 1):
                    rhs = partial(r, k, u) * v
                    for i in range(1, n + 1):
                        rhs = rhs + m.entry(k, i) * partial(r, i, v)
                    assert partial(r, k, u * v) == rhs


def test_rightmost_route_agrees():
    # independent recursion anchored at the last letter
    rng = random.Random(35)
    for n in (2, 3):
        for _ in range(50):
            r = random_any_rule(rng, n)
            f = random_poly(rng, n, 4)
            k = rng.randint(1, n)
            assert partial(r, k, f) == partial_rightmost(r, k, f)


def test_degree_bookkeeping():
    rng = random.Random(36)
    for _ in range(30):
        r = random_homogeneous_rule(rng, 2)
        s = rng.randint(1, 4)
        f = random_poly(rng, 2, s, homogeneous=s)
        for k in (1, 2):
            d = partial(r, k, f)
            assert d.is_homogeneous(s - 1)


def test_word_partials_tuple():
    r = builtin("ex3.5", mu=1, lam=1)
    parts = word_partials(r, (1, 2))
    assert len(parts) == 2
    for k in (1, 2):
        assert parts[k - 1] == partial(r, k, NCPoly.from_word(2, (1, 2)))


def test_word_partials_reads_an_iterator_once():
    # the letter check must not use up a word given as an iterator
    r = build_example("thm4.1-I")
    want = word_partials(r, (1, 2))
    assert [format_poly(d) for d in want] == ["x1 + x2", "x1 + 2*x2"]
    assert word_partials(r, iter([1, 2])) == want
    assert word_partials(r, (a for a in (1, 2))) == want


def test_partial_validates_arguments():
    r = builtin("ex3.2-zero", n=2)
    with pytest.raises(ValueError):
        partial(r, 0, NCPoly.gen(2, 1))
    with pytest.raises(ValueError):
        partial(r, 3, NCPoly.gen(2, 1))
    with pytest.raises(ValueError):
        partial(r, 1, NCPoly.gen(3, 1))


def test_one_form_module_structure():
    rng = random.Random(37)
    r = random_any_rule(rng, 2)
    f = random_poly(rng, 2, 2)
    g = random_poly(rng, 2, 2)
    # d(fg) = df*g + f*dg with the twisted left action
    lhs = differential(r, f * g)
    rhs = differential(r, f).right_mul(g) + left_mul_form(r, f, differential(r, g))
    assert lhs == rhs


def test_forms_and_vector_fields_stay_distinct():
    comps = (NCPoly.gen(2, 1), NCPoly.from_word(2, (2, 1)))
    w, y = OneForm(comps), VectorField(comps)
    assert w != y and y != w
    with pytest.raises(TypeError):
        w + y
    with pytest.raises(TypeError):
        y - w
    assert repr(w) == "<OneForm (x1, x2*x1)>"
    assert repr(y) == "<VectorField (x1, x2*x1)>"
    assert 2 * w == w + w and isinstance(2 * y, VectorField)
    for cls, noun in ((OneForm, "form"), (VectorField, "vector field")):
        with pytest.raises(ValueError, match=f"^a {noun} needs at least one component"):
            cls(())
        with pytest.raises(ValueError, match=f"^{noun} components disagree on algebra"):
            cls((NCPoly.gen(2, 1), NCPoly.gen(3, 1)))


def test_left_mul_form_fixtures():
    rng = random.Random(38)
    r = random_any_rule(rng, 2)
    omega = differential(r, random_poly(rng, 2, 2))
    assert left_mul_form(r, NCPoly.one(2), omega) == omega
    rz = builtin("ex3.2-zero", n=2)
    f = NCPoly.gen(2, 1) + NCPoly.from_word(2, (2, 2))
    assert left_mul_form(rz, f, omega) == OneForm.zero(2, QQ)


def test_vector_field_fixtures():
    rng = random.Random(39)
    r = random_any_rule(rng, 2)
    d1 = VectorField.basis(2, 1, QQ)
    assert vf_apply(r, d1, NCPoly.gen(2, 1)) == NCPoly.one(2)
    assert vf_apply(r, VectorField.zero(2, QQ),
                    random_poly(rng, 2, 3)) == NCPoly.zero(2)
    y = VectorField((random_poly(rng, 2, 2), random_poly(rng, 2, 2)))
    assert vf_right_action(r, y, NCPoly.one(2)) == y


def test_twisted_leibniz_for_vector_fields():
    rng = random.Random(40)
    for n in (2, 3):
        for _ in range(40):
            r = random_any_rule(rng, n)
            y = VectorField(tuple(random_poly(rng, n, 2) for _ in range(n)))
            u = random_poly(rng, n, 2)
            v = random_poly(rng, n, 2)
            lhs = vf_apply(r, y, u * v)
            rhs = vf_apply(r, y, u) * v + vf_apply(r, vf_right_action(r, y, u), v)
            assert lhs == rhs


def test_pairing_duality_and_bilinearity():
    rng = random.Random(41)
    for i in (1, 2):
        for k in (1, 2):
            got = pairing(VectorField.basis(2, k, QQ), OneForm.basis(2, i, QQ))
            assert got == delta(2, i, k)
    zero_y = VectorField.zero(2, QQ)
    zero_w = OneForm.zero(2, QQ)
    for _ in range(30):
        y1 = VectorField(tuple(random_poly(rng, 2, 2) for _ in range(2)))
        y2 = VectorField(tuple(random_poly(rng, 2, 2) for _ in range(2)))
        w1 = OneForm(tuple(random_poly(rng, 2, 2) for _ in range(2)))
        w2 = OneForm(tuple(random_poly(rng, 2, 2) for _ in range(2)))
        c = Fraction(rng.randint(-3, 3))
        assert pairing(y1 + c * y2, w1) == pairing(y1, w1) + c * pairing(y2, w1)
        assert pairing(y1, w1 + c * w2) == pairing(y1, w1) + c * pairing(y1, w2)
        assert pairing(zero_y, w1) == NCPoly.zero(2)
        assert pairing(y1, zero_w) == NCPoly.zero(2)


def test_pairing_adjunction():
    rng = random.Random(42)
    for n in (2, 3):
        for _ in range(40):
            r = random_any_rule(rng, n)
            y = VectorField(tuple(random_poly(rng, n, 2) for _ in range(n)))
            w = OneForm(tuple(random_poly(rng, n, 2) for _ in range(n)))
            f = random_poly(rng, n, 2)
            lhs = pairing(vf_right_action(r, y, f), w)
            rhs = pairing(y, left_mul_form(r, f, w))
            assert lhs == rhs


def test_module_operations_refuse_other_algebras():
    # a second algebra differs from the rule's in its generator count or
    # in its field; every operation checks before it computes
    r = builtin("ex3.5", mu=1, lam=1)
    f = NCPoly.gen(2, 1)
    for n, field in ((3, QQ), (2, GF(7))):
        w = OneForm.basis(n, 1, field)
        y = VectorField.basis(n, 1, field)
        with pytest.raises(ValueError, match="^form and rule disagree on algebra$"):
            left_mul_form(r, f, w)
        with pytest.raises(ValueError, match="^vector field and rule disagree on algebra$"):
            vf_apply(r, y, f)
        with pytest.raises(ValueError, match="^vector field and rule disagree on algebra$"):
            vf_right_action(r, y, f)
        with pytest.raises(ValueError, match="^vector field and form disagree on algebra$"):
            pairing(y, OneForm.basis(2, 1, QQ))
        with pytest.raises(ValueError, match="^vector field and form disagree on algebra$"):
            pairing(VectorField.basis(2, 1, QQ), w)


def test_differential_components_are_partials():
    rng = random.Random(43)
    r = random_any_rule(rng, 2)
    f = random_poly(rng, 2, 3)
    omega = differential(r, f)
    for k in (1, 2):
        assert omega.components[k - 1] == partial(r, k, f)


def _non_homogeneous_rule(field):
    """Image entries with constant terms and degree-2 terms."""
    x1, x2 = NCPoly.gen(2, 1, field), NCPoly.gen(2, 2, field)
    one, zero = NCPoly.one(2, field), NCPoly.zero(2, field)
    a1 = MatrixPoly([[one + x2, 2 * (x1 * x2)], [zero, x1 - 3 * one]])
    a2 = MatrixPoly([[x2 * x2, zero], [one, x1 + x2 * x1]])
    return CommRule([a1, a2])


def _oracle_rules(field):
    rules = [build_example(name, field)
             for name in ("thm4.1-I", "thm4.1-II", "thm4.1-III", "thm4.1-IV")]
    # a criterion-9 style n=3 draw
    rules.append(rule_over(random_homogeneous_rule(random.Random(9403), 3), field))
    rules.append(_non_homogeneous_rule(field))
    return rules


def _oracle_polys(rng, n, field, top):
    xs = [NCPoly.gen(n, i, field) for i in range(1, n + 1)]
    polys = []
    # dense powers of a seeded linear form, the constant 1 included
    lin = NCPoly.zero(n, field)
    for x in xs:
        lin = lin + rng.choice((-3, -2, -1, 1, 2, 3)) * x
    polys += [lin ** d for d in range(top + 1)]
    # sparse: a few long words
    polys += [random_poly(rng, n, 9, field, min_deg=4) for _ in range(6)]
    # mixed degrees with a constant term
    polys += [NCPoly.constant(n, rng.randint(1, 5), field) + random_poly(rng, n, 6, field)
              for _ in range(4)]
    return polys


@pytest.mark.parametrize("field", [QQ, FP], ids=["Q", "Fp10007"])
def test_prefix_trie_pass_matches_word_table(field):
    rng = random.Random(3700)
    for rule in _oracle_rules(field):
        n = rule.n
        top = 4 if n == 3 else (7 if rule.homogeneous else 5)
        for f in _oracle_polys(rng, n, field, top):
            # the pass over the whole trie and the walk once per word, each
            # against the oracle on field elements
            want = field_partials(rule, f)
            assert word_table_partials(rule, f) == want
            assert [partial(rule, k, f) for k in range(1, n + 1)] == want
            assert list(differential(rule, f).components) == want
            y = VectorField(random_poly(rng, n, 2, field) for _ in range(n))
            expected = NCPoly.zero(n, field)
            for c, d in zip(y.components, want):
                expected = expected + c * d
            assert vf_apply(rule, y, f) == expected
    assert not _non_homogeneous_rule(field).homogeneous


def test_long_words_need_no_recursion():
    # D_1(x1^m) = (1 + q + ... + q^(m-1)) * x1^(m-1) for the diagonal rule
    r = builtin("ex3.1-diag", q=[[3, 2], [Fraction(1, 2), 3]])
    x1 = NCPoly.gen(2, 1)
    m = 2000
    assert partial(r, 1, x1**m) == Fraction(3**m - 1, 2) * x1**(m - 1)
    assert partial(r, 2, x1**m) == NCPoly.zero(2)


def test_word_partials_of_long_words():
    # under the zero rule D_k(x^a * w) = delta_ak * w
    r = builtin("ex3.2-zero", n=2)
    m = 1500
    ones = (1,) * m
    assert word_partials(r, ones) == (NCPoly.from_word(2, ones[1:]), NCPoly.zero(2))
    assert word_partials(r, (2,) + ones) == (NCPoly.zero(2), NCPoly.from_word(2, ones))


def test_word_partials_table_matches_whole_polynomial_derivatives():
    # the derivatives of every suffix of random words, long and short,
    # equal the rightmost-letter derivatives of that suffix
    rng = random.Random(6200)
    for name in ("thm4.1-I", "ex3.5"):
        rule = build_example(name)
        for _ in range(40):
            w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 7)))
            for i in range(len(w) + 1):
                f = NCPoly.from_word(2, w[i:])
                assert word_partials(rule, w[i:]) == tuple(partial_rightmost(rule, k, f)
                                                           for k in (1, 2))


def _same_terms(got, want):
    """Equal polynomials whose coefficients all have the field's own type."""
    kind = Fraction if got.field == QQ else FpElement
    assert got.terms == want.terms
    assert all(type(c) is kind for c in got.terms.values())


@pytest.mark.parametrize("field", [QQ, FP, GF(2), GF(3)],
                         ids=["Q", "Fp10007", "Fp2", "Fp3"])
def test_fractional_draws_match_rightmost_oracle(field):
    # rules and polynomials with denominators 2..7 exercise the scaling by
    # the lcm of the image denominators and of the polynomial's; over F_2
    # and F_3 the integer sums often cancel modulo p
    rng = random.Random(9100 + (field.p or 0))
    for n in (2, 2, 2, 3):
        rule = random_fraction_rule(rng, n, field)
        polys = [NCPoly.zero(n, field)]
        polys += [random_fraction_poly(rng, n, 4 if n == 2 else 3, field) for _ in range(6)]
        for f in polys:
            want = [partial_rightmost(rule, k, f) for k in range(1, n + 1)]
            assert field_partials(rule, f) == want
            for k in range(1, n + 1):
                _same_terms(partial(rule, k, f), want[k - 1])
            for got, w in zip(differential(rule, f).components, want):
                _same_terms(got, w)
            for got, w in zip(word_table_partials(rule, f), want):
                _same_terms(got, w)
            y = VectorField(random_fraction_poly(rng, n, 2, field) for _ in range(n))
            expected = NCPoly.zero(n, field)
            for c, d in zip(y.components, want):
                expected = expected + c * d
            _same_terms(vf_apply(rule, y, f), expected)


@pytest.mark.parametrize("field", [QQ, FP, GF(2), GF(3)],
                         ids=["Q", "Fp10007", "Fp2", "Fp3"])
def test_one_walk_yields_images_and_derivatives(field):
    # the walk that carries A's columns and D's column together is the
    # triangular homomorphism f -> [[A(f), D(f)], [0, f]]: both halves
    # against the oracles, on one scale, from and to graded columns.
    # Non-homogeneous rules (constant and degree-2 image terms) put
    # several degrees in a place; mixed-degree, constant and zero
    # polynomials included, and each half alone is the same walk's half
    rng = random.Random(9300 + (field.p or 0))
    rules = [random_fraction_rule(rng, n, field) for n in (2, 2, 3)]
    rules += [_non_homogeneous_rule(field), build_example("thm4.1-I", field)]
    for rule in rules:
        n = rule.n
        polys = [NCPoly.zero(n, field),
                 NCPoly.constant(n, rand_proper_fraction(rng, field, nonzero=True), field)]
        polys += [random_fraction_poly(rng, n, 4 if n == 2 else 3, field) for _ in range(5)]
        polys += [NCPoly.constant(n, rand_proper_fraction(rng, field, nonzero=True), field)
                  + random_poly(rng, n, 5, field, min_deg=1) for _ in range(2)]
        for f in polys:
            terms, den = _int_terms(rule, f)
            assert {(e, index_word(c, e, n)) for e, cols in terms.items() for c in cols} \
                == {(len(w), w) for w in f.terms}
            cols, scale = _walk(rule, terms, den, True, True)
            assert len(cols) == n * n + n
            for graded in cols:
                assert all(0 <= c < n ** e for e, part in graded.items() for c in part)
            got = [_poly(rule, c, scale) for c in cols]
            want = matrix_apply(rule, f)
            parts = field_partials(rule, f)
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    _same_terms(got[(i - 1) * n + k - 1], want.entry(k, i))
                _same_terms(got[n * n + k - 1], partial_rightmost(rule, k, f))
                assert got[n * n + k - 1] == parts[k - 1]
            images, iscale = _walk(rule, terms, den, True, False)
            assert [_poly(rule, c, iscale) for c in images] == got[:n * n]
            partials, dscale = _walk(rule, terms, den, False, True)
            assert [_poly(rule, c, dscale) for c in partials] == got[n * n:]


@pytest.mark.parametrize("p", [2, 3])
def test_sums_that_vanish_mod_p(p):
    # the commutative rule: D_1(x1^p) = p * x1^(p-1), zero in F_p
    field = GF(p)
    rule = builtin("ex3.1-diag", field, q=[[1, 1], [1, 1]])
    x1 = NCPoly.gen(2, 1, field)
    assert partial(rule, 1, x1 ** p) == NCPoly.zero(2, field)
    assert word_partials(rule, (1,) * p) == (NCPoly.zero(2, field),) * 2
    assert partial(rule, 1, x1 ** (p + 1)) == x1 ** p


def test_invalid_letters_are_refused():
    rule = build_example("thm4.1-I")
    for w in ((0,), (3,), (1, 2, 0), (1, 3, 2)):
        bad = next(a for a in w if not 1 <= a <= 2)
        with pytest.raises(ValueError, match=f"letter {bad} out of range 1..2"):
            word_partials(rule, w)
        with pytest.raises(ValueError, match=f"letter {bad} out of range 1..2"):
            NCPoly.from_word(2, w)
        # a polynomial built around from_word is refused by the derivative
        with pytest.raises(ValueError, match=f"letter {bad} out of range 1..2"):
            partial(rule, 1, NCPoly(2, QQ, {w: Fraction(1)}))


# a diagonal rule whose image denominators have lcm L = 420
_Q_GRID = [[Fraction(2, 3), Fraction(5, 7)], [Fraction(7, 5), Fraction(3, 4)]]


def _geometric(q, m):
    return (1 - q ** m) / (1 - q)


def test_long_words_under_a_scaled_rule():
    # D_k(x^a * w) = delta_ak * w + q[k][a] * x^a * D_k(w) for the diagonal
    # rule, so D(x1^a * x2^b) has a closed form; words of 1600 letters carry
    # L^1599, an int of about 4200 digits, and need no recursion
    rule = builtin("ex3.1-diag", q=_Q_GRID)
    assert rule._int_images is None
    (q11, q12), (q21, q22) = _Q_GRID
    a, b = 900, 700
    w = (1,) * a + (2,) * b
    d1 = _geometric(q11, a) * NCPoly.from_word(2, w[1:])
    d2 = q21 ** a * _geometric(q22, b) * NCPoly.from_word(2, w[:-1])
    assert word_partials(rule, w) == (d1, d2)
    assert rule._int_images[0] == 420
    # one letter more
    x2 = NCPoly.gen(2, 2)
    assert word_partials(rule, (2,) + w) == (q12 * x2 * d1,
                                             NCPoly.from_word(2, w) + q22 * x2 * d2)
    # the prefix-trie pass on a fractional polynomial of long words
    v = (2,) * 1500
    f = Fraction(3, 5) * NCPoly.from_word(2, w) - Fraction(1, 6) * NCPoly.from_word(2, v)
    fresh = builtin("ex3.1-diag", q=_Q_GRID)
    assert partial(fresh, 1, f) == Fraction(3, 5) * d1
    assert partial(fresh, 2, f) == (Fraction(3, 5) * d2 - Fraction(1, 6)
                                    * _geometric(q22, 1500) * NCPoly.from_word(2, v[1:]))


def test_long_word_prefix_matches_oracle():
    # a 1500-letter word of one letter after a 200-letter mixed prefix;
    # the prefix alone is checked against the rightmost-letter oracle and
    # the whole word against the closed form of the diagonal rule
    rng = random.Random(1500)
    rule = builtin("ex3.1-diag", q=_Q_GRID)
    prefix = tuple(rng.randint(1, 2) for _ in range(200))
    w = prefix + (1,) * 1300
    parts = word_partials(rule, w)
    f = NCPoly.from_word(2, prefix)
    assert word_partials(rule, prefix) == tuple(
        partial_rightmost(rule, k, f) for k in (1, 2))
    for k in (1, 2):
        want = NCPoly.zero(2)
        c = Fraction(1)
        for i, a in enumerate(w):
            if a == k:
                want = want + c * NCPoly.from_word(2, w[:i] + w[i + 1:])
            c *= _Q_GRID[k - 1][a - 1]
        assert parts[k - 1] == want
        assert partial(builtin("ex3.1-diag", q=_Q_GRID), k, NCPoly.from_word(2, w)) == want


# the three-generator rule of the free-quotient CI steps
_RULE3 = [[["y", "-x", "0"], ["0", "z", "x"], ["1/2*z", "0", "y"]],
          [["x", "0", "-z"], ["y", "y", "0"], ["0", "x", "z"]],
          [["0", "z", "x"], ["-y", "0", "x"], ["z", "y", "0"]]]


def _column_table_rule(name):
    if name == "thm4.1-I-moved":
        moved = build_example("thm4.1-I").change_basis([[1, Fraction(1, 2)],
                                                        [Fraction(1, 3), 1]])
        assert _int_images(moved)[0] == 450
        return moved
    if name == "F3":
        doc = {"n": 2, "field": "Fp:3", "vars": ["x1", "x2"],
               "A": [[["x2", "-x2"], ["0", "0"]], [["0", "0"], ["-x1", "x1"]]]}
        return parse_rule_dict(doc).rule
    if name.startswith("n3-"):
        doc = {"n": 3, "field": name[3:], "vars": ["x", "y", "z"], "A": _RULE3}
        return parse_rule_dict(doc).rule
    return build_example(name)


@pytest.mark.parametrize("name", ["thm4.1-I", "ex3.5", "thm4.1-I-moved", "F3",
                                  "n3-Fp:10007", f"n3-Fp:{2**61 - 1}"])
def test_column_table_matches_word_partials(name):
    # the table compute_U builds: modulo zero subspaces every word is
    # normal, so the table holds the exact derivatives over its den
    rule, words = (_column_table_rule(name) for _ in range(2))
    n, field = rule.n, rule.field
    p = field.p
    known = _unit_partials(n)
    for m in range(2, 6):
        prev = Subspace.zero(n, m - 1, field)
        known = _normal_step(rule, prev, known, range(n ** m), True)
        table, den = known
        assert sorted(table) == list(range(n ** m))
        for col, got in table.items():
            want = [{word_index(u, m - 1, n): x for u, x in d.terms.items()}
                    for d in word_partials(words, index_word(col, m, n))]
            if p is None:
                got = [{c: Fraction(x, den) for c, x in d.items()} for d in got]
            else:
                assert den == 1
                want = [{c: x.val for c, x in d.items()} for d in want]
            assert got == want
