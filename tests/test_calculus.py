import random
from fractions import Fraction

import pytest

from nccalc import (
    QQ,
    NCPoly,
    OneForm,
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
from helpers import (
    partial_rightmost,
    random_any_rule,
    random_homogeneous_rule,
    random_poly,
    random_q_grid,
)


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


def test_differential_components_are_partials():
    rng = random.Random(43)
    r = random_any_rule(rng, 2)
    f = random_poly(rng, 2, 3)
    omega = differential(r, f)
    for k in (1, 2):
        assert omega.components[k - 1] == partial(r, k, f)
