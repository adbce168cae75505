import random
from fractions import Fraction

import pytest

from nccalc import (
    GF,
    QQ,
    FreeAlgebra,
    NCPoly,
    all_words,
    default_names,
    format_poly,
    index_word,
    parse_expr,
    word_index,
)
from nccalc.freealg import dot, format_columns, graded_columns
from helpers import oracle_format_poly, random_poly


def gens(n):
    return [NCPoly.gen(n, i) for i in range(1, n + 1)]


def test_word_index_fixtures():
    assert word_index((1, 1), 2, 2) == 0
    assert word_index((2, 1), 2, 2) == 2
    assert word_index((1, 2, 3), 3, 3) == 5


def test_word_index_bijection():
    for n in (2, 3):
        for s in range(0, 5):
            words = list(all_words(s, n))
            assert len(words) == n**s
            for idx, w in enumerate(words):
                assert word_index(w, s, n) == idx
                assert index_word(idx, s, n) == w


def test_product_fixtures():
    x1, x2 = gens(2)
    assert x1 * x2 == NCPoly.from_word(2, (1, 2))
    lhs = (x1 + x2) * (x1 - x2)
    expect = (NCPoly.from_word(2, (1, 1)) - NCPoly.from_word(2, (1, 2))
              + NCPoly.from_word(2, (2, 1)) - NCPoly.from_word(2, (2, 2)))
    assert lhs == expect
    p = random_poly(random.Random(0), 2, 3)
    assert NCPoly.one(2) * p == p
    assert p * NCPoly.one(2) == p


def test_additive_fixtures():
    x1, x2 = gens(2)
    assert x1 + (-1) * x1 == NCPoly.zero(2)
    w = x1 * x2
    assert 2 * w + w == 3 * w
    p = random_poly(random.Random(1), 2, 3)
    assert 0 * p == NCPoly.zero(2)


def test_no_stored_zero_coefficients():
    rng = random.Random(2)
    for _ in range(50):
        p = random_poly(rng, 2, 3)
        q = p - p
        assert not q.terms
        assert q == NCPoly.zero(2)
        for c in (p + q).terms.values():
            assert c != 0


def test_degree_bookkeeping():
    x1, x2 = gens(2)
    assert NCPoly.zero(2).degree() is None
    assert NCPoly.one(2).degree() == 0
    assert (x1 * x2 * x1).degree() == 3
    p = NCPoly.one(2) + x1 + x1 * x2
    assert p.degree() == 2
    assert not p.is_homogeneous()
    assert (x1 * x2).is_homogeneous(2)
    assert NCPoly.zero(2).is_homogeneous()
    assert NCPoly.zero(2).is_homogeneous(5)


def test_homogeneous_component_fixtures():
    x1, x2 = gens(2)
    p = NCPoly.one(2) + x1 + x1 * x2
    assert p.homogeneous_component(1) == x1
    assert NCPoly.zero(2).homogeneous_component(3) == NCPoly.zero(2)
    q = 3 * NCPoly.from_word(2, (1, 1))
    assert q.homogeneous_component(2) == q
    assert q.homogeneous_component(1) == NCPoly.zero(2)


def test_ring_axioms_random():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(60):
            p = random_poly(rng, n, 2)
            q = random_poly(rng, n, 2)
            r = random_poly(rng, n, 2)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (p + q) * r == p * r + q * r
            assert p + q == q + p
            c = Fraction(rng.randint(-3, 3))
            assert c * (p * q) == (c * p) * q == p * (c * q)


def test_pow():
    x1, _ = gens(2)
    assert x1**0 == NCPoly.one(2)
    assert x1**3 == NCPoly.from_word(2, (1, 1, 1))
    p = x1 + NCPoly.gen(2, 2)
    assert p**3 == p * p * p


def test_coords_round_trip():
    rng = random.Random(4)
    for n in (2, 3):
        for s in (1, 2, 3):
            p = random_poly(rng, n, s, homogeneous=s)
            vec = p.coords(s)
            assert len(vec) == n**s
            assert NCPoly.from_coords(n, s, vec) == p
    x1 = NCPoly.gen(2, 1)
    with pytest.raises(ValueError):
        (x1 + x1 * x1).coords(2)


def test_format_canonical_order_and_runs():
    x1, x2 = gens(2)
    assert format_poly(NCPoly.zero(2)) == "0"
    assert format_poly(x1 - x2) == "x1 - x2"
    assert format_poly(-x1) == "-x1"
    assert format_poly(NCPoly.one(2) + x1) == "1 + x1"
    assert format_poly(x1**3 * x2) == "x1^3*x2"
    assert format_poly(NCPoly.constant(2, Fraction(-3, 2))) == "-3/2"
    assert format_poly(Fraction(1, 2) * x2 * x1) == "1/2*x2*x1"
    # lower degree first, then positional word order
    p = x2 * x1 + x1 * x2 + x1
    assert format_poly(p) == "x1 + x1*x2 + x2*x1"


def test_format_parse_round_trip():
    rng = random.Random(5)
    names = default_names(3)
    for _ in range(100):
        p = random_poly(rng, 3, 3)
        text = format_poly(p, names)
        assert parse_expr(text, names) == p


def test_custom_names():
    x1, x2 = gens(2)
    assert format_poly(x1 * x2, ["a", "b"]) == "a*b"
    assert default_names(2) == ("x1", "x2")


def _printer_coefficient(rng, field):
    # negative, fractional and unit values; over F_p no denominator that p divides
    while True:
        num, den = rng.choice((1, -1, rng.randint(-30, 30))), rng.randint(1, 7)
        if num and (field.p is None or den % field.p):
            return field.of(Fraction(num, den))


def _printer_word(rng, n, length):
    # runs of a repeated letter, such as x1^3, are common
    w = []
    while len(w) < length:
        w += [rng.randint(1, n)] * rng.randint(1, 4)
    return tuple(w[:length])


def _printer_polys(rng, field):
    """Seeded polynomials for the printer: mixed degrees with constants,
    and 1,500-letter words that share prefixes of every length."""
    for trial in range(150):
        n = rng.choice((1, 2, 3))
        terms = {}
        if rng.random() < 0.5:
            terms[()] = _printer_coefficient(rng, field)
        for _ in range(rng.randint(0, 9)):
            w = _printer_word(rng, n, rng.choice((1, 2, 3, 5, 8)))
            terms[w] = _printer_coefficient(rng, field)
        yield NCPoly(n, field, terms)
    for n in (1, 2, 3):
        base = _printer_word(rng, n, 1500)
        words = {base, base[:1499] + (n,), base[:700] + base[701:] + (1,)}
        for cut in sorted(rng.sample(range(1500), 12)):
            words.add(base[:cut] + _printer_word(rng, n, 1500 - cut))
        words.add(base[:800])
        yield NCPoly(n, field, {w: _printer_coefficient(rng, field) for w in words})


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(10007)],
                         ids=["Q", "Fp2", "Fp3", "Fp10007"])
def test_printer_matches_the_oracle(field):
    # format_poly and the int printer it adapts, against the field-element
    # printer, with default and custom names; the int printer also on
    # ints that carry a common factor, over F_p one prime to p, and zeros
    rng = random.Random(5100 + (field.p or 0))
    p = field.p
    for poly in _printer_polys(rng, field):
        n = poly.n
        names = (default_names(n) if rng.random() < 0.5
                 else tuple(rng.sample(["a", "b2", "zeta", "x_1", "Y"], n)))
        want = oracle_format_poly(poly, names)
        assert format_poly(poly, names) == want
        assert format_poly(poly) == oracle_format_poly(poly)
        ints, scale = field.ints(list(poly.terms.values()))
        k = rng.choice([c for c in range(1, 8) if p is None or c % p])
        graded = graded_columns({w: x * k if p is None else x * k % p
                                 for w, x in zip(poly.terms, ints)}, n)
        e = rng.randint(0, 3)
        column = rng.randrange(n ** e)
        if column not in graded.get(e, {}):
            graded.setdefault(e, {})[column] = 0
        assert format_columns(graded, scale * k, field, names) == want


def test_algebra_handle():
    alg = FreeAlgebra(3)
    assert alg.n == 3
    assert alg.field is QQ


def test_prime_field_polynomials_mirror_rational_ones():
    # integer-coefficient arithmetic projects to any prime field
    rng = random.Random(6)
    p = 10007
    F = GF(p)

    def project(poly):
        out = NCPoly.zero(poly.n, F)
        for w, c in poly.terms.items():
            out = out + NCPoly.from_word(poly.n, w, F, coeff=F.of(c))
        return out

    for _ in range(40):
        a = random_poly(rng, 2, 3)
        b = random_poly(rng, 2, 3)
        assert project(a * b) == project(a) * project(b)
        assert project(a + b) == project(a) + project(b)
        assert project(a - b) == project(a) - project(b)


def test_mixed_generator_counts_rejected():
    with pytest.raises(ValueError):
        NCPoly.gen(2, 1) + NCPoly.gen(3, 1)
    with pytest.raises(ValueError):
        NCPoly.gen(2, 3)


def test_dot_sums_products_and_skips_zero_pairs():
    x1, x2 = gens(2)
    z = NCPoly.zero(2)
    assert dot([x1, x2], [x2, x1]) == x1 * x2 + x2 * x1
    # a side may be a field scalar, on the left or on the right
    assert dot([Fraction(2), Fraction(0)], [x1, x2]) == 2 * x1
    assert dot([x1, x2], [Fraction(1, 3), Fraction(-1)]) == Fraction(1, 3) * x1 - x2
    # pairs that cancel leave the zero polynomial, not a zero coefficient
    assert dot([x1, -x1], [x2, x2]).terms == {}
    F = GF(7)
    y = NCPoly.gen(3, 2, F)
    got = dot([F.zero, F.one], [y, NCPoly.zero(3, F)])
    assert got == NCPoly.zero(3, F) and (got.n, got.field) == (3, F)
    assert dot([z, x1], [x2, z]) == z
