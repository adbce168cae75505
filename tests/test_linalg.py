import random
from fractions import Fraction

import pytest

from nccalc import (
    GF,
    QQ,
    NCPoly,
    Subspace,
    builtin,
    invert_matrix,
    nullspace,
    preimage,
    rref,
    word_partials,
)
from nccalc import linalg
from helpers import grid_intersection, random_poly


def frac_rows(rows):
    return [[Fraction(c) for c in row] for row in rows]


def x(n, *letters):
    return NCPoly.from_word(n, tuple(letters))


def random_rows(rng, nrows, ncols, field=QQ):
    return [[field.of(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]


def test_rref_canonical_form():
    rows, pivots = rref(frac_rows([[2, 4, 0], [1, 2, 1]]))
    assert rows == frac_rows([[1, 2, 0], [0, 0, 1]])
    assert pivots == [0, 2]


def test_rref_is_idempotent_and_row_op_invariant():
    rng = random.Random(10)
    for _ in range(60):
        rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, pivots = rref([list(r) for r in rows])
        again, pivots2 = rref([list(r) for r in red])
        assert red == again and pivots == pivots2
        assert pivots == sorted(pivots)
        for t, r in zip(pivots, red):
            assert r[t] == 1
            for other in red:
                if other is not r:
                    assert other[t] == 0
        # shuffling and scaling rows leaves the canonical form unchanged
        mixed = [[c * Fraction(3) for c in row] for row in rows]
        rng.shuffle(mixed)
        assert rref(mixed)[0] == red


def test_nullspace_rank_nullity():
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = random_rows(rng, nrows, ncols)
        red, pivots = rref([list(r) for r in rows])
        basis = nullspace([list(r) for r in rows], ncols, QQ)
        assert len(basis) == ncols - len(pivots)
        for vec in basis:
            for row in rows:
                assert sum(c * v for c, v in zip(row, vec)) == 0


def test_invert_matrix():
    a = frac_rows([[1, 2], [3, 5]])
    b = invert_matrix(a, QQ)
    assert b == frac_rows([[-5, 2], [3, -1]])
    assert invert_matrix(frac_rows([[1, 2], [2, 4]]), QQ) is None
    rng = random.Random(12)
    for _ in range(40):
        m = random_rows(rng, 3, 3)
        inv = invert_matrix(m, QQ)
        if inv is None:
            continue
        prod = [[sum(m[r][t] * inv[t][c] for t in range(3)) for c in range(3)]
                for r in range(3)]
        assert prod == frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_span_fixtures():
    a, b = x(2, 1, 2), x(2, 2, 1)
    assert Subspace.span([a, b, a + b], 2, n=2, field=QQ).dim == 2
    assert Subspace.span([], 2, n=2, field=QQ).dim == 0
    assert Subspace.span([2 * a - b], 2, n=2, field=QQ).dim == 1
    full = Subspace.full(2, 2, QQ)
    assert full.dim == full.ambient_dim == 4


def test_contains_fixtures():
    g = 2 * x(2, 1, 2) - x(2, 2, 1)
    W = Subspace.span([g], 2, n=2, field=QQ)
    assert W.contains(2 * g)
    assert W.contains(NCPoly.zero(2))
    assert not W.contains(x(2, 1, 2))
    # independent rank check for the rejection above
    stacked, _ = rref([g.coords(2), x(2, 1, 2).coords(2)])
    assert len(stacked) == 2
    with pytest.raises(ValueError):
        W.contains(x(2, 1))


def test_intersect_fixtures():
    s1 = Subspace.span([x(2, 1, 1), x(2, 1, 2)], 2, n=2, field=QQ)
    s2 = Subspace.span([x(2, 1, 2), x(2, 2, 2)], 2, n=2, field=QQ)
    expect = Subspace.span([x(2, 1, 2)], 2, n=2, field=QQ)
    meet = s1.intersect(s2)
    assert meet.equal(expect)
    # brute-force scalar-grid route agrees
    assert grid_intersection(s1, s2).equal(expect)
    assert s1.intersect(s1).equal(s1)
    zero = Subspace.zero(2, 2, QQ)
    assert s1.intersect(zero).equal(zero)
    F = GF(10007)
    w11, w12, w21, w22 = (NCPoly.from_word(2, w, F) for w in ((1, 1), (1, 2), (2, 1), (2, 2)))
    t1 = Subspace.span([w11 + 3 * w12, w21, w22], 2)
    t2 = Subspace.span([w11 + 3 * w12 + 2 * w21, w21 - w22, w12], 2)
    expect = Subspace.span([w11 + 3 * w12 + 2 * w21, w21 - w22], 2)
    assert t1.intersect(t2).equal(expect)
    assert grid_intersection(t1, t2).equal(expect)


def test_dimension_formula_random():
    rng = random.Random(13)
    for _ in range(50):
        n, s = 2, 3
        w1 = Subspace.span([random_poly(rng, n, s, homogeneous=s)
                            for _ in range(rng.randint(0, 4))], s, n=n, field=QQ)
        w2 = Subspace.span([random_poly(rng, n, s, homogeneous=s)
                            for _ in range(rng.randint(0, 4))], s, n=n, field=QQ)
        total = w1 + w2
        meet = w1.intersect(w2)
        assert w1.dim + w2.dim == total.dim + meet.dim
        assert total.contains_subspace(w1) and total.contains_subspace(w2)
        assert w1.contains_subspace(meet) and w2.contains_subspace(meet)


def low_rank_rows(rng, nrows, ncols, field):
    """A random nrows x ncols matrix of random rank at most min(nrows, ncols)."""
    rank = rng.randint(0, min(nrows, ncols))
    left = random_rows(rng, nrows, rank, field)
    right = random_rows(rng, rank, ncols, field)
    return [[sum((a * b[j] for a, b in zip(row, right)), field.zero)
             for j in range(ncols)] for row in left]


def test_kernel_of_oracle():
    """kernel_of against its definition: every result vector lies in W,
    its coordinates along W's basis kill the residuals, and the dimension
    is dim W minus the rank of the residual matrix."""
    rng = random.Random(17)
    for field in (QQ, GF(10007)):
        for trial in range(40):
            n, s = (2, 2) if trial % 2 else (2, 3)
            amb = n ** s
            if trial == 0:
                W = Subspace.zero(n, s, field)
            elif trial in (1, 3):
                W = Subspace.full(n, s, field)
            else:
                W = Subspace.from_vectors(
                    low_rank_rows(rng, rng.randint(1, amb), amb, field), n, s, field)
            width = rng.randint(1, 6)
            if trial in (2, 3):
                residuals = [[field.zero] * width for _ in W.rows]
            else:
                residuals = low_rank_rows(rng, W.dim, width, field)
            K = W.kernel_of(residuals)
            rank = len(linalg._rref_fraction(residuals)[1])
            assert (K.n, K.degree, K.field) == (n, s, field)
            assert K.dim == W.dim - rank
            assert W.contains_subspace(K)
            for v in K.rows:
                coords = [v[p] for p in W.pivots]
                for j in range(width):
                    assert not sum((a * r[j] for a, r in zip(coords, residuals)),
                                   field.zero)


def test_subspace_equality_and_reduce():
    a, b = x(2, 1, 2), x(2, 2, 1)
    W1 = Subspace.span([a + b, a - b], 2, n=2, field=QQ)
    W2 = Subspace.span([a, b], 2, n=2, field=QQ)
    assert W1.equal(W2) and W1 == W2
    red = W2.reduce((a + 3 * b + x(2, 1, 1)).coords(2))
    assert red == x(2, 1, 1).coords(2)


def test_preimage_identity_and_zero_maps():
    basis = [x(2, 1, 1), x(2, 1, 2), x(2, 2, 1), x(2, 2, 2)]
    W = Subspace.span([x(2, 1, 2), x(2, 2, 1)], 2, n=2, field=QQ)
    back = preimage(list(basis), W, 2, 2, QQ)
    assert back.equal(W)
    zero_map = [NCPoly.zero(2) for _ in basis]
    assert preimage(zero_map, W, 2, 2, QQ).equal(Subspace.full(2, 2, QQ))


def test_preimage_of_zero_rule_derivatives_is_zero():
    rule = builtin("ex3.2-zero", n=2)
    images = [word_partials(rule, w) for w in
              [(1, 1), (1, 2), (2, 1), (2, 2)]]
    targets = (Subspace.zero(2, 1, QQ), Subspace.zero(2, 1, QQ))
    assert preimage(images, targets, 2, 2, QQ).dim == 0


def test_preimage_vectors_land_in_target():
    rng = random.Random(14)
    for _ in range(40):
        imgs = [random_poly(rng, 2, 2, homogeneous=2) for _ in range(4)]
        target = Subspace.span([random_poly(rng, 2, 2, homogeneous=2)
                                for _ in range(rng.randint(0, 2))], 2, n=2, field=QQ)
        got = preimage(list(imgs), target, 2, 2, QQ)
        for v in got.basis_polys():
            image = NCPoly.zero(2)
            for c, g in zip(v.coords(2), imgs):
                image = image + c * g
            assert target.contains(image)


def test_subspace_over_prime_field():
    F = GF(10007)
    a = NCPoly.from_word(2, (1, 2), F)
    b = NCPoly.from_word(2, (2, 1), F)
    W = Subspace.span([a + b, a - b], 2, n=2, field=F)
    assert W.dim == 2
    assert W.contains(F.of(5) * a)


def test_shape_mismatch_rejected():
    W1 = Subspace.span([x(2, 1, 2)], 2, n=2, field=QQ)
    W2 = Subspace.span([x(2, 1, 2, 1)], 3, n=2, field=QQ)
    with pytest.raises(ValueError):
        W1.intersect(W2)
    with pytest.raises(ValueError):
        W1.equal(W2)


# ---- the modular rref against the Fraction elimination ----

def assert_same_rref(rows):
    got = rref(rows)
    want = linalg._rref_fraction(rows)
    assert got == want
    assert [[type(c) for c in r] for r in got[0]] == \
        [[type(c) for c in r] for r in want[0]]
    return got


def product_rows(nrows, ncols, rank, entry):
    """An nrows x ncols matrix of rank at most ``rank``: C*A with random
    factors whose entries come from ``entry()``."""
    a = [[entry() for _ in range(ncols)] for _ in range(rank)]
    c = [[entry() for _ in range(rank)] for _ in range(nrows)]
    return [[sum((c[i][t] * a[t][j] for t in range(rank)), Fraction(0))
             for j in range(ncols)] for i in range(nrows)]


def small_fraction(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def test_rref_full_column_rank_is_identity():
    rng = random.Random(21)
    for _ in range(40):
        ncols = rng.randint(1, 12)
        rows = product_rows(ncols + rng.randint(0, 4), ncols, ncols,
                            lambda: small_fraction(rng))
        red, pivots = assert_same_rref(rows)
        if len(pivots) == ncols:
            assert red == [[Fraction(int(i == j)) for j in range(ncols)]
                           for i in range(ncols)]


def test_rref_rank_deficient_rational_products():
    rng = random.Random(22)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        rank = rng.randint(1, min(nrows, ncols))
        rows = product_rows(nrows, ncols, rank, lambda: small_fraction(rng))
        assert_same_rref(rows)
    # sparse, near-identity and zero inputs
    for _ in range(40):
        ncols = rng.randint(1, 40)
        rows = [[Fraction(0)] * ncols for _ in range(rng.randint(0, ncols))]
        for r in rows:
            for _ in range(rng.randint(0, 2)):
                r[rng.randrange(ncols)] = small_fraction(rng)
        assert_same_rref(rows)


def test_rref_large_entries_fall_back_exactly(monkeypatch):
    calls = []
    fraction_rref = linalg._rref_fraction

    def spy(rows):
        calls.append(len(rows))
        return fraction_rref(rows)

    monkeypatch.setattr(linalg, "_rref_fraction", spy)
    rng = random.Random(23)
    big = lambda: Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
    for _ in range(15):
        nrows, ncols = rng.randint(2, 6), rng.randint(3, 6)
        rows = product_rows(nrows, ncols, rng.randint(1, min(nrows, ncols) - 1), big)
        got = rref(rows)
        assert got == fraction_rref(rows)
        assert all(type(c) is Fraction for r in got[0] for c in r)
    # entries this large cannot be reconstructed mod a 61-bit prime
    assert calls


def test_rref_second_prime_answers_when_the_first_is_unlucky(monkeypatch):
    p = linalg._PRIMES[0]
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + p)]]
    used = []
    mod_rref = linalg._rref_mod

    def spy(ints, q):
        used.append(q)
        return mod_rref(ints, q)

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    assert rref(rows) == ([[1, 0], [0, 1]], [0, 1])
    assert used == list(linalg._PRIMES[:2])


def test_rref_moduli_are_the_largest_primes_below_2_61():
    from nccalc import is_prime
    first, second = linalg._PRIMES
    assert first == 2**61 - 1 and second < first
    assert is_prime(second)
    assert not any(is_prime(q) for q in range(second + 1, first))


def test_rref_certificate_holds_for_a_tiny_unlucky_prime(monkeypatch):
    monkeypatch.setattr(linalg, "_PRIMES", (3,))
    rng = random.Random(24)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(1, min(nrows, ncols))
        entry = lambda: Fraction(rng.choice([0, 0, 1, 2, 3, -3, 6]), rng.choice([1, 1, 2]))
        assert_same_rref(product_rows(nrows, ncols, rank, entry))


def test_rref_over_prime_field_matches_oracle():
    F = GF(10007)
    rng = random.Random(25)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.randint(1, min(nrows, ncols))
        a = [[F.of(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(rank)]
        c = [[F.of(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(nrows)]
        rows = [[sum((c[i][t] * a[t][j] for t in range(rank)), F.zero)
                 for j in range(ncols)] for i in range(nrows)]
        assert_same_rref(rows)


def test_rref_does_not_modify_its_input():
    rng = random.Random(26)
    for field in (QQ, GF(7)):
        rows = random_rows(rng, 5, 6, field)
        copy = [list(r) for r in rows]
        rref(rows)
        assert rows == copy
