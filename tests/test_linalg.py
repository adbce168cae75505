import ast
import inspect
import random
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, prod

import pytest

from nccalc import (
    GF,
    FpElement,
    QQ,
    NCPoly,
    Subspace,
    builtin,
    invert_matrix,
    nullspace,
    optimal_ideal,
    preimage,
    rref,
    word_partials,
)
from nccalc import linalg
from helpers import (dense_reduce, dense_rref_mod, dense_sum, grid_intersection, intersect,
                     random_poly)


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
    # x1x2 - 1/2*x2x1 and x1x2 - x2x1 store the same numerators over the
    # denominators 2 and 1
    half = Subspace.span([x(2, 1, 2) - Fraction(1, 2) * x(2, 2, 1)], 2, n=2, field=QQ)
    whole = Subspace.span([x(2, 1, 2) - x(2, 2, 1)], 2, n=2, field=QQ)
    assert half.tails == whole.tails and (half.den, whole.den) == (2, 1)
    assert not half.contains_subspace(whole) and not whole.contains_subspace(half)
    assert half != whole and half.contains_subspace(half)


def test_intersect_fixtures():
    s1 = Subspace.span([x(2, 1, 1), x(2, 1, 2)], 2, n=2, field=QQ)
    s2 = Subspace.span([x(2, 1, 2), x(2, 2, 2)], 2, n=2, field=QQ)
    expect = Subspace.span([x(2, 1, 2)], 2, n=2, field=QQ)
    meet = intersect(s1, s2)
    assert meet.equal(expect)
    # brute-force scalar-grid route agrees
    assert grid_intersection(s1, s2).equal(expect)
    assert intersect(s1, s1).equal(s1)
    zero = Subspace.zero(2, 2, QQ)
    assert intersect(s1, zero).equal(zero)
    F = GF(10007)
    w11, w12, w21, w22 = (NCPoly.from_word(2, w, F) for w in ((1, 1), (1, 2), (2, 1), (2, 2)))
    t1 = Subspace.span([w11 + 3 * w12, w21, w22], 2)
    t2 = Subspace.span([w11 + 3 * w12 + 2 * w21, w21 - w22, w12], 2)
    expect = Subspace.span([w11 + 3 * w12 + 2 * w21, w21 - w22], 2)
    assert intersect(t1, t2).equal(expect)
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
        meet = intersect(w1, w2)
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
        intersect(W1, W2)
    with pytest.raises(ValueError):
        W1.equal(W2)


def test_polynomials_from_another_algebra_are_refused():
    # x1*x2 over two generators is not a vector of the span of x1*x2 over
    # three; membership, residuals and preimages refuse it, like a
    # polynomial over Q against a subspace over F_5
    W = Subspace.span([x(3, 1, 2)], 2, n=3, field=QQ)
    zero5 = Subspace.zero(2, 2, GF(5))
    cases = [(W, x(2, 1, 2), "polynomial has 2 generators, subspace has 3"),
             (W, NCPoly.zero(2), "polynomial has 2 generators, subspace has 3"),
             (W, NCPoly.from_word(3, (1, 2), GF(5)),
              "polynomial and subspace coefficient fields differ"),
             (zero5, x(2, 1, 2), "polynomial and subspace coefficient fields differ")]
    for space, poly, message in cases:
        with pytest.raises(ValueError, match=message):
            space.contains(poly)
        with pytest.raises(ValueError, match=message):
            space.residual(poly)
        with pytest.raises(ValueError, match=message):
            preimage([poly] * space.n ** 2, space, 2, space.n, space.field)
    # the polynomials of the subspace's own algebra still pass
    assert W.contains(x(3, 1, 2)) and not W.contains(x(3, 2, 1))
    assert zero5.residual(NCPoly.from_word(2, (1, 2), GF(5)))[1] == GF(5).one


def test_from_vectors_eliminates_in_the_field():
    # 3*(1, 2) = (3, 1) mod 5: the rows are proportional in F_5, not over
    # Q; ints and Fractions are read as elements of the subspace's field
    F = GF(5)
    W = Subspace.from_vectors([[1, 2], [3, 1]], 2, 1, F)
    assert W.dim == 1
    assert W.rows == [[F.one, F.of(2)]]
    assert Subspace.from_vectors([[1, 2]], 2, 1, F) == W
    assert Subspace.from_vectors([[Fraction(1, 3), 4]], 2, 1, F) == W
    assert Subspace.from_vectors([[1, 2], [3, 1]], 2, 1, QQ).dim == 2


def test_rref_reads_ints_and_fractions_beside_fp_elements_in_f_p():
    F = GF(5)
    # 1/2 = 3 in F_5; these rows once went to the Fraction elimination and
    # came back as floats
    got = rref([[2, FpElement(1, 5)], [1, 1]])
    assert got == rref([[F.of(2), F.one], [F.one, F.one]]) == ([[1, 0], [0, 1]], [0, 1])
    assert all(type(c) is FpElement and c.p == 5 for r in got[0] for c in r)
    got = rref([[FpElement(2, 5), Fraction(1, 2)], [4, 1]])
    assert got == ([[F.one, F.of(4)]], [0])
    assert all(type(c) is FpElement for r in got[0] for c in r)


@pytest.mark.parametrize("rows", [
    [[FpElement(1, 5), FpElement(2, 7)]],
    [[FpElement(1, 5)], [FpElement(1, 7)]],
    [[Fraction(1, 2), 1.5]],
    [[2, FpElement(1, 5)], [1, 1.0]],
    [[1, True]],
    [["1", 2]],
], ids=["two-moduli-in-a-row", "two-moduli-in-a-column", "float", "float-beside-fp",
        "bool", "str"])
def test_rref_refuses_entries_it_cannot_read_in_one_field(rows):
    # the first mixed F_5 and F_7 in one row, and the floats came back as
    # floats, where the exact answer was asked for
    with pytest.raises(ValueError, match="rref reads ints, Fractions and FpElements of one"):
        rref(rows)


def test_inputs_of_the_wrong_shape_are_refused():
    # each of these answered silently wrong, or with an IndexError
    with pytest.raises(ValueError, match="expected rows of length 2, got 3"):
        nullspace([[1, 1, 1]], 2, QQ)
    with pytest.raises(ValueError, match="expected rows of length 3, got 2"):
        nullspace([[1, 1]], 3, QQ)
    with pytest.raises(ValueError, match="rationals must be ints or Fractions"):
        nullspace([[FpElement(1, 5)] * 2], 2, QQ)
    with pytest.raises(ValueError, match="rows of unequal length"):
        rref([[1, 2], [3]])
    full = Subspace.full(2, 1, QQ)
    for residuals in ([[1], [1], [1]], [[1]]):
        with pytest.raises(ValueError, match=f"expected 2 residuals, one per basis row, "
                                             f"got {len(residuals)}"):
            full.kernel_of(residuals)
    W = Subspace.span([x(2, 1, 2)], 2, n=2, field=QQ)
    for column in (7, 4, -1):
        with pytest.raises(ValueError, match=r"columns must lie in 0\.\.3"):
            W.residual_of([(column, 1)])
    with pytest.raises(ValueError, match="expected a vector of length 4, got 2"):
        W.reduce([1, 2])
    # the same calls on inputs of the right shape answer
    assert nullspace([[1, 1]], 2, QQ) == [[-1, 1]]
    assert rref([[1, 2], [3, 4]]) == ([[1, 0], [0, 1]], [0, 1])
    assert full.kernel_of([[1], [1]]).rows == [[1, -1]]
    assert W.residual_of([(3, 1)]) == [0, 0, 1]
    assert W.reduce([1, 2, 0, 0]) == [1, 0, 0, 0]


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
    # entries this large cannot be reconstructed mod the product of the primes
    assert calls


def spy_on(monkeypatch, name):
    """Replace ``linalg.<name>`` by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    real = getattr(linalg, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, spy)
    return calls


def test_rref_second_prime_answers_when_the_first_is_unlucky(monkeypatch):
    p = linalg._PRIMES[0]
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + p)]]
    used = spy_on(monkeypatch, "_rref_mod")
    assert rref(rows) == ([[1, 0], [0, 1]], [0, 1])
    assert [q for _, q in used] == list(linalg._PRIMES[:2])


def test_rref_moduli_are_the_largest_primes_below_2_26():
    from nccalc import is_prime
    primes = linalg._PRIMES
    assert len(primes) == len(set(primes)) > 1
    assert list(primes) == sorted(primes, reverse=True)
    assert all(is_prime(q) for q in primes)
    # no prime is skipped between 2^26 and the last modulus
    assert all(q in primes for q in range(primes[-1], 1 << 26) if is_prime(q))
    # a literal tuple, so that importing linalg computes no primes
    tree = ast.parse(inspect.getsource(linalg))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", None) == "_PRIMES"]
    assert ast.literal_eval(value) == primes


def test_rref_lifts_entries_beyond_one_prime_by_crt(monkeypatch):
    fraction_rref = linalg._rref_fraction
    fallbacks = spy_on(monkeypatch, "_rref_fraction")
    used = spy_on(monkeypatch, "_rref_mod")
    rng = random.Random(27)
    # one prime reconstructs numerators and denominators below about 2^12.5
    entry = lambda: Fraction(rng.randint(-999, 999), rng.randint(1, 999))
    for _ in range(30):
        nrows, ncols = rng.randint(3, 7), rng.randint(3, 7)
        rows = product_rows(nrows, ncols, rng.randint(2, min(nrows, ncols) - 1), entry)
        used.clear()
        red, pivots = rref(rows)
        assert (red, pivots) == fraction_rref(rows)
        bits = max(max(abs(c.numerator), c.denominator).bit_length()
                   for r in red for c in r)
        # Wang's bound modulo M is isqrt(M // 2): one prime cannot lift
        # these entries, and the primes stop once their product can
        assert len(used) >= 2
        assert isqrt(prod(linalg._PRIMES[:len(used) - 1]) // 2) < 2**bits
    assert not fallbacks


def test_rref_skips_an_unlucky_prime_and_still_certifies(monkeypatch):
    fraction_rref = linalg._rref_fraction
    fallbacks = spy_on(monkeypatch, "_rref_fraction")
    used = spy_on(monkeypatch, "_rref_mod")
    q0, q1, q2, q3 = linalg._PRIMES[:4]
    # mod 10007 the first system keeps its rank but its pivot moves to
    # column 1, and the second loses rank; 1/10007 is beyond the bound of
    # q0 alone, and 2^40 beyond that of three word primes
    k = 2**40
    same_rank = frac_rows([[10007, 1, 2], [2 * 10007, 2, 4]])
    lower_rank = frac_rows([[1, 1, 1], [1, 1 + 10007, 1 + 10007 * k]])
    for moduli, rows, expect in [
            ((q0, 10007, q1, q2), same_rank, [q0, 10007, q1]),
            ((10007, q0, q1, q2), same_rank, [10007, q0, q1]),
            ((q0, q1, 10007, q2, q3, 10009), lower_rank, [q0, q1, 10007, q2, q3])]:
        monkeypatch.setattr(linalg, "_PRIMES", moduli)
        used.clear()
        assert rref(rows) == fraction_rref(rows)
        assert [q for _, q in used] == expect
    assert rref(lower_rank)[0] == [[1, 0, 1 - k], [0, 1, k]]
    assert not fallbacks


def test_rref_falls_back_when_the_primes_are_exhausted(monkeypatch):
    fallbacks = spy_on(monkeypatch, "_rref_fraction")
    used = spy_on(monkeypatch, "_rref_mod")
    # entries of 2^40 need four word primes
    k = 2**40
    rows = frac_rows([[1, 1, 1], [1, 2, 1 + k]])
    primes = linalg._PRIMES
    monkeypatch.setattr(linalg, "_PRIMES", primes[:3])
    assert rref(rows) == ([[1, 0, 1 - k], [0, 1, k]], [0, 1])
    assert [q for _, q in used] == list(primes[:3])
    assert len(fallbacks) == 1
    monkeypatch.setattr(linalg, "_PRIMES", primes[:4])
    assert rref(rows) == ([[1, 0, 1 - k], [0, 1, k]], [0, 1])
    assert len(fallbacks) == 1


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


# ---- the packed modular elimination against Gauss-Jordan mod p ----

def packed_width_matrices(p):
    """Inputs of ``_rref_mod`` at the widths the free quotients meet, by
    name: dense, rank-deficient, sparse and identity-like."""
    rng = random.Random(f"packed/{p}")
    n = 81
    lower = [[rng.randrange(p) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randrange(p) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    full = [[sum(lower[i][t] * upper[t][j] for t in range(i + 1)) % p for j in range(n)]
            for i in range(n)]
    rng.shuffle(full)
    left = [[rng.randrange(p) for _ in range(40)] for _ in range(60)]
    right = [[rng.randrange(p) for _ in range(90)] for _ in range(40)]
    deficient = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                 for row in left]
    sparse = [[rng.randrange(1, p) if rng.random() < 0.03 else 0 for _ in range(128)]
              for _ in range(128)]
    identity = [[rng.randrange(1, p) if j == i else 0 for j in range(128)] for i in range(128)]
    for row in identity[::8]:
        row[rng.randrange(128)] = rng.randrange(p)
    rng.shuffle(identity)
    # the largest field growth: row i is cleared by each pivot row above
    # it with multiplier p - 1 against pivot entries p - 1 (its entries
    # are 1 - k mod p at columns k <= i and -1 - i mod p after); more
    # columns than rows, so that the result is not the identity
    growth = [[(1 - k if k <= i else -1 - i) % p for k in range(n + 19)] for i in range(n)]
    return {"dense full rank": full, "rank-deficient product": deficient,
            "sparse": sparse, "identity-like": identity, "all p - 1": [[p - 1] * 50] * 50,
            "largest growth": growth}


def assert_rref_mod_matches(rows, p, want, name=None):
    """``_rref_mod`` against an oracle's ``(rows, pivots)``: the same
    pivots always, and the same rows unless the column rank is full, when
    ``_rref_mod`` returns no rows and the oracle's are the identity."""
    red, pivots = linalg._rref_mod(rows, p)
    assert pivots == want[1], name
    ncols = len(rows[0])
    if len(pivots) < ncols:
        assert red == want[0], name
    else:
        assert red == [], name
        assert want[0] == [[int(i == j) for j in range(ncols)] for i in range(ncols)], name


@pytest.mark.parametrize("p", [2, 3, 10007, linalg._PRIMES[0], 2**61 - 1])
def test_rref_mod_matches_gauss_jordan_at_packed_widths(p):
    for name, rows in packed_width_matrices(p).items():
        rows = [list(r) for r in rows if any(r)]
        copy = [list(r) for r in rows]
        assert_rref_mod_matches(rows, p, dense_rref_mod(rows, p), name)
        assert rows == copy, name


def spy_on_widths(monkeypatch):
    """Record the field width in bits of each ``_rref_mod`` call."""
    widths = []
    codec = linalg._field_codec

    def spy(bits):
        width, pack, unpack = codec(bits)
        widths.append(width)
        return width, pack, unpack

    monkeypatch.setattr(linalg, "_field_codec", spy)
    return widths


def assert_mod_matches_fraction_elimination(rows, p):
    """``_rref_mod`` against ``_rref_fraction`` on the same rows, whose
    nonzero entries are F_p elements (an FpElement equals its residue, and
    the int zeros keep the oracle's scans fast at large sizes)."""
    F = GF(p)
    assert_rref_mod_matches(rows, p, linalg._rref_fraction(
        [F.of(v) if v else 0 for v in r] for r in rows))


@pytest.mark.parametrize("p", [3, 10007, linalg._PRIMES[0], 2**61 - 1])
def test_word_and_byte_fields_agree_with_fraction_elimination(p, monkeypatch):
    widths = spy_on_widths(monkeypatch)
    for rows in packed_width_matrices(p).values():
        assert_mod_matches_fraction_elimination([list(r) for r in rows if any(r)], p)
    # whole bytes for (min(rows, cols) + 1)*(p - 1)^2 and a spare bit, at
    # 50 to 128 rows: within one 64-bit word up to the largest word prime
    assert set(widths) == {3: {16}, 10007: {40}, linalg._PRIMES[0]: {64},
                           2**61 - 1: {136}}[p]


def test_field_codec_round_trips_at_every_width():
    rng = random.Random(28)
    for size in range(1, 11):
        width, pack, unpack = linalg._field_codec(8 * size)
        assert width == 8 * size
        for count in (1, 2, 7, 81):
            values = [rng.randrange(1 << width) for _ in range(count)]
            # a zero top field for odd counts, the largest value for even
            values[0] = 0 if count % 2 else (1 << width) - 1
            packed = pack(values)
            assert packed == int.from_bytes(
                b"".join(v.to_bytes(size, "big") for v in values), "big")
            assert list(unpack(packed, count)) == values


def near_identity(m, p, rng):
    """An m x m matrix mod p, cheap to eliminate at any size: a diagonal
    with an entry right of it in every 16th row, and eight rows replaced
    by combinations of two others, so that the rank falls and some rows
    are cleared more than once."""
    rows = [[0] * m for _ in range(m)]
    for i, row in enumerate(rows):
        row[i] = rng.randrange(1, p)
        if i % 16 == 0 and i + 1 < m:
            row[rng.randrange(i + 1, m)] = rng.randrange(1, p)
    for i in rng.sample(range(m), 8):
        a, b = rng.sample(range(m), 2)
        ca, cb = rng.randrange(1, p), rng.randrange(1, p)
        rows[i] = [(x * ca + y * cb) % p for x, y in zip(rows[a], rows[b])]
    rng.shuffle(rows)
    return [r for r in rows if any(r)]


def test_word_fields_end_at_min_rows_cols_2047(monkeypatch):
    # (2047 + 1)*(p - 1)^2 < 2^63 for the largest word prime, (2048 + 1)*
    # (p - 1)^2 is not: one size on each side of the one-word limit
    p = linalg._PRIMES[0]
    widths = spy_on_widths(monkeypatch)
    for m in (2047, 2048):
        rows = near_identity(m, p, random.Random(f"limit/{m}"))
        assert len(rows) == m
        assert_mod_matches_fraction_elimination(rows, p)
    assert widths == [64, 72]


def test_rref_does_not_modify_its_input():
    rng = random.Random(26)
    for field in (QQ, GF(7)):
        rows = random_rows(rng, 5, 6, field)
        copy = [list(r) for r in rows]
        rref(rows)
        assert rows == copy


# ---- pivots-plus-tails storage against the dense echelon rows ----

def seeded_spans(rng, n, s, field):
    """(label, spanning rows) of zero, full, coordinate and low-rank
    subspaces of the degree-s component over n generators."""
    amb = n ** s
    unit = lambda c: [field.one if j == c else field.zero for j in range(amb)]
    cols = sorted(rng.sample(range(amb), rng.randint(1, amb)))
    yield "zero", []
    yield "full", [unit(c) for c in range(amb)]
    yield "coordinate", [unit(c) for c in cols]
    for _ in range(3):
        yield "low-rank", low_rank_rows(rng, rng.randint(1, min(amb, 6)), amb, field)


def test_tails_match_dense_reference():
    rng = random.Random(31)
    for field in (QQ, GF(10007)):
        for n, s in [(2, s) for s in range(1, 5)] + [(3, s) for s in range(1, 5)]:
            amb = n ** s
            seen = []
            for label, spanning in seeded_spans(rng, n, s, field):
                W = Subspace.from_vectors(spanning, n, s, field)
                rows, pivots = linalg._rref_fraction(spanning)
                assert (W.rows, W.pivots) == (rows, pivots) == rref(spanning), label
                for earlier, earlier_rows in seen:
                    assert (W == earlier) == W.equal(earlier) == (rows == earlier_rows)
                seen.append((W, rows))
                assert W.free == [c for c in range(amb) if c not in pivots]
                assert W.basis_polys() == [NCPoly.from_coords(n, s, r, field) for r in rows]
                # vectors in the span and random sparse ones
                vectors = combinations(rng, W, 2, field)
                for _ in range(4):
                    v = [field.zero] * amb
                    for c in rng.sample(range(amb), rng.randint(1, min(amb, 5))):
                        v[c] = field.of(rng.randint(-4, 4))
                    vectors.append(v)
                for v in vectors:
                    dense = dense_reduce(rows, pivots, v)
                    assert W.reduce(v) == dense
                    poly = NCPoly.from_coords(n, s, v, field)
                    assert W.residual(poly) == [dense[c] for c in W.free]
                    assert W.residual_of([(c, x) for c, x in enumerate(v) if x]) == \
                        W.residual(poly)
                    assert W.contains(poly) == (not any(dense))
                # the same span from another spanning set: shuffled, rescaled
                # and with a redundant sum appended
                other = [[field.of(3) * x for x in r] for r in spanning]
                rng.shuffle(other)
                if other:
                    other.append([a + b for a, b in zip(other[0], other[-1])])
                W2 = Subspace.from_vectors(other, n, s, field)
                assert W2 == W and W2.equal(W) and hash(W2) == hash(W)
                if label in ("zero", "full", "coordinate"):
                    W3 = Subspace.coordinate(n, s, field, pivots)
                    assert W3 == W and hash(W3) == hash(W)


def assert_int_tails(W):
    """W's stored form: ints only, residues in [1, p) over F_p, and over Q
    numerators over their least common denominator."""
    values = [v for tail in W.tails.values() for _, v in tail]
    assert all(type(v) is int for v in values) and type(W.den) is int
    if W.field == QQ:
        assert W.den > 0 and gcd(W.den, *values) == 1
    else:
        assert W.den == 1 and all(0 < v < W.field.p for v in values)


def test_boundary_views_are_field_valued_over_int_tails():
    rng = random.Random(36)
    fractional = 0
    for field, kind in ((QQ, Fraction), (GF(10007), FpElement)):
        for n, s in ((2, 3), (3, 2)):
            amb = n ** s
            for _ in range(4):
                a = Subspace.from_vectors(low_rank_rows(rng, 4, amb, field), n, s, field)
                b = Subspace.from_vectors(low_rank_rows(rng, 4, amb, field), n, s, field)
                # each way a subspace is built: echelon rows, a block sum, a kernel
                for W in (a, a + b, intersect(a, b)):
                    assert_int_tails(W)
                    fractional += W.den != 1
                    poly = NCPoly.from_coords(n, s, random_rows(rng, 1, amb, field)[0], field)
                    vec = poly.coords(s)
                    views = (list(chain.from_iterable(W.rows))
                             + [c for b in W.basis_polys() for c in b.terms.values()]
                             + W.residual(poly) + W.reduce(vec)
                             + W.residual_of([(c, x) for c, x in enumerate(vec) if x]))
                    assert all(type(c) is kind for c in views)
                    assert W.contains(poly) is (not any(W.residual(poly)))
    assert fractional
    for field in (QQ, GF(10007)):
        for comp in optimal_ideal(builtin("ex3.1-diag", field, q=[[1, 2], [Fraction(1, 2), 1]]),
                                  6).components:
            assert_int_tails(comp)


# ---- the block-elimination sum against one dense rref ----

def assert_sum_matches_dense(a, b, label):
    got, want = a + b, dense_sum(a, b)
    # the stored int form against the oracle's: tails and common denominator
    assert list(got.tails.items()) == list(want.tails.items()), label
    assert got.den == want.den, label
    assert all(type(v) is int for tail in got.tails.values() for _, v in tail), label


def combinations(rng, W, count, field):
    """``count`` random combinations of W's echelon rows, as dense vectors."""
    rows = W.rows
    return [[sum((a * r[j] for a, r in zip(coeffs, rows)), field.zero)
             for j in range(W.ambient_dim)]
            for coeffs in random_rows(rng, count, len(rows), field)]


def test_sum_matches_dense_reference():
    rng = random.Random(32)
    for field in (QQ, GF(10007)):
        for n, s in [(2, s) for s in range(1, 5)] + [(3, s) for s in range(1, 5)]:
            spans = [(label, Subspace.from_vectors(spanning, n, s, field))
                     for label, spanning in seeded_spans(rng, n, s, field)]
            for la, a in spans:
                for lb, b in spans:
                    assert_sum_matches_dense(a, b, f"{la} + {lb}")
                if not a.dim:
                    continue
                # a subspace of a, a superspace of it, one that overlaps it,
                # and the coordinate span of its pivots (every row hits a pivot)
                amb = a.ambient_dim
                inner = Subspace.from_vectors(combinations(rng, a, 2, field), n, s, field)
                fresh = low_rank_rows(rng, 3, amb, field)
                outer = Subspace.from_vectors(a.rows + fresh, n, s, field)
                overlap = Subspace.from_vectors(combinations(rng, a, 1, field) + fresh,
                                                n, s, field)
                hit = Subspace.coordinate(n, s, field, a.pivots)
                for lb, b in [("inner", inner), ("outer", outer),
                              ("overlap", overlap), ("pivots", hit)]:
                    assert_sum_matches_dense(a, b, f"{la} + {lb}")
                    assert_sum_matches_dense(b, a, f"{lb} + {la}")
                assert a + inner == a and inner + a == a and a + outer == outer


def test_int_rows_give_exact_results():
    assert rref([[2, 1]]) == ([[Fraction(1), Fraction(1, 2)]], [0])
    assert nullspace([[2, 1]], 2, QQ) == [[Fraction(-1, 2), Fraction(1)]]
    rng = random.Random(33)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:
            rows[0][0] = Fraction(rng.randint(-4, 4), 3)   # mixed int and Fraction
        red, pivots = rref(rows)
        assert (red, pivots) == linalg._rref_fraction(frac_rows(rows))
        basis = nullspace(rows, ncols, QQ)
        W = Subspace.from_vectors(rows, ncols, 1, QQ)
        assert W.rows == red
        for vec in basis:
            assert all(sum(c * v for c, v in zip(row, vec)) == 0 for row in rows)
        entries = (list(chain.from_iterable(red)) + list(chain.from_iterable(basis))
                   + list(chain.from_iterable(W.rows)))
        assert not any(isinstance(c, float) for c in entries)


def test_nullspace_over_prime_field_reads_int_rows_mod_p():
    F = GF(3)
    # 4 = 1 mod 3, so the rows agree and the kernel has dimension 1
    assert nullspace([[1, 1], [1, 4]], 2, F) == [[F.of(2), F.one]]
    assert nullspace([[1, 2]], 2, F) == [[F.one, F.one]]
    # entries of p and above are read mod p: 3 = 0 and 5 = 2
    assert nullspace([[3, 1]], 2, F) == [[F.one, F.zero]]
    assert nullspace([[4, 5]], 2, F) == [[F.one, F.one]]
    assert nullspace([[3, 6]], 2, F) == [[F.one, F.zero], [F.zero, F.one]]
    rng = random.Random(34)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-7, 7) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(rows, ncols, F)
        assert basis == nullspace([[F.of(c) for c in r] for r in rows], ncols, F)
        assert all(type(c) is FpElement for v in basis for c in v)
        for vec in basis:
            assert all(sum((c * v for c, v in zip(row, vec)), F.zero) == 0
                       for row in rows)


def test_rref_of_int_rows_falls_back_to_fractions(monkeypatch):
    fraction_rref = linalg._rref_fraction
    calls = spy_on(monkeypatch, "_rref_fraction")
    # one word prime p reconstructs numerators and denominators up to
    # isqrt(p // 2) = 5792, so a rank-deficient system whose RREF has
    # larger entries, as ratios of minors of these ints have, goes to the
    # fallback
    monkeypatch.setattr(linalg, "_PRIMES", linalg._PRIMES[:1])
    rng = random.Random(35)
    for _ in range(40):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 6)
        rank = rng.randint(1, min(nrows, ncols) - 1)
        rows = [[int(c) for c in r] for r in product_rows(
            nrows, ncols, rank, lambda: Fraction(rng.randint(-999, 999)))]
        got = rref(rows)
        assert got == fraction_rref(frac_rows(rows))
        assert all(type(c) is Fraction for r in got[0] for c in r)
    assert rref([[2, 1], [4, 2]]) == ([[Fraction(1), Fraction(1, 2)]], [0])
    assert len(calls) > 10
    assert all(type(c) is Fraction for (rows,) in calls for r in rows for c in r)


# ---- the peeling kernel step ----

PEEL_FIELDS = [QQ, GF(10007)]


def kernel_oracle(residuals, m, field):
    """The kernel {a : sum_t a_t*residuals[t] = 0} in F^m by one dense
    elimination of the equations (one per coordinate): ``dense_rref_mod``
    over F_p, ``_rref_fraction`` over Q.  Returns the canonical Subspace."""
    eqs = [list(col) for col in zip(*residuals)]
    if field.p is not None:
        red, pivots = dense_rref_mod(eqs, field.p)
        red = [[field.of(c) for c in r] for r in red]
    else:
        red, pivots = linalg._rref_fraction(frac_rows(eqs))
    vectors = []
    for f in range(m):
        if f in pivots:
            continue
        v = [field.zero] * m
        v[f] = field.one
        for i, col in enumerate(pivots):
            v[col] = -red[i][f]
        vectors.append(v)
    return Subspace.from_vectors(vectors, m, 1, field)


def peel(residuals, field, calls):
    """``_kernel`` of the identity basis of F^m on int residuals, given
    both as dicts of their nonzero ints (residues over F_p) and as dense
    lists of field elements.  Checks both against the oracle, the nullity
    against the rank ``_rref_fraction`` finds, and that each call ran
    ``nullspace`` once.  Returns (kernel, peeled, core)."""
    m = len(residuals)
    p = field.p
    sparse = [{j: c for j, c in enumerate([c % p for c in r] if p else r) if c}
              for r in residuals]
    dense = [[field.of(c) for c in r] for r in residuals]
    W = Subspace.full(m, 1, field)
    before = len(calls)
    got, peeled, core = W._kernel(sparse)
    want = kernel_oracle(residuals, m, field)
    assert got == want
    assert W.kernel_of(dense) == want
    assert len(calls) == before + 2
    assert got.dim == m - len(linalg._rref_fraction(dense)[1])
    for v in got.rows:
        for j in range(len(residuals[0])):
            assert not sum((a * r[j] for a, r in zip(v, dense)), field.zero)
    return got, peeled, core


@pytest.mark.parametrize("field", PEEL_FIELDS, ids=["Q", "Fp10007"])
def test_peeling_kernel_settles_a_permutation_matrix(field, monkeypatch):
    calls = spy_on(monkeypatch, "nullspace")
    rng = random.Random(81)
    m = 7
    perm = list(range(m))
    rng.shuffle(perm)
    residuals = [[0] * m for _ in range(m)]
    for t, j in enumerate(perm):
        residuals[t][j] = rng.choice([-3, -1, 2, 5])
    # every equation holds one unknown: all are fixed at zero, and the
    # core is empty but still goes to nullspace
    K, peeled, core = peel(residuals, field, calls)
    assert (K.dim, peeled, core) == (0, m, (0, 0))
    assert calls[-1][:2] == ([], 0)


def block_diagonal(rng):
    """Residuals of nine unknowns: 1x1 blocks at unknowns 0, 1, 2, 7 and 8
    around a 4x4 block of rank 3 with no zero entry."""
    while True:
        block = [[rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(4)]
                 for _ in range(3)]
        block.append([a - b for a, b in zip(block[0], block[1])])
        if all(block[3]):
            break
    residuals = [[0] * 9 for _ in range(9)]
    for t in (0, 1, 2, 7, 8):
        residuals[t][t] = rng.choice([-2, 1, 3])
    for i in range(4):
        residuals[3 + i][3:7] = block[i]
    return residuals


@pytest.mark.parametrize("field", PEEL_FIELDS, ids=["Q", "Fp10007"])
def test_peeling_kernel_leaves_the_dense_block_of_a_block_diagonal(field, monkeypatch):
    calls = spy_on(monkeypatch, "nullspace")
    rng = random.Random(82)
    for _ in range(10):
        K, peeled, core = peel(block_diagonal(rng), field, calls)
        assert (K.dim, peeled, core) == (1, 5, (4, 4))


@pytest.mark.parametrize("field", PEEL_FIELDS, ids=["Q", "Fp10007"])
def test_peeling_kernel_echelons_vectors_over_the_unfixed_words(field, monkeypatch):
    # the kernel vectors reach from_vectors over the four words of the
    # dense block, not over all nine
    lengths = []
    real = Subspace.from_vectors.__func__

    def spy(cls, vectors, n, degree, *rest):
        lengths.append((n ** degree, [len(v) for v in vectors]))
        return real(cls, vectors, n, degree, *rest)

    monkeypatch.setattr(Subspace, "from_vectors", classmethod(spy))
    residuals = block_diagonal(random.Random(84))
    p = field.p
    sparse = [{j: c % p if p else c for j, c in enumerate(r) if c} for r in residuals]
    K = Subspace.full(9, 1, field).kernel_of(sparse)
    assert lengths == [(4, [4])]
    assert K == kernel_oracle(residuals, 9, field)


@pytest.mark.parametrize("field", PEEL_FIELDS, ids=["Q", "Fp10007"])
def test_peeling_kernel_hands_a_system_without_singletons_to_nullspace(field, monkeypatch):
    calls = spy_on(monkeypatch, "nullspace")
    # equations e0 = x0 + 2*x1, e1 = 3*x1 + x2 + 4*x3 and e2 = x3 - x4;
    # x5 lies in no equation.  Every equation holds two or more unknowns,
    # so the peel fixes none, and the core is the whole system with x5 as
    # a zero column, whose unit vector nullspace returns
    eqs = [[1, 2, 0, 0, 0, 0],
           [0, 3, 1, 4, 0, 0],
           [0, 0, 0, 1, -1, 0]]
    residuals = [list(col) for col in zip(*eqs)]
    K, peeled, core = peel(residuals, field, calls)
    assert (peeled, core) == (0, (3, 6))
    half, eighth, quarter = (field.of(Fraction(*q)) for q in ((1, 2), (3, 8), (1, 4)))
    zero, one = field.zero, field.one
    assert K == Subspace.from_vectors([[one, -half, zero, eighth, eighth, zero],
                                       [zero, zero, one, -quarter, -quarter, zero],
                                       [zero] * 5 + [one]], 6, 1, field)


@pytest.mark.parametrize("field", PEEL_FIELDS, ids=["Q", "Fp10007"])
def test_peeling_kernel_matches_dense_elimination_on_random_sparse_systems(
        field, monkeypatch):
    calls = spy_on(monkeypatch, "nullspace")
    rng = random.Random(83)
    cores = set()
    for _ in range(60):
        m, width = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.1, 0.25, 0.5, 0.9])
        residuals = [[rng.randint(-5, 5) if rng.random() < density else 0
                      for _ in range(width)] for _ in range(m)]
        if rng.random() < 0.3:
            # a dependent unknown: the kernel is nonzero
            residuals.append([a + 2 * b for a, b in zip(residuals[0], residuals[-1])])
        _, peeled, core = peel(residuals, field, calls)
        cores.add(core == (0, 0))
    # the draws reach both an empty and a nonempty core
    assert cores == {True, False}
