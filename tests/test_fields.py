import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from nccalc import GF, QQ, FpElement, field_from_name, is_prime


def test_is_prime_small_cases():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    assert is_prime(10007)
    # Carmichael numbers fool Fermat tests but not this one
    assert not is_prime(561)
    assert not is_prime(41041)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_agrees_with_trial_division():
    for m in range(2, 2000):
        by_trial = all(m % d for d in range(2, int(m**0.5) + 1))
        assert is_prime(m) == by_trial, m


def test_gf_requires_prime_modulus():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(100)


def test_field_names_round_trip():
    assert field_from_name("Q") is QQ
    assert field_from_name("Fp:10007") is GF(10007)
    assert GF(7).name == "Fp:7"
    assert QQ.name == "Q"
    with pytest.raises(ValueError):
        field_from_name("nope")
    with pytest.raises(ValueError):
        field_from_name("Fp:6")
    with pytest.raises(ValueError, match="bad field tag"):
        field_from_name("Fp:\u00b2")


def test_fp_arithmetic_matches_integers_mod_p():
    rng = random.Random(101)
    p = 10007
    F = GF(p)
    for _ in range(300):
        a, b = rng.randrange(p), rng.randrange(p)
        fa, fb = F.of(a), F.of(b)
        assert (fa + fb).val == (a + b) % p
        assert (fa - fb).val == (a - b) % p
        assert (fa * fb).val == (a * b) % p
        assert (-fa).val == (-a) % p
        if b:
            assert ((fa / fb) * fb) == fa
    e = rng.randrange(1, 40)
    a = rng.randrange(1, p)
    assert (F.of(a) ** e).val == pow(a, e, p)
    assert (F.of(a) ** -1) * F.of(a) == F.of(1)


def test_fp_division_by_zero():
    F = GF(7)
    with pytest.raises(ZeroDivisionError):
        F.of(3) / F.of(0)


def test_fp_coercions():
    F = GF(7)
    a = F.of(3)
    assert a + 1 == F.of(4)
    assert 1 + a == F.of(4)
    assert a * 2 == F.of(6)
    assert a - 10 == F.of(0)
    # 1/2 = 4 mod 7
    assert F.of(Fraction(1, 2)) == F.of(4)
    assert a + Fraction(1, 2) == F.of(0)
    with pytest.raises(ZeroDivisionError):
        F.of(Fraction(1, 7))


def test_fp_canonical_representatives_and_hash():
    F = GF(11)
    a = F.of(-3)
    assert 0 <= a.val < 11
    assert a == F.of(8)
    assert hash(F.of(8)) == hash(F.of(19))
    assert len({F.of(t) for t in range(33)}) == 11


def test_rational_field_of():
    assert QQ.of(3) == Fraction(3)
    assert QQ.of("3/4") == Fraction(3, 4)
    assert QQ.of(Fraction(-1, 2)) == Fraction(-1, 2)


def test_fp_elements_refuse_mixed_moduli():
    with pytest.raises((ValueError, TypeError)):
        GF(7).of(1) + GF(11).of(1)


def test_is_prime_refuses_moduli_beyond_its_witness_bound():
    # strong pseudoprime to the bases 2..37; only base 41 exposes it
    assert not is_prime(399165290221 * 798330580441)
    # 1287836182261 * 2575672364521 passes every base up to 41
    bound = 3317044064679887385961981
    assert bound == 1287836182261 * 2575672364521
    for p in (bound, bound + 2, 2**89 - 1):
        with pytest.raises(ValueError, match="cannot certify"):
            is_prime(p)
        with pytest.raises(ValueError):
            GF(p)
        with pytest.raises(ValueError):
            field_from_name(f"Fp:{p}")


def test_fp_equality_matches_hash():
    F = GF(7)
    a = F.of(3)
    assert a == 3 and 3 == a
    assert a != 10 and a != -4
    assert a == Fraction(3) and a != Fraction(10)
    assert len({a, 10}) == 2 and len({a, 3}) == 1
    values = [F.of(t) for t in range(-7, 14)] + list(range(-7, 14))
    values += [Fraction(t, 2) for t in range(-7, 14)]
    for u in values:
        for v in values:
            if u == v:
                assert hash(u) == hash(v), (u, v)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(10007)], ids=["Q", "Fp2", "Fp10007"])
def test_ints_and_values_are_inverse(field):
    # ints(values) is (scale times the values, scale) over Q and (residues,
    # 1) over F_p; values(ints, scale) gives the values back, for the
    # computed scale, for a given one and for den 1
    assert QQ.p is None and field.p in (None, 2, 10007)
    char = field.p or 0
    dens = [d for d in range(1, 8) if not char or d % char]
    rng = random.Random(2500 + char)
    for _ in range(60):
        values = [field.of(Fraction(rng.randint(-9, 9), rng.choice(dens)))
                  for _ in range(rng.randint(0, 6))]
        ints, scale = field.ints(values)
        assert all(type(x) is int for x in ints)
        if field.p is None:
            # the least scale: it shares no factor with every int
            assert scale == lcm(1, *[v.denominator for v in values])
            assert gcd(scale, *ints) == 1
        else:
            assert scale == 1 and all(0 <= x < field.p for x in ints)
        assert field.values(ints, scale) == values
        given, more = field.ints(values, 3 * scale)
        assert more == 3 * scale
        assert given == ([3 * x for x in ints] if field.p is None
                         else [3 * x % field.p for x in ints])
        assert field.values(given, more) == values
        # integer values: den 1, and plain ints read as the field's values
        whole = [rng.randint(-20, 20) for _ in range(rng.randint(0, 6))]
        ints, scale = field.ints(whole)
        assert scale == 1
        assert ints == (whole if field.p is None else [x % field.p for x in whole])
        assert field.ints([field.of(x) for x in whole]) == (ints, 1)
        assert field.values(ints) == [field.of(x) for x in whole]
        assert all(type(v) is type(field.one) for v in field.values(ints, scale))

