"""Exact coefficient fields: the rationals and prime fields F_p.

Every computation in this package is exact.  A "field" here is a small
descriptor object with ``zero``, ``one``, ``of`` (coercion) and a stable
``name`` tag used in rule files ("Q" or "Fp:<p>").  Rational arithmetic
is plain ``fractions.Fraction``; prime-field elements are canonical
representatives in ``[0, p)`` with operator overloading so the linear
algebra code never branches on the field.

The hot loops run on plain ints instead, and the descriptor owns that
form of its values: ``ints(values, scale)`` gives ints that stand for
the values, and ``values(ints, scale)`` turns them back.  Over Q the
ints are scale times the values, scale by default the lcm of their
denominators; over F_p they are the residues of scale times the values,
scale 1 by default.  ``p`` is the characteristic, None over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# the first thirteen primes; the first twelve alone let the strong
# pseudoprime 318665857834031151167461 = 399165290221 * 798330580441 through
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# the least strong pseudoprime to every base in _SMALL_PRIMES (Sorenson and
# Webster 2015): 1287836182261 * 2575672364521
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < PRIMALITY_BOUND.

    Raises ValueError for larger p, where these bases no longer decide
    primality.
    """
    if p >= PRIMALITY_BOUND:
        raise ValueError(
            f"cannot certify that {p} is prime: moduli must be below "
            f"{PRIMALITY_BOUND}")
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FpElement:
    """An element of F_p, stored as the canonical representative in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        # returns the other operand as a canonical int in [0, p), or None
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} and {other.p}")
            return other.val
        if isinstance(other, int):
            return other % self.p
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator {other.denominator} is not invertible mod {self.p}")
            return other.numerator * pow(other.denominator, -1, self.p) % self.p
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(v * pow(self.val, -1, self.p), self.p)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0 and self.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(pow(self.val, e, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __pos__(self):
        return self

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        # a number equals only the canonical representative, so that equal
        # values hash equally: FpElement(3, 7) == 3 but != 10
        if isinstance(other, (int, Fraction)):
            return self.val == other
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __repr__(self):
        return f"FpElement({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


class RationalField:
    """Descriptor for the field of rationals."""

    name = "Q"
    p = None
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def value(self, x: int, den: int = 1) -> Fraction:
        """The rational x/den."""
        return Fraction(x, den)

    def values(self, ints, den: int = 1) -> list:
        """The rationals x/den of the ints x."""
        if den == 1:
            return [Fraction(x) if x else self.zero for x in ints]
        return [Fraction(x, den) if x else self.zero for x in ints]

    def ints(self, values, scale: int | None = None):
        """``(ints, scale)``: scale times the values, a collection read
        twice unless scale is given.  The scale must be a multiple of
        every denominator.  By default it is their lcm, the least one;
        then values that are all ints come back themselves, uncopied, and
        values other than ints and Fractions raise ValueError."""
        if scale is None:
            kinds = set(map(type, values))
            if kinds <= {int}:
                return values, 1
            if not kinds <= {int, Fraction}:
                raise ValueError("rationals must be ints or Fractions")
            scale = lcm(*[v.denominator for v in values])
        if scale == 1:
            return [v.numerator for v in values], 1
        return [v.numerator * (scale // v.denominator) for v in values], scale

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """Descriptor for F_p, p prime."""

    __slots__ = ("p", "zero", "one", "name")

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        self.p = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)
        self.name = f"Fp:{p}"

    def of(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} and {x.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return FpElement(0, self.p) + x
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def value(self, x: int, den: int = 1) -> FpElement:
        """The element x/den, den prime to p."""
        return FpElement(x * pow(den, -1, self.p), self.p)

    def values(self, ints, den: int = 1) -> list:
        """The elements x/den of the ints x, den prime to p."""
        p, inv = self.p, pow(den, -1, self.p)
        return [FpElement(x * inv, p) for x in ints]

    def ints(self, values, scale: int | None = None):
        """``(ints, scale)``: the residues in [0, p) of scale times the
        values, which are anything ``of`` takes; scale is 1 by default,
        else prime to p."""
        p, of = self.p, self.of
        ints = [v % p if type(v) is int else of(v).val for v in values]
        if scale is None or scale == 1:
            return ints, 1
        return [x * scale % p for x in ints], scale

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache.setdefault(p, PrimeField(p))
    return field


def field_from_name(tag: str):
    """Inverse of the ``name`` attribute: "Q" or "Fp:<prime>"."""
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:"):
        body = tag[3:]
        if not body.isdecimal():
            raise ValueError(f"bad field tag {tag!r}")
        return GF(int(body))
    raise ValueError(f"bad field tag {tag!r}")
