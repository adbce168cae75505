"""Words and polynomials of the free associative algebra on n generators.

A word is a tuple of generator indices (1-based), so ``(1, 2, 1)`` is
x1*x2*x1.  The empty tuple is the unit.  Polynomials are finite linear
combinations of words with exact coefficients, stored sparsely as a
dict; the dict never holds zero coefficients.

The canonical ordering of the degree-s monomials is base-n positional:
the word acts as an s-digit number with digits (letter - 1), leftmost
digit most significant.  All dense coordinate vectors in this package
use that ordering.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .fields import QQ, FpElement

Word = tuple


def word_key(w: Word):
    """Sort key: degree first, then base-n position (lexicographic on letters)."""
    return (len(w), w)


def word_index(w: Word, s: int, n: int) -> int:
    """Index of a degree-s word in the canonical enumeration of n^s monomials."""
    if len(w) != s:
        raise ValueError(f"word {w} does not have degree {s}")
    idx = 0
    for a in w:
        if not 1 <= a <= n:
            raise ValueError(f"letter {a} out of range 1..{n}")
        idx = idx * n + (a - 1)
    return idx


def index_word(idx: int, s: int, n: int) -> Word:
    """Inverse of word_index."""
    if not 0 <= idx < n ** s:
        raise ValueError(f"index {idx} out of range for degree {s}, n={n}")
    letters = []
    for _ in range(s):
        idx, r = divmod(idx, n)
        letters.append(r + 1)
    return tuple(reversed(letters))


def all_words(s: int, n: int):
    """Degree-s words in canonical order."""
    return product(range(1, n + 1), repeat=s)


class NCPoly:
    """An element of the free algebra F<x1,...,xn>.

    Immutable by convention: no method mutates ``terms`` after
    construction, so instances can be shared and hashed freely.
    """

    __slots__ = ("n", "field", "terms")

    def __init__(self, n, field, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[w] = c
        self.n = n
        self.field = field
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls, n, field=QQ):
        return cls(n, field)

    @classmethod
    def one(cls, n, field=QQ):
        return cls(n, field, {(): field.one})

    @classmethod
    def gen(cls, n, i, field=QQ):
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return cls(n, field, {(i,): field.one})

    @classmethod
    def from_word(cls, n, w, field=QQ, coeff=None):
        return cls(n, field, {tuple(w): field.one if coeff is None else field.of(coeff)})

    @classmethod
    def constant(cls, n, c, field=QQ):
        return cls(n, field, {(): field.of(c)})

    # ---- structure queries ----

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Maximum word length, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def is_homogeneous(self, s=None):
        """True if every term has the same degree (zero counts as homogeneous).

        With ``s`` given, additionally requires that common degree to be s.
        """
        degs = {len(w) for w in self.terms}
        if len(degs) > 1:
            return False
        if s is not None and degs and degs != {s}:
            return False
        return True

    def homogeneous_component(self, s: int) -> "NCPoly":
        return NCPoly(self.n, self.field,
                      {w: c for w, c in self.terms.items() if len(w) == s})

    # ---- arithmetic ----

    def _check(self, other: "NCPoly"):
        if self.n != other.n:
            raise ValueError(f"mixed generator counts: {self.n} and {other.n}")
        if self.field != other.field:
            raise ValueError(f"mixed coefficient fields: {self.field!r} and {other.field!r}")

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            if s is None:
                terms[w] = c
            else:
                s = s + c
                if s:
                    terms[w] = s
                else:
                    del terms[w]
        p = NCPoly.__new__(NCPoly)
        p.n, p.field, p.terms = self.n, self.field, terms
        return p

    def __neg__(self):
        p = NCPoly.__new__(NCPoly)
        p.n, p.field = self.n, self.field
        p.terms = {w: -c for w, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            self._check(other)
            terms = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    c = c1 * c2
                    s = terms.get(w)
                    if s is None:
                        if c:
                            terms[w] = c
                    else:
                        s = s + c
                        if s:
                            terms[w] = s
                        else:
                            del terms[w]
            p = NCPoly.__new__(NCPoly)
            p.n, p.field, p.terms = self.n, self.field, terms
            return p
        return self._scale(other)

    def __rmul__(self, other):
        # scalars commute with everything, so left and right scaling agree
        return self._scale(other)

    def _scale(self, c):
        try:
            c = self.field.of(c)
        except (TypeError, ValueError):
            return NotImplemented
        if not c:
            return NCPoly(self.n, self.field)
        p = NCPoly.__new__(NCPoly)
        p.n, p.field = self.n, self.field
        p.terms = {w: c * t for w, t in self.terms.items()}
        return p

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {e!r}")
        result = NCPoly.one(self.n, self.field)
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (self.n == other.n and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    # ---- dense coordinates ----

    def coords(self, s: int) -> list:
        """Dense coefficient vector over the canonical degree-s monomials.

        Requires every term to have degree s (the zero polynomial is fine).
        """
        n, field = self.n, self.field
        vec = [field.zero] * (n ** s)
        for w, c in self.terms.items():
            vec[word_index(w, s, n)] = c
        return vec

    @classmethod
    def from_coords(cls, n, s, vec, field=QQ):
        if len(vec) != n ** s:
            raise ValueError(f"expected {n ** s} coordinates, got {len(vec)}")
        return cls(n, field, {index_word(i, s, n): c for i, c in enumerate(vec) if c})

    def __repr__(self):
        return f"<NCPoly n={self.n} {format_poly(self)}>"

    def __str__(self):
        return format_poly(self)


class FreeAlgebra:
    """Convenience handle: ``A = FreeAlgebra(2); x1, x2 = A.gens()``."""

    def __init__(self, n, field=QQ):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"need at least one generator, got n={n!r}")
        self.n = n
        self.field = field

    def gen(self, i):
        return NCPoly.gen(self.n, i, self.field)

    def gens(self):
        return tuple(NCPoly.gen(self.n, i, self.field) for i in range(1, self.n + 1))

    @property
    def one(self):
        return NCPoly.one(self.n, self.field)

    @property
    def zero(self):
        return NCPoly.zero(self.n, self.field)

    def __repr__(self):
        return f"FreeAlgebra({self.n}, {self.field!r})"


# ---- canonical printing ----

def default_names(n):
    return tuple(f"x{i}" for i in range(1, n + 1))


def _scalar_str(c) -> str:
    if isinstance(c, FpElement):
        return str(c.val)
    return str(c)


def _word_str(w: Word, names) -> str:
    # collapse runs of a repeated letter into powers: (1,1,2) -> x1^2*x2
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        parts.append(names[w[i] - 1] if run == 1 else f"{names[w[i] - 1]}^{run}")
        i = j
    return "*".join(parts)


def format_poly(p: NCPoly, names=None) -> str:
    """Canonical text form: terms by (degree, base-n position), '-' pulled out
    of negative rational coefficients, unit coefficients dropped.

    Parsing the output with the same generator names reproduces p exactly.
    """
    if not p.terms:
        return "0"
    if names is None:
        names = default_names(p.n)
    pieces = []
    for w in sorted(p.terms, key=word_key):
        c = p.terms[w]
        neg = isinstance(c, Fraction) and c < 0
        mag = -c if neg else c
        if not w:
            body = _scalar_str(mag)
        elif mag == 1:
            body = _word_str(w, names)
        else:
            body = f"{_scalar_str(mag)}*{_word_str(w, names)}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)
