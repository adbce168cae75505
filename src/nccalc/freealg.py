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

from itertools import chain, product
from math import gcd

from .fields import QQ

Word = tuple


def word_key(w: Word):
    """Sort key: degree first, then base-n position (lexicographic on letters)."""
    return (len(w), w)


def check_letters(letters, n: int):
    """Raise ValueError unless every letter is a generator index 1..n."""
    for a in letters:
        if not 1 <= a <= n:
            raise ValueError(f"letter {a} out of range 1..{n}")


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
        w = tuple(w)
        check_letters(w, n)
        return cls(n, field, {w: field.one if coeff is None else field.of(coeff)})

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
        if c == 1:
            return self  # instances are immutable, so they can be shared
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


def dot(xs, ys) -> NCPoly:
    """sum_i xs[i]*ys[i] over the free algebra, skipping pairs with a zero
    side.  One side of a pair may be a field scalar; every pair holds a
    polynomial, and the zero result takes its algebra from the first."""
    acc = None
    for x, y in zip(xs, ys):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    if acc is None:
        first = next(v for v in chain(xs, ys) if isinstance(v, NCPoly))
        return NCPoly.zero(first.n, first.field)
    return acc


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


def graded_columns(terms, n):
    """A map from words to values as graded columns, {degree: {column:
    value}}, each word at its ``word_index`` among the n^e words of its
    degree e.  The letters are read as base-n digits 1..n, and each
    degree's offset from digits 0..n-1, 1 + n + ... + n^(e-1), is
    computed once and taken off.  The letters are not checked."""
    out = {}
    offsets = {}
    for w, x in terms.items():
        c = 0
        for a in w:
            c = c * n + a
        e = len(w)
        cols = out.get(e)
        if cols is None:
            cols = out[e] = {}
            offsets[e] = (n ** e - 1) // (n - 1) if n > 1 else e
        cols[c - offsets[e]] = x
    return out


def format_columns(graded, scale, field, names) -> str:
    """The canonical text of ``format_poly`` for the polynomial whose
    terms of degree e ``graded[e]`` maps from their columns to ints:
    scale times the coefficients over Q (scale positive), residues of
    scale times them over F_p, zeros skipped.  ``names`` holds the n
    generator names.

    Terms come in (degree, column) order, which is ``word_key``'s; a
    coefficient is the int over scale reduced by their gcd over Q, x
    times scale's inverse mod p over F_p.  A word's text comes from that
    of the word printed before it: the words of a degree come in column
    order, so a word shares its longest prefix with any earlier word with
    the last one, whose runs of letters per prefix length are kept.  Only
    the letters after that prefix are read, last first, by a loop that
    stops where the two columns agree.
    """
    n, p = len(names), field.p
    inv = None if p is None else pow(scale, -1, p)
    pieces = []
    # per prefix length t of the last word: (its finished runs, its last
    # letter - 1 and that letter's run); ``runs`` holds the last word's
    # finished runs as text
    path = [(0, -1, 0)]
    runs = []
    for e in sorted(graded):
        cols = graded[e]
        del path[1:], runs[:]
        last = -1
        for c in sorted(cols):
            x = cols[c]
            if p is None:
                if not x:
                    continue
                neg = x < 0
                num, den = -x if neg else x, scale
                if den != 1:
                    g = gcd(num, den)
                    num, den = num // g, den // g
            else:
                num, den, neg = x * inv % p, 1, False
                if not num:
                    continue
            mag = str(num) if den == 1 else f"{num}/{den}"
            if e:
                # the letters after the prefix shared with the last word
                letters = []
                t, now, before = e, c, last
                while t and now != before:
                    now, a = divmod(now, n)
                    before //= n
                    letters.append(a)
                    t -= 1
                last = c
                k, letter, run = path[t]
                del path[t + 1:], runs[k:]
                for a in reversed(letters):
                    if a == letter:
                        run += 1
                    else:
                        if run:
                            runs.append(names[letter] if run == 1
                                        else f"{names[letter]}^{run}")
                            k += 1
                        letter, run = a, 1
                    path.append((k, letter, run))
                word = names[letter] if run == 1 else f"{names[letter]}^{run}"
                if runs:
                    word = "*".join(runs) + "*" + word
                body = word if num == den else f"{mag}*{word}"
            else:
                body = mag
            if pieces:
                pieces.append(f"- {body}" if neg else f"+ {body}")
            else:
                pieces.append(f"-{body}" if neg else body)
    return " ".join(pieces) if pieces else "0"


def format_poly(p: NCPoly, names=None) -> str:
    """Canonical text form: terms by (degree, base-n position), '-' pulled out
    of negative rational coefficients, unit coefficients dropped.
    Printed by ``format_columns`` from the field's ints of p's
    coefficients.

    Parsing the output with the same generator names reproduces p exactly.
    """
    if not p.terms:
        return "0"
    if names is None:
        names = default_names(p.n)
    ints, scale = p.field.ints(list(p.terms.values()))
    return format_columns(graded_columns(dict(zip(p.terms, ints)), p.n), scale, p.field,
                          names)
