"""A homogeneous two-sided ideal up to a degree S, held as a reduced
Gröbner basis truncated at S, with the normal words of every degree.

This is Bergman's diamond lemma for homogeneous ideals (Bergman 1978),
run degree by degree as the letterplace Buchberger algorithm runs it
(La Scala and Levandovskyy 2009).  The words of one degree are ordered by
their column (``freealg.word_index``, the first letter most
significant), and the leading word of an element is its lowest column,
as the pivot of a reduced echelon basis is.  That order is compatible
with multiplication on either side: u < v gives x^a*u < x^a*v and
u*x^b < v*x^b.  Each basis element is monic, g = u - NF(u) for its
leading word u, and the basis is reduced: no leading word contains
another, and every tail is made of normal words, the words that contain
no leading word.  The normal words N_d of degree d index a basis of the
quotient, so dim I_d = n^d - |N_d|, and the rows w - NF(w), for the
words w outside N_d, are the canonical reduced echelon basis of I_d.

The normal form is rewritten from the last letter up.  Since I is an
ideal, NF(x^a*w) = NF(x^a*NF(w)), and NF(w) is a combination of normal
words y of degree d-1.  A word x^a*y with y normal holds a leading word
only as a prefix, and at most one, since no leading word contains
another.  So the one table a degree needs (``PrefixForms``) holds
NF(x^a*y) for the words x^a*y, y in N_{d-1}, that are not normal; every
other such word is normal.  The normal form of any vector of degree d
takes d-1 steps, one table per degree, and vectors that share their
remaining prefix are summed before the next step (``reduce``): no
recursion, and the tables are the per-degree memo.

Degree s starts from the lower basis (``open``).  A word x^a*y whose
prefix is a leading word u of degree k < s, x^a*y = u*v, rewrites to
-tail(u)*v: NF(x^a*y) = NF(NF(u)*v).  The tail's words t are larger than
u, so every word that the normal form of t*v reads at degree s, t_1*z
for z in the support of NF(t_2..t_k*v), lies above x^a*y: the table is
built from the largest word down, and every word it reads is done.  The
words with no leading prefix are normal modulo the lower basis.

Those words are normal modulo the ideal the lower basis generates, once
its overlaps resolve.  For leading words u = A*B of g and v = B*C of h,
with A, B and C nonempty, the element g*C - A*h is one of the ideal, and
its leading words cancel (``overlaps``).  Its normal form modulo the
lower basis is either zero, or a new element of degree s: the reduced
echelon rows of these residuals join the basis (``join``), and their
pivots leave the normal words.  Then every overlap of degree s reduces
to zero, and by the diamond lemma the degree-s slice of the ideal the
lower basis generates has exactly the remaining words as normal words.
Any other elements of degree s, reduced on those words, join the same
way.

``resolves`` re-verifies a finished degree: the words x^a*y split into
normal words and rewritten ones, no leading word of degree s contains one
of a lower degree, and every overlap of degree s reduces to zero.

Everything runs on ints.  Over F_p they are residues.  Over Q each
degree's table holds its forms as ints over one common denominator, the
least, as a ``Subspace`` holds its tails, and ``reduce`` gives a fixed
multiple of the normal form: the product of the tables' denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .linalg import Subspace, _lowest, _rref_ints


class PrefixForms:
    """The normal forms of the degree-d words x^a*y, y a normal word of
    degree d-1, that are not normal, read as a ``Subspace``'s rows:
    ``tails`` maps each such word to its (normal word, int) entries,
    minus ``den`` times its normal form (residues over F_p, den 1).
    ``_reduce_ints`` is the Subspace's own: a word in ``tails`` becomes
    its normal form and any other word stays, as it does for the words
    x^a*y and the normal words."""

    __slots__ = ("degree", "tails", "den", "_p")

    _reduce_ints = Subspace._reduce_ints

    def __init__(self, degree, tails, den, p):
        self.degree = degree
        self.tails = tails
        self.den = den
        self._p = p


def _joined(forms: PrefixForms, rows: PrefixForms) -> PrefixForms:
    """The forms of one degree reduced modulo new rows of that degree,
    reduced echelon rows on its normal words held as ``PrefixForms``,
    with the rows' pivots added as words of their own."""
    p = forms._p
    tails = {}
    for c, tail in forms.tails.items():
        # forms.den * rows.den times the normal form, negated
        red = rows._reduce_ints([(u, -x) for u, x in tail]).items()
        tails[c] = [(u, -x % p) for u, x in red] if p else [(u, -x) for u, x in red]
    for c, tail in rows.tails.items():
        tails[c] = [(u, x * forms.den) for u, x in tail]
    return PrefixForms(forms.degree, *_lowest(tails, forms.den * rows.den), p)


class TruncatedBasis:
    """A reduced Gröbner basis truncated at the top degree built so far,
    with the normal words N_d and the table ``prefixes[d]`` of every
    degree d (see the module docstring).  ``leads[d]`` holds the leading
    words of the elements of degree d; degree 1 is zero.

    A degree s is built in three calls: ``open(s)`` rewrites the words
    x^a*y by the lower basis, ``join(s, rows, den)`` adds elements of
    degree s, reduced echelon rows on its current normal words, and
    ``resolves(s, overlaps)`` checks the result.
    """

    __slots__ = ("n", "field", "normal", "prefixes", "leads")

    def __init__(self, n, field):
        self.n = n
        self.field = field
        # degree 0 holds the empty word, degree 1 every letter
        self.normal = [[0], list(range(n))]
        self.prefixes = [None, PrefixForms(1, {}, 1, field.p)]
        self.leads = [set(), set()]

    def reduce(self, d, entries, start=1):
        """The normal form of the degree-d vector with the given (column,
        int) entries, whose suffixes of degree ``start`` are normal words,
        times the dens of the tables of degrees start+1..d, as a dict from
        normal words to its nonzero ints (residues over F_p): one table
        step per letter above the suffix, from the last one up, the vectors
        that share their remaining prefix summed first."""
        n = self.n
        # a table that rewrites no word leaves every word x^a*y normal, so
        # the suffix stays normal through it: as at degree 2, or while the
        # quotient is free
        while start < d and not self.prefixes[start + 1].tails:
            start += 1
        cut = n ** start
        level = {}
        for col, x in entries:
            head, c = divmod(col, cut)
            vec = level.setdefault(head, {})
            vec[c] = vec.get(c, 0) + x
        for j in range(start + 1, d + 1):
            table, top = self.prefixes[j], n ** (j - 1)
            up = {}
            for head, vec in level.items():
                head, a = divmod(head, n)
                red = table._reduce_ints([(a * top + c, x) for c, x in vec.items()])
                acc = up.get(head)
                if acc is None:
                    up[head] = red
                else:
                    for c, x in red.items():
                        acc[c] = acc.get(c, 0) + x
            level = up
        p = self.field.p
        out = level.get(0, {}).items()
        if p is not None:
            return {c: r for c, x in out if (r := x % p)}
        return {c: x for c, x in out if x}

    def open(self, s):
        """Start degree s: rewrite the words x^a*y, y in N_{s-1}, whose
        prefix is a lower leading word, and take the others as the normal
        words of degree s.  Returns them, in increasing order."""
        n = self.n
        top = n ** (s - 1)
        lower = [(k, n ** (s - k), self.leads[k]) for k in range(2, s) if self.leads[k]]
        words = [a * top + y for a in range(n) for y in self.normal[s - 1]]
        forms, normal = {}, []
        # from the largest word down: a rewrite reads only larger words
        for c in reversed(words) if lower else ():
            for k, cut, leads in lower:
                u, v = divmod(c, cut)
                if u in leads:
                    forms[c] = self._rewritten(s, k, u, v, forms)
                    break
            else:
                normal.append(c)
        normal = normal[::-1] if lower else words
        p = self.field.p
        if p is not None:
            den = 1
            tails = {c: [(u, -x % p) for u, x in f.items()] for c, f in forms.items()}
        else:
            den = lcm(*[x.denominator for f in forms.values() for x in f.values()])
            tails = {c: [(u, -x.numerator * (den // x.denominator)) for u, x in f.items()]
                     for c, f in forms.items()}
        self.normal.append(normal)
        self.prefixes.append(PrefixForms(s, tails, den, p))
        self.leads.append(set())
        return normal

    def _rewritten(self, s, k, u, v, forms):
        """NF(u*v) at degree s, for a leading word u of degree k and a
        normal word v, as {normal word: value} (ints and Fractions over Q,
        residues over F_p, where every den is 1): NF(u) = -tail/den, and
        each tail word t = x^a*r gives t*v, whose normal form is x^a times
        that of r*v, one degree down, rewritten by ``forms``, the words of
        degree s done so far."""
        n, p = self.n, self.field.p
        table, head, cut, top = self.prefixes[k], n ** (k - 1), n ** (s - k), n ** (s - 1)
        groups = {}
        for t, x in table.tails[u]:
            a, r = divmod(t, head)
            groups.setdefault(a, []).append((r * cut + v, -x))
        # r*v has the normal suffix v, of degree s-k
        scale = table.den * prod(self.prefixes[j].den for j in range(s - k + 1, s))
        out = {}
        for a, entries in groups.items():
            for y, x in self.reduce(s - 1, entries, s - k).items():
                if scale != 1:
                    x = Fraction(x, scale)
                w = a * top + y
                form = forms.get(w)
                if form is None:
                    out[w] = out.get(w, 0) + x
                else:
                    for c, z in form.items():
                        out[c] = out.get(c, 0) + x * z
        if p is not None:
            return {c: r for c, x in out.items() if (r := x % p)}
        return {c: x for c, x in out.items() if x}

    def overlaps(self, s):
        """The overlaps of degree s of the lower basis elements: for
        leading words u = A*B of g and v = B*C of h, with A, B and C
        nonempty and A*B*C of degree s, the (column, int) entries of
        den_g*den_h times g*C - A*h, in which u*C = A*v cancels."""
        n = self.n
        out = []
        degrees = [k for k in range(2, s) if self.leads[k]]
        for k in degrees:
            for m in degrees:
                if m <= s - k:
                    continue
                # B has degree b, A degree s - m and C degree s - k
                b = k + m - s
                cut, width = n ** b, n ** (s - k)
                starts = {}
                for v in sorted(self.leads[m]):
                    starts.setdefault(v // width, []).append(v)
                g, h = self.prefixes[k], self.prefixes[m]
                for u in sorted(self.leads[k]):
                    a, mid = divmod(u, cut)
                    for v in starts.get(mid, ()):
                        c = v % width
                        out.append([(t * width + c, x * h.den) for t, x in g.tails[u]]
                                   + [(a * n ** m + t, -x * g.den) for t, x in h.tails[v]])
        return out

    def echelon(self, s, vectors):
        """``(rows, den)``: the reduced echelon rows on the normal words of
        degree s of the span of the vectors, dicts from normal words to
        ints, as ``join`` takes them."""
        vectors = [vec for vec in vectors if vec]
        if not vectors:
            return {}, 1
        words = self.normal[s]
        where = {c: t for t, c in enumerate(words)}
        dense = []
        for vec in vectors:
            row = [0] * len(words)
            for c, x in vec.items():
                row[where[c]] = x
            dense.append(row)
        red, den, pivots = _rref_ints(dense, self.field.p)
        if red is None:
            return {c: [] for c in words}, 1
        taken = set(pivots)
        rest = [j for j in range(len(words)) if j not in taken]
        return {words[t]: [(words[j], row[j]) for j in rest if row[j]]
                for row, t in zip(red, pivots)}, den

    def join(self, s, rows, den):
        """Add elements of degree s, given as reduced echelon rows on its
        normal words, {pivot: [(normal word, int)]} over den: their pivots
        become leading words and leave N_s, and the table's forms are
        reduced modulo them.  Returns how many joined."""
        if rows:
            self.prefixes[s] = _joined(self.prefixes[s],
                                       PrefixForms(s, rows, den, self.field.p))
            self.normal[s] = [c for c in self.normal[s] if c not in rows]
            self.leads[s].update(rows)
        return len(rows)

    def resolves(self, s, overlaps):
        """Whether degree s is what a truncated basis needs: each of the
        words x^a*y, y in N_{s-1}, is either normal or rewritten by the
        table (both are built as sets of such words, so they must be
        disjoint and number n*|N_{s-1}| together), no leading word of
        degree s contains a lower one (its prefix of degree s-1 is
        normal; its suffix is, as a word x^a*y), and every one of the
        ``overlaps`` of degree s reduces to zero."""
        n, prev, tails, normal = self.n, self.normal[s - 1], self.prefixes[s].tails, self.normal[s]
        if len(tails) + len(normal) != n * len(prev) or not tails.keys().isdisjoint(normal):
            return False
        if self.leads[s]:
            below = set(prev)
            if any(u // n not in below for u in self.leads[s]):
                return False
        return not any(self.reduce(s, e) for e in overlaps)

    def component(self, s) -> Subspace:
        """I_s as a Subspace: the rows w - NF(w) for the words w outside
        N_s, in canonical form.  Builds the normal form of all n^s words,
        each from that of its suffix by one table step."""
        n, p = self.n, self.field.p
        forms = {c: {c: 1} for c in range(n)}
        den = 1
        for j in range(2, s + 1):
            table, top = self.prefixes[j], n ** (j - 1)
            forms = {a * top + w: table._reduce_ints([(a * top + c, x) for c, x in vec.items()])
                     for a in range(n) for w, vec in forms.items()}
            den *= table.den
        normal = set(self.normal[s])
        tails = {w: sorted((c, -x % p) if p else (c, -x) for c, x in vec.items())
                 for w, vec in forms.items() if w not in normal}
        return Subspace(n, s, self.field, *_lowest(tails, den))
