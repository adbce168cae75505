"""Commutation rules between generators and their differentials.

A rule assigns to each generator x^j an n by n matrix of polynomials
governing how x^j moves past a differential:

    x^j dx^i = dx^k * A(x^j)^i_k

Storage puts the lower index k on the row and the upper index i on the
column, so extending A to products of generators is ordinary matrix
multiplication.  That single convention is what keeps every formula in
this package free of transpositions; it matches how the matrices are
conventionally displayed.

The twisted product rule D_k(f*g) = D_k(f)*g + sum_j A(f)^j_k * D_j(g)
says exactly that Phi(f) = [[A(f), D(f)], [0, f]], D(f) the column of
the n derivatives, is a unital homomorphism into (n+1) by (n+1)
matrices.  With Phi(x^a) = [[A(x^a), e_a], [0, x^a]], f = c +
sum_a x^a*f_a split by first letter has A(f) = c*I + sum_a
A(x^a)*A(f_a) and D(f) = sum_a (e_a*f_a + A(x^a)*D(f_a)).  ``_walk``
evaluates the columns asked for over the prefix trie of f's words, in
a loop, each by the same step ``_prepend``; f itself is never carried.
``CommRule.apply`` asks for A, ``calculus`` for D, of a polynomial or
of a single word, and the closure checks of ``optimal`` on single
elements for both.  ``optimal``'s residual tables take the same step,
word by word.

Inside the walk a word is its column: a word w of degree e is
``freealg.word_index(w)`` < n^e, its prefix of length t is the column
w // n^(e-t), and an image term v of length l prepended to a column u of
degree e is the column word_index(v)*n^e + u, a constant offset added.
So each letter's rows are shifted once per (l, e) (``_shifted``,
cached on the rule), and every place holds graded columns, {degree:
{column: int}}: a homogeneous rule on a homogeneous f keeps one degree
per place, while constant or nonlinear image terms, or an f of mixed
degrees, just put several there.  Words are turned into columns where f
enters and back where an ``NCPoly`` leaves (``_poly``); ``derive`` and
``diff`` print the columns themselves (``freealg.format_columns``).

The arithmetic runs on plain ``int`` coefficients, never on field
objects, so no multiply-add builds a ``Fraction`` or normalises by a
gcd.  The field's ``ints`` and ``values`` convert at the two ends.
Over F_p the ints are the residues, reduced mod p once per trie node.
Over Q the images are scaled once per rule by L, the lcm of their
coefficients' denominators (``_int_images``, cached on the rule), and
every value carries a known power of L: since (L*A)*(L^m*B) =
L^(m+1)*(A*B), one factor of L per letter.  Each output coefficient is
divided by its scale once, when it is turned back into a field element
or printed.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

from .fields import QQ
from .freealg import NCPoly, check_letters, dot, graded_columns, index_word, word_index
from .linalg import invert_matrix


class NonHomogeneousRuleError(ValueError):
    """Raised by operations defined only for rules with linear-form entries."""


class MatrixPoly:
    """An n by n matrix with NCPoly entries; entry (row k, column i) holds
    the symbol with upper index i and lower index k."""

    __slots__ = ("n", "field", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError("empty matrix")
        n = len(rows)
        first = rows[0][0]
        for r in rows:
            if len(r) != n:
                raise ValueError(f"matrix is not square: {len(r)} columns, {n} rows")
            for e in r:
                if not isinstance(e, NCPoly):
                    raise TypeError(f"matrix entry {e!r} is not a polynomial")
                if e.n != first.n or e.field != first.field:
                    raise ValueError("matrix entries disagree on algebra")
        if first.n != n:
            raise ValueError(
                f"matrix size {n} must match generator count {first.n}")
        self.n = n
        self.field = first.field
        self.rows = rows

    @classmethod
    def zero(cls, n, field=QQ):
        z = NCPoly.zero(n, field)
        return cls([[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, n, field=QQ):
        z = NCPoly.zero(n, field)
        one = NCPoly.one(n, field)
        return cls([[one if i == k else z for i in range(n)] for k in range(n)])

    def entry(self, k, i):
        """Entry with lower index k, upper index i (both 1-based)."""
        return self.rows[k - 1][i - 1]

    def __add__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return MatrixPoly([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return MatrixPoly([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        cols = tuple(zip(*other.rows))
        return MatrixPoly([[dot(row, col) for col in cols] for row in self.rows])

    def scale(self, c):
        return MatrixPoly([[c * e for e in r] for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self):
        return not any(e for r in self.rows for e in r)

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return f"<MatrixPoly [{body}]>"


class CommRule:
    """A commutation rule: the generator images, extended multiplicatively.

    ``homogeneous`` is true when every image entry is a linear form
    (zero or homogeneous of degree 1); only such rules feed the ideal
    construction, while derivatives work for any rule.

    Instances are immutable.  One cache, filled on first use, memoizes
    the integer form of the images (``_int_images``) and the walks' rows
    laid over their blocks, pure results, so concurrent use can at worst
    duplicate work.
    """

    __slots__ = ("n", "field", "images", "homogeneous", "_int_images")

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise ValueError("a rule needs at least one generator image")
        n = len(images)
        for m in images:
            if not isinstance(m, MatrixPoly):
                raise TypeError("rule images must be polynomial matrices")
            if m.n != n:
                raise ValueError(
                    f"image size {m.n} does not match generator count {n}")
            if m.field != images[0].field:
                raise ValueError("rule images disagree on coefficient field")
        self.n = n
        self.field = images[0].field
        self.images = images
        self.homogeneous = all(
            e.is_homogeneous(1) for m in images for r in m.rows for e in r)
        self._int_images = None

    @classmethod
    def from_tensor(cls, n, entries, field=QQ):
        """Homogeneous rule from sparse tensor entries (i, j, k, l, coeff),
        placing coeff * x^l into the image of x^j at (row k, column i)."""
        grids = [[[dict() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i, j, k, l, c in entries:
            for name, idx in (("i", i), ("j", j), ("k", k), ("l", l)):
                if not 1 <= idx <= n:
                    raise ValueError(f"tensor index {name}={idx} out of range 1..{n}")
            cell = grids[j - 1][k - 1][i - 1]
            cell[(l,)] = cell.get((l,), field.zero) + field.of(c)
        images = []
        for j in range(n):
            rows = [[NCPoly(n, field, grids[j][k][i]) for i in range(n)]
                    for k in range(n)]
            images.append(MatrixPoly(rows))
        return cls(images)

    def image(self, j):
        """The matrix assigned to generator j (1-based)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"generator index {j} out of range 1..{self.n}")
        return self.images[j - 1]

    def tensor_coefficient(self, i, j, k, l):
        """Coefficient of x^l in the image of x^j at (row k, column i)."""
        if not self.homogeneous:
            raise NonHomogeneousRuleError(
                "tensor coefficients exist only for homogeneous rules")
        entry = self.image(j).entry(k, i)
        return entry.terms.get((l,), self.field.zero)

    def apply(self, f: NCPoly) -> MatrixPoly:
        """The unital homomorphism into matrices, extended linearly: the
        columns of A(f) from ``_walk``."""
        n = self.n
        cols, scale = _walk(self, *_int_terms(self, f), True, False)
        return MatrixPoly([[_poly(self, cols[i * n + k], scale) for i in range(n)]
                           for k in range(n)])

    def change_basis(self, alpha) -> "CommRule":
        """The same rule written in new generators z^p = sum_i alpha[p][i] x^i.

        The image of z^p is beta^T * (sum_q alpha[p][q] A(x^q)) * alpha^T,
        beta the inverse matrix, followed by substituting
        x^i = sum_k beta[i][k] z^k inside every polynomial.
        """
        n, field = self.n, self.field
        alpha = [[field.of(c) for c in row] for row in alpha]
        if len(alpha) != n or any(len(r) != n for r in alpha):
            raise ValueError(f"change of basis matrix must be {n}x{n}")
        beta = invert_matrix(alpha, field)
        if beta is None:
            raise ValueError("change of basis matrix is singular")
        # stacks[l][j] lists entry (l, j) of every generator image
        stacks = [list(zip(*rows)) for rows in zip(*(m.rows for m in self.images))]
        beta_cols = tuple(zip(*beta))
        new_images = []
        for a_p in alpha:
            mixed = [[dot(a_p, stack) for stack in row] for row in stacks]
            right = [[dot(row, a_i) for a_i in alpha] for row in mixed]
            new_images.append(MatrixPoly(
                [[substitute_generators(dot(b_m, col), beta) for col in zip(*right)]
                 for b_m in beta_cols]))
        return CommRule(new_images)

    def __eq__(self, other):
        if not isinstance(other, CommRule):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        kind = "homogeneous" if self.homogeneous else "general"
        return f"<CommRule n={self.n} {kind} over {self.field!r}>"


def _int_images(rule: CommRule):
    """The rule's images on ints, cached on the rule: (L, table, shifted).

    Over Q, L is the lcm of the image coefficients' denominators; over
    F_p, L is 1.  table[a-1][k] lists (j, terms) for the nonzero entries
    A(x^a)^j_k, with terms the (word, int) pairs of the entry scaled by L
    (over Q) or its residues (over F_p).  ``shifted`` maps a number of
    places and a degree to ``_shifted``'s rows, filled as they are asked
    for.
    """
    got = rule._int_images
    if got is None:
        field = rule.field
        scale = field.ints([c for m in rule.images for row in m.rows
                            for e in row for c in e.terms.values()])[1]
        table = tuple(tuple(tuple((j, tuple(zip(e.terms,
                                                field.ints(e.terms.values(), scale)[0])))
                                  for j, e in enumerate(row) if e)
                            for row in m.rows) for m in rule.images)
        got = rule._int_images = (scale, table, {})
    return got


def _shifted(rule: CommRule, width, e):
    """Each letter's rows that prepend x^a to columns of degree e over
    ``width`` places, as ``_prepend`` reads them, cached on the rule: for
    x^a, one (l, rows) per length l of its image terms, whose terms v
    become the column offset word_index(v)*n^e of v times a word of
    degree e.  A homogeneous rule has l = 1 alone, where x^b sits at
    (b-1)*n^e.  The rows of degree e > 0 scale those of degree 0, and
    ``_blocks`` lays the n rows over the places, sharing their terms."""
    _, table, cache = _int_images(rule)
    got = cache.get((width, e))
    if got is None:
        n = rule.n
        if width != n:
            got = [[(l, _blocks(rows, width)) for l, rows in letter]
                   for letter in _shifted(rule, n, e)]
        elif e:
            shift = n ** e
            got = [[(l, [[(j, [(c * shift, x) for c, x in terms]) for j, terms in row]
                         for row in rows])
                    for l, rows in letter] for letter in _shifted(rule, n, 0)]
        else:
            got = [[(l, [[(j, at) for j, terms in row
                          if (at := [(word_index(v, l, n), x) for v, x in terms if len(v) == l])]
                         for row in rows])
                    for l in sorted({len(v) for row in rows for _, terms in row
                                     for v, _ in terms})]
                   for rows in table]
        cache[(width, e)] = got
    return got


def _int_terms(rule: CommRule, f: NCPoly):
    """f's terms on ints as graded columns, checked against the rule:
    (terms, den).

    Over Q the ints carry den, the lcm of f's denominators, times their
    value; over F_p they are residues and den is 1.
    """
    if f.n != rule.n:
        raise ValueError(f"polynomial has {f.n} generators, rule has {rule.n}")
    if f.field != rule.field:
        raise ValueError("polynomial and rule coefficient fields differ")
    check_letters(sorted(set(chain.from_iterable(f.terms))), rule.n)
    ints, den = rule.field.ints(f.terms.values())
    return graded_columns(dict(zip(f.terms, ints)), rule.n), den


def _walk(rule: CommRule, terms, den, images, derivatives):
    """The requested columns of Phi(f) on ints, as ``(cols, scale)``.

    ``terms`` holds f as graded columns, {degree: {column: int}}, each
    word at its ``word_index`` among the words of its degree, den times
    its coefficient over Q, its residue over F_p (den 1).  ``cols`` is
    one flat list of graded columns, scale times their values (residues
    over F_p), zeros possibly kept over Q: with ``images``, entry (k, i)
    of A(f) at (i-1)*n + k-1, then with ``derivatives`` D_k(f) at the
    next n places.  The node of a prefix q of depth t, keyed by q's
    column, holds den*L^(start-t) times the columns of Phi(f_q), f_q the
    sum of c_w*u over the words w = q*u of f; start is f's top degree
    with ``images``, one less without.  Each node keeps its places by
    degree, so a rule with constant or nonlinear image terms, or an f of
    mixed degrees, just puts several degrees in a place.
    """
    n, p = rule.n, rule.field.p
    scale = _int_images(rule)[0]
    width = (n * n if images else 0) + (n if derivatives else 0)
    top = max(terms, default=0)
    power = [n ** i for i in range(top + 1)]
    shifted = {}
    mult = 1
    level = {}

    def node():
        return defaultdict(lambda: [{} for _ in range(width)])

    for depth in range(top if images else top - 1, -1, -1):
        nodes = defaultdict(node)
        for e, cols in terms.items():
            if e > depth:
                # w = q*x^a*u, u of degree s
                s = e - depth - 1
                rest, cut = power[s], power[s + 1]
                for c, x in cols.items():
                    q, u = divmod(c, cut)
                    places = nodes[q]
                    if derivatives:
                        # e_a * f_(q*x^a) in D, the last n places: the
                        # suffixes after q*x^a are distinct keys
                        a, u = divmod(u, rest)
                        places[s][a - n][u] = x * mult
            elif images and e == depth:
                # c * I at the word's own node
                for c, x in cols.items():
                    places = nodes[c][0]
                    for i in range(0, n * n, n + 1):
                        places[i][0] = x * mult
        for q, sub in level.items():
            q, a = divmod(q, n)
            places = nodes[q]
            for e, below in sub.items():
                rows = shifted.get(e)
                if rows is None:
                    rows = shifted[e] = _shifted(rule, width, e)
                for length, block in rows[a]:
                    _prepend(block, below, places[e + length])
        if p is not None:
            nodes = {q: {e: _reduced(acc, p) for e, acc in places.items()}
                     for q, places in nodes.items()}
        level = nodes
        if depth:
            mult *= scale
    root = level.get(0, {})
    return [{e: acc[i] for e, acc in root.items() if acc[i]} for i in range(width)], den * mult


def _blocks(rows, width):
    """One letter's ``rows`` laid over ``width`` places, n per block, as
    ``_prepend`` reads them: row c+k lists (c+j, terms) for each entry
    (j, terms) of row k, for every block from c on.  One block is the
    rows themselves."""
    n = len(rows)
    if width == n:
        return rows
    return [[(c + j, terms) for j, terms in row] for c in range(0, width, n) for row in rows]


def _prepend(rows, sub, acc):
    """Add sum_j A(x^a)^j_k * sub[c+j] into acc[c+k] for every k and every
    block of n places from c on, for x^a's ``rows`` from ``_blocks``:
    each column of n entries takes the step.

    ``sub`` and ``acc`` are equal-length lists of dicts to ints, and
    ``acc`` is updated in place and may gain zero values.  A row's terms
    are (key, int) pairs, and a term's key v and a sub key u make the key
    v + u: column offsets and columns (``_shifted``), or words (the
    parser's products).
    """
    for out, row in zip(acc, rows):
        get = out.get
        for j, entry in row:
            d = sub[j]
            if not d:
                continue
            for v, x in entry:
                for u, y in d.items():
                    key = v + u
                    out[key] = get(key, 0) + x * y


def _reduced(acc, p):
    """The residues mod p of acc's values, zeros dropped."""
    return [{u: r for u, c in d.items() if (r := c % p)} for d in acc]


def _poly(rule: CommRule, graded, scale) -> NCPoly:
    """The polynomial of the rule's algebra whose terms ``graded`` holds
    as graded columns, scale times the coefficients over Q, residues over
    F_p (``_walk``'s output), zeros dropped."""
    n, value = rule.n, rule.field.values
    terms = {}
    for e, cols in graded.items():
        cols = {c: x for c, x in cols.items() if x}
        terms.update(zip([index_word(c, e, n) for c in cols], value(cols.values(), scale)))
    p = NCPoly.__new__(NCPoly)
    p.n, p.field, p.terms = n, rule.field, terms
    return p


def substitute_generators(p: NCPoly, matrix) -> NCPoly:
    """Linear generator substitution x^i -> sum_k matrix[i-1][k] * x^{k+1},
    extended multiplicatively to words and linearly to polynomials."""
    n, field = p.n, p.field
    out = {}
    for w, c in p.terms.items():
        partial = {(): c}
        for a in w:
            row = matrix[a - 1]
            nxt = {}
            for pw, pc in partial.items():
                for t, coef in enumerate(row):
                    if coef:
                        key = pw + (t + 1,)
                        cur = nxt.get(key)
                        val = pc * coef if cur is None else cur + pc * coef
                        nxt[key] = val
            partial = nxt
        for pw, pc in partial.items():
            cur = out.get(pw)
            out[pw] = pc if cur is None else cur + pc
    return NCPoly(n, field, out)


BUILTIN_NAMES = ("ex3.1-diag", "ex3.2-zero", "ex3.3-minus", "ex3.4", "ex3.5")


def builtin(name, field=QQ, *, q=None, n=None, alphas=None, mu=None, lam=None):
    """Construct a named rule from the built-in catalog.

    ex3.1-diag   diagonal q-deformation; needs q, an n by n scalar grid
                 with q[i][j]*q[j][i] = 1 off the diagonal
    ex3.2-zero   all images zero (differentials absorb everything); needs n
    ex3.3-minus  sign-flip rule x^i dx^j = -dx^i x^j; needs n
    ex3.4        one-variable survivor rule; needs alphas, the weights of
                 x^2..x^n in the self-image of x^1 (n = len(alphas) + 1)
    ex3.5        two-generator split rule; needs mu and lam
    """
    if name == "ex3.1-diag":
        if q is None:
            raise ValueError("ex3.1-diag needs the q grid")
        q = [[field.of(c) for c in row] for row in q]
        size = len(q)
        if size < 1 or any(len(row) != size for row in q):
            raise ValueError("q grid must be square")
        for i in range(size):
            for j in range(size):
                if i != j and q[i][j] * q[j][i] != field.one:
                    raise ValueError(
                        f"q[{i + 1}][{j + 1}]*q[{j + 1}][{i + 1}] must be 1, "
                        f"got {q[i][j] * q[j][i]}")
        zero = NCPoly.zero(size, field)
        images = []
        for j in range(size):
            xj = NCPoly.gen(size, j + 1, field)
            rows = [[q[i][j] * xj if i == k else zero for i in range(size)]
                    for k in range(size)]
            images.append(MatrixPoly(rows))
        return CommRule(images)

    if name == "ex3.2-zero":
        size = 2 if n is None else n
        return CommRule([MatrixPoly.zero(size, field) for _ in range(size)])

    if name == "ex3.3-minus":
        size = 2 if n is None else n
        return CommRule(_minus_images(size, field))

    if name == "ex3.4":
        if alphas is None:
            raise ValueError("ex3.4 needs alphas, the weights of x2..xn")
        alphas = [field.of(a) for a in alphas]
        size = len(alphas) + 1
        if size < 2:
            raise ValueError("ex3.4 needs at least one weight")
        images = _minus_images(size, field)
        w = NCPoly(size, field,
                   {(t,): alphas[t - 2] for t in range(2, size + 1)})
        first = [list(r) for r in images[0].rows]
        first[0][0] = w
        return CommRule([MatrixPoly(first)] + list(images[1:]))

    if name == "ex3.5":
        if mu is None or lam is None:
            raise ValueError("ex3.5 needs mu and lam")
        mu, lam = field.of(mu), field.of(lam)
        x1 = NCPoly.gen(2, 1, field)
        x2 = NCPoly.gen(2, 2, field)
        zero = NCPoly.zero(2, field)
        a1 = MatrixPoly([[mu * x2, -x2], [zero, zero]])
        a2 = MatrixPoly([[zero, zero], [-x1, lam * x1]])
        return CommRule([a1, a2])

    raise ValueError(f"unknown rule name {name!r}; valid: {', '.join(BUILTIN_NAMES)}")


def _minus_images(size, field):
    # image of x^i has row i filled with -x^1 .. -x^n, all else zero
    zero = NCPoly.zero(size, field)
    images = []
    for i in range(size):
        rows = []
        for k in range(size):
            if k == i:
                rows.append([-NCPoly.gen(size, j + 1, field) for j in range(size)])
            else:
                rows.append([zero] * size)
        images.append(MatrixPoly(rows))
    return images
