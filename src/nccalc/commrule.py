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

The arithmetic runs on plain ``int`` coefficients, never on field
objects, so no multiply-add builds a ``Fraction`` or normalises by a
gcd.  The field's ``ints`` and ``values`` convert at the two ends.
Over F_p the ints are the residues, reduced mod p once per trie node.
Over Q the images are scaled once per rule by L, the lcm of their
coefficients' denominators (``_int_images``, cached on the rule), and
every value carries a known power of L: since (L*A)*(L^m*B) =
L^(m+1)*(A*B), one factor of L per letter.  Each output coefficient is
divided by its scale once, when it is turned back into a field element.
"""

from __future__ import annotations

from itertools import chain

from .fields import QQ
from .freealg import NCPoly, check_letters, dot
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
    """The rule's images on ints, cached on the rule: (L, table, blocks).

    Over Q, L is the lcm of the image coefficients' denominators; over
    F_p, L is 1.  table[a-1][k] lists (j, terms) for the nonzero entries
    A(x^a)^j_k, with terms the (word, int) pairs of the entry scaled by L
    (over Q) or its residues (over F_p).  ``blocks`` maps a number of
    places to ``_blocks(table, places)``, filled by ``_walk`` as it asks.
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


def _int_terms(rule: CommRule, f: NCPoly):
    """f's terms on ints, checked against the rule: (terms, den).

    Over Q the ints carry den, the lcm of f's denominators, times their
    value; over F_p they are residues and den is 1.
    """
    if f.n != rule.n:
        raise ValueError(f"polynomial has {f.n} generators, rule has {rule.n}")
    if f.field != rule.field:
        raise ValueError("polynomial and rule coefficient fields differ")
    check_letters(sorted(set(chain.from_iterable(f.terms))), rule.n)
    ints, den = rule.field.ints(f.terms.values())
    return dict(zip(f.terms, ints)), den


def _walk(rule: CommRule, terms, den, images, derivatives):
    """The requested columns of Phi(f) on ints, as ``(cols, scale)``.

    ``terms`` maps f's words to den times their coefficients over Q, or
    to their residues over F_p (den 1).  ``cols`` is one flat list of
    dicts from words to ints, ``scale`` times their values (residues over
    F_p): with ``images``, entry (k, i) of A(f) at (i-1)*n + k-1, then
    with ``derivatives`` D_k(f) at the next n places.  The node of a
    prefix q of depth t holds den*L^(start-t) times the columns of
    Phi(f_q), f_q the sum of c_w*u over the words w = q*u of f; start is
    f's top degree with ``images``, one less without.
    """
    n, p = rule.n, rule.field.p
    scale, table, blocks = _int_images(rule)
    width = (n * n if images else 0) + (n if derivatives else 0)
    rows = blocks.get(width) or blocks.setdefault(width, _blocks(table, width))
    top = max(map(len, terms), default=0)
    mult = 1
    level = {}
    for depth in range(top if images else top - 1, -1, -1):
        nodes = {}
        for w, c in terms.items():
            if len(w) > depth:
                q = w[:depth]
                node = nodes.get(q) or nodes.setdefault(q, [{} for _ in range(width)])
                if derivatives:
                    # e_a * f_(q*x^a) in D, the last n places: the suffixes
                    # after q*x^a are distinct keys
                    node[w[depth] - n - 1][w[depth + 1:]] = c * mult
            elif images and len(w) == depth:
                # c * I at the word's own node
                node = nodes.get(w) or nodes.setdefault(w, [{} for _ in range(width)])
                for i in range(0, n * n, n + 1):
                    node[i][()] = c * mult
        for q, sub in level.items():
            _prepend(rows[q[depth] - 1], sub, nodes[q[:depth]])
        if p is not None:
            nodes = {q: _reduced(node, p) for q, node in nodes.items()}
        level = nodes
        if depth:
            mult *= scale
    return level.get((), [{}] * width), den * mult


def _blocks(table, width):
    """Each letter's rows of ``table`` laid over ``width`` places, n per
    block, as ``_prepend`` reads them: row c+k lists (c+j, terms) for
    each entry (j, terms) of row k, for every block from c on.  One block
    is the table itself."""
    n = len(table)
    if width == n:
        return table
    return [[[(c + j, terms) for j, terms in row] for c in range(0, width, n) for row in rows]
            for rows in table]


def _prepend(rows, sub, acc):
    """Add sum_j A(x^a)^j_k * sub[c+j] into acc[c+k] for every k and every
    block of n places from c on, for x^a's ``rows`` from ``_blocks``:
    each column of n entries takes the step.

    ``sub`` and ``acc`` are equal-length lists of dicts from words to
    ints; ``acc`` is updated in place and may gain zero values.  Keys
    only need ``+``: ``optimal._normal_step`` passes dicts keyed by
    column and rows whose words are column offsets.
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


def _poly(rule: CommRule, ints, scale) -> NCPoly:
    """The polynomial of the rule's algebra whose terms ``ints`` maps
    words to: scale times the coefficients over Q, residues over F_p
    (``_walk``'s output), zeros dropped."""
    if 0 in ints.values():
        ints = {u: c for u, c in ints.items() if c}
    p = NCPoly.__new__(NCPoly)
    p.n, p.field = rule.n, rule.field
    p.terms = dict(zip(ints, rule.field.values(ints.values(), scale)))
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
