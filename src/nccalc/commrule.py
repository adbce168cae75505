"""Commutation rules between generators and their differentials.

A rule assigns to each generator x^j an n by n matrix of polynomials
governing how x^j moves past a differential:

    x^j dx^i = dx^k * A(x^j)^i_k

Storage puts the lower index k on the row and the upper index i on the
column, so extending A to products of generators is ordinary matrix
multiplication.  That single convention is what keeps every formula in
this package free of transpositions; it matches how the matrices are
conventionally displayed.
"""

from __future__ import annotations

from .fields import QQ
from .freealg import NCPoly
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
        n = self.n
        rows = []
        for k in range(n):
            row = []
            for i in range(n):
                acc = NCPoly.zero(n, self.field)
                for l in range(n):
                    a = self.rows[k][l]
                    b = other.rows[l][i]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return MatrixPoly(rows)

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

    Instances are immutable.  The per-word caches only memoize pure
    results, so concurrent use can at worst duplicate work.
    """

    __slots__ = ("n", "field", "images", "homogeneous",
                 "_word_matrices", "_word_partials")

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
        self._word_matrices = {}
        self._word_partials = {}

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

    def _matrix_of_word(self, w):
        m = self._word_matrices.get(w)
        if m is None:
            if not w:
                m = MatrixPoly.identity(self.n, self.field)
            else:
                m = self._matrix_of_word(w[:-1]) * self.images[w[-1] - 1]
            self._word_matrices[w] = m
        return m

    def apply(self, f: NCPoly) -> MatrixPoly:
        """The unital homomorphism into matrices, extended linearly."""
        if f.n != self.n:
            raise ValueError(f"polynomial has {f.n} generators, rule has {self.n}")
        if f.field != self.field:
            raise ValueError("polynomial and rule coefficient fields differ")
        acc = MatrixPoly.zero(self.n, self.field)
        for w, c in sorted(f.terms.items(), key=lambda t: (len(t[0]), t[0])):
            acc = acc + self._matrix_of_word(w).scale(c)
        return acc

    def change_basis(self, alpha) -> "CommRule":
        """The same rule written in new generators z^p = sum_i alpha[p][i] x^i.

        New image entries are alpha^p_q beta^l_m alpha^i_j A(x^q)^j_l with
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
        zero = NCPoly.zero(n, field)
        new_images = []
        for p in range(n):
            rows = []
            for m in range(n):
                row = []
                for i in range(n):
                    acc = zero
                    for q in range(n):
                        a_pq = alpha[p][q]
                        if not a_pq:
                            continue
                        img = self.images[q].rows
                        for l in range(n):
                            b_lm = beta[l][m]
                            if not b_lm:
                                continue
                            for j in range(n):
                                a_ij = alpha[i][j]
                                e = img[l][j]
                                if a_ij and e:
                                    acc = acc + (a_pq * b_lm * a_ij) * e
                    row.append(substitute_generators(acc, beta))
                rows.append(row)
            new_images.append(MatrixPoly(rows))
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
