"""Exact dense linear algebra over the coefficient field.

Everything reduces to one primitive: reduced row echelon form.  Vectors
are plain lists; a Subspace is the canonical RREF basis of a subspace of
a fixed homogeneous component, so two subspaces are equal iff their
stored rows are identical.  Preimages, intersections and the
invariant-subspace rounds of ``optimal`` all take one kernel step,
``Subspace.kernel_of``.

``rref`` eliminates on plain ints, never on field objects.  Over F_p it
works on the residues ``FpElement.val`` and wraps the result back.  Over
Q it scales each row to integers and eliminates modulo a 61-bit prime
p, then returns only what it has proved exact:

* full column rank mod p means full column rank over Q (a minor that is
  nonzero mod p is nonzero), so the answer is the identity;
* otherwise every entry of the mod-p RREF is rationally reconstructed
  (Wang) into a candidate B, and every input row a is checked over Z to
  be ``sum_t a[pivot_t] * B_t``.  That puts the row space of the input
  inside span(B), while dim B = rank_p <= rank_Q; so the two spans
  agree, and since the RREF is unique B is the exact answer.

When a prime fails the check the next one is tried; after the last, the
plain ``Fraction`` elimination answers.  The modular elimination walks
only the pivot row's nonzero columns and the certificate only the
nonzero entries of B, so the sparse cases (diagonal rules, the zero
rule, near-identity bases) stay near linear time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm
from operator import attrgetter

from .fields import FpElement
from .freealg import NCPoly


# moduli of the rational path, tried in order: the two largest primes
# below 2^61 (tests check both with fields.is_prime)
_PRIMES = ((1 << 61) - 1, (1 << 61) - 31)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows):
    """Reduced row echelon form.

    Takes an iterable of equal-length coefficient lists, returns
    ``(reduced_rows, pivot_columns)`` with zero rows dropped, each pivot
    normalized to one and cleared above and below.  The result is the
    canonical basis of the row space.  Input rows are not modified.

    Rows of ``Fraction`` or of ``FpElement`` over one modulus are
    eliminated on ints, as the module docstring describes; any other
    entries in their own arithmetic.
    """
    rows = [list(r) for r in rows]
    kinds = set(map(type, chain.from_iterable(rows)))
    if kinds == {Fraction}:
        return _rref_rational(rows)
    if kinds == {FpElement}:
        moduli = set(map(attrgetter("p"), chain.from_iterable(rows)))
        if len(moduli) == 1:
            return _rref_fp(rows, moduli.pop())
    return _rref_fraction(rows)


def _rref_fraction(rows):
    """Elimination in the entries' own arithmetic: the fallback of ``rref``
    and its test oracle."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pr = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pr = i
                break
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        prow = rows[rank]
        inv = prow[col]
        if inv != 1:
            for j in range(col, ncols):
                if prow[j]:
                    prow[j] = prow[j] / inv
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                irow = rows[i]
                for j in range(col, ncols):
                    if prow[j]:
                        irow[j] = irow[j] - f * prow[j]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _rref_mod(rows, p):
    """RREF mod p of nonzero rows of residues in [0, p), reduced in place.

    Returns ``(reduced_rows, pivots)``.  Rows wait in buckets keyed by
    their first nonzero column, so each pivot step touches only the rows
    it has to clear.  The forward pass alone decides full column rank,
    the common case, which skips back substitution.
    """
    ncols = len(rows[0])
    waiting = {}
    for r in rows:
        waiting.setdefault(next(filter(r.__getitem__, range(ncols))), []).append(r)
    red, pivots = [], []
    for col in range(ncols):
        group = waiting.pop(col, None)
        if group is None:
            continue
        # entries of waiting rows are reduced lazily: exact up to the lead
        # column, off by multiples of p after it
        prow = group.pop()
        prow[col + 1:] = [x % p for x in prow[col + 1:]]
        nz = list(filter(prow.__getitem__, range(col, ncols)))
        inv = pow(prow[col], -1, p)
        if inv != 1:
            for j in nz:
                prow[j] = prow[j] * inv % p
        pvals = [prow[j] for j in nz]
        for irow in group:
            f = irow[col]
            for j, v in zip(nz, pvals):
                irow[j] -= f * v
            for j in range(col + 1, ncols):
                x = irow[j] = irow[j] % p
                if x:
                    waiting.setdefault(j, []).append(irow)
                    break
        red.append(prow)
        pivots.append(col)
        if not waiting:
            break
    if len(pivots) == ncols:
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)], pivots
    for t in range(len(red) - 1, 0, -1):
        col = pivots[t]
        prow = red[t]
        nz = list(filter(prow.__getitem__, range(col, ncols)))
        pvals = [prow[j] for j in nz]
        for irow in red[:t]:
            f = irow[col]
            if f:
                for j, v in zip(nz, pvals):
                    irow[j] = (irow[j] - f * v) % p
    return red, pivots


def _rref_fp(rows, p):
    """RREF over F_p on the residues, wrapped back into FpElement."""
    vals = [v for v in ([c.val for c in r] for r in rows) if any(v)]
    if not vals:
        return [], []
    red, pivots = _rref_mod(vals, p)
    zero, one = FpElement(0, p), FpElement(1, p)
    return [[FpElement(v, p) if v > 1 else (one if v else zero) for v in r]
            for r in red], pivots


def _rref_rational(rows):
    """RREF over Q via certified elimination mod the primes in _PRIMES."""
    ints, supports = [], []
    for r in rows:
        nums = [c.numerator for c in r]
        nz = list(filter(nums.__getitem__, range(len(nums))))
        if not nz:
            continue
        dens = [r[j].denominator for j in nz]
        den = lcm(*dens)
        if den != 1:
            for j, d in zip(nz, dens):
                nums[j] *= den // d
        g = gcd(*nums)
        if g != 1:
            nums = [a // g for a in nums]
        ints.append(nums)
        supports.append(nz)
    if not ints:
        return [], []
    ncols = len(ints[0])
    for p in _PRIMES:
        # a primitive integer row is never zero mod p
        red, pivots = _rref_mod([[a % p for a in r] for r in ints], p)
        if len(pivots) == ncols:
            return [[_ONE if j == i else _ZERO for j in range(ncols)]
                    for i in range(ncols)], pivots
        basis = _certified_lift(red, pivots, p, ints, supports)
        if basis is not None:
            return basis, pivots
    return _rref_fraction(rows)


def _reconstruct(u, p, bound):
    """Wang's rational reconstruction: n/d = u mod p with |n|, d <= bound,
    or None."""
    r0, r1 = p, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _certified_lift(red, pivots, p, ints, supports):
    """The rational RREF whose image mod p is ``red``, or None unless it
    provably spans the row space of the integer rows ``ints``, whose
    nonzero columns are ``supports``."""
    ncols = len(red[0])
    bound = isqrt(p // 2)
    lifted = {1: _ONE}
    basis, entries = [], []
    for r in red:
        row = [_ZERO] * ncols
        terms = []
        for j in filter(r.__getitem__, range(ncols)):
            q = lifted.get(r[j])
            if q is None:
                q = _reconstruct(r[j], p, bound)
                if q is None:
                    return None
                lifted[r[j]] = q
            row[j] = q
            terms.append((j, q))
        basis.append(row)
        entries.append(terms)
    # certificate over Z: den*a == sum_t a[pivot_t] * (den*B_t) for every row a
    den = lcm(*[q.denominator for q in lifted.values()])
    scaled = [[(j, q.numerator * (den // q.denominator)) for j, q in terms]
              for terms in entries]
    where = {col: t for t, col in enumerate(pivots)}
    for a, nz in zip(ints, supports):
        acc = [0] * ncols
        for j in nz:
            t = where.get(j)
            if t is not None:
                c = a[j]
                for k, v in scaled[t]:
                    acc[k] += c * v
        if acc != ([den * x for x in a] if den != 1 else a):
            return None
    return basis


def nullspace(rows, ncols, field):
    """Basis of solutions of the homogeneous system ``rows * v = 0``.

    Returns the canonical basis: one vector per free column, with a one
    in that column, in increasing column order.
    """
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for t, p in enumerate(pivots):
            if red[t][free]:
                v[p] = -red[t][free]
        basis.append(v)
    return basis


def invert_matrix(rows, field):
    """Exact inverse of a square matrix of scalars; None if singular."""
    m = len(rows)
    aug = []
    for i, r in enumerate(rows):
        if len(r) != m:
            raise ValueError("matrix is not square")
        line = [field.of(c) for c in r]
        line += [field.one if j == i else field.zero for j in range(m)]
        aug.append(line)
    red, pivots = rref(aug)
    if pivots != list(range(m)):
        return None
    return [r[m:] for r in red]


class Subspace:
    """A subspace of the degree-s homogeneous component of F<x1,...,xn>,
    held as its canonical reduced-echelon basis."""

    __slots__ = ("n", "degree", "field", "rows", "pivots")

    def __init__(self, n, degree, field, rows, pivots):
        # internal: rows must already be canonical RREF output
        self.n = n
        self.degree = degree
        self.field = field
        self.rows = [list(r) for r in rows]
        self.pivots = list(pivots)

    # ---- constructors ----

    @classmethod
    def zero(cls, n, degree, field):
        return cls(n, degree, field, [], [])

    @classmethod
    def full(cls, n, degree, field):
        dim = n ** degree
        rows = []
        for i in range(dim):
            v = [field.zero] * dim
            v[i] = field.one
            rows.append(v)
        return cls(n, degree, field, rows, list(range(dim)))

    @classmethod
    def from_vectors(cls, vectors, n, degree, field):
        dim = n ** degree
        for v in vectors:
            if len(v) != dim:
                raise ValueError(f"expected vectors of length {dim}, got {len(v)}")
        rows, pivots = rref(vectors)
        return cls(n, degree, field, rows, pivots)

    @classmethod
    def span(cls, polys, degree, n=None, field=None):
        """Span of homogeneous polynomials of the given degree.

        Zero polynomials are allowed and ignored; any term of the wrong
        degree is an error.  For an empty spanning set, n and field must
        be passed explicitly.
        """
        polys = list(polys)
        for p in polys:
            if n is None:
                n, field = p.n, p.field
            if p.n != n or p.field != field:
                raise ValueError("mixed algebras in spanning set")
            if not p.is_homogeneous(degree):
                raise ValueError(
                    f"spanning polynomial {p} is not homogeneous of degree {degree}")
        if n is None:
            raise ValueError("empty spanning set needs explicit n and field")
        return cls.from_vectors([p.coords(degree) for p in polys], n, degree, field)

    # ---- queries ----

    @property
    def dim(self):
        return len(self.rows)

    @property
    def ambient_dim(self):
        return self.n ** self.degree

    def reduce(self, vec):
        """Residual of vec after subtracting its projection along the basis.

        The residual is zero exactly when vec lies in the subspace.
        """
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if c:
                for j in range(p, len(vec)):
                    if row[j]:
                        vec[j] = vec[j] - c * row[j]
        return vec

    def contains_vector(self, vec):
        return not any(self.reduce(vec))

    def contains(self, poly: NCPoly):
        """Membership test for a homogeneous polynomial of matching degree.

        The zero polynomial belongs to every subspace.
        """
        if not poly:
            return True
        if not poly.is_homogeneous(self.degree):
            raise ValueError(
                f"membership test needs a homogeneous polynomial of degree "
                f"{self.degree}, got {poly}")
        return self.contains_vector(poly.coords(self.degree))

    def contains_subspace(self, other: "Subspace"):
        self._check(other)
        return all(self.contains_vector(r) for r in other.rows)

    def _check(self, other: "Subspace"):
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError(
                f"subspace mismatch: degree {self.degree} over n={self.n} vs "
                f"degree {other.degree} over n={other.n}")
        if self.field != other.field:
            raise ValueError("subspace coefficient fields differ")

    def intersect(self, other: "Subspace"):
        """Intersection: the combinations of this basis that ``other``
        reduces to zero (``reduce`` is linear)."""
        self._check(other)
        return self.kernel_of([other.reduce(r) for r in self.rows])

    def kernel_of(self, residuals):
        """Kernel of a linear map restricted to this subspace.

        ``residuals[t]`` is the image of basis row t, as a coordinate
        list.  Returns the Subspace of all combinations sum_t a_t*rows[t]
        with sum_t a_t*residuals[t] = 0.
        """
        eqs = [eq for eq in map(list, zip(*residuals)) if any(eq)]
        sols = nullspace(eqs, self.dim, self.field)
        if self.dim == self.ambient_dim:
            # the basis is the identity, so a solution is its own combination
            vectors = sols
        else:
            vectors = []
            for sol in sols:
                v = [self.field.zero] * self.ambient_dim
                for coeff, row in zip(sol, self.rows):
                    if coeff:
                        for c in range(len(v)):
                            if row[c]:
                                v[c] = v[c] + coeff * row[c]
                vectors.append(v)
        return Subspace.from_vectors(vectors, self.n, self.degree, self.field)

    def __add__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        self._check(other)
        return Subspace.from_vectors(self.rows + other.rows,
                                     self.n, self.degree, self.field)

    def equal(self, other: "Subspace"):
        """Equality with shape checking: same component, identical RREF rows."""
        self._check(other)
        return self.rows == other.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.n == other.n and self.degree == other.degree
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.degree, self.field,
                     tuple(tuple(r) for r in self.rows)))

    def basis_polys(self):
        return [NCPoly.from_coords(self.n, self.degree, r, self.field)
                for r in self.rows]

    def __repr__(self):
        return (f"<Subspace dim={self.dim} of degree-{self.degree} "
                f"component, n={self.n}>")


def preimage(images, targets, domain_degree, n, field):
    """Solve ``L(v) in T`` for a linear map given on basis words.

    ``images[j]`` is the image of the j-th canonical degree-s word; it is
    either a single homogeneous NCPoly or a tuple of them (a map into a
    direct sum of homogeneous components).  ``targets`` is a Subspace or a
    matching tuple of Subspaces.  Returns the Subspace of all degree-s
    combinations whose image lies in the target blockwise.
    """
    if isinstance(targets, Subspace):
        targets = (targets,)
        images = [(im,) if isinstance(im, NCPoly) else im for im in images]
    dom = n ** domain_degree
    if len(images) != dom:
        raise ValueError(f"expected {dom} basis images, got {len(images)}")
    blocks = len(targets)
    # residual of each image against the target: membership fails exactly
    # where residuals are nonzero, so the kernel of the residual matrix is
    # the preimage
    residuals = []
    for im in images:
        if len(im) != blocks:
            raise ValueError("image tuple does not match target blocks")
        res = []
        for p, t in zip(im, targets):
            if p and not p.is_homogeneous(t.degree):
                raise ValueError(
                    f"image {p} is not homogeneous of degree {t.degree}")
            if t.dim == t.ambient_dim:
                res.extend([field.zero] * t.ambient_dim)
            else:
                res.extend(t.reduce(p.coords(t.degree)))
        residuals.append(res)
    return Subspace.full(n, domain_degree, field).kernel_of(residuals)
