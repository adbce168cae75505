"""Exact linear algebra over the coefficient field.

Everything reduces to one primitive: reduced row echelon form.  A
Subspace is the canonical RREF basis of a subspace of a homogeneous
component, held as pivots plus tails: each pivot word's row is nonzero
only there and on the free columns (the normal words).  A residual is a
list over the normal words, found by replacing each pivot word with
minus its tail.  Preimages, intersections and the invariant-subspace
rounds of ``optimal`` all take one kernel step, ``Subspace.kernel_of``.
A sum is a block elimination: the added vectors' residuals, which live
on the free columns, are eliminated alone and their pivots are then
cleared from the old tails.  Dense rows of length n^s remain only as the
``rref`` input of ``from_vectors``, behind ``span`` and ``kernel_of``
(which recombines its solutions into them), and on request (``rows``).

``rref`` eliminates on plain ints, never on field objects.  Over F_p it
works on the residues ``FpElement.val`` and wraps the result back.
``nullspace`` reads its rows in the field it is given: over F_p an int
entry is read mod p, and the rows go to the modular elimination without
any ``FpElement``.  Over Q, ``rref`` scales each row of ints and
Fractions to a primitive integer row and eliminates it modulo the
primes of ``_PRIMES`` in turn, the largest primes below 2^26, then
returns only what it has proved exact:

* full column rank mod any prime means full column rank over Q (a minor
  that is nonzero mod p is nonzero), so the answer is the identity; the
  first prime alone settles the common, free-quotient case, and
  ``nullspace`` then builds no identity at all;
* otherwise the RREFs mod several primes are combined by the Chinese
  remainder theorem.  A prime is lucky when its rank and pivots are
  those over Q; an unlucky one has a lower rank, or the same rank with
  later pivots.  So only the primes whose (rank, pivots) equal the best
  seen so far are combined: a better key restarts the combination, and
  a worse one is skipped.  After each prime every entry of the combined
  RREF modulo the product M is rationally reconstructed (Wang) into a
  candidate B, and every input row a is checked over Z to be
  ``sum_t a[pivot_t] * B_t``.  That puts the row space of the input
  inside span(B), while dim B = rank_p <= rank_Q; so the two spans
  agree, and since the RREF is unique B is the exact answer, whichever
  primes went into it.

When no prime of the tuple yields a certified lift, the plain
``Fraction`` elimination answers.

The modular elimination packs each row that a pivot step must clear
into one Python int, a fixed-width field per column, so clearing a row
is one big-int multiply-add and a mask, and the loop over the columns
runs in C.  Fields are reduced mod p only when read; they are wide
enough for the most clearings a row can take, (min(rows, cols) + 1)
times (p - 1)^2, so they never carry into each other, and no wider than
the whole bytes that bound needs.  When it fits one 64-bit word, as it
does for the primes below 2^26 up to min(rows, cols) = 2047, whole rows
are packed and unpacked through ``array('Q')``; wider fields, such as
those of ``Fp:`` moduli above about 2^26, are packed value by value.  A
row that no step clears stays a list and is never packed, and the
certificate walks only the nonzero entries of B, so the sparse cases
(diagonal rules, the zero rule, near-identity bases) stay near linear
time.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd, isqrt, lcm
from operator import attrgetter

from .fields import FpElement, PrimeField
from .freealg import NCPoly, index_word, word_index


# moduli of the rational path, tried in order: the sixteen largest primes
# below 2^26 (tests check them with fields.is_prime); a literal, so that
# importing the module costs nothing
_PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763, 67108757,
           67108753, 67108747, 67108739, 67108729, 67108721, 67108709,
           67108693, 67108669, 67108667, 67108661)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# packed rows hold column col in their top field: 64-bit words in
# big-endian order, whatever the machine's own
_SWAP = sys.byteorder == "little"


def rref(rows):
    """Reduced row echelon form.

    Takes an iterable of equal-length coefficient lists, returns
    ``(reduced_rows, pivot_columns)`` with zero rows dropped, each pivot
    normalized to one and cleared above and below.  The result is the
    canonical basis of the row space.  Input rows are not modified.

    Rows of ``int`` and ``Fraction`` entries, or of ``FpElement`` over
    one modulus, are eliminated on ints as the module docstring
    describes, and give ``Fraction`` or ``FpElement`` entries; any other
    entries are eliminated in their own arithmetic.
    """
    red, pivots = _rref(rows)
    if red is None:
        ncols = len(pivots)
        red = [[_ONE if j == i else _ZERO for j in range(ncols)] for i in range(ncols)]
    return red, pivots


def _rref(rows):
    """``rref``, except that a full column rank over Q gives None for the
    identity."""
    # no path writes to an input row, so lists are read in place
    rows = [r if isinstance(r, list) else list(r) for r in rows]
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds:
        return [], []
    if kinds <= {int, Fraction}:
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
    """RREF mod p of nonzero rows of residues in [0, p).

    Returns ``(reduced_rows, pivots)``; the input rows are not modified.
    Rows wait in buckets keyed by their first nonzero column, so each
    pivot step touches only the rows it has to clear.  A row that a step
    clears is packed into one int, one field of ``width`` bits per
    column with column 0 in the top field.  Clearing it by the packed
    pivot row is one multiply-add, ``row + (p - f)*pivot``, and a mask
    that drops the finished columns; ``bit_length`` then finds its next
    lead.  Fields are reduced mod p only when read, so they grow: from
    below p, by less than (p - 1)^2 per clearing, and a row is cleared
    at most min(rows, cols) times.  Fields of
    bitlen((min(rows, cols) + 1)*(p - 1)^2) + 1 bits therefore never
    carry into each other; ``_field_codec`` rounds them up to whole
    bytes.  Rows that no step clears stay lists and are never packed.
    The forward pass alone decides full column rank, the common case;
    only otherwise are dense result rows built and back substituted.
    """
    ncols = len(rows[0])
    width, pack, unpack = _field_codec(
        ((min(len(rows), ncols) + 1) * (p - 1) ** 2).bit_length() + 1)
    waiting = {}
    for r in rows:
        waiting.setdefault(next(filter(r.__getitem__, range(ncols))), []).append(r)
    # each pivot row as a dense list of residues, and the inverse of its lead
    red, invs, pivots = [], [], []
    for col in range(ncols):
        group = waiting.pop(col, None)
        if group is None:
            continue
        prow = group.pop(0)
        if type(prow) is int:
            prow = [0] * col + [v % p for v in unpack(prow, ncols - col)]
        inv = pow(prow[col], -1, p)
        red.append(prow)
        invs.append(inv)
        pivots.append(col)
        if group:
            shift = width * (ncols - 1 - col)
            keep = (1 << shift) - 1
            pivot = pack([v * inv % p for v in prow[col:]])
            for row in group:
                if type(row) is not int:
                    row = pack(row[col:])
                row = (row + (p - (row >> shift) % p) * pivot) & keep
                while row:
                    k = (row.bit_length() - 1) // width
                    if (row >> k * width) % p:
                        waiting.setdefault(ncols - 1 - k, []).append(row)
                        break
                    # a top field that is a multiple of p is a zero entry
                    row &= (1 << k * width) - 1
        if not waiting:
            break
    if len(pivots) == ncols:
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)], pivots
    red = [[v * inv % p for v in r] if inv != 1 else list(r)
           for r, inv in zip(red, invs)]
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


def _field_codec(bits):
    """``(width, pack, unpack)`` for packed rows whose fields need ``bits``
    bits: fields of as few whole bytes as hold them.  ``pack(values)`` puts
    values[0] in the top field, and ``unpack(row, count)`` reads back the
    ``count`` fields of a packed row, unreduced.  Fields of at most eight
    bytes pass through ``array('Q')``, whole rows at a time."""
    size = (bits + 7) // 8
    if size <= 8:
        return 8 * size, partial(_pack_words, size), partial(_unpack_words, size)

    def pack(values):
        return int.from_bytes(b"".join([v.to_bytes(size, "big") for v in values]), "big")

    def unpack(row, count):
        packed = row.to_bytes(size * count, "big")
        return [int.from_bytes(packed[i:i + size], "big") for i in range(0, len(packed), size)]

    return 8 * size, pack, unpack


def _pack_words(size, values):
    words = array("Q", values)
    if _SWAP:
        words.byteswap()
    if size == 8:
        return int.from_bytes(words, "big")
    # the low ``size`` bytes of each big-endian word
    wide = words.tobytes()
    packed = bytearray(size * len(words))
    for k in range(size):
        packed[k::size] = wide[8 - size + k::8]
    return int.from_bytes(packed, "big")


def _unpack_words(size, row, count):
    packed = row.to_bytes(size * count, "big")
    if size < 8:
        wide = bytearray(8 * count)
        for k in range(size):
            wide[8 - size + k::8] = packed[k::size]
        packed = wide
    words = array("Q", packed)
    if _SWAP:
        words.byteswap()
    return words


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
    """RREF over Q via certified elimination mod the primes in _PRIMES,
    with None for the identity when the rank is full.

    Entries are ints or Fractions, read through ``numerator`` and
    ``denominator``; only the ``_rref_fraction`` fallback turns them all
    into Fractions.
    """
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
    # (-rank, pivots) of the primes combined so far: lucky primes have the
    # least key, and a prime with a greater one is unlucky
    best = None
    for p in _PRIMES:
        # a primitive integer row is never zero mod p
        red, pivots = _rref_mod([[a % p for a in r] for r in ints], p)
        if len(pivots) == ncols:
            return None, pivots
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, combined, modulus = key, red, p
        elif key == best:
            # Chinese remainder: the entry that is c mod modulus and v mod p
            k = pow(modulus, -1, p)
            combined = [[c + modulus * ((v - c) * k % p) for c, v in zip(crow, row)]
                        for crow, row in zip(combined, red)]
            modulus *= p
        else:
            continue
        basis = _certified_lift(combined, pivots, modulus, ints, supports)
        if basis is not None:
            return basis, pivots
    return _rref_fraction([[Fraction(c) for c in r] for r in rows])


def _reconstruct(u, m, bound):
    """Wang's rational reconstruction: n/d = u mod m with |n|, d <= bound,
    or None."""
    r0, r1 = m, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _certified_lift(red, pivots, m, ints, supports):
    """The rational RREF whose image mod m is ``red``, or None unless it
    provably spans the row space of the integer rows ``ints``, whose
    nonzero columns are ``supports``."""
    ncols = len(red[0])
    bound = isqrt(m // 2)
    lifted = {1: _ONE}
    basis, entries = [], []
    for r in red:
        row = [_ZERO] * ncols
        terms = []
        for j in filter(r.__getitem__, range(ncols)):
            q = lifted.get(r[j])
            if q is None:
                q = _reconstruct(r[j], m, bound)
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
    """Basis of solutions of the homogeneous system ``rows * v = 0`` over
    ``field``.

    Returns the canonical basis: one vector per free column, with a one
    in that column, in increasing column order.  Over F_p every entry is
    read mod p (ints as they are, the others through ``field.of``) and
    eliminated on the residues; over Q the rows are eliminated as by
    ``rref``, except that a full column rank builds no identity.
    """
    if isinstance(field, PrimeField):
        p = field.p
        vals = [v for v in ([c % p if type(c) is int else field.of(c).val for c in r]
                            for r in rows) if any(v)]
        red, pivots = _rref_mod(vals, p) if vals else ([], [])
    else:
        # a full column rank (red is None) leaves no free column to read
        red, pivots = _rref(rows)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for t, col in enumerate(pivots):
            c = red[t][free]
            if c:
                # a residue over F_p, a Fraction over Q
                v[col] = field.of(-c)
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
    """A subspace of the degree-s homogeneous component of F<x1,...,xn>.

    ``tails`` maps each pivot column of the canonical reduced-echelon
    basis, in increasing order, to the nonzero ``(column, value)`` entries
    of its row on the free columns (its pivot entry is one).  ``pivots``,
    ``free`` and the dense ``rows`` are derived from it.  Sums extend the
    tails by block elimination on the free columns; only ``from_vectors``
    and ``kernel_of``, which goes through it, eliminate dense rows.
    """

    __slots__ = ("n", "degree", "field", "tails", "free", "_position")

    def __init__(self, n, degree, field, tails):
        # internal: tails must come from a canonical RREF basis
        self.n = n
        self.degree = degree
        self.field = field
        self.tails = tails
        # derived: the free columns in increasing order, and their positions
        self.free = [c for c in range(n ** degree) if c not in tails]
        self._position = {c: t for t, c in enumerate(self.free)}

    # ---- constructors ----

    @classmethod
    def zero(cls, n, degree, field):
        return cls(n, degree, field, {})

    @classmethod
    def full(cls, n, degree, field):
        return cls.coordinate(n, degree, field, range(n ** degree))

    @classmethod
    def coordinate(cls, n, degree, field, columns):
        """Span of the canonical basis words at the given increasing columns."""
        return cls(n, degree, field, {c: [] for c in columns})

    @classmethod
    def from_vectors(cls, vectors, n, degree, field):
        dim = n ** degree
        for v in vectors:
            if len(v) != dim:
                raise ValueError(f"expected vectors of length {dim}, got {len(v)}")
        rows, pivots = rref(vectors)
        pivset = set(pivots)
        free = [c for c in range(dim) if c not in pivset]
        # an RREF row is zero on the other pivots: read it on the free columns only
        return cls(n, degree, field, {p: [(c, row[c]) for c in free if row[c]]
                                      for row, p in zip(rows, pivots)})

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
        return len(self.tails)

    @property
    def ambient_dim(self):
        return self.n ** self.degree

    @property
    def pivots(self):
        return list(self.tails)

    @property
    def rows(self):
        """The canonical reduced-echelon basis as dense rows."""
        return [self._dense(entries) for entries in self._row_entries()]

    def _dense(self, entries):
        vec = [self.field.zero] * self.ambient_dim
        for c, v in entries:
            vec[c] = v
        return vec

    def _row_entries(self):
        """Each basis row as its (column, value) entries."""
        one = self.field.one
        return [[(p, one)] + tail for p, tail in self.tails.items()]

    def residual_of(self, entries) -> list:
        """Residual modulo this subspace, as a list over ``free``, of the
        vector with the given (column, value) entries, which name each
        column at most once.  It is zero exactly when the vector lies in
        the subspace."""
        position = self._position
        vec = [self.field.zero] * len(position)
        pivots = []
        for col, c in entries:
            t = position.get(col)
            if t is None:
                pivots.append((col, c))
            else:
                vec[t] = c
        # a pivot word equals minus its row's tail, modulo the subspace
        tails = self.tails
        for col, c in pivots:
            for j, v in tails[col]:
                vec[position[j]] -= c * v
        return vec

    def residual(self, poly: NCPoly) -> list:
        """Residual of a polynomial of this degree, as a list over ``free``."""
        d, n = self.degree, self.n
        return self.residual_of([(word_index(w, d, n), c) for w, c in poly.terms.items()])

    def reduce(self, vec):
        """Residual of a dense vector after subtracting its projection along
        the basis, as a dense vector: zero on the pivots.

        The residual is zero exactly when vec lies in the subspace.
        """
        res = self.residual_of([(c, x) for c, x in enumerate(vec) if x])
        return self._dense(zip(self.free, res))

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
        return not any(self.residual(poly))

    def contains_subspace(self, other: "Subspace"):
        self._check(other)
        return not any(any(self.residual_of(r)) for r in other._row_entries())

    def _check(self, other: "Subspace"):
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError(
                f"subspace mismatch: degree {self.degree} over n={self.n} vs "
                f"degree {other.degree} over n={other.n}")
        if self.field != other.field:
            raise ValueError("subspace coefficient fields differ")

    def intersect(self, other: "Subspace"):
        """Intersection: the combinations of this basis that ``other``
        reduces to zero (the residual is linear)."""
        self._check(other)
        return self.kernel_of([other.residual_of(r) for r in self._row_entries()])

    def kernel_of(self, residuals):
        """Kernel of a linear map restricted to this subspace.

        ``residuals[t]`` is the image of basis row t, as a coordinate
        list.  Returns the Subspace of all combinations sum_t a_t*rows[t]
        with sum_t a_t*residuals[t] = 0.
        """
        eqs = [eq for eq in map(list, zip(*residuals)) if any(eq)]
        vectors = []
        for sol in nullspace(eqs, self.dim, self.field):
            # the rref input: each solution recombined from pivots and tails
            v = self._dense(zip(self.tails, sol))
            for a, tail in zip(sol, self.tails.values()):
                if a:
                    for c, x in tail:
                        v[c] += a * x
            vectors.append(v)
        return Subspace.from_vectors(vectors, self.n, self.degree, self.field)

    def _extended(self, rows):
        """Span of this subspace and the vectors with the given (column,
        value) entries, by block elimination on the free columns.

        Returns ``(span, residuals)``, where ``residuals`` counts the
        nonzero residuals handed to ``rref``.  Each vector is reduced
        modulo this subspace onto ``free``; the residuals' RREF gives the
        new pivot rows, whose pivots are then eliminated from the old
        tails.  No row handed to ``rref`` is longer than ``free``.
        """
        residuals = [r for r in map(self.residual_of, rows) if any(r)]
        if not residuals:
            return self, 0
        red, positions = rref(residuals)
        free = self.free
        taken = set(positions)
        rest = [t for t in range(len(free)) if t not in taken]
        # the new pivot rows: one at their pivot, zero on the other new pivots
        new = {free[t]: [(free[j], row[j]) for j in rest if row[j]]
               for row, t in zip(red, positions)}
        position = self._position
        tails = {}
        for p, tail in self.tails.items():
            if any(c in new for c, _ in tail):
                # back substitution: clear the new pivot columns of the old row
                vec = [self.field.zero] * len(free)
                for c, v in tail:
                    if c in new:
                        for j, x in new[c]:
                            vec[position[j]] -= v * x
                    else:
                        vec[position[c]] += v
                tail = [(free[j], vec[j]) for j in rest if vec[j]]
            tails[p] = tail
        tails.update(new)
        return Subspace(self.n, self.degree, self.field,
                        {p: tails[p] for p in sorted(tails)}), len(residuals)

    def __add__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        self._check(other)
        return self._extended(other._row_entries())[0]

    def equal(self, other: "Subspace"):
        """Equality with shape checking: same component, identical tails."""
        self._check(other)
        return self.tails == other.tails

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return ((self.n, self.degree, self.field, self.tails)
                == (other.n, other.degree, other.field, other.tails))

    def __hash__(self):
        return hash((self.n, self.degree, self.field,
                     tuple((p, tuple(tail)) for p, tail in self.tails.items())))

    def basis_polys(self):
        n, d = self.n, self.degree
        return [NCPoly(n, self.field, {index_word(c, d, n): v for c, v in entries})
                for entries in self._row_entries()]

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
            res.extend(t.residual(p))
        residuals.append(res)
    return Subspace.full(n, domain_degree, field).kernel_of(residuals)
