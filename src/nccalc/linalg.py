"""Exact linear algebra over the coefficient field.

Everything reduces to one primitive: reduced row echelon form.  A
Subspace is the canonical RREF basis of a subspace of a homogeneous
component, held as pivots plus tails: each pivot word's row is nonzero
only there and on the free columns (the normal words).  The tails hold
ints: residues over F_p, and over Q numerators over one common
denominator per subspace.  A residual is found by replacing each pivot
word with minus its tail, and is held as a dict from the normal words
to its nonzero ints; on ints it is a fixed multiple of the true one,
which is all that membership, sums and kernels need.  Preimages and
the invariant-subspace rounds of ``optimal`` both take one kernel
step, ``Subspace.kernel_of``, which recombines the basis by the
kernel's echelon coordinates.  It reads each residual as its nonzero
entries and peels the system before any elimination, by one rule: an
equation with one unknown fixes it at zero, which may leave another
equation with one.  Only the core on the unknowns not fixed goes to
``nullspace``, an unknown in no equation as a zero column, so a
permutation-like system, such as the zero rule's derivative system,
takes no elimination at all.  A sum is a block elimination: the added
vectors' residuals, which live on the free columns, are eliminated
alone and their pivots are then cleared from the old tails.  Dense rows
remain only where they are eliminated (a sum's residuals, on the free
columns; a kernel step's core, and its kernel vectors over the unknowns
not fixed, which ``from_vectors`` puts in echelon form) and in ``span``
and ``rows``, of length n^s.  Field elements appear only at the API
boundary.

``rref``, ``nullspace`` and the sums of subspaces eliminate on plain
ints, never on field objects, through one entry, ``_rref_ints``; the
field's ``ints`` and ``values`` convert at either end, here and
wherever a Subspace reads or builds field elements.  Over F_p the ints
are residues and go to the modular elimination.  Over Q each row is
scaled by the lcm of its denominators and divided by its gcd, and
``_rref_rational`` eliminates the primitive integer rows modulo the
primes of ``_PRIMES`` in turn, the largest primes below 2^26.  It
returns the RREF as int rows over their least common denominator, and
only what it has proved exact:

* full column rank mod any prime means full column rank over Q (a minor
  that is nonzero mod p is nonzero), so the answer is the identity, and
  ``nullspace`` then builds no identity at all (``optimal`` decides the
  free degrees mod the first prime itself, on this fact, and hands its
  RREF over as the first prime's when the rank falls short);
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
the whole bytes that bound needs.  One codec, ``_field_codec``, packs
and unpacks every row: when a field fits one 64-bit word, as it does for
the primes below 2^26 up to min(rows, cols) = 2047, whole rows go
through ``array('Q')``; wider fields, such as those of ``Fp:`` moduli
above about 2^26, are packed value by value.  A row that no step clears
stays a list and is never packed, and the certificate walks only the
nonzero entries of B, so the sparse cases (diagonal rules, the zero
rule, near-identity bases) stay near linear time.  ``optimal`` decides
the free degrees of a dense rule on the same packed rows, of residues
mod one prime through the same codec; the exact system of a degree whose
rank falls short comes from its derivative table, not from packed rows.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, compress, repeat
from math import gcd, isqrt, lcm
from operator import itemgetter

from .fields import GF, QQ, FpElement
from .freealg import NCPoly, index_word, word_index


# moduli of the rational path, tried in order: the sixteen largest primes
# below 2^26 (tests check them with fields.is_prime); a literal, so that
# importing the module costs nothing
_PRIMES = (67108859, 67108837, 67108819, 67108777, 67108763, 67108757,
           67108753, 67108747, 67108739, 67108729, 67108721, 67108709,
           67108693, 67108669, 67108667, 67108661)

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
    entries are eliminated in their own arithmetic.  Rows of unequal
    length raise ValueError.
    """
    # no path writes to an input row, so lists are read in place
    rows = [r if isinstance(r, list) else list(r) for r in rows]
    if len(set(map(len, rows))) > 1:
        raise ValueError("rows of unequal length")
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds:
        return [], []
    if kinds <= {int, Fraction}:
        field = QQ
    elif kinds == {FpElement} and len(moduli := {c.p for r in rows for c in r}) == 1:
        field = GF(moduli.pop())
    else:
        return _rref_fraction(rows)
    red, den, pivots = _rref_ints([field.ints(r)[0] for r in rows], field.p)
    if red is None:
        # full column rank: the RREF is the identity
        red = [[int(i == j) for j in pivots] for i in pivots]
    return [field.values(r, den) for r in red], pivots


def _rref_ints(rows, p):
    """RREF of rows of ints as ``_rref_rational`` returns it over Q (p
    None), and of rows of residues over F_p, with den 1: ``(red, den,
    pivots)``, with red None at full column rank."""
    if p is None:
        return _rref_rational(rows)
    rows = [r for r in rows if any(r)]
    if not rows:
        return [], 1, []
    red, pivots = _rref_mod(rows, p)
    return red or None, 1, pivots


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
    The forward pass alone decides full column rank, the common case:
    then the RREF is the identity, and no rows are returned, since the
    pivots say it all.  Only otherwise are dense result rows built and
    back substituted.
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
        return [], pivots
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
    ``count`` fields of a packed row, unreduced, as a list.  Fields of at
    most eight bytes pass through ``array('Q')``, whole rows at a time."""
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
    return words.tolist()


def _rref_rational(rows, first=None):
    """RREF over Q via certified elimination mod the primes in _PRIMES.

    Takes lists of ints, each a nonzero multiple of the row it stands for
    (``QQ.ints`` scales rows of Fractions so), and returns ``(red, den,
    pivots)``: the RREF is red/den, with red rows of ints and den their
    least common denominator, or red is None (and den is 1) when the
    column rank is full.  Only the ``_rref_fraction`` fallback builds
    Fractions.

    ``first``, when given, is ``(red, pivots)`` as ``_rref_mod`` returns
    it for the first prime of ``_PRIMES``, of some integer matrix whose
    rows span the same space over Q as these (a nonzero multiple of
    theirs, say), and stands in for the elimination mod that prime.  Like
    any such reduction its key is never better than the lucky one, and
    when it equals it, it is the reduction of the true RREF; either way
    the certificate checks the lift against ``rows`` alone.
    """
    # the nonzero rows over the gcds of their entries, which a prime
    # eliminates: a primitive integer row is never zero mod p.  Given the
    # first prime's RREF, they wait until a second prime needs them
    ints = None
    if first is None:
        ints = _primitive(rows)
        if not ints:
            return [], 1, []
    ncols = len(rows[0])
    # (-rank, pivots) of the primes combined so far: lucky primes have the
    # least key, and a prime with a greater one is unlucky
    best = None
    for p in _PRIMES:
        if first is not None:
            red, pivots = first
            # let the combination below drop these rows when it moves on
            first = None
        else:
            if ints is None:
                ints = _primitive(rows)
            red, pivots = _rref_mod([[a % p for a in r] for r in ints], p)
        if len(pivots) == ncols:
            return None, 1, pivots
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
        lift = _certified_lift(combined, pivots, modulus, rows)
        if lift is not None:
            return lift + (pivots,)
    red, pivots = _rref_fraction([[Fraction(c) for c in r] for r in rows])
    den = QQ.ints([c for r in red for c in r])[1]
    return [QQ.ints(r, den)[0] for r in red], den, pivots


def _primitive(rows):
    """The nonzero integer rows, each divided by the gcd of its entries."""
    ints = []
    for r in rows:
        g = gcd(*r)
        if g > 1:
            r = [a // g for a in r]
        # a zero row has g == 0
        if g:
            ints.append(r)
    return ints


def _reconstruct(u, m, bound):
    """Wang's rational reconstruction: (n, d) with n/d = u mod m, d > 0,
    gcd(n, d) = 1 and |n|, d <= bound, or None."""
    r0, r1 = m, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _certified_lift(red, pivots, m, ints):
    """``(rows, den)`` with rows/den the rational RREF whose image mod m
    is ``red``, den the least common denominator, or None unless it
    provably spans the row space of the integer rows ``ints``, which may
    include zero rows."""
    ncols = len(red[0])
    bound = isqrt(m // 2)
    lifted = {1: (1, 1)}
    entries = []
    for r in red:
        terms = []
        for j in compress(range(ncols), r):
            q = lifted.get(r[j])
            if q is None:
                q = _reconstruct(r[j], m, bound)
                if q is None:
                    return None
                lifted[r[j]] = q
            terms.append((j, q))
        entries.append(terms)
    # certificate over Z: den*a == sum_t a[pivot_t] * (den*B_t) for every row a
    den = lcm(*[d for _, d in lifted.values()])
    scaled = [[(j, x * (den // d)) for j, (x, d) in terms] for terms in entries]
    where = {col: t for t, col in enumerate(pivots)}
    for a in ints:
        acc = [0] * ncols
        for j in compress(range(ncols), a):
            t = where.get(j)
            if t is not None:
                c = a[j]
                for k, v in scaled[t]:
                    acc[k] += c * v
        if acc != ([den * x for x in a] if den != 1 else a):
            return None
    rows = []
    for terms in scaled:
        row = [0] * ncols
        for j, v in terms:
            row[j] = v
        rows.append(row)
    return rows, den


def nullspace(rows, ncols, field):
    """Basis of solutions of the homogeneous system ``rows * v = 0`` over
    ``field``.

    Returns the canonical basis: one vector per free column, with a one
    in that column, in increasing column order.  Every row is read by
    ``field.ints``: over F_p as the residues of its entries, anything
    ``field.of`` takes; over Q, where the entries must be ints and
    Fractions, as by ``rref``, except that a full column rank builds no
    identity.  A row whose length is not ``ncols`` raises ValueError, and
    so does an entry over Q that is not rational.
    """
    rows = [r if isinstance(r, list) else list(r) for r in rows]
    for r in rows:
        if len(r) != ncols:
            raise ValueError(f"expected rows of length {ncols}, got {len(r)}")
    return _kernel_basis(*_rref_ints([field.ints(r)[0] for r in rows], field.p), ncols,
                         field)


def _kernel_basis(red, den, pivots, ncols, field):
    """``nullspace``'s basis, over ``field``, from the RREF ``(red, den,
    pivots)`` of the system as ``_rref_ints`` returns it."""
    # a full column rank (red is None) leaves no free column to read
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
                v[col] = field.value(-c, den)
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


def _lowest(tails, den):
    """``(tails, den)`` with den and every value divided by their gcd: the
    canonical form over Q."""
    if den != 1:
        g = gcd(den, *(v for tail in tails.values() for _, v in tail))
        if g != 1:
            den //= g
            tails = {p: [(c, v // g) for c, v in tail] for p, tail in tails.items()}
    return tails, den


class Subspace:
    """A subspace of the degree-s homogeneous component of F<x1,...,xn>.

    ``tails`` maps each pivot column of the canonical reduced-echelon
    basis, in increasing order, to the nonzero ``(column, value)`` entries
    of its row on the free columns, in increasing column order.  The
    values are ints.  Over F_p they are the residues in [1, p), and the
    pivot entry is one.  Over Q they are numerators over one common
    denominator ``den``, the least one: each row holds den times its true
    entries, den at its pivot, and gcd(den, every value) = 1, so den = 1
    when every entry is an integer.  That form is canonical: two
    subspaces are equal exactly when their tails and den are.  ``pivots``,
    ``free`` and the dense ``rows`` are derived from it.

    Field elements appear only at the boundary: ``rows``,
    ``basis_polys``, ``residual_of``, ``residual`` and ``reduce`` build
    them, and ``from_vectors``, ``residual_of`` and ``contains`` read them.
    Inside, residuals, sums and kernels multiply and add ints, and each
    output entry is reduced mod p or put over a common denominator once.
    Sums extend the tails by block elimination on the free columns, and
    kernels fix the unknowns that an equation holds alone before they
    eliminate the core on the rest; only ``from_vectors`` eliminates rows
    of length n^s.
    """

    __slots__ = ("n", "degree", "field", "tails", "den", "free", "_p")

    def __init__(self, n, degree, field, tails, den=1):
        # internal: tails and den must be the canonical form of an RREF basis
        self.n = n
        self.degree = degree
        self.field = field
        self.tails = tails
        self.den = den
        # derived: the free columns in increasing order, and the modulus
        # (None over Q)
        self.free = [c for c in range(n ** degree) if c not in tails]
        self._p = field.p

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
        # the entries are coerced first, so the elimination runs in the field
        rows, pivots = rref([[field.of(x) for x in v] for v in vectors])
        pivset = set(pivots)
        free = [c for c in range(dim) if c not in pivset]
        # an RREF row is zero on the other pivots: read it on the free
        # columns only; the lcm of its entries' denominators is the least
        # common one
        cols = [[c for c in free if row[c]] for row in rows]
        ints, den = field.ints([row[c] for row, cs in zip(rows, cols) for c in cs])
        # each row takes the next len(cs) ints: zip stops at the end of cs
        # before it reads another
        ints = iter(ints)
        tails = {piv: list(zip(cs, ints)) for piv, cs in zip(pivots, cols)}
        return cls(n, degree, field, tails, den)

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
        """Each basis row as its (column, field value) entries."""
        one, value, den = self.field.one, self.field.value, self.den
        return [[(piv, one)] + [(c, value(v, den)) for c, v in tail]
                for piv, tail in self.tails.items()]

    def _int_rows(self):
        """Each basis row as its (column, int) entries: den times its values
        over Q, its residues over F_p."""
        den = self.den
        return [[(piv, den)] + tail for piv, tail in self.tails.items()]

    def _reduce_ints(self, entries):
        """The residual modulo this subspace of the vector with the given
        (column, int) entries, which name each column at most once, as a
        dict from free columns to its nonzero ints: residues over F_p, and
        over Q den times the residual of the vector the ints stand for.
        It is empty exactly when the vector lies in the subspace."""
        tails = self.tails
        p = self._p
        if not tails:
            # the zero subspace, whose den is 1: the entries themselves
            if p is not None:
                return {col: r for col, c in entries if (r := c % p)}
            return {col: c for col, c in entries if c}
        den = self.den
        acc = {}
        get = acc.get
        for col, c in entries:
            tail = tails.get(col)
            if tail is None:
                acc[col] = get(col, 0) + c * den
            else:
                # a pivot word equals minus its row's tail, modulo the subspace
                for j, v in tail:
                    acc[j] = get(j, 0) - c * v
        if p is not None:
            return {col: r for col, c in acc.items() if (r := c % p)}
        if 0 in acc.values():
            return {col: c for col, c in acc.items() if c}
        return acc

    def residual_of(self, entries) -> list:
        """Residual modulo this subspace, as a list over ``free``, of the
        vector with the given (column, value) entries, which name each
        column at most once.  It is zero exactly when the vector lies in
        the subspace.  A column outside the component raises ValueError."""
        entries = list(entries)
        cols = [c for c, _ in entries]
        if not all(0 <= c < self.ambient_dim for c in cols):
            raise ValueError(f"columns must lie in 0..{self.ambient_dim - 1}")
        ints, scale = self.field.ints([v for _, v in entries])
        res = list(map(self._reduce_ints(zip(cols, ints)).get, self.free, repeat(0)))
        return self.field.values(res, scale * self.den)

    def residual(self, poly: NCPoly) -> list:
        """Residual of a polynomial of this degree, as a list over ``free``."""
        self._check_poly(poly)
        d, n = self.degree, self.n
        return self.residual_of([(word_index(w, d, n), c) for w, c in poly.terms.items()])

    def reduce(self, vec):
        """Residual of a dense vector after subtracting its projection along
        the basis, as a dense vector: zero on the pivots.

        The residual is zero exactly when vec lies in the subspace.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError(
                f"expected a vector of length {self.ambient_dim}, got {len(vec)}")
        res = self.residual_of([(c, x) for c, x in enumerate(vec) if x])
        return self._dense(zip(self.free, res))

    def contains(self, poly: NCPoly):
        """Membership test for a homogeneous polynomial of matching degree.

        The zero polynomial of the subspace's algebra belongs to every
        subspace.
        """
        self._check_poly(poly)
        if not poly:
            return True
        if not poly.is_homogeneous(self.degree):
            raise ValueError(
                f"membership test needs a homogeneous polynomial of degree "
                f"{self.degree}, got {poly}")
        d, n, terms = self.degree, self.n, poly.terms
        ints = self.field.ints(terms.values())[0]
        return not self._reduce_ints(zip([word_index(w, d, n) for w in terms], ints))

    def contains_subspace(self, other: "Subspace"):
        self._check(other)
        tails, den = self.tails, other.den
        same = self.den == den
        for piv, tail in other.tails.items():
            # a row of other that is also a row of this basis lies in it
            if (not (same and tails.get(piv) == tail)
                    and self._reduce_ints([(piv, den)] + tail)):
                return False
        return True

    def _check(self, other: "Subspace"):
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError(
                f"subspace mismatch: degree {self.degree} over n={self.n} vs "
                f"degree {other.degree} over n={other.n}")
        if self.field != other.field:
            raise ValueError("subspace coefficient fields differ")

    def _check_poly(self, poly: NCPoly):
        if poly.n != self.n:
            raise ValueError(f"polynomial has {poly.n} generators, subspace has {self.n}")
        if poly.field != self.field:
            raise ValueError("polynomial and subspace coefficient fields differ")

    def kernel_of(self, residuals):
        """Kernel of a linear map restricted to this subspace.

        ``residuals[t]`` is the image of basis row t: a dense coordinate
        list, or a dict from coordinates (keys that sort together, such
        as ints) to its nonzero entries only.  Its entries are field
        elements, or ints that stand for one common nonzero multiple of it
        (residues over F_p).  Returns the Subspace of all combinations
        sum_t a_t*rows[t] with sum_t a_t*residuals[t] = 0.

        The system has one unknown a_t per basis row and one equation per
        coordinate.  ``_kernel`` peels it first: an unknown that is alone
        in an equation is fixed at zero, and only the core left over, on
        the m unknowns not fixed, goes to ``nullspace``.  The kernel's
        coordinates on those unknowns form a subspace of F^m, the degree-1
        component over m generators; its echelon rows recombine this basis
        into the canonical echelon basis of the kernel.  A combination's
        first nonzero column is the pivot of its first row with a_t != 0,
        and the basis rows are zero on each other's pivots, so the
        recombined rows are already reduced, with pivots those of the
        coordinates' pivot rows.  A residual count other than ``dim``
        raises ValueError.
        """
        if len(residuals) != self.dim:
            raise ValueError(f"expected {self.dim} residuals, one per basis row, "
                             f"got {len(residuals)}")
        return self._kernel(residuals)[0]

    def _kernel(self, residuals):
        """``kernel_of``, as ``(kernel, peeled, core)``: ``peeled`` counts
        the unknowns the peel fixed at zero, and ``core`` is the
        (equations, unknowns) shape of the system handed to ``nullspace``.

        Each residual is read as its nonzero entries, and the peel has one
        rule, repeated to a fixpoint: an equation with one live unknown
        fixes that unknown at zero, which may leave another equation with
        one.  No step changes an entry, so the core is the submatrix of the
        equations that still hold a live unknown on all the live unknowns;
        an unknown in no equation is a zero column there, and ``nullspace``
        gives its unit vector.  ``nullspace`` is called on the core exactly
        once, even when it is empty, and its basis is put in echelon form
        on the core's own coordinates, the live unknowns in increasing
        order; the fixed unknowns are zero in every kernel vector, so that
        basis relabels to the echelon basis on all of them.
        """
        field, dim = self.field, self.dim
        rows = [r if type(r) is dict else dict(filter(itemgetter(1), enumerate(r)))
                for r in residuals]
        # weight[e]: the live unknowns of equation e
        weight = Counter(chain.from_iterable(rows))
        single = [e for e, w in weight.items() if w == 1]
        gone = set()
        if single:
            # the equations' unknowns, built only when something peels
            cols = {e: [] for e in weight}
            for t, r in enumerate(rows):
                for e in r:
                    cols[e].append(t)
            while single:
                e = single.pop()
                if weight[e] != 1:
                    continue
                # the equation's one live unknown is zero
                t = next(t for t in cols[e] if t not in gone)
                gone.add(t)
                for f in rows[t]:
                    weight[f] -= 1
                    if weight[f] == 1:
                        single.append(f)
        core_words = [t for t in range(dim) if t not in gone]
        core_eqs = sorted([e for e, w in weight.items() if w])
        core = list(map(list, zip(*[map(rows[t].get, core_eqs, repeat(0))
                                    for t in core_words])))
        coords = Subspace.from_vectors(nullspace(core, len(core_words), field),
                                       len(core_words), 1, field)
        # the basis rows of the live unknowns, indexed by core coordinate
        basis = list(self.tails.items())
        rows = [basis[t] for t in core_words]
        den, p = self.den, self._p
        tails = {}
        for t, ctail in coords.tails.items():
            # coords.den * den times the combination, on ints
            acc = {}
            for u, a in [(t, coords.den)] + ctail:
                piv, tail = rows[u]
                acc[piv] = a * den
                for j, v in tail:
                    acc[j] = acc.get(j, 0) + a * v
            pivot = rows[t][0]
            del acc[pivot]
            if p is not None:
                acc = {c: v % p for c, v in acc.items()}
            tails[pivot] = sorted((c, v) for c, v in acc.items() if v)
        kernel = Subspace(self.n, self.degree, self.field, *_lowest(tails, coords.den * den))
        return kernel, len(gone), (len(core), len(core_words))

    def _extended(self, rows):
        """Span of this subspace and the vectors with the given (column,
        int) entries, by block elimination on the free columns.  Each
        row's ints stand for one nonzero multiple of its vector (residues
        over F_p).

        Returns ``(span, residuals)``, where ``residuals`` counts the
        nonzero residuals.  Each vector is reduced modulo this subspace
        onto ``free``; the residuals' RREF, taken once per distinct
        residual, gives the new pivot rows, whose pivots are then
        eliminated from the old tails.  No row that is eliminated is
        longer than ``free``.
        """
        free, p = self.free, self._p
        # the nonzero residuals, each kept once (by its entries in the
        # order the reduction found them) and written out over free
        count, seen = 0, {}
        for r in map(self._reduce_ints, rows):
            if r:
                count += 1
                seen.setdefault(tuple(r.items()), r)
        if not count:
            return self, 0
        distinct = [list(map(r.get, free, repeat(0))) for r in seen.values()]
        red, rden, positions = _rref_ints(distinct, p)
        if red is None:
            return Subspace.full(self.n, self.degree, self.field), count
        taken = set(positions)
        rest = [t for t in range(len(free)) if t not in taken]
        # the new pivot rows, rden times their values: rden at their pivot,
        # zero on the other new pivots
        new = {free[t]: [(free[j], row[j]) for j in rest if row[j]]
               for row, t in zip(red, positions)}
        den = self.den
        # every row goes over den * rden
        tails = {}
        for piv, tail in self.tails.items():
            if tail and not new.keys().isdisjoint([c for c, _ in tail]):
                # back substitution: clear the new pivot columns of the old row
                acc = {}
                for c, v in tail:
                    if c in new:
                        for j, x in new[c]:
                            acc[j] = acc.get(j, 0) - v * x
                    else:
                        acc[c] = acc.get(c, 0) + v * rden
                if p is not None:
                    acc = {c: v % p for c, v in acc.items()}
                tail = sorted((c, v) for c, v in acc.items() if v)
            elif rden != 1:
                tail = [(c, v * rden) for c, v in tail]
            tails[piv] = tail
        for piv, tail in new.items():
            tails[piv] = [(c, v * den) for c, v in tail] if den != 1 else tail
        return Subspace(self.n, self.degree, self.field,
                        *_lowest({piv: tails[piv] for piv in sorted(tails)}, den * rden)
                        ), count

    def __add__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        self._check(other)
        return self._extended(other._int_rows())[0]

    def equal(self, other: "Subspace"):
        """Equality with shape checking: same component, identical tails."""
        self._check(other)
        return self.tails == other.tails and self.den == other.den

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return ((self.n, self.degree, self.field, self.den, self.tails)
                == (other.n, other.degree, other.field, other.den, other.tails))

    def __hash__(self):
        return hash((self.n, self.degree, self.field, self.den,
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
