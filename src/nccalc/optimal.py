"""Degree-by-degree construction of the defining ideal of the optimal algebra.

For a homogeneous rule the ideal's degree-s component I_s is the
largest subspace of

    U_s = {f of degree s : D_k f in I_{s-1} for every k}

closed under all matrix entries of the rule's homomorphism A.  Degree 1
is always zero.  The quotient by the resulting ideal is the largest
algebra on which the rule's differential calculus lives.

Each degree starts from the part of I_s that is already known,

    L_s = sum_i (x^i * I_{s-1} + I_{s-1} * x^i),

the degree-s slice of the ideal that I_{s-1} generates.  Two facts put
L_s inside both U_s and I_s.  Both use that the components built so far
satisfy D_j(I_{s-1}) <= I_{s-2}, that I_{s-1} is closed under the
entries of A, and that I_{s-1} contains x^i * I_{s-2} + I_{s-2} * x^i,
which is what the construction and its self-checks establish degree by
degree.

1. D_k(L_s) <= I_{s-1}.  For g in I_{s-1} the twisted product rule gives

       D_k(x^a * g) = delta_ak * g + sum_j A(x^a)^j_k * D_j(g),
       D_k(g * x^a) = D_k(g) * x^a + A(g)^a_k.

   Here g and A(g)^a_k lie in I_{s-1}, each D_j(g) lies in I_{s-2}, and
   each A(x^a)^j_k is a linear form, so by the third property every
   term lies in I_{s-1}.

2. The entries of A(L_s) lie in L_s.  A is multiplicative, so the
   entries of A(x^a * g) = A(x^a) A(g) are sums of a linear form times
   an entry of A(g), which lies in I_{s-1}; likewise for A(g) A(x^a).

The ideal up to degree s-1 is held as a reduced Gröbner basis truncated
at s-1, with the normal words of every degree (see ``groebner``): a word
is normal when it contains no leading word, NF(f) is the normal form of
f, and I_d is spanned by the rows w - NF(w) for the words w outside N_d,
which are its canonical reduced echelon basis.  The normal words N_s of
L_s are the words x^a * w with w normal of degree s-1 whose prefixes
hold no leading word, less the leading words that the overlaps of
degree s add (``TruncatedBasis.open`` and ``overlaps``; below).  Every f
of degree s splits uniquely as f = l + c with l in L_s and c in the span
of N_s (c is the residual of f, its normal form modulo L_s).  By fact 1,
f lies in U_s exactly when c does, so

    U_s = L_s (+) C,   C = {c in span(N_s) : D_k c in I_{s-1} for all k},

which takes the derivatives of the normal words only and one kernel
step.

The derivatives of the normal words come from those of the degree
before, reduced, so no word's derivative is ever expanded in the free
algebra.  Every normal word of degree s is x^a * w with w a normal word
of degree s-1 (were w outside N_{s-1}, x^a * w would hold its leading
word).  Let Dbar_j(w) be the residual of D_j(w) modulo I_{s-2}, which
the degree before computed for every normal word of degree s-1.  The
product rule gives

    D_k(x^a * w) = delta_ak * w + sum_j A(x^a)^j_k * D_j(w),

and A(x^a)^j_k is a linear form, so replacing D_j(w) by Dbar_j(w)
changes the sum by an element of sum_b x^b * I_{s-2} <= L_{s-1} <=
I_{s-1}.  So D_k(x^a * w) has the residual modulo I_{s-1} of
delta_ak * w + sum_j A(x^a)^j_k * Dbar_j(w), whose terms are x^b times
normal words of degree s-2: n^2 short vectors per word, where the
derivative in the free algebra has up to 2^(s-1) terms.  Their normal
forms NF(x^b * v), v in N_{s-2}, are the one lookup the step needs: the
table ``groebner.PrefixForms`` of degree s-1, which ``_normal_step``
reads as it reads a subspace.  Degree 1 starts the recursion with
D_j(x^w) = delta_jw.

All of it runs on ints.  Over F_p they are residues.  Over Q the
images' coefficients carry L, the lcm of their denominators, the
residuals of the degree before carry their least common denominator E,
and the normal forms of the table of degree s-1 their common
denominator D, so every residual of degree s is L*E*D times its true
value.  They are put over their least common denominator again, which
divides every one by the same constant: the system built from them has
one nonzero factor in place of the true values, so its kernel C does
not change.  Only C's basis, usually empty or tiny, is made of field
elements.  (``compute_U`` runs the same recursion on every word:
modulo zero subspaces below degree s, where every word is normal and
the table holds the derivatives themselves, then once modulo its
``prev`` at degree s.)

The system stays sparse from the recursion to the kernel step.  Each
residual is a dict of its nonzero ints keyed by normal word, the same
dicts serve as the next degree's table, and a word's row of the system
joins its n residuals under disjoint keys (``_derivative_rows``).
``Subspace.kernel_of`` peels the system before any elimination (see
``linalg``): an equation with one word fixes that word at zero, and only
the core on the words left over is eliminated.  For the zero rule
D_k(x^a * w) = delta_ak * w, so every row holds one entry and every
equation one word; the peel fixes every word, and each degree of its
free quotient costs time and memory linear in 2^s.

Free degrees of a dense rule take packed rows instead.  While
I_1 = ... = I_{s-1} = 0, every word is normal, L_s = 0, and the table
of degree s-1 holds the derivatives themselves.  Transposed, the
system of degree s has one row E_s[k, c] per equation, for D_k and a
word c of degree s-1, and one column per word of degree s, and its
kernel is U_s.  Write m = n^(s-2), top = n^(s-1), c = b*m + u with u of
degree s-2, and sigma^{aj}_{kb} for the coefficient of x^b in
A(x^a)^j_k.  The product rule gives

    E_s[k, b*m + u] = lead * e_{k*top + b*m + u}
                      + sum_{a,j} sigma^{aj}_{kb} * (E_{s-1}[j, u] in block a),

where block a holds the columns a*top + w of the words x^a * w, and
lead is the one the table uses (1 over F_p).  The recursion starts
from E_1[j] = e_j; in practice a packed degree steps on the residues of
degree s-1, or reads E_{s-1} off the table of degree s-1.  Each row is
one Python int with a field per column, as in ``linalg``'s packed
elimination, so an equation costs at most n^2 big-int multiply-adds,
where the table costs n^2 dict updates per entry of each word's
derivatives.

The packed degrees are decided modulo one prime q: the rule's own p
over F_p, and the first prime of ``linalg._PRIMES`` over Q.  The step
runs on residues: the rows of degree s-1 mod q, the images' ints (over
Q scaled by L, the lcm of their denominators) and the lead mod q, in
fields wide enough for a sum of products of residues.  Each degree's
fields are reduced mod q once, and its nonzero rows go straight to the
modular elimination, in the orientation it eliminates.  Over Q the
residue rows are those of an integer matrix, a nonzero multiple of the
true system: the lead of degree s is L times that of degree s-1, and no
gcd divides it out.  So full column rank mod q proves U_s = 0: some
maximal minor is nonzero mod q, so it is a nonzero integer, and the
rank over Q is full too.  Such a degree builds nothing exact, and a
dense rule's free quotient, whose systems almost always have full rank,
is decided on residues alone.

A degree whose rank falls short mod q takes its kernel otherwise, and
its exact system comes from the table alone: ``_free_table`` steps the
table of the last exact degree (the one the prefix started from, or the
last whose rank fell short) on to degree s by ``_normal_step`` modulo
zero subspaces.  Over F_p the residues are exact, and the kernel comes
from the same RREF: the table serves only the degrees after it, and the
last degree builds none.  Over Q the residues are dropped, and the
table's rows (``_equation_rows``) go to ``linalg._rref_rational`` with
the mod-q RREF as its first prime's, so no system is eliminated twice
mod one prime, and the kernel is the certified lift (or a full rank
another prime proves).  Either way U_s comes out canonical, and the
invariant rounds below follow as for any degree.  The next degree reads
the new table: as the table path if I_s != 0, or by restarting the
residues from its rows if I_s = 0.  Rank mod q never exceeds the rank
over Q, so a prime that divides L or the den only costs a lift: the
answer is never taken from residues alone unless their rank is full.

Degree 2 always takes the table.  A degree s >= 3 is packed when
I_{s-1} = 0 and the peel of degree s-1 fixed at most half its words,
leaving a core on the rest: then the peel would hand ``nullspace`` a
dense core of Python ints anyway, while a packed row costs a few bytes
per cell.  Once packed, the degrees stay packed while the quotient
stays free; the first I_s != 0, whose rank fell short, has built the
table of degree s, and the next degree reads it.  The zero rule's peel
fixes every word and leaves an empty core, so its free quotient keeps
the peel, which touches its n^s entries where packed rows would take
n^(2s) cells.

By fact 2, L_s is closed under the entries of A, so it lies in
the largest closed subspace of U_s.  The descending rounds
W -> {w in W : every entry of A(w) lies in W}, started at W = U_s, keep
the form W = L_s (+) C_t: the part in L_s always survives, and c in C_t
survives exactly when the entries of A(c) reduce to zero modulo W.  So
the rounds run on C alone: an entry lies in W exactly when its residual
modulo L_s, its normal form by the basis with L_s's overlap elements
joined, lies in C_t.  Each round either certifies closure or drops
dim C_t, and I_s = L_s (+) C_t at the fixpoint.  The entries of A(c)
come from ``commrule._walk`` on the ints of C_t's basis rows, which all
carry C_t's den, so every entry has one scale.  C and its rounds live on
the coordinates of N_s, one unknown per normal word: no degree builds a
row or a subspace on more than its |N_s| normal words.

L_s comes from the basis of degree s-1 with no elimination of its own.
The words x^a * w, w in N_{s-1}, whose prefix is a lower leading word
are rewritten to their normal forms, and the rest are normal modulo the
lower basis.  Where the leading words of two lower elements g and h
overlap, u = A*B of g and v = B*C of h, the element g*C - A*h of L_s
reduces to a residual on those words; the reduced echelon rows of the
residuals of degree s join the basis, and by the diamond lemma the words
left are L_s's normal words.  On every example the basis has a few
elements and the quotient s+1 dims or fewer, so a degree costs a few
lookups per normal word.  Then C_s's reduced echelon rows, on N_s, join
the basis in turn: their pivots become leading words and leave the
normal words of I_s, and the table's forms are reduced modulo them.  A
component is built only where a caller reads it (``IdealFiltration``).

The construction re-verifies itself as it runs: a round that does not
shrink raises, and so does a degree that is not an ideal slice
(``groebner.TruncatedBasis.resolves``): after C_s joins, the words
x^a * w, w in N_{s-1}, must split into normal words and words the table
rewrites, no leading word of degree s may hold a lower one, and every
overlap of degree s must reduce to zero, so that I_s holds L_s.  These
are raises, not asserts, so they hold under ``python -O`` too.

The degree-bounded consistency check of an ideal J = (R) generated by
homogeneous relations asks, for every d up to a bound S, that each
D_k(J_d) lies in J_{d-1} and each entry of A(J_d) lies in J_d.  It is
decided by the generators alone:

    J passes up to S  <=>  every r in R with deg r <= S has
                           D_k(r) in J_{deg r - 1} for every k and every
                           entry of A(r) in J_{deg r}.

(<=) J_d is spanned by the products u*r*v of words u, v and generators
r with deg u + deg r + deg v = d.  The product rule, applied twice, gives

    D_k(u*r*v) = D_k(u)*r*v
                 + sum_j A(u)^j_k * (D_j(r)*v + sum_l A(r)^l_j * D_l(v)).

Because the rule is homogeneous, D_k(u) has degree deg u - 1 and the
entries of A(u) have degree deg u.  So the first term is a multiple of r
of degree d - 1, the second a multiple of D_j(r), which lies in
J_{deg r - 1}, and the third a multiple of an entry of A(r), which lies
in J_{deg r}: all three lie in J_{d-1}.  A is multiplicative, so
A(u*r*v) = A(u)A(r)A(v), and each of its entries is a sum of multiples
of entries of A(r), which lie in J_d.

(=>) Each r with deg r <= S lies in J_{deg r}, and both conditions are
linear in the element checked, so a failing r means that some basis
element of J_{deg r} fails too, and the full check fails.

So ``check_consistent_ideal`` checks the generators against the slices at
their own degrees and answers "consistent" at that cost; only when one
fails does it check every basis element of J_1..J_S, to list the
violations.  Both conditions read the columns of Phi(r) = [[A(r), D(r)],
[0, r]] (see ``commrule``), which one ``commrule._walk`` gives together
for each generator.

The listing reads them off one residual table per degree instead.  For
a word W of degree d the table holds Dbar_k(W), the residual of
D_k(W) modulo J_{d-1}, and Abar(W), whose entries are the residuals of
those of A(W) modulo J_d.  Both follow from the table of degree d-1 by
one product-rule step per word W = x^a * w:

    D_k(x^a * w) = delta_ak * w + sum_j A(x^a)^j_k * D_j(w),
    A(x^a * w)^i_k = sum_j A(x^a)^j_k * A(w)^i_j,

with D(w) and A(w) replaced by Dbar(w) and Abar(w) and the sums reduced.
That is exact because J is an ideal, so V*J_{e-1} <= J_e for V the
linear forms: A(w) - Abar(w) has entries in J_{d-1}, so A(x^a) *
(A(w) - Abar(w)) has entries in V*J_{d-1} <= J_d, and D_j(w) - Dbar_j(w)
lies in J_{d-2}, so A(x^a)^j_k * (D_j(w) - Dbar_j(w)) lies in V*J_{d-2}
<= J_{d-1}.  The two are column blocks of Phi(x^a * w) = Phi(x^a) *
Phi(w) (see ``commrule``), so one step, ``_normal_step``, gives both:
on the D column modulo J_{d-1}, the step the filtration and
``compute_U`` run, and on the n columns of A modulo J_d.  Residuals
are linear, so a basis row of J_d fails a check exactly when the int
combination of its words' table entries is nonzero, and only a failing
row is made a polynomial and labelled.

A table holds n^2 + n residuals per word, of up to codim J_{d-1} (Dbar)
or codim J_d (Abar) ints each, and only the tables of degrees d-1 and d
are alive at once.  It pays where J_d holds most words: residuals are
then short and one step per word serves many basis rows.  Where J_d
holds few, the residuals are about as long as the unreduced images, and
a table would hold n^2 + n of them per word where a walk holds one
element's.  Since J_{d+1} holds the n independent copies x^i*J_d, J_d's
share of the n^d words never falls as d grows, and J_S's is the
largest.  So one test decides for the whole listing.  Where J_S holds
at least half its n^S words, every degree is listed from tables: each
degree d < S tabulates all n^d words, whose rows the steps of degree
d+1 read, and degree S only the words of J_S's basis rows, so the top
table follows the support of J_S, not n^S.  Otherwise every basis
element is walked (``_row_residuals``) and no table is built.  Either
way one loop (``_closure_violations``) reads each slice's int rows.
The generators' own checks above, a handful of elements, take the walk
too.

The slices themselves are built by block elimination on their pivot
rows.  A product u*r*v of degree d with u or v nonempty is x^a or x^b
times a product of degree d - 1, so

    J_d = sum_i (x^i * J_{d-1} + J_{d-1} * x^i) + R_d,    J_0 = 0,

with R_d the span of the generators of degree d.  Write m = n^(d-1); the
word x^a * w sits at column a*m + w, so the left shifts x^a * J_{d-1}
of J_{d-1}'s echelon rows fill the disjoint column blocks
[a*m, (a+1)*m) and already form the canonical reduced echelon basis of
their span (``_ideal_slice``).  Only the right shifts and the
generators' entries are reduced modulo them, onto their n*|free J_{d-1}|
free columns, and eliminated there; their new pivots are then cleared
from the left shifts' tails (``Subspace._extended``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from math import gcd

from .commrule import (CommRule, NonHomogeneousRuleError, _blocks, _int_images, _int_terms,
                       _prepend, _walk)
from .freealg import NCPoly, format_poly, index_word, word_index
from .groebner import PrefixForms, TruncatedBasis
# the packed degrees read linalg's _PRIMES and _rref_mod as they are when
# called
from . import linalg
# nullspace is not called here; the benchmark's tracer test reads this binding
from .linalg import Subspace, _field_codec, _kernel_basis, nullspace


class IdealPropertyViolation(RuntimeError):
    """A self-check of the construction failed: the components are not
    ideal slices (x^i*I_{s-1} + I_{s-1}*x^i <= I_s), or an invariant-subspace
    round did not shrink its space."""


def _require_homogeneous(rule: CommRule):
    if not rule.homogeneous:
        raise NonHomogeneousRuleError(
            "the ideal construction needs a homogeneous rule "
            "(every image entry a linear form)")


def _normal_step(rule: CommRule, space, known, words, derivatives):
    """The residual table of the degree-s words at the given columns, from
    that of the degree s-1, by one product-rule step per word x^a * w
    (see the module docstring): of the n derivatives modulo ``space`` =
    I_{s-1} or J_{s-1} with ``derivatives``, else of the n^2 entries of A
    modulo ``space`` = J_s.  ``space`` is a Subspace, or anything that
    reduces as one does (``_reduce_ints``, ``den`` and ``degree``): I_{s-1}
    is the basis's table ``groebner.PrefixForms`` of degree s-1, which
    rewrites every word x^b * v, v normal of degree s-2, that the step
    reduces.

    ``known`` is ``(table, den)``: for each word w of degree s-1 with
    some x^a*w among the words, table[w] lists the residuals of w's
    derivatives or entries, one degree down, as {free column: int}, den
    times their values over Q (residues over F_p, with den 1); entry
    (k, i) of A sits at (i-1)*n + k-1, as in ``commrule._walk``.
    Returns ``(table, den)`` for the words.
    """
    n, p = rule.n, rule.field.p
    scale = _int_images(rule)[0]
    table, den = known
    width = n if derivatives else n * n
    # the table's entries, of D or of A, have degree space.degree - 1
    shifted = _blocks(_shifted_images(rule, n ** (space.degree - 1)), width)
    top = n ** (space.degree if derivatives else space.degree - 1)
    lead = 1 if p is not None else scale * den
    reduce = space._reduce_ints
    out = {}
    for col in words:
        a, w = divmod(col, top)
        # D_k(x^a*w) = delta_ak*w + sum_j A(x^a)^j_k*D_j(w) and
        # A(x^a*w) = A(x^a)*A(w), on lead times their values
        acc = [{} for _ in range(width)]
        if derivatives:
            acc[a][w] = lead
        _prepend(shifted[a], table[w], acc)
        out[col] = [reduce(d.items()) for d in acc]
    if p is not None:
        return out, 1
    return _lowest_table(out, lead * space.den)


def _derivative_rows(table, words, top):
    """The derivative system of the words, one row per word, from their
    Dbar rows modulo a space of n^(s-1) = ``top`` words: the entry of D_k
    at free column c sits at key k*top + c."""
    return [{k * top + c: x for k, d in enumerate(table[w]) for c, x in d.items()}
            for w in words]


def _shifted_images(rule: CommRule, shift):
    """A(x^a)'s entries with each x^b as the column offset (b-1)*shift of
    x^b times a word of the degree below, as ``_blocks`` reads them:
    entry a-1 holds the rows of x^a."""
    images = _int_images(rule)[1]
    return [[[(j, [((v[0] - 1) * shift, x) for v, x in entry]) for j, entry in row]
             for row in image] for image in images]


def _lowest_table(out, den):
    """``(out, den)`` over Q with den and every residual's ints divided by
    their gcd, so the next degree's ints stay small."""
    g = gcd(den, *chain.from_iterable(d.values() for parts in out.values() for d in parts))
    if g != 1:
        out = {c: [{j: x // g for j, x in d.items()} for d in parts]
               for c, parts in out.items()}
    return out, den // g


def _unit_partials(n):
    """The Dbar table of degree 1: D_j(x^w) = delta_jw, the empty word at
    column 0 of degree 0."""
    return {w: [{0: 1} if j == w else {} for j in range(n)] for w in range(n)}, 1


def _unit_images(n):
    """The Abar table of degree 0: A of the empty word is the identity, at
    column 0."""
    return {0: [{0: 1} if i % (n + 1) == 0 else {} for i in range(n * n)]}, 1


def _equation_rows(known, n):
    """The derivative table of a free degree d as one int row per
    equation, with the table's den: row j*m + u (m = n^(d-1), u a word of
    degree d-1) holds at column w the coefficient of u in D_j(w), for
    every word w of degree d."""
    table, den = known
    top = len(table)
    m = top // n
    rows = [[0] * top for _ in range(n * m)]
    for w, parts in table.items():
        for j, d in enumerate(parts):
            for u, x in d.items():
                rows[j * m + u][w] = x
    return rows, den


def _packed_partials(rule, rows, den, q):
    """The derivative system of a free degree s modulo the prime q, from
    that of degree s-1 (see the module docstring).

    ``rows`` are the residues mod q of den times the rows of degree s-1
    that ``_equation_rows`` describes.  Returns ``(rows, den)`` for
    degree s: the residues of lead times its rows, with den = lead, the
    lead of the exact step reduced mod q (1 over F_p, where q = p).
    """
    n = rule.n
    scale, images = _int_images(rule)[:2]
    # terms[k*n + b][a]: (j, x mod q) for each term x*x^b of A(x^a)^j_k,
    # the coefficients of the rows of equation k and letter b
    terms = [[[] for _ in range(n)] for _ in range(n * n)]
    for a, image in enumerate(images):
        for k, row in enumerate(image):
            for j, entry in row:
                for v, x in entry:
                    if x % q:
                        terms[k * n + v[0] - 1][a].append((j, x % q))
    lead = scale * den % q
    # every field of degree s is lead times a delta plus residues times
    # residues, all below q.  Fields of at least a 64-bit word pass whole
    # rows through array('Q'), which beats narrower fields' byte shuffle
    reach = max(sum(x for _, x in t) for ts in terms for t in ts)
    width, pack, unpack = _field_codec(max(64, ((reach + 1) * (q - 1)).bit_length()))
    top = len(rows[0])
    m = len(rows) // n
    size = n * top
    packed = list(map(pack, rows))
    block = width * top
    out = []
    # Horner's rule over the blocks of columns a*top + w, a = 0 first,
    # then lead at column k*top + c of row k*top + c for delta_ak*w
    for ts in terms:
        for u in range(m):
            acc = 0
            for t in ts:
                acc <<= block
                for j, x in t:
                    acc += x * packed[j * m + u]
            out.append(acc)
    return [[x % q for x in unpack(row + (lead << width * (size - 1 - r)), size)]
            for r, row in enumerate(out)], lead


def _kernel_subspace(red, den, pivots, size, field):
    """The kernel of a system of ``size`` unknowns, as a Subspace of their
    coordinates, from its RREF as ``linalg._rref_ints`` returns it."""
    return Subspace.from_vectors(_kernel_basis(red, den, pivots, size, field), size, 1, field)


def _free_table(rule: CommRule, e, known, s):
    """The Dbar table of all n^s words of a free degree s, from ``known``,
    that of all words of the free degree e <= s: ``_normal_step`` modulo
    zero subspaces (empty prefix tables), where every word is normal and
    the table holds the derivatives themselves."""
    n, p = rule.n, rule.field.p
    for d in range(e + 1, s + 1):
        known = _normal_step(rule, PrefixForms(d - 1, {}, 1, p), known, range(n ** d), True)
    return known


def compute_U(rule: CommRule, s: int, prev: Subspace) -> Subspace:
    """Degree-s polynomials whose every partial derivative lies in prev.

    ``_free_table`` builds the exact derivative table of degree s-1, then
    ``_normal_step`` the residuals of all n^s words modulo prev, whose
    system has the kernel U_s on the full component.
    """
    _require_homogeneous(rule)
    if s < 2:
        raise ValueError(f"the derivative-preimage step starts at degree 2, got {s}")
    if prev.degree != s - 1:
        raise ValueError(f"previous component must live at degree {s - 1}, "
                         f"got degree {prev.degree}")
    if prev.n != rule.n:
        raise ValueError(f"previous component has {prev.n} generators, rule has {rule.n}")
    if prev.field != rule.field:
        raise ValueError("previous component and rule coefficient fields differ")
    n, field = rule.n, rule.field
    known = _normal_step(rule, prev, _free_table(rule, 1, _unit_partials(n), s - 1),
                         range(n ** s), True)
    system = _derivative_rows(known[0], range(n ** s), n ** (s - 1))
    return Subspace.full(n, s, field).kernel_of(system)


def _row_residuals(rule: CommRule, row, d, within, below=None):
    """The residuals, in ``commrule._walk``'s order, of the columns of Phi
    of the degree-d vector with the (column, int) entries ``row``: the
    n^2 entries of A reduced by ``within`` and, given ``below``, the n
    derivatives reduced by ``below``.  Each reduction maps the (column,
    int) entries of a vector, of degree d and d-1, to its residual, as
    ``Subspace._reduce_ints`` does.  One walk gives them, on a common
    multiple of their values (residues over F_p), as dicts from free
    columns to ints; the words and columns are converted here."""
    n = rule.n
    cols = _walk(rule, {index_word(c, d, n): x for c, x in row}, 1, True,
                 below is not None)[0]
    steps = [(within, d)] * (n * n) + [(below, d - 1)] * (len(cols) - n * n)
    return [reduce([(word_index(w, e, n), x) for w, x in col.items()])
            for (reduce, e), col in zip(steps, cols)]


def _closed_complement(rule: CommRule, s, lower, words, space: Subspace):
    """Largest C <= ``space`` such that every entry of A(C) lies in
    L + C, for a degree-s subspace L closed under those entries whose
    normal words are ``words``, in increasing order: coordinate t of
    ``space`` stands for words[t].  ``lower`` reduces modulo L as
    ``Subspace._reduce_ints`` does, onto ``words``.  Returns (C, rounds).
    """
    size = len(words)
    rounds = 0
    # the zero space is closed, and so is one that fills lower's normal
    # words: then lower + C is the whole degree-s component
    if space.dim and space.dim < size:
        where = {c: t for t, c in enumerate(words)}
    while space.dim and space.dim < size:
        # an entry lies in lower + C exactly when its residual modulo
        # lower, supported on lower's normal words, lies in C.  Every basis
        # row's ints carry space.den, so the entries of A on all of them
        # share one scale; entry e's residual sits at keys e*size + t
        residuals = [{e * size + t: x
                      for e, low in enumerate(_row_residuals(
                          rule, [(words[u], x) for u, x in row], s, lower))
                      for t, x in space._reduce_ints([(where[c], x)
                                                      for c, x in low.items()]).items()}
                     for row in space._int_rows()]
        rounds += 1
        if not any(residuals):
            break
        smaller = space.kernel_of(residuals)
        if smaller.dim >= space.dim:
            base = rule.n ** s - size
            raise IdealPropertyViolation(
                f"invariant-subspace round did not shrink the degree-"
                f"{s} space (dim {base + space.dim} -> "
                f"{base + smaller.dim})")
        space = smaller
    return space, rounds


def largest_invariant(rule: CommRule, space: Subspace) -> Subspace:
    """Largest subspace of ``space`` closed under all entries of the rule's
    homomorphism.

    Iterates W -> {w in W : every entry of A(w) lies in W}; each round
    either certifies invariance or strictly drops the dimension, so the
    loop terminates within dim(space) + 1 rounds.
    """
    _require_homogeneous(rule)
    if space.n != rule.n:
        raise ValueError(f"space has {space.n} generators, rule has {rule.n}")
    if space.field != rule.field:
        raise ValueError("space and rule coefficient fields differ")
    zero = Subspace.zero(space.n, space.degree, space.field)
    return _closed_complement(rule, space.degree, zero._reduce_ints, range(space.ambient_dim),
                              space)[0]


def _ideal_slice(prev: Subspace, rows=()):
    """L_s = sum_i x^i*prev + prev*x^i, from prev's pivots and tails,
    spanned together with the vectors with the given (column, int)
    entries (each row one nonzero multiple of its vector, residues over
    F_p).

    The left shifts are already a canonical reduced echelon basis (see
    the module docstring), so only the right shifts and ``rows`` are
    eliminated, on the left shifts' free columns.  Returns ``(L_s,
    residuals)``, the number of those vectors whose residual was
    eliminated.
    """
    n, m, den = prev.n, prev.ambient_dim, prev.den
    # x^a * w sits at a*n^(s-1) + w, and w * x^a at n*w + a; the shifts
    # keep prev's ints and den
    left = Subspace(n, prev.degree + 1, prev.field,
                    {a * m + p: [(a * m + c, v) for c, v in tail]
                     for a in range(n) for p, tail in prev.tails.items()}, den)
    right = [[(n * p + a, den)] + [(n * c + a, v) for c, v in tail]
             for p, tail in prev.tails.items() for a in range(n)]
    return left._extended(right + list(rows))


class IdealFiltration:
    """Components I_1..I_N of the optimal ideal for a homogeneous rule,
    held as its Gröbner basis truncated at N (``groebner.TruncatedBasis``):
    the normal words N_s of every degree, which index a basis of the
    quotient, and the normal forms that rewrite every other word.  Nothing
    of size n^s is kept.  ``quotient_dims`` reads |N_s|;
    ``component(s)`` builds I_s's canonical echelon basis on demand, the
    rows w - NF(w) for the words w outside N_s, and ``components`` all of
    them."""

    __slots__ = ("rule", "basis", "max_degree")

    def __init__(self, rule, basis, max_degree):
        self.rule = rule
        self.basis = basis
        self.max_degree = max_degree

    def component(self, s: int) -> Subspace:
        if not 1 <= s <= self.max_degree:
            raise ValueError(f"degree {s} outside computed range 1..{self.max_degree}")
        return self.basis.component(s)

    @property
    def components(self):
        return tuple(map(self.basis.component, range(1, self.max_degree + 1)))

    def quotient_dims(self):
        """Graded dimensions of the quotient algebra: (s, |N_s|) =
        (s, n^s - dim I_s)."""
        return [(s, len(self.basis.normal[s])) for s in range(1, self.max_degree + 1)]

    def __repr__(self):
        dims = ", ".join(str(self.rule.n ** s - q) for s, q in self.quotient_dims())
        return f"<IdealFiltration dims [{dims}]>"


def optimal_ideal(rule: CommRule, max_degree: int) -> IdealFiltration:
    """Build the filtration degree by degree up to max_degree.

    Logs one DEBUG record per degree s >= 2 on the ``nccalc`` logger:
    the number of overlaps of degree s of the lower basis elements and
    the rank of their residuals, the basis elements they add, dim L_s,
    the number of normal words |N_s| of L_s, the size |N_s| x
    n*|N_{s-1}| of the derivative system of the normal words and its rank
    |N_s| - dim C, dim U_s, the invariant rounds, dim I_s, and how the
    kernel step solved the system: ``peeled``, the number of unknowns
    (normal words) the peel fixed at zero, and ``core``, the shape,
    equations x unknowns, of the system it handed to ``nullspace``, whose
    unknowns are all the words not fixed, those in no equation included.
    For thm4.1-I at degree 3 that is ``normal words=4 derivative
    system=4x6 rank=4 dim U=4`` and ``peeled=1 core=5x3``; for ex3.4 at
    degree 2, where three words lie in no equation, ``peeled=1 core=0x3``.

    While the quotient is free and the rule dense, the degrees from 3 on
    build their derivative system as packed rows of residues mod one
    prime q, one per equation, and hand it to the modular elimination
    whole (see the module docstring); such a degree logs ``peeled=0`` and
    the core as its equations that are nonzero mod q x n^s.
    """
    _require_homogeneous(rule)
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    # imported here: at module level, logging adds about a fifth to the
    # CLI's start-up time
    import logging
    log = logging.getLogger("nccalc")
    n, field = rule.n, rule.field
    # the prime that decides the packed degrees (see the module docstring)
    q = field.p or linalg._PRIMES[0]
    basis = TruncatedBasis(n, field)
    known = _unit_partials(n)
    # whether the last table-built degree left a dense core, and while the
    # degrees are packed, the residues of the degree before as (rows, den),
    # or None where they are to be read off the table of that degree
    dense, residues = False, None
    for s in range(2, max_degree + 1):
        free = len(basis.normal[s - 1]) == n ** (s - 1)
        # L_s: the words x^a*y rewritten by the lower basis, and the rows
        # its overlaps of degree s add
        basis.open(s)
        overlaps = basis.overlaps(s)
        rank = basis.join(s, *basis.echelon(s, [basis.reduce(s, e) for e in overlaps]))
        words = basis.normal[s]
        if dense and free:
            if residues is None:
                # the table of degree e = s-1, which a rank that falls short
                # steps on to its degree
                e = s - 1
                rows, den = _equation_rows(known, n)
                residues = [[x % q for x in r] for r in rows], den % q
            residues = _packed_partials(rule, *residues, q)
            eqs = [r for r in residues[0] if any(r)]
            top = n ** s
            red, pivots = linalg._rref_mod(eqs, q) if eqs else ([], [])
            peeled, core = 0, (len(eqs), top)
            if len(pivots) == top:
                # full rank mod q: U_s = 0, and nothing is exact
                u_c = Subspace.zero(top, 1, field)
            else:
                # free the residues before the exact table of degree s is
                # built: the lift over Q reads it, and so does the next
                # degree
                residues = eqs = None
                if field.p is None or s < max_degree:
                    known = _free_table(rule, e, known, s)
                if field.p is not None:
                    u_c = _kernel_subspace(red, 1, pivots, top, field)
                else:
                    # the mod-q RREF is _rref_rational's first prime, unless
                    # no equation survived mod q
                    u_c = _kernel_subspace(*linalg._rref_rational(
                        _equation_rows(known, n)[0], (red, pivots) if pivots else None),
                        top, field)
            # a short rank's RREF is as large as the system: free it before
            # the next degree
            del red
        else:
            known = _normal_step(rule, basis.prefixes[s - 1], known, words, True)
            system = _derivative_rows(known[0], words, n ** (s - 1))
            if s == max_degree:
                # no degree reads this table: free it before the kernel step
                known = None
            u_c, peeled, core = Subspace.full(len(words), 1, field)._kernel(system)
            dense = 2 * core[1] >= len(words)
        c_s, rounds = _closed_complement(rule, s, partial(basis.reduce, s), words, u_c)
        basis.join(s, {words[t]: [(words[j], x) for j, x in tail]
                       for t, tail in c_s.tails.items()}, c_s.den)
        # ideal-slice check: the words split into normal and rewritten
        # ones, C_s's leading words hold no lower one, and every overlap of
        # degree s reduces to zero, so I_s holds L_s
        if not basis.resolves(s, overlaps):
            raise IdealPropertyViolation(
                f"degree-{s} component is not an ideal slice: it misses "
                f"part of x^i*I_{s - 1} + I_{s - 1}*x^i")
        # the overlaps' residuals add their rank to the words the lower
        # basis rewrites.  The derivative system has a row per normal word
        # and n coordinates per normal word of degree s-1, and its kernel
        # is C; the peel fixes some of its unknowns at zero and leaves a
        # core of equations x the other unknowns
        dim_l = n ** s - len(words)
        log.debug("degree %d: overlaps=%d rank=%d dim L=%d "
                  "normal words=%d derivative system=%dx%d rank=%d dim U=%d "
                  "invariant rounds=%d dim I=%d peeled=%d core=%dx%d",
                  s, len(overlaps), rank, dim_l, len(words),
                  len(words), n * len(basis.normal[s - 1]), len(words) - u_c.dim,
                  dim_l + u_c.dim, rounds, n ** s - len(basis.normal[s]), peeled, *core)
    return IdealFiltration(rule, basis, max_degree)


def quotient_dims(filtration: IdealFiltration):
    return filtration.quotient_dims()


def _ideal_generators(generators, n=None, field=None):
    """The nonzero generators, checked to be homogeneous, non-constant and
    over one algebra (n and field if given).  Returns (gens, n, field)."""
    gens = []
    for g in generators:
        if not g:
            continue
        if not g.is_homogeneous():
            raise ValueError(f"ideal generator {g} is not homogeneous")
        gens.append(g)
        if n is None:
            n, field = g.n, g.field
        elif g.n != n or g.field != field:
            raise ValueError("ideal generators disagree on algebra")
    if n is None:
        raise ValueError("no nonzero generators and no explicit n/field")
    if any(g.degree() == 0 for g in gens):
        raise ValueError("constant ideal generators are not supported")
    return gens, n, field


def _next_slice(prev: Subspace, gens) -> Subspace:
    """J_d from J_{d-1}: J_d = sum_i x^i*J_{d-1} + J_{d-1}*x^i + R_d, with
    R_d the span of the degree-d generators."""
    d, n, ints = prev.degree + 1, prev.n, prev.field.ints
    return _ideal_slice(prev, [list(zip([word_index(w, d, n) for w in g.terms],
                                        ints(g.terms.values())[0]))
                               for g in gens if g.degree() == d])[0]


def _extend_slices(slices, gens, d):
    """Extend the list J_0, J_1, ... of slices through J_d."""
    while len(slices) <= d:
        slices.append(_next_slice(slices[-1], gens))


def ideal_component(generators, d: int, n=None, field=None) -> Subspace:
    """Degree-d slice of the two-sided ideal the generators produce:
    the span of u*g*v over basis words u, v with matching total degree,
    built degree by degree from J_0 = 0 by ``_next_slice``."""
    gens, n, field = _ideal_generators(generators, n, field)
    if d < 0:
        raise ValueError(f"slice degree must be nonnegative, got {d}")
    slices = [Subspace.zero(n, 0, field)]
    _extend_slices(slices, gens, d)
    return slices[d]


@dataclass(frozen=True)
class Violation:
    """One failed closure check: a derivative or an image entry that left
    the ideal."""
    degree: int
    source: str          # printed form of the offending relation/basis element
    check: str           # "partial" or "entry"
    k: int               # derivative index, or the entry's lower index
    i: int | None = None # the entry's upper index (None for derivative checks)

    def describe(self):
        if self.check == "partial":
            return (f"degree {self.degree}: derivative {self.k} of "
                    f"{self.source} leaves the ideal")
        return (f"degree {self.degree}: image entry (upper {self.i}, "
                f"lower {self.k}) of {self.source} leaves the ideal")


@dataclass(frozen=True)
class ConsistencyReport:
    mode: str                     # "same-degree" or "degree-bounded"
    checked_degree: int | None    # relation degree, or the verification bound
    violations: tuple

    @property
    def verdict(self):
        return not self.violations


def _int_row(rule: CommRule, g: NCPoly):
    """The homogeneous g's (column, int) entries, checked against the rule,
    and their den: den times g's coefficients over Q, its residues over
    F_p with den 1."""
    terms, den = _int_terms(rule, g)
    d, n = g.degree(), rule.n
    return [(word_index(w, d, n), x) for w, x in terms.items()], den


def _closure_violations(rule: CommRule, d: int, rows, below: Subspace,
                        within: Subspace, names=None, tables=None) -> list:
    """Closure failures of degree-d elements, each given as ``(row, den)``,
    its (column, int) entries and den as in ``_int_row``: every
    derivative must reduce to zero modulo ``below`` (the slice one degree
    down) and every image entry modulo ``within`` (the degree-d slice).

    The residuals come from one walk per element (``_row_residuals``),
    or, given the ``(Dbar, Abar)`` tables of degree d from
    ``_residual_tables``, from the int combinations of their entries.
    Only an element that fails is made a polynomial, labelled with the
    generator ``names`` (x1..xn by default)."""
    n, field, value, p = rule.n, rule.field, rule.field.value, rule.field.p
    # the checks in the order listed, each at its place among the
    # residuals: entry (k, i) of A at (i-1)*n + k-1, then the derivatives
    checks = ([(n * n + k - 1, ("partial", k)) for k in range(1, n + 1)]
              + [((i - 1) * n + k - 1, ("entry", k, i))
                 for k in range(1, n + 1) for i in range(1, n + 1)])
    if tables is not None:
        (partials, _), (images, _) = tables
    violations = []
    for row, den in rows:
        if tables is None:
            res = _row_residuals(rule, row, d, within._reduce_ints, below._reduce_ints)
        else:
            res = ([_combination(row, images, e, p) for e in range(n * n)]
                   + [_combination(row, partials, k, p) for k in range(n)])
        failed = [check for e, check in checks if res[e]]
        if failed:
            b = NCPoly(n, field, {index_word(c, d, n): value(v, den) for c, v in row})
            label = format_poly(b, names)
            violations += [Violation(d, label, *f) for f in failed]
    return violations


def check_same_degree_consistency(rule: CommRule, relations, *,
                                  names=None) -> ConsistencyReport:
    """Closure check for relations sharing one degree: every derivative of
    every relation must vanish identically, and every image entry of a
    relation must stay in the relations' span.  Violations name the
    relations with the generator ``names`` (x1..xn by default)."""
    _require_homogeneous(rule)
    rels = [r for r in relations if r]
    if not rels:
        return ConsistencyReport("same-degree", None, ())
    degs = set()
    for r in rels:
        if not r.is_homogeneous():
            raise ValueError(f"relation {r} is not homogeneous")
        degs.add(r.degree())
    if len(degs) > 1:
        raise ValueError(
            f"relations mix degrees {sorted(degs)}; use the degree-bounded check")
    d = degs.pop()
    if d == 0:
        raise ValueError("constant ideal generators are not supported")
    below = Subspace.zero(rule.n, d - 1, rule.field)
    within = ideal_component(rels, d)
    violations = _closure_violations(rule, d, [_int_row(rule, r) for r in rels], below,
                                     within, names)
    return ConsistencyReport("same-degree", d, tuple(violations))


def check_consistent_ideal(rule: CommRule, generators, max_degree: int, *,
                           names=None) -> ConsistencyReport:
    """Degree-bounded closure check of the two-sided ideal J the generators
    produce: derivatives must drop into the next slice down and image
    entries must stay in their slice, for every degree up to the bound.

    Decided from the generators first: when every generator r of degree
    at most the bound passes the closure check against J_{deg r - 1} and
    J_{deg r}, every slice up to the bound passes (see the module
    docstring), so the report is consistent without enumerating the
    slices.  Otherwise every basis element of J_1..J_S is checked, degree
    by degree, and all violations are listed in that order.  Violations
    name the elements with the generator ``names`` (x1..xn by default).
    """
    _require_homogeneous(rule)
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    gens = [g for g in generators if g]
    if not gens:
        return ConsistencyReport("degree-bounded", max_degree, ())
    gens, n, field = _ideal_generators(gens, rule.n, rule.field)
    slices = [Subspace.zero(n, 0, field)]
    own = [r for r in gens if r.degree() <= max_degree]
    _extend_slices(slices, gens, max((r.degree() for r in own), default=0))
    if not any(_closure_violations(rule, d, [_int_row(rule, r)], *slices[d - 1:d + 1], names)
               for r in own for d in (r.degree(),)):
        return ConsistencyReport("degree-bounded", max_degree, ())
    _extend_slices(slices, gens, max_degree)
    return ConsistencyReport("degree-bounded", max_degree,
                             tuple(_listed_violations(rule, slices, names)))


def _listed_violations(rule: CommRule, slices, names=None) -> list:
    """The closure failures of every basis element of J_1..J_S, for the
    slices J_0..J_S, in ``_closure_violations``' order.  One test decides
    for every degree (see the module docstring): where J_S holds at least
    half the n^S words, each degree's elements are checked on the
    residual tables Dbar and Abar of ``_residual_tables``, and otherwise
    each element is walked and no table is built.

    Logs one DEBUG record per degree d on the ``nccalc`` logger: dim J_d,
    the width |free J_d| of Abar's residuals, the words in the table (0
    where the elements are walked) and the failing basis elements.
    """
    import logging
    log = logging.getLogger("nccalc")
    n, top = rule.n, len(slices) - 1
    # J_d's share of the words never falls as d grows (see the module
    # docstring), so J_S decides for every degree
    tables = (_residual_tables(rule, slices) if 2 * slices[top].dim >= n ** top
              else zip(range(1, top + 1), repeat(None)))
    violations = []
    for d, table in tables:
        within = slices[d]
        found = _closure_violations(rule, d, zip(within._int_rows(), repeat(within.den)),
                                    slices[d - 1], within, names, table)
        violations += found
        log.debug("listing degree %d: dim J=%d free=%d table words=%d failing=%d",
                  d, within.dim, len(within.free), len(table[1][0]) if table else 0,
                  len({v.source for v in found}))
        # let the next degree's tables replace these
        del table
    return violations


def _residual_tables(rule: CommRule, slices):
    """Yield ``(d, (Dbar, Abar))`` for d = 1..S, the ``(table, den)``
    pairs of ``_normal_step`` modulo the slices J_{d-1} and J_d of
    J_0..J_S: on all n^d words of each degree d < S, whose rows the next
    degree's steps read, and at S on the support of J_S's basis rows, the
    words the listing reads.  Each degree's tables replace those of the
    degree before."""
    n, top = rule.n, len(slices) - 1
    partials, images = _unit_partials(n), _unit_images(n)
    for d in range(1, top + 1):
        words = (range(n ** d) if d < top
                 else sorted({c for row in slices[d]._int_rows() for c, _ in row}))
        if d > 1:
            partials = _normal_step(rule, slices[d - 1], partials, words, True)
        images = _normal_step(rule, slices[d], images, words, False)
        yield d, (partials, images)


def _combination(row, table, e, p):
    """Whether the (word, int) combination ``row`` of the table's residuals
    at place e is nonzero."""
    acc = {}
    get = acc.get
    for w, c in row:
        for u, x in table[w][e].items():
            acc[u] = get(u, 0) + c * x
    if p is not None:
        return any(x % p for x in acc.values())
    return any(acc.values())


def is_regular(rule: CommRule) -> bool:
    """Two-generator rules only: the degree-2 component is spanned by the
    commutator alone."""
    if rule.n != 2:
        raise ValueError("regularity is defined for two-generator rules")
    dim, holds = _degree_two_verdicts(rule)
    return dim == 1 and holds


def _degree_two_verdicts(rule: CommRule):
    """``(dim I_2, whether x1x2 - x2x1 lies in I_2)`` for a two-generator
    rule, read off the basis truncated at degree 2 without building I_2:
    dim I_2 = n^2 - |N_2|, and the commutator lies in I_2 when its normal
    form is zero."""
    basis = optimal_ideal(rule, 2).basis
    # x1x2 and x2x1 are the words of columns 1 and 2
    return 4 - len(basis.normal[2]), not basis.reduce(2, [(1, 1), (2, -1)])
