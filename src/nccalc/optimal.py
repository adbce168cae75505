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

Take L_s in reduced echelon form.  Its non-pivot columns are the normal
words N_s, and every f of degree s splits uniquely as f = l + c with l
in L_s and c in the span of N_s (c is the residual of f).  By fact 1,
f lies in U_s exactly when c does, so

    U_s = L_s (+) C,   C = {c in span(N_s) : D_k c in I_{s-1} for all k},

which takes the derivatives of the normal words only and one kernel
step.

That derivative system is built on plain ints, keyed by column.
``calculus.column_partials`` holds the n derivatives of each degree-s
word on the columns of degree s-1: residues over F_p, and over Q
L^(s-1) times their true values, with L the lcm of the denominators of
the rule's images.  The tails of I_{s-1} are read once per degree, as
residues over F_p and over Q scaled by D, the lcm of their
denominators.  The int residual of a normal word is then L^(s-1)*D
times its true residual.  Every word of degree s carries the same
factor L^(s-1), so the whole system is the true one times one nonzero
constant (over F_p, congruent to it mod p), and its kernel C does not
change.  Only C's basis, usually empty or tiny, is made of field
elements.

By fact 2, L_s is closed under the entries of A, so it lies in
the largest closed subspace of U_s.  The descending rounds
W -> {w in W : every entry of A(w) lies in W}, started at W = U_s, keep
the form W = L_s (+) C_t: the part in L_s always survives, and c in C_t
survives exactly when the entries of A(c) reduce to zero modulo W.  So
the rounds run on C alone: an entry lies in W exactly when its residual
modulo L_s, which lives on the normal words, lies in C_t.  Each round
either certifies closure or drops dim C_t, and I_s = L_s (+) C_t at the
fixpoint.

L_s itself takes no elimination of dense rows.  Write m = n^(s-1); the
word x^a * w sits at column a*m + w, so the left shifts x^a * I_{s-1}
of I_{s-1}'s echelon rows fill the disjoint column blocks
[a*m, (a+1)*m), in increasing order of a.  Inside its block each
shifted row keeps its pivot and its tail on the shifted free columns,
and it is zero in every other block.  So the left shifts already form
the canonical reduced echelon basis of their span, with pivots a*m + p
and free columns a*m + c for the normal words c of degree s-1.  Only
the right shifts I_{s-1} * x^b are reduced modulo them, onto those
n*|N_{s-1}| free columns, and eliminated there; their new pivots are
then cleared from the left shifts' tails.  Since C lies in L_s's free
columns, I_s = L_s (+) C_t is the same block step with C_t's rows as
the residuals.

The construction re-verifies itself as it runs: a round that does not
shrink, or an I_s that misses part of L_s, raises instead of returning
a non-ideal.

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
violations.

The slices themselves take the step that builds L_s.  A product u*r*v
of degree d with u or v nonempty is x^a or x^b times a product of degree
d - 1, so

    J_d = sum_i (x^i * J_{d-1} + J_{d-1} * x^i) + R_d,    J_0 = 0,

with R_d the span of the generators of degree d.  ``_next_slice`` hands
the generators' entries to the block elimination together with the
right shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .calculus import column_partials, differential
from .commrule import CommRule, NonHomogeneousRuleError
from .fields import PrimeField
from .freealg import NCPoly, format_poly, word_index
from .linalg import Subspace
# perfbench's tracer test reads nccalc.optimal.nullspace, so keep the binding
from .linalg import nullspace  # noqa: F401


class IdealPropertyViolation(RuntimeError):
    """A self-check of the construction failed: the components are not
    ideal slices (x^i*I_{s-1} + I_{s-1}*x^i <= I_s), or an invariant-subspace
    round did not shrink its space."""


def _require_homogeneous(rule: CommRule):
    if not rule.homogeneous:
        raise NonHomogeneousRuleError(
            "the ideal construction needs a homogeneous rule "
            "(every image entry a linear form)")


def _derivative_kernel(rule: CommRule, prev: Subspace, s: int, words) -> Subspace:
    """Combinations of the degree-s words at the given columns whose every
    partial derivative reduces to zero modulo ``prev``.

    The system is built on ints (see the module docstring): the words'
    derivatives come from ``column_partials`` and are reduced against
    prev's tails scaled to ints, so each residual is a fixed multiple of
    the true one.
    """
    n, field = rule.n, rule.field
    position = prev._position
    # prev's tails on ints, keyed by position in prev.free: residues over
    # F_p, over Q den times their values
    if isinstance(field, PrimeField):
        den = 1
        tails = {c: [(position[j], v.val) for j, v in tail]
                 for c, tail in prev.tails.items()}
    else:
        den = lcm(*(v.denominator for tail in prev.tails.values() for _, v in tail))
        tails = {c: [(position[j], v.numerator * (den // v.denominator))
                     for j, v in tail] for c, tail in prev.tails.items()}
    size = len(position)
    residuals = []
    for col in words:
        res = []
        for part in column_partials(rule, s, col):
            vec = [0] * size
            for c, x in part.items():
                t = position.get(c)
                if t is None:
                    # a pivot word equals minus its row's tail, modulo prev
                    for j, v in tails[c]:
                        vec[j] -= x * v
                else:
                    vec[t] += x * den
            res += vec
        residuals.append(res)
    return Subspace.coordinate(n, s, field, words).kernel_of(residuals)


def compute_U(rule: CommRule, s: int, prev: Subspace) -> Subspace:
    """Degree-s polynomials whose every partial derivative lies in prev."""
    _require_homogeneous(rule)
    if s < 2:
        raise ValueError(f"the derivative-preimage step starts at degree 2, got {s}")
    if prev.degree != s - 1 or prev.n != rule.n or prev.field != rule.field:
        raise ValueError(f"previous component must live at degree {s - 1}")
    return _derivative_kernel(rule, prev, s, range(rule.n ** s))


def _closed_complement(rule: CommRule, lower: Subspace, space: Subspace):
    """Largest C <= ``space`` such that every entry of A(C) lies in
    lower + C, for a subspace ``lower`` closed under those entries and
    a ``space`` spanned inside its free columns.  Returns (C, rounds).
    """
    free = lower.free
    size = len(free)
    rounds = 0
    # the zero space is closed, and so is one that fills lower's free
    # columns: then lower + C is the whole degree-s component
    while space.dim and space.dim < size:
        # an entry lies in lower + C exactly when its residual modulo
        # lower, supported on lower's free columns, lies in C
        residuals = []
        for b in space.basis_polys():
            res = []
            for row in rule.apply(b).rows:
                for e in row:
                    res += space.residual_of(
                        [(free[t], v) for t, v in enumerate(lower.residual(e)) if v])
            residuals.append(res)
        rounds += 1
        if not any(map(any, residuals)):
            break
        smaller = space.kernel_of(residuals)
        if smaller.dim >= space.dim:
            base = space.ambient_dim - size
            raise IdealPropertyViolation(
                f"invariant-subspace round did not shrink the degree-"
                f"{space.degree} space (dim {base + space.dim} -> "
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
    return _closed_complement(rule, Subspace.zero(space.n, space.degree, space.field),
                              space)[0]


def _ideal_slice(prev: Subspace, rows=()):
    """L_s = sum_i x^i*prev + prev*x^i, from prev's pivots and tails,
    spanned together with the vectors with the given (column, value)
    entries.

    The left shifts are already a canonical reduced echelon basis (see
    the module docstring), so only the right shifts and ``rows`` are
    eliminated, on the left shifts' free columns.  Returns ``(L_s,
    residuals)``, the number of those vectors whose residual went to
    ``rref``.
    """
    n, field, m = prev.n, prev.field, prev.ambient_dim
    one = field.one
    # x^a * w sits at a*n^(s-1) + w, and w * x^a at n*w + a
    left = Subspace(n, prev.degree + 1, field,
                    {a * m + p: [(a * m + c, v) for c, v in tail]
                     for a in range(n) for p, tail in prev.tails.items()})
    right = [[(n * p + a, one)] + [(n * c + a, v) for c, v in tail]
             for p, tail in prev.tails.items() for a in range(n)]
    return left._extended(right + list(rows))


class IdealFiltration:
    """Components I_1..I_N of the optimal ideal for a homogeneous rule."""

    __slots__ = ("rule", "components", "max_degree")

    def __init__(self, rule, components, max_degree):
        self.rule = rule
        self.components = tuple(components)
        self.max_degree = max_degree

    def component(self, s: int) -> Subspace:
        if not 1 <= s <= self.max_degree:
            raise ValueError(f"degree {s} outside computed range 1..{self.max_degree}")
        return self.components[s - 1]

    def quotient_dims(self):
        """Graded dimensions of the quotient algebra: (s, n^s - dim I_s)."""
        return [(s, self.rule.n ** s - self.components[s - 1].dim)
                for s in range(1, self.max_degree + 1)]

    def __repr__(self):
        dims = ", ".join(str(c.dim) for c in self.components)
        return f"<IdealFiltration dims [{dims}]>"


def optimal_ideal(rule: CommRule, max_degree: int) -> IdealFiltration:
    """Build the filtration degree by degree up to max_degree.

    Logs one DEBUG record per degree s >= 2 on the ``nccalc`` logger:
    how many right-shift residuals went to ``rref`` and their rank,
    dim L_s, the number of normal words |N_s|, the size |N_s| x
    n*|N_{s-1}| of the derivative system of the normal words and its rank
    |N_s| - dim C, dim U_s, the invariant rounds and dim I_s; for
    thm4.1-I at degree 3 that is ``normal words=4 derivative
    system=4x6 rank=4 dim U=4``.
    """
    _require_homogeneous(rule)
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    # imported here: at module level, logging adds about a fifth to the
    # CLI's start-up time
    import logging
    log = logging.getLogger("nccalc")
    n, field = rule.n, rule.field
    comps = [Subspace.zero(n, 1, field)]
    for s in range(2, max_degree + 1):
        l_s, shifted = _ideal_slice(comps[-1])
        u_c = _derivative_kernel(rule, comps[-1], s, l_s.free)
        c_s, rounds = _closed_complement(rule, l_s, u_c)
        i_s = l_s + c_s
        # ideal-slice check: every echelon row of L_s reduces to zero mod I_s
        if not i_s.contains_subspace(l_s):
            raise IdealPropertyViolation(
                f"degree-{s} component is not an ideal slice: it misses "
                f"part of x^i*I_{s - 1} + I_{s - 1}*x^i")
        # the left shifts alone have dim n*dim I_{s-1}; the right shifts'
        # residuals add their rank.  The derivative system has a row per
        # normal word and n coordinates per normal word of degree s-1, and
        # its kernel is C
        log.debug("degree %d: right-shift residuals=%d rank=%d dim L=%d "
                  "normal words=%d derivative system=%dx%d rank=%d dim U=%d "
                  "invariant rounds=%d dim I=%d",
                  s, shifted, l_s.dim - n * comps[-1].dim, l_s.dim, len(l_s.free),
                  len(l_s.free), n * len(comps[-1].free), len(l_s.free) - u_c.dim,
                  l_s.dim + u_c.dim, rounds, i_s.dim)
        comps.append(i_s)
    return IdealFiltration(rule, comps, max_degree)


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
    d, n = prev.degree + 1, prev.n
    return _ideal_slice(prev, [[(word_index(w, d, n), c) for w, c in g.terms.items()]
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


def _closure_violations(rule: CommRule, d: int, elements, below: Subspace,
                        within: Subspace, names=None) -> list:
    """Closure failures of degree-d elements: every derivative must reduce
    to zero modulo ``below`` (the slice one degree down) and every image
    entry modulo ``within`` (the degree-d slice).  Elements are labelled
    with the generator ``names`` (x1..xn by default)."""
    violations = []
    for b in elements:
        label = format_poly(b, names)
        for k, p in enumerate(differential(rule, b).components, 1):
            if p and any(below.residual(p)):
                violations.append(Violation(d, label, "partial", k))
        for k, row in enumerate(rule.apply(b).rows, 1):
            for i, e in enumerate(row, 1):
                if e and any(within.residual(e)):
                    violations.append(Violation(d, label, "entry", k, i))
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
    violations = _closure_violations(rule, d, rels, below,
                                     ideal_component(rels, d), names)
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
    if not any(_closure_violations(rule, d, [r], slices[d - 1], slices[d], names)
               for r in own for d in (r.degree(),)):
        return ConsistencyReport("degree-bounded", max_degree, ())
    _extend_slices(slices, gens, max_degree)
    violations = []
    for d in range(1, max_degree + 1):
        violations += _closure_violations(rule, d, slices[d].basis_polys(),
                                          slices[d - 1], slices[d], names)
    return ConsistencyReport("degree-bounded", max_degree, tuple(violations))


def is_regular(rule: CommRule) -> bool:
    """Two-generator rules only: the degree-2 component is spanned by the
    commutator alone."""
    if rule.n != 2:
        raise ValueError("regularity is defined for two-generator rules")
    return _spanned_by_commutator(optimal_ideal(rule, 2).component(2))


def _holds_commutator(i2: Subspace) -> bool:
    """Whether a degree-2 subspace over two generators holds x1x2 - x2x1."""
    x1 = NCPoly.gen(2, 1, i2.field)
    x2 = NCPoly.gen(2, 2, i2.field)
    return i2.contains(x1 * x2 - x2 * x1)


def _spanned_by_commutator(i2: Subspace) -> bool:
    return i2.dim == 1 and _holds_commutator(i2)
