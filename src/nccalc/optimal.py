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
step.  By fact 2, L_s is closed under the entries of A, so it lies in
the largest closed subspace of U_s.  The descending rounds
W -> {w in W : every entry of A(w) lies in W}, started at W = U_s, keep
the form W = L_s (+) C_t: the part in L_s always survives, and c in C_t
survives exactly when the entries of A(c) reduce to zero modulo W.  So
the rounds run on C alone: an entry lies in W exactly when its residual
modulo L_s, which lives on the normal words, lies in C_t.  Each round
either certifies closure or drops dim C_t, and I_s = L_s (+) C_t at the
fixpoint.

The construction re-verifies itself as it runs: a round that does not
shrink, or an I_s that misses part of L_s, raises instead of returning
a non-ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import differential, word_partials
from .commrule import CommRule, NonHomogeneousRuleError
from .freealg import NCPoly, all_words, index_word, word_index
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


class _Residuals:
    """Reduction modulo a subspace, in the coordinates of its free columns.

    ``free`` lists the subspace's non-pivot columns (its normal words).
    A polynomial's residual is the vector over ``free`` left after
    subtracting its projection along the echelon basis; it is zero
    exactly when the polynomial lies in the subspace.
    """

    __slots__ = ("n", "degree", "zero", "free", "position", "tails")

    def __init__(self, space: Subspace):
        pivots = set(space.pivots)
        self.n, self.degree, self.zero = space.n, space.degree, space.field.zero
        self.free = [c for c in range(space.ambient_dim) if c not in pivots]
        self.position = {c: t for t, c in enumerate(self.free)}
        # a pivot word equals minus its row's free part, modulo the subspace
        self.tails = {p: [(t, row[c]) for t, c in enumerate(self.free) if row[c]]
                      for row, p in zip(space.rows, space.pivots)}

    def of(self, poly: NCPoly) -> list:
        d, n = self.degree, self.n
        return self.of_entries([(word_index(w, d, n), c)
                                for w, c in poly.terms.items()])

    def of_entries(self, entries) -> list:
        """Residual of the vector with the given (column, value) entries,
        which name each column at most once."""
        vec = [self.zero] * len(self.free)
        position = self.position
        pivots = []
        for col, c in entries:
            t = position.get(col)
            if t is None:
                pivots.append((col, c))
            else:
                vec[t] = c
        for col, c in pivots:
            for t, v in self.tails[col]:
                vec[t] -= c * v
        return vec


def _derivative_kernel(rule: CommRule, prev: _Residuals, s: int, words) -> Subspace:
    """Combinations of the degree-s words at the given columns whose every
    partial derivative reduces to zero modulo ``prev``."""
    n = rule.n
    residuals = []
    for col in words:
        parts = word_partials(rule, index_word(col, s, n))
        residuals.append([x for p in parts for x in prev.of(p)])
    return Subspace.coordinate(n, s, rule.field, words).kernel_of(residuals)


def compute_U(rule: CommRule, s: int, prev: Subspace) -> Subspace:
    """Degree-s polynomials whose every partial derivative lies in prev."""
    _require_homogeneous(rule)
    if s < 2:
        raise ValueError(f"the derivative-preimage step starts at degree 2, got {s}")
    if prev.degree != s - 1 or prev.n != rule.n or prev.field != rule.field:
        raise ValueError(f"previous component must live at degree {s - 1}")
    return _derivative_kernel(rule, _Residuals(prev), s, range(rule.n ** s))


def _closed_complement(rule: CommRule, lower: _Residuals, space: Subspace):
    """Largest C <= ``space`` such that every entry of A(C) lies in
    lower + C, for a subspace ``lower`` closed under those entries and
    a ``space`` spanned inside its free columns.  Returns (C, rounds).
    """
    size = len(lower.free)
    rounds = 0
    # the zero space is closed, and so is one that fills lower's free
    # columns: then lower + C is the whole degree-s component
    while space.dim and space.dim < size:
        # an entry lies in lower + C exactly when its residual modulo
        # lower, supported on lower's free columns, lies in C
        within = _Residuals(space)
        residuals = []
        for b in space.basis_polys():
            res = []
            for row in rule.apply(b).rows:
                for e in row:
                    res += within.of_entries(
                        [(lower.free[t], v) for t, v in enumerate(lower.of(e)) if v])
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
    lower = _Residuals(Subspace.zero(space.n, space.degree, space.field))
    return _closed_complement(rule, lower, space)[0]


def _ideal_slice(prev: Subspace) -> Subspace:
    """L_s = sum_i x^i*prev + prev*x^i, by shifting prev's echelon rows."""
    n, field, m = prev.n, prev.field, prev.ambient_dim
    zero = field.zero
    vectors = []
    for row in prev.rows:
        for a in range(n):
            left = [zero] * (n * m)
            left[a * m:(a + 1) * m] = row      # x^a * w sits at a*n^(s-1) + w
            right = [zero] * (n * m)
            right[a::n] = row                  # w * x^a sits at n*w + a
            vectors += (left, right)
    return Subspace.from_vectors(vectors, n, prev.degree + 1, field)


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
    dim L_s, the number of normal words, dim U_s, the invariant rounds
    and dim I_s.
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
    prev = _Residuals(comps[0])
    for s in range(2, max_degree + 1):
        l_s = _ideal_slice(comps[-1])
        lower = _Residuals(l_s)
        u_c = _derivative_kernel(rule, prev, s, lower.free)
        c_s, rounds = _closed_complement(rule, lower, u_c)
        i_s = l_s + c_s
        reduced = _Residuals(i_s)
        # ideal-slice check: every echelon row of L_s reduces to zero mod I_s
        for p, tail in lower.tails.items():
            row = [(p, field.one)] + [(lower.free[t], v) for t, v in tail]
            if any(reduced.of_entries(row)):
                raise IdealPropertyViolation(
                    f"degree-{s} component is not an ideal slice: it misses "
                    f"part of x^i*I_{s - 1} + I_{s - 1}*x^i")
        log.debug("degree %d: dim L=%d normal words=%d dim U=%d "
                  "invariant rounds=%d dim I=%d", s, l_s.dim,
                  len(lower.free), l_s.dim + u_c.dim, rounds, i_s.dim)
        comps.append(i_s)
        prev = reduced
    return IdealFiltration(rule, comps, max_degree)


def quotient_dims(filtration: IdealFiltration):
    return filtration.quotient_dims()


def ideal_component(generators, d: int, n=None, field=None) -> Subspace:
    """Degree-d slice of the two-sided ideal the generators produce:
    the span of u*g*v over basis words u, v with matching total degree."""
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
    vectors = []
    for g in gens:
        dg = g.degree()
        if dg == 0:
            raise ValueError("constant ideal generators are not supported")
        width = d - dg
        for a in range(width + 1):
            for u in all_words(a, n):
                for v in all_words(width - a, n):
                    p = NCPoly(n, field,
                               {u + w + v: c for w, c in g.terms.items()})
                    vectors.append(p.coords(d))
    return Subspace.from_vectors(vectors, n, d, field)


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


def _closure_violations(rule: CommRule, d: int, elements, below: _Residuals,
                        within: _Residuals) -> list:
    """Closure failures of degree-d elements: every derivative must reduce
    to zero modulo ``below`` (the slice one degree down) and every image
    entry modulo ``within`` (the degree-d slice)."""
    violations = []
    for b in elements:
        label = str(b)
        for k, p in enumerate(differential(rule, b).components, 1):
            if p and any(below.of(p)):
                violations.append(Violation(d, label, "partial", k))
        for k, row in enumerate(rule.apply(b).rows, 1):
            for i, e in enumerate(row, 1):
                if e and any(within.of(e)):
                    violations.append(Violation(d, label, "entry", k, i))
    return violations


def check_same_degree_consistency(rule: CommRule, relations) -> ConsistencyReport:
    """Closure check for relations sharing one degree: every derivative of
    every relation must vanish identically, and every image entry of a
    relation must stay in the relations' span."""
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
    below = _Residuals(Subspace.zero(rule.n, d - 1, rule.field))
    within = _Residuals(ideal_component(rels, d))
    violations = _closure_violations(rule, d, rels, below, within)
    return ConsistencyReport("same-degree", d, tuple(violations))


def check_consistent_ideal(rule: CommRule, generators, max_degree: int) -> ConsistencyReport:
    """Degree-bounded closure check of the two-sided ideal the generators
    produce: derivatives must drop into the next slice down and image
    entries must stay in their slice, for every degree up to the bound."""
    _require_homogeneous(rule)
    gens = [g for g in generators if g]
    if not gens:
        return ConsistencyReport("degree-bounded", max_degree, ())
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    n, field = rule.n, rule.field
    violations = []
    below = _Residuals(Subspace.zero(n, 0, field))
    for d in range(1, max_degree + 1):
        slice_d = ideal_component(gens, d, n, field)
        within = _Residuals(slice_d)
        violations += _closure_violations(rule, d, slice_d.basis_polys(), below, within)
        below = within
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
