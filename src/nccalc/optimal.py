"""Degree-by-degree construction of the defining ideal of the optimal algebra.

For a homogeneous rule the ideal's degree-s component is built in two
steps: take every degree-s polynomial whose partial derivatives all lie
in the previous component (a preimage computation), then pass to the
largest subspace of that preimage closed under all matrix entries of
the rule's homomorphism (a descending fixpoint).  Degree 1 is always
zero.  The quotient by the resulting ideal is the largest algebra on
which the rule's differential calculus lives.

The construction is re-verified as it runs: the two-sided ideal
property of consecutive components is checked at every degree and a
violation raises instead of returning a non-ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import partial, word_partials
from .commrule import CommRule, NonHomogeneousRuleError
from .freealg import NCPoly, all_words
from .linalg import Subspace, preimage
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


def compute_U(rule: CommRule, s: int, prev: Subspace) -> Subspace:
    """Degree-s polynomials whose every partial derivative lies in prev."""
    _require_homogeneous(rule)
    if s < 2:
        raise ValueError(f"the derivative-preimage step starts at degree 2, got {s}")
    if prev.degree != s - 1 or prev.n != rule.n or prev.field != rule.field:
        raise ValueError(f"previous component must live at degree {s - 1}")
    n, field = rule.n, rule.field
    images = [word_partials(rule, w) for w in all_words(s, n)]
    return preimage(images, (prev,) * n, s, n, field)


def largest_invariant(rule: CommRule, space: Subspace) -> Subspace:
    """Largest subspace of ``space`` closed under all entries of the rule's
    homomorphism.

    Iterates W -> {w in W : every entry of A(w) lies in W}; each round
    either certifies invariance or strictly drops the dimension, so the
    loop terminates within dim(space) + 1 rounds.
    """
    _require_homogeneous(rule)
    w_space = space
    while True:
        if w_space.dim == 0:
            return w_space
        if w_space.dim == w_space.ambient_dim:
            # entries of A on a degree-s element stay in degree s, so the
            # full component is always invariant
            return w_space
        residuals = []
        for b in w_space.basis_polys():
            res = []
            for row in rule.apply(b).rows:
                for e in row:
                    res.extend(w_space.reduce(e.coords(w_space.degree)))
            residuals.append(res)
        if not any(map(any, residuals)):
            return w_space
        smaller = w_space.kernel_of(residuals)
        if smaller.dim >= w_space.dim:
            raise IdealPropertyViolation(
                f"invariant-subspace round did not shrink the degree-"
                f"{w_space.degree} space (dim {w_space.dim} -> {smaller.dim})")
        w_space = smaller


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
    """Build the filtration degree by degree up to max_degree."""
    _require_homogeneous(rule)
    if max_degree < 1:
        raise ValueError(f"max_degree must be at least 1, got {max_degree}")
    n, field = rule.n, rule.field
    comps = [Subspace.zero(n, 1, field)]
    gens = [NCPoly.gen(n, i, field) for i in range(1, n + 1)]
    for s in range(2, max_degree + 1):
        prev = comps[-1]
        u_s = compute_U(rule, s, prev)
        i_s = largest_invariant(rule, u_s)
        for b in prev.basis_polys():
            for g in gens:
                if not i_s.contains(g * b) or not i_s.contains(b * g):
                    raise IdealPropertyViolation(
                        f"degree-{s} component is not an ideal slice: "
                        f"a generator multiple of {b} escapes")
        comps.append(i_s)
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


def _closure_violations(rule: CommRule, d: int, elements, below: Subspace,
                        slice_d: Subspace) -> list:
    """Closure failures of degree-d elements: every derivative must drop
    into ``below`` and every image entry must stay in ``slice_d``."""
    violations = []
    for b in elements:
        label = str(b)
        for k in range(1, rule.n + 1):
            p = partial(rule, k, b)
            if p and not below.contains(p):
                violations.append(Violation(d, label, "partial", k))
        for k, row in enumerate(rule.apply(b).rows, 1):
            for i, e in enumerate(row, 1):
                if e and not slice_d.contains(e):
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
    below = Subspace.zero(rule.n, d - 1, rule.field)
    violations = _closure_violations(rule, d, rels, below, ideal_component(rels, d))
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
    below = Subspace.zero(n, 0, field)
    for d in range(1, max_degree + 1):
        slice_d = ideal_component(gens, d, n, field)
        violations += _closure_violations(rule, d, slice_d.basis_polys(), below, slice_d)
        below = slice_d
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
