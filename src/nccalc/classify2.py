"""Classification machinery for two-generator homogeneous rules whose
optimal algebra is commutative and regular.

Such rules fall, up to swapping the two generators, into four parametric
families built from linear forms u, v, w, v1 and scalars lam, mu.  This
module provides the family constructors, the matcher recognizing which
families a given rule belongs to (possibly several, since the families
overlap on diagonal specializations), the entry-wise necessary
conditions for commutativity, and the direct degree-2 membership test
for the commutator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .commrule import CommRule, MatrixPoly, NonHomogeneousRuleError
from .freealg import NCPoly
from .optimal import _degree_two_verdicts

SWAP = ((0, 1), (1, 0))

FAMILY_SLOTS = {
    "I": ("u", "v", "w", "lam"),
    "II": ("v", "v1", "lam", "mu"),
    "III": ("u", "v"),
    "IV": ("u", "v", "w"),
}
_ALL_SLOTS = ("u", "v", "w", "v1", "lam", "mu")


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of one family member.

    Linear forms are stored as coefficient pairs over (x1, x2); scalars
    as field elements.  ``unconstrained`` names parameters whose value
    the rule does not pin down (reported with the zero default).
    """
    family: str
    swapped: bool = False
    u: tuple | None = None
    v: tuple | None = None
    w: tuple | None = None
    v1: tuple | None = None
    lam: object = None
    mu: object = None
    unconstrained: frozenset = frozenset()


def _require_two_homogeneous(rule: CommRule):
    if rule.n != 2:
        raise ValueError("classification handles two-generator rules only")
    if not rule.homogeneous:
        raise NonHomogeneousRuleError(
            "classification handles homogeneous rules only")


def build_family(params: FamilyParams, field=None) -> CommRule:
    """The rule displayed for the family at these parameters; the
    generator swap, if flagged, is applied last."""
    fam = params.family
    if fam not in FAMILY_SLOTS:
        raise ValueError(f"unknown family tag {params.family!r}")
    need = FAMILY_SLOTS[fam]
    for slot in _ALL_SLOTS:
        val = getattr(params, slot)
        if slot in need and val is None:
            raise ValueError(f"family {fam} needs parameter {slot}")
        if slot not in need and val is not None:
            raise ValueError(f"family {fam} does not use parameter {slot}")
    if field is None:
        from .fields import QQ
        field = QQ
    x1 = NCPoly.gen(2, 1, field)
    x2 = NCPoly.gen(2, 2, field)

    def lf(pair):
        c1, c2 = (field.of(c) for c in pair)
        return c1 * x1 + c2 * x2

    zero = NCPoly.zero(2, field)
    if fam == "I":
        u, v, w = lf(params.u), lf(params.v), lf(params.w)
        lam = field.of(params.lam)
        a1 = [[u, w],
              [v, lam * v + x1]]
        a2 = [[w + x2, lam * w],
              [lam * v, lam * (lam * v) - lam * u + w + lam * x1 + x2]]
    elif fam == "II":
        v, v1 = lf(params.v), lf(params.v1)
        lam, mu = field.of(params.lam), field.of(params.mu)
        a1 = [[x1 + mu * v + v1, lam * v],
              [v, x1 + v1]]
        a2 = [[x2 + lam * v, lam * v1],
              [v1, x2 + lam * v - mu * v1]]
    elif fam == "III":
        u, v = lf(params.u), lf(params.v)
        a1 = [[u, zero], [zero, x1]]
        a2 = [[x2, zero], [zero, v]]
    else:
        u, v, w = lf(params.u), lf(params.v), lf(params.w)
        a1 = [[u, zero], [zero, u]]
        a2 = [[x2, w], [u - x1, v]]
    rule = CommRule([MatrixPoly(a1), MatrixPoly(a2)])
    if params.swapped:
        rule = rule.change_basis(SWAP)
    return rule


def _pair(p: NCPoly):
    field = p.field
    return (p.terms.get((1,), field.zero), p.terms.get((2,), field.zero))


def _ratio(a: NCPoly, b: NCPoly):
    """Scalar c with a = c*b, or None when b = 0 or a is not a multiple."""
    if not b:
        return None
    for w, coeff in b.terms.items():
        c = a.terms.get(w, a.field.zero) / coeff
        break
    return c if a == c * b else None


def _extract(fam: str, rule: CommRule) -> FamilyParams | None:
    """Read off candidate parameters for one family from the designated
    entries.  The candidate is only a guess: callers must verify it by
    rebuilding.  Returns None when a forced proportionality fails."""
    field = rule.field
    e1 = rule.images[0].rows
    e2 = rule.images[1].rows
    x1 = NCPoly.gen(2, 1, field)
    x2 = NCPoly.gen(2, 2, field)
    free = set()

    if fam == "I":
        u, w, v = e1[0][0], e1[0][1], e1[1][0]
        if v:
            lam = _ratio(e1[1][1] - x1, v)
        elif w:
            lam = _ratio(e2[0][1], w)
        elif u != x1:
            lam = _ratio(e2[1][1] - x2, x1 - u)
        else:
            lam, free = field.zero, {"lam"}
        if lam is None:
            return None
        return FamilyParams("I", u=_pair(u), v=_pair(v), w=_pair(w), lam=lam,
                            unconstrained=frozenset(free))

    if fam == "II":
        v = e1[1][0]
        v1 = e1[1][1] - x1
        if v:
            lam = _ratio(e1[0][1], v)
            mu = _ratio(e1[0][0] - x1 - v1, v)
        elif v1:
            lam = _ratio(e2[0][1], v1)
            mu = None if lam is None else _ratio(-(e2[1][1] - x2), v1)
        else:
            lam, mu, free = field.zero, field.zero, {"lam", "mu"}
        if lam is None or mu is None:
            return None
        return FamilyParams("II", v=_pair(v), v1=_pair(v1), lam=lam, mu=mu,
                            unconstrained=frozenset(free))

    if fam == "III":
        return FamilyParams("III", u=_pair(e1[0][0]), v=_pair(e2[1][1]))

    return FamilyParams("IV", u=_pair(e1[0][0]), v=_pair(e2[1][1]),
                        w=_pair(e2[0][1]))


def match_family(rule: CommRule) -> list[FamilyParams]:
    """Every (family, swap) assignment whose rebuild reproduces the rule
    exactly; families first, unswapped before swapped.  An empty list
    means no regular commutative family contains the rule."""
    _require_two_homogeneous(rule)
    swapped_rule = rule.change_basis(SWAP)
    results = []
    for fam in ("I", "II", "III", "IV"):
        for swapped, target in ((False, rule), (True, swapped_rule)):
            # an unswapped candidate read off the target
            candidate = _extract(fam, target)
            if candidate is None:
                continue
            flagged = replace(candidate, swapped=swapped)
            if flagged in results:
                continue
            try:
                rebuilt = build_family(candidate, rule.field)
            except ValueError:
                continue
            # SWAP is an involution: the swapped rebuild equals the rule
            # exactly when the unswapped one equals the swapped rule
            if rebuilt == target:
                results.append(flagged)
    return results


@dataclass(frozen=True)
class ConditionReport:
    """Entry-wise necessary conditions for a commutative optimal algebra.

    Violations hold triples (i, j, k): the condition tied to moving the
    pair (x^i, x^j) past dx at lower index k failed.
    """
    n: int
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def necessary_conditions(rule: CommRule) -> ConditionReport:
    """Check the linear conditions every rule with commutative optimal
    algebra must satisfy: matching cross entries away from the moved
    pair, and the two shifted-diagonal identities per pair."""
    if not rule.homogeneous:
        raise NonHomogeneousRuleError(
            "the necessary conditions apply to homogeneous rules")
    n, field = rule.n, rule.field
    violations = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if k == i or k == j:
                    continue
                if rule.image(i).entry(k, j) != rule.image(j).entry(k, i):
                    violations.append((i, j, k))
            xi = NCPoly.gen(n, i, field)
            xj = NCPoly.gen(n, j, field)
            if rule.image(i).entry(j, j) != xi + rule.image(j).entry(j, i):
                violations.append((i, j, j))
            if rule.image(j).entry(i, i) != xj + rule.image(i).entry(i, j):
                violations.append((j, i, i))
    return ConditionReport(n, tuple(violations))


def _abelianized_terms(p: NCPoly) -> dict:
    acc = {}
    for w, c in p.terms.items():
        key = tuple(sorted(w))
        cur = acc.get(key)
        val = c if cur is None else cur + c
        acc[key] = val
    return {k: v for k, v in acc.items() if v}


def commutes_mod_commutative(rule: CommRule) -> bool:
    """Whether the two generator images commute after abelianizing every
    entry (imposing x1x2 = x2x1)."""
    _require_two_homogeneous(rule)
    diff = rule.images[0] * rule.images[1] - rule.images[1] * rule.images[0]
    return all(not _abelianized_terms(e) for row in diff.rows for e in row)


def commutator_in_I2(rule: CommRule) -> bool:
    """Whether x1x2 - x2x1 lies in the degree-2 component of the optimal
    ideal (equivalently, the optimal algebra is commutative)."""
    _require_two_homogeneous(rule)
    return _degree_two_verdicts(rule)[1]
