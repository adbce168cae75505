"""Derivatives on the free algebra induced by a commutation rule.

The partial derivatives are the unique linear maps with D_k(1) = 0,
D_k(x^i) = delta^i_k, and the twisted product rule

    D_k(x^a * w) = delta^a_k * w + sum_j A(x^a)^j_k * D_j(w)

where the left factor acts through the rule's matrix images, not by
plain multiplication.  The recursion anchors at the leftmost letter and
memoizes per suffix word on the rule instance, which keeps repeated
derivative evaluation linear in word length.
"""

from __future__ import annotations

from .commrule import CommRule
from .freealg import NCPoly


def word_partials(rule: CommRule, w) -> tuple:
    """All n partial derivatives of a single word, as a tuple indexed by k-1."""
    cache = rule._word_partials
    got = cache.get(w)
    if got is not None:
        return got
    n, field = rule.n, rule.field
    if not w:
        result = (NCPoly.zero(n, field),) * n
    else:
        a, rest = w[0], w[1:]
        rest_poly = NCPoly.from_word(n, rest, field)
        sub = word_partials(rule, rest)
        img = rule.images[a - 1].rows
        result = []
        for k in range(n):
            acc = rest_poly if a == k + 1 else NCPoly.zero(n, field)
            for j in range(n):
                e = img[k][j]
                d = sub[j]
                if e and d:
                    acc = acc + e * d
            result.append(acc)
        result = tuple(result)
    cache[w] = result
    return result


def partial(rule: CommRule, k: int, f: NCPoly) -> NCPoly:
    """The k-th partial derivative of f under the rule."""
    if not 1 <= k <= rule.n:
        raise ValueError(f"derivative index {k} out of range 1..{rule.n}")
    if f.n != rule.n:
        raise ValueError(f"polynomial has {f.n} generators, rule has {rule.n}")
    if f.field != rule.field:
        raise ValueError("polynomial and rule coefficient fields differ")
    acc = NCPoly.zero(rule.n, rule.field)
    for w, c in f.terms.items():
        d = word_partials(rule, w)[k - 1]
        if d:
            acc = acc + c * d
    return acc


class _Components:
    """n polynomials over one algebra: the shared body of OneForm and
    VectorField.  Values of different subclasses never compare equal and
    never add."""

    __slots__ = ("n", "field", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError(f"a {self._noun} needs at least one component")
        first = components[0]
        for c in components:
            if not isinstance(c, NCPoly) or c.n != first.n or c.field != first.field:
                raise ValueError(f"{self._noun} components disagree on algebra")
        if first.n != len(components):
            raise ValueError(
                f"expected {first.n} components, got {len(components)}")
        self.n = first.n
        self.field = first.field
        self.components = components

    @classmethod
    def zero(cls, n, field):
        return cls((NCPoly.zero(n, field),) * n)

    @classmethod
    def basis(cls, n, k, field):
        """The k-th basis element: dx^k for forms, D_k for fields."""
        return cls(tuple(NCPoly.one(n, field) if i == k - 1 else
                         NCPoly.zero(n, field) for i in range(n)))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(a + b for a, b in zip(self.components, other.components))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)(a - b for a, b in zip(self.components, other.components))

    def __rmul__(self, c):
        return type(self)(c * a for a in self.components)

    def __bool__(self):
        return any(self.components)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        body = ", ".join(str(c) for c in self.components)
        return f"<{type(self).__name__} ({body})>"


class OneForm(_Components):
    """A form dx^1*w_1 + ... + dx^n*w_n, stored as its component tuple."""

    __slots__ = ()
    _noun = "form"

    def right_mul(self, g: NCPoly) -> "OneForm":
        """The right module action (dx^i*w_i)*g = dx^i*(w_i*g)."""
        return OneForm(a * g for a in self.components)


class VectorField(_Components):
    """A field Y^1*D_1 + ... + Y^n*D_n, stored as its coefficient tuple."""

    __slots__ = ()
    _noun = "vector field"


def differential(rule: CommRule, f: NCPoly) -> OneForm:
    """d f as a one-form: component k is the k-th partial derivative."""
    return OneForm(tuple(partial(rule, k, f) for k in range(1, rule.n + 1)))


def left_mul_form(rule: CommRule, f: NCPoly, omega: OneForm) -> OneForm:
    """Left action of f on a form: (f*omega)_k = sum_i A(f)^i_k * omega_i."""
    if omega.n != rule.n or omega.field != rule.field:
        raise ValueError("form and rule disagree on algebra")
    m = rule.apply(f)
    comps = []
    for k in range(rule.n):
        acc = NCPoly.zero(rule.n, rule.field)
        for i in range(rule.n):
            e = m.rows[k][i]
            o = omega.components[i]
            if e and o:
                acc = acc + e * o
        comps.append(acc)
    return OneForm(tuple(comps))


def vf_apply(rule: CommRule, y: VectorField, u: NCPoly) -> NCPoly:
    """Evaluate the field: Y(u) = sum_i Y^i * D_i(u)."""
    if y.n != rule.n or y.field != rule.field:
        raise ValueError("vector field and rule disagree on algebra")
    acc = NCPoly.zero(rule.n, rule.field)
    for i in range(1, rule.n + 1):
        c = y.components[i - 1]
        if c:
            d = partial(rule, i, u)
            if d:
                acc = acc + c * d
    return acc


def vf_right_action(rule: CommRule, y: VectorField, v: NCPoly) -> VectorField:
    """The right action of the algebra on fields: (Y.v)^k = sum_i Y^i * A(v)^k_i."""
    if y.n != rule.n or y.field != rule.field:
        raise ValueError("vector field and rule disagree on algebra")
    m = rule.apply(v)
    comps = []
    for k in range(rule.n):
        acc = NCPoly.zero(rule.n, rule.field)
        for i in range(rule.n):
            c = y.components[i]
            e = m.rows[i][k]
            if c and e:
                acc = acc + c * e
        comps.append(acc)
    return VectorField(tuple(comps))


def pairing(y: VectorField, omega: OneForm) -> NCPoly:
    """The evaluation pairing sum_i Y^i * omega_i."""
    if y.n != omega.n or y.field != omega.field:
        raise ValueError("vector field and form disagree on algebra")
    acc = NCPoly.zero(y.n, y.field)
    for c, o in zip(y.components, omega.components):
        if c and o:
            acc = acc + c * o
    return acc
