"""Derivatives on the free algebra induced by a commutation rule.

The partial derivatives are the unique linear maps with D_k(1) = 0,
D_k(x^i) = delta^i_k, and the twisted product rule

    D_k(x^a * w) = delta^a_k * w + sum_j A(x^a)^j_k * D_j(w)

where the left factor acts through the rule's matrix images, not by
plain multiplication.  The derivatives are the column D(f) of the
triangular homomorphism Phi(f) = [[A(f), D(f)], [0, f]] (see
``commrule``), and each is computed by one step: prepending x^a to the
n derivatives of w.

``_partials`` takes the D column of ``commrule._walk``: all n
derivatives of a whole polynomial in one pass over the prefix trie of
its words, O(d*n^(d+2)) work for a dense degree-d polynomial instead of
Theta(n^(2d)) word by word, and no Python recursion per letter, so long
words are fine.  ``word_partials`` is the same walk on a single word.
The walk keys words by their columns (``freealg.word_index``), and
``NCPoly`` is built only here, at the API's boundary: ``_text_partials``
serves ``derive`` and ``diff``, which print the walk's ints through
``freealg.format_columns`` with no polynomial built at all.
"""

from __future__ import annotations

from .commrule import CommRule, _int_terms, _poly, _walk
from .freealg import NCPoly, check_letters, dot, graded_columns, word_index
from .parsing import _parse_ints


def word_partials(rule: CommRule, w) -> tuple:
    """All n partial derivatives of a single word, as a tuple indexed by k-1:
    the walk of the word alone."""
    w = tuple(w)
    check_letters(w, rule.n)
    parts, scale = _walk(rule, {len(w): {word_index(w, len(w), rule.n): 1}}, 1, False, True)
    return tuple(_poly(rule, d, scale) for d in parts)


def _partials(rule: CommRule, f: NCPoly):
    """All n partial derivatives of f on ints, as (parts, D): the column
    D(f) of ``commrule._walk``, parts[k-1] holding as graded columns D
    times its coefficients over Q, or their residues over F_p (D = 1)."""
    return _walk(rule, *_int_terms(rule, f), False, True)


def _text_partials(rule: CommRule, text, var_names, params):
    """All n partial derivatives of the expression ``text``, as
    ``_partials`` gives them: the parser's int terms go to the walk as
    they are, words turned into columns once, with no polynomial built."""
    terms, den = _parse_ints(text, var_names, params, rule.field)
    return _walk(rule, graded_columns(terms, rule.n), den, False, True)


def partial(rule: CommRule, k: int, f: NCPoly) -> NCPoly:
    """The k-th partial derivative of f under the rule."""
    if not 1 <= k <= rule.n:
        raise ValueError(f"derivative index {k} out of range 1..{rule.n}")
    parts, scale = _partials(rule, f)
    return _poly(rule, parts[k - 1], scale)


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
    parts, scale = _partials(rule, f)
    return OneForm(_poly(rule, d, scale) for d in parts)


def left_mul_form(rule: CommRule, f: NCPoly, omega: OneForm) -> OneForm:
    """Left action of f on a form: (f*omega)_k = sum_i A(f)^i_k * omega_i."""
    if omega.n != rule.n or omega.field != rule.field:
        raise ValueError("form and rule disagree on algebra")
    return OneForm(dot(row, omega.components) for row in rule.apply(f).rows)


def vf_apply(rule: CommRule, y: VectorField, u: NCPoly) -> NCPoly:
    """Evaluate the field: Y(u) = <Y, du> = sum_i Y^i * D_i(u)."""
    if y.n != rule.n or y.field != rule.field:
        raise ValueError("vector field and rule disagree on algebra")
    return pairing(y, differential(rule, u))


def vf_right_action(rule: CommRule, y: VectorField, v: NCPoly) -> VectorField:
    """The right action of the algebra on fields: (Y.v)^k = sum_i Y^i * A(v)^k_i."""
    if y.n != rule.n or y.field != rule.field:
        raise ValueError("vector field and rule disagree on algebra")
    return VectorField(dot(y.components, col) for col in zip(*rule.apply(v).rows))


def pairing(y: VectorField, omega: OneForm) -> NCPoly:
    """The evaluation pairing sum_i Y^i * omega_i."""
    if y.n != omega.n or y.field != omega.field:
        raise ValueError("vector field and form disagree on algebra")
    return dot(y.components, omega.components)
