"""Derivatives on the free algebra induced by a commutation rule.

The partial derivatives are the unique linear maps with D_k(1) = 0,
D_k(x^i) = delta^i_k, and the twisted product rule

    D_k(x^a * w) = delta^a_k * w + sum_j A(x^a)^j_k * D_j(w)

where the left factor acts through the rule's matrix images, not by
plain multiplication.  The rule is applied in two ways, which share one
step: prepending x^a to the n derivatives of w.

* A whole polynomial f splits by first letter as f = c + sum_a x^a*f_a,
  so D(f) = sum_a (e_a*f_a + A(x^a)^T D(f_a)).  ``_partials`` evaluates
  that over the prefix trie of f's words, deepest level first, in a
  loop, and yields all n derivatives in one pass: O(d*n^(d+2)) work for
  a dense degree-d polynomial instead of Theta(n^(2d)) word by word, and
  no Python recursion per letter, so long words are fine.
* ``word_partials`` memoizes the derivatives of single words per suffix
  on the rule instance: the filtration asks for the same normal words
  degree after degree.
"""

from __future__ import annotations

from .commrule import CommRule
from .freealg import NCPoly


def _prepend(images, a, sub, acc):
    """Add sum_j A(x^a)^j_k * sub[j] into acc[k] for every k.

    ``sub`` and ``acc`` are lists of n term dicts without zero values;
    ``acc`` is updated in place and stays free of zeros.
    """
    for row, out in zip(images[a - 1].rows, acc):
        get = out.get
        for e, d in zip(row, sub):
            if not d:
                continue
            for v, x in e.terms.items():
                for u, c in d.items():
                    key = v + u
                    s = get(key)
                    if s is None:
                        out[key] = x * c
                    else:
                        s = s + x * c
                        if s:
                            out[key] = s
                        else:
                            del out[key]


def word_partials(rule: CommRule, w) -> tuple:
    """All n partial derivatives of a single word, as a tuple indexed by k-1.

    Memoized per suffix on the rule: the table is filled from the longest
    cached suffix of w, one letter at a time, in a loop.
    """
    cache = rule._word_partials
    n, field = rule.n, rule.field
    start = 0
    got = cache.get(w)
    while got is None and start < len(w):
        start += 1
        got = cache.get(w[start:])
    if got is None:
        got = cache[()] = (NCPoly.zero(n, field),) * n
    for i in range(start - 1, -1, -1):
        a = w[i]
        acc = [{} for _ in range(n)]
        acc[a - 1][w[i + 1:]] = field.one
        _prepend(rule.images, a, [p.terms for p in got], acc)
        got = cache[w[i:]] = tuple(NCPoly(n, field, t) for t in acc)
    return got


def _partials(rule: CommRule, f: NCPoly) -> list:
    """All n partial derivatives of f as term dicts, indexed by k-1.

    The node of a prefix p stands for f_p = sum c_w * u over the words
    w = p*u of f.  Level L holds D(f_p) for the prefixes of length L;
    each is built from its children's by the first-letter rule.
    """
    if f.n != rule.n:
        raise ValueError(f"polynomial has {f.n} generators, rule has {rule.n}")
    if f.field != rule.field:
        raise ValueError("polynomial and rule coefficient fields differ")
    n, images, terms = rule.n, rule.images, f.terms
    level = {}
    for depth in range(max(map(len, terms), default=0) - 1, -1, -1):
        nodes = {}
        for w, c in terms.items():
            if len(w) > depth:
                p = w[:depth]
                acc = nodes.get(p)
                if acc is None:
                    acc = nodes[p] = [{} for _ in range(n)]
                # delta part: the suffixes after p*x^a are distinct keys
                acc[w[depth] - 1][w[depth + 1:]] = c
        for q, sub in level.items():
            _prepend(images, q[depth], sub, nodes[q[:depth]])
        level = nodes
    return level.get((), [{}] * n)


def partial(rule: CommRule, k: int, f: NCPoly) -> NCPoly:
    """The k-th partial derivative of f under the rule."""
    if not 1 <= k <= rule.n:
        raise ValueError(f"derivative index {k} out of range 1..{rule.n}")
    return NCPoly(rule.n, rule.field, _partials(rule, f)[k - 1])


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
    return OneForm(NCPoly(rule.n, rule.field, t) for t in _partials(rule, f))


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
    for c, d in zip(y.components, _partials(rule, u)):
        if c and d:
            acc = acc + c * NCPoly(rule.n, rule.field, d)
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
