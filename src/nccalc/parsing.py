"""Expression front end for polynomials.

Grammar (whitespace insignificant, products noncommutative and
left-associative):

    expr     := term (("+" | "-") term)*
    term     := ("-")? factor ("*" factor)*
    factor   := atom ("^" uint)?
    atom     := rational | identifier | "(" expr ")"
    rational := int ("/" uint)?

``int`` and ``uint`` are runs of decimal digits, the characters ``int()``
reads; a superscript digit is a syntax error, and so is a run of more
digits than ``int()`` reads (``sys.get_int_max_str_digits()``).
Parentheses nest at most ``MAX_NESTING`` levels deep; deeper input is a
syntax error, not a recursion overflow.  Identifiers resolve to named
scalar parameters first, then to generator names.  Printing back through
freealg.format_poly uses the canonical term order; parse(print(parse(text)))
equals parse(text).

The descent evaluates on plain ints, as the derivative walk
(``commrule._walk``) does, and builds one ``NCPoly`` per parse, at the
end.  Every atom, sum, product and power is a pair ``(terms, den)``: a
dict from words to den times their coefficients over Q, or to their
residues over F_p with den 1, never holding a zero.  A literal a/b is
reduced by gcd(a, b) first, so over F_p only a reduced denominator
divisible by p is refused; a parameter is converted when an atom names
it.  Sums bring both sides to the lcm of their dens, products multiply
the dens and take ``commrule._prepend``'s step on one place, and x^e
multiplies by x e times, as ``NCPoly.__pow__`` does.  The field's
``values`` turns the ints back into field elements once; ``derive`` and
``diff`` take the ints themselves (``_parse_ints``).

A product of a terms by b terms forms at most a*b, and more than
``MAX_TERMS`` is refused before it is formed, with a ValueError that
names the budget: (x1 + x2)^40 would hold 2^40 words.
"""

from __future__ import annotations

from math import gcd, lcm

from .commrule import _prepend
from .fields import QQ
from .freealg import NCPoly


class ExprSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_OPS = set("+-*/^()")

# the most terms one product may form, bounded by |a|*|b| before it is:
# (x1 + x2)^16 is served, and (x1 + x2)^17 refused
MAX_TERMS = 1 << 16

# each level costs the recursive descent four stack frames
MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def _sum(a, da, b, db, sign, p):
    """a + sign*b on (terms, den) pairs, sign 1 or -1.  a's dict is
    updated in place unless its den grows: each pair the descent makes
    holds a dict of its own."""
    den = da
    if da != db:
        den = lcm(da, db)
        if den != da:
            k = den // da
            a = {w: x * k for w, x in a.items()}
        if den != db:
            k = den // db
            b = {w: y * k for w, y in b.items()}
    get = a.get
    for w, y in b.items():
        x = get(w, 0) + sign * y
        if p:
            x %= p
        if x:
            a[w] = x
        else:
            del a[w]
    return a, den


def _product(a, da, b, db, p):
    """a*b on (terms, den) pairs: ``_prepend`` on one place, whose one
    row pairs a's terms with b.  Refused past ``MAX_TERMS``."""
    if len(a) * len(b) > MAX_TERMS:
        raise ValueError(f"expression too large: a product of {len(a)} by {len(b)} terms "
                         f"exceeds the budget of {MAX_TERMS} terms")
    out = {}
    _prepend((((0, a.items()),),), (b,), (out,))
    if p:
        out = {w: r for w, x in out.items() if (r := x % p)}
    elif 0 in out.values():
        out = {w: x for w, x in out.items() if x}
    return out, da * db


class _Parser:
    def __init__(self, tokens, field, var_map, params):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.p = field.p
        self.var_map = var_map
        self.params = params
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops):
        kind, val, _, _ = self.peek()
        return kind == "op" and val in ops

    def fail(self, message, tok=None):
        if tok is None:
            tok = self.peek()
        raise ExprSyntaxError(message, tok[2], tok[3])

    def number(self, tok) -> int:
        # int() refuses more than sys.get_int_max_str_digits() digits
        try:
            return int(tok[1])
        except ValueError:
            self.fail(f"integer of {len(tok[1])} digits is too long", tok)

    def parse(self):
        value = self.expr()
        kind, val, _, _ = self.peek()
        if kind != "eof":
            self.fail(f"unexpected {val!r} after expression")
        return value

    def expr(self):
        terms, den = self.term()
        while self.at_op("+", "-"):
            sign = 1 if self.advance()[1] == "+" else -1
            terms, den = _sum(terms, den, *self.term(), sign, self.p)
        return terms, den

    def term(self):
        negate = False
        if self.at_op("-"):
            self.advance()
            negate = True
        terms, den = self.factor()
        while self.at_op("*"):
            self.advance()
            terms, den = _product(terms, den, *self.factor(), self.p)
        if negate:
            p = self.p
            terms = {w: p - x for w, x in terms.items()} if p else \
                {w: -x for w, x in terms.items()}
        return terms, den

    def factor(self):
        value = self.atom()
        if self.at_op("^"):
            self.advance()
            tok = self.advance()
            if tok[0] != "num":
                self.fail("expected an unsigned integer exponent", tok)
            e = self.number(tok)
            terms, den = {(): 1}, 1
            for _ in range(e):
                terms, den = _product(terms, den, *value, self.p)
            return terms, den
        return value

    def atom(self):
        tok = self.advance()
        kind, val, line, col = tok
        if kind == "num":
            numerator = self.number(tok)
            denominator = 1
            if self.at_op("/"):
                self.advance()
                den_tok = self.advance()
                if den_tok[0] != "num":
                    self.fail("expected an integer denominator", den_tok)
                denominator = self.number(den_tok)
                if denominator == 0:
                    self.fail("division by zero in rational literal", den_tok)
                # the literal's value: 3/6 is 1/2, invertible mod 3
                g = gcd(numerator, denominator)
                numerator, denominator = numerator // g, denominator // g
            p = self.p
            if p:
                if denominator % p == 0:
                    self.fail("denominator is not invertible in this field", tok)
                numerator = numerator * pow(denominator, -1, p) % p
                denominator = 1
            return ({(): numerator} if numerator else {}), denominator
        if kind == "ident":
            if val in self.params:
                field = self.field
                (x,), den = field.ints([field.of(self.params[val])])
                return ({(): x} if x else {}), den
            idx = self.var_map.get(val)
            if idx is None:
                self.fail(f"unknown identifier {val!r}", tok)
            return {(idx,): 1}, 1
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING} levels", tok)
            self.depth += 1
            value = self.expr()
            if not self.at_op(")"):
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return value
        self.fail("expected a number, a name, or a parenthesized expression", tok)


def _parse_ints(text: str, var_names, params=None, field=QQ):
    """The terms of the parsed expression on ints, as ``(terms, den)``:
    a dict from words to den times their coefficients over Q, or to
    their residues over F_p with den 1, never holding a zero.  Takes
    and raises what ``parse_expr`` does."""
    var_names = list(var_names)
    var_map = {name: i + 1 for i, name in enumerate(var_names)}
    if len(var_map) != len(var_names):
        raise ValueError("generator names must be unique")
    tokens = _tokenize(text)
    return _Parser(tokens, field, var_map, dict(params) if params else {}).parse()


def parse_expr(text: str, var_names, params=None, field=QQ) -> NCPoly:
    """Parse an expression over the given generator names.

    ``params`` maps names to scalars and shadows generator names during
    lookup.  Raises ExprSyntaxError with line/column on any malformed
    input, including zero denominators and unknown identifiers, and a
    ValueError for a product past ``MAX_TERMS``.
    """
    var_names = list(var_names)
    terms, den = _parse_ints(text, var_names, params, field)
    poly = NCPoly.__new__(NCPoly)
    poly.n, poly.field = len(var_names), field
    poly.terms = dict(zip(terms, field.values(terms.values(), den)))
    return poly
