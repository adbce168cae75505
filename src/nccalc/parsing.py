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
scalar parameters first, then to generator names.  Printing back through freealg.format_poly uses the canonical
term order; parse(print(parse(text))) equals parse(text).
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ
from .freealg import NCPoly


class ExprSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_OPS = set("+-*/^()")

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


class _Parser:
    def __init__(self, tokens, n, field, var_map, params):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.field = field
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

    def parse(self) -> NCPoly:
        value = self.expr()
        kind, val, _, _ = self.peek()
        if kind != "eof":
            self.fail(f"unexpected {val!r} after expression")
        return value

    def expr(self) -> NCPoly:
        value = self.term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> NCPoly:
        negate = False
        if self.at_op("-"):
            self.advance()
            negate = True
        value = self.factor()
        while self.at_op("*"):
            self.advance()
            value = value * self.factor()
        return -value if negate else value

    def factor(self) -> NCPoly:
        value = self.atom()
        if self.at_op("^"):
            self.advance()
            tok = self.advance()
            if tok[0] != "num":
                self.fail("expected an unsigned integer exponent", tok)
            value = value ** self.number(tok)
        return value

    def atom(self) -> NCPoly:
        tok = self.advance()
        kind, val, line, col = tok
        if kind == "num":
            numerator = self.number(tok)
            if self.at_op("/"):
                self.advance()
                den_tok = self.advance()
                if den_tok[0] != "num":
                    self.fail("expected an integer denominator", den_tok)
                denominator = self.number(den_tok)
                if denominator == 0:
                    self.fail("division by zero in rational literal", den_tok)
                value = Fraction(numerator, denominator)
            else:
                value = Fraction(numerator)
            try:
                scalar = self.field.of(value)
            except ZeroDivisionError:
                self.fail("denominator is not invertible in this field", tok)
            return NCPoly.constant(self.n, scalar, self.field)
        if kind == "ident":
            if val in self.params:
                return NCPoly.constant(self.n, self.params[val], self.field)
            idx = self.var_map.get(val)
            if idx is None:
                self.fail(f"unknown identifier {val!r}", tok)
            return NCPoly.gen(self.n, idx, self.field)
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


def parse_expr(text: str, var_names, params=None, field=QQ) -> NCPoly:
    """Parse an expression over the given generator names.

    ``params`` maps names to scalars and shadows generator names during
    lookup.  Raises ExprSyntaxError with line/column on any malformed
    input, including zero denominators and unknown identifiers.
    """
    var_names = list(var_names)
    var_map = {name: i + 1 for i, name in enumerate(var_names)}
    if len(var_map) != len(var_names):
        raise ValueError("generator names must be unique")
    tokens = _tokenize(text)
    parser = _Parser(tokens, len(var_names), field, var_map,
                     dict(params) if params else {})
    return parser.parse()
