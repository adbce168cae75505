"""Seeded inputs and independent reference answers for the benchmark.

Everything here is written without importing nccalc, so that a defect in
the code under test cannot hide itself by also producing the expected
answer.  Polynomials are plain dicts from letter tuples to Fractions;
a homogeneous rule is a nested list ``A[j][k][i]`` of linear forms, each
a tuple of n Fractions (the image of generator j+1 at row k+1, column
i+1, the same layout as the rule-file grid).  Prime-field values are
computed over Q and reduced mod p only when written or compared, which
is exact because every denominator involved is a power of a basis
determinant that the generator checks is a unit mod p.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

P = 10007
FP_TAG = f"Fp:{P}"


# ---- scalars and linear forms ----

def mod_p(c: Fraction, p: int = P) -> int:
    return c.numerator * pow(c.denominator, -1, p) % p


def det(m):
    """Exact determinant by fraction-free cofactor expansion (n <= 3 here)."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)))


def inverse(m):
    """Exact inverse of a nonsingular square matrix over Q (adjugate / det)."""
    n, d = len(m), Fraction(det(m))
    if n == 1:
        return [[1 / d]]
    inv = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
            inv[j][i] = (-1) ** (i + j) * det(minor) / d
    return inv


def lf(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def draw_linear_form(rng, n):
    """Sum of one to four generators with nonzero coefficients in [-4, 4]
    (terms may cancel to zero)."""
    acc = [Fraction(0)] * n
    for _ in range(rng.randint(1, 4)):
        c = 0
        while c == 0:
            c = rng.randint(-4, 4)
        acc[rng.randint(1, n) - 1] += c
    return tuple(acc)


def draw_rule(rng, n):
    """Random homogeneous rule: each cell zero with probability 0.45."""
    zero = (Fraction(0),) * n
    return [[[zero if rng.random() < 0.45 else draw_linear_form(rng, n)
              for _ in range(n)] for _ in range(n)] for _ in range(n)]


def draw_invertible(rng, n, p=P):
    """Integer matrix with entries in [-3, 3], invertible over Q and mod p."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        d = det(m)
        if d != 0 and d % p != 0:
            return m


def change_basis(rule, alpha):
    """The rule in new generators z^p = sum_i alpha[p][i] x^i.

    Entry (p, m, i) is sum_{q,l,j} alpha[p][q] beta[l][m] alpha[i][j]
    A[q][l][j] with beta = alpha^-1, and every linear form is rewritten
    in z through x^i = sum_k beta[i][k] z^k.
    """
    n = len(rule)
    beta = inverse(alpha)
    out = []
    for p in range(n):
        grid = []
        for m in range(n):
            row = []
            for i in range(n):
                acc = [Fraction(0)] * n
                for q in range(n):
                    for l in range(n):
                        for j in range(n):
                            c = alpha[p][q] * beta[l][m] * alpha[i][j]
                            if c:
                                for t, e in enumerate(rule[q][l][j]):
                                    acc[t] += c * e
                row.append(tuple(sum(acc[i2] * beta[i2][k] for i2 in range(n))
                                 for k in range(n)))
            grid.append(row)
        out.append(grid)
    return out


def swap_generators(rule):
    """The two-generator rule with x1 and x2 exchanged everywhere."""
    s = (1, 0)
    return [[[tuple(rule[s[j]][s[k]][s[i]][s[t]] for t in range(2))
              for i in range(2)] for k in range(2)] for j in range(2)]


# ---- the paper's named two-generator rules ----

def family_rule(fam, u=None, v=None, w=None, v1=None, lam=0, mu=0):
    """Theorem 4.1 family member; linear forms as coefficient pairs."""
    x1, x2, zero = lf(1, 0), lf(0, 1), lf(0, 0)

    def comb(*pairs):
        return tuple(sum(Fraction(c) * f[t] for c, f in pairs) for t in range(2))

    u, v, w, v1 = (None if f is None else lf(*f) for f in (u, v, w, v1))
    if fam == "I":
        a1 = [[u, w], [v, comb((lam, v), (1, x1))]]
        a2 = [[comb((1, w), (1, x2)), comb((lam, w))],
              [comb((lam, v)), comb((lam * lam, v), (-lam, u), (1, w),
                                    (lam, x1), (1, x2))]]
    elif fam == "II":
        a1 = [[comb((1, x1), (mu, v), (1, v1)), comb((lam, v))],
              [v, comb((1, x1), (1, v1))]]
        a2 = [[comb((1, x2), (lam, v)), comb((lam, v1))],
              [v1, comb((1, x2), (lam, v), (-mu, v1))]]
    elif fam == "III":
        a1 = [[u, zero], [zero, x1]]
        a2 = [[x2, zero], [zero, v]]
    elif fam == "IV":
        a1 = [[u, zero], [zero, u]]
        a2 = [[x2, w], [comb((1, u), (-1, x1)), v]]
    else:
        raise ValueError(f"unknown family {fam!r}")
    return [a1, a2]


def ex35_rule(mu=1, lam=1):
    zero = lf(0, 0)
    return [[[lf(0, mu), lf(0, -1)], [zero, zero]],
            [[zero, zero], [lf(-1, 0), lf(lam, 0)]]]


# The built-in examples at the parameters the CLI freezes them at.
THM41_RULES = {
    "thm4.1-I": ("I", family_rule("I", u=(1, 0), v=(0, 1), w=(1, 0), lam=2)),
    "thm4.1-II": ("II", family_rule("II", v=(1, 0), v1=(0, 1), lam=1, mu=2)),
    "thm4.1-III": ("III", family_rule("III", u=(1, 0), v=(0, 1))),
    "thm4.1-IV": ("IV", family_rule("IV", u=(0, 1), v=(1, 0), w=(1, 0))),
}


def draw_family_member(rng):
    """A Theorem 4.1 family member with small integer parameters, possibly
    with the generators swapped; returns (family, rule)."""
    pair = lambda: (rng.randint(-3, 3), rng.randint(-3, 3))
    fam = rng.choice(("I", "II", "III", "IV"))
    if fam == "I":
        rule = family_rule("I", u=pair(), v=pair(), w=pair(), lam=rng.randint(-3, 3))
    elif fam == "II":
        rule = family_rule("II", v=pair(), v1=pair(), lam=rng.randint(-3, 3),
                           mu=rng.randint(-3, 3))
    elif fam == "III":
        rule = family_rule("III", u=pair(), v=pair())
    else:
        rule = family_rule("IV", u=pair(), v=pair(), w=pair())
    if rng.random() < 0.5:
        rule = swap_generators(rule)
    return fam, rule


# ---- rule files ----

def names(n):
    return [f"x{i}" for i in range(1, n + 1)]


def _scalar_text(c: Fraction, p):
    return str(mod_p(c, p)) if p else str(c)


def form_text(form, p=None):
    """A linear form in the rule-file expression grammar."""
    out = ""
    for t, c in enumerate(form):
        if p:
            c = Fraction(mod_p(c, p))
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        body = f"x{t + 1}" if mag == 1 else f"{_scalar_text(mag, p)}*x{t + 1}"
        out = (f"-{body}" if sign == "-" else body) if not out else f"{out} {sign} {body}"
    return out or "0"


def rule_document(rule, p=None):
    n = len(rule)
    return {"n": n, "field": FP_TAG if p else "Q", "vars": names(n),
            "A": [[[form_text(f, p) for f in row] for row in grid] for grid in rule]}


def write_rule(path, rule, p=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rule_document(rule, p), fh, indent=2)
        fh.write("\n")


# ---- noncommutative polynomials ----

def padd(acc, other, scale=Fraction(1)):
    for w, c in other.items():
        s = acc.get(w, 0) + scale * c
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)
    return acc


def pmul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            padd(out, {w1 + w2: c1 * c2})
    return out


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def parse_poly(text, n):
    """Parse the expression grammar (and the CLI's printed form, which is a
    subset of it) into a dict polynomial over Q."""
    tokens = [m.groups() for m in _TOKEN.finditer(text) if m.group(0).strip()]
    pos = 0
    gens = {name: i + 1 for i, name in enumerate(names(n))}

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, None)

    def take(op):
        nonlocal pos
        if peek()[2] == op:
            pos += 1
            return True
        return False

    def expr():
        acc = padd({}, term())
        while True:
            if take("+"):
                padd(acc, term())
            elif take("-"):
                padd(acc, term(), Fraction(-1))
            else:
                return acc

    def term():
        neg = take("-")
        acc = factor()
        while take("*"):
            acc = pmul(acc, factor())
        return {w: -c for w, c in acc.items()} if neg else acc

    def factor():
        nonlocal pos
        base = atom()
        if take("^"):
            e = int(peek()[0])
            pos += 1
            out = {(): Fraction(1)}
            for _ in range(e):
                out = pmul(out, base)
            return out
        return base

    def atom():
        nonlocal pos
        num, ident, op = peek()
        pos += 1
        if num is not None:
            c = Fraction(int(num))
            if take("/"):
                c /= int(peek()[0])
                pos += 1
            return {(): c} if c else {}
        if ident is not None:
            return {(gens[ident],): Fraction(1)}
        if op == "(":
            inner = expr()
            if not take(")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        raise ValueError(f"unexpected token {op!r} in {text!r}")

    out = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return out


def reduce_poly(poly, p):
    """Image of a rational polynomial in F_p[x], as a dict of ints."""
    out = {}
    for w, c in poly.items():
        r = mod_p(c, p)
        if r:
            out[w] = r
    return out


def _exact(c):
    # integral values as ints: the same numbers, with much cheaper arithmetic
    return int(c) if c.denominator == 1 else c


def twisted_partials(rule, poly):
    """All n partial derivatives of poly by the paper's defining recursion
    D_k(x^a w) = delta_ak w + sum_j A(x^a)[k][j] D_j(w), memoized per word."""
    n = len(rule)
    rule = [[[tuple(_exact(c) for c in f) for f in row] for row in grid] for grid in rule]
    memo = {(): tuple({} for _ in range(n))}

    def word(w):
        got = memo.get(w)
        if got is not None:
            return got
        a, rest = w[0], w[1:]
        sub = word(rest)
        result = []
        for k in range(n):
            acc = {rest: 1} if a == k + 1 else {}
            for j in range(n):
                if not sub[j]:
                    continue
                for t, c in enumerate(rule[a - 1][k][j]):
                    if not c:
                        continue
                    head = (t + 1,)
                    for dw, dc in sub[j].items():
                        key = head + dw
                        v = acc.get(key, 0) + c * dc
                        if v:
                            acc[key] = v
                        else:
                            del acc[key]
            result.append(acc)
        memo[w] = tuple(result)
        return memo[w]

    out = [{} for _ in range(n)]
    for w, c in poly.items():
        for k, d in enumerate(word(w)):
            padd(out[k], d, _exact(c))
    return out
