"""Shared random generators and independent oracles.

Oracles here deliberately avoid the code paths they are used to check:
the matrix homomorphism multiplies the letters' images word by word,
the rightmost-letter derivative identity only uses that product (and
gives the dense filtration every word's derivatives), the per-word
derivative sum only uses ``word_partials`` of each word, the
field-element trie pass only uses the coefficients' own arithmetic, the
commutative-evaluation check only uses scalar arithmetic, the grid
intersection enumerates small coefficient combinations directly, the
change of basis sums every alpha*beta*alpha*A term entry by entry, the
Gauss-Jordan elimination mod p clears whole rows of reduced residues,
the dense reduction walks whole echelon rows, the dense sum and ideal slice
eliminate whole echelon rows in one ``rref``, the dense ideal
component eliminates every product u*g*v in one ``rref``, the walked
listing takes A and D of each basis element from the matrix homomorphism
and the field-element trie pass, never from the walk on ints or the
residual tables, the oracle printer sorts and spells every word from its
own letters and field elements, and the block filtration holds
every pivot row of each component and builds L_s by block elimination,
never from a Gröbner basis or its normal forms, and the expression parser
evaluates every atom, sum, product and power through ``NCPoly``'s own
field-element arithmetic, never on ints.
"""

from fractions import Fraction

from nccalc import (
    CommRule,
    FamilyParams,
    MatrixPoly,
    NCPoly,
    QQ,
    Subspace,
    all_words,
    invert_matrix,
    preimage,
    substitute_generators,
    word_partials,
)
from nccalc.fields import FpElement
from nccalc.freealg import default_names, word_key
from nccalc.optimal import (Violation, _derivative_rows, _extend_slices, _ideal_generators,
                            _ideal_slice, _normal_step, _row_residuals, _unit_partials)
from nccalc.parsing import MAX_NESTING, ExprSyntaxError


def rand_fraction(rng, lo=-4, hi=4, nonzero=False):
    while True:
        c = Fraction(rng.randint(lo, hi))
        if not nonzero or c != 0:
            return c


def rand_proper_fraction(rng, field=QQ, lo=-6, hi=6, nonzero=False):
    """A field element drawn as num/den with den in 2..7: never a
    denominator multiple of the field's characteristic."""
    char = field.p
    dens = [d for d in range(2, 8) if not char or d % char]
    while True:
        c = field.of(Fraction(rng.randint(lo, hi), rng.choice(dens)))
        if not nonzero or c != 0:
            return c


def random_fraction_poly(rng, n, max_deg, field=QQ):
    """Mixed-degree polynomial with coefficients of denominators 2..7,
    usually with a constant term, sometimes zero."""
    if rng.random() < 0.1:
        return NCPoly.zero(n, field)
    terms = {}
    if rng.random() < 0.7:
        terms[()] = rand_proper_fraction(rng, field, nonzero=True)
    for _ in range(rng.randint(1, 5)):
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(1, max_deg)))
        terms[w] = rand_proper_fraction(rng, field, nonzero=True)
    return NCPoly(n, field, terms)


def random_fraction_rule(rng, n, field=QQ):
    """Non-homogeneous rule whose image entries have coefficients of
    denominators 2..7, constant terms and terms up to degree 2."""
    images = []
    for _ in range(n):
        rows = [[NCPoly.zero(n, field) if rng.random() < 0.4 else
                 random_fraction_poly(rng, n, 2, field) for _ in range(n)]
                for _ in range(n)]
        images.append(MatrixPoly(rows))
    return CommRule(images)


def rand_scalar(rng, field=QQ, lo=-4, hi=4, nonzero=False):
    while True:
        c = field.of(rng.randint(lo, hi))
        if not nonzero or c != 0:
            return c


def random_poly(rng, n, max_deg, field=QQ, min_deg=0, homogeneous=None):
    """Random polynomial with small integer coefficients."""
    p = NCPoly.zero(n, field)
    for _ in range(rng.randint(1, 4)):
        if homogeneous is None:
            length = rng.randint(min_deg, max_deg)
        else:
            length = homogeneous
        w = tuple(rng.randint(1, n) for _ in range(length))
        p = p + NCPoly.from_word(n, w, field, coeff=rand_scalar(rng, field, nonzero=True))
    return p


def random_homogeneous_rule(rng, n, field=QQ):
    """Rule whose images have homogeneous degree-1 entries (some zero)."""
    images = []
    for _ in range(n):
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                if rng.random() < 0.45:
                    row.append(NCPoly.zero(n, field))
                else:
                    row.append(random_poly(rng, n, 1, field, homogeneous=1))
            rows.append(row)
        images.append(MatrixPoly(rows))
    return CommRule(images)


def random_any_rule(rng, n, field=QQ):
    """Rule with arbitrary low-degree entries, usually non-homogeneous."""
    images = []
    for _ in range(n):
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                if rng.random() < 0.5:
                    row.append(NCPoly.zero(n, field))
                else:
                    row.append(random_poly(rng, n, 2, field))
            rows.append(row)
        images.append(MatrixPoly(rows))
    return CommRule(images)


def random_invertible(rng, n, field=QQ):
    while True:
        a = [[rand_scalar(rng, field, -3, 3) for _ in range(n)] for _ in range(n)]
        if invert_matrix(a, field) is not None:
            return a


def random_q_grid(rng, n, field=QQ):
    """Valid diagonal-rule grid: q[i][j]*q[j][i] = 1 off the diagonal."""
    one = field.of(1)
    q = [[one for _ in range(n)] for _ in range(n)]
    for i in range(n):
        q[i][i] = rand_scalar(rng, field, -4, 4, nonzero=True)
    for i in range(n):
        for j in range(i + 1, n):
            q[i][j] = rand_scalar(rng, field, -4, 4, nonzero=True)
            q[j][i] = one / q[i][j]
    return q


def random_family_params(rng, family, swapped=None):
    """Small-integer parameter draw for a two-generator family."""
    if swapped is None:
        swapped = rng.random() < 0.5
    pair = lambda: (rng.randint(-3, 3), rng.randint(-3, 3))
    if family == "I":
        return FamilyParams("I", swapped=swapped, u=pair(), v=pair(), w=pair(),
                            lam=rng.randint(-3, 3))
    if family == "II":
        return FamilyParams("II", swapped=swapped, v=pair(), v1=pair(),
                            lam=rng.randint(-3, 3), mu=rng.randint(-3, 3))
    if family == "III":
        return FamilyParams("III", swapped=swapped, u=pair(), v=pair())
    if family == "IV":
        return FamilyParams("IV", swapped=swapped, u=pair(), v=pair(), w=pair())
    raise ValueError(family)


def params_match(a, b):
    """Same family, swap state, and filled slots, ignoring unconstrained ones."""
    if a.family != b.family or a.swapped != b.swapped:
        return False
    skip = a.unconstrained | b.unconstrained
    for slot in ("u", "v", "w", "v1", "lam", "mu"):
        if slot in skip:
            continue
        av, bv = getattr(a, slot), getattr(b, slot)
        if av is None or bv is None:
            if av is not bv:
                return False
            continue
        if slot in ("lam", "mu"):
            if Fraction(av) != Fraction(bv):
                return False
        elif tuple(Fraction(t) for t in av) != tuple(Fraction(t) for t in bv):
            return False
    return True


def matrix_apply(rule, f):
    """A(f) as sum_w c_w * A(w), each A(w) the product of its letters'
    images in ``MatrixPoly`` arithmetic: independent of the integer
    first-letter pass behind ``CommRule.apply``."""
    n, field = rule.n, rule.field
    acc = MatrixPoly.zero(n, field)
    for w, c in f.terms.items():
        m = MatrixPoly.identity(n, field)
        for a in w:
            m = m * rule.images[a - 1]
        acc = acc + m.scale(c)
    return acc


def dense_change_basis(rule, alpha):
    """The rule in new generators z^p = sum_i alpha[p][i] x^i, entry by
    entry: (p, m, i) is the sum over q, l, j of alpha[p][q] * beta[l][m] *
    alpha[i][j] * A(x^q)^j_l, beta the inverse matrix, followed by
    substituting x^i = sum_k beta[i][k] z^k.  Independent of the
    factored matrix products behind ``CommRule.change_basis``."""
    n, field = rule.n, rule.field
    alpha = [[field.of(c) for c in row] for row in alpha]
    beta = invert_matrix(alpha, field)
    images = []
    for p in range(n):
        rows = []
        for m in range(n):
            row = []
            for i in range(n):
                acc = NCPoly.zero(n, field)
                for q in range(n):
                    img = rule.images[q].rows
                    for l in range(n):
                        for j in range(n):
                            c = alpha[p][q] * beta[l][m] * alpha[i][j]
                            if c and img[l][j]:
                                acc = acc + c * img[l][j]
                row.append(substitute_generators(acc, beta))
            rows.append(row)
        images.append(MatrixPoly(rows))
    return CommRule(images)


def partial_rightmost(rule, k, f):
    """Derivative via the rightmost-letter identity
    D_k(v*x^i) = D_k(v)*x^i + A(v)^i_k, with A(v) the running product of
    the letters' images in ``MatrixPoly`` arithmetic; independent of the
    leftmost recursion used by the implementation."""
    n, field = rule.n, rule.field
    total = NCPoly.zero(n, field)
    for w, c in f.terms.items():
        d = NCPoly.zero(n, field)
        head = MatrixPoly.identity(n, field)   # A of the letters read so far
        for i in w:
            d = d * NCPoly.gen(n, i, field) + head.entry(k, i)
            head = head * rule.images[i - 1]
        total = total + c * d
    return total


def rightmost_word_partials(rule, max_degree):
    """For s = 1..max_degree, the n derivatives of every word of degree s,
    in ``all_words`` order: each degree from the one below by the
    rightmost-letter identity D_k(v*x^i) = D_k(v)*x^i + A(v)^i_k, with
    A(v) the running product of the letters' images in ``MatrixPoly``
    arithmetic, as in ``partial_rightmost``.  Only the table of the degree
    below is kept, and never the words' images past the last degree."""
    n, field = rule.n, rule.field
    gens = [NCPoly.gen(n, i, field) for i in range(1, n + 1)]
    level = {(): ((NCPoly.zero(n, field),) * n, MatrixPoly.identity(n, field))}
    for s in range(1, max_degree + 1):
        level = {v + (i,): (tuple(d * g + head.entry(k, i) for k, d in enumerate(parts, 1)),
                            head * rule.images[i - 1] if s < max_degree else None)
                 for v, (parts, head) in level.items() for i, g in enumerate(gens, 1)}
        yield [level[w][0] for w in all_words(s, n)]


def field_partials(rule, f):
    """All n derivatives of f by the prefix-trie pass with every
    multiply-add on field elements: an oracle for the integer kernel of
    ``calculus``, with none of its scaling."""
    n, field, terms = rule.n, rule.field, f.terms
    level = {}
    for depth in range(max(map(len, terms), default=0) - 1, -1, -1):
        nodes = {}
        for w, c in terms.items():
            if len(w) > depth:
                acc = nodes.setdefault(w[:depth], [{} for _ in range(n)])
                acc[w[depth] - 1][w[depth + 1:]] = c
        for q, sub in level.items():
            for row, out in zip(rule.images[q[depth] - 1].rows, nodes[q[:depth]]):
                for e, d in zip(row, sub):
                    for v, x in e.terms.items():
                        for u, c in d.items():
                            out[v + u] = out.get(v + u, field.zero) + x * c
        level = nodes
    return [NCPoly(n, field, t) for t in level.get((), [{}] * n)]


def word_table_partials(rule, f):
    """All n derivatives of f as sum_w c_w * word_partials(w): the walk
    once per word, a check of ``word_partials`` on whole polynomials and
    never an oracle for the walk."""
    out = [NCPoly.zero(rule.n, rule.field)] * rule.n
    for w, c in f.terms.items():
        out = [acc + c * d for acc, d in zip(out, word_partials(rule, w))]
    return out


def eval_commutative(p, point):
    """Evaluate at commuting scalar coordinates (the abelianized value)."""
    total = p.field.of(0)
    for w, c in p.terms.items():
        v = c
        for letter in w:
            v = v * point[letter - 1]
        total = total + v
    return total


def commutes_by_grid_evaluation(rule):
    """Check abelianized image commutators by exhaustive grid evaluation.

    Entries have per-variable degree at most 2, so vanishing on the grid
    {0,1,2}^n certifies the abelianization is zero.
    """
    n, field = rule.n, rule.field
    grid = [field.of(t) for t in range(3)]
    points = [[]]
    for _ in range(n):
        points = [pt + [g] for pt in points for g in grid]
    for a in range(n):
        for b in range(a + 1, n):
            comm = rule.images[a] * rule.images[b] - rule.images[b] * rule.images[a]
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    e = comm.entry(k, i)
                    for pt in points:
                        if eval_commutative(e, pt) != field.of(0):
                            return False
    return True


def orbit_stays_inside(rule, start, space):
    """Close start under all image-entry maps; report whether the closure
    stabilizes without leaving the given subspace."""
    n = rule.n
    cur = Subspace.span([start], space.degree, n=n, field=rule.field)
    for _ in range(space.ambient_dim + 1):
        if not space.contains_subspace(cur):
            return False
        fresh = []
        for b in cur.basis_polys():
            m = matrix_apply(rule, b)
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    e = m.entry(k, i)
                    if not cur.contains(e):
                        fresh.append(e)
        if not fresh:
            return True
        cur = Subspace.span(list(cur.basis_polys()) + fresh,
                            space.degree, n=n, field=rule.field)
    return True


def intersect(a, b):
    """Intersection: the combinations of a's basis that b reduces to zero
    (the residual is linear)."""
    a._check(b)
    return a.kernel_of([b._reduce_ints(r) for r in a._int_rows()])


def grid_intersection(sub1, sub2, coeffs=range(-2, 3)):
    """Brute-force intersection: enumerate small combinations of sub1's
    basis and keep those lying in sub2."""
    basis = sub1.basis_polys()
    found = []
    combos = [[]]
    for _ in basis:
        combos = [c + [Fraction(t)] for c in combos for t in coeffs]
    for combo in combos:
        v = NCPoly.zero(sub1.n, sub1.field)
        for c, b in zip(combo, basis):
            v = v + c * b
        if sub2.contains(v):
            found.append(v)
    return Subspace.span(found, sub1.degree, n=sub1.n, field=sub1.field)


def dense_rref_mod(rows, p):
    """Reduced row echelon form mod p by plain Gauss-Jordan elimination
    on lists of ints, every entry reduced after every step.  Returns
    ``(rows, pivots)`` with zero rows dropped, as ``rref`` does."""
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        found = [i for i in range(rank, len(rows)) if rows[i][col]]
        if not found:
            continue
        rows[rank], rows[found[0]] = rows[found[0]], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = rows[rank] = [x * inv % p for x in rows[rank]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != rank and f:
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def dense_reduce(rows, pivots, vec):
    """Reduction of a dense vector modulo the span of echelon ``rows`` by
    the dense walk: subtract vec[p] times each row, in pivot order."""
    vec = list(vec)
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            for j in range(p, len(vec)):
                if row[j]:
                    vec[j] = vec[j] - c * row[j]
    return vec


def dense_sum(a, b):
    """a + b by one ``rref`` of both subspaces' dense echelon rows."""
    return Subspace.from_vectors(a.rows + b.rows, a.n, a.degree, a.field)


def dense_ideal_slice(prev):
    """sum_i x^i*prev + prev*x^i by one ``rref`` of the dense shifts of
    prev's echelon rows."""
    n, m = prev.n, prev.ambient_dim
    vectors = []
    for row in prev.rows:
        for a in range(n):
            left = [prev.field.zero] * (n * m)     # x^a * w sits at a*n^(s-1) + w
            right = list(left)                     # w * x^a sits at n*w + a
            for c, v in enumerate(row):
                left[a * m + c] = right[n * c + a] = v
            vectors += (left, right)
    return Subspace.from_vectors(vectors, n, prev.degree + 1, prev.field)


def dense_ideal_component(generators, d, n, field):
    """Degree-d slice of the ideal the nonzero generators produce, by one
    ``rref`` of every product u*g*v over basis words u, v."""
    vectors = []
    for g in generators:
        if not g:
            continue
        width = d - g.degree()
        for a in range(width + 1):
            for u in all_words(a, n):
                for v in all_words(width - a, n):
                    p = NCPoly(n, field, {u + w + v: c for w, c in g.terms.items()})
                    vectors.append(p.coords(d))
    return Subspace.from_vectors(vectors, n, d, field)


def dense_optimal_ideal(rule, max_degree):
    """Reference filtration built on all n^s words of every degree.

    U_s is the preimage of the previous component under the derivatives
    of every word, from ``rightmost_word_partials``, the invariant rounds
    reduce every entry of A on every basis vector of the full U_s, and
    the ideal-slice property is checked polynomial by polynomial.  Returns
    the components I_1..I_max_degree.
    """
    n, field = rule.n, rule.field
    comps = [Subspace.zero(n, 1, field)]
    gens = [NCPoly.gen(n, i, field) for i in range(1, n + 1)]
    partials = rightmost_word_partials(rule, max_degree)
    next(partials)
    for s in range(2, max_degree + 1):
        prev = comps[-1]
        images = next(partials)
        space = preimage(images, (prev,) * n, s, n, field)
        while 0 < space.dim < space.ambient_dim:
            residuals = []
            for b in space.basis_polys():
                res = []
                for row in matrix_apply(rule, b).rows:
                    for e in row:
                        res.extend(space.reduce(e.coords(s)))
                residuals.append(res)
            if not any(map(any, residuals)):
                break
            smaller = space.kernel_of(residuals)
            if smaller.dim >= space.dim:
                raise AssertionError(f"degree-{s} invariant round did not shrink")
            space = smaller
        for b in prev.basis_polys():
            for g in gens:
                if not space.contains(g * b) or not space.contains(b * g):
                    raise AssertionError(f"degree-{s} component is not an ideal slice")
        comps.append(space)
    return comps


def block_optimal_ideal(rule, max_degree):
    """Reference filtration by block elimination on the free columns of
    L_s, held as every pivot row of each I_s: L_s = sum_i x^i*I_{s-1} +
    I_{s-1}*x^i from ``optimal._ideal_slice``, the derivative system of
    L_s's free columns from ``_normal_step`` modulo I_{s-1}, the invariant
    rounds on Subspaces with every entry of A reduced modulo L_s, and I_s =
    L_s + C by ``Subspace.__add__``.  Every degree takes the table step,
    the free degrees of dense rules too.  Returns the components
    I_1..I_max_degree."""
    n, field = rule.n, rule.field
    comps = [Subspace.zero(n, 1, field)]
    known = _unit_partials(n)
    for s in range(2, max_degree + 1):
        prev, top = comps[-1], n ** s
        l_s = _ideal_slice(prev)[0]
        known = _normal_step(rule, prev, known, l_s.free, True)
        system = _derivative_rows(known[0], l_s.free, n ** (s - 1))
        space = Subspace.coordinate(n, s, field, l_s.free).kernel_of(system)
        while space.dim and space.dim < len(l_s.free):
            residuals = [{e * top + c: x
                          for e, low in enumerate(_row_residuals(rule, row, s, l_s._reduce_ints))
                          for c, x in space._reduce_ints(low.items()).items()}
                         for row in space._int_rows()]
            if not any(residuals):
                break
            smaller = space.kernel_of(residuals)
            if smaller.dim >= space.dim:
                raise AssertionError(f"degree-{s} invariant round did not shrink")
            space = smaller
        i_s = l_s + space
        if not i_s.contains_subspace(l_s):
            raise AssertionError(f"degree-{s} component is not an ideal slice")
        comps.append(i_s)
    return comps


def dense_closure_violations(rule, d, elements, below, slice_d):
    """The closure check of ``optimal`` with derivatives from
    ``field_partials``, entries from ``matrix_apply`` and one dense
    ``Subspace.contains`` per polynomial."""
    out = []
    for b in elements:
        label = oracle_format_poly(b)
        for k, p in enumerate(field_partials(rule, b), 1):
            if p and not below.contains(p):
                out.append(Violation(d, label, "partial", k))
        for k, row in enumerate(matrix_apply(rule, b).rows, 1):
            for i, e in enumerate(row, 1):
                if e and not slice_d.contains(e):
                    out.append(Violation(d, label, "entry", k, i))
    return out


def dense_same_degree_violations(rule, relations):
    """Violations of ``check_same_degree_consistency``, recomputed densely."""
    rels = [r for r in relations if r]
    d = rels[0].degree()
    below = Subspace.zero(rule.n, d - 1, rule.field)
    return tuple(dense_closure_violations(
        rule, d, rels, below, dense_ideal_component(rels, d, rule.n, rule.field)))


def dense_consistent_ideal_violations(rule, generators, max_degree):
    """Violations of ``check_consistent_ideal``, recomputed densely."""
    gens = [g for g in generators if g]
    out = []
    below = Subspace.zero(rule.n, 0, rule.field)
    for d in range(1, max_degree + 1):
        slice_d = dense_ideal_component(gens, d, rule.n, rule.field)
        out += dense_closure_violations(rule, d, slice_d.basis_polys(), below, slice_d)
        below = slice_d
    return tuple(out)


def walk_listing_violations(rule, generators, max_degree, names=None):
    """The violation listing of ``check_consistent_ideal`` with A and D of
    each basis polynomial of J_1..J_S from ``matrix_apply`` and
    ``field_partials``, tested by ``Subspace.contains`` on the slices and
    labelled by ``oracle_format_poly``: no walk on ints, no residual
    table and no int printer."""
    gens, n, field = _ideal_generators(generators, rule.n, rule.field)
    slices = [Subspace.zero(n, 0, field)]
    _extend_slices(slices, gens, max_degree)
    violations = []
    for d in range(1, max_degree + 1):
        below, within = slices[d - 1], slices[d]
        for b in within.basis_polys():
            parts, image = field_partials(rule, b), matrix_apply(rule, b)
            label = oracle_format_poly(b, names)
            violations += [Violation(d, label, "partial", k) for k in range(1, n + 1)
                           if not below.contains(parts[k - 1])]
            violations += [Violation(d, label, "entry", k, i)
                           for k in range(1, n + 1) for i in range(1, n + 1)
                           if not within.contains(image.entry(k, i))]
    return tuple(violations)


def _oracle_scalar_str(c) -> str:
    if isinstance(c, FpElement):
        return str(c.val)
    return str(c)


def _oracle_word_str(w, names) -> str:
    # collapse runs of a repeated letter into powers: (1,1,2) -> x1^2*x2
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        parts.append(names[w[i] - 1] if run == 1 else f"{names[w[i] - 1]}^{run}")
        i = j
    return "*".join(parts)


def oracle_format_poly(p, names=None) -> str:
    """The canonical text of ``format_poly`` from the field elements
    themselves: terms sorted by ``word_key``, each word's runs collapsed
    by its own letter loop, the sign read off a negative ``Fraction``.
    Independent of the int printer ``format_columns``."""
    if not p.terms:
        return "0"
    if names is None:
        names = default_names(p.n)
    pieces = []
    for w in sorted(p.terms, key=word_key):
        c = p.terms[w]
        neg = isinstance(c, Fraction) and c < 0
        mag = -c if neg else c
        if not w:
            body = _oracle_scalar_str(mag)
        elif mag == 1:
            body = _oracle_word_str(w, names)
        else:
            body = f"{_oracle_scalar_str(mag)}*{_oracle_word_str(w, names)}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


def rule_over(rule, field):
    """The same rule with every coefficient mapped into ``field``."""
    n = rule.n
    return CommRule([
        MatrixPoly([[NCPoly(n, field, {w: field.of(c) for w, c in e.terms.items()})
                     for e in row] for row in image.rows])
        for image in rule.images])


# ---- the expression parser on NCPoly arithmetic ----

_ORACLE_OPS = set("+-*/^()")


def _oracle_tokenize(text):
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
        if ch in _ORACLE_OPS:
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


class _NCPolyParser:
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


def ncpoly_parse_expr(text, var_names, params=None, field=QQ):
    """``parse_expr`` with every atom an ``NCPoly`` and every sum, product
    and power ``NCPoly``'s own arithmetic on field elements; its own copy
    of the tokenizer, the same grammar and the same syntax errors."""
    var_names = list(var_names)
    var_map = {name: i + 1 for i, name in enumerate(var_names)}
    if len(var_map) != len(var_names):
        raise ValueError("generator names must be unique")
    tokens = _oracle_tokenize(text)
    parser = _NCPolyParser(tokens, len(var_names), field, var_map,
                           dict(params) if params else {})
    return parser.parse()
