"""The benchmark's workloads: seeded job lists and the checks on their output.

A job is one or more CLI invocations run back to back; it fails if any
invocation exits nonzero or raises, or if its check rejects the output.
Checks compare against the paper's closed forms, against answers
computed independently in ``inputs``, or against a second run of the
program on an equivalent input (basis-change invariance); no expected
value is taken from the code under test alone.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field

import inputs as I

WORKLOADS = ("filtration-n2", "free-n3", "calculus-queries")

EXAMPLES = ("ex3.1-diag", "ex3.2-zero", "ex3.3-minus", "ex3.4", "ex3.5",
            "thm4.1-I", "thm4.1-II", "thm4.1-III", "thm4.1-IV")

FILTRATION_DEGREE = 7
FREE_DEGREE = 4
# Rules per free-n3 pass, each run in four forms: one pass of ~30-40 s.
FREE_RULES = 10


def _quantum_plane(s):
    return s + 1


# dim_quotient in degree s, from the paper's worked examples (Section 3)
# and Theorem 4.1 (regular commutative calculi have the polynomial ring
# in two variables as optimal algebra).
CLOSED_FORMS = {
    "ex3.1-diag": _quantum_plane,
    "ex3.2-zero": lambda s: 2 ** s,
    "ex3.3-minus": lambda s: 2 if s == 1 else 0,
    "ex3.4": lambda s: 2 if s == 1 else 1,
    "ex3.5": lambda s: 2,
    "thm4.1-I": _quantum_plane,
    "thm4.1-II": _quantum_plane,
    "thm4.1-III": _quantum_plane,
    "thm4.1-IV": _quantum_plane,
}


class OutputMismatch(Exception):
    """A job's output disagrees with the expected answer."""


@dataclass
class Job:
    name: str
    kind: str
    argvs: list
    check: object            # callable(list of stdout texts) -> None, raises OutputMismatch
    out_file: str | None = None


@dataclass
class Workload:
    jobs: list
    rule_files: list = field(default_factory=list)


# ---- output parsing ----

_DIM_LINE = re.compile(r"degree (\d+): dim_ideal=(\d+) dim_quotient=(\d+)$")


def parse_dims(text, n, max_degree):
    """The (dim_ideal, dim_quotient) list of an ideal report, validated."""
    dims = []
    for line in text.splitlines():
        m = _DIM_LINE.match(line)
        if not m:
            raise OutputMismatch(f"unexpected report line {line!r}")
        s, di, dq = map(int, m.groups())
        if s != len(dims) + 1 or di + dq != n ** s:
            raise OutputMismatch(f"inconsistent report line {line!r}")
        dims.append((di, dq))
    if len(dims) != max_degree:
        raise OutputMismatch(f"report covers {len(dims)} degrees, expected {max_degree}")
    return dims


def _same_poly(text, expected, n, p):
    got = I.parse_poly(text, n)
    if p:
        got, expected = I.reduce_poly(got, p), I.reduce_poly(expected, p)
    if got != expected:
        raise OutputMismatch(f"polynomial {text[:60]!r}... differs from the reference")


# ---- checks ----

def check_closed_form(example, max_degree=FILTRATION_DEGREE):
    def check(outs):
        for s, (_, dq) in enumerate(parse_dims(outs[0], 2, max_degree), 1):
            want = CLOSED_FORMS[example](s)
            if dq != want:
                raise OutputMismatch(f"{example} degree {s}: dim_quotient {dq}, paper says {want}")
    return check


def check_invariance(outs):
    q, q_moved, fp, fp_moved = (parse_dims(o, 3, FREE_DEGREE) for o in outs)
    if q != q_moved:
        raise OutputMismatch(f"dims over Q change with the basis: {q} vs {q_moved}")
    if fp != fp_moved:
        raise OutputMismatch(f"dims over {I.FP_TAG} change with the basis: {fp} vs {fp_moved}")


def check_derive(rule, poly, k, p):
    def check(outs):
        _same_poly(outs[0].rstrip("\n"), I.twisted_partials(rule, poly)[k - 1], len(rule), p)
    return check


def check_diff(rule, poly, p):
    def check(outs):
        lines = outs[0].splitlines()
        ref = I.twisted_partials(rule, poly)
        if len(lines) != len(rule):
            raise OutputMismatch(f"diff printed {len(lines)} lines for n={len(rule)}")
        for k, line in enumerate(lines, 1):
            prefix = f"dx{k}: "
            if not line.startswith(prefix):
                raise OutputMismatch(f"diff line {line!r} lacks {prefix!r}")
            _same_poly(line[len(prefix):], ref[k - 1], len(rule), p)
    return check


def check_lines(*required):
    def check(outs):
        lines = outs[0].splitlines()
        for want in required:
            if want not in lines:
                raise OutputMismatch(f"missing output line {want!r}")
    return check


def check_family(fam, *extra):
    def check(outs):
        check_lines(*extra)(outs)
        labels = {line.strip().split(":")[0] for line in outs[0].splitlines()
                  if line.startswith("  ")}
        if not labels & {fam, f"{fam} swapped"}:
            raise OutputMismatch(f"family {fam} not named, got {sorted(labels)}")
    return check


def check_change_basis(rule, alpha, p):
    expected = I.change_basis(rule, alpha)
    n = len(rule)

    def check(outs):
        doc = json.loads(outs[0])
        if doc.get("n") != n or doc.get("field") != (I.FP_TAG if p else "Q"):
            raise OutputMismatch("change-basis output has the wrong shape or field")
        for j in range(n):
            for k in range(n):
                for i in range(n):
                    want = {(t + 1,): c for t, c in enumerate(expected[j][k][i]) if c}
                    _same_poly(doc["A"][j][k][i], want, n, p)
    return check


def no_check(outs):
    return None


# ---- job lists ----

def _signed_permutation(rng, n=3):
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] if order[i] == j else 0 for j in range(n)] for i in range(n)]


def _free_rule(slot, rng):
    """Slot ``slot``'s rule: a fixed draw made like Tier-1 criterion 9,
    written in seeded, signed and permuted generators.

    A rule's cost and memory hinge on whether its derivative-preimage
    spaces U_s are 0, which small coefficient changes flip and which a
    change of basis preserves.  Redrawing coefficients per seed made one
    rule's cost vary 2.2-6.8 s and peak memory jump between 25 and 38 MB,
    so the seed relabels a fixed rule instead."""
    base = I.draw_rule(random.Random(f"free-n3/rule/{slot}"), 3)
    return I.change_basis(base, _signed_permutation(rng))


def _free_basis(slot, rng):
    """Slot ``slot``'s change of basis: a seeded signed permutation of a
    fixed invertible integer matrix, which sets the size of the moved
    rule's rationals."""
    base = I.draw_invertible(random.Random(f"free-n3/basis/{slot}"), 3)
    return [[sum(p * b for p, b in zip(row, col)) for col in zip(*base)]
            for row in _signed_permutation(rng)]


def filtration_n2(seed, workdir):
    rng = random.Random(f"filtration-n2/{seed}")
    order = list(EXAMPLES)
    rng.shuffle(order)
    jobs = [Job(name, "examples-run",
                [["examples", "run", name, "--max-degree", str(FILTRATION_DEGREE)]],
                check_closed_form(name))
            for name in order]
    return Workload(jobs)


def free_n3(seed, workdir):
    rng = random.Random(f"free-n3/{seed}")
    jobs, files = [], []
    for slot in range(FREE_RULES):
        rule = _free_rule(slot, rng)
        alpha = _free_basis(slot, rng)
        if I.det(alpha) % I.P == 0:
            raise ValueError(f"basis change {alpha} is singular mod {I.P}")
        moved = I.change_basis(rule, alpha)
        argvs = []
        for tag, r, p in (("q", rule, None), ("q-moved", moved, None),
                          ("fp", rule, I.P), ("fp-moved", moved, I.P)):
            path = os.path.join(workdir, f"rule{slot}-{tag}.json")
            I.write_rule(path, r, p)
            files.append(path)
            argvs.append(["ideal", "--rule", path, "--max-degree", str(FREE_DEGREE)])
        jobs.append(Job(f"rule{slot}", "ideal", argvs, check_invariance))
    return Workload(jobs, files)


def _lin_expr(rng, n, degree):
    """(x1 + a*x2 [+ b*x3])^degree with small nonzero seeded coefficients."""
    coeffs = [1] + [rng.choice((-2, -1, 1, 2)) for _ in range(n - 1)]
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*x{t + 1}"
                    for t, c in enumerate(coeffs))
    text = text[2:] if text.startswith("+ ") else text
    return f"({text})^{degree}"


def calculus_queries(seed, workdir):
    rng = random.Random(f"calculus-queries/{seed}")
    files = []

    def rule_file(label, rule, p=None):
        path = os.path.join(workdir, f"{label}.json")
        I.write_rule(path, rule, p)
        files.append(path)
        return path

    thm = {name: (fam, rule, rule_file(name, rule)) for name, (fam, rule) in I.THM41_RULES.items()}
    ex35 = rule_file("ex3.5", I.ex35_rule())
    n3 = [_free_rule(slot, rng) for slot in range(2)]
    n3_files = [rule_file("n3-q", n3[0]), rule_file("n3-fp", n3[1], I.P)]
    scale = rng.choice((1, 2, 3, -1, -5))
    relations = os.path.join(workdir, "commutator.txt")
    with open(relations, "w", encoding="utf-8") as fh:
        fh.write(f"# the commutator, scaled by {scale}\n{scale}*x1*x2 - {scale}*x2*x1\n")

    jobs = []

    def add(name, kind, argv, check, out_file=None):
        jobs.append(Job(name, kind, [argv], check, out_file))

    def derive(name, rule, path, p, degree, diff=False):
        n = len(rule)
        expr = _lin_expr(rng, n, degree)
        poly = I.parse_poly(expr, n)
        if diff:
            add(name, "diff", ["diff", "--rule", path, "--expr", expr], check_diff(rule, poly, p))
        else:
            k = rng.randint(1, n)
            add(name, "derive", ["derive", "--rule", path, "--var", str(k), "--expr", expr],
                check_derive(rule, poly, k, p))

    def thm_rule(name):
        return thm[name][1], thm[name][2]

    # The composition is fixed so that the median job sits inside the
    # cluster of ~0.1 s jobs: ten ~5 ms classify2/change-basis jobs below
    # it, eight jobs of 0.2-0.9 s above it.
    derive("derive-I-8", *thm_rule("thm4.1-I"), None, 8)
    derive("derive-II-8", *thm_rule("thm4.1-II"), None, 8)
    derive("derive-n3q-6", n3[0], n3_files[0], None, 6)
    derive("diff-n3fp-6", n3[1], n3_files[1], I.P, 6, diff=True)
    derive("diff-IV-9", *thm_rule("thm4.1-IV"), None, 9, diff=True)
    derive("derive-I-7", *thm_rule("thm4.1-I"), None, 7)
    derive("derive-II-7", *thm_rule("thm4.1-II"), None, 7)
    derive("diff-III-10", *thm_rule("thm4.1-III"), None, 10, diff=True)
    derive("diff-IV-8", *thm_rule("thm4.1-IV"), None, 8, diff=True)
    derive("derive-n3q-5", n3[0], n3_files[0], None, 5)
    derive("diff-n3q-5", n3[0], n3_files[0], None, 5, diff=True)

    checks = (("thm4.1-I", 6, "consistent"), ("thm4.1-II", 6, "consistent"),
              ("thm4.1-IV", 7, "consistent"), ("thm4.1-III", 7, "consistent"),
              ("thm4.1-IV", 6, "consistent"), ("ex3.5", 7, "inconsistent"))
    for name, degree, verdict in checks:
        path = ex35 if name == "ex3.5" else thm[name][2]
        add(f"check-{name}-{degree}", "check",
            ["check", "--rule", path, "--relations", relations, "--max-degree", str(degree)],
            check_lines(f"verdict: {verdict}"))

    for name, (fam, _, path) in thm.items():
        add(f"classify2-{name}", "classify2", ["classify2", "--rule", path],
            check_family(fam, "regular: yes", "commutator in degree-2 ideal: yes"))
    add("classify2-ex3.5", "classify2", ["classify2", "--rule", ex35],
        check_lines("regular: no", "families: none"))
    for t in range(2):
        fam, rule = I.draw_family_member(rng)
        p = I.P if t % 2 else None
        path = rule_file(f"family{t}", rule, p)
        add(f"classify2-family{t}", "classify2", ["classify2", "--rule", path], check_family(fam))
    path = rule_file("random-n2", I.draw_rule(rng, 2))
    add("classify2-random", "classify2", ["classify2", "--rule", path], no_check)

    for t, (rule, src, p) in enumerate(((n3[0], n3_files[0], None),
                                        (I.draw_rule(rng, 2), None, I.P))):
        if src is None:
            src = rule_file("cb-n2-fp", rule, p)
        alpha = I.draw_invertible(rng, len(rule))
        out = os.path.join(workdir, f"cb{t}-out.json")
        matrix = ";".join(",".join(str(c) for c in row) for row in alpha)
        add(f"change-basis-{t}", "change-basis",
            ["change-basis", "--rule", src, f"--matrix={matrix}", "--out", out],
            check_change_basis(rule, alpha, p), out_file=out)
    return Workload(jobs, files)


BUILDERS = {"filtration-n2": filtration_n2, "free-n3": free_n3,
            "calculus-queries": calculus_queries}


def build(workload, seed, workdir):
    return BUILDERS[workload](seed, workdir)
