"""Command-line front end.

Exit codes: 0 success, 1 usage or parse problems (bad flags, malformed
rule files or expressions, unreadable paths), 2 violated mathematical
preconditions (non-homogeneous rule where homogeneity is required,
singular change of basis, wrong generator count, ...).  Output cut
short by a closed pipe (``nccalc check ... | head -1``) exits 1 with no
traceback: ``entry`` points stdout at the null device, so the flush at
exit cannot fail again, and exits 1 as Python does on EPIPE.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .calculus import differential, partial
from .classify2 import (FAMILY_SLOTS, FamilyParams, commutes_mod_commutative,
                        match_family, necessary_conditions)
from .examples import EXAMPLES, build_example, example_document, example_names
from .freealg import NCPoly, format_poly
from .optimal import IdealPropertyViolation, _degree_two_verdicts, \
    check_consistent_ideal, check_same_degree_consistency, optimal_ideal
from .parsing import ExprSyntaxError, parse_expr
from .rulefile import RuleFileError, load_rule, save_rule


class UsageError(ValueError):
    """Bad argument values: reported like a parse problem (exit 1)."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for mathematical preconditions
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _degree_bound(text: str) -> int:
    """``--max-degree`` values: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"max_degree must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nccalc",
        description="Differential calculi on free algebras: derivatives, "
                    "optimal ideals, consistency checks, classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print one partial derivative")
    p.add_argument("--rule", required=True, help="rule file (JSON)")
    p.add_argument("--var", required=True,
                   help="derivative index (1-based) or generator name")
    p.add_argument("--expr", required=True, help="polynomial expression")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("diff", help="print the differential as a one-form")
    p.add_argument("--rule", required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("ideal",
                       help="optimal-ideal dimensions degree by degree")
    p.add_argument("--rule", required=True)
    p.add_argument("--max-degree", type=_degree_bound, required=True)
    p.add_argument("--basis", action="store_true",
                   help="include echelon bases in the report")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("check", help="consistency of a presented algebra")
    p.add_argument("--rule", required=True)
    p.add_argument("--relations", required=True,
                   help="text file, one relation expression per line")
    p.add_argument("--max-degree", type=_degree_bound, default=None,
                   help="force the degree-bounded check up to this degree")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify2",
                       help="two-generator classification report")
    p.add_argument("--rule", required=True)
    p.set_defaults(func=cmd_classify2)

    p = sub.add_parser("change-basis", help="rewrite the rule in new generators")
    p.add_argument("--rule", required=True)
    p.add_argument("--matrix", required=True,
                   help='scalar rows like "1,1;0,1"')
    p.add_argument("--out", required=True, help="output rule file")
    p.set_defaults(func=cmd_change_basis)

    p = sub.add_parser("examples", help="built-in example corpus")
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("list").set_defaults(func=cmd_examples_list)
    q = actions.add_parser("show")
    q.add_argument("name", choices=example_names())
    q.set_defaults(func=cmd_examples_show)
    q = actions.add_parser("run")
    q.add_argument("name", choices=example_names())
    q.add_argument("--max-degree", type=_degree_bound, default=6)
    q.add_argument("--basis", action="store_true")
    q.add_argument("--json", action="store_true", dest="as_json")
    q.set_defaults(func=cmd_examples_run)

    return parser


def _resolve_var(selector: str, var_names) -> int:
    if selector.isdecimal():
        try:
            k = int(selector)
        except ValueError:
            raise UsageError(f"--var index of {len(selector)} digits is too long") from None
    else:
        try:
            k = var_names.index(selector) + 1
        except ValueError:
            raise UsageError(
                f"--var {selector!r} is neither an index nor a generator "
                f"name (have {', '.join(var_names)})") from None
    if not 1 <= k <= len(var_names):
        raise UsageError(f"--var {k} out of range 1..{len(var_names)}")
    return k


def cmd_derive(args) -> int:
    doc = load_rule(args.rule)
    k = _resolve_var(args.var, list(doc.var_names))
    f = parse_expr(args.expr, doc.var_names, doc.params, doc.rule.field)
    print(format_poly(partial(doc.rule, k, f), doc.var_names))
    return 0


def cmd_diff(args) -> int:
    doc = load_rule(args.rule)
    f = parse_expr(args.expr, doc.var_names, doc.params, doc.rule.field)
    form = differential(doc.rule, f)
    for name, comp in zip(doc.var_names, form.components):
        print(f"d{name}: {format_poly(comp, doc.var_names)}")
    return 0


def _ideal_report(echo, filtration, names, include_basis) -> dict:
    degrees = []
    n = filtration.rule.n
    # the dims come from the normal words; only the bases build components
    for s, quotient in filtration.quotient_dims():
        entry = {"s": s, "dim_ideal": n ** s - quotient, "dim_quotient": quotient}
        if include_basis:
            entry["basis"] = [format_poly(b, names)
                              for b in filtration.component(s).basis_polys()]
        degrees.append(entry)
    return {"rule": echo, "degrees": degrees}


def _emit_ideal_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    for entry in report["degrees"]:
        print(f"degree {entry['s']}: dim_ideal={entry['dim_ideal']} "
              f"dim_quotient={entry['dim_quotient']}")
        for b in entry.get("basis", ()):
            print(f"  {b}")


def cmd_ideal(args) -> int:
    doc = load_rule(args.rule)
    filt = optimal_ideal(doc.rule, args.max_degree)
    report = _ideal_report(doc.source, filt, doc.var_names, args.basis)
    _emit_ideal_report(report, args.as_json)
    return 0


def _load_relations(path, doc):
    try:
        # utf-8-sig: a leading byte-order mark is dropped
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise RuleFileError(f"cannot read relations file: {e}") from None
    rels = []
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            rels.append(parse_expr(text, doc.var_names, doc.params,
                                   doc.rule.field))
        except ExprSyntaxError as e:
            raise RuleFileError(f"relations line {lineno}: {e}") from None
    return rels


def cmd_check(args) -> int:
    doc = load_rule(args.rule)
    rels = _load_relations(args.relations, doc)
    nonzero = [r for r in rels if r]
    same_degree = (args.max_degree is None
                   and all(r.is_homogeneous() for r in nonzero)
                   and len({r.degree() for r in nonzero}) <= 1)
    if same_degree:
        report = check_same_degree_consistency(doc.rule, nonzero,
                                               names=doc.var_names)
    else:
        bound = args.max_degree
        if bound is None:
            bound = max(r.degree() for r in nonzero) + 3
        report = check_consistent_ideal(doc.rule, nonzero, bound,
                                        names=doc.var_names)
    print(f"mode: {report.mode}")
    if report.checked_degree is not None:
        print(f"checked degree: {report.checked_degree}")
    print(f"verdict: {'consistent' if report.verdict else 'inconsistent'}")
    for v in report.violations:
        print(f"  {v.describe()}")
    return 0


def _scalar_text(value, field) -> str:
    return format_poly(NCPoly.constant(2, value, field))


def _params_text(p: FamilyParams, names, field) -> str:
    x1 = NCPoly.gen(2, 1, field)
    x2 = NCPoly.gen(2, 2, field)
    parts = []
    for slot in FAMILY_SLOTS[p.family]:
        val = getattr(p, slot)
        if slot in ("lam", "mu"):
            parts.append(f"{slot}={_scalar_text(val, field)}")
        else:
            form = field.of(val[0]) * x1 + field.of(val[1]) * x2
            parts.append(f"{slot}={format_poly(form, names)}")
    label = p.family + (" swapped" if p.swapped else "")
    text = f"{label}: {', '.join(parts)}"
    if p.unconstrained:
        text += f" [unconstrained: {', '.join(sorted(p.unconstrained))}]"
    return text


def cmd_classify2(args) -> int:
    doc = load_rule(args.rule)
    rule = doc.rule
    if rule.n != 2:
        raise ValueError("classify2 needs a rule on exactly two generators")
    cond = necessary_conditions(rule)
    if cond.ok:
        print("necessary conditions: hold")
    else:
        spots = ", ".join(f"(i={i}, j={j}, k={k})" for i, j, k in cond.violations)
        print(f"necessary conditions: violated at {spots}")
    print("abelianized images commute: "
          + ("yes" if commutes_mod_commutative(rule) else "no"))
    # one basis serves both degree-2 verdicts
    dim, holds = _degree_two_verdicts(rule)
    print("regular: " + ("yes" if dim == 1 and holds else "no"))
    print("commutator in degree-2 ideal: " + ("yes" if holds else "no"))
    matches = match_family(rule)
    if matches:
        print("families:")
        for p in matches:
            print(f"  {_params_text(p, doc.var_names, rule.field)}")
    else:
        print("families: none")
    return 0


def _parse_matrix(text: str, n, field):
    rows = []
    for chunk in text.split(";"):
        row = []
        for cell in chunk.split(","):
            cell = cell.strip()
            try:
                row.append(field.of(Fraction(cell)))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"bad matrix entry {cell!r}") from None
        rows.append(row)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise UsageError(f'--matrix must be {n}x{n}, like "1,0;0,1"')
    return rows


def cmd_change_basis(args) -> int:
    doc = load_rule(args.rule)
    matrix = _parse_matrix(args.matrix, doc.rule.n, doc.rule.field)
    new_rule = doc.rule.change_basis(matrix)
    save_rule(args.out, new_rule, doc.var_names)
    return 0


def cmd_examples_list(args) -> int:
    width = max(len(name) for name in example_names())
    for name in example_names():
        print(f"{name:<{width}}  {EXAMPLES[name].summary}")
    return 0


def cmd_examples_show(args) -> int:
    print(json.dumps(example_document(args.name), indent=2))
    return 0


def cmd_examples_run(args) -> int:
    rule = build_example(args.name)
    filt = optimal_ideal(rule, args.max_degree)
    doc = example_document(args.name)
    report = _ideal_report(doc, filt, tuple(doc["vars"]), args.basis)
    _emit_ideal_report(report, args.as_json)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's parser, built on its first call and reused: parsing leaves no
    # state on it, and argparse reads the terminal width and sys.stdout /
    # sys.stderr only when it prints, so every call behaves as on a new one
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except (UsageError, RuleFileError, ExprSyntaxError) as e:
        print(f"nccalc: error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, IdealPropertyViolation) as e:
        print(f"nccalc: error: {e}", file=sys.stderr)
        return 2


def entry():
    try:
        code = main()
        # flushed here, so a closed pipe is met inside the try
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the signal module's docs: the interpreter flushes
        # stdout again at exit, so that flush must find the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
