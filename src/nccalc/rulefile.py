"""Rule files: the JSON serialization of a commutation rule.

Schema:

    {
      "n": 2,
      "field": "Q",                    // or "Fp:<prime>"; default "Q"
      "vars": ["x1", "x2"],
      "params": {"q": "1/2"},          // optional named rational constants
      "A": [grid for x1, grid for x2]  // grid[k][i] = image entry, row =
    }                                  //   lower index, as matrices print

Every grid cell is an expression string over vars and params.  Scalars
are exact: rational strings like "-3/7", reduced mod p under Fp.

A rule file is four levels deep.  Arrays and objects nested more than
``MAX_NESTING`` levels deep are refused before the JSON decoder reads
them, so the refusal does not depend on the decoder's own recursion
limit, which differs between Python versions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .commrule import CommRule, MatrixPoly
from .fields import field_from_name
from .freealg import NCPoly, default_names, format_poly
from .parsing import ExprSyntaxError, parse_expr


class RuleFileError(ValueError):
    """A rule file that does not satisfy the schema."""


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

MAX_NESTING = 100

# a JSON string literal, whose brackets are text
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'


@dataclass
class RuleDocument:
    """A parsed rule file: the rule plus its presentation details."""
    rule: CommRule
    var_names: tuple
    params: dict
    source: dict  # the JSON document as loaded, echoed into reports


def parse_rule_dict(doc) -> RuleDocument:
    if not isinstance(doc, dict):
        raise RuleFileError("rule file must be a JSON object")
    unknown = set(doc) - {"n", "field", "vars", "params", "A"}
    if unknown:
        raise RuleFileError(f"unknown rule file keys: {sorted(unknown)}")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise RuleFileError('"n" must be a positive integer')
    tag = doc.get("field", "Q")
    try:
        field = field_from_name(tag)
    except ValueError as e:
        raise RuleFileError(f'bad "field": {e}') from None
    var_names = doc.get("vars")
    if (not isinstance(var_names, list) or len(var_names) != n
            or not all(isinstance(v, str) for v in var_names)):
        raise RuleFileError(f'"vars" must list {n} generator names')
    for v in var_names:
        if not _IDENT.fullmatch(v):
            raise RuleFileError(f"generator name {v!r} is not an identifier")
    if len(set(var_names)) != n:
        raise RuleFileError("generator names must be unique")
    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        raise RuleFileError('"params" must be an object')
    params = {}
    for name, value in raw_params.items():
        if not _IDENT.fullmatch(name):
            raise RuleFileError(f"parameter name {name!r} is not an identifier")
        if name in var_names:
            raise RuleFileError(
                f"parameter {name!r} shadows a generator name")
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise RuleFileError(
                f"parameter {name!r} must be a rational string or integer")
        try:
            rat = Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            raise RuleFileError(
                f"parameter {name!r} has a bad rational value {value!r}") from None
        try:
            params[name] = field.of(rat)
        except ZeroDivisionError:
            raise RuleFileError(
                f"parameter {name!r}: denominator is not invertible "
                f"in {tag}") from None
    grids = doc.get("A")
    if not isinstance(grids, list) or len(grids) != n:
        raise RuleFileError(f'"A" must list {n} matrices')
    images = []
    for j, grid in enumerate(grids, 1):
        if not isinstance(grid, list) or len(grid) != n:
            raise RuleFileError(f"A[{j}] must be an {n}x{n} grid")
        rows = []
        for k, row in enumerate(grid, 1):
            if not isinstance(row, list) or len(row) != n:
                raise RuleFileError(f"A[{j}] row {k} must have {n} cells")
            cells = []
            for i, cell in enumerate(row, 1):
                if isinstance(cell, int) and not isinstance(cell, bool):
                    cell = str(cell)
                if not isinstance(cell, str):
                    raise RuleFileError(
                        f"A[{j}][{k}][{i}] must be an expression string")
                try:
                    cells.append(parse_expr(cell, var_names, params, field))
                except ExprSyntaxError as e:
                    raise RuleFileError(f"A[{j}][{k}][{i}]: {e}") from None
            rows.append(cells)
        images.append(MatrixPoly(rows))
    return RuleDocument(rule=CommRule(images), var_names=tuple(var_names),
                        params=params, source=doc)


def _too_deep(text):
    """Whether arrays and objects nest more than MAX_NESTING levels deep in
    the JSON text (brackets inside strings do not count)."""
    # the depth cannot exceed the number of opening brackets, and a rule
    # file has a few dozen: the patterns are compiled only past that
    if text.count("[") + text.count("{") <= MAX_NESTING:
        return False
    depth = 0
    for bracket in re.findall(r"[][{}]", re.sub(_STRING, "", text)):
        if bracket in "[{":
            depth += 1
            if depth > MAX_NESTING:
                return True
        else:
            depth -= 1
    return False


def load_rule(path) -> RuleDocument:
    try:
        # utf-8-sig: a leading byte-order mark is dropped, as RFC 8259 allows
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise RuleFileError(f"cannot read rule file: {e}") from None
    if _too_deep(text):
        raise RuleFileError("rule file is nested too deeply")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise RuleFileError(f"rule file is not valid JSON: {e}") from None
    except ValueError as e:
        # a JSON number longer than int() reads
        raise RuleFileError(f"rule file holds a number that cannot be read: {e}") from None
    return parse_rule_dict(doc)


def rule_to_dict(rule: CommRule, var_names=None, params=None) -> dict:
    """Serialize with canonically printed entries; inverse of parse up to
    expression formatting."""
    names = tuple(var_names) if var_names else default_names(rule.n)
    if len(names) != rule.n:
        raise ValueError(f"expected {rule.n} generator names")
    doc = {"n": rule.n, "field": rule.field.name, "vars": list(names)}
    if params:
        doc["params"] = {k: str(v) for k, v in params.items()}
    doc["A"] = [[[format_poly(e, names) for e in row] for row in m.rows]
                for m in rule.images]
    return doc


def save_rule(path, rule: CommRule, var_names=None, params=None):
    doc = rule_to_dict(rule, var_names, params)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as e:
        raise RuleFileError(f"cannot write rule file: {e}") from None
