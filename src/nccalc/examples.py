"""Built-in example corpus for the CLI.

Each entry freezes one rule at fixed default parameters, chosen so the
corpus exercises distinct regimes: free quotient, smallest quotient,
quantum-plane growth, nilpotent generators, split polynomial quotient,
and the four regular commutative families.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify2 import FamilyParams, build_family
from .commrule import CommRule, builtin
from .fields import QQ


@dataclass(frozen=True)
class Example:
    name: str
    summary: str
    build: object  # field -> CommRule


_HALF = Fraction(1, 2)


def _catalog():
    return (
        Example(
            "ex3.1-diag",
            "diagonal q-deformation, generic q (quantum-plane quotient)",
            lambda field: builtin("ex3.1-diag", field,
                                  q=[[3, 2], [_HALF, 3]]),
        ),
        Example(
            "ex3.2-zero",
            "zero rule: differentials absorb everything, quotient stays free",
            lambda field: builtin("ex3.2-zero", field, n=2),
        ),
        Example(
            "ex3.3-minus",
            "sign-flip rule: every degree-2 word dies, quotient is scalars+span",
            lambda field: builtin("ex3.3-minus", field, n=2),
        ),
        Example(
            "ex3.4",
            "one-variable survivor: only powers of x1 remain in the quotient",
            lambda field: builtin("ex3.4", field, alphas=[1]),
        ),
        Example(
            "ex3.5",
            "split rule: quotient is two polynomial lines glued at scalars",
            lambda field: builtin("ex3.5", field, mu=1, lam=1),
        ),
        Example(
            "thm4.1-I",
            "regular commutative family I at u=x1, v=x2, w=x1, lam=2",
            lambda field: build_family(
                FamilyParams("I", u=(1, 0), v=(0, 1), w=(1, 0), lam=2), field),
        ),
        Example(
            "thm4.1-II",
            "regular commutative family II at v=x1, v1=x2, lam=1, mu=2",
            lambda field: build_family(
                FamilyParams("II", v=(1, 0), v1=(0, 1), lam=1, mu=2), field),
        ),
        Example(
            "thm4.1-III",
            "regular commutative family III at u=x1, v=x2 (classical calculus)",
            lambda field: build_family(
                FamilyParams("III", u=(1, 0), v=(0, 1)), field),
        ),
        Example(
            "thm4.1-IV",
            "regular commutative family IV at u=x2, v=x1, w=x1",
            lambda field: build_family(
                FamilyParams("IV", u=(0, 1), v=(1, 0), w=(1, 0)), field),
        ),
    )


EXAMPLES = {e.name: e for e in _catalog()}


def example_names():
    return [e.name for e in _catalog()]


def build_example(name: str, field=QQ) -> CommRule:
    ex = EXAMPLES.get(name)
    if ex is None:
        raise ValueError(
            f"unknown example {name!r}; valid: {', '.join(example_names())}")
    return ex.build(field)


def example_document(name: str, field=QQ) -> dict:
    """The example as a rule-file dict (canonical expressions)."""
    from .rulefile import rule_to_dict

    rule = build_example(name, field)
    return rule_to_dict(rule)
