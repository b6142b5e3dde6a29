"""LTLf formulas: linear temporal logic read over finite traces.

Operators follow the usual prefix notation: ``X`` next, ``WX`` weak next,
``F`` eventually, ``G`` always, and infix ``U`` until, ``R`` release.
On a finite trace ``X phi`` requires a successor step to exist while
``WX phi`` is satisfied at the last step vacuously.
"""
from __future__ import annotations

from .base import UNARY, Node, by_class, print_infix
from .props import Prop, is_atomic_prop, print_prop


class Ltlf(Node):
    """Base class for LTLf formulas."""

    __slots__ = ()


class LtlfProp(Ltlf):
    prop: Prop


class LtlfNot(Ltlf):
    arg: Ltlf


class LtlfAnd(Ltlf):
    left: Ltlf
    right: Ltlf


class LtlfOr(Ltlf):
    left: Ltlf
    right: Ltlf


class LtlfImplies(Ltlf):
    left: Ltlf
    right: Ltlf


class LtlfIff(Ltlf):
    left: Ltlf
    right: Ltlf


class Next(Ltlf):
    arg: Ltlf


class WeakNext(Ltlf):
    arg: Ltlf


class Until(Ltlf):
    left: Ltlf
    right: Ltlf


class Release(Ltlf):
    left: Ltlf
    right: Ltlf


class Eventually(Ltlf):
    arg: Ltlf


class Always(Ltlf):
    arg: Ltlf


# Binary operators: token -> (level, class, groups right); a higher level
# binds tighter.
LTLF_OPS = {
    "<->": (1, LtlfIff, True),
    "->": (2, LtlfImplies, True),
    "||": (3, LtlfOr, False),
    "&&": (4, LtlfAnd, False),
    "U": (5, Until, True),
    "R": (5, Release, True),
}
# Prefix operators, binding tighter than every binary one.
LTLF_PREFIXES = {"!": LtlfNot, "X": Next, "WX": WeakNext, "F": Eventually, "G": Always}

_BINARY = by_class(LTLF_OPS)
_PREFIX_TEXT = {cls: token + " " * token.isalpha() for token, cls in LTLF_PREFIXES.items()}


def print_ltlf(f: Ltlf) -> str:
    """Render f in concrete syntax, with minimal parentheses."""
    return _pl(f, 0)


def _pl(f: Ltlf, parent: int) -> str:
    if isinstance(f, LtlfProp):
        # Compound propositional payloads keep their own parentheses so the
        # temporal and the propositional layer cannot be confused.
        text = print_prop(f.prop)
        return text if is_atomic_prop(f.prop) else f"({text})"
    if type(f) in _PREFIX_TEXT:
        return _PREFIX_TEXT[type(f)] + _pl(f.arg, UNARY)
    if type(f) in _BINARY:
        return print_infix(f, parent, _BINARY, _pl)
    msg = f"not an LTLf formula: {f!r}"
    raise TypeError(msg)
