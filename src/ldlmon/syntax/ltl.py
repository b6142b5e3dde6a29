"""LTLf formulas: linear temporal logic read over finite traces.

Operators follow the usual prefix notation: ``X`` next, ``WX`` weak next,
``F`` eventually, ``G`` always, and infix ``U`` until, ``R`` release.
On a finite trace ``X phi`` requires a successor step to exist while
``WX phi`` is satisfied at the last step vacuously.
"""
from __future__ import annotations

from .base import node
from .props import Prop, is_atomic_prop, print_prop


class Ltlf:
    """Base class for LTLf formulas."""

    __slots__ = ()


@node
class LtlfProp(Ltlf):
    prop: Prop


@node
class LtlfNot(Ltlf):
    arg: Ltlf


@node
class LtlfAnd(Ltlf):
    left: Ltlf
    right: Ltlf


@node
class LtlfOr(Ltlf):
    left: Ltlf
    right: Ltlf


@node
class LtlfImplies(Ltlf):
    left: Ltlf
    right: Ltlf


@node
class LtlfIff(Ltlf):
    left: Ltlf
    right: Ltlf


@node
class Next(Ltlf):
    arg: Ltlf


@node
class WeakNext(Ltlf):
    arg: Ltlf


@node
class Until(Ltlf):
    left: Ltlf
    right: Ltlf


@node
class Release(Ltlf):
    left: Ltlf
    right: Ltlf


@node
class Eventually(Ltlf):
    arg: Ltlf


@node
class Always(Ltlf):
    arg: Ltlf


_PREC_IFF = 0
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNTIL = 4
_PREC_UNARY = 5

_UNARY_TOKENS = {LtlfNot: "!", Next: "X ", WeakNext: "WX ", Eventually: "F ", Always: "G "}


def print_ltlf(f: Ltlf) -> str:
    """Render f in concrete syntax, with minimal parentheses."""
    return _pl(f, 0)


def _pl(f: Ltlf, parent: int) -> str:
    if isinstance(f, LtlfProp):
        prop: Prop = f.prop
        # Compound propositional payloads keep their own parentheses so the
        # temporal and the propositional layer cannot be confused.
        text = print_prop(prop)
        return text if is_atomic_prop(prop) else f"({text})"
    kind = type(f)
    if kind in _UNARY_TOKENS:
        return _UNARY_TOKENS[kind] + _pl(f.arg, _PREC_UNARY)
    if isinstance(f, Until):
        text = _pl(f.left, _PREC_UNTIL + 1) + " U " + _pl(f.right, _PREC_UNTIL)
        return f"({text})" if parent > _PREC_UNTIL else text
    if isinstance(f, Release):
        text = _pl(f.left, _PREC_UNTIL + 1) + " R " + _pl(f.right, _PREC_UNTIL)
        return f"({text})" if parent > _PREC_UNTIL else text
    if isinstance(f, LtlfAnd):
        text = _pl(f.left, _PREC_AND) + " && " + _pl(f.right, _PREC_AND + 1)
        return f"({text})" if parent > _PREC_AND else text
    if isinstance(f, LtlfOr):
        text = _pl(f.left, _PREC_OR) + " || " + _pl(f.right, _PREC_OR + 1)
        return f"({text})" if parent > _PREC_OR else text
    if isinstance(f, LtlfImplies):
        text = _pl(f.left, _PREC_IMPLIES + 1) + " -> " + _pl(f.right, _PREC_IMPLIES)
        return f"({text})" if parent > _PREC_IMPLIES else text
    if isinstance(f, LtlfIff):
        text = _pl(f.left, _PREC_IFF + 1) + " <-> " + _pl(f.right, _PREC_IFF)
        return f"({text})" if parent > _PREC_IFF else text
    msg = f"not an LTLf formula: {f!r}"
    raise TypeError(msg)
