"""Propositional formulas over a finite set of proposition names.

These appear in two places: as guards on single-step path expressions and
as the payload of bare propositional atoms before they are desugared into
modal form.
"""
from __future__ import annotations

from .base import UNARY, Node, by_class, print_infix


class Prop(Node):
    """Base class for propositional formulas."""

    __slots__ = ()


class PropTrue(Prop):
    pass


class PropFalse(Prop):
    pass


class Atom(Prop):
    name: str


class PropNot(Prop):
    arg: Prop


class PropAnd(Prop):
    left: Prop
    right: Prop


class PropOr(Prop):
    left: Prop
    right: Prop


# Binary operators: token -> (level, class, groups right); a higher level
# binds tighter.  Levels 1 and 2 belong to ``<->`` and ``->``, which the
# parser desugars into these.
PROP_OPS = {"||": (3, PropOr, False), "&&": (4, PropAnd, False)}

TRUE = PropTrue()
FALSE = PropFalse()


def eval_prop(phi: Prop, interp: frozenset[str]) -> bool:
    """Evaluate phi against an interpretation (the set of true names)."""
    if isinstance(phi, PropTrue):
        return True
    if isinstance(phi, PropFalse):
        return False
    if isinstance(phi, Atom):
        return phi.name in interp
    if isinstance(phi, PropNot):
        return not eval_prop(phi.arg, interp)
    if isinstance(phi, (PropAnd, PropOr)):
        # A chain of phi's class down its left (grouping) side is one
        # loop, right operand first: a folded guard of a thousand
        # disjuncts does not recurse a thousand deep.
        cls, decisive = type(phi), type(phi) is PropOr
        while type(phi) is cls:
            if eval_prop(phi.right, interp) is decisive:
                return decisive
            phi = phi.left
        return eval_prop(phi, interp)
    msg = f"not a propositional formula: {phi!r}"
    raise TypeError(msg)


def prop_atoms(phi: Prop) -> frozenset[str]:
    """Names of the atoms occurring in phi."""
    if isinstance(phi, (PropTrue, PropFalse)):
        return frozenset()
    if isinstance(phi, Atom):
        return frozenset((phi.name,))
    if isinstance(phi, PropNot):
        return prop_atoms(phi.arg)
    if isinstance(phi, (PropAnd, PropOr)):
        cls, parts = type(phi), []  # a chain down the left side, as in eval_prop
        while type(phi) is cls:
            parts.append(prop_atoms(phi.right))
            phi = phi.left
        return prop_atoms(phi).union(*parts)
    msg = f"not a propositional formula: {phi!r}"
    raise TypeError(msg)


_BINARY = by_class(PROP_OPS)


def print_prop(phi: Prop) -> str:
    """Render phi in concrete syntax, with minimal parentheses."""
    return _pp(phi, 0)


def _pp(phi: Prop, parent: int) -> str:
    if isinstance(phi, PropTrue):
        return "true"
    if isinstance(phi, PropFalse):
        return "false"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, PropNot):
        return "!" + _pp(phi.arg, UNARY)
    if type(phi) in _BINARY:
        return print_infix(phi, parent, _BINARY, _pp)
    msg = f"not a propositional formula: {phi!r}"
    raise TypeError(msg)


def is_atomic_prop(phi: Prop) -> bool:
    """True when phi prints as a single token."""
    return isinstance(phi, (PropTrue, PropFalse, Atom))
