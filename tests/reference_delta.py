"""The one-step obligation function as a positive boolean formula.

This is the construction ``automata.delta`` replaced: ``delta`` builds a
tree of positive boolean connectives over quoted obligations, and
``minimal_models`` reads the macro-states off the tree.  Star formulas
unfold through the paper's marker atoms, ``TrueMark`` and ``FalseMark``,
which ``automata.delta`` replaces by the tuple of loops it is unfolding.
The tests keep it as an independent reference for the minimal models
``automata.delta`` returns directly.
"""
from __future__ import annotations

from ldlmon.syntax import ldl
from ldlmon.syntax.base import Node
from ldlmon.syntax.props import eval_prop
from ldlmon.syntax.transforms import to_nnf

EPSILON = None


class PosBool(Node):
    """Positive boolean formulas over quoted LDLf subformulas."""

    __slots__ = ()


class PBTrue(PosBool):
    pass


class PBFalse(PosBool):
    pass


class PBAtom(PosBool):
    formula: ldl.Ldlf


class PBAnd(PosBool):
    left: PosBool
    right: PosBool


class PBOr(PosBool):
    left: PosBool
    right: PosBool


class TrueMark(ldl.Ldlf):
    """Bookkeeping atom standing in for a box-star formula during one
    transition-function evaluation.  Never part of a user-facing formula."""

    loop: ldl.Ldlf


class FalseMark(ldl.Ldlf):
    """Bookkeeping atom standing in for a diamond-star formula during one
    transition-function evaluation.  Never part of a user-facing formula."""

    loop: ldl.Ldlf


PB_TRUE = PBTrue()
PB_FALSE = PBFalse()


def pb_and(a: PosBool, b: PosBool) -> PosBool:
    if isinstance(a, PBFalse) or isinstance(b, PBFalse):
        return PB_FALSE
    if isinstance(a, PBTrue):
        return b
    if isinstance(b, PBTrue):
        return a
    return PBAnd(a, b)


def pb_or(a: PosBool, b: PosBool) -> PosBool:
    if isinstance(a, PBTrue) or isinstance(b, PBTrue):
        return PB_TRUE
    if isinstance(a, PBFalse):
        return b
    if isinstance(b, PBFalse):
        return a
    return PBOr(a, b)


def _unmark(n):
    return n.loop if isinstance(n, (TrueMark, FalseMark)) else n


def _emit(f: ldl.Ldlf) -> PosBool:
    resolved = ldl.rewrite(f, _unmark)
    if isinstance(resolved, ldl.Tt):
        return PB_TRUE
    if isinstance(resolved, ldl.Ff):
        return PB_FALSE
    return PBAtom(resolved)


def delta(f: ldl.Ldlf, letter) -> PosBool:
    """One-step obligations of f under a letter (or EPSILON), for f in
    negation normal form, marker atoms aside."""
    if isinstance(f, ldl.Tt):
        return PB_TRUE
    if isinstance(f, ldl.Ff):
        return PB_FALSE
    if isinstance(f, TrueMark):
        return PB_TRUE
    if isinstance(f, FalseMark):
        return PB_FALSE
    if isinstance(f, ldl.And):
        return pb_and(delta(f.left, letter), delta(f.right, letter))
    if isinstance(f, ldl.Or):
        return pb_or(delta(f.left, letter), delta(f.right, letter))
    if isinstance(f, ldl.Diamond):
        path = f.path
        if isinstance(path, ldl.Step):
            if letter is EPSILON or not eval_prop(path.guard, letter):
                return PB_FALSE
            return _emit(f.arg)
        if isinstance(path, ldl.Test):
            return pb_and(delta(path.cond, letter), delta(f.arg, letter))
        if isinstance(path, ldl.Alt):
            return pb_or(
                delta(ldl.Diamond(path.left, f.arg), letter),
                delta(ldl.Diamond(path.right, f.arg), letter),
            )
        if isinstance(path, ldl.Seq):
            return delta(ldl.Diamond(path.left, ldl.Diamond(path.right, f.arg)), letter)
        if isinstance(path, ldl.Star):
            return pb_or(
                delta(f.arg, letter),
                delta(ldl.Diamond(path.body, FalseMark(f)), letter),
            )
    if isinstance(f, ldl.Box):
        path = f.path
        if isinstance(path, ldl.Step):
            if letter is EPSILON or not eval_prop(path.guard, letter):
                return PB_TRUE
            return _emit(f.arg)
        if isinstance(path, ldl.Test):
            return pb_or(delta(to_nnf(ldl.Not(path.cond)), letter), delta(f.arg, letter))
        if isinstance(path, ldl.Alt):
            return pb_and(
                delta(ldl.Box(path.left, f.arg), letter),
                delta(ldl.Box(path.right, f.arg), letter),
            )
        if isinstance(path, ldl.Seq):
            return delta(ldl.Box(path.left, ldl.Box(path.right, f.arg)), letter)
        if isinstance(path, ldl.Star):
            return pb_and(
                delta(f.arg, letter),
                delta(ldl.Box(path.body, TrueMark(f)), letter),
            )
    msg = f"not an LDLf formula in negation normal form: {f!r}"
    raise TypeError(msg)


def delta_epsilon(f: ldl.Ldlf) -> bool:
    result = delta(f, EPSILON)
    if isinstance(result, (PBTrue, PBFalse)):
        return isinstance(result, PBTrue)
    msg = f"empty-remainder evaluation did not reach a constant: {f!r}"
    raise AssertionError(msg)


def minimal_models(pb: PosBool) -> list[frozenset]:
    """Minimal satisfying atom sets of a positive boolean formula.

    Positive formulas are monotone, so the minimal models of a
    conjunction are found among pairwise unions of the operands'
    minimal models, and those of a disjunction among the operands'.
    """
    if isinstance(pb, PBTrue):
        return [frozenset()]
    if isinstance(pb, PBFalse):
        return []
    if isinstance(pb, PBAtom):
        return [frozenset((pb.formula,))]
    if isinstance(pb, PBAnd):
        left = minimal_models(pb.left)
        right = minimal_models(pb.right)
        return _prune([a | b for a in left for b in right])
    if isinstance(pb, PBOr):
        return _prune(minimal_models(pb.left) + minimal_models(pb.right))
    msg = f"not a positive boolean formula: {pb!r}"
    raise TypeError(msg)


def _prune(candidates: list[frozenset]) -> list[frozenset]:
    kept: list[frozenset] = []
    for cand in sorted(set(candidates), key=len):
        if not any(prev <= cand for prev in kept):
            kept.append(cand)
    return kept
