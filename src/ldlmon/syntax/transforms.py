"""Syntax-level transformations: negation normal form and translations.

``to_nnf`` pushes negation inward until it only survives inside
propositional guards.  It is one bottom-up ``rewrite``: a negation meets
an operand already in NNF and dualizes its spine (tt/ff, and/or,
diamond/box); the paths under that spine are already normal.

``ltlf_to_ldlf`` is the standard embedding of LTLf: each temporal
operator becomes a modality over a path built from ``true`` steps, with
``!end`` guarding against the truncated-trace edge cases and until
expressed through a test-star path.  Chains of conjunctions or
disjunctions are walked with an explicit stack, so a long chain does not
exhaust the recursion limit.  The output is not necessarily in NNF; run
``to_nnf`` before building automata.
"""
from __future__ import annotations

from . import ldl, ltl
from .props import TRUE


def to_nnf(f: ldl.Ldlf) -> ldl.Ldlf:
    """Negation normal form of f."""
    if not isinstance(f, ldl.Ldlf):
        msg = f"not an LDLf formula: {f!r}"
        raise TypeError(msg)
    return ldl.rewrite(f, _nnf_rule)


def _nnf_rule(n):
    if isinstance(n, ldl.Not):
        return negate(n.arg)
    return n


def negate(f: ldl.Ldlf) -> ldl.Ldlf:
    """NNF of the negation of a formula already in NNF: dualize its
    boolean and modal spine; paths are left as they are."""
    if isinstance(f, ldl.Tt):
        return ldl.FF
    if isinstance(f, ldl.Ff):
        return ldl.TT
    if isinstance(f, ldl.And):
        return ldl.Or(negate(f.left), negate(f.right))
    if isinstance(f, ldl.Or):
        return ldl.And(negate(f.left), negate(f.right))
    if isinstance(f, ldl.Diamond):
        return ldl.Box(f.path, negate(f.arg))
    if isinstance(f, ldl.Box):
        return ldl.Diamond(f.path, negate(f.arg))
    msg = f"not an LDLf formula in negation normal form: {f!r}"
    raise TypeError(msg)


def is_nnf(f: ldl.Ldlf) -> bool:
    """True when negation survives only inside propositional guards."""
    return not any(isinstance(n, ldl.Not) for n in ldl.subterms(f))


_TRUE_STEP = ldl.Step(TRUE)
_NOT_END = ldl.Not(ldl.END)


def ltlf_to_ldlf(f: ltl.Ltlf) -> ldl.Ldlf:
    """Translate an LTLf formula into an equivalent LDLf formula."""
    if isinstance(f, ltl.LtlfProp):
        return ldl.prop_formula(f.prop)
    if isinstance(f, ltl.LtlfNot):
        return ldl.Not(ltlf_to_ldlf(f.arg))
    if isinstance(f, (ltl.LtlfAnd, ltl.LtlfOr)):
        return _chain_to_ldlf(f)
    if isinstance(f, ltl.LtlfImplies):
        return ldl.Or(ldl.Not(ltlf_to_ldlf(f.left)), ltlf_to_ldlf(f.right))
    if isinstance(f, ltl.LtlfIff):
        left = ltlf_to_ldlf(f.left)
        right = ltlf_to_ldlf(f.right)
        return ldl.And(
            ldl.Or(ldl.Not(left), right), ldl.Or(ldl.Not(right), left)
        )
    if isinstance(f, ltl.Next):
        return ldl.Diamond(_TRUE_STEP, ldl.And(ltlf_to_ldlf(f.arg), _NOT_END))
    if isinstance(f, ltl.WeakNext):
        # WX phi == !X !phi
        return ldl.Not(
            ldl.Diamond(
                _TRUE_STEP, ldl.And(ldl.Not(ltlf_to_ldlf(f.arg)), _NOT_END)
            )
        )
    if isinstance(f, ltl.Eventually):
        return ldl.Diamond(
            ldl.Star(_TRUE_STEP), ldl.And(ltlf_to_ldlf(f.arg), _NOT_END)
        )
    if isinstance(f, ltl.Always):
        # G phi == !F !phi
        return ldl.Not(
            ldl.Diamond(
                ldl.Star(_TRUE_STEP),
                ldl.And(ldl.Not(ltlf_to_ldlf(f.arg)), _NOT_END),
            )
        )
    if isinstance(f, ltl.Until):
        return ldl.Diamond(
            ldl.Star(ldl.Seq(ldl.Test(ltlf_to_ldlf(f.left)), _TRUE_STEP)),
            ldl.And(ltlf_to_ldlf(f.right), _NOT_END),
        )
    if isinstance(f, ltl.Release):
        # phi R psi == !(!phi U !psi)
        return ldl.Not(
            ldl.Diamond(
                ldl.Star(
                    ldl.Seq(ldl.Test(ldl.Not(ltlf_to_ldlf(f.left))), _TRUE_STEP)
                ),
                ldl.And(ldl.Not(ltlf_to_ldlf(f.right)), _NOT_END),
            )
        )
    msg = f"not an LTLf formula: {f!r}"
    raise TypeError(msg)


def _chain_to_ldlf(f: ltl.Ltlf) -> ldl.Ldlf:
    """Translate a chain of conjunctions (or disjunctions), nested either
    way, with an explicit stack: the chain is rebuilt in the same shape
    and only its operands are translated recursively."""
    kind = type(f)
    build = ldl.And if kind is ltl.LtlfAnd else ldl.Or
    done: list = []
    pending = [(f, False)]
    while pending:
        g, operands_done = pending.pop()
        if not isinstance(g, kind):
            done.append(ltlf_to_ldlf(g))
        elif operands_done:
            right = done.pop()
            done.append(build(done.pop(), right))
        else:
            pending += [(g, True), (g.right, False), (g.left, False)]
    return done[0]


def re_to_ldlf(path: ldl.Path) -> ldl.Ldlf:
    """Encode a regular expression as the LDLf formula ``<path>end``.

    The resulting formula is satisfied by exactly the traces the
    expression matches in full.  Only the trivial test ``tt?`` (the
    empty-word expression) may appear; real formula tests are rejected.
    """
    if any(isinstance(n, ldl.Test) and n.cond != ldl.TT for n in ldl.subterms(path)):
        msg = "regular expressions cannot contain formula tests"
        raise ValueError(msg)
    return ldl.Diamond(path, ldl.END)
