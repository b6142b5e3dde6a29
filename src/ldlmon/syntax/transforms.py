"""Syntax-level transformations: negation normal form and translations.

``to_nnf`` pushes negation inward until it only survives inside
propositional guards.  It is one bottom-up ``rewrite``: a negation meets
an operand already in NNF and dualizes its spine (tt/ff, and/or,
diamond/box); the paths under that spine are already normal.

``ltlf_to_ldlf`` is the standard embedding of LTLf: each temporal
operator becomes a modality over a path built from ``true`` steps, with
``!end`` guarding against the truncated-trace edge cases and until
expressed through a test-star path.  The table ``_LDLF_OF`` defines each
operator once, over its operands' translations; weak next, always and
release are the duals of next, eventually and until.  One post-order
walk with an explicit stack applies it, so a formula nested thousands
deep does not exhaust the recursion limit.  The output is not
necessarily in NNF; run ``to_nnf`` before building automata.
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
    msg = (f"not a plain LDLf formula in negation normal form: {f!r}; "
           "compile RV nodes through metaconstraints.expand")
    raise TypeError(msg)


_TRUE_STEP = ldl.Step(TRUE)
_NOT_END = ldl.Not(ldl.END)


def _next(a: ldl.Ldlf) -> ldl.Ldlf:
    return ldl.Diamond(_TRUE_STEP, ldl.And(a, _NOT_END))


def _eventually(a: ldl.Ldlf) -> ldl.Ldlf:
    return ldl.Diamond(ldl.Star(_TRUE_STEP), ldl.And(a, _NOT_END))


def _until(left: ldl.Ldlf, right: ldl.Ldlf) -> ldl.Ldlf:
    return ldl.Diamond(
        ldl.Star(ldl.Seq(ldl.Test(left), _TRUE_STEP)), ldl.And(right, _NOT_END)
    )


def _implies(left: ldl.Ldlf, right: ldl.Ldlf) -> ldl.Ldlf:
    return ldl.Or(ldl.Not(left), right)


# Each LTLf operator as a builder over its operands' translations, taken in
# field order.  WX, G and R are the duals of X, F and U.
_LDLF_OF = {
    ltl.LtlfNot: ldl.Not,
    ltl.LtlfAnd: ldl.And,
    ltl.LtlfOr: ldl.Or,
    ltl.LtlfImplies: _implies,
    ltl.LtlfIff: lambda left, right: ldl.And(_implies(left, right), _implies(right, left)),
    ltl.Next: _next,
    ltl.WeakNext: lambda a: ldl.Not(_next(ldl.Not(a))),
    ltl.Eventually: _eventually,
    ltl.Always: lambda a: ldl.Not(_eventually(ldl.Not(a))),
    ltl.Until: _until,
    ltl.Release: lambda left, right: ldl.Not(_until(ldl.Not(left), ldl.Not(right))),
}


def ltlf_to_ldlf(f: ltl.Ltlf) -> ldl.Ldlf:
    """Translate an LTLf formula into an equivalent LDLf formula."""
    done: list = []
    pending = [(f, False)]
    while pending:
        g, operands_done = pending.pop()
        if isinstance(g, ltl.LtlfProp):
            done.append(ldl.prop_formula(g.prop))
        elif type(g) not in _LDLF_OF:
            msg = f"not an LTLf formula: {g!r}"
            raise TypeError(msg)
        elif operands_done:
            arity = len(g._fields)
            operands = done[-arity:]
            del done[-arity:]
            done.append(_LDLF_OF[type(g)](*operands))
        else:
            pending.append((g, True))
            pending += [(getattr(g, name), False) for name in reversed(g._fields)]
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
