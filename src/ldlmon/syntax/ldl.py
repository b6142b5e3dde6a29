"""LDLf formulas and the regular path expressions they quantify over.

The modal operators are written ``<rho>phi`` (some path through the trace
matching rho ends where phi holds) and ``[rho]phi`` (every such path ends
where phi holds).  ``tt`` and ``ff`` are the logical constants; they are
distinct from the propositional constants ``true``/``false`` that appear
inside path guards.

Two derived forms are used throughout: ``end`` is ``[true]ff`` (no step
can be taken, i.e. the trace has been fully consumed) and ``last`` is
``<true>end`` (exactly one step remains).
"""
from __future__ import annotations

from .base import UNARY, Node, by_class, print_infix
from .props import (
    Prop,
    TRUE,
    is_atomic_prop,
    print_prop,
    prop_atoms,
)


class Path(Node):
    """Base class for regular path expressions."""

    __slots__ = ()


class Ldlf(Node):
    """Base class for LDLf formulas."""

    __slots__ = ()


class Step(Path):
    guard: Prop


class Test(Path):
    cond: Ldlf


class Alt(Path):
    left: Path
    right: Path


class Seq(Path):
    left: Path
    right: Path


class Star(Path):
    body: Path


class Tt(Ldlf):
    pass


class Ff(Ldlf):
    pass


class Not(Ldlf):
    arg: Ldlf


class And(Ldlf):
    left: Ldlf
    right: Ldlf


class Or(Ldlf):
    left: Ldlf
    right: Ldlf


class Diamond(Ldlf):
    path: Path
    arg: Ldlf


class Box(Ldlf):
    path: Path
    arg: Ldlf


# Binary operators of formulas and of paths: token -> (level, class,
# groups right); a higher level binds tighter.  Formula levels 1 and 2
# belong to ``<->`` and ``->``, which the parser desugars into these.
LDLF_OPS = {"||": (3, Or, False), "&&": (4, And, False)}
PATH_OPS = {"+": (1, Alt, False), ";": (2, Seq, False)}

TT = Tt()
FF = Ff()
END = Box(Step(TRUE), FF)
LAST = Diamond(Step(TRUE), END)
EPSILON_PATH = Test(TT)


def prop_formula(phi: Prop) -> Ldlf:
    """Desugar a bare propositional formula into modal form."""
    return Diamond(Step(phi), TT)


def rewrite(f, rule):
    """Rebuild a formula or path bottom-up, applying ``rule`` to every
    node once its operands have been rewritten.

    An operand is a field holding a formula or a path: the children of
    the connectives and modalities and the ``formula`` of an extension
    node.  Guards, names and states are not.
    A node whose operands all come back as the same objects is passed to
    ``rule`` as is, so untouched subtrees keep their identity.
    """
    values = None
    for i, name in enumerate(f._fields):
        old = getattr(f, name)
        if isinstance(old, (Ldlf, Path)):
            new = rewrite(old, rule)
            if new is not old:
                if values is None:
                    values = [getattr(f, field) for field in f._fields]
                values[i] = new
    if values is not None:
        f = type(f)(*values)
    return rule(f)


def subterms(f):
    """Every formula and path node of f, f included: f and its operands,
    as ``rewrite`` reads them."""
    stack = [f]
    while stack:
        n = stack.pop()
        yield n
        for name in n._fields:
            value = getattr(n, name)
            if isinstance(value, (Ldlf, Path)):
                stack.append(value)


def formula_atoms(f: Ldlf) -> frozenset[str]:
    """Proposition names occurring anywhere in f: in its step guards."""
    names: set = set()
    for n in subterms(f):
        if isinstance(n, Step):
            names |= prop_atoms(n.guard)
    return frozenset(names)


_FORMULA_BINARY = by_class(LDLF_OPS)
_PATH_BINARY = by_class(PATH_OPS, tight=(";",))


def print_ldlf(f: Ldlf) -> str:
    """Render f in concrete syntax, with minimal parentheses.

    The derived forms ``end`` and ``last`` are printed by name; the
    result reparses to a structurally equal formula either way.
    """
    return _pf(f, 0)


def _pf(f: Ldlf, parent: int) -> str:
    if f == END:
        return "end"
    if f == LAST:
        return "last"
    if isinstance(f, Tt):
        return "tt"
    if isinstance(f, Ff):
        return "ff"
    if isinstance(f, Not):
        return "!" + _pf(f.arg, UNARY)
    if type(f) in _FORMULA_BINARY:
        return print_infix(f, parent, _FORMULA_BINARY, _pf)
    if isinstance(f, Diamond):
        return "<" + print_path(f.path) + ">" + _pf(f.arg, UNARY)
    if isinstance(f, Box):
        return "[" + print_path(f.path) + "]" + _pf(f.arg, UNARY)
    pretty = getattr(f, "pretty", None)
    if pretty is not None:
        return pretty()
    msg = f"not an LDLf formula: {f!r}"
    raise TypeError(msg)


def print_path(p: Path) -> str:
    return _ppath(p, 0)


def _ppath(p: Path, parent: int) -> str:
    if isinstance(p, Step):
        if is_atomic_prop(p.guard):
            return print_prop(p.guard)
        return "(" + print_prop(p.guard) + ")"
    if isinstance(p, Test):
        if isinstance(p.cond, (Tt, Ff)) or p.cond in (END, LAST):
            return _pf(p.cond, UNARY) + "?"
        return "(" + print_ldlf(p.cond) + ")?"
    if type(p) in _PATH_BINARY:
        return print_infix(p, parent, _PATH_BINARY, _ppath)
    if isinstance(p, Star):
        return _ppath(p.body, UNARY) + "*"
    pretty = getattr(p, "pretty", None)
    if pretty is not None:
        return pretty()
    msg = f"not a path expression: {p!r}"
    raise TypeError(msg)
