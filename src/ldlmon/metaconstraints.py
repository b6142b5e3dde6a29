"""Constraints about the monitoring states of other constraints.

Two extension nodes (defined in ``rv``) make this expressible inside
LDLf:

* ``RvAtom(f, s)``: the trace so far puts property f in RV state s;
* ``RvPath(f, s)``: a path expression matching exactly those prefixes.

Each builder's recipe (``*_dfa``, used by ``MetaMonitor``) builds its
formula's minimal DFA from the targets' colored DFAs: an atom makes f's
states of color s final (``ColoredDfa.where``), and the modalities of
contextual absence and reactive compensation are one subset
construction each (``automata._diamond_after``), which starts a run of
the argument's DFA wherever f's run is in s.  A recipe keeps nothing
between calls: directives over the same targets each build their own.

``expand`` is the paper's declarative encoding of the same nodes, and
the one way a formula with RV nodes compiles:
``compile_dfa(expand(f, alphabet, memo), alphabet, memo)``, the
reference the recipes are tested against.  It lowers both nodes into
plain LDLf: the atom via the RV-state characterization formula
(``rv_formula``), the path via the regex folded out of the property's
monitor with the states of that color made final (``regex_for_rv``).
Expansion is one bottom-up ``rewrite``, so the formula inside an RV node
is already plain when the node is lowered: nested references (a
metaconstraint about a metaconstraint) work.  Calls that share a memo
share each lowered node's encoding, per alphabet, and the DFAs compiled
on the way.

The builders cover the recurring shapes: forbidding a task while
another constraint is temporarily violated, compensating a permanent
violation (optionally only after the violation point), detecting
conflicts between individually satisfiable constraints, and preferring
one constraint when a pair becomes jointly unsatisfiable.
"""
from __future__ import annotations

from . import automata
from .automata import ColoredDfa, Dfa, color_minimal, complement, product_fold
from .monitor import rv_formula
from .regexfold import regex_for_rv
from .rv import SATISFIABLE, RVState, RvAtom, RvPath
from .syntax import ldl
from .syntax.alphabet import Alphabet
from .syntax.props import Atom, PropNot


def expand(f: ldl.Ldlf, alphabet: Alphabet, memo: dict | None = None) -> ldl.Ldlf:
    """Replace every RV atom and RV path by its plain-LDLf encoding.

    ``memo`` maps ``("rv", node, alphabet)`` to the node's encoding and
    is handed on to the compiles behind it (see ``compile_dfa``); a call
    without one gets a fresh dict."""
    if not isinstance(f, ldl.Ldlf):
        msg = f"cannot expand {f!r}"
        raise TypeError(msg)
    if memo is None:
        memo = {}
    return ldl.rewrite(
        f, lambda n: _expand_rv(n, alphabet, memo) if isinstance(n, (RvAtom, RvPath)) else n
    )


def _expand_rv(rv, alphabet: Alphabet, memo: dict):
    """The encoding of one RV node whose formula is already expanded."""
    key = ("rv", rv, alphabet)
    hit = memo.get(key)
    if hit is None:
        encode = regex_for_rv if isinstance(rv, RvPath) else rv_formula
        hit = memo[key] = encode(rv.formula, rv.state, alphabet, memo)
    return hit


def _implies(antecedent: ldl.Ldlf, consequent: ldl.Ldlf) -> ldl.Ldlf:
    return ldl.Or(ldl.Not(antecedent), consequent)


def _task_free(task: str) -> ldl.Ldlf:
    """Either the trace has ended here or the current step is not the
    given task."""
    return ldl.Or(ldl.prop_formula(PropNot(Atom(task))), ldl.END)


def contextual_absence(context: ldl.Ldlf, state: RVState, task: str) -> ldl.Ldlf:
    """Forbid a task whenever the context property sits in the given RV
    state: after every prefix in that state, the next step (if any) is
    not the task."""
    return ldl.Box(RvPath(context, state), _task_free(task))


def contextual_absence_dfa(context: ColoredDfa, state: RVState, task: str) -> Dfa:
    """``contextual_absence``'s DFA, from the context's colored DFA: the
    complement of the diamond of ``<task>tt`` (the start, an accepting
    sink past a letter with the task, a rejecting sink past others)."""
    alphabet = context.dfa.alphabet
    first = tuple(1 if task in letter else 2 for letter in alphabet.letters())
    step = Dfa(alphabet, 3, 0, (first, (1,) * len(first), (2,) * len(first)), frozenset((1,)))
    return complement(automata._diamond_after(context, state, step))


def compensation(violated: ldl.Ldlf, comp: ldl.Ldlf) -> ldl.Ldlf:
    """If the property ends up permanently violated, the compensation
    must hold over the whole trace."""
    return _implies(RvAtom(violated, RVState.PERM_FALSE), comp)


def reactive_compensation(violated: ldl.Ldlf, comp: ldl.Ldlf) -> ldl.Ldlf:
    """If the property ends up permanently violated, the compensation
    must hold from some point where the violation had already become
    permanent."""
    return _implies(
        RvAtom(violated, RVState.PERM_FALSE),
        ldl.Diamond(RvPath(violated, RVState.PERM_FALSE), comp),
    )


def compensation_dfa(violated: ColoredDfa, comp: ColoredDfa, reactive: bool) -> Dfa:
    """``compensation``'s DFA, or ``reactive_compensation``'s, from the targets'."""
    after = comp.dfa
    if reactive:
        after = automata._diamond_after(violated, RVState.PERM_FALSE, after)
    return product_fold((violated.where(SATISFIABLE), after), True)


def conflict(f: ldl.Ldlf, g: ldl.Ldlf) -> ldl.Ldlf:
    """The pair is jointly doomed while neither property alone is: the
    signature of a conflict between constraints."""
    return ldl.And(
        RvAtom(ldl.And(f, g), RVState.PERM_FALSE),
        ldl.And(
            ldl.Not(RvAtom(f, RVState.PERM_FALSE)),
            ldl.Not(RvAtom(g, RVState.PERM_FALSE)),
        ),
    )


def conflict_dfa(f: ColoredDfa, g: ColoredDfa) -> Dfa:
    """``conflict``'s DFA, from the targets' colored DFAs."""
    both = color_minimal(product_fold((f.dfa, g.dfa))).where({RVState.PERM_FALSE})
    return product_fold((both, f.where(SATISFIABLE), g.where(SATISFIABLE)))


def preference(preferred: ldl.Ldlf, other: ldl.Ldlf) -> ldl.Ldlf:
    """Once the conjunction of the two properties has become doomed at
    some point of the trace, require the preferred one."""
    doomed_prefix = ldl.Diamond(
        RvPath(ldl.And(preferred, other), RVState.PERM_FALSE), ldl.TT
    )
    return _implies(doomed_prefix, preferred)


def preference_dfa(preferred: ColoredDfa, other: ColoredDfa) -> Dfa:
    """``preference``'s DFA, from the targets' colored DFAs."""
    both = color_minimal(product_fold((preferred.dfa, other.dfa)))
    return product_fold((both.where(SATISFIABLE), preferred.dfa), True)
