"""Folding automata back into regular path expressions.

State elimination over a generalized automaton: parallel letters between
two states are first compressed into one guard step, then states are
removed one at a time (cheapest first, by in-degree times out-degree),
rerouting paths through union, concatenation and star.  The surviving
edge from the virtual source to the virtual sink is the regex.

The output is a pure regular expression: guard steps, union,
concatenation, star, and at most the trivial test ``tt?`` standing for
the empty word.  An empty language folds to the unmatchable step
``false``.  ``pref_regex`` and ``regex_for_rv`` fold the language of a
set of colors of the property's monitor (``ColoredDfa.accepting``).
"""
from __future__ import annotations

from .automata import color_minimal, compile_dfa, guards_by_target
from .rv import SATISFIABLE, RVState
from .syntax import ldl
from .syntax.alphabet import Alphabet
from .syntax.props import FALSE

EMPTY_RE = ldl.Step(FALSE)


def _is_epsilon(p) -> bool:
    return isinstance(p, ldl.Test) and p.cond == ldl.TT


def rseq(a, b):
    """Concatenation with unit and absorption laws applied."""
    if a is None or b is None:
        return None
    if _is_epsilon(a):
        return b
    if _is_epsilon(b):
        return a
    return ldl.Seq(a, b)


def ralt(a, b):
    """Union with duplicate branches dropped."""
    if a is None:
        return b
    if b is None:
        return a
    branches = []
    for branch in _alt_leaves(a) + _alt_leaves(b):
        if branch not in branches:
            branches.append(branch)
    out = branches[0]
    for branch in branches[1:]:
        out = ldl.Alt(out, branch)
    return out


def _alt_leaves(p) -> list:
    if isinstance(p, ldl.Alt):
        return _alt_leaves(p.left) + _alt_leaves(p.right)
    return [p]


def rstar(a):
    if a is None or _is_epsilon(a):
        return ldl.EPSILON_PATH
    if isinstance(a, ldl.Star):
        return a
    return ldl.Star(a)


def automaton_to_regex(aut) -> ldl.Path:
    """A regular expression for the automaton's language."""
    # Guard-compress parallel edges: one label per (source, target).
    edges: dict = {}
    for state in range(aut.n_states):
        for target, guard in guards_by_target(aut, state).items():
            edges[(state, target)] = ldl.Step(guard)

    source, sink = -1, -2
    edges[(source, aut.initial)] = ldl.EPSILON_PATH
    for final in sorted(aut.finals):
        edges[(final, sink)] = ldl.EPSILON_PATH

    remaining = set(range(aut.n_states))
    while remaining:
        def cost(state: int) -> tuple:
            preds = sum(1 for (p, q) in edges if q == state and p != state)
            succs = sum(1 for (p, q) in edges if p == state and q != state)
            return (preds * succs, state)

        victim = min(remaining, key=cost)
        remaining.discard(victim)
        loop = edges.pop((victim, victim), None)
        loop_star = rstar(loop) if loop is not None else None
        incoming = [
            (p, label) for (p, q), label in edges.items() if q == victim
        ]
        outgoing = [
            (q, label) for (p, q), label in edges.items() if p == victim
        ]
        for (p, _) in incoming:
            edges.pop((p, victim))
        for (q, _) in outgoing:
            edges.pop((victim, q))
        for p, in_label in incoming:
            for q, out_label in outgoing:
                through = in_label
                if loop_star is not None and not _is_epsilon(loop_star):
                    through = rseq(through, loop_star)
                through = rseq(through, out_label)
                edges[(p, q)] = ralt(edges.get((p, q)), through)

    result = edges.get((source, sink))
    return result if result is not None else EMPTY_RE


def pref_regex(formula: ldl.Ldlf, alphabet: Alphabet) -> ldl.Path:
    """Regex of the prefixes extendable (possibly by nothing) into a
    trace satisfying the formula: its monitor's states of every color
    but ``PERM_FALSE``."""
    return automaton_to_regex(color_minimal(compile_dfa(formula, alphabet)).accepting(SATISFIABLE))


def regex_for_rv(
    formula: ldl.Ldlf, state, alphabet: Alphabet, memo: dict | None = None
) -> ldl.Path:
    """Regex of the traces whose RV state for the property is ``state``:
    the property's monitor, compiled through ``memo`` (see
    ``compile_dfa``), with exactly the states of that color final."""
    if not isinstance(state, RVState):
        msg = f"not an RV state: {state!r}"
        raise ValueError(msg)
    colored = color_minimal(compile_dfa(formula, alphabet, memo))
    return automaton_to_regex(colored.accepting({state}))
