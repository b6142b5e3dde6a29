"""Coloring automata with RV states and monitoring traces online.

A property's monitor is its automaton, determinized, kept total (the
rejecting sink is not trimmed away) and colored: each state gets the RV
state shared by every trace that reaches it.  The color follows from
whether the property and its negation can still be reached from the
state, that is, whether the state is final in the prefix closure of the
automaton (pref(f)) and in that of its complement (pref(!f)):

* final, in pref(!f): temporarily satisfied;
* non-final, in pref(f): temporarily violated;
* final, not in pref(!f): permanently satisfied;
* non-final, not in pref(f): permanently violated.

Both closures are one backward search each, so coloring is linear in
states times letters.  ``rv_formula`` builds, for each RV state, an LDLf
formula satisfied by exactly the traces the property maps to that state,
from the same two prefix languages folded into regexes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Dfa,
    complement,
    compile_dfa,
    determinize,
    ldlf_to_nfa,
    prefix_closure,
)
from .rv import RVState
from .syntax import ldl
from .syntax.alphabet import Alphabet


@dataclass(frozen=True)
class ColoredDfa:
    """A total DFA with one RV state per automaton state."""

    dfa: Dfa
    colors: tuple

    def color_of(self, state: int) -> RVState:
        return self.colors[state]


def color(dfa: Dfa) -> ColoredDfa:
    """Color every state of a total DFA with its RV state."""
    if not dfa.is_total():
        msg = "coloring needs a total automaton; call complete() first"
        raise ValueError(msg)
    finals = dfa.finals
    can_accept = prefix_closure(dfa).finals
    can_reject = prefix_closure(complement(dfa)).finals
    colors = tuple(
        RVState.classify(
            state in finals,
            state in (can_reject if state in finals else can_accept),
        )
        for state in range(dfa.n_states)
    )
    return ColoredDfa(dfa=dfa, colors=colors)


def monitor_automaton(formula: ldl.Ldlf, alphabet: Alphabet) -> ColoredDfa:
    """Compile a formula into its colored monitor automaton.

    The automaton comes from ``compile_dfa``: a conjunction or
    disjunction at the top is the minimized product of its operands'
    minimal DFAs, and a negation the complement of its argument's DFA,
    so a whole-model conjunction is never compiled as one NFA.
    Minimization merges only language-equal states, and colors are
    determined by the state's language, so it cannot change any answer;
    it just keeps monitors small.
    """
    return color(compile_dfa(formula, alphabet))


class Monitor:
    """Online monitor: feed events one at a time, read off the RV state.

    ``table[state][column]`` is the successor of ``state`` under the
    letter in that column of ``alphabet.letters()``, so a step is one
    column lookup and one tuple index.
    """

    def __init__(self, automaton):
        colored = automaton if isinstance(automaton, ColoredDfa) else color(automaton)
        self.dfa = colored.dfa
        self.colors = colored.colors
        letters, rows = self.dfa.alphabet.letters(), self.dfa.transitions
        self.table = tuple(
            tuple(map(rows[s].__getitem__, letters)) for s in range(self.dfa.n_states)
        )
        self._columns = self.dfa.alphabet.columns()
        self.current = self.dfa.initial

    @classmethod
    def for_formula(cls, formula: ldl.Ldlf, alphabet: Alphabet) -> "Monitor":
        return cls(compile_dfa(formula, alphabet))

    def reset(self):
        self.current = self.dfa.initial

    def step(self, event) -> RVState:
        """Consume one event and return the RV state after it."""
        letter = frozenset(event)
        column = self._columns.get(letter)
        if column is None:
            self.dfa.alphabet.check_letter(letter)
        self.current = state = self.table[self.current][column]
        return self.colors[state]

    def current_rv(self) -> RVState:
        return self.colors[self.current]

    def forbidden_symbols(self) -> list:
        """Letters whose next step would make the verdict permanently
        violated.  Naturally empty once permanently satisfied and the
        full letter set once permanently violated."""
        return [
            letter
            for letter, target in zip(self.dfa.alphabet.letters(), self.table[self.current])
            if self.colors[target] is RVState.PERM_FALSE
        ]


def rv_formula(formula: ldl.Ldlf, state: RVState, alphabet: Alphabet) -> ldl.Ldlf:
    """An LDLf formula satisfied by exactly the traces whose RV state
    for the given property is ``state``.

    Writing pref(f) for the regex of prefixes extendable to a model of
    f, the four characterizations are:

    * temp_true:  f holds and some continuation violates it, i.e.
      ``f && <pref(!f)>end``;
    * temp_false: ``!f && <pref(f)>end``;
    * perm_true:  ``<pref(f)>end && !<pref(!f)>end``;
    * perm_false: ``<pref(!f)>end && !<pref(f)>end``.

    Both prefix languages come from one compiled DFA: that of !f is its
    complement, as in ``color``.
    """
    from .regexfold import prefix_regex

    dfa = compile_dfa(formula, alphabet)
    pos = ldl.Diamond(prefix_regex(dfa), ldl.END)
    neg = ldl.Diamond(prefix_regex(complement(dfa)), ldl.END)
    if state is RVState.TEMP_TRUE:
        return ldl.And(formula, neg)
    if state is RVState.TEMP_FALSE:
        return ldl.And(ldl.Not(formula), pos)
    if state is RVState.PERM_TRUE:
        return ldl.And(pos, ldl.Not(neg))
    if state is RVState.PERM_FALSE:
        return ldl.And(neg, ldl.Not(pos))
    msg = f"not an RV state: {state!r}"
    raise ValueError(msg)


def rv_family(formula: ldl.Ldlf, alphabet: Alphabet) -> dict:
    """The four same-shaped automata behind the RV characterization:
    the property, its negation, and their prefix closures.

    Built by flipping finals on one automaton, so the transition
    structure is literally shared and the identity is a shape bijection.
    """
    base = determinize(ldlf_to_nfa(formula, alphabet))
    negated = complement(base)
    return {
        "formula": base,
        "negation": negated,
        "pref_formula": prefix_closure(base),
        "pref_negation": prefix_closure(negated),
    }


def shape_equivalent(a, b):
    """A bijection between states preserving the initial state and the
    transition relation in both directions (acceptance is ignored), or
    None when there is none.

    Deterministic automata admit at most one candidate, found by
    propagation from the initial states; nondeterministic ones fall
    back to a backtracking search.
    """
    if a.alphabet != b.alphabet:
        return None
    if a.n_states != b.n_states:
        return None
    letters = a.alphabet.letters()
    if isinstance(a, Dfa) and isinstance(b, Dfa):
        mapping = {a.initial: b.initial}
        queue = [a.initial]
        while queue:
            sa = queue.pop()
            sb = mapping[sa]
            row_a = a.transitions.get(sa, {})
            row_b = b.transitions.get(sb, {})
            if set(row_a) != set(row_b):
                return None
            for letter in row_a:
                ta, tb = row_a[letter], row_b[letter]
                known = mapping.get(ta)
                if known is None:
                    mapping[ta] = tb
                    queue.append(ta)
                elif known != tb:
                    return None
        if len(mapping) != a.n_states or len(set(mapping.values())) != a.n_states:
            # Unreachable states exist; require both sides to have the
            # same number of them and no way to tell them apart beyond
            # the reachable part, then extend by the nondeterministic
            # search below.
            return _shape_search(a, b, letters, mapping)
        return mapping if _check_shape(a, b, mapping) else None
    return _shape_search(a, b, letters, {a.initial: b.initial})


def _edges_by_state(aut):
    out: dict = {}
    rev: dict = {}
    for state, letter, target in aut.triples():
        out.setdefault(state, {}).setdefault(letter, set()).add(target)
        rev.setdefault(target, {}).setdefault(letter, set()).add(state)
    return out, rev


def _signature(edges_out, edges_in, state, letters):
    return (
        tuple(len(edges_out.get(state, {}).get(l, ())) for l in letters),
        tuple(len(edges_in.get(state, {}).get(l, ())) for l in letters),
    )


def _shape_search(a, b, letters, seed):
    out_a, in_a = _edges_by_state(a)
    out_b, in_b = _edges_by_state(b)
    sig_b: dict = {}
    for state in range(b.n_states):
        sig_b.setdefault(_signature(out_b, in_b, state, letters), []).append(state)

    order = sorted(set(range(a.n_states)) - set(seed))
    mapping = dict(seed)
    used = set(mapping.values())

    def consistent(sa, sb):
        for letter, targets in out_a.get(sa, {}).items():
            imaged = out_b.get(sb, {}).get(letter, set())
            for t in targets:
                if t in mapping and mapping[t] not in imaged:
                    return False
        for letter, sources in in_a.get(sa, {}).items():
            imaged = in_b.get(sb, {}).get(letter, set())
            for s in sources:
                if s in mapping and mapping[s] not in imaged:
                    return False
        return True

    def backtrack(k):
        if k == len(order):
            return _check_shape(a, b, mapping)
        sa = order[k]
        for sb in sig_b.get(_signature(out_a, in_a, sa, letters), ()):
            if sb in used:
                continue
            if not consistent(sa, sb):
                continue
            mapping[sa] = sb
            used.add(sb)
            if backtrack(k + 1):
                return True
            del mapping[sa]
            used.discard(sb)
        return False

    if not consistent(a.initial, seed[a.initial]):
        return None
    return dict(mapping) if backtrack(0) else None


def _check_shape(a, b, mapping) -> bool:
    """Full verification of the three bijection conditions."""
    if mapping.get(a.initial) != b.initial:
        return False
    if len(mapping) != a.n_states or len(set(mapping.values())) != b.n_states:
        return False
    edges_a = {(mapping[s], letter, mapping[t]) for s, letter, t in a.triples()}
    return edges_a == set(b.triples())


def colored_isomorphic(a: ColoredDfa, b: ColoredDfa) -> bool:
    """Shape equivalence that additionally preserves acceptance and
    colors (the golden-automaton comparison)."""
    mapping = shape_equivalent(a.dfa, b.dfa)
    if mapping is None:
        return False
    for state, image in mapping.items():
        if (state in a.dfa.finals) != (image in b.dfa.finals):
            return False
        color_a = a.colors[state]
        color_b = b.colors[image]
        value_a = getattr(color_a, "value", color_a)
        value_b = getattr(color_b, "value", color_b)
        if value_a != value_b:
            return False
    return True
