"""Monitoring traces online, and the RV characterization.

A property's monitor is its minimal DFA, kept total (the rejecting sink
is not trimmed away) and colored by ``automata.color_minimal``; a
``Monitor`` of another DFA uses ``automata.color`` (imported here, as
``ColoredDfa`` is).  ``rv_formula`` builds, for each RV state, an LDLf
formula satisfied by exactly the traces the property maps to that
state, from the prefix languages read off the same colors, as regexes.

A ``Monitor`` steps through its DFA's rows as they are, rows over the
DFA's support (the props its formula reads; every task of a task
alphabet).  Its event map, taken when the monitor is built, takes every
letter of the alphabet to the column that reads it, so a step is one
dict lookup and one tuple index.  The alphabet builds that map once per
support (``Alphabet.columns_over``), so monitors over one support share
it.  Over a prop alphabet the map lists all 2^n letters, and it is the
one place a monitor does: an alphabet of more than ``MAX_PROPS`` props
is refused there.

A ``Monitor`` also keeps one forbidden table for the reports that name
what must not come next: per DFA state, the letters whose step leads to
a permanently violated state and the names in them.  An entry is
computed from the colors the first time a report reads its state and
kept from then on, so a report reads stored sets instead of scanning
every letter at every event, and the table never holds more than one
entry per state.  Stepping never touches it, and a build does not fill
it: that would scan every letter of every state of every monitor built,
whether a report ever reads the state or not.

``shape_equivalent`` asks whether two automata share one transition
structure, as the four automata behind the RV characterization do.  It
answers through ``_bijection``, a search that also keeps a label per
state (the tests' colored isomorphism labels states by finality and
color).  The search places the first automaton's states in
breadth-first order from the initial state, columns in
``alphabet.letters()`` order, then the states the walk does not reach,
in numeric order.  A state's candidates are the successors of its
breadth-first parent's image under the parent's letter; an unreached
state takes every unused state.  A candidate must match the state's
label, its successor and predecessor counts per column, and every edge
to or from the states already placed, both ways.  Choice points sit on
an explicit stack, not on Python recursion; a reachable DFA state has
exactly one candidate, so for DFAs the search is one walk.
"""
from __future__ import annotations

from itertools import compress

from .automata import ColoredDfa, color, color_minimal, compile_dfa
from .regexfold import automaton_to_regex
from .rv import SATISFIABLE, VIOLABLE, RVState
from .syntax import ldl
from .syntax.alphabet import Alphabet


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
    return color_minimal(compile_dfa(formula, alphabet))


class Monitor:
    """Online monitor: feed events one at a time, read off the RV state.

    ``table`` is the DFA's own transition table, whose rows read the
    props of its support: ``table[state][column]`` is the successor of
    ``state`` under the letter in that column of
    ``alphabet.letters_over(support)``.  The event map, the DFA's
    ``columns()`` taken here, takes every letter of the alphabet to its
    column, so a step is one dict lookup and one tuple index.  The
    forbidden table (see the module docstring) is filled by
    ``forbidden_at`` as reports read states.
    """

    def __init__(self, automaton):
        colored = automaton if isinstance(automaton, ColoredDfa) else color(automaton)
        self.dfa, self.colors = colored
        self.table = self.dfa.transitions
        self._columns = self.dfa.columns()
        self._forbidden: dict = {}
        self.current = self.dfa.initial

    @classmethod
    def for_formula(cls, formula: ldl.Ldlf, alphabet: Alphabet) -> "Monitor":
        """The monitor of a formula (see ``monitor_automaton``)."""
        return cls(color_minimal(compile_dfa(formula, alphabet)))

    def reset(self):
        self.current = self.dfa.initial

    def step(self, event) -> RVState:
        """Consume one event, a set of names but not text, and return the RV state after it."""
        if event.__class__ is not frozenset:
            if isinstance(event, str):
                msg = f"an event is a set of names, not text: pass frozenset({{{event!r}}})"
                raise TypeError(msg)
            event = frozenset(event)
        column = self._columns.get(event)
        if column is None:
            self.dfa.alphabet.check_letter(event)
        self.current = state = self.table[self.current][column]
        return self.colors[state]

    def current_rv(self) -> RVState:
        return self.colors[self.current]

    def forbidden_at(self, state: int) -> tuple[tuple[frozenset, ...], frozenset]:
        """The forbidden table's entry for ``state``: the letters whose
        step from it leads to a permanently violated state, in letter
        order, and the names they hold.  Computed on first read, then
        kept.  Every PF-colored target counts, so a DFA with several
        permanently violated states gets the same answer as a minimal
        one."""
        entry = self._forbidden.get(state)
        if entry is None:
            colors, columns = self.colors, self._columns
            doomed = [colors[target] is RVState.PERM_FALSE for target in self.table[state]]
            letters = tuple(compress(columns, map(doomed.__getitem__, columns.values())))
            entry = self._forbidden[state] = (letters, frozenset().union(*letters))
        return entry

    def forbidden_symbols(self) -> list:
        """Letters whose next step would make the verdict permanently
        violated, read from the forbidden table's entry for the current
        state.  Naturally empty once permanently satisfied and the full
        letter set once permanently violated."""
        return list(self.forbidden_at(self.current)[0])


def rv_formula(
    formula: ldl.Ldlf, state: RVState, alphabet: Alphabet, memo: dict | None = None
) -> ldl.Ldlf:
    """An LDLf formula satisfied by exactly the traces whose RV state
    for the given property is ``state``.

    Writing pref(f) for the regex of prefixes extendable to a model of
    f, the four characterizations are:

    * temp_true:  f holds and some continuation violates it, i.e.
      ``f && <pref(!f)>end``;
    * temp_false: ``!f && <pref(f)>end``;
    * perm_true:  ``<pref(f)>end && !<pref(!f)>end``;
    * perm_false: ``<pref(!f)>end && !<pref(f)>end``.

    The prefix languages the state needs are read off the colors of the
    property's monitor, compiled through ``memo`` (see ``compile_dfa``).
    """
    if not isinstance(state, RVState):
        msg = f"not an RV state: {state!r}"
        raise ValueError(msg)
    colored = color_minimal(compile_dfa(formula, alphabet, memo))

    def pref(states):
        return ldl.Diamond(automaton_to_regex(colored.accepting(states)), ldl.END)

    if state is RVState.TEMP_TRUE:
        return ldl.And(formula, pref(VIOLABLE))
    if state is RVState.TEMP_FALSE:
        return ldl.And(ldl.Not(formula), pref(SATISFIABLE))
    pos, neg = pref(SATISFIABLE), pref(VIOLABLE)
    if state is RVState.PERM_TRUE:
        return ldl.And(pos, ldl.Not(neg))
    return ldl.And(neg, ldl.Not(pos))


def shape_equivalent(a, b):
    """A bijection between states preserving the initial state and the
    transition relation in both directions (acceptance is ignored), or
    None when there is none.  DFAs, which are total, and NFAs go through
    the one search, ``_bijection``."""
    return _bijection(a, b, (None,) * a.n_states, (None,) * b.n_states)


def _adjacency(aut, labels):
    """Per state, its sorted successors and predecessors per column, and
    its signature: its label and the number of each."""
    columns = aut.alphabet.columns()
    out = [[[] for _ in columns] for _ in range(aut.n_states)]
    into = [[[] for _ in columns] for _ in range(aut.n_states)]
    for state, letter, target in aut.triples():
        out[state][columns[letter]].append(target)
        into[target][columns[letter]].append(state)
    signatures = [
        (label, [*map(len, succ)], [*map(len, pred)])
        for label, succ, pred in zip(labels, out, into)
    ]
    return out, into, signatures


def _bijection(a, b, label_a, label_b):
    """A shape bijection from ``a`` to ``b`` that maps each state to one
    with the same label (``label_a[state] == label_b[image]``), or None;
    the search is described in the module docstring."""
    if a.alphabet != b.alphabet or a.n_states != b.n_states:
        return None
    out_a, in_a, sig_a = _adjacency(a, label_a)
    out_b, in_b, sig_b = _adjacency(b, label_b)
    order, parent = [a.initial], {a.initial: None}
    for state in order:  # the walk reaches the states it appends
        for column, cell in enumerate(out_a[state]):
            for target in cell:
                if target not in parent:
                    parent[target] = state, column
                    order.append(target)
    order += [state for state in range(a.n_states) if state not in parent]

    def candidates(state):
        if state not in parent:
            return iter(range(b.n_states))
        source, column = parent[state]
        return iter(out_b[mapping[source]][column])

    def fits(row_a, row_b):
        return all(
            {mapping[s] for s in cell_a if s in mapping} == {s for s in cell_b if s in inverse}
            for cell_a, cell_b in zip(row_a, row_b)
        )

    mapping, inverse = {}, {}
    stack = [iter((b.initial,))]
    while stack:
        state = order[len(stack) - 1]
        if state in mapping:
            del inverse[mapping.pop(state)]
        for image in stack[-1]:
            if image not in inverse and sig_b[image] == sig_a[state]:
                mapping[state], inverse[image] = image, state
                if fits(out_a[state], out_b[image]) and fits(in_a[state], in_b[image]):
                    break
                del mapping[state], inverse[image]
        else:
            stack.pop()
            continue
        if len(stack) == a.n_states:
            return mapping
        stack.append(candidates(order[len(stack)]))
    return None
