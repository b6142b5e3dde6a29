"""Compiling LDLf formulas into finite automata, plus the automata algebra.

The construction works on formulas in negation normal form.  For a
formula and a letter, ``delta`` returns the minimal models of its
one-step obligations: sets of (quoted) subformulas that must hold over
the rest of the trace, none containing another.  Each model is a
macro-state of the NFA; the successors of a macro-state under a letter
are the minimal models of its members' conjoined ``delta``.  The empty
macro-state carries no obligation, accepts everything, and is absorbing.

``delta`` has one rule per path kind for both modalities: each box rule
is the dual of the diamond rule, and the table ``_MODALITIES`` holds
what the two differ in.  A star formula unfolds into its argument and
into its body continued by the star formula itself.  ``delta`` carries
the tuple of star formulas it unfolded without consuming a letter;
reaching one again re-enters its loop on the empty word, a miss under a
diamond (a least fixpoint) and satisfied under a box (a greatest
fixpoint).  The paper marks these loops with marker atoms instead.

Acceptance of a macro-state asks whether every obligation in it is
satisfied by the empty remainder: its ``delta`` under EPSILON, with the
step base cases at their out-of-trace values, is ``TRUE_MODELS``.

Letters are the alphabet's interpretations, 2^n of them for n props,
but an automaton over a prop alphabet reads only its support: the props
its formula's guards name, in alphabet order.  Every automaton stores
one transition table, a tuple of rows, one per state, with one cell per
letter over its support in ``alphabet.letters_over(support)`` order, so
a formula over 3 of 20 props has rows of 8 cells.  Over a task alphabet
the support is every task, and the rows follow ``alphabet.letters()``.
A DFA's cell is one target, and every DFA is total: building a ``Dfa``
with an empty cell is an error.  An NFA's cell is a set of targets,
empty where there is none.

The constructions do their work once per letter class, a set of
letters over the support that behave the same way.  ``delta`` reads a
letter only through guard atoms, so the NFA stage, ``_nfa_classes``,
groups the letters over the support by their intersection with the
formula's atoms and walks each obligation once, under the first
letters of all classes and EPSILON (``deltas``), for its successors and
its acceptance together.  The NFA route of ``compile_dfa`` keeps those
class rows through the subset construction (``_subsets``) into
``_moore``, which spreads them over the support's letters once;
``_diamond_after`` runs the same two stages on an NFA it joins from two
DFAs, and ``ldlf_to_nfa``, ``determinize`` and ``minimize`` are
adapters over them.  ``determinize`` and ``minimize`` take the classes
from the automaton itself (``letter_classes``: columns whose successors
agree from every state), and ``product_fold`` and ``_diamond_after``
from the tuples of their operands' columns, each operand read over the
union of their supports (``_lifted``: a column over the union reads the
column of its letter's props in the operand's support).  A class's
successor is computed from its first letter.

One breadth-first explorer, ``_explore``, holds the numbering policy of
the constructions (``_nfa_classes``, ``_subsets``, ``product_fold``,
``_moore``, ``rename_columns``): it visits states in discovery order,
takes their cells class by class in the order of each class's first
letter, numbers a successor the first time it is seen, and keeps one
cell per class.
States are therefore discovered, and numbered, exactly as a
letter-by-letter walk over every letter would: the first letter of a
class over all 2^n letters holds no prop outside the support, so the
classes come in the same order.  ``_automaton`` builds every result
from the walk's keys and writes each class's cell into the column of
every letter in it.  ``_partition``, which groups keys by first
occurrence, forms the letter classes and is also the refinement step of
``_moore``, which ``minimize``, the NFA route, ``product_fold`` (one
walk over the tuples of its operands' states for a whole chain) and
``_diamond_after`` run.

No construction or printer lists the alphabet's letters: a printed
guard reads a row over the support (``guards_by_target``).  Only the
code that lists them reads a table through the projection,
``_Automaton.columns()`` (every letter mapped to its column, one map per
support, kept by the alphabet: ``Alphabet.columns_over``): ``edges`` and
``triples``, ``aut_to_json``, the monitor's event map and forbidden
table, and ``shared_columns``, which reads the tables of a lockstep of
monitors over the union of their supports.
``Alphabet.letters_over`` refuses more than ``MAX_PROPS`` props, so an
alphabet too wide to list fails there, or where a support or a union of
supports is that wide.

``color`` gives each state of any DFA the RV state shared by every
trace reaching it, from the prefix closures pref(f) and pref(!f): two
backward walks.  A minimal DFA, as ``compile_dfa`` and ``product_fold``
return, merges the states of each permanent verdict into one absorbing
state, so ``color_minimal`` reads its colors off the rows.
``ColoredDfa.where`` reads languages back off the colors, and
``accepting`` minimizes them: pref(f) is every color but permanently
violated, pref(!f) every color but permanently satisfied.
"""
from __future__ import annotations

import functools
import json
import operator
from collections import deque
from itertools import chain, compress, repeat, starmap
from typing import NamedTuple

from .rv import RVState
from .syntax import ldl
from .syntax.alphabet import Alphabet, lift
from .syntax.base import chain_operands
from .syntax.ldl import print_ldlf
from .syntax.props import (
    FALSE,
    TRUE,
    Atom,
    Prop,
    PropAnd,
    PropNot,
    PropOr,
    eval_prop,
    print_prop,
)
from .syntax.transforms import negate, to_nnf

EPSILON = None

TRUE_MODELS = (frozenset(),)
FALSE_MODELS = ()


def models_and(a: tuple, b: tuple) -> tuple:
    """Minimal models of a conjunction: the pruned pairwise unions."""
    if not a or not b:
        return FALSE_MODELS
    if a == TRUE_MODELS:
        return b
    if b == TRUE_MODELS:
        return a
    return _prune([x | y for x in a for y in b])


def models_or(a: tuple, b: tuple) -> tuple:
    """Minimal models of a disjunction: the pruned models of both."""
    if a == TRUE_MODELS or b == TRUE_MODELS:
        return TRUE_MODELS
    if not a:
        return b
    if not b:
        return a
    return _prune(a + b)


def _prune(candidates) -> tuple:
    kept: list[frozenset] = []
    for cand in sorted(set(candidates), key=len):
        if not any(prev <= cand for prev in kept):
            kept.append(cand)
    return tuple(kept)


def _emit(f: ldl.Ldlf) -> tuple:
    """The one model that quotes a continuation obligation."""
    if isinstance(f, ldl.Tt):
        return TRUE_MODELS
    if isinstance(f, ldl.Ff):
        return FALSE_MODELS
    return (frozenset((f,)),)


# What the rules of the two modalities differ in; see ``delta``.
_MODALITIES = {
    ldl.Diamond: (models_or, models_and, lambda c: c, FALSE_MODELS),
    ldl.Box: (models_and, models_or, negate, TRUE_MODELS),
}


def delta(f: ldl.Ldlf, letter) -> tuple:
    """Minimal models of f's one-step obligations under a letter (or
    EPSILON), in no particular order: ``TRUE_MODELS`` when nothing is
    left to satisfy, ``FALSE_MODELS`` when f fails on this letter.

    Each path kind has one rule for both modalities; ``_MODALITIES`` holds
    what a box differs in from its dual diamond: ``models_and`` for
    ``models_or`` on alternatives and star unfoldings and the other way
    round on tests, whose condition it negates, and ``TRUE_MODELS`` for
    ``FALSE_MODELS`` on an unmatched step and on a re-entered loop.
    The rules live in ``deltas``, which this runs on one letter.
    Pre: f is in negation normal form.
    """
    return deltas(f, (letter,))[0]


def deltas(f: ldl.Ldlf, letters, unfolding: tuple = ()) -> list:
    """``delta`` of f under each of ``letters`` in one walk, a rule's
    transient nodes built once for all; the NFA stage passes its class
    letters and EPSILON last, for successors and acceptance at once.
    ``unfolding`` holds the star formulas unfolded on the current path
    without consuming a letter; a test's condition is a subterm of the
    path and cannot reach them, so it starts with an empty tuple."""
    if isinstance(f, ldl.Tt):
        return [TRUE_MODELS] * len(letters)
    if isinstance(f, ldl.Ff):
        return [FALSE_MODELS] * len(letters)
    if isinstance(f, (ldl.And, ldl.Or)):
        both = deltas(f.left, letters, unfolding), deltas(f.right, letters, unfolding)
        return list(map(models_and if isinstance(f, ldl.And) else models_or, *both))
    modality = type(f)
    duals = _MODALITIES.get(modality)
    if duals is not None:
        join, meet, condition, miss = duals
        path, arg = f.path, f.arg
        if isinstance(path, ldl.Step):
            hit, guard = _emit(arg), path.guard
            return [miss if l is EPSILON or not eval_prop(guard, l) else hit for l in letters]
        if isinstance(path, ldl.Test):
            both = deltas(condition(path.cond), letters), deltas(arg, letters, unfolding)
            return list(map(meet, *both))
        if isinstance(path, ldl.Alt):
            left, right = modality(path.left, arg), modality(path.right, arg)
            both = deltas(left, letters, unfolding), deltas(right, letters, unfolding)
            return list(map(join, *both))
        if isinstance(path, ldl.Seq):
            return deltas(modality(path.left, modality(path.right, arg)), letters, unfolding)
        if isinstance(path, ldl.Star):
            if f in unfolding:
                return [miss] * len(letters)
            again = deltas(modality(path.body, f), letters, unfolding + (f,))
            return list(map(join, deltas(arg, letters, unfolding), again))
    if isinstance(f, ldl.Not):
        msg = "delta needs a formula in negation normal form"
        raise ValueError(msg)
    msg = f"not a plain LDLf formula: {f!r}; compile RV nodes through metaconstraints.expand"
    raise TypeError(msg)


class _Automaton:
    """The record an ``Nfa`` and a ``Dfa`` share.  States are dense
    integers; ``support`` holds the props the rows read, in alphabet
    order (every prop when not given, and always every task of a task
    alphabet), and ``transitions[state][column]`` holds a state's
    successors under the letter in that column of
    ``alphabet.letters_over(support)``.  ``labels`` optionally carries a
    debugging name per state (the macro-state content for compiled
    formulas)."""

    def __init__(self, alphabet: Alphabet, n_states: int, initial: int,
                 transitions: tuple, finals: frozenset, labels: tuple = (), support=None):
        self.alphabet, self.n_states, self.initial = alphabet, n_states, initial
        self.transitions, self.finals, self.labels = transitions, finals, labels
        self.support = alphabet.props if support is None else support

    def __eq__(self, other):
        return type(self) is type(other) and vars(self) == vars(other)

    def columns(self) -> dict:
        """Every letter of the alphabet, in ``alphabet.letters()`` order,
        mapped to the column of the rows that reads it: the column of its
        props in the support (``alphabet.columns_over``, one map per
        support)."""
        return self.alphabet.columns_over(self.support)

    def triples(self):
        for state in range(self.n_states):
            for letter, target in self.edges(state):
                yield state, letter, target

    def with_finals(self, finals):
        """The automaton with other finals and this one's table, not checked again."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, finals=frozenset(finals))
        return copy


class Nfa(_Automaton):
    """A nondeterministic finite automaton over an alphabet's letters:
    each cell of ``transitions`` is the frozenset of successors, empty
    when there is none."""

    def edges(self, state: int):
        """The (letter, target) pairs leaving a state, in letter order and
        then target order."""
        row = self.transitions[state]
        for letter, column in self.columns().items():
            for target in sorted(row[column]):
                yield letter, target

    def targets(self, state: int) -> frozenset:
        """The distinct successors of a state under any letter."""
        return frozenset().union(*self.transitions[state])


class Dfa(_Automaton):
    """A total deterministic automaton over an alphabet's letters.

    Each cell of ``transitions`` is one successor, so a step is one
    column lookup and one tuple index.  Every cell holds a target: a
    ``None`` cell is a ``ValueError`` when the DFA is built;
    ``with_finals`` carries a checked table over.
    """

    def __init__(self, *fields, **named):
        super().__init__(*fields, **named)
        for state, row in enumerate(self.transitions):
            if None in row:
                letter = sorted(self.alphabet.letters_over(self.support)[row.index(None)])
                msg = f"a DFA needs a target in every cell: state {state} has none under {letter}"
                raise ValueError(msg)

    def edges(self, state: int):
        """The (letter, target) pairs leaving a state, in letter order."""
        columns = self.columns()
        return zip(columns, map(self.transitions[state].__getitem__, columns.values()))

    def targets(self, state: int) -> frozenset:
        """The distinct successors of a state under any letter."""
        return frozenset(self.transitions[state])


def ldlf_to_nfa(formula: ldl.Ldlf, alphabet: Alphabet) -> Nfa:
    """Compile an LDLf formula into an NFA accepting exactly its traces.

    The formula is normalized first.  Successor states under each letter
    are the minimal obligation sets; keeping only minimal models keeps
    the automaton small without changing its language.  They are
    computed once per letter class (``_nfa_classes``).
    """
    support, order, rows, class_of, accepts = _nfa_classes(formula, alphabet)
    return _automaton(
        Nfa, alphabet, support, order, rows, class_of, accepts,
        lambda macro: " & ".join(sorted(map(print_ldlf, macro))) if macro else "{}",
    )


def _nfa_classes(formula: ldl.Ldlf, alphabet: Alphabet):
    """``ldlf_to_nfa``'s support, states and class rows: the props the
    formula reads (every task of a task alphabet), the macro-states in
    state order, one row per state with one cell per class of letters
    over the support that agree on the formula's atoms, every such
    letter's class, and whether a macro-state accepts.

    Each obligation is walked once, under the first letter of every
    class and EPSILON last, for its successors and its acceptance; a cell
    of two or more models sorts them by keys computed once per compile."""
    normalized = to_nnf(formula)
    atoms = ldl.formula_atoms(normalized)
    support = alphabet.props if alphabet.singleton_letters else tuple(
        p for p in alphabet.props if p in atoms)
    letters = alphabet.letters_over(support)
    firsts, class_of = _partition([letter & atoms for letter in letters])
    walk_letters = [letters[column] for column in firsts] + [EPSILON]
    walk = functools.cache(lambda member: deltas(member, walk_letters))
    model_key = functools.cache(lambda model: (len(model), sorted(map(print_ldlf, model))))

    def cells(macro, ident):
        by_class = [TRUE_MODELS] * len(firsts)
        for member in macro:
            by_class = list(map(models_and, by_class, walk(member)))
        return [frozenset(map(ident, models if len(models) < 2 else sorted(models, key=model_key)))
                for models in by_class]

    def at_end(member) -> bool:
        result = walk(member)[-1]
        if result == TRUE_MODELS or result == FALSE_MODELS:
            return bool(result)
        raise AssertionError(f"empty-remainder evaluation did not reach a constant: {member!r}")

    order, rows = _explore(frozenset((normalized,)), cells)
    if frozenset() not in order:
        rows.append([frozenset((len(order),))] * len(firsts))
        order.append(frozenset())
    return support, order, rows, class_of, lambda macro: all(map(at_end, macro))


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction.  The result is total: letters with no
    successor lead to the empty subset, a rejecting sink."""
    firsts, class_of = letter_classes(nfa)
    order, rows = _subsets([[row[c] for c in firsts] for row in nfa.transitions], (nfa.initial,))
    return _automaton(Dfa, nfa.alphabet, nfa.support, order, rows, class_of,
                      nfa.finals.intersection, _label)


def _subsets(rows, start):
    """The subset construction over class rows (cells are sets of
    states): the subsets reachable from the set of the states ``start``
    in ``_explore`` order, and their class rows."""
    blank = [()] * len(rows[0])

    def cells(subset, ident):
        columns = zip(*map(rows.__getitem__, subset)) if subset else blank
        return [ident(frozenset().union(*column)) for column in columns]

    return _explore(frozenset(start), cells)


def _label(subset) -> str:
    return "{" + ",".join(map(str, sorted(subset))) + "}"


def _nfa_route(formula: ldl.Ldlf, alphabet: Alphabet) -> Dfa:
    """``minimize(determinize(ldlf_to_nfa(formula, alphabet)))``, labels
    included, on the NFA's class rows throughout: ``_moore`` spreads
    them over the letters once, for the minimal DFA."""
    support, order, rows, class_of, accepts = _nfa_classes(formula, alphabet)
    finals = list(map(accepts, order))
    subsets, rows = _subsets(rows, (0,))
    accepting = [any(map(finals.__getitem__, subset)) for subset in subsets]
    return _moore(alphabet, support, rows, accepting, class_of, lambda i: _label(subsets[i]))


def letter_classes(aut):
    """Group the columns that no state of the automaton tells apart: the
    successor from every state is identical.

    Returns the first column of each class, classes in the order of their
    first column, and the class index of every column.
    """
    return _partition(zip(*aut.transitions))


def _partition(keys):
    """Classes of columns with equal keys (one key per column): each
    class's first column, and every column's class."""
    index: dict = {}
    firsts = []
    class_of = []
    for column, k in enumerate(keys):
        c = index.setdefault(k, len(firsts))
        if c == len(firsts):
            firsts.append(column)
        class_of.append(c)
    return firsts, class_of


def _explore(start, cells):
    """Number the states reachable from ``start`` breadth first, in the
    order they are discovered, and build their rows.

    States are named by hashable keys.  ``cells(key, ident)`` gives the
    state's cells, one per letter class with classes in the order of
    their first letter; it names each successor through ``ident``, which
    numbers a key the first time it is seen.  Returns the keys in state
    order and the list of their class rows.
    """
    ids = {start: 0}
    order = [start]

    def ident(key) -> int:
        state = ids.get(key)
        if state is None:
            state = ids[key] = len(order)
            order.append(key)
        return state

    rows = []
    # ``order`` grows as ``ident`` discovers states, so this walk is the
    # FIFO queue: it ends once every discovered state has its row.
    for key in order:
        rows.append(cells(key, ident))
    return order, rows


def _automaton(kind, alphabet, support, order, rows, class_of, final, label=None):
    """The ``Nfa`` or ``Dfa`` (``kind``) over ``support`` whose state i is
    the key ``order[i]`` of an ``_explore`` walk, with class row
    ``rows[i]`` spread over the letters of the support (``class_of``:
    every such letter's class): initial state 0, final when
    ``final(key)``, labelled ``label(key)``, and unlabelled without
    ``label``."""
    spread = operator.itemgetter(*class_of) if len(class_of) > 1 else tuple
    return kind(
        alphabet=alphabet,
        n_states=len(order),
        initial=0,
        transitions=tuple(map(spread, rows)),
        finals=frozenset(compress(range(len(order)), map(final, order))),
        labels=tuple(map(label, order)) if label else (),
        support=support,
    )


def _lifted(alphabet, tables, supports):
    """The union of the supports of some tables over ``alphabet``, in
    alphabet order (every prop when there are none), and each table over
    it: a table over a smaller support is read through ``lift``, one
    over the union is kept as it is."""
    union = supports[0] if supports else alphabet.props
    if supports.count(union) == len(supports):
        return union, tables
    props = set().union(*supports)
    union = tuple(p for p in alphabet.props if p in props)
    return union, [table if support == union else
                   tuple(map(operator.itemgetter(*lift(support, union)), table))
                   for table, support in zip(tables, supports)]


def shared_columns(alphabet: Alphabet, tables, supports) -> tuple:
    """Tables over ``alphabet`` (rows over their ``supports``) read over
    the union of their supports, and every letter's column there: one
    column lookup per letter serves them all.  Tables over one support,
    as every table over a task alphabet is, come back as they are.  The
    map is the alphabet's for the union (``columns_over``), which a
    product of the tables' automata reads too."""
    union, tables = _lifted(alphabet, tables, supports)
    return tables, alphabet.columns_over(union)


def complement(dfa: Dfa) -> Dfa:
    """Flip acceptance."""
    return dfa.with_finals(frozenset(range(dfa.n_states)) - dfa.finals)


def product_fold(dfas, disjunction: bool = False) -> Dfa:
    """Minimal DFA of the conjunction (with ``disjunction``, the
    disjunction) of one or more DFAs: one ``_explore`` over the tuples of
    their states on the joint letter classes, then one ``_moore``.  Every
    tuple with a component in an absorbing state that decides the result
    alone (rejecting for a conjunction, accepting for a disjunction) is
    one key, the first such tuple found; each operand state's mask marks
    the classes that lead it there, and an operand without a final state
    (for a disjunction, with only final ones) settles it before any walk.  A state's label
    ``(q1,...,qn)`` holds the operands' states in its block's first tuple.
    One DFA comes back as is; none, or mixed alphabets, is a ValueError."""
    dfas = tuple(dfas)
    if not dfas:
        msg = "a product of no automata: a model needs at least one constraint"
        raise ValueError(msg)
    if len(dfas) == 1:
        return dfas[0]
    tables, start, finals, alphabets, supports = zip(*map(operator.attrgetter(
        "transitions", "initial", "finals", "alphabet", "support"), dfas))
    if alphabets.count(alphabets[0]) < len(dfas):
        msg = "product needs automata over the same alphabet"
        raise ValueError(msg)
    label = ("(" + ",".join(["{}"] * len(dfas)) + ")").format
    union, tables = _lifted(alphabets[0], tables, supports)
    if any(len(accept) == len(table) if disjunction else not accept
           for table, accept in zip(tables, finals)):  # a constant operand settles it
        return Dfa(alphabets[0], 1, 0, ((0,) * len(tables[0][0]),),
                   frozenset((0,) if disjunction else ()), (label(*start),), union)
    firsts, class_of = _partition(zip(*starmap(zip, tables)))
    pick = operator.itemgetter(*firsts) if len(firsts) > 1 else operator.itemgetter(slice(1))
    bits = [1 << c for c in range(len(firsts))]
    masks, settled = [], {}  # settled[0]: the first tuple found with a deciding component
    for k, (table, accept) in enumerate(zip(tables, finals)):
        deciding = {q for q, row in enumerate(table)
                    if row.count(q) == len(row) and (q in accept) == disjunction}
        if deciding:  # a mask per state: one bit per class whose target is deciding
            masks.append((k, [sum(compress(bits, map(deciding.__contains__, pick(row))))
                              for row in table]))
        if start[k] in deciding:
            settled[0] = start

    def cells(key, ident):
        targets = zip(*map(pick, map(operator.getitem, tables, key)))
        mask = 0
        for k, states in masks:
            mask |= states[key[k]]
        if mask:
            targets = [settled.setdefault(0, t) if mask & bit else t
                       for t, bit in zip(targets, bits)]
        return list(map(ident, targets))

    order, rows = _explore(start, cells)
    join = any if disjunction else all
    accepting = [join(map(operator.contains, finals, key)) for key in order]
    return _moore(alphabets[0], union, rows, accepting, class_of, lambda i: label(*order[i]))


def compile_dfa(formula: ldl.Ldlf, alphabet: Alphabet, memo: dict | None = None) -> Dfa:
    """The minimal DFA of an LDLf formula.

    Boolean structure at the top is compiled compositionally: a negation
    complements its argument's DFA, and a chain of conjunctions (or
    disjunctions) is flattened without recursion into one product of the
    operands' DFAs (``product_fold``).  Anything else goes through the NFA
    construction and the subset construction.  Minimal DFAs are unique
    and ``minimize`` numbers states canonically, so the tables are the
    same whichever way they were built; only the debug labels differ.

    ``memo`` maps ``("dfa", formula, alphabet)`` to the DFA already built
    for a formula that takes the NFA route, and only such formulas are
    looked up there, so none is recompiled.  One build (a model monitor,
    a CLI command) passes the same dict to all its calls and drops it
    when done, so each distinct subformula is compiled once per build; a
    call without one gets its own.

    The formula is plain LDLf: one with RV atoms or paths compiles as
    ``compile_dfa(metaconstraints.expand(f, alphabet, memo), alphabet,
    memo)``, and an RV node that reaches the construction is a
    ``TypeError``.
    """
    if memo is None:
        memo = {}
    if isinstance(formula, ldl.Not):
        return complement(compile_dfa(formula.arg, alphabet, memo))
    if isinstance(formula, (ldl.And, ldl.Or)):
        kind = type(formula)
        operands = chain_operands(formula, kind)
        return product_fold((compile_dfa(f, alphabet, memo) for f in operands), kind is ldl.Or)
    key = ("dfa", formula, alphabet)
    dfa = memo.get(key)
    if dfa is None:
        dfa = memo[key] = _nfa_route(formula, alphabet)
    return dfa


def _diamond_after(colored: ColoredDfa, state: RVState, then: Dfa) -> Dfa:
    """``<RvPath(f, state)>g`` from f's colored DFA and g's DFA ``then``,
    by one subset construction over their joint letter classes.  The NFA
    holds f's rows, then g's numbered after f's states; a step into color
    ``state``, and a start in it, also starts a g-run.  A subset is final
    where it holds a final state of g."""
    union, (f_rows, g_rows) = _lifted(then.alphabet, (colored.dfa.transitions, then.transitions),
                                      (colored.dfa.support, then.support))
    shift = len(f_rows)
    firsts, class_of = _partition(zip(zip(*f_rows), zip(*g_rows)))
    begun = shift + then.initial
    enter = [frozenset((q, begun) if rv is state else (q,)) for q, rv in enumerate(colored.colors)]
    run = [frozenset((p,)) for p in range(shift, shift + len(g_rows))]
    rows = [[enter[row[column]] for column in firsts] for row in f_rows]
    rows += [[run[row[column]] for column in firsts] for row in g_rows]
    subsets, rows = _subsets(rows, enter[colored.dfa.initial])
    finals = frozenset(shift + p for p in then.finals)
    return _moore(then.alphabet, union, rows, [not finals.isdisjoint(s) for s in subsets],
                  class_of)


def minimize(dfa: Dfa) -> Dfa:
    """Language-minimal equivalent DFA, with states renumbered in
    breadth-first order from the initial state: ``_moore`` on the class
    rows of the reachable states, each block keeping its first state's
    row and label."""
    rows = dfa.transitions
    firsts, class_of = letter_classes(dfa)
    states = sorted(_closure((dfa.initial,), dfa.targets))
    class_rows = [tuple(map(rows[s].__getitem__, firsts)) for s in states]
    if len(states) < len(rows):  # number the reachable states 0..n-1
        index = {s: i for i, s in enumerate(states)}
        class_rows = [tuple(map(index.__getitem__, row)) for row in class_rows]
    finals = [s in dfa.finals for s in states]
    label = (lambda i: dfa.labels[states[i]]) if dfa.labels else None
    return _moore(dfa.alphabet, dfa.support, class_rows, finals, class_of, label,
                  states.index(dfa.initial))


def _moore(alphabet, support, rows, finals, class_of, label=None, initial=None) -> Dfa:
    """The minimal DFA over ``support`` of states ``0..n-1`` (class
    ``rows``, acceptance ``finals``, all reachable from ``initial``) by
    Moore's refinement,
    its blocks numbered breadth first, each with its first state's row,
    acceptance and ``label``.  No ``initial`` means state 0 of rows that
    ``_explore`` numbered, which stay as they are if no states merge."""
    heads, blocks = _partition(finals)
    # A signature is a state's block and its successors', read by one getter
    # per state; one block (all final, or none) and single states stay.
    count, getters = 1, ()
    while count < len(heads) < len(rows):  # until a round splits no block
        count = len(heads)
        getters = getters or list(map(operator.itemgetter, range(len(rows)), *zip(*rows)))
        heads, blocks = _partition(map(operator.itemgetter.__call__, getters, repeat(blocks)))

    def cells(blk, ident):
        return list(map(ident, map(blocks.__getitem__, rows[heads[blk]])))

    if initial is None and len(heads) == len(rows):
        order, transitions = heads, rows
    else:
        order, transitions = _explore(blocks[initial or 0], cells)
    kept = list(map(heads.__getitem__, order))
    return _automaton(Dfa, alphabet, support, kept, transitions, class_of, finals.__getitem__,
                      label)


def _closure(starts, successors) -> frozenset:
    """The states reachable from ``starts`` through ``successors`` (a
    state's next states), starts included: one breadth-first walk."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        for target in successors(queue.popleft()):
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return frozenset(seen)


def prefix_closure(aut):
    """Accept every prefix of an accepted trace: make final all states
    from which a final state is reachable (trivially including finals).

    The transition structure is untouched, so the result has the same
    shape as the input.
    """
    return aut.with_finals(_closure(aut.finals, _predecessors(aut)))


def _predecessors(aut):
    """The reverse adjacency as a function: a state's predecessors under
    any letter."""
    backward: dict = {}
    for state in range(aut.n_states):
        for target in aut.targets(state):
            backward.setdefault(target, set()).add(state)
    return lambda state: backward.get(state, ())


class ColoredDfa(NamedTuple):
    """A DFA with one RV state per automaton state."""

    dfa: Dfa
    colors: tuple

    def where(self, colors) -> Dfa:
        """The DFA with the states of ``colors`` final, not minimized."""
        return self.dfa.with_finals(q for q, rv in enumerate(self.colors) if rv in colors)

    def accepting(self, colors) -> Dfa:
        """``where(colors)``, minimized."""
        return minimize(self.where(colors))


def color(dfa: Dfa) -> ColoredDfa:
    """Color every state of any DFA with its RV state, from the
    states that can reach a final state and those that can reach a
    non-final one: two backward walks over one reverse adjacency."""
    finals = dfa.finals
    backward = _predecessors(dfa)
    can_accept = _closure(finals, backward)
    can_reject = _closure(frozenset(range(dfa.n_states)) - finals, backward)
    colors = tuple(
        RVState.classify(
            state in finals,
            state in (can_reject if state in finals else can_accept),
        )
        for state in range(dfa.n_states)
    )
    return ColoredDfa(dfa=dfa, colors=colors)


def color_minimal(dfa: Dfa) -> ColoredDfa:
    """``color`` for a minimal DFA: there the states that accept every
    continuation (or none) are one state, whose successors are itself,
    so a state is permanent exactly when its row is all itself."""
    return ColoredDfa(dfa, tuple(RVState.classify(q in dfa.finals, row.count(q) < len(row))
                                 for q, row in enumerate(dfa.transitions)))


def rename_columns(colored: ColoredDfa, alphabet: Alphabet, source) -> ColoredDfa:
    """The colored DFA over ``alphabet`` whose column ``j`` copies column
    ``source[j]`` of ``colored``'s table, with the states it reaches
    renumbered breadth first (as ``minimize`` numbers them) and their
    colors carried along.

    The result accepts the traces whose letters, each mapped to its
    source column's letter, ``colored`` accepts.  When ``colored`` is
    minimal and every one of its columns is some column's source, every
    state stays reachable and distinguishable, so the result is the
    minimal DFA of that language, numbered as ``compile_dfa`` numbers it.
    """
    rows = colored.dfa.transitions
    firsts, class_of = _partition(source)
    picks = [source[column] for column in firsts]

    def cells(state, ident):
        row = rows[state]
        return [ident(row[column]) for column in picks]

    order, transitions = _explore(colored.dfa.initial, cells)
    dfa = _automaton(Dfa, alphabet, alphabet.props, order, transitions, class_of,
                     colored.dfa.finals.__contains__)
    return ColoredDfa(dfa, tuple(colored.colors[state] for state in order))


def guard_for_letters(alphabet: Alphabet, support, columns) -> Prop:
    """A guard over ``support`` matched by exactly the letters at
    ``columns`` (increasing) of ``alphabet.letters_over(support)``.

    Tries the readable shapes first (true, a single literal, a
    disjunction of task names) and falls back to a disjunction of
    letter descriptions over the support.  A literal is checked against
    the support's letters; the two disjunctions are exact by construction.
    """
    letters = alphabet.letters_over(support)
    if len(columns) == len(letters):
        return TRUE
    if not columns:
        return FALSE
    wanted = frozenset(columns)
    literals = {p: (Atom(p), PropNot(Atom(p))) for p in support}
    for guard in chain.from_iterable(literals.values()):
        if all(eval_prop(guard, l) == (c in wanted) for c, l in enumerate(letters)):
            return guard
    if alphabet.singleton_letters:
        return functools.reduce(PropOr, map(Atom, sorted(next(iter(letters[c])) for c in columns)))
    return functools.reduce(PropOr, (functools.reduce(
        PropAnd, (literals[p][p not in letters[c]] for p in support)) for c in columns))


def guards_by_target(aut, state: int) -> dict:
    """The columns of a state's row (an NFA's cell target by target)
    grouped by target, each with its guard over the automaton's support;
    targets come in the order of their first column."""
    grouped: dict = {}
    nfa = isinstance(aut, Nfa)
    for column, cell in enumerate(aut.transitions[state]):
        for target in sorted(cell) if nfa else (cell,):
            grouped.setdefault(target, []).append(column)
    return {target: guard_for_letters(aut.alphabet, aut.support, columns)
            for target, columns in grouped.items()}


_DOT_COLORS = {
    RVState.TEMP_TRUE: "#fdb863",
    RVState.TEMP_FALSE: "#80b1d3",
    RVState.PERM_TRUE: "#7fbc41",
    RVState.PERM_FALSE: "#d73027",
}


def to_dot(aut, colors=None) -> str:
    """Graphviz rendering: one edge per target of a state, labelled with
    the guard over the support of the columns that lead there
    (``guards_by_target``), so a label names only props the automaton
    reads.  ``colors``, if given, holds one ``RVState`` per state and
    fills each state with its color."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  hidden [shape=none label=""];']
    for state in range(aut.n_states):
        shape = "doublecircle" if state in aut.finals else "circle"
        attrs = [f"shape={shape}"]
        if colors is not None:
            attrs.append(f'style=filled fillcolor="{_DOT_COLORS[colors[state]]}"')
            attrs.append(f'tooltip="{colors[state].value}"')
        elif aut.labels:
            attrs.append(f'tooltip="{_dot_escape(aut.labels[state])}"')
        lines.append(f"  s{state} [{' '.join(attrs)}];")
    lines.append(f"  hidden -> s{aut.initial};")
    for state in range(aut.n_states):
        for target, guard in sorted(guards_by_target(aut, state).items()):
            label = _dot_escape(print_prop(guard))
            lines.append(f'  s{state} -> s{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def aut_to_json(aut, colors=None) -> str:
    """Stable JSON rendering used for golden files and the CLI.  It is
    an export format: nothing in the package reads it back.  ``colors``,
    if given, holds one ``RVState`` per state, written by its value."""
    payload = {
        "kind": "dfa" if isinstance(aut, Dfa) else "nfa",
        "props": list(aut.alphabet.props),
        "singleton_letters": aut.alphabet.singleton_letters,
        "n_states": aut.n_states,
        "initial": aut.initial,
        "finals": sorted(aut.finals),
        "transitions": [[s, sorted(letter), t] for s, letter, t in aut.triples()],
    }
    if colors is not None:
        payload["colors"] = [rv.value for rv in colors]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
