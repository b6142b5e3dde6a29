"""Seeded random generators shared by the test modules.

Everything takes an explicit ``random.Random`` so failures reproduce
from the seed alone.
"""
from __future__ import annotations

import itertools
import random

from ldlmon.automata import Dfa, Nfa
from ldlmon.syntax import Alphabet, ldl, ltl
from ldlmon.syntax.props import Atom, FALSE, PropAnd, PropNot, PropOr, TRUE
from ldlmon.syntax.transforms import ltlf_to_ldlf

from reference_delta import FalseMark, TrueMark


def random_prop(rng, names, depth=2):
    if depth == 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.08:
            return TRUE
        if roll < 0.14:
            return FALSE
        return Atom(rng.choice(names))
    op = rng.choice(("not", "and", "or"))
    if op == "not":
        return PropNot(random_prop(rng, names, depth - 1))
    left = random_prop(rng, names, depth - 1)
    right = random_prop(rng, names, depth - 1)
    return PropAnd(left, right) if op == "and" else PropOr(left, right)


def random_nnf_ldlf(rng, names, depth=4, star_depth=2):
    """An LDLf formula already in negation normal form."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.12:
            return ldl.TT
        if roll < 0.2:
            return ldl.FF
        if roll < 0.6:
            return ldl.Diamond(ldl.Step(random_prop(rng, names, 1)), ldl.TT)
        return ldl.Box(ldl.Step(random_prop(rng, names, 1)), ldl.FF)
    op = rng.choice(("and", "or", "diamond", "box"))
    if op in ("and", "or"):
        left = random_nnf_ldlf(rng, names, depth - 1, star_depth)
        right = random_nnf_ldlf(rng, names, depth - 1, star_depth)
        return ldl.And(left, right) if op == "and" else ldl.Or(left, right)
    path = random_path(rng, names, depth - 1, star_depth)
    arg = random_nnf_ldlf(rng, names, depth - 1, star_depth)
    return ldl.Diamond(path, arg) if op == "diamond" else ldl.Box(path, arg)


def random_path(rng, names, depth, star_depth, formula=random_nnf_ldlf):
    """A random path; ``formula`` draws the conditions of its tests."""
    if depth == 0 or rng.random() < 0.35:
        return ldl.Step(random_prop(rng, names, 1))
    choices = ["step", "test", "alt", "seq"]
    if star_depth > 0:
        choices.append("star")
    op = rng.choice(choices)
    if op == "step":
        return ldl.Step(random_prop(rng, names, 1))
    if op == "test":
        return ldl.Test(formula(rng, names, depth - 1, star_depth))
    if op == "star":
        return ldl.Star(random_path(rng, names, depth - 1, star_depth - 1, formula))
    left = random_path(rng, names, depth - 1, star_depth, formula)
    right = random_path(rng, names, depth - 1, star_depth, formula)
    return ldl.Alt(left, right) if op == "alt" else ldl.Seq(left, right)


def random_raw_ldlf(rng, names, depth=4, star_depth=2, markers=False):
    """An LDLf formula with negations at any depth, and marker atoms too
    when ``markers`` is set: input for the rewriting transformations."""
    extras = ("not", "true_mark", "false_mark") if markers else ("not",)
    return _random_raw(rng, names, depth, star_depth, extras)


def _random_raw(rng, names, depth, star_depth, extras):
    if depth == 0 or rng.random() < 0.2:
        return random_nnf_ldlf(rng, names, 0)
    op = rng.choice(("and", "or", "diamond", "box") + extras)

    def sub(rng, names, depth, star_depth):
        return _random_raw(rng, names, depth, star_depth, extras)

    if op in ("and", "or"):
        left = sub(rng, names, depth - 1, star_depth)
        right = sub(rng, names, depth - 1, star_depth)
        return ldl.And(left, right) if op == "and" else ldl.Or(left, right)
    if op in ("diamond", "box"):
        path = random_path(rng, names, depth - 1, star_depth, sub)
        arg = sub(rng, names, depth - 1, star_depth)
        return ldl.Diamond(path, arg) if op == "diamond" else ldl.Box(path, arg)
    wrap = {"not": ldl.Not, "true_mark": TrueMark, "false_mark": FalseMark}
    return wrap[op](sub(rng, names, depth - 1, star_depth))


def random_ldlf(rng, names, depth=3, star_depth=1):
    """Like random_nnf_ldlf but sprinkles in negations."""
    f = random_nnf_ldlf(rng, names, depth, star_depth)
    if rng.random() < 0.3:
        return ldl.Not(f)
    return f


def random_boolean_ldlf(rng, names, depth=2):
    """Random LDLf operands under a random boolean top: negations and
    chains of two to four conjuncts or disjuncts, nested either way."""
    if depth == 0 or rng.random() < 0.2:
        return random_ldlf(rng, names)
    op = rng.choice(("and", "or", "not"))
    if op == "not":
        return ldl.Not(random_boolean_ldlf(rng, names, depth - 1))
    build = ldl.And if op == "and" else ldl.Or
    f = random_boolean_ldlf(rng, names, depth - 1)
    for _ in range(rng.randint(1, 3)):
        g = random_boolean_ldlf(rng, names, depth - 1)
        f = build(f, g) if rng.random() < 0.5 else build(g, f)
    return f


def random_ltlf(rng, names, depth=4):
    if depth == 0 or rng.random() < 0.3:
        return ltl.LtlfProp(random_prop(rng, names, 1))
    op = rng.choice(
        ("not", "and", "or", "implies", "iff", "next", "wnext",
         "until", "release", "eventually", "always")
    )
    if op == "not":
        return ltl.LtlfNot(random_ltlf(rng, names, depth - 1))
    if op == "next":
        return ltl.Next(random_ltlf(rng, names, depth - 1))
    if op == "wnext":
        return ltl.WeakNext(random_ltlf(rng, names, depth - 1))
    if op == "eventually":
        return ltl.Eventually(random_ltlf(rng, names, depth - 1))
    if op == "always":
        return ltl.Always(random_ltlf(rng, names, depth - 1))
    left = random_ltlf(rng, names, depth - 1)
    right = random_ltlf(rng, names, depth - 1)
    binary = {
        "and": ltl.LtlfAnd,
        "or": ltl.LtlfOr,
        "implies": ltl.LtlfImplies,
        "iff": ltl.LtlfIff,
        "until": ltl.Until,
        "release": ltl.Release,
    }
    return binary[op](left, right)


def seeded_cases(seed, count, depth=3, star_depth=1):
    """(formula, alphabet) pairs: prop alphabets of 3 to 7 props where the
    formula draws on a random subset of one to three props (so unused
    props sit between used ones), and task alphabets of two to five
    tasks.  ``depth`` bounds the formula, ``star_depth`` the nesting of
    stars in LDLf paths."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 4 == 3:
            tasks = [f"t{j}" for j in range(rng.randint(2, 5))]
            alphabet = Alphabet.tasks(tasks)
            names = rng.sample(tasks, rng.randint(1, len(tasks)))
        else:
            props = [f"p{j}" for j in range(rng.randint(3, 7))]
            alphabet = Alphabet(tuple(props))
            names = rng.sample(props, rng.randint(1, 3))
        if rng.random() < 0.5:
            formula = random_ldlf(rng, names, depth=depth, star_depth=star_depth)
        else:
            formula = ltlf_to_ldlf(random_ltlf(rng, names, depth=depth))
        yield formula, alphabet


def column_rows(alphabet, table, missing=None) -> tuple:
    """The column rows of a hand-written ``{state: {letter: cell}}``
    table: one tuple per state up to the largest one named, cells in
    ``alphabet.letters()`` order, ``missing`` (``frozenset()`` for an
    NFA) where the table names no cell."""
    letters = alphabet.letters()
    return tuple(
        tuple(table.get(state, {}).get(letter, missing) for letter in letters)
        for state in range(max(table) + 1)
    )


def column_of(aut, letter) -> int:
    """The column of the automaton's rows that reads a letter, by its
    definition: bit j set for each prop ``support[j]`` in the letter, or
    the task's own column over a task alphabet.  The tests read rows
    through this, not through the alphabet's ``columns_over``."""
    if aut.alphabet.singleton_letters:
        (task,) = letter
        return aut.alphabet.props.index(task)
    return sum(1 << j for j, p in enumerate(aut.support) if p in letter)


def letter_rows(aut) -> tuple:
    """The automaton's rows spread over every letter of its alphabet, in
    ``alphabet.letters()`` order: its table as one over every prop."""
    columns = [column_of(aut, letter) for letter in aut.alphabet.letters()]
    return tuple(tuple(row[c] for c in columns) for row in aut.transitions)


def edges(aut, state):
    """The (letter, target) pairs leaving a state, in ``alphabet.letters()``
    order and then, in an NFA's cell, target order, read through
    ``column_of``."""
    row = aut.transitions[state]
    for letter in aut.alphabet.letters():
        cell = row[column_of(aut, letter)]
        for target in sorted(cell) if isinstance(aut, Nfa) else (cell,):
            yield letter, target


def triples(aut):
    """The (state, letter, target) edges of the automaton, state by state
    in ``edges`` order."""
    for state in range(aut.n_states):
        for letter, target in edges(aut, state):
            yield state, letter, target


def replace(aut, **changes):
    """``aut``, a DFA or an NFA, with some fields changed, built again
    through its constructor, so a ``Dfa`` checks its table again."""
    return type(aut)(**{**vars(aut), **changes})


def random_dfa(rng, alphabet, max_states=8) -> Dfa:
    n = rng.randint(1, max_states)
    letters = alphabet.letters()
    transitions = {
        s: {letter: rng.randrange(n) for letter in letters} for s in range(n)
    }
    finals = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Dfa(
        alphabet=alphabet,
        n_states=n,
        initial=0,
        transitions=column_rows(alphabet, transitions),
        finals=finals,
    )


def all_traces(alphabet, max_len):
    """Every trace up to the given length, shortest first."""
    letters = alphabet.letters()
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)
