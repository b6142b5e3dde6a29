"""The oracles the tests check the program with.

None of these is part of the program: each is evidence about it.

- ``step`` moves a DFA from a state under one letter, and ``accepts``
  runs a DFA or an NFA over a trace, letter by letter.
- ``is_empty`` asks whether an automaton reaches a final state, by the
  letter-by-letter walk ``reference_product.reachable``.
- ``language_equal`` walks the letter-by-letter ``tuple_product`` of two
  DFAs and compares the components' finality in every reached pair, so
  it shares no code with the class-level constructions it checks.
- ``rv_family`` builds the four same-shaped automata behind the RV
  characterization, and ``colored_isomorphic`` compares a compiled
  monitor with a golden one up to renumbering, through the bijection
  search of ``monitor.shape_equivalent``.
- ``is_nnf`` checks that ``to_nnf``'s output is in negation normal form.
- ``trace_from_props`` builds traces from per-step prop sets, and
  ``rv_state_oracle`` classifies a trace into an RV state by evaluating
  the formula (``semantics.eval_ldlf``) on its continuations.
- ``monolithic_dfa`` compiles a formula as one automaton, the route
  ``compile_dfa`` takes for a formula that is no Boolean chain.
- ``colored_json`` renders a DFA with the colors ``color`` gives any
  DFA, and ``monitor_json`` a monitor with the colors it holds, so a
  built monitor compares byte for byte with a reference compile.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from ldlmon.automata import (
    ColoredDfa,
    Dfa,
    aut_to_json,
    color,
    complement,
    determinize,
    ldlf_to_nfa,
    minimize,
    prefix_closure,
)
from ldlmon.monitor import _bijection
from ldlmon.rv import RVState
from ldlmon.semantics import Trace, eval_ldlf
from ldlmon.syntax import Alphabet, ldl

from reference_product import reachable, tuple_product
from genformulas import column_of


def step(dfa: Dfa, state: int, letter: frozenset) -> int:
    """The DFA's successor of a state under a letter; a letter outside
    the alphabet raises ValueError."""
    dfa.alphabet.check_letter(letter)
    return dfa.transitions[state][column_of(dfa, letter)]


def accepts(aut, trace) -> bool:
    """Run the automaton over a trace (DFA walk or NFA subset walk)."""
    if isinstance(aut, Dfa):
        state = aut.initial
        for letter in trace:
            state = step(aut, state, frozenset(letter))
        return state in aut.finals
    current = {aut.initial}
    for letter in trace:
        letter = frozenset(letter)
        aut.alphabet.check_letter(letter)
        column = column_of(aut, letter)
        current = {target for state in current for target in aut.transitions[state][column]}
        if not current:
            return False
    return bool(current & aut.finals)


def is_empty(aut) -> bool:
    """Whether the automaton accepts no trace at all."""
    return not (reachable(aut, aut.initial) & aut.finals)


def language_equal(a: Dfa, b: Dfa) -> bool:
    """Exact language equality: every pair of states the two DFAs reach
    together is final in both or in neither."""
    _, pairs = tuple_product((a, b))
    return all((p in a.finals) == (q in b.finals) for p, q in pairs)


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


def colored_isomorphic(a: ColoredDfa, b: ColoredDfa) -> bool:
    """Shape equivalence that additionally preserves acceptance and
    colors (the golden-automaton comparison): the search only places a
    state on one with the same finality and color."""

    def labels(c):
        return [(s in c.dfa.finals, rv) for s, rv in enumerate(c.colors)]

    return _bijection(a.dfa, b.dfa, labels(a), labels(b)) is not None


def monolithic_dfa(formula: ldl.Ldlf, alphabet: Alphabet) -> Dfa:
    return minimize(determinize(ldlf_to_nfa(formula, alphabet)))


def colored_json(dfa: Dfa) -> str:
    return aut_to_json(dfa, color(dfa).colors)


def monitor_json(monitor) -> str:
    return aut_to_json(monitor.dfa, monitor.colors)


def is_nnf(f: ldl.Ldlf) -> bool:
    """True when negation survives only inside propositional guards."""
    return not any(isinstance(n, ldl.Not) for n in ldl.subterms(f))


def trace_from_props(steps: Iterable[Iterable[str]]) -> Trace:
    """Build a trace from per-step collections of true propositions."""
    return tuple(frozenset(step) for step in steps)


def rv_state_oracle(
    trace: Sequence[frozenset],
    f: ldl.Ldlf,
    alphabet: Alphabet,
    horizon: int,
) -> RVState:
    """Classify the trace into one of the four RV states by brute force.

    Continuations up to ``horizon`` further steps are enumerated
    breadth-first over the alphabet's letters.  The answer is exact
    whenever some continuation of at most that length can flip the
    verdict if any continuation at all can; for a property whose minimal
    DFA has k states a horizon of k suffices.
    """
    if horizon < 0:
        msg = f"negative horizon: {horizon}"
        raise ValueError(msg)
    base = tuple(trace)
    satisfied = eval_ldlf(base, 0, f)
    letters = alphabet.letters()
    frontier = [base]
    for _ in range(horizon):
        extended = []
        for prefix in frontier:
            for letter in letters:
                candidate = prefix + (letter,)
                if eval_ldlf(candidate, 0, f) != satisfied:
                    return RVState.classify(satisfied, changeable=True)
                extended.append(candidate)
        frontier = extended
    return RVState.classify(satisfied, changeable=False)
