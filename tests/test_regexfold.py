"""Folding automata into regular expressions and the RV regexes."""
import random

import pytest

from ldlmon.automata import determinize, ldlf_to_nfa
from ldlmon.monitor import Monitor, monitor_automaton
from ldlmon.regexfold import (
    EMPTY_RE,
    automaton_to_regex,
    pref_regex,
    ralt,
    regex_for_rv,
    rseq,
    rstar,
)
from ldlmon.rv import RVState
from ldlmon.semantics import trace_from_tasks
from ldlmon.syntax import (
    Alphabet,
    Alt,
    Diamond,
    END,
    EPSILON_PATH,
    Seq,
    Star,
    Step,
    Test as PathTest,
    TT,
    ltlf_to_ldlf,
    parse_ldlf,
    parse_ltlf,
    print_path,
)
from ldlmon.syntax.props import Atom, FALSE, TRUE

from oracles import accepts, language_equal, monolithic_dfa
from genformulas import all_traces, random_dfa, random_ldlf

AB = Alphabet.of("a", "b")
TASKS = Alphabet.tasks(["a", "b"])


def regex_language(regex, alphabet):
    """The DFA of exactly the words the path expression matches."""
    return monolithic_dfa(Diamond(regex, END), alphabet)


# Smart constructors -----------------------------------------------------


def test_sequence_laws():
    a, b = Step(Atom("a")), Step(Atom("b"))
    assert rseq(EPSILON_PATH, a) is a
    assert rseq(a, EPSILON_PATH) is a
    assert rseq(a, b) == Seq(a, b)
    assert rseq(None, a) is None
    assert rseq(a, None) is None


def test_union_laws():
    a, b = Step(Atom("a")), Step(Atom("b"))
    assert ralt(None, a) is a
    assert ralt(a, None) is a
    assert ralt(a, a) == a
    assert ralt(Alt(a, b), b) == Alt(a, b)
    assert ralt(Alt(a, b), Alt(b, a)) == Alt(a, b)


def test_star_laws():
    a = Step(Atom("a"))
    assert rstar(None) == EPSILON_PATH
    assert rstar(EPSILON_PATH) == EPSILON_PATH
    assert rstar(a) == Star(a)
    assert rstar(Star(a)) == Star(a)


def test_distinguished_expressions():
    assert EPSILON_PATH == PathTest(TT)
    assert EMPTY_RE == Step(FALSE)
    eps_only = regex_language(EPSILON_PATH, TASKS)
    assert accepts(eps_only, ())
    assert not accepts(eps_only, trace_from_tasks(["a"]))
    nothing = regex_language(EMPTY_RE, TASKS)
    for trace in all_traces(TASKS, 2):
        assert not accepts(nothing, trace)


# Folding hand-picked automata ------------------------------------------


def test_fold_of_the_empty_language():
    dfa = monolithic_dfa(parse_ldlf("ff", TASKS), TASKS)
    assert automaton_to_regex(dfa) == EMPTY_RE


def test_fold_of_everything():
    dfa = monolithic_dfa(parse_ldlf("tt", TASKS), TASKS)
    assert automaton_to_regex(dfa) == Star(Step(TRUE))


def test_fold_of_the_empty_trace_language():
    dfa = monolithic_dfa(parse_ldlf("end", TASKS), TASKS)
    assert automaton_to_regex(dfa) == EPSILON_PATH


def test_fold_compresses_parallel_letters_into_guards():
    dfa = monolithic_dfa(ltlf_to_ldlf(parse_ltlf("G a", TASKS)), TASKS)
    assert automaton_to_regex(dfa) == Star(Step(Atom("a")))
    assert print_path(automaton_to_regex(dfa)) == "a*"


def test_fold_roundtrips_hand_formulas():
    texts = [
        "a",
        "<a; b>end",
        "<(a + b)*; a>end",
        "<a*>(b && end)",
        "[true*](a -> <true><b>tt)",
        "<true><true>end",
    ]
    for text in texts:
        formula = parse_ldlf(text, AB)
        dfa = monolithic_dfa(formula, AB)
        folded = automaton_to_regex(dfa)
        assert language_equal(regex_language(folded, AB), dfa), text


def test_fold_accepts_nondeterministic_input():
    nfa = ldlf_to_nfa(parse_ldlf("<(a; b)*>end", AB), AB)
    folded = automaton_to_regex(nfa)
    assert language_equal(regex_language(folded, AB), determinize(nfa))


def test_fold_roundtrips_random_automata():
    rng = random.Random(6021)
    for trial in range(30):
        alphabet = TASKS if trial % 2 else AB
        dfa = random_dfa(rng, alphabet, max_states=6)
        folded = automaton_to_regex(dfa)
        assert language_equal(regex_language(folded, alphabet), dfa)


# Prefix regexes ---------------------------------------------------------


def test_pref_regex_of_satisfiable_everywhere_is_everything():
    formula = ltlf_to_ldlf(parse_ltlf("F a", TASKS))
    assert pref_regex(formula, TASKS) == Star(Step(TRUE))


def test_pref_regex_of_always():
    formula = ltlf_to_ldlf(parse_ltlf("G a", TASKS))
    assert pref_regex(formula, TASKS) == Star(Step(Atom("a")))


def test_pref_regex_of_unsatisfiable_is_empty():
    assert pref_regex(parse_ldlf("ff", TASKS), TASKS) == EMPTY_RE


def test_pref_regex_matches_exactly_the_non_doomed_traces():
    rng = random.Random(88)
    for _ in range(12):
        formula = random_ldlf(rng, ("a", "b"), depth=3, star_depth=1)
        colored = monitor_automaton(formula, AB)
        prefixes = regex_language(pref_regex(formula, AB), AB)
        for trace in all_traces(AB, 3):
            monitor = Monitor(colored)
            verdict = monitor.current_rv()
            for letter in trace:
                verdict = monitor.step(letter)
            assert accepts(prefixes, trace) == (verdict is not RVState.PERM_FALSE)


# Regexes for a fixed RV state ------------------------------------------


def test_regex_for_rv_on_eventually():
    formula = ltlf_to_ldlf(parse_ltlf("F a", TASKS))
    still_open = regex_language(regex_for_rv(formula, RVState.TEMP_FALSE, TASKS), TASKS)
    assert accepts(still_open, ())
    assert accepts(still_open, trace_from_tasks(["b", "b"]))
    assert not accepts(still_open, trace_from_tasks(["a"]))
    done = regex_language(regex_for_rv(formula, RVState.PERM_TRUE, TASKS), TASKS)
    assert accepts(done, trace_from_tasks(["a"]))
    assert accepts(done, trace_from_tasks(["b", "a", "b"]))
    assert not accepts(done, ())
    # F a can never be temporarily satisfied or permanently violated.
    for state in (RVState.TEMP_TRUE, RVState.PERM_FALSE):
        empty = regex_language(regex_for_rv(formula, state, TASKS), TASKS)
        for trace in all_traces(TASKS, 3):
            assert not accepts(empty, trace)


def test_regex_for_rv_partitions_every_trace():
    formula = ltlf_to_ldlf(parse_ltlf("G (a -> F b)", TASKS))
    colored = monitor_automaton(formula, TASKS)
    languages = {
        state: regex_language(regex_for_rv(formula, state, TASKS), TASKS)
        for state in RVState
    }
    for trace in all_traces(TASKS, 4):
        monitor = Monitor(colored)
        verdict = monitor.current_rv()
        for letter in trace:
            verdict = monitor.step(letter)
        holding = [state for state, lang in languages.items() if accepts(lang, trace)]
        assert holding == [verdict], trace


def test_regex_for_rv_rejects_non_states():
    with pytest.raises(ValueError):
        regex_for_rv(ltlf_to_ldlf(parse_ltlf("F a", TASKS)), "bogus", TASKS)
