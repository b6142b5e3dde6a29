"""State coloring, online monitors, and the RV characterization."""
import pathlib
import random
import tracemalloc

import pytest

from ldlmon.automata import (
    Dfa,
    accepts,
    aut_from_json,
    aut_to_json,
    complete,
    determinize,
    ldlf_to_nfa,
    minimize,
    reachable_from,
)
from ldlmon.declare import MetaMonitor, ModelMonitor, parse_decl, parse_meta
from ldlmon.monitor import (
    ColoredDfa,
    Monitor,
    color,
    colored_isomorphic,
    monitor_automaton,
    rv_family,
    rv_formula,
    shape_equivalent,
)
from ldlmon.rv import RVState
from ldlmon.semantics import eval_ldlf, rv_state_oracle, trace_from_tasks
from ldlmon.syntax import Alphabet, Not, ltlf_to_ldlf, parse_ldlf, parse_ltlf

from genformulas import all_traces, random_dfa, random_ldlf

AB = Alphabet.of("a", "b")
TASKS = Alphabet.tasks(["a", "b"])
SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

L_A = frozenset({"a"})
L_B = frozenset({"b"})

TT_ = RVState.TEMP_TRUE
TF_ = RVState.TEMP_FALSE
PT_ = RVState.PERM_TRUE
PF_ = RVState.PERM_FALSE


def ltl_monitor(text, alphabet=TASKS, **kwargs):
    return monitor_automaton(ltlf_to_ldlf(parse_ltlf(text, alphabet)), alphabet, **kwargs)


def permuted(dfa: Dfa, perm) -> Dfa:
    transitions = {
        perm[s]: {letter: perm[t] for letter, t in row.items()}
        for s, row in dfa.transitions.items()
    }
    return Dfa(
        alphabet=dfa.alphabet,
        n_states=dfa.n_states,
        initial=perm[dfa.initial],
        transitions=transitions,
        finals=frozenset(perm[s] for s in dfa.finals),
    )


# Coloring ---------------------------------------------------------------


def test_colors_of_eventually():
    colored = ltl_monitor("F a")
    assert colored.dfa.n_states == 2
    assert colored.colors == (TF_, PT_)
    assert colored.color_of(0) is TF_


def test_colors_of_always():
    colored = ltl_monitor("G a")
    assert colored.dfa.n_states == 2
    assert colored.colors == (TT_, PF_)


def test_colors_of_constants():
    assert monitor_automaton(parse_ldlf("tt", TASKS), TASKS).colors == (PT_,)
    assert monitor_automaton(parse_ldlf("ff", TASKS), TASKS).colors == (PF_,)
    # The LTLf atom ``true`` asks for a position to exist, so the empty
    # trace violates it until the first event arrives.
    assert ltl_monitor("true").colors == (TF_, PT_)
    assert ltl_monitor("false").colors == (PF_,)


def test_colors_of_the_worked_formula():
    colored = ltl_monitor("X (a -> WX b)", AB)
    assert colored.dfa.n_states == 5
    assert colored.colors == (TF_, TF_, PT_, TT_, PF_)
    assert colored.dfa.finals == frozenset({2, 3})


def test_coloring_requires_a_total_automaton():
    partial = Dfa(
        alphabet=TASKS,
        n_states=1,
        initial=0,
        transitions={0: {L_A: 0}},
        finals=frozenset(),
    )
    with pytest.raises(ValueError):
        color(partial)


def test_colors_match_the_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(15):
        formula = random_ldlf(rng, ("a", "b"), depth=3, star_depth=1)
        colored = monitor_automaton(formula, AB)
        horizon = colored.dfa.n_states
        for trace in all_traces(AB, 3):
            monitor = Monitor(colored)
            verdict = monitor.current_rv()
            for letter in trace:
                verdict = monitor.step(letter)
            assert verdict is rv_state_oracle(trace, formula, AB, horizon)


def reference_colors(dfa: Dfa) -> tuple:
    """Colors by their definition, one forward search per state: the
    verdict can change when a state of the other acceptance is
    reachable."""
    out = []
    for state in range(dfa.n_states):
        reach = reachable_from(dfa, state)
        if state in dfa.finals:
            out.append(PT_ if reach <= dfa.finals else TT_)
        else:
            out.append(TF_ if reach & dfa.finals else PF_)
    return tuple(out)


def with_unreachable_states(rng, dfa: Dfa) -> Dfa:
    """The same automaton plus up to three states no trace reaches; they
    may lead anywhere, reachable states included."""
    extra = rng.randint(0, 3)
    n = dfa.n_states + extra
    transitions = dict(dfa.transitions)
    for state in range(dfa.n_states, n):
        transitions[state] = {l: rng.randrange(n) for l in dfa.alphabet.letters()}
    added = {s for s in range(dfa.n_states, n) if rng.random() < 0.5}
    return Dfa(
        alphabet=dfa.alphabet,
        n_states=n,
        initial=dfa.initial,
        transitions=transitions,
        finals=dfa.finals | frozenset(added),
    )


def seeded_total_dfas(alphabet):
    """100 seeded random total DFAs, some with unreachable states."""
    rng = random.Random(4099)
    for _ in range(100):
        yield with_unreachable_states(rng, random_dfa(rng, alphabet, max_states=7))


over_seeded_alphabets = pytest.mark.parametrize(
    "alphabet",
    [AB, TASKS, Alphabet.tasks(["a", "b", "c"])],
    ids=["props", "tasks2", "tasks3"],
)


@over_seeded_alphabets
def test_color_matches_the_per_state_definition(alphabet):
    with_unreachable = 0
    for dfa in seeded_total_dfas(alphabet):
        if len(reachable_from(dfa, dfa.initial)) < dfa.n_states:
            with_unreachable += 1
        want = reference_colors(dfa)
        assert color(dfa).colors == want
        restored, _ = aut_from_json(aut_to_json(dfa))
        assert color(restored).colors == want
        _, saved = aut_from_json(aut_to_json(dfa, color(dfa).colors))
        assert tuple(RVState(value) for value in saved) == want
    assert with_unreachable >= 30


@over_seeded_alphabets
def test_forbidden_symbols_match_the_edge_definition(alphabet):
    """The table row read in letter order names the same letters, in the
    same order, as the DFA's own edges."""
    for dfa in seeded_total_dfas(alphabet):
        monitor = Monitor(dfa)
        for state in range(dfa.n_states):
            monitor.current = state
            want = [
                letter
                for letter, target in dfa.edges(state)
                if monitor.colors[target] is PF_
            ]
            assert monitor.forbidden_symbols() == want


def test_minimization_does_not_change_verdicts():
    rng = random.Random(31)
    for _ in range(10):
        formula = random_ldlf(rng, ("a", "b"), depth=3, star_depth=1)
        small = monitor_automaton(formula, AB)
        big = color(determinize(ldlf_to_nfa(formula, AB)))
        assert small.dfa.n_states <= big.dfa.n_states
        for trace in all_traces(AB, 3):
            walk_small = Monitor(small)
            walk_big = Monitor(big)
            assert walk_small.current_rv() is walk_big.current_rv()
            for letter in trace:
                assert walk_small.step(letter) is walk_big.step(letter)


# The online monitor -----------------------------------------------------


def test_monitor_stepping_and_reset():
    monitor = Monitor(ltl_monitor("F a"))
    assert monitor.current_rv() is TF_
    assert monitor.step({"b"}) is TF_
    assert monitor.step({"a"}) is PT_
    assert monitor.step({"b"}) is PT_
    monitor.reset()
    assert monitor.current_rv() is TF_


def test_monitor_memory_stays_flat_over_a_long_run():
    monitor = Monitor(ltl_monitor("G (a -> F b)"))
    events = [L_A, L_B, L_A, L_A]
    tracemalloc.start()
    try:
        monitor.step(L_A)
        before, _ = tracemalloc.get_traced_memory()
        for index in range(100_000):
            monitor.step(events[index % 4])
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


@pytest.mark.parametrize(
    "build, sample",
    [(lambda t: ModelMonitor(parse_decl(t)), "booking.decl"),
     (lambda t: MetaMonitor(parse_meta(t)), "booking.meta")],
    ids=["model", "meta"],
)
def test_lockstep_memory_stays_flat_over_a_long_run(build, sample):
    runner = build((SAMPLES / sample).read_text(encoding="utf-8"))
    tasks = runner.model.alphabet.props
    tracemalloc.start()
    try:
        runner.step(tasks[0])
        before, _ = tracemalloc.get_traced_memory()
        for index in range(100_000):
            runner.step(tasks[index % len(tasks)])
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_monitor_rejects_foreign_events():
    monitor = Monitor(ltl_monitor("F a"))
    monitor.step({"b"})
    for event in ({"nope"}, {"a", "b"}):  # task alphabets take one task per step
        with pytest.raises(ValueError):
            monitor.step(event)
        assert monitor.current_rv() is TF_


def test_monitor_handles_multi_proposition_events():
    monitor = Monitor(ltl_monitor("X (a -> WX b)", AB))
    assert monitor.step({}) is TF_
    assert monitor.step({"a", "b"}) is TT_
    assert monitor.step({"b"}) is PT_


def test_forbidden_symbols():
    monitor = Monitor(ltl_monitor("G a"))
    assert monitor.forbidden_symbols() == [L_B]
    monitor.step({"a"})
    assert monitor.forbidden_symbols() == [L_B]
    monitor.step({"b"})
    # Permanently violated: every continuation stays violated.
    assert monitor.forbidden_symbols() == [L_A, L_B]
    satisfied = Monitor(ltl_monitor("F a"))
    satisfied.step({"a"})
    assert satisfied.forbidden_symbols() == []


# The RV characterization ------------------------------------------------


def test_rv_formula_partitions_traces():
    for text in ["F a", "G a", "F a && G (a -> F b)"]:
        formula = ltlf_to_ldlf(parse_ltlf(text, TASKS))
        horizon = monitor_automaton(formula, TASKS).dfa.n_states
        characterizations = {
            state: rv_formula(formula, state, TASKS) for state in RVState
        }
        for trace in all_traces(TASKS, 3):
            expected = rv_state_oracle(trace, formula, TASKS, horizon)
            holding = [
                state
                for state, charf in characterizations.items()
                if eval_ldlf(trace, 0, charf)
            ]
            assert holding == [expected], (text, trace)


def test_rv_formula_rejects_non_states():
    with pytest.raises(ValueError):
        rv_formula(parse_ldlf("tt", AB), "bogus", AB)


def test_rv_family_shares_one_transition_structure():
    formula = ltlf_to_ldlf(parse_ltlf("F a", TASKS))
    family = rv_family(formula, TASKS)
    assert set(family) == {"formula", "negation", "pref_formula", "pref_negation"}
    base = family["formula"]
    for member in family.values():
        assert member.transitions is base.transitions
        assert member.initial == base.initial
    n = base.n_states
    assert family["negation"].finals == frozenset(range(n)) - base.finals
    assert base.finals <= family["pref_formula"].finals


def test_rv_family_members_are_identity_shape_equivalent():
    formula = parse_ldlf("<true*>(a && <true><b>tt)", AB)
    family = rv_family(formula, AB)
    base = family["formula"]
    identity = {s: s for s in range(base.n_states)}
    for member in family.values():
        assert shape_equivalent(base, member) == identity


def test_rv_family_recognizes_the_right_languages():
    formula = ltlf_to_ldlf(parse_ltlf("G (a -> X b)", TASKS))
    family = rv_family(formula, TASKS)
    for trace in all_traces(TASKS, 3):
        holds = eval_ldlf(trace, 0, formula)
        assert accepts(family["formula"], trace) == holds
        assert accepts(family["negation"], trace) != holds
    # Prefix closures accept exactly the extendable prefixes.
    monitor = Monitor(monitor_automaton(formula, TASKS))
    for trace in all_traces(TASKS, 3):
        monitor.reset()
        verdict = monitor.current_rv()
        for letter in trace:
            verdict = monitor.step(letter)
        assert accepts(family["pref_formula"], trace) == (verdict is not PF_)
        assert accepts(family["pref_negation"], trace) == (verdict is not PT_)


# Shape equivalence and colored isomorphism ------------------------------


def test_shape_equivalent_finds_the_permutation():
    dfa = ltl_monitor("X (a -> WX b)", AB).dfa
    perm = {0: 3, 1: 0, 2: 4, 3: 1, 4: 2}
    shuffled = permuted(dfa, perm)
    assert shape_equivalent(dfa, shuffled) == perm
    assert shape_equivalent(dfa, dfa) == {s: s for s in range(dfa.n_states)}


def test_shape_equivalent_rejects_different_shapes():
    f_mon = ltl_monitor("F a").dfa
    g_mon = ltl_monitor("G a").dfa
    # Both have two states, but the edges differ: F a loops on its
    # initial state under b, G a leaves it.
    assert shape_equivalent(f_mon, g_mon) is None
    assert shape_equivalent(f_mon, ltl_monitor("F a", AB).dfa) is None
    bigger = ltl_monitor("F a && F b").dfa
    assert shape_equivalent(f_mon, bigger) is None


def test_shape_equivalent_searches_nfas():
    nfa = ldlf_to_nfa(parse_ldlf("<a*><b>tt", AB), AB)
    from ldlmon.automata import Nfa

    perm = {s: (s + 1) % nfa.n_states for s in range(nfa.n_states)}
    transitions = {
        perm[s]: {letter: frozenset(perm[t] for t in ts) for letter, ts in row.items()}
        for s, row in nfa.transitions.items()
    }
    shuffled = Nfa(
        alphabet=nfa.alphabet,
        n_states=nfa.n_states,
        initial=perm[nfa.initial],
        transitions=transitions,
        finals=frozenset(perm[s] for s in nfa.finals),
    )
    assert shape_equivalent(nfa, shuffled) == perm


def test_colored_isomorphic():
    colored = ltl_monitor("X (a -> WX b)", AB)
    perm = {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}
    moved = permuted(colored.dfa, perm)
    moved_colors = [None] * colored.dfa.n_states
    for state, image in perm.items():
        moved_colors[image] = colored.colors[state]
    relabeled = ColoredDfa(dfa=moved, colors=tuple(moved_colors))
    assert colored_isomorphic(colored, relabeled)
    # Tampering with one color breaks it.
    wrong = list(moved_colors)
    wrong[0], wrong[1] = wrong[1], wrong[0]
    assert not colored_isomorphic(colored, ColoredDfa(dfa=moved, colors=tuple(wrong)))
    # Same shape with different finals breaks it too.
    refinaled = Dfa(
        alphabet=moved.alphabet,
        n_states=moved.n_states,
        initial=moved.initial,
        transitions=moved.transitions,
        finals=frozenset({perm[0]}),
    )
    assert not colored_isomorphic(colored, ColoredDfa(dfa=refinaled, colors=tuple(moved_colors)))


def test_colored_isomorphic_differs_from_language_equality():
    # F a and F b share one shape up to renaming letters, but not over
    # the same alphabet with the same coloring of targets.
    left = ltl_monitor("F a")
    right = ltl_monitor("F b")
    assert not colored_isomorphic(left, right)
    assert colored_isomorphic(left, ltl_monitor("F a"))


def test_monitor_walks_match_language_acceptance():
    formula = parse_ldlf("<(a; b)*>end", AB)
    colored = monitor_automaton(formula, AB)
    for trace in all_traces(AB, 4):
        monitor = Monitor(colored)
        verdict = monitor.current_rv()
        for letter in trace:
            verdict = monitor.step(letter)
        assert verdict.satisfied == eval_ldlf(trace, 0, formula)
        assert verdict.satisfied == accepts(colored.dfa, trace)
