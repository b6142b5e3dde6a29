"""State coloring, online monitors, and the RV characterization."""
import itertools
import json
import pathlib
import random
import time
import tracemalloc

import pytest

import ldlmon.automata as automata
from ldlmon.automata import (
    Dfa,
    Nfa,
    aut_to_json,
    color_minimal,
    complement,
    determinize,
    ldlf_to_nfa,
    minimize,
    prefix_closure,
)
from ldlmon.declare import MetaMonitor, ModelMonitor, parse_decl, parse_meta
from ldlmon.monitor import (
    ColoredDfa,
    Monitor,
    color,
    monitor_automaton,
    rv_formula,
    shape_equivalent,
)
from ldlmon.rv import SATISFIABLE, VIOLABLE, RVState
from ldlmon.semantics import eval_ldlf
from ldlmon.syntax import Alphabet, ltlf_to_ldlf, parse_ldlf, parse_ltlf

from oracles import accepts, colored_isomorphic, rv_family, rv_state_oracle
import reference_shape
from reference_json import aut_from_json
from reference_pipeline import reference_colors
from reference_product import reachable
from genformulas import all_traces, column_rows, random_dfa, random_ldlf, replace, seeded_cases
from table_digests import CORPORA, DIGESTS
from test_shared_walk import genformula_cases

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


def permuted(aut, perm):
    """``aut``, a DFA or an NFA, with each state renamed by ``perm``."""
    deterministic = isinstance(aut, Dfa)
    rows = [None] * aut.n_states
    for state, row in enumerate(aut.transitions):
        rows[perm[state]] = tuple(
            (None if cell is None else perm[cell])
            if deterministic
            else frozenset(perm[target] for target in cell)
            for cell in row
        )
    return replace(
        aut,
        initial=perm[aut.initial],
        transitions=tuple(rows),
        finals=frozenset(perm[s] for s in aut.finals),
        labels=(),
    )


# Coloring ---------------------------------------------------------------


def test_colors_of_eventually():
    colored = ltl_monitor("F a")
    assert colored.dfa.n_states == 2
    assert colored.colors == (TF_, PT_)


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
    """A partial table fails when its DFA is built, so ``color`` never
    sees one."""
    with pytest.raises(ValueError, match="has none under"):
        color(
            Dfa(
                alphabet=TASKS,
                n_states=1,
                initial=0,
                transitions=column_rows(TASKS, {0: {L_A: 0}}),
                finals=frozenset(),
            )
        )


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


def with_unreachable_states(rng, dfa: Dfa) -> Dfa:
    """The same automaton plus up to three states no trace reaches; they
    may lead anywhere, reachable states included."""
    extra = rng.randint(0, 3)
    n = dfa.n_states + extra
    transitions = {s: dict(dfa.edges(s)) for s in range(dfa.n_states)}
    for state in range(dfa.n_states, n):
        transitions[state] = {l: rng.randrange(n) for l in dfa.alphabet.letters()}
    added = {s for s in range(dfa.n_states, n) if rng.random() < 0.5}
    return Dfa(
        alphabet=dfa.alphabet,
        n_states=n,
        initial=dfa.initial,
        transitions=column_rows(dfa.alphabet, transitions),
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
        if len(reachable(dfa, dfa.initial)) < dfa.n_states:
            with_unreachable += 1
        want = reference_colors(dfa)
        assert color(dfa).colors == want
        restored, _ = aut_from_json(aut_to_json(dfa))
        assert color(restored).colors == want
        _, saved = aut_from_json(aut_to_json(dfa, color(dfa).colors))
        assert tuple(RVState(value) for value in saved) == want
    assert with_unreachable >= 30


def test_minimal_monitors_color_from_their_rows():
    """Every monitor of the six table-digest corpora: reading permanence
    off the rows gives the colors of the backward walks, which are the
    monitor's own."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    checked = 0
    for name, corpus in CORPORA.items():
        monitors = list(corpus())
        assert len(monitors) == len(pinned[name]["monitors"])
        for ident, monitor in monitors:
            assert color_minimal(monitor.dfa).colors == monitor.colors, ident
            assert color(monitor.dfa).colors == monitor.colors, ident
        checked += len(monitors)
    assert checked > 1800


def test_every_compiled_dfa_colors_from_its_rows(monkeypatch):
    """Every ``compile_dfa`` result, the nested calls for operands and
    negations included, over the seeded genformulas cases."""
    results = []

    def recording(formula, alphabet, memo=None):
        dfa = real(formula, alphabet, memo)
        results.append(dfa)
        return dfa

    real = automata.compile_dfa
    monkeypatch.setattr(automata, "compile_dfa", recording)
    cases = [*genformula_cases(), *seeded_cases(7001, 160), *seeded_cases(8101, 120, 4, 2)]
    for formula, alphabet in cases:
        automata.compile_dfa(formula, alphabet)
    assert len(results) > 2 * len(cases)
    for dfa in results:
        assert color_minimal(dfa).colors == color(dfa).colors


@over_seeded_alphabets
def test_the_row_rule_holds_only_for_minimal_dfas(alphabet):
    """On the seeded DFAs, minimal or not, a monitor still colors by the
    backward walks; the row rule misses a permanent state that is not
    absorbing, and agrees again once the DFA is minimized."""
    differ = 0
    for dfa in seeded_total_dfas(alphabet):
        want = reference_colors(dfa)
        assert Monitor(dfa).colors == want
        differ += color_minimal(dfa).colors != want
        minimal = minimize(dfa)
        assert color_minimal(minimal).colors == reference_colors(minimal)
    assert differ >= 15


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


def test_rv_state_attributes_match_classify_and_the_codes():
    for member in RVState:
        # Plain attributes of the member, set when it is made.
        assert {"code", "satisfied", "permanent"} <= vars(member).keys()
        assert type(member.satisfied) is bool and type(member.permanent) is bool
        assert RVState.classify(member.satisfied, not member.permanent) is member
        assert member.code == ("P" if member.permanent else "T") + (
            "T" if member.satisfied else "F"
        )
        assert RVState.parse(member.code) is member
    assert [m for m in RVState if m.satisfied] == [TT_, PT_]
    assert [m for m in RVState if m.permanent] == [PT_, PF_]


def test_monitor_steps_through_the_dfa_table_itself():
    colored = ltl_monitor("X (a -> WX b)", AB)
    assert Monitor(colored).table is colored.dfa.transitions
    assert Monitor(colored.dfa).table is colored.dfa.transitions


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


@pytest.mark.parametrize(
    "alphabet, first, events",
    [(Alphabet.of("p", "a", "y"), "p", ({"p"}, ["p", "a"], {"p": 1})),
     (Alphabet.tasks(["pay", "ship"]), "pay", ({"pay"}, ["pay"], {"pay": 1}))],
    ids=["props", "tasks"],
)
def test_monitor_refuses_text_events(alphabet, first, events):
    """Text is not read as the set of its characters: over props ``p``,
    ``a``, ``y`` that would be the letter {p, a, y}, and over tasks a
    letter of unknown names.  Sets, lists and dicts of names still step."""
    monitor = Monitor.for_formula(parse_ldlf(f"<{first}>tt", alphabet), alphabet)
    with pytest.raises(TypeError, match=r"pass frozenset\(\{'pay'\}\)"):
        monitor.step("pay")
    assert monitor.current_rv() is TF_
    for event in events:
        monitor.reset()
        assert monitor.step(event) is PT_


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


def test_color_sets_give_the_minimized_prefix_closures():
    """The prefix languages read off the colors are the minimized prefix
    closures of the DFA and of its complement, table for table."""
    rng = random.Random(4242)
    for alphabet in (AB, TASKS):
        for _ in range(150):
            dfa = random_dfa(rng, alphabet, max_states=7)
            colored = color(dfa)
            for colors, closed in (
                (SATISFIABLE, prefix_closure(dfa)),
                (VIOLABLE, prefix_closure(complement(dfa))),
            ):
                want = minimize(closed)
                got = colored.accepting(colors)
                assert (aut_to_json(got), got.labels) == (aut_to_json(want), want.labels)


def test_rv_formula_rejects_non_states():
    with pytest.raises(ValueError):
        rv_formula(parse_ldlf("tt", AB), "bogus", AB)


def test_rv_formula_checks_the_state_before_compiling():
    memo = {}
    with pytest.raises(ValueError, match="not an RV state"):
        rv_formula(parse_ldlf("<a>tt", AB), "bogus", AB, memo)
    assert memo == {}


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
    letters = nfa.alphabet.letters()
    transitions = {
        perm[s]: {letter: frozenset(perm[t] for t in ts) for letter, ts in zip(letters, row)}
        for s, row in enumerate(nfa.transitions)
    }
    shuffled = Nfa(
        alphabet=nfa.alphabet,
        n_states=nfa.n_states,
        initial=perm[nfa.initial],
        transitions=column_rows(nfa.alphabet, transitions, frozenset()),
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


def shuffled_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return dict(enumerate(images))


def edge_list(aut):
    """The (state, column, target) edges of a DFA or an NFA."""
    deterministic = isinstance(aut, Dfa)
    return [
        (s, column, t)
        for s, row in enumerate(aut.transitions)
        for column, cell in enumerate(row)
        for t in ((cell,) if deterministic else sorted(cell))
    ]


def moved(aut, *moves):
    """``aut`` with each edge (state, column, target) of ``moves`` sent to
    the new target that follows it."""
    rows = [list(row) for row in aut.transitions]
    for s, column, t, new in moves:
        cell = rows[s][column]
        rows[s][column] = new if isinstance(aut, Dfa) else cell - {t} | {new}
    return replace(aut, transitions=tuple(map(tuple, rows)))


def retargeted(rng, aut):
    """``aut`` with one edge moved to another target, when one can move."""
    edges = edge_list(aut)
    present = set(edges)
    rng.shuffle(edges)
    for s, column, t in edges:
        others = [u for u in range(aut.n_states) if (s, column, u) not in present]
        if others:
            return moved(aut, (s, column, t, rng.choice(others)))
    return aut


def rewired(rng, aut):
    """``aut`` with the targets of two edges under one letter swapped,
    which keeps every state's successor and predecessor counts, when two
    can swap."""
    edges = edge_list(aut)
    present = set(edges)
    rng.shuffle(edges)
    for (s1, c1, t1), (s2, c2, t2) in itertools.combinations(edges, 2):
        if c1 == c2 and s1 != s2 and t1 != t2:
            if (s1, c1, t2) not in present and (s2, c2, t1) not in present:
                return moved(aut, (s1, c1, t1, t2), (s2, c2, t2, t1))
    return aut


def random_nfa(rng, alphabet, max_states=7) -> Nfa:
    n = rng.randint(1, max_states)
    return Nfa(
        alphabet=alphabet,
        n_states=n,
        initial=0,
        transitions=tuple(
            tuple(
                frozenset(t for t in range(n) if rng.random() < 0.3)
                for _ in alphabet.letters()
            )
            for _ in range(n)
        ),
        finals=frozenset(s for s in range(n) if rng.random() < 0.4),
    )


def shape_subjects():
    """Seeded automata for the differential test: DFAs, some with
    unreachable states, compiled NFAs and random NFAs, whose empty cells
    stand for missing edges.  The last 40 DFAs have at most 6 states, so
    the brute-force colored check covers them all."""
    rng = random.Random(1414)
    alphabets = [AB, TASKS, Alphabet.tasks(["a", "b", "c"]), Alphabet.tasks(["a"])]
    for i in range(100):
        max_states = 6 if i < 60 else 3
        yield with_unreachable_states(rng, random_dfa(rng, alphabets[i % 4], max_states))
    for formula, alphabet in seeded_cases(1415, 40):
        yield ldlf_to_nfa(formula, alphabet)
    for i in range(40):
        yield random_nfa(rng, alphabets[i % 4])


def brute_colored_isomorphic(a: ColoredDfa, b: ColoredDfa) -> bool:
    n = a.dfa.n_states
    if a.dfa.alphabet != b.dfa.alphabet or n != b.dfa.n_states:
        return False
    edges_b = set(b.dfa.triples())
    for images in itertools.permutations(range(n)):
        if images[a.dfa.initial] != b.dfa.initial:
            continue
        if any(
            (s in a.dfa.finals) != (images[s] in b.dfa.finals)
            or a.colors[s] != b.colors[images[s]]
            for s in range(n)
        ):
            continue
        if {(images[s], l, images[t]) for s, l, t in a.dfa.triples()} == edges_b:
            return True
    return False


def test_shape_search_agrees_with_the_reference_searches():
    """The one search against the propagation walk and the recursive
    search it replaced, and colored isomorphism against all bijections."""
    rng = random.Random(1416)
    pairs = colored = 0
    for aut in shape_subjects():
        perm = shuffled_perm(rng, aut.n_states)
        copies = (aut, retargeted(rng, aut), rewired(rng, aut))
        for other in (permuted(copy, perm) for copy in copies):
            pairs += 1
            got = shape_equivalent(aut, other)
            want = reference_shape.shape_equivalent(aut, other)
            assert (got is None) == (want is None)
            if got is not None:
                assert reference_shape._check_shape(aut, other, got)
            all_reachable = len(reachable(aut, aut.initial)) == aut.n_states
            if isinstance(aut, Dfa) and all_reachable:
                assert got == want
            if isinstance(aut, Dfa) and aut.n_states <= 6:
                # Two colors and random finals make ties, so automorphisms
                # that swap finals or colors show up.
                colors = tuple(rng.choice((TT_, PF_)) for _ in range(aut.n_states))
                left = ColoredDfa(dfa=aut, colors=colors)
                moved_colors = [None] * aut.n_states
                for state, image in perm.items():
                    moved_colors[image] = colors[state]
                finals = set(other.finals)
                if rng.random() < 0.5:
                    finals ^= {rng.randrange(aut.n_states)}
                right = ColoredDfa(dfa=replace(other, finals=frozenset(finals)), colors=tuple(moved_colors))
                assert colored_isomorphic(left, right) == brute_colored_isomorphic(left, right)
                colored += 1
    assert pairs >= 500
    assert colored >= 250


def test_shape_equivalent_checks_the_edges_into_each_placed_state():
    # Swapping the targets of states 0 and 3 under {b} keeps every
    # successor and predecessor count.  The walk places 0, 3, 2, 1, so
    # both swapped edges lead from a placed state to a later one that the
    # walk reached by another edge: only the check of the edges into a
    # newly placed state tells the two apart.
    rows = ((3, 2, 2, 3), (0, 3, 0, 0), (1, 2, 0, 2), (0, 1, 1, 2))
    swapped = ((3, 2, 1, 3), (0, 3, 0, 0), (1, 2, 0, 2), (0, 1, 2, 2))
    left, right = (
        Dfa(alphabet=AB, n_states=4, initial=0, transitions=t, finals=frozenset())
        for t in (rows, swapped)
    )
    assert reference_shape.shape_equivalent(left, right) is None
    assert shape_equivalent(left, right) is None


def test_colored_isomorphic_finds_an_automorphism_that_keeps_colors():
    # Three self-looping states, two of them unreachable: only the swap
    # 1 <-> 2 carries the finals and colors over.
    letter = Alphabet.tasks(["a"])
    rows = ((0,), (1,), (2,))

    def colored(final):
        dfa = Dfa(alphabet=letter, n_states=3, initial=0, transitions=rows, finals=frozenset({final}))
        return ColoredDfa(dfa=dfa, colors=tuple(PT_ if s == final else PF_ for s in range(3)))

    assert colored_isomorphic(colored(1), colored(2))


def test_shape_equivalent_on_a_2000_state_nfa_needs_no_recursion():
    rng = random.Random(2000)
    n = 2000
    transitions = tuple(
        (
            frozenset({s + 1} if s + 1 < n else ()) | frozenset(rng.sample(range(n), rng.randint(0, 1))),
            frozenset(rng.sample(range(n), rng.randint(0, 2))),
        )
        for s in range(n)
    )
    nfa = Nfa(alphabet=TASKS, n_states=n, initial=0, transitions=transitions, finals=frozenset())
    shuffled = permuted(nfa, shuffled_perm(rng, n))
    mapping = shape_equivalent(nfa, shuffled)
    assert mapping is not None
    assert reference_shape._check_shape(nfa, shuffled, mapping)


def test_shape_equivalent_on_a_3000_state_dfa_is_one_walk():
    rng = random.Random(3000)
    n = 3000
    rows = tuple(((s + 1) % n, rng.randrange(n)) for s in range(n))
    dfa = Dfa(alphabet=TASKS, n_states=n, initial=0, transitions=rows, finals=frozenset())
    perm = shuffled_perm(rng, n)
    shuffled = permuted(dfa, perm)
    start = time.perf_counter()
    assert shape_equivalent(dfa, shuffled) == perm
    assert time.perf_counter() - start < 1.0


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
