"""Formula compilation and the automata algebra."""
import json
import random
from collections import Counter

import pytest

from ldlmon import automata
from ldlmon.automata import (
    EPSILON,
    FALSE_MODELS,
    TRUE_MODELS,
    Dfa,
    Nfa,
    aut_to_json,
    complement,
    compile_dfa,
    delta,
    deltas,
    determinize,
    guard_for_letters,
    ldlf_to_nfa,
    minimize,
    models_and,
    models_or,
    prefix_closure,
    to_dot,
)
from ldlmon.rv import RVState
from ldlmon.semantics import eval_ldlf, trace_from_tasks
from ldlmon.syntax import (
    Alphabet,
    Box,
    Diamond,
    Not,
    Star,
    Step,
    TT,
    ltlf_to_ldlf,
    parse_ldlf,
    parse_ltlf,
    to_nnf,
)
from ldlmon.syntax.ldl import print_ldlf, subterms
from ldlmon.syntax.props import Atom, TRUE, eval_prop

import reference_delta as ref
from reference_json import aut_from_json
from reference_product import reachable, tuple_product
from oracles import accepts, is_empty, language_equal, monolithic_dfa, step
from genformulas import (
    all_traces, column_rows, letter_rows, random_dfa, random_ldlf, replace, seeded_cases)

AB = Alphabet.of("a", "b")
TASKS = Alphabet.tasks(["a", "b"])

L_NONE = frozenset()
L_A = frozenset({"a"})
L_B = frozenset({"b"})
L_AB = frozenset({"a", "b"})


def ldl(text):
    return parse_ldlf(text, AB)


# The one-step obligation function --------------------------------------


def models(*sets):
    """A set of minimal models, each given as an iterable of obligations:
    ``delta`` returns its models in set-iteration order, so tests compare
    them as sets."""
    return {frozenset(m) for m in sets}


def test_delta_on_constants():
    assert delta(ldl("tt"), L_A) == TRUE_MODELS
    assert delta(ldl("ff"), L_A) == FALSE_MODELS
    assert delta(ldl("tt"), EPSILON) == TRUE_MODELS


def test_delta_on_guarded_steps():
    diamond = ldl("<a>tt")
    assert delta(diamond, L_A) == TRUE_MODELS
    assert delta(diamond, L_AB) == TRUE_MODELS
    assert delta(diamond, L_B) == FALSE_MODELS
    assert delta(diamond, EPSILON) == FALSE_MODELS
    box = ldl("[a]ff")
    assert delta(box, L_A) == FALSE_MODELS
    assert delta(box, L_B) == TRUE_MODELS
    assert delta(box, EPSILON) == TRUE_MODELS


def test_delta_emits_residual_obligations():
    formula = ldl("<a><b>tt")
    assert set(delta(formula, L_A)) == models([ldl("<b>tt")])
    assert delta(formula, L_B) == FALSE_MODELS
    boxed = ldl("[true][b]ff")
    assert set(delta(boxed, L_A)) == models([ldl("[b]ff")])


def test_delta_distributes_over_connectives():
    both = ldl("<a><a>tt && <true><b>tt")
    assert set(delta(both, L_A)) == models([ldl("<a>tt"), ldl("<b>tt")])
    either = ldl("<a><a>tt || <b><b>tt")
    assert set(delta(either, L_A)) == models([ldl("<a>tt")])
    assert delta(either, EPSILON) == FALSE_MODELS


def test_delta_on_tests_and_composite_paths():
    guarded = ldl("<(a)?; true><b>tt")
    # The test consumes nothing: both the condition and the continuation
    # constrain the same letter.
    assert set(delta(guarded, L_A)) == models([ldl("<b>tt")])
    assert delta(guarded, L_B) == FALSE_MODELS
    split = ldl("<a; b>tt")
    assert set(delta(split, L_A)) == models([ldl("<b>tt")])
    merged = ldl("<a + b><a>tt")
    assert set(delta(merged, L_B)) == models([ldl("<a>tt")])


def test_delta_unfolds_stars_back_to_the_star_formula():
    loop = ldl("<a*><b>tt")
    # Taking the loop body leaves the whole star formula as the residual.
    assert set(delta(loop, L_A)) == models([loop])
    assert delta(loop, L_B) == TRUE_MODELS
    assert delta(loop, L_NONE) == FALSE_MODELS
    deep = ldl("<a*><b><b>tt")
    assert set(delta(deep, L_AB)) == models([ldl("<b>tt")], [deep])
    dual = ldl("[a*][b]ff")
    # The empty iteration makes the body hold immediately, so reading b
    # violates right away.
    assert delta(dual, L_B) == FALSE_MODELS
    assert set(delta(dual, L_A)) == models([dual])
    assert delta(dual, L_NONE) == TRUE_MODELS
    deep_dual = ldl("[a*][b][b]ff")
    assert set(delta(deep_dual, L_AB)) == models([ldl("[b]ff"), deep_dual])


def test_delta_rejects_formulas_outside_nnf():
    with pytest.raises(ValueError):
        delta(Not(TT), L_A)


def test_delta_epsilon_matches_empty_trace_truth():
    """On the empty remainder ``delta`` reaches one of the two constants,
    the formula's truth on the empty trace."""
    for text in ["tt", "end", "[a]ff", "[true*]b", "<a*>end"]:
        formula = to_nnf(ldl(text))
        assert delta(formula, EPSILON) in (TRUE_MODELS, FALSE_MODELS), text
        assert bool(delta(formula, EPSILON)) == eval_ldlf((), 0, formula), text
    for text in ["ff", "<true>tt", "a", "<a*><b>tt"]:
        formula = to_nnf(ldl(text))
        assert delta(formula, EPSILON) in (TRUE_MODELS, FALSE_MODELS), text
        assert bool(delta(formula, EPSILON)) == eval_ldlf((), 0, formula), text


def test_delta_matches_the_minimal_models_of_the_reference_tree(monkeypatch):
    """On every obligation reachable from 120 seeded formulas, under
    every letter and EPSILON, delta's models are exactly the minimal
    models of the positive boolean formula the reference builds, and one
    ``deltas`` walk over all those letters gives what delta gives letter
    by letter.  Each of the ten modality and path-kind rules is
    exercised."""
    hits = Counter()

    def counting_deltas(f, letters, unfolding=()):
        if isinstance(f, (Diamond, Box)):
            hits[type(f).__name__, type(f.path).__name__] += 1
        return deltas(f, letters, unfolding)

    # deltas recurses through the module's global, and delta runs it on
    # one letter, so every rule hit is counted.
    monkeypatch.setattr(automata, "deltas", counting_deltas)
    starred = walked = 0
    for formula, alphabet in seeded_cases(8101, 120, depth=4, star_depth=2):
        letters = alphabet.letters() + (EPSILON,)
        seen = {to_nnf(formula)}
        queue = list(seen)
        while queue:
            member = queue.pop()
            starred += any(isinstance(n, Star) for n in subterms(member))
            walk = automata.deltas(member, letters)
            assert len(walk) == len(letters)
            walked += 1
            for letter, in_walk in zip(letters, walk):
                got = delta(member, letter)
                assert len(set(got)) == len(got)
                assert len(in_walk) == len(got), (print_ldlf(member), letter)
                assert set(in_walk) == set(got), (print_ldlf(member), letter)
                want = ref.minimal_models(ref.delta(member, letter))
                assert set(got) == set(want), (print_ldlf(member), letter)
                for model in got:
                    for obligation in model - seen:
                        seen.add(obligation)
                        queue.append(obligation)
    # The reference unfolds stars through marker atoms, so the re-entry
    # rule was compared with them.
    assert starred > 100
    assert walked > 200
    rules = [
        (modality, kind)
        for modality in ("Diamond", "Box")
        for kind in ("Step", "Test", "Alt", "Seq", "Star")
    ]
    assert min(hits[rule] for rule in rules) >= 100, hits


# Star bodies that match the empty word, so an unfolding reaches its own
# star formula again before any letter is read; the last one's inner
# star leads back to the outer one.
REENTERED_STARS = ["(tt?)*", "((a)?)*", "(b*)*", "(tt? + a)*", "((a;b)* ; (c)?)*"]


def test_delta_misses_or_holds_on_a_loop_reentered_without_a_letter():
    """A loop re-entered on the empty word misses under a diamond and
    holds under a box, as the paper's marker atoms do: delta agrees with
    the reference on every reachable obligation, under every letter and
    EPSILON, and the compiled DFA with the semantics on every trace up
    to length 4."""
    alphabet = Alphabet.of("a", "b", "c")
    letters = alphabet.letters() + (EPSILON,)
    traces = list(all_traces(alphabet, 4))
    for star in REENTERED_STARS:
        for text in (f"<{star}>b", f"[{star}]b", f"<{star}>end", f"[{star}]end"):
            formula = parse_ldlf(text, alphabet)
            seen = {formula}
            queue = [formula]
            while queue:
                member = queue.pop()
                for letter in letters:
                    got = delta(member, letter)
                    want = ref.minimal_models(ref.delta(member, letter))
                    assert set(got) == set(want), (text, print_ldlf(member), letter)
                    for model in got:
                        for obligation in model - seen:
                            seen.add(obligation)
                            queue.append(obligation)
            dfa = compile_dfa(formula, alphabet)
            for trace in traces:
                assert accepts(dfa, trace) == eval_ldlf(trace, 0, formula), (text, trace)


def test_model_combinators_short_circuit():
    atom = (frozenset((ldl("<a>tt"),)),)
    assert models_and(TRUE_MODELS, atom) is atom
    assert models_and(atom, FALSE_MODELS) is FALSE_MODELS
    assert models_or(FALSE_MODELS, atom) is atom
    assert models_or(atom, TRUE_MODELS) is TRUE_MODELS


def test_minimal_models_of_constants_and_atoms():
    fa = ldl("<a>tt")
    a = (frozenset((fa,)),)
    assert models_and(TRUE_MODELS, TRUE_MODELS) == (frozenset(),)
    assert models_or(FALSE_MODELS, FALSE_MODELS) == ()
    assert models_and(a, a) == a
    assert models_or(a, a) == a
    # A step emits its residual obligation as the one model.
    assert delta(ldl("<true><a>tt"), L_A) == a


def test_minimal_models_merge_and_prune():
    fa, fb, fc = ldl("<a>tt"), ldl("<b>tt"), ldl("<a><a>tt")
    a, b, c = ((frozenset((f,)),) for f in (fa, fb, fc))
    assert models_and(a, b) == (frozenset((fa, fb)),)
    assert set(models_or(a, b)) == models([fa], [fb])
    # a || (a && b) collapses to a.
    assert models_or(a, models_and(a, b)) == a
    # (a || b) && (a || c): the a-branch subsumes the mixed unions.
    assert set(models_and(models_or(a, b), models_or(a, c))) == models([fa], [fb, fc])


# Compiling a worked formula --------------------------------------------


class TestCompiledNextImpliesWeakNext:
    """X (a -> WX b) compiled to an NFA, then determinized."""

    @classmethod
    def setup_class(cls):
        cls.formula = ltlf_to_ldlf(parse_ltlf("X (a -> WX b)", AB))
        cls.nfa = ldlf_to_nfa(cls.formula, AB)
        cls.dfa = determinize(cls.nfa)

    def test_nfa_shape(self):
        nfa = self.nfa
        assert nfa.n_states == 4
        assert nfa.initial == 0
        assert nfa.finals == frozenset({2, 3})
        assert nfa.labels[2] == "{}"
        assert len(set(nfa.labels)) == 4
        # Automata compare by kind and every field.
        assert nfa == replace(nfa) != Dfa(**vars(nfa))
        assert self.dfa == replace(self.dfa) != Nfa(**vars(self.dfa))

    def test_nfa_transitions(self):
        nfa = self.nfa
        every = {letter: frozenset({1}) for letter in AB.letters()}
        expected = column_rows(
            AB,
            {
                0: every,
                1: {
                    L_NONE: frozenset({2}),
                    L_B: frozenset({2}),
                    L_A: frozenset({3}),
                    L_AB: frozenset({3}),
                },
                2: {letter: frozenset({2}) for letter in AB.letters()},
                # The pending weak-next obligation dies on letters without b.
                3: {
                    L_B: frozenset({2}),
                    L_AB: frozenset({2}),
                },
            },
            frozenset(),
        )
        assert nfa.transitions[0] == expected[0]
        assert nfa.transitions[1] == expected[1]
        assert nfa.transitions[2] == expected[2]
        assert nfa.transitions[3] == expected[3]

    def test_determinization_adds_only_the_sink(self):
        dfa = self.dfa
        assert dfa.n_states == 5
        assert dfa.finals == frozenset({2, 3})
        assert minimize(dfa).n_states == 5

    def test_automaton_agrees_with_evaluation(self):
        for trace in all_traces(AB, 4):
            expected = eval_ldlf(trace, 0, self.formula)
            assert accepts(self.nfa, trace) == expected
            assert accepts(self.dfa, trace) == expected


def test_compilation_normalizes_its_input():
    raw = Not(Diamond(Step(Atom("a")), TT))
    nfa = ldlf_to_nfa(raw, AB)
    assert not accepts(nfa, trace_from_tasks(["a"]))
    assert accepts(nfa, ())
    assert accepts(nfa, (L_B,))


def test_empty_macro_state_exists_even_when_unreachable():
    # tt discharges immediately into the empty macro-state.
    nfa = ldlf_to_nfa(TT, AB)
    assert nfa.n_states == 2
    assert nfa.finals == frozenset({0, 1})
    assert nfa.labels[1] == "{}"
    # ff never reaches it, but the state is still materialized.
    nfa = ldlf_to_nfa(ldl("ff"), AB)
    assert nfa.n_states == 2
    assert nfa.labels == ("ff", "{}")
    assert nfa.finals == frozenset({1})
    assert letter_rows(nfa)[0] == column_rows(AB, {0: {}}, frozenset())[0]
    assert is_empty(nfa)


# Determinization, minimization, totality -------------------------------


def test_determinize_routes_dead_letters_to_the_empty_subset():
    nfa = ldlf_to_nfa(ldl("<a><b>tt"), AB)
    dfa = determinize(nfa)
    trapped = step(dfa, dfa.initial, L_B)
    assert reachable(dfa, trapped) == frozenset({trapped})
    assert trapped not in dfa.finals


def test_minimize_merges_equivalent_states():
    transitions = {
        0: {L_A: 1, L_B: 2},
        1: {L_A: 1, L_B: 1},
        2: {L_A: 2, L_B: 2},
        3: {L_A: 0, L_B: 3},
    }
    clunky = Dfa(
        alphabet=TASKS,
        n_states=4,
        initial=0,
        transitions=column_rows(TASKS, transitions),
        finals=frozenset({1, 2}),
    )
    small = minimize(clunky)
    assert small.n_states == 2
    assert small.initial == 0
    assert small.finals == frozenset({1})
    assert small.transitions[1] == column_rows(TASKS, {1: {L_A: 1, L_B: 1}})[1]
    assert language_equal(small, clunky)


def test_minimize_renumbers_breadth_first():
    for _ in range(20):
        rng = random.Random(_)
        dfa = minimize(random_dfa(rng, AB, max_states=7))
        seen = {dfa.initial}
        frontier = [dfa.initial]
        order = [dfa.initial]
        while frontier:
            nxt = []
            for state in frontier:
                for letter in AB.letters():
                    target = dfa.transitions[state][AB.columns()[letter]]
                    if target not in seen:
                        seen.add(target)
                        nxt.append(target)
                        order.append(target)
            frontier = nxt
        assert order == sorted(order) == list(range(dfa.n_states))


def test_minimize_preserves_language_on_random_formulas():
    rng = random.Random(99)
    traces = all_traces(AB, 3)
    for _ in range(25):
        formula = random_ldlf(rng, ("a", "b"), depth=3, star_depth=1)
        dfa = determinize(ldlf_to_nfa(formula, AB))
        small = minimize(dfa)
        assert small.n_states <= dfa.n_states
        assert language_equal(small, dfa)
        for trace in traces:
            assert accepts(small, trace) == accepts(dfa, trace)


def test_a_dfa_needs_a_target_in_every_cell():
    """A ``None`` cell fails when the DFA is built, by hand or through
    ``replace``, and the error names the state and letter."""
    with pytest.raises(ValueError, match=r"state 0 has none under \['b'\]"):
        Dfa(
            alphabet=TASKS,
            n_states=1,
            initial=0,
            transitions=column_rows(TASKS, {0: {L_A: 0}}),
            finals=frozenset(),
        )
    dfa = compile_dfa(parse_ldlf("<a><b>tt", AB), AB)
    rows = [list(row) for row in dfa.transitions]
    rows[1][AB.columns()[L_AB]] = None
    with pytest.raises(ValueError, match=r"state 1 has none under \['a', 'b'\]"):
        replace(dfa, transitions=tuple(map(tuple, rows)))


# Complement and product ------------------------------------------------


def test_complement_flips_acceptance():
    dfa = monolithic_dfa(ldl("<true*>a"), AB)
    flipped = complement(dfa)
    for trace in all_traces(AB, 3):
        assert accepts(flipped, trace) != accepts(dfa, trace)
    assert complement(flipped).finals == dfa.finals


def test_complement_requires_a_total_automaton():
    """A partial table fails when its DFA is built, so ``complement``
    never sees one; every built DFA is total and complements."""
    with pytest.raises(ValueError, match="has none under"):
        complement(
            Dfa(
                alphabet=TASKS,
                n_states=1,
                initial=0,
                transitions=column_rows(TASKS, {0: {L_A: 0}}),
                finals=frozenset(),
            )
        )
    dfa = monolithic_dfa(ldl("<a>tt"), AB)
    assert complement(complement(dfa)).finals == dfa.finals


def test_new_finals_carry_the_checked_table_over(monkeypatch):
    dfa = monolithic_dfa(ldl("<a><b>tt"), AB)

    def refuse(self, *fields, **named):
        raise AssertionError("a carried-over table was checked again")

    monkeypatch.setattr(Dfa, "__init__", refuse)
    for flipped in (complement(dfa), prefix_closure(dfa), dfa.with_finals({0})):
        assert type(flipped) is Dfa
        assert flipped.transitions is dfa.transitions
        assert flipped.n_states == dfa.n_states and flipped.alphabet == dfa.alphabet
    assert complement(dfa).finals == frozenset(range(dfa.n_states)) - dfa.finals
    assert dfa.with_finals({0}).finals == frozenset({0})
    monkeypatch.undo()
    rows = [list(row) for row in dfa.transitions]
    rows[0][0] = None
    with pytest.raises(ValueError, match="has none under"):
        replace(dfa.with_finals({0}), transitions=tuple(map(tuple, rows)))


def test_product_intersects_by_default():
    left = monolithic_dfa(ldl("<true*>a"), AB)
    right = monolithic_dfa(ldl("[true*](b || end)"), AB)
    both, _ = tuple_product((left, right))
    for trace in all_traces(AB, 3):
        assert accepts(both, trace) == (accepts(left, trace) and accepts(right, trace))


def test_product_accept_parameter_and_pair_table():
    left = monolithic_dfa(ldl("a"), AB)
    right = monolithic_dfa(ldl("b"), AB)
    union, pairs = tuple_product((left, right), disjunction=True)
    assert len(pairs) == union.n_states
    assert pairs[union.initial] == (left.initial, right.initial)
    for trace in all_traces(AB, 2):
        assert accepts(union, trace) == (accepts(left, trace) or accepts(right, trace))
    # Each product state simulates its component pair, letter by letter.
    rows, left_rows, right_rows = letter_rows(union), letter_rows(left), letter_rows(right)
    for state, (sa, sb) in enumerate(pairs):
        for column in AB.columns().values():
            target = rows[state][column]
            assert pairs[target] == (left_rows[sa][column], right_rows[sb][column])


def test_product_rejects_mismatched_alphabets():
    only_a = Alphabet.of("a")
    with pytest.raises(ValueError):
        tuple_product((monolithic_dfa(ldl("a"), AB), monolithic_dfa(parse_ldlf("a", only_a), only_a)))


def test_product_requires_total_automata():
    """A partial table, by hand, through ``replace`` or read
    back from JSON with an edge dropped, fails when its DFA is built, so
    neither ``tuple_product`` nor ``language_equal`` sees one."""
    total = monolithic_dfa(ldl("<a>tt"), AB)
    payload = json.loads(aut_to_json(total))
    payload["transitions"] = payload["transitions"][1:]
    rows = [list(row) for row in total.transitions]
    rows[0][0] = None
    partials = (
        lambda: Dfa(
            alphabet=AB,
            n_states=1,
            initial=0,
            transitions=column_rows(AB, {0: {L_A: 0}}),
            finals=frozenset(),
        ),
        lambda: replace(total, transitions=tuple(map(tuple, rows))),
        lambda: aut_from_json(json.dumps(payload))[0],
    )
    for build in partials:
        with pytest.raises(ValueError, match="has none under"):
            tuple_product((build(), total))
        with pytest.raises(ValueError, match="has none under"):
            language_equal(total, build())
    assert language_equal(tuple_product((total, total))[0], total)


# Prefix closure, emptiness ---------------------------------------------


def test_prefix_closure_accepts_every_prefix():
    dfa = monolithic_dfa(ldl("<a; b; a>end"), AB)
    closed = prefix_closure(dfa)
    assert closed.transitions is dfa.transitions
    assert closed.n_states == dfa.n_states
    assert dfa.finals <= closed.finals
    word = [L_A, L_B, L_A]
    for cut in range(len(word) + 1):
        assert accepts(closed, word[:cut])
    assert not accepts(closed, [L_B])
    assert not accepts(closed, word + [L_A])


def test_prefix_closure_on_random_automata():
    rng = random.Random(5)
    for _ in range(20):
        dfa = random_dfa(rng, TASKS, max_states=6)
        closed = prefix_closure(dfa)
        for trace in all_traces(TASKS, 4):
            if accepts(dfa, trace):
                for cut in range(len(trace) + 1):
                    assert accepts(closed, trace[:cut])


def test_is_empty():
    assert is_empty(monolithic_dfa(ldl("ff"), AB))
    assert is_empty(monolithic_dfa(ldl("a && [a]ff && end"), AB))
    assert not is_empty(monolithic_dfa(ldl("tt"), AB))
    assert not is_empty(monolithic_dfa(ldl("<b*>end"), AB))


def test_accepts_validates_letters():
    dfa = monolithic_dfa(ldl("a"), AB)
    with pytest.raises(ValueError):
        accepts(dfa, [frozenset({"zz"})])
    nfa = ldlf_to_nfa(ldl("a"), AB)
    with pytest.raises(ValueError):
        accepts(nfa, [frozenset({"zz"})])


def test_language_equal():
    assert language_equal(monolithic_dfa(ldl("<a>tt"), AB), monolithic_dfa(ldl("a"), AB))
    assert language_equal(
        monolithic_dfa(ldl("[true*](a -> <true><b>tt)"), AB),
        determinize(ldlf_to_nfa(ltlf_to_ldlf(parse_ltlf("G (a -> X b)", AB)), AB)),
    )
    assert not language_equal(monolithic_dfa(ldl("a"), AB), monolithic_dfa(ldl("b"), AB))


# Guard synthesis --------------------------------------------------------


def test_guard_for_letters_prefers_readable_shapes():
    assert guard_for_letters(AB, AB.letters()) == TRUE
    assert print_guard(AB, [L_A, L_AB]) == "a"
    assert print_guard(AB, [L_NONE, L_B]) == "!a"
    assert print_guard(TASKS, [L_A]) == "a"
    three = Alphabet.tasks(["a", "b", "c"])
    assert print_guard(three, [L_A, L_B]) == "!c"
    assert print_guard(three, [L_A, L_B, frozenset({"c"})]) == "true"
    four = Alphabet.tasks(["a", "b", "c", "d"])
    assert print_guard(four, [L_A, L_B]) == "a || b"


def print_guard(alphabet, letters):
    from ldlmon.syntax import print_prop

    return print_prop(guard_for_letters(alphabet, letters))


def test_guard_for_letters_is_exact_on_every_subset():
    # Every letter set of 2- and 3-prop alphabets (16 and 256 sets) and of
    # 3- and 4-task alphabets: the shapes built without a check (letter
    # descriptions, task disjunctions) must match exactly the set.  Over
    # three tasks every set is true, false or a literal; over four, the
    # two-task sets are disjunctions.
    for alphabet in (
        AB,
        Alphabet.of("a", "b", "c"),
        Alphabet.tasks(["a", "b", "c"]),
        Alphabet.tasks(["a", "b", "c", "d"]),
    ):
        universe = alphabet.letters()
        for mask in range(1 << len(universe)):
            wanted = frozenset(
                letter for j, letter in enumerate(universe) if mask >> j & 1
            )
            guard = guard_for_letters(alphabet, wanted)
            for letter in universe:
                assert eval_prop(guard, letter) == (letter in wanted)


# Serialization ----------------------------------------------------------
# The package only writes JSON; the tests-side reader rebuilds what
# ``aut_to_json`` wrote, so a round trip checks that no field is lost.


def test_json_roundtrip_for_dfas():
    dfa = monolithic_dfa(ldl("<true*>(a && <true>end)"), AB)
    text = aut_to_json(dfa, colors=None)
    back, colors = aut_from_json(text)
    assert isinstance(back, Dfa)
    assert colors is None
    assert back.alphabet == dfa.alphabet
    assert back.n_states == dfa.n_states
    assert back.initial == dfa.initial
    assert back.finals == dfa.finals
    assert back.transitions == letter_rows(dfa)


def test_json_roundtrip_for_nfas_and_colors():
    nfa = ldlf_to_nfa(ldl("<a*><b>tt"), AB)
    text = aut_to_json(nfa, colors=[RVState.TEMP_TRUE] * nfa.n_states)
    back, colors = aut_from_json(text)
    assert isinstance(back, Nfa)
    assert colors == ["temp_true"] * nfa.n_states
    assert back.transitions == nfa.transitions
    assert back.finals == nfa.finals


def test_json_output_is_stable():
    dfa = monolithic_dfa(ldl("a"), AB)
    assert aut_to_json(dfa) == aut_to_json(dfa)
    assert aut_to_json(dfa).endswith("\n")


def test_dot_output_mentions_every_state_and_compresses_guards():
    dfa = monolithic_dfa(ldl("tt"), AB)
    rendered = to_dot(dfa)
    assert rendered.startswith("digraph")
    assert 'label="true"' in rendered
    assert "doublecircle" in rendered
    colored = to_dot(dfa, colors=[RVState.PERM_TRUE] * dfa.n_states)
    assert "fillcolor" in colored
    assert "perm_true" in colored


# End-to-end agreement sample -------------------------------------------


def test_pipeline_agrees_with_direct_evaluation():
    rng = random.Random(431)
    traces = all_traces(AB, 3)
    for _ in range(30):
        formula = random_ldlf(rng, ("a", "b"), depth=3, star_depth=1)
        dfa = monolithic_dfa(formula, AB)
        for trace in traces:
            assert accepts(dfa, trace) == eval_ldlf(trace, 0, formula)
