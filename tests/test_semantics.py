"""Reference trace semantics: LDLf, LTLf, paths, and the RV oracle."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from ldlmon.rv import RVState
from ldlmon.semantics import (
    eval_ldlf,
    eval_ltlf,
    path_matches,
    trace_from_tasks,
)
from ldlmon.syntax import (
    Alphabet,
    END,
    LAST,
    Star,
    Step,
    TT,
    Test as PathTest,
    ltlf_to_ldlf,
    parse_ldlf,
    parse_ltlf,
    parse_re,
    to_nnf,
)
from ldlmon.syntax.props import Atom, TRUE

from oracles import rv_state_oracle, trace_from_props
from genformulas import all_traces, random_ldlf, random_ltlf

AB = Alphabet.of("a", "b")
TASKS = Alphabet.tasks(["a", "b"])

EMPTY = trace_from_props([])


def ldl(text):
    return parse_ldlf(text, AB)


def ltl(text):
    return parse_ltlf(text, AB)


# Empty trace ------------------------------------------------------------


def test_empty_trace_basics():
    assert eval_ldlf(EMPTY, 0, ldl("tt"))
    assert not eval_ldlf(EMPTY, 0, ldl("ff"))
    assert eval_ldlf(EMPTY, 0, END)
    assert eval_ldlf(EMPTY, 0, ldl("end"))
    assert not eval_ldlf(EMPTY, 0, ldl("<true>tt"))
    assert not eval_ldlf(EMPTY, 0, ldl("a"))
    assert eval_ldlf(EMPTY, 0, ldl("[a]ff"))
    assert eval_ldlf(EMPTY, 0, ldl("[true]<b>tt"))


def test_empty_trace_ltlf_defaults():
    assert not eval_ltlf(EMPTY, 0, ltl("a"))
    assert not eval_ltlf(EMPTY, 0, ltl("X a"))
    assert eval_ltlf(EMPTY, 0, ltl("WX a"))
    assert not eval_ltlf(EMPTY, 0, ltl("F a"))
    assert eval_ltlf(EMPTY, 0, ltl("G a"))
    assert not eval_ltlf(EMPTY, 0, ltl("a U b"))
    assert eval_ltlf(EMPTY, 0, ltl("a R b"))


# Positions at or past the end ------------------------------------------


def test_out_of_range_positions():
    trace = trace_from_props([{"a"}, {"b"}])
    assert not eval_ldlf(trace, 2, ldl("a"))
    assert not eval_ldlf(trace, 2, ldl("<true>tt"))
    assert eval_ldlf(trace, 2, ldl("[true]ff"))
    assert eval_ldlf(trace, 5, ldl("[b]ff"))
    assert not eval_ldlf(trace, 5, ldl("<b>tt"))
    with pytest.raises(ValueError):
        eval_ldlf(trace, -1, ldl("tt"))


def test_last_marks_the_final_position():
    trace = trace_from_props([{"a"}, {"b"}])
    assert not eval_ldlf(trace, 0, LAST)
    assert eval_ldlf(trace, 1, LAST)
    # Past the end there is no next position, but ``last`` asks for one.
    assert not eval_ldlf(trace, 2, LAST)
    assert not eval_ldlf(EMPTY, 0, LAST)


def test_next_is_strong_and_weak_next_is_weak():
    trace = trace_from_props([{"a"}, {"b"}])
    assert eval_ltlf(trace, 0, ltl("X b"))
    assert not eval_ltlf(trace, 1, ltl("X a"))
    assert eval_ltlf(trace, 1, ltl("WX a"))
    assert not eval_ltlf(trace, 1, ltl("WX a && X a"))


def test_until_requires_the_right_hand_side():
    until = ltl("a U b")
    assert eval_ltlf(trace_from_props([{"a"}, {"b"}]), 0, until)
    assert eval_ltlf(trace_from_props([{"b"}]), 0, until)
    assert not eval_ltlf(trace_from_props([{"a"}, {"a"}]), 0, until)
    assert not eval_ltlf(trace_from_props([{}, {"b"}]), 0, until)


def test_release_holds_until_released():
    release = ltl("a R b")
    assert eval_ltlf(trace_from_props([{"b"}, {"b"}]), 0, release)
    assert eval_ltlf(trace_from_props([{"b"}, {"a", "b"}, {}]), 0, release)
    assert not eval_ltlf(trace_from_props([{"b"}, {"a"}]), 0, release)
    assert not eval_ltlf(trace_from_props([{}, {"b"}]), 0, release)


# A small worked property -----------------------------------------------


class TestNextImpliesWeakNext:
    """X (a -> WX b) pinned against hand evaluation."""

    formula = "X (a -> WX b)"

    def check(self, steps):
        return eval_ltlf(trace_from_props(steps), 0, ltl(self.formula))

    def test_short_traces_fail(self):
        assert not self.check([])
        assert not self.check([{"a"}])
        assert not self.check([{"a", "b"}])

    def test_two_step_traces_always_satisfy(self):
        # Either a is false at the second step, or WX b is vacuous there.
        assert self.check([{}, {}])
        assert self.check([{}, {"a"}])
        assert self.check([{"a"}, {"a", "b"}])

    def test_third_step_decides_when_a_held(self):
        assert self.check([{}, {"a"}, {"b"}])
        assert self.check([{}, {"a"}, {"a", "b"}])
        assert not self.check([{}, {"a"}, {}])
        assert not self.check([{}, {"a"}, {"a"}])

    def test_without_a_the_tail_is_irrelevant(self):
        assert self.check([{}, {"b"}, {}])
        assert self.check([{}, {}, {}, {"a"}])


# Path matching ----------------------------------------------------------


def test_step_consumes_exactly_one_position():
    trace = trace_from_props([{"a"}, {"b"}])
    step_a = parse_re("a", AB)
    assert path_matches(trace, 0, 1, step_a)
    assert not path_matches(trace, 0, 0, step_a)
    assert not path_matches(trace, 0, 2, step_a)
    assert not path_matches(trace, 1, 2, step_a)
    assert not path_matches(trace, 2, 3, step_a)


def test_test_paths_consume_nothing():
    trace = trace_from_props([{"a"}])
    probe = parse_re("a?", AB)
    assert isinstance(probe, PathTest)
    assert path_matches(trace, 0, 0, probe)
    assert not path_matches(trace, 0, 1, probe)
    assert not path_matches(trace, 1, 1, probe)
    assert path_matches(trace, 1, 1, parse_re("tt?", AB))


def test_sequence_splits_at_some_midpoint():
    trace = trace_from_props([{"a"}, {"b"}])
    assert path_matches(trace, 0, 2, parse_re("a;b", AB))
    assert not path_matches(trace, 0, 2, parse_re("b;a", AB))
    assert not path_matches(trace, 0, 1, parse_re("a;b", AB))
    assert path_matches(trace, 0, 1, parse_re("a?;true", AB))
    assert not path_matches(trace, 1, 2, parse_re("a?;true", AB))
    assert path_matches(trace, 0, 0, parse_re("tt?;tt?", AB))


def test_alternation_tries_both_branches():
    trace = trace_from_props([{"b"}])
    either = parse_re("a + b", AB)
    assert path_matches(trace, 0, 1, either)
    assert not path_matches(trace, 0, 1, parse_re("a + (a && b)", AB))


def test_star_matches_the_empty_segment_anywhere():
    star = Star(Step(Atom("a")))
    assert path_matches(EMPTY, 0, 0, star)
    trace = trace_from_props([{"b"}])
    assert path_matches(trace, 1, 1, star)
    assert path_matches(trace, 4, 4, star)
    assert not path_matches(trace, 0, 1, star)


def test_star_iterates_its_body():
    trace = trace_from_props([{"a"}, {"a"}, {"b"}])
    star_a = parse_re("a*", AB)
    assert path_matches(trace, 0, 0, star_a)
    assert path_matches(trace, 0, 1, star_a)
    assert path_matches(trace, 0, 2, star_a)
    assert not path_matches(trace, 0, 3, star_a)
    assert path_matches(trace, 0, 3, parse_re("true*", AB))
    assert path_matches(trace, 0, 3, parse_re("(a;a)*;b", AB))
    assert not path_matches(trace, 0, 2, parse_re("(a;a;a)*", AB))


def test_star_of_a_pure_test_cannot_advance():
    # Iterations that consume nothing never reach a later position.
    looping = Star(PathTest(TT))
    trace = trace_from_props([{"a"}])
    assert path_matches(trace, 0, 0, looping)
    assert not path_matches(trace, 0, 1, looping)


def test_path_positions_must_be_nonnegative():
    with pytest.raises(ValueError):
        path_matches(EMPTY, -1, 0, Star(Step(TRUE)))
    with pytest.raises(ValueError):
        path_matches(EMPTY, 0, -2, Star(Step(TRUE)))
    assert not path_matches(trace_from_props([{"a"}]), 1, 0, Step(TRUE))


def test_diamond_and_box_quantify_over_match_ends():
    trace = trace_from_props([{"a"}, {"a"}, {"b"}])
    assert eval_ldlf(trace, 0, ldl("<a*>b"))
    assert not eval_ldlf(trace, 0, ldl("[a*]b"))
    assert eval_ldlf(trace, 0, ldl("[a*](a || b)"))
    assert eval_ldlf(trace, 0, ldl("<(a + b)*>end"))
    assert not eval_ldlf(trace, 0, ldl("<b*>end"))


# LTLf against its LDLf translation -------------------------------------


FROZEN_LTLF = [
    "X a",
    "WX a",
    "F (a && b)",
    "G (a -> F b)",
    "a U b",
    "a R b",
    "!(a U b)",
    "a <-> X b",
    "G a || F !b",
]


def test_translation_agrees_on_frozen_formulas():
    traces = all_traces(AB, 3)
    for text in FROZEN_LTLF:
        formula = ltl(text)
        translated = ltlf_to_ldlf(formula)
        for trace in traces:
            assert eval_ltlf(trace, 0, formula) == eval_ldlf(trace, 0, translated), (
                text,
                trace,
            )


def test_translation_agrees_on_random_formulas():
    rng = random.Random(20260822)
    traces = all_traces(AB, 3)
    for _ in range(60):
        formula = random_ltlf(rng, ("a", "b"), depth=3)
        translated = ltlf_to_ldlf(formula)
        for trace in traces:
            assert eval_ltlf(trace, 0, formula) == eval_ldlf(trace, 0, translated)


def test_nnf_preserves_meaning_on_random_formulas():
    rng = random.Random(7)
    traces = all_traces(AB, 3)
    for _ in range(60):
        formula = random_ldlf(rng, ("a", "b"), depth=3, star_depth=1)
        rewritten = to_nnf(formula)
        for trace in traces:
            assert eval_ldlf(trace, 0, formula) == eval_ldlf(trace, 0, rewritten)


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.sets(st.sampled_from(["a", "b"]), max_size=2).map(frozenset),
        max_size=5,
    ),
    start=st.integers(min_value=0, max_value=6),
)
def test_tt_and_end_of_true_are_total(steps, start):
    trace = trace_from_props(steps)
    assert eval_ldlf(trace, start, TT)
    assert eval_ldlf(trace, start, ldl("<true*>end"))


# The brute-force RV oracle ---------------------------------------------


def test_oracle_on_eventually():
    eventually = ltlf_to_ldlf(parse_ltlf("F a", TASKS))
    assert rv_state_oracle([], eventually, TASKS, 3) is RVState.TEMP_FALSE
    trace = trace_from_tasks(["b", "b"])
    assert rv_state_oracle(trace, eventually, TASKS, 3) is RVState.TEMP_FALSE
    done = trace_from_tasks(["b", "a"])
    assert rv_state_oracle(done, eventually, TASKS, 3) is RVState.PERM_TRUE


def test_oracle_on_always():
    always = ltlf_to_ldlf(parse_ltlf("G a", TASKS))
    assert rv_state_oracle([], always, TASKS, 3) is RVState.TEMP_TRUE
    assert rv_state_oracle(trace_from_tasks(["a"]), always, TASKS, 3) is RVState.TEMP_TRUE
    assert rv_state_oracle(trace_from_tasks(["b"]), always, TASKS, 3) is RVState.PERM_FALSE


def test_oracle_on_constants():
    assert rv_state_oracle([], TT, TASKS, 2) is RVState.PERM_TRUE
    assert rv_state_oracle([], ldl("ff"), TASKS, 2) is RVState.PERM_FALSE


def test_oracle_tracks_the_worked_property():
    formula = ltlf_to_ldlf(ltl("X (a -> WX b)"))
    cases = [
        ([], RVState.TEMP_FALSE),
        ([{}], RVState.TEMP_FALSE),
        ([{}, {"b"}], RVState.PERM_TRUE),
        ([{}, {"a"}], RVState.TEMP_TRUE),
        ([{}, {"a"}, {"b"}], RVState.PERM_TRUE),
        ([{}, {"a"}, {}], RVState.PERM_FALSE),
    ]
    for steps, expected in cases:
        got = rv_state_oracle(trace_from_props(steps), formula, AB, 5)
        assert got is expected, steps


def test_oracle_rejects_negative_horizons():
    with pytest.raises(ValueError):
        rv_state_oracle([], TT, TASKS, -1)


def test_trace_builders():
    assert trace_from_tasks(["a", "b"]) == (frozenset({"a"}), frozenset({"b"}))
    assert trace_from_props([{"a", "b"}, set()]) == (
        frozenset({"a", "b"}),
        frozenset(),
    )
