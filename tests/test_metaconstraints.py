"""Constraints over monitoring states, their expansion to plain LDLf, and
their direct compile against that expansion."""
import pathlib
import random

import pytest

from ldlmon import monitor, regexfold
from ldlmon.automata import (
    _lower_rv,
    accepts,
    aut_to_json,
    compile_dfa,
    determinize,
    language_equal,
    ldlf_to_nfa,
    minimize,
)
from ldlmon.declare import (
    MetaMonitor,
    existence,
    not_coexistence,
    parse_meta,
    responded_existence,
    response,
)
from ldlmon.metaconstraints import (
    RvAtom,
    RvPath,
    compensation,
    conflict,
    contextual_absence,
    expand,
    preference,
    reactive_compensation,
)
from ldlmon.monitor import Monitor, monitor_automaton
from ldlmon.regexfold import regex_for_rv
from ldlmon.rv import RVState
from ldlmon.semantics import eval_ldlf, trace_from_tasks
from ldlmon.syntax import (
    Alphabet,
    And,
    Box,
    Diamond,
    END,
    FF,
    LAST,
    Not,
    Or,
    Step,
    TT,
    formula_atoms,
    ltlf_to_ldlf,
    parse_ldlf,
    parse_ltlf,
    parse_re,
    print_ldlf,
    subterms,
)
from ldlmon.syntax.base import Node
from ldlmon.syntax.props import Atom, PropNot

from test_lockstep import random_meta_text

TF_ = RVState.TEMP_FALSE
PF_ = RVState.PERM_FALSE

BOOKING = Alphabet.tasks(["pay", "acc", "get", "cancel", "return"])

RE1 = ltlf_to_ldlf(responded_existence("pay", "acc"))
NCX = ltlf_to_ldlf(not_coexistence("get", "cancel"))
RESP = ltlf_to_ldlf(response("pay", "get"))
RET = ltlf_to_ldlf(existence("return"))


def compile_ldlf(formula, alphabet=BOOKING):
    return minimize(determinize(ldlf_to_nfa(formula, alphabet)))


def regex_dfa(text, alphabet=BOOKING):
    return compile_ldlf(Diamond(parse_re(text, alphabet), END), alphabet)


def contains_rv_nodes(value) -> bool:
    if isinstance(value, (RvAtom, RvPath)):
        return True
    if isinstance(value, Node):
        return any(contains_rv_nodes(getattr(value, name)) for name in value._fields)
    return False


# Node basics ------------------------------------------------------------


def test_rv_nodes_print_with_state_codes():
    atom = RvAtom(RE1, TF_)
    assert str(atom).endswith("=TF")
    assert str(atom).startswith("{")
    path = RvPath(NCX, PF_)
    assert str(path).startswith("re{")
    assert str(path).endswith("=PF")
    # Formulas containing the extension nodes still print.
    assert "=PF" in print_ldlf(compensation(NCX, RET))


def test_formula_atoms_see_through_rv_nodes():
    formula = conflict(RESP, NCX)
    assert formula_atoms(formula) == frozenset({"pay", "get", "cancel"})
    absence_formula = contextual_absence(RE1, TF_, "get")
    assert "pay" in formula_atoms(absence_formula)
    assert "get" in formula_atoms(absence_formula)


# Builder shapes ---------------------------------------------------------


def test_builder_structure():
    plain = compensation(NCX, RET)
    assert plain == Or(Not(RvAtom(NCX, PF_)), RET)
    reactive = reactive_compensation(NCX, RET)
    assert reactive == Or(
        Not(RvAtom(NCX, PF_)), Diamond(RvPath(NCX, PF_), RET)
    )
    absent = contextual_absence(RE1, TF_, "get")
    assert isinstance(absent, Box)
    assert absent.path == RvPath(RE1, TF_)
    clash = conflict(RESP, NCX)
    assert clash.left == RvAtom(And(RESP, NCX), PF_)
    prefer = preference(NCX, RESP)
    assert prefer == Or(
        Not(Diamond(RvPath(And(NCX, RESP), PF_), TT)), NCX
    )


# Expansion --------------------------------------------------------------


def test_expand_eliminates_every_rv_node():
    for formula in [
        contextual_absence(RE1, TF_, "get"),
        compensation(NCX, RET),
        reactive_compensation(NCX, RET),
        conflict(RESP, NCX),
        preference(NCX, RESP),
    ]:
        assert contains_rv_nodes(formula)
        lowered = expand(formula, BOOKING)
        assert not contains_rv_nodes(lowered)


def test_expand_is_cached_and_leaves_plain_formulas_alone():
    assert expand(TT, BOOKING) is TT
    assert expand(RESP, BOOKING) is RESP
    assert expand(compensation(NCX, RET), BOOKING).right is RET
    memo: dict = {}
    first = expand(RvAtom(NCX, PF_), BOOKING, memo)
    assert expand(RvAtom(NCX, PF_), BOOKING, memo) is first
    again = expand(RvAtom(NCX, PF_), BOOKING)
    assert again == first and again is not first


def test_expand_handles_nested_meta_levels():
    inner = compensation(RESP, RET)
    outer = contextual_absence(inner, TF_, "pay")
    lowered = expand(outer, BOOKING)
    assert not contains_rv_nodes(lowered)
    compile_ldlf(lowered)


def test_expand_rejects_paths_posing_as_formulas():
    with pytest.raises(TypeError):
        expand(RvPath(NCX, PF_), BOOKING)


def test_expanded_rv_atom_recognizes_the_monitor_state():
    lowered = expand(RvAtom(NCX, PF_), BOOKING)
    for tasks, expected in [
        ([], False),
        (["get"], False),
        (["get", "cancel"], True),
        (["cancel", "pay", "get"], True),
        (["cancel", "acc"], False),
    ]:
        assert eval_ldlf(trace_from_tasks(tasks), 0, lowered) is expected, tasks


# Exact trace languages of the lowered constraints ----------------------


def test_temporary_violation_language_of_responded_existence():
    got = compile_ldlf(expand(RvAtom(RE1, TF_), BOOKING))
    # Violated but fixable: pay has happened, acc has not.
    hand = regex_dfa("(!acc && !pay)*; pay; (!acc)*")
    assert language_equal(got, hand)
    assert language_equal(
        compile_ldlf(Diamond(regex_for_rv(RE1, TF_, BOOKING), END)), hand
    )


def test_dropping_the_acc_guard_overapproximates():
    # Requiring only no-pay before the first pay admits traces where acc
    # already happened, which are permanently satisfied, not violated.
    loose = regex_dfa("(!pay)*; pay; (!acc)*")
    exact = regex_dfa("(!acc && !pay)*; pay; (!acc)*")
    assert not language_equal(loose, exact)
    witness = trace_from_tasks(["acc", "pay"])
    monitor = Monitor(monitor_automaton(RE1, BOOKING))
    for letter in witness:
        monitor.step(letter)
    assert monitor.current_rv() is RVState.PERM_TRUE
    assert accepts(loose, witness)
    assert not accepts(exact, witness)


def test_permanent_violation_language_of_not_coexistence():
    got = compile_ldlf(Diamond(regex_for_rv(NCX, PF_, BOOKING), END))
    hand = regex_dfa(
        "(!get && !cancel)*; get; (!cancel)*; cancel; true*"
        " + (!get && !cancel)*; cancel; (!get)*; get; true*"
    )
    assert language_equal(got, hand)


def test_conflict_trace_language():
    lowered = expand(conflict(RESP, NCX), BOOKING)
    got = compile_ldlf(lowered)
    # A conflict holds exactly when cancel and pay have happened and get
    # has not: the response obligation is then still open, but closing
    # it would break not-coexistence.
    hand = regex_dfa(
        "(!pay && !get && !cancel)*; pay; (!get && !cancel)*; cancel; (!get)*"
        " + (!pay && !get && !cancel)*; cancel; (!pay && !get)*; pay; (!get)*"
    )
    assert language_equal(got, hand)


def test_joint_doom_language_of_the_pair():
    pair = And(NCX, RESP)
    got = compile_ldlf(Diamond(regex_for_rv(pair, PF_, BOOKING), END))
    hand = regex_dfa(
        "(!pay && !get && !cancel)*; pay; (!cancel)*; cancel; true*"
        " + (!pay && !get && !cancel)*; get; (!cancel)*; cancel; true*"
        " + (!pay && !get && !cancel)*; cancel; (!pay && !get)*; (get || pay); true*"
    )
    assert language_equal(got, hand)
    # Same language, stated over occurrence formulas.
    occurrence = And(
        ltlf_to_ldlf(existence("cancel")),
        Or(ltlf_to_ldlf(existence("get")), ltlf_to_ldlf(existence("pay"))),
    )
    assert language_equal(got, compile_ldlf(occurrence))


# Behavioral differences between the builders ---------------------------


def test_reactive_compensation_requires_compensation_after_the_doom_point():
    plain = expand(compensation(NCX, RET), BOOKING)
    reactive = expand(reactive_compensation(NCX, RET), BOOKING)
    early = trace_from_tasks(["return", "get", "cancel"])
    late = trace_from_tasks(["get", "cancel", "return"])
    clean = trace_from_tasks(["get", "return"])
    assert eval_ldlf(early, 0, plain)
    assert not eval_ldlf(early, 0, reactive)
    assert eval_ldlf(late, 0, plain)
    assert eval_ldlf(late, 0, reactive)
    assert eval_ldlf(clean, 0, plain)
    assert eval_ldlf(clean, 0, reactive)


def test_preference_constrains_only_after_joint_doom():
    lowered = expand(preference(NCX, RESP), BOOKING)
    # No doom: anything goes.
    assert eval_ldlf(trace_from_tasks(["pay", "get"]), 0, lowered)
    # Doomed at cancel; the preferred constraint (not-coexistence) holds.
    assert eval_ldlf(trace_from_tasks(["pay", "cancel"]), 0, lowered)
    # Doomed, and the dispreferred side was saved instead.
    assert not eval_ldlf(trace_from_tasks(["pay", "cancel", "get"]), 0, lowered)
    flipped = expand(preference(RESP, NCX), BOOKING)
    assert not eval_ldlf(trace_from_tasks(["pay", "cancel"]), 0, flipped)
    assert eval_ldlf(trace_from_tasks(["pay", "cancel", "get"]), 0, flipped)


def test_conflict_monitor_has_no_permanently_true_state():
    lowered = expand(conflict(RESP, NCX), BOOKING)
    colored = monitor_automaton(lowered, BOOKING)
    assert RVState.PERM_TRUE not in colored.colors
    assert RVState.TEMP_TRUE in colored.colors


def test_conflict_is_symmetric():
    left = compile_ldlf(expand(conflict(RESP, NCX), BOOKING))
    right = compile_ldlf(expand(conflict(NCX, RESP), BOOKING))
    assert language_equal(left, right)


# Direct compile against the expansion ----------------------------------


def assert_direct_matches_expanded(formula, alphabet=BOOKING):
    direct = compile_dfa(formula, alphabet)
    expanded = compile_dfa(expand(formula, alphabet), alphabet)
    assert language_equal(direct, expanded), print_ldlf(formula)


def test_directives_compile_the_languages_of_their_expansions():
    rng = random.Random(6153)
    for _ in range(200):
        model = parse_meta(random_meta_text(rng))
        for directive in model.directives:
            assert_direct_matches_expanded(model.directive_formula(directive), model.alphabet)


def test_meta_monitor_builds_fold_no_regex(monkeypatch):
    def refuse(aut):
        raise AssertionError("a meta monitor build folded an automaton into a regex")

    monkeypatch.setattr(monitor, "automaton_to_regex", refuse)
    monkeypatch.setattr(regexfold, "automaton_to_regex", refuse)
    rng = random.Random(6154)
    for _ in range(20):
        MetaMonitor(parse_meta(random_meta_text(rng)))


def test_rv_atoms_under_steps_compile_like_their_expansions():
    pay = Step(Atom("pay"))
    for state in RVState:
        for formula in [NCX, RE1, And(NCX, RESP)]:
            atom = RvAtom(formula, state)
            assert_direct_matches_expanded(atom)
            assert_direct_matches_expanded(Diamond(pay, atom))
            assert_direct_matches_expanded(Box(pay, atom))
            assert_direct_matches_expanded(Box(pay, Not(atom)))


def test_rv_paths_nested_four_deep_compile_like_their_expansions():
    # Each level refers to the one below in a state its monitor has, so no
    # reference is vacuous, and the states it has come round in turn.
    referred = set()
    for start in [RESP, RE1, NCX, And(NCX, RESP)]:
        for shift in range(2):
            formula = start
            for depth, task in enumerate(["get", "cancel", "pay", "acc"]):
                present = sorted(
                    set(monitor_automaton(formula, BOOKING).colors), key=lambda s: s.value
                )
                state = present[(shift + depth) % len(present)]
                referred.add(state)
                formula = Or(
                    contextual_absence(formula, state, task),
                    Diamond(RvPath(formula, state), RvAtom(RESP, state)),
                )
                assert_direct_matches_expanded(formula)
    assert referred == set(RVState)


# RV-path modalities: one subset construction over f's and g's DFAs ------

PAY_THEN_GET = Diamond(Step(Atom("pay")), Diamond(Step(Atom("get")), TT))


def test_rv_paths_under_a_diamond_of_tt_compile_like_their_expansions():
    for state in RVState:
        for formula in [RESP, RE1, NCX, And(NCX, RESP)]:
            assert_direct_matches_expanded(Diamond(RvPath(formula, state), TT))
    # The rule reads a permanent state as the whole trace's: on a
    # temporary one it would fail here, where ``pay`` leaves RESP in TF
    # and ``get`` takes it on to TT.
    pay_get = [frozenset({"pay"}), frozenset({"get"})]
    reached = compile_dfa(Diamond(RvPath(RESP, TF_), TT), BOOKING)
    assert accepts(reached, pay_get)
    assert not accepts(compile_dfa(RvAtom(RESP, TF_), BOOKING), pay_get)


def test_rv_paths_under_a_box_of_the_next_letter_compile_like_their_expansions():
    not_get = Diamond(Step(PropNot(Atom("get"))), TT)
    for state in RVState:
        for formula in [RESP, RE1, NCX, And(NCX, RESP)]:
            path = RvPath(formula, state)
            assert_direct_matches_expanded(Box(path, Or(not_get, END)))
            assert_direct_matches_expanded(Box(path, Or(END, not_get)))
            # Two letters: the rule must not read this as a guard on ``pay``.
            assert_direct_matches_expanded(Box(path, Or(PAY_THEN_GET, END)))
    two_letters = compile_dfa(
        Box(RvPath(RESP, RVState.TEMP_TRUE), Or(PAY_THEN_GET, END)), BOOKING
    )
    assert not accepts(two_letters, [frozenset({"pay"})])
    assert accepts(two_letters, [frozenset({"pay"}), frozenset({"get"})])


def rv_modalities(formula):
    """The ``<RvPath(f, s)>g`` and ``[RvPath(f, s)]g`` nodes of a formula,
    of every state and argument."""
    return [
        n for n in subterms(formula)
        if isinstance(n, (Diamond, Box)) and isinstance(n.path, RvPath)
    ]


def assert_nfa_route_table(node, alphabet, context=""):
    """``compile_dfa``'s table and finals for the node are byte for byte
    those of the NFA route over the lowered node."""
    memo: dict = {}
    lowered = _lower_rv(node, alphabet, memo)
    route = minimize(determinize(ldlf_to_nfa(lowered, alphabet)))
    got = compile_dfa(node, alphabet, memo)
    assert aut_to_json(got) == aut_to_json(route), context or print_ldlf(node)


def test_rv_diamonds_compile_to_the_tables_of_the_nfa_route():
    """The subset construction over f's and g's DFAs gives byte for byte
    the table and finals that the NFA route over the lowered formula
    gives, on every RV-path modality of every directive."""
    rng = random.Random(6155)
    texts = [random_meta_text(rng) for _ in range(100)]
    samples = pathlib.Path(__file__).resolve().parent.parent / "samples"
    texts += [(samples / name).read_text(encoding="utf-8")
              for name in ("booking.meta", "directives.meta")]
    compared = set()
    for text in texts:
        model = parse_meta(text)
        for directive in model.directives:
            for node in rv_modalities(model.directive_formula(directive)):
                assert_nfa_route_table(node, model.alphabet, text)
                compared.add((type(node), node.path.state, node.arg == TT))
    assert len(compared) == 6, compared


def test_rv_modalities_of_every_state_and_argument_compile_to_the_nfa_route():
    """Every reference, state, argument and modality of a grid over three
    tasks: references that start in or reach each state, and arguments
    that are constants, next-letter guards either way round, two letters
    and an RV atom."""
    alphabet = Alphabet.tasks(["a", "b", "c"])
    refs = [
        ltlf_to_ldlf(parse_ltlf(text, alphabet))
        for text in ("F a", "G (a -> F b)", "!b U c", "a && !a", "a || !a", "X a")
    ]
    args = [
        TT, FF, END, LAST,
        parse_ldlf("<b><c>tt", alphabet),
        parse_ldlf("<!b>tt || end", alphabet),
        parse_ldlf("end || <!b>tt", alphabet),
        RvAtom(refs[1], TF_),
    ]
    compared = 0
    for f in refs:
        for state in RVState:
            for g in args:
                for modality in (Diamond, Box):
                    assert_nfa_route_table(modality(RvPath(f, state), g), alphabet)
                    compared += 1
    assert compared == 384


NEVER_PF_OR_PT = RESP
STARTS_PF = ltlf_to_ldlf(parse_ltlf("pay && !pay", BOOKING))
STARTS_PT = ltlf_to_ldlf(parse_ltlf("pay || !pay", BOOKING))
REACHES_PT = ltlf_to_ldlf(parse_ltlf("F pay", BOOKING))


def test_rv_diamonds_of_permanent_states_compile_like_their_expansions():
    holds_rv_nodes = reactive_compensation(NCX, RET)
    references = [NCX, RE1, REACHES_PT, NEVER_PF_OR_PT, STARTS_PF, STARTS_PT, holds_rv_nodes]
    then = [FF, END, LAST, RET, RvAtom(RESP, TF_), PAY_THEN_GET]
    for state in (PF_, RVState.PERM_TRUE):
        for formula in references:
            for g in then:
                assert_direct_matches_expanded(Diamond(RvPath(formula, state), g))
    # The empty prefix matches when f starts in the state: g then has
    # the whole trace.
    starts = compile_dfa(Diamond(RvPath(STARTS_PF, PF_), PAY_THEN_GET), BOOKING)
    assert accepts(starts, [frozenset({"pay"}), frozenset({"get"})])
    assert not accepts(starts, [frozenset({"get"})])


def test_rv_diamonds_of_temporary_states_compile_like_their_expansions():
    # A temporary state is not absorbing, so only the prefixes that end
    # in it match: ``pay`` leaves RESP in TF and ``get`` takes it on to
    # TT, so the trace pay, get does not end in TF.
    for state in (TF_, RVState.TEMP_TRUE):
        for formula in [RESP, RE1, NCX]:
            assert_direct_matches_expanded(Diamond(RvPath(formula, state), END))
    at_end = compile_dfa(Diamond(RvPath(RESP, TF_), END), BOOKING)
    assert accepts(at_end, [frozenset({"pay"})])
    assert not accepts(at_end, [frozenset({"pay"}), frozenset({"get"})])
