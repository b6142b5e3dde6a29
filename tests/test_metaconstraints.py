"""Constraints over monitoring states, their expansion to plain LDLf, and
the kernels the directive recipes call against that expansion.  Formulas
with RV nodes compile only through ``expand``; where no kernel reaches an
RV node, the expansion's compile is checked against the semantics."""
import functools
import itertools
import pathlib
import random

import pytest

from ldlmon import monitor, regexfold
from ldlmon.automata import (
    _diamond_after,
    aut_to_json,
    color_minimal,
    compile_dfa,
    complement,
    product_fold,
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
from ldlmon.monitor import Monitor, monitor_automaton, rv_formula
from ldlmon.regexfold import regex_for_rv
from ldlmon.rv import RVState
from ldlmon.semantics import _Evaluator, eval_ldlf, trace_from_tasks
from ldlmon.syntax import (
    Alphabet,
    Alt,
    And,
    Box,
    Diamond,
    END,
    FF,
    LAST,
    Not,
    Or,
    Seq,
    Star,
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

from oracles import accepts, language_equal, monolithic_dfa, step
from test_lockstep import random_meta_text

TF_ = RVState.TEMP_FALSE
PF_ = RVState.PERM_FALSE

BOOKING = Alphabet.tasks(["pay", "acc", "get", "cancel", "return"])

RE1 = ltlf_to_ldlf(responded_existence("pay", "acc"))
NCX = ltlf_to_ldlf(not_coexistence("get", "cancel"))
RESP = ltlf_to_ldlf(response("pay", "get"))
RET = ltlf_to_ldlf(existence("return"))


def regex_dfa(text, alphabet=BOOKING):
    return monolithic_dfa(Diamond(parse_re(text, alphabet), END), alphabet)


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


def test_rv_paths_print_inside_modalities():
    """An RV path prints as a path of its modality, through its own
    ``pretty``."""
    alphabet = Alphabet.tasks(["pay", "get"])
    eventually_pay = ltlf_to_ldlf(parse_ltlf("F pay", alphabet))
    got = print_ldlf(contextual_absence(eventually_pay, TF_, "get"))
    assert got == "[re{<true*>(<pay>tt && !end)}=TF](<(!get)>tt || end)"


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
    monolithic_dfa(lowered, BOOKING)


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
    got = monolithic_dfa(expand(RvAtom(RE1, TF_), BOOKING), BOOKING)
    # Violated but fixable: pay has happened, acc has not.
    hand = regex_dfa("(!acc && !pay)*; pay; (!acc)*")
    assert language_equal(got, hand)
    assert language_equal(
        monolithic_dfa(Diamond(regex_for_rv(RE1, TF_, BOOKING), END), BOOKING), hand
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
    got = monolithic_dfa(Diamond(regex_for_rv(NCX, PF_, BOOKING), END), BOOKING)
    hand = regex_dfa(
        "(!get && !cancel)*; get; (!cancel)*; cancel; true*"
        " + (!get && !cancel)*; cancel; (!get)*; get; true*"
    )
    assert language_equal(got, hand)


def test_conflict_trace_language():
    lowered = expand(conflict(RESP, NCX), BOOKING)
    got = monolithic_dfa(lowered, BOOKING)
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
    got = monolithic_dfa(Diamond(regex_for_rv(pair, PF_, BOOKING), END), BOOKING)
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
    assert language_equal(got, monolithic_dfa(occurrence, BOOKING))


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
    left = monolithic_dfa(expand(conflict(RESP, NCX), BOOKING), BOOKING)
    right = monolithic_dfa(expand(conflict(NCX, RESP), BOOKING), BOOKING)
    assert language_equal(left, right)


# RV nodes against the kernels the recipes call, and their semantics -----


def kernel_dfa(formula, alphabet, memo):
    """The minimal DFA of a formula whose RV nodes sit in its Boolean
    structure or head its modalities, built by the kernels the directive
    recipes call: an RV atom makes its formula's states of that color
    final, ``<RvPath(f, s)>g`` is ``_diamond_after`` over f's colored
    DFA and g's DFA, and ``[RvPath(f, s)]g`` the complement of the
    diamond of the negated argument.  Every other node is plain LDLf for
    ``compile_dfa``, which refuses an RV node."""
    if isinstance(formula, Not):
        return complement(kernel_dfa(formula.arg, alphabet, memo))
    if isinstance(formula, (And, Or)):
        operands = [kernel_dfa(f, alphabet, memo) for f in (formula.left, formula.right)]
        return product_fold(operands, isinstance(formula, Or))
    if isinstance(formula, RvAtom):
        return color_minimal(kernel_dfa(formula.formula, alphabet, memo)).accepting({formula.state})
    path = getattr(formula, "path", None)
    if isinstance(path, RvPath):
        colored = color_minimal(kernel_dfa(path.formula, alphabet, memo))
        then = kernel_dfa(formula.arg, alphabet, memo)
        if isinstance(formula, Box):
            return complement(_diamond_after(colored, path.state, complement(then)))
        return _diamond_after(colored, path.state, then)
    return compile_dfa(formula, alphabet, memo)


def kernel(formula, alphabet=BOOKING):
    return kernel_dfa(formula, alphabet, {})


def expanded_dfa(formula, alphabet=BOOKING):
    memo: dict = {}
    return compile_dfa(expand(formula, alphabet, memo), alphabet, memo)


def assert_kernel_matches_expanded(formula, alphabet=BOOKING, context=""):
    """The kernels give byte for byte the table and finals that
    ``compile_dfa`` gives for the formula's expansion."""
    got = aut_to_json(kernel(formula, alphabet))
    assert got == aut_to_json(expanded_dfa(formula, alphabet)), context or print_ldlf(formula)


class RvSemantics(_Evaluator):
    """``eval_ldlf``'s evaluator, with each RV node read off the monitor
    of its formula (plain LDLf): an RV atom holds at a position when the
    rest of the trace leaves the monitor in the atom's color, and an RV
    path matches the segments that do."""

    def __init__(self, trace, monitor):
        super().__init__(trace)
        self.monitor = monitor

    def _in_state(self, node, i, j):
        colored = self.monitor(node.formula)
        state = colored.dfa.initial
        for letter in self.trace[i:j]:
            state = step(colored.dfa, state, letter)
        return colored.colors[state] is node.state

    def _eval(self, i, f):
        if isinstance(f, RvAtom):
            return self._in_state(f, i, self.n)
        return super()._eval(i, f)

    def _matches(self, i, j, path):
        if isinstance(path, RvPath):
            return self._in_state(path, i, j)
        return super()._matches(i, j, path)


def assert_expansion_matches_semantics(formula, alphabet, length=4):
    """``compile_dfa`` of the expansion accepts exactly the traces of up
    to ``length`` letters that satisfy the formula under ``RvSemantics``."""
    memo: dict = {}
    dfa = compile_dfa(expand(formula, alphabet, memo), alphabet, memo)
    monitor = functools.cache(lambda f: color_minimal(compile_dfa(f, alphabet, memo)))
    for n in range(length + 1):
        for trace in itertools.product(alphabet.letters(), repeat=n):
            want = RvSemantics(trace, monitor).eval(0, formula)
            assert accepts(dfa, trace) == want, (print_ldlf(formula), trace)


def test_directives_compile_the_languages_of_their_expansions():
    rng = random.Random(6153)
    for _ in range(200):
        model = parse_meta(random_meta_text(rng))
        for directive in model.directives:
            assert_kernel_matches_expanded(model.directive_formula(directive), model.alphabet)


def test_meta_monitor_builds_fold_no_regex(monkeypatch):
    def refuse(aut):
        raise AssertionError("a meta monitor build folded an automaton into a regex")

    monkeypatch.setattr(monitor, "automaton_to_regex", refuse)
    monkeypatch.setattr(regexfold, "automaton_to_regex", refuse)
    rng = random.Random(6154)
    for _ in range(20):
        MetaMonitor(parse_meta(random_meta_text(rng)))


def test_rv_formula_folds_only_the_prefix_languages_its_state_reads(monkeypatch):
    """``TEMP_TRUE`` reads pref(!f) alone, ``TEMP_FALSE`` pref(f) alone,
    and the permanent states both."""
    folded = []
    fold = monitor.automaton_to_regex
    monkeypatch.setattr(monitor, "automaton_to_regex", lambda aut: folded.append(aut) or fold(aut))
    for state, count in ((RVState.TEMP_TRUE, 1), (TF_, 1), (RVState.PERM_TRUE, 2), (PF_, 2)):
        del folded[:]
        rv_formula(RESP, state, BOOKING)
        assert len(folded) == count, state

def test_rv_atoms_under_steps_compile_like_their_expansions():
    """An RV atom alone is a kernel; under a step only its expansion
    compiles, checked against the semantics."""
    pay = Step(Atom("pay"))
    for state in RVState:
        for formula in [NCX, RE1, And(NCX, RESP)]:
            atom = RvAtom(formula, state)
            assert_kernel_matches_expanded(atom)
            assert_kernel_matches_expanded(Not(atom))
            for nested in (Diamond(pay, atom), Box(pay, atom), Box(pay, Not(atom))):
                assert_expansion_matches_semantics(nested, BOOKING, 3)


def rv_nodes_in_paths():
    """RV formulas that no kernel compiles, only their expansions: over
    three tasks, RV atoms under a step and RV paths inside ``;``, ``*``
    and ``+`` or under a step; over two, re{F a}=TF, whose monitor has a
    state from which no trace ends in TF, before a step, under a box and
    starred."""
    alphabet = Alphabet.tasks(["a", "b", "c"])
    refs = [ltlf_to_ldlf(parse_ltlf(t, alphabet)) for t in ("F a", "G (a -> F b)", "!b U c")]
    then = parse_ldlf("<b><c>tt", alphabet)
    for f in refs:
        for state in RVState:
            path = RvPath(f, state)
            yield Diamond(Step(Atom("c")), RvAtom(f, state)), alphabet
            yield Diamond(Seq(path, Step(Atom("b"))), TT), alphabet
            yield Box(Star(path), then), alphabet
            yield Diamond(Alt(path, Step(Atom("c"))), then), alphabet
            yield Diamond(Step(Atom("a")), Diamond(path, then)), alphabet
    tasks = Alphabet.tasks(["a", "b"])
    path = RvPath(ltlf_to_ldlf(parse_ltlf("F a", tasks)), TF_)
    yield Diamond(Seq(path, Step(Atom("b"))), TT), tasks
    yield Box(path, parse_ldlf("<b>tt", tasks)), tasks
    yield Diamond(Star(path), END), tasks


def test_rv_nodes_in_paths_compile_through_expand_like_their_semantics():
    cases = list(rv_nodes_in_paths())
    assert len(cases) == 3 * 4 * 5 + 3
    for formula, alphabet in cases:
        assert_expansion_matches_semantics(formula, alphabet)


@pytest.mark.parametrize("formula", [
    RvAtom(RESP, TF_),
    Not(RvAtom(RESP, TF_)),
    And(NCX, And(RvAtom(RESP, TF_), RET)),
    Diamond(RvPath(RESP, PF_), RET),
    Diamond(Step(Atom("pay")), RvAtom(RESP, TF_)),
    Box(Step(Atom("pay")), Not(RvAtom(RESP, TF_))),
], ids=["top", "negated", "in-a-chain", "rv-path", "under-a-step", "negated-under-a-step"])
@pytest.mark.parametrize("compile_", [
    lambda f: compile_dfa(f, BOOKING),
    lambda f: Monitor.for_formula(f, BOOKING),
    lambda f: monitor_automaton(f, BOOKING),
    lambda f: rv_formula(f, TF_, BOOKING),
    lambda f: regex_for_rv(f, TF_, BOOKING),
], ids=["compile_dfa", "for_formula", "monitor_automaton", "rv_formula", "regex_for_rv"])
def test_rv_nodes_reaching_the_construction_name_expand(formula, compile_):
    with pytest.raises(TypeError, match="metaconstraints.expand"):
        compile_(formula)
    compile_(expand(formula, BOOKING))


def test_rv_paths_nested_four_deep_compile_like_their_expansions():
    # Each level refers to the one below in a state its monitor has, so no
    # reference is vacuous, and the states it has come round in turn.
    referred = set()
    for start in [RESP, RE1, NCX, And(NCX, RESP)]:
        for shift in range(2):
            formula = start
            for depth, task in enumerate(["get", "cancel", "pay", "acc"]):
                present = sorted(
                    set(color_minimal(kernel(formula)).colors), key=lambda s: s.value
                )
                state = present[(shift + depth) % len(present)]
                referred.add(state)
                formula = Or(
                    contextual_absence(formula, state, task),
                    Diamond(RvPath(formula, state), RvAtom(RESP, state)),
                )
                assert_kernel_matches_expanded(formula)
    assert referred == set(RVState)


# RV-path modalities: one subset construction over f's and g's DFAs ------

PAY_THEN_GET = Diamond(Step(Atom("pay")), Diamond(Step(Atom("get")), TT))


def test_rv_paths_under_a_diamond_of_tt_compile_like_their_expansions():
    for state in RVState:
        for formula in [RESP, RE1, NCX, And(NCX, RESP)]:
            assert_kernel_matches_expanded(Diamond(RvPath(formula, state), TT))
    # A temporary state is read as the prefix's, not the whole trace's:
    # ``pay`` leaves RESP in TF and ``get`` takes it on to TT.
    pay_get = [frozenset({"pay"}), frozenset({"get"})]
    reached = kernel(Diamond(RvPath(RESP, TF_), TT))
    assert accepts(reached, pay_get)
    assert not accepts(kernel(RvAtom(RESP, TF_)), pay_get)


def test_rv_paths_under_a_box_of_the_next_letter_compile_like_their_expansions():
    not_get = Diamond(Step(PropNot(Atom("get"))), TT)
    for state in RVState:
        for formula in [RESP, RE1, NCX, And(NCX, RESP)]:
            path = RvPath(formula, state)
            assert_kernel_matches_expanded(Box(path, Or(not_get, END)))
            assert_kernel_matches_expanded(Box(path, Or(END, not_get)))
            # Two letters: the box must not read this as a guard on ``pay``.
            assert_kernel_matches_expanded(Box(path, Or(PAY_THEN_GET, END)))
    two_letters = kernel(Box(RvPath(RESP, RVState.TEMP_TRUE), Or(PAY_THEN_GET, END)))
    assert not accepts(two_letters, [frozenset({"pay"})])
    assert accepts(two_letters, [frozenset({"pay"}), frozenset({"get"})])


def rv_modalities(formula):
    """The ``<RvPath(f, s)>g`` and ``[RvPath(f, s)]g`` nodes of a formula,
    of every state and argument."""
    return [
        n for n in subterms(formula)
        if isinstance(n, (Diamond, Box)) and isinstance(n.path, RvPath)
    ]


def test_rv_diamonds_compile_to_the_tables_of_the_nfa_route():
    """The subset construction over f's and g's DFAs gives byte for byte
    the table and finals that the NFA route gives for the expanded
    modality, on every RV-path modality of every directive."""
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
                assert_kernel_matches_expanded(node, model.alphabet, text)
                compared.add((type(node), node.path.state, node.arg == TT))
    assert len(compared) == 6, compared


def test_rv_modalities_of_every_state_and_argument_compile_to_the_nfa_route():
    """Every reference, state, argument and modality of a grid over three
    tasks: references that start in or reach each state, and arguments
    that are constants, next-letter guards either way round, two letters
    and an RV atom.  The subject is ``_diamond_after`` over the
    reference's colored DFA and the argument's DFA (for a box, over the
    argument's complement, and complemented); the reference is
    ``compile_dfa`` of the expanded modality."""
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
        colored = color_minimal(compile_dfa(f, alphabet))
        for state in RVState:
            for g in args:
                then = expanded_dfa(g, alphabet)
                for modality in (Diamond, Box):
                    node = modality(RvPath(f, state), g)
                    if modality is Box:
                        got = complement(_diamond_after(colored, state, complement(then)))
                    else:
                        got = _diamond_after(colored, state, then)
                    want = expanded_dfa(node, alphabet)
                    assert aut_to_json(got) == aut_to_json(want), print_ldlf(node)
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
                assert_kernel_matches_expanded(Diamond(RvPath(formula, state), g))
    # The empty prefix matches when f starts in the state: g then has
    # the whole trace.
    starts = kernel(Diamond(RvPath(STARTS_PF, PF_), PAY_THEN_GET))
    assert accepts(starts, [frozenset({"pay"}), frozenset({"get"})])
    assert not accepts(starts, [frozenset({"get"})])


def test_rv_diamonds_of_temporary_states_compile_like_their_expansions():
    # A temporary state is not absorbing, so only the prefixes that end
    # in it match: ``pay`` leaves RESP in TF and ``get`` takes it on to
    # TT, so the trace pay, get does not end in TF.
    for state in (TF_, RVState.TEMP_TRUE):
        for formula in [RESP, RE1, NCX]:
            assert_kernel_matches_expanded(Diamond(RvPath(formula, state), END))
    at_end = kernel(Diamond(RvPath(RESP, TF_), END))
    assert accepts(at_end, [frozenset({"pay"})])
    assert not accepts(at_end, [frozenset({"pay"}), frozenset({"get"})])
