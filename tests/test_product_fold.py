"""The n-ary product fold and the shared Moore refinement against the
constructions in ``reference_product``.

``product_fold`` walks the tuples of its operands' states once at class
level, collapses the tuples that an absorbing component decides (and
walks none when an operand decides from every state), and refines them
in place; ``minimize`` runs the same refinement on its own class rows.
Tables, finals and colors must come out byte for byte as the pairwise
fold of minimized products and as the minimized product over state
tuples give them.  Labels must be the tuple product's, and
with two operands also the pairwise fold's; ``minimize`` must match
Moore's refinement walked letter by letter, labels included.
"""
import random
from itertools import repeat

import pytest

import ldlmon.automata as automata
from ldlmon.automata import (
    Dfa,
    aut_to_json,
    color,
    compile_dfa,
    determinize,
    ldlf_to_nfa,
    minimize,
    product_fold,
)
from ldlmon.declare import ModelMonitor, local_monitors, parse_decl
from ldlmon.rv import SATISFIABLE, RVState
from ldlmon.syntax import Alphabet, ldl, parse_ldlf

import reference_product as ref
from genformulas import column_rows, random_dfa, random_ldlf, seeded_cases
from oracles import step
from test_compositional import random_model
from test_session import random_decl_text


def same_tables(got, want):
    assert aut_to_json(got, color(got).colors) == aut_to_json(want, color(want).colors)


def assert_same(got, want):
    same_tables(got, want)
    assert got.labels == want.labels


def assert_fold(dfas, disjunction, got, tuples=True):
    """``got`` is the fold of ``dfas``: tables as both references give
    them, labels as the tuple product's, and as the pairwise fold's for
    two operands.  With ``tuples``, ``product_fold`` must also walk
    exactly the tuples ``collapsed_walk`` names, in its order."""
    pairwise = ref.product_fold(dfas, disjunction)
    same_tables(got, pairwise)
    if len(dfas) == 2:
        assert got.labels == pairwise.labels
    if tuples:
        assert_same(got, ref.tuple_product_fold(dfas, disjunction))
        if len(dfas) > 1:
            assert walked_keys(dfas, disjunction) == collapsed_walk(dfas, disjunction)


def walked_keys(dfas, disjunction=False) -> list:
    """The keys of ``product_fold``'s walk over tuples, in walk order;
    none when it makes no walk."""
    walks = []
    explore = automata._explore

    def recording(start, cells):
        order, rows = explore(start, cells)
        walks.append(order)
        return order, rows

    automata._explore = recording
    try:
        product_fold(dfas, disjunction)
    finally:
        automata._explore = explore
    return walks[0] if walks else []


def collapsed_walk(dfas, disjunction=False) -> list:
    """The reachable tuples, in the letter-by-letter order of the tuple
    product, with every tuple that holds a deciding state (absorbing,
    rejecting for a conjunction, accepting for a disjunction) left out but
    the first: the walk ``product_fold`` makes.  An operand that decides
    the fold from every state (no final state for a conjunction, only
    final states for a disjunction) leaves no walk at all."""
    if any(map(constant, dfas, repeat(disjunction))):
        return []
    deciding = [set(absorbing(dfa, disjunction)) for dfa in dfas]
    tuples = ref.tuple_product(dfas, disjunction)[1]
    decided = [t for t in tuples if any(map(set.__contains__, deciding, t))]
    return [t for t in tuples if t not in decided or t == decided[0]]


def assert_folds_alike(dfas, kinds=(False, True), tuples=True):
    for disjunction in kinds:
        assert_fold(dfas, disjunction, product_fold(dfas, disjunction), tuples)


def absorbing(dfa, finals):
    """The states of ``dfa`` whose row is all themselves, with the given
    acceptance."""
    return [q for q, row in enumerate(dfa.transitions)
            if row.count(q) == len(row) and (q in dfa.finals) == finals]


def has_deciding_sink(dfa, disjunction=False) -> bool:
    return bool(absorbing(dfa, disjunction))


def constant(dfa, finals) -> bool:
    """Whether every state of ``dfa`` has the given acceptance."""
    return len(dfa.finals) == (dfa.n_states if finals else 0)


EXPLORE_BUDGET = 10_000


@pytest.fixture
def explore_budget(monkeypatch):
    """Fail any ``_explore`` walk that numbers more than
    ``EXPLORE_BUDGET`` keys, so a fold that stops collapsing deciding
    tuples fails at once instead of growing toward 2^n tuples."""
    explore = automata._explore

    def capped(start, cells):
        def capped_cells(key, ident):
            def numbered(successor):
                state = ident(successor)
                assert state < EXPLORE_BUDGET, f"_explore numbered over {EXPLORE_BUDGET} keys"
                return state

            return cells(key, numbered)

        return explore(start, capped_cells)

    monkeypatch.setattr(automata, "_explore", capped)


def local_dfas(model):
    return [monitor.dfa for monitor in local_monitors(model).values()]


def test_product_fold_matches_the_minimized_product_on_models():
    rng = random.Random(6153)
    models = [random_model(rng) for _ in range(100)]
    rng = random.Random(6154)
    models += [
        parse_decl(random_decl_text(rng, ["a", "b", "c", "d"][: rng.randint(1, 4)]))
        for _ in range(60)
    ]
    collapsed = 0
    for model in models:
        dfas = local_dfas(model)
        assert_folds_alike(dfas)
        collapsed += len(dfas) > 1 and any(map(has_deciding_sink, dfas))
    assert collapsed >= 40


def random_operand(rng, names, kind):
    """A random formula whose top is not ``kind``, so a chain of them
    flattens back into exactly these operands."""
    while True:
        f = random_ldlf(rng, names, depth=2)
        if not isinstance(f, kind):
            return f


@pytest.mark.parametrize("kind", [ldl.And, ldl.Or], ids=["and", "or"])
def test_boolean_chains_compile_to_the_minimized_product(kind):
    rng = random.Random(6155 if kind is ldl.And else 6156)
    disjunction = kind is ldl.Or
    collapsed = []
    for index in range(60):
        props = [f"p{j}" for j in range(rng.randint(2, 4))]
        alphabet = Alphabet(tuple(props))
        operands = [random_operand(rng, props, kind) for _ in range(2 + index % 5)]
        chain = operands[0]
        for f in operands[1:]:
            chain = kind(chain, f)
        dfas = [compile_dfa(f, alphabet) for f in operands]
        assert_fold(dfas, disjunction, product_fold(dfas, disjunction))
        assert_fold(dfas, disjunction, compile_dfa(chain, alphabet))
        if any(has_deciding_sink(d, disjunction) for d in dfas):
            collapsed.append(len(dfas))
    # Every chain length from 2 to 6 has an operand that decides alone.
    assert len(collapsed) >= 10 and set(collapsed) == {2, 3, 4, 5, 6}


def test_edge_cases_of_the_fold(explore_budget):
    ab = Alphabet.of("a", "b")
    dead = parse_decl("tasks: a, b\nc0: response(a, b)\nc1: ltl: a && !a\nc2: precedence(a, b)\n")
    assert has_deciding_sink(local_dfas(dead)[1])
    empty = parse_decl("tasks: a, b\nexistence(a)\nabsence(a)\n")
    assert ModelMonitor(empty).overall.current_rv() is RVState.PERM_FALSE
    assert all(m.current_rv() is not RVState.PERM_FALSE for m in local_monitors(empty).values())
    texts = ("<true*>a", "[true*]tt", "<b>tt")
    universal = [compile_dfa(parse_ldlf(text, ab), ab) for text in texts]
    assert universal[1].n_states == 1 and universal[1].finals
    many = parse_decl(
        "tasks: " + ", ".join(f"t{i}" for i in range(400)) + "\n"
        + "".join(f"absence(t{i})\n" for i in range(400))
    )
    for dfas in (local_dfas(dead), local_dfas(empty), universal, universal[::-1]):
        assert_folds_alike(dfas)
    # 2^400 tuples are reachable without collapsing, so the tuple product
    # is out of reach; its minimal DFA would keep the first tuple of each
    # block, the start and the first violation, on t0.  The disjunction
    # tells apart every set of tasks seen so far.
    absences = local_dfas(many)
    assert_folds_alike(absences, kinds=(False,), tuples=False)
    assert product_fold(absences).labels == (
        "(" + ",".join(["0"] * 400) + ")", "(" + ",".join(["1"] + ["0"] * 399) + ")")
    single = local_dfas(dead)[:1]
    assert product_fold(single) is single[0]
    assert product_fold(single, True) is single[0]
    with pytest.raises(ValueError, match="no automata"):
        product_fold([])
    with pytest.raises(ValueError, match="no automata"):
        product_fold(iter(()), True)
    other = compile_dfa(parse_ldlf("<true*>a", Alphabet.of("a")), Alphabet.of("a"))
    for dfas in ([universal[0], other], [*universal, other], [other, *universal]):
        with pytest.raises(ValueError, match="product needs automata over the same alphabet"):
            product_fold(dfas)


@pytest.mark.parametrize(
    "seed, count, depth, star_depth", [(7001, 160, 3, 1), (8101, 120, 4, 2)]
)
def test_minimize_matches_the_refinement_it_replaced(seed, count, depth, star_depth):
    for formula, alphabet in seeded_cases(seed, count, depth, star_depth):
        subset = determinize(ldlf_to_nfa(formula, alphabet))
        minimal = minimize(subset)
        want = ref.minimize(subset)
        assert aut_to_json(minimal) == aut_to_json(want)
        assert minimal.finals == want.finals
        assert minimal.labels == want.labels
        colored = color(minimal)
        for colors in (SATISFIABLE, *({state} for state in RVState)):
            finals = frozenset(q for q, rv in enumerate(colored.colors) if rv in colors)
            got = colored.accepting(colors)
            want = ref.minimize(minimal.with_finals(finals))
            assert aut_to_json(got) == aut_to_json(want)
            assert got.labels == want.labels


# Deciding cells: each operand state marks once the classes whose target
# decides the fold, and a tuple's cells that lead there are the classes
# set in the OR of its components' marks.


def task_dfa(alphabet, table, finals, initial=0):
    """A DFA over a task alphabet from ``{state: {task: target}}``; a task
    a state does not name loops on it."""
    rows = {
        state: {frozenset((task,)): moves.get(task, state) for task in alphabet.props}
        for state, moves in table.items()
    }
    return Dfa(alphabet, len(table), initial, column_rows(alphabet, rows), frozenset(finals))


ABCD = Alphabet.tasks(["a", "b", "c", "d"])
# absence(a): a leads to a rejecting sink, every other task stays.
NO_A = task_dfa(ABCD, {0: {"a": 1}, 1: {}}, {0})
# existence(b): b leads to an accepting sink.
SOME_B = task_dfa(ABCD, {0: {"b": 1}, 1: {}}, {1})
# response(c, d).
C_THEN_D = task_dfa(ABCD, {0: {"c": 1}, 1: {"d": 0}}, {0})
# Not minimal: a and b lead to two rejecting sinks, d to an accepting one.
TWO_SINKS = task_dfa(ABCD, {0: {"a": 1, "b": 2, "d": 3}, 1: {}, 2: {}, 3: {}}, {0, 3})


def test_deciding_cells_reached_through_only_some_classes():
    for dfas in ([NO_A, C_THEN_D], [C_THEN_D, NO_A, SOME_B], [SOME_B, C_THEN_D],
                 [C_THEN_D, SOME_B, NO_A, C_THEN_D]):
        assert_folds_alike(dfas)
    # From the start only the class of a decides the conjunction, so the
    # product's rejecting sink is the tuple a reaches.
    fold = product_fold([C_THEN_D, NO_A])
    assert fold.labels == ("(0,0)", "(0,1)", "(1,0)")
    assert color(fold).colors[1] is RVState.PERM_FALSE
    # And only the class of b decides the disjunction.
    fold = product_fold([C_THEN_D, SOME_B], True)
    assert fold.labels == ("(0,0)", "(0,1)", "(1,0)")
    assert color(fold).colors[1] is RVState.PERM_TRUE


def test_a_start_tuple_with_a_deciding_component():
    never = task_dfa(ABCD, {0: {}}, ())
    always = task_dfa(ABCD, {0: {}}, {0})
    # Not minimal, and deciding from the start: state 1 is unreachable.
    dead_start = task_dfa(ABCD, {0: {}, 1: {"a": 0}}, {1})
    for dfas, disjunction in (([C_THEN_D, never], False), ([C_THEN_D, NO_A, dead_start], False),
                              ([SOME_B, C_THEN_D, always], True)):
        assert_folds_alike(dfas, kinds=(disjunction,))
        fold = product_fold(dfas, disjunction)
        assert fold.n_states == 1 and fold.labels == ("(" + ",".join(["0"] * len(dfas)) + ")",)
        assert bool(fold.finals) is disjunction
    # The other polarity decides nothing: a rejecting start sink of a
    # disjunction leaves the other operands to decide.
    assert_folds_alike([C_THEN_D, never, SOME_B], kinds=(True,))


def test_a_constant_operand_settles_the_fold():
    """An operand with no final state settles a conjunction, and one with
    only final states a disjunction, at any position: the fold is one
    state labelled by the start tuple, and no tuple is walked.  The other
    polarity walks as before."""
    never = task_dfa(ABCD, {0: {}}, ())
    always = task_dfa(ABCD, {0: {}}, {0})
    # Not minimal, and not absorbing: a moves between the two states.
    never_flip = task_dfa(ABCD, {0: {"a": 1}, 1: {"a": 0}}, (), initial=1)
    always_flip = task_dfa(ABCD, {0: {"a": 1}, 1: {"a": 0}}, {0, 1}, initial=1)
    settled = 0
    for operand, disjunction in ((never, False), (never_flip, False),
                                 (always, True), (always_flip, True)):
        for others in ([C_THEN_D], [C_THEN_D, NO_A, SOME_B]):
            for position in range(len(others) + 1):
                dfas = [*others[:position], operand, *others[position:]]
                assert_folds_alike(dfas)
                assert walked_keys(dfas, not disjunction)
                fold = product_fold(dfas, disjunction)
                assert walked_keys(dfas, disjunction) == []
                assert fold.n_states == 1 and bool(fold.finals) is disjunction
                start = ",".join(str(dfa.initial) for dfa in dfas)
                assert fold.labels == (f"({start})",)
                settled += 1
    assert settled == 4 * (2 + 4)


def test_a_non_minimal_operand_with_two_deciding_states():
    assert absorbing(TWO_SINKS, False) == [1, 2] and absorbing(TWO_SINKS, True) == [3]
    for dfas in ([TWO_SINKS, C_THEN_D], [C_THEN_D, TWO_SINKS, SOME_B], [SOME_B, TWO_SINKS]):
        assert_folds_alike(dfas)
    # a and b both reach the one rejecting state of the conjunction.
    fold = product_fold([C_THEN_D, TWO_SINKS])
    colors = color(fold).colors
    assert colors.count(RVState.PERM_FALSE) == 1
    dead = colors.index(RVState.PERM_FALSE)
    assert fold.labels[dead] == "(0,1)"
    assert step(fold, 0, frozenset("a")) == step(fold, 0, frozenset("b")) == dead


@pytest.mark.parametrize("disjunction", [False, True], ids=["and", "or"])
def test_random_chains_with_deciding_sinks(disjunction):
    """Chains of 2 to 5 random DFAs, each state made an absorbing sink of
    either acceptance now and then, so operands decide through random
    classes, from the start or only later, sometimes through two states."""
    rng = random.Random(6161 if disjunction else 6162)
    abc = Alphabet.tasks(["a", "b", "c"])
    shapes = {"some classes": 0, "start": 0, "two deciding": 0}
    for index in range(120):
        dfas = []
        for _ in range(2 + index % 4):
            dfa = random_dfa(rng, abc, max_states=5)
            rows = list(dfa.transitions)
            finals = set(dfa.finals)
            for q in range(dfa.n_states):
                if rng.random() < 0.3:
                    rows[q] = (q,) * len(rows[q])
                    (finals.add if rng.random() < 0.5 else finals.discard)(q)
            dfas.append(Dfa(abc, dfa.n_states, 0, tuple(rows), frozenset(finals)))
        assert_fold(dfas, disjunction, product_fold(dfas, disjunction))
        deciding = [set(absorbing(d, disjunction)) for d in dfas]
        shapes["start"] += any(0 in d for d in deciding)
        shapes["two deciding"] += any(len(d) > 1 for d in deciding)
        shapes["some classes"] += any(
            0 < sum(t in d for t in dfa.transitions[0]) < len(abc.letters())
            for dfa, d in zip(dfas, deciding))
    assert min(shapes.values()) >= 20, shapes


def test_four_hundred_absences_and_an_existence(explore_budget):
    """401 classes, so masks of 401 bits: every absence decides on its own
    task, the existence on none."""
    tasks = [f"t{i}" for i in range(401)]
    model = parse_decl(
        "tasks: " + ", ".join(tasks) + "\n"
        + "".join(f"absence(t{i})\n" for i in range(400)) + "existence(t400)\n"
    )
    dfas = local_dfas(model)
    assert_folds_alike(dfas, kinds=(False,), tuples=False)
    fold = product_fold(dfas)
    zeros = ["0"] * 399
    assert fold.labels == (
        "(" + ",".join([*zeros, "0", "0"]) + ")",
        "(" + ",".join(["1", *zeros, "0"]) + ")",
        "(" + ",".join([*zeros, "0", "1"]) + ")",
    )
    assert [rv.code for rv in color(fold).colors] == ["TF", "PF", "TT"]
    # Every tuple past a task of an absence is the first such tuple.
    assert walked_keys(dfas) == [(0,) * 401, (1,) + (0,) * 400, (0,) * 400 + (1,)]
