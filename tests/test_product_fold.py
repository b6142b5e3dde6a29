"""The n-ary product fold and the shared Moore refinement against the
constructions in ``reference_product``.

``product_fold`` walks the tuples of its operands' states once at class
level, collapses the tuples that an absorbing component decides, and
refines them in place; ``minimize`` runs the same refinement on its own
class rows.  Tables, finals and colors must come out byte for byte as
the pairwise fold of minimized products and as the minimized product
over state tuples give them.  Labels must be the tuple product's, and
with two operands also the pairwise fold's; ``minimize`` must match the
old refinement, labels included.
"""
import operator
import random

import pytest

from ldlmon.automata import (
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
from genformulas import random_ldlf, seeded_cases
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
    two operands."""
    pairwise = ref.product_fold(dfas, operator.or_ if disjunction else None)
    same_tables(got, pairwise)
    if len(dfas) == 2:
        assert got.labels == pairwise.labels
    if tuples:
        assert_same(got, ref.tuple_product_fold(dfas, disjunction))


def assert_folds_alike(dfas, kinds=(False, True), tuples=True):
    for disjunction in kinds:
        assert_fold(dfas, disjunction, product_fold(dfas, disjunction), tuples)


def has_deciding_sink(dfa, disjunction=False) -> bool:
    return any(
        row.count(q) == len(row) and (q in dfa.finals) == disjunction
        for q, row in enumerate(dfa.transitions)
    )


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


def test_edge_cases_of_the_fold():
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
