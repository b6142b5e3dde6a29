"""Class-level compilation against the per-letter construction it replaces.

``ldlf_to_nfa``, ``determinize`` and ``minimize`` compute one successor
per letter class and copy it into every column of the class; the prefix
closures walk each state's distinct targets.  The references are the
per-letter versions these replaced: ``reference_pipeline`` holds the NFA
construction, the subset construction and the prefix closure, and
``reference_product.minimize`` the per-letter ``minimize``.  Every
table, label and final set must come out byte-identical, on prop
alphabets where the formula uses only some of the props and on task
alphabets.
"""
import random

from ldlmon import automata
from ldlmon.automata import (
    Dfa,
    _nfa_route,
    aut_to_json,
    color,
    deltas,
    determinize,
    ldlf_to_nfa,
    letter_classes,
    minimize,
    prefix_closure,
)
from ldlmon.syntax import Alphabet, parse_ldlf
from ldlmon.syntax.transforms import ltlf_to_ldlf

from reference_json import aut_from_json
from reference_pipeline import reference_determinize, reference_ldlf_to_nfa, reference_prefix_closure
import reference_product as product
from oracles import monolithic_dfa
from genformulas import column_rows, random_dfa, random_ldlf, random_ltlf, replace, seeded_cases


def assert_same(got, want):
    assert aut_to_json(got) == aut_to_json(want)
    assert got.labels == want.labels
    assert got.finals == want.finals


def test_pipeline_matches_the_per_letter_construction():
    for formula, alphabet in seeded_cases(7001, 160):
        nfa = ldlf_to_nfa(formula, alphabet)
        assert_same(nfa, reference_ldlf_to_nfa(formula, alphabet))
        subset = determinize(nfa)
        assert_same(subset, reference_determinize(nfa))
        minimal = minimize(subset)
        assert_same(minimal, product.minimize(subset))
        for aut in (nfa, subset, minimal):
            assert prefix_closure(aut).finals == reference_prefix_closure(aut)


def test_classes_come_from_the_automaton_alone():
    """letter_classes reads the tables, so automata read back from JSON
    (no labels, no formula), products and hand-built DFAs determinize
    and minimize the same way.  The hand-built ones have unreachable
    states, some numbered below the initial state, and blocks that split
    only after several rounds of refinement."""
    rng = random.Random(7002)
    cases = list(seeded_cases(7003, 40))
    for formula, alphabet in cases:
        nfa, _ = aut_from_json(aut_to_json(ldlf_to_nfa(formula, alphabet)))
        subset = determinize(nfa)
        assert aut_to_json(subset) == aut_to_json(reference_determinize(nfa))
        dfa, _ = aut_from_json(aut_to_json(subset))
        assert aut_to_json(minimize(dfa)) == aut_to_json(product.minimize(dfa))
        other, _ = rng.choice([c for c in cases if c[1] == alphabet])
        pair, _ = product.tuple_product((subset, determinize(ldlf_to_nfa(other, alphabet))))
        assert_same(minimize(pair), product.minimize(pair))
    props = Alphabet.of("a", "b")
    hand_built = []
    for n in range(1, 8):
        labels = tuple(f"q{s}" for s in range(2 * n + 1))
        # A counter: ``a`` moves one state on, anything else stays; state
        # 0 is unreachable, and state s splits off after 2n - s rounds.
        chain = {
            s: {l: min(s + 1, 2 * n) if "a" in l else s for l in props.letters()}
            for s in range(2 * n + 1)
        }
        hand_built.append(
            Dfa(props, 2 * n + 1, 1, column_rows(props, chain), frozenset({2 * n}), labels)
        )
        # A cycle of 2n states with finals n apart: those pairs merge,
        # and the others split one round per step to the next final.
        cycle = {
            s: {l: (s + 1) % (2 * n) if "a" in l else s for l in props.letters()}
            for s in range(2 * n)
        }
        hand_built.append(
            Dfa(props, 2 * n, 0, column_rows(props, cycle), frozenset({0, n}), labels[:-1])
        )
    for _ in range(60):
        dfa = random_dfa(rng, props)
        labels = tuple(f"q{s}" for s in range(dfa.n_states))
        hand_built.append(replace(dfa, initial=rng.randrange(dfa.n_states), labels=labels))
    for dfa in hand_built:
        assert_same(minimize(dfa), product.minimize(dfa))


def test_letter_classes_group_exactly_the_equal_columns():
    alphabet = Alphabet.of("a", "b", "c")
    nfa = ldlf_to_nfa(parse_ldlf("<a><b>tt", alphabet), alphabet)
    firsts, class_of = letter_classes(nfa)
    assert [class_of.index(k) for k in range(len(firsts))] == firsts
    for x, kx in enumerate(class_of):
        for y, ky in enumerate(class_of):
            same = all(row[x] == row[y] for row in nfa.transitions)
            assert same == (kx == ky)
    assert len(firsts) == 4


def count_delta_walks(monkeypatch, formula, alphabet) -> tuple:
    """The ``deltas`` calls building the NFA makes, and the letters they
    walk in all."""
    calls = letters = 0

    def counted(f, walked, unfolding=()):
        nonlocal calls, letters
        calls += 1
        letters += len(walked)
        return deltas(f, walked, unfolding)

    monkeypatch.setattr(automata, "deltas", counted)
    ldlf_to_nfa(formula, alphabet)
    monkeypatch.setattr(automata, "deltas", deltas)
    return calls, letters


def test_delta_work_does_not_grow_with_unused_props(monkeypatch):
    small = Alphabet(tuple(f"p{j}" for j in range(3)))
    large = Alphabet(tuple(f"p{j}" for j in range(8)))
    text = "[true*](<p0>tt -> <true*><p1 || p2>tt) && <(p0 ; !p1)*>end"
    formula = parse_ldlf(text, large)
    few = count_delta_walks(monkeypatch, formula, small)
    many = count_delta_walks(monkeypatch, formula, large)
    assert few[0] > 0
    assert many == few


def test_nfa_route_matches_the_public_stages():
    """``compile_dfa``'s NFA route keeps class rows from the NFA through
    the subset construction into ``_moore``; tables, colors and labels
    must be those of ``minimize(determinize(ldlf_to_nfa(f)))``: on seeded
    formulas (task alphabets among them) and on formulas over 3 props
    inside 3-8-prop alphabets."""
    rng = random.Random(7008)
    cases = list(seeded_cases(7001, 160))
    for n in range(3, 9):
        alphabet = Alphabet(tuple(f"p{j}" for j in range(n)))
        for _ in range(12):
            used = rng.sample(alphabet.props, 3)
            if rng.random() < 0.5:
                cases.append((random_ldlf(rng, used, depth=4, star_depth=2), alphabet))
            else:
                cases.append((ltlf_to_ldlf(random_ltlf(rng, used)), alphabet))
    for formula, alphabet in cases:
        got = _nfa_route(formula, alphabet)
        want = monolithic_dfa(formula, alphabet)
        assert aut_to_json(got, color(got).colors) == aut_to_json(want, color(want).colors)
        assert got.labels == want.labels
