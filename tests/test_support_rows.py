"""Automata over the props they read, against the letter-level route.

Over a prop alphabet every automaton keeps its rows over its support,
the props it reads: one cell per letter over the support.  The
references of ``reference_pipeline`` and ``reference_product`` build
every table over all 2^n letters of the alphabet.  On 160 seeded
formulas over 3 to 7 props, most of which read only some of them, on
``tt`` and ``<true*>end``, which read none, and on a formula that reads
every prop, both routes must give the same ``aut_to_json`` (table,
finals and colors) and the same labels, and a monitor must step as the
reference DFA does on every trace up to length 3.  Compiling lists no
letter, so a 20-prop compile costs what a 3-prop one does, and only
the outputs that list letters refuse an alphabet of more than
``MAX_PROPS`` props.
"""
import itertools
import random

import pytest

from ldlmon.automata import (
    aut_to_json,
    color_minimal,
    compile_dfa,
    determinize,
    ldlf_to_nfa,
)
from ldlmon.cli import main
from ldlmon.declare import Constraint, DeclareModel, ModelMonitor
from ldlmon.monitor import Monitor
from ldlmon.syntax import Alphabet, ldl, parse_ldlf, parse_ltlf
from ldlmon.syntax.alphabet import MAX_PROPS
from ldlmon.syntax.transforms import ltlf_to_ldlf, to_nnf

import reference_product as product
from reference_pipeline import reference_colors, reference_determinize, reference_ldlf_to_nfa
from oracles import step
from genformulas import random_ldlf, random_ltlf, replace

EVERY_PROP = "G (p0 -> F p1) && F (p2 && X p1)"


def support_cases():
    """(formula, alphabet) pairs: 160 seeded formulas over 3 to 7 props,
    the even ones drawing on a strict subset of the props, then ``tt``,
    ``<true*>end`` and ``EVERY_PROP`` over three props."""
    rng = random.Random(4501)
    for index in range(160):
        props = [f"p{j}" for j in range(rng.randint(3, 7))]
        alphabet = Alphabet(tuple(props))
        most = len(props) - 1 if index % 2 == 0 else len(props)
        names = rng.sample(props, rng.randint(1, min(most, 4)))
        if rng.random() < 0.5:
            formula = random_ldlf(rng, names, depth=3, star_depth=1)
        else:
            formula = ltlf_to_ldlf(random_ltlf(rng, names, depth=3))
        yield formula, alphabet
    three = Alphabet.of("p0", "p1", "p2")
    yield parse_ldlf("tt", three), three
    yield parse_ldlf("<true*>end", three), three
    yield ltlf_to_ldlf(parse_ltlf(EVERY_PROP, three)), three


def read_props(formula, alphabet) -> tuple:
    atoms = ldl.formula_atoms(to_nnf(formula))
    return tuple(p for p in alphabet.props if p in atoms)


def reference_compile(formula, alphabet):
    """``compile_dfa`` letter by letter: a negation flips its argument's
    finals, a Boolean chain is the minimized tuple product of its
    operands, and anything else goes through the per-letter NFA and
    subset constructions and the per-letter ``minimize``."""
    if isinstance(formula, ldl.Not):
        dfa = reference_compile(formula.arg, alphabet)
        return replace(dfa, finals=frozenset(range(dfa.n_states)) - dfa.finals)
    if isinstance(formula, (ldl.And, ldl.Or)):
        kind, operands, pending = type(formula), [], [formula]
        while pending:
            f = pending.pop()
            if isinstance(f, kind):
                pending += [f.right, f.left]
            else:
                operands.append(f)
        dfas = [reference_compile(f, alphabet) for f in operands]
        return product.tuple_product_fold(dfas, kind is ldl.Or)
    nfa = reference_ldlf_to_nfa(formula, alphabet)
    return product.minimize(reference_determinize(nfa))


def assert_steps_agree(monitor, dfa, colors):
    """The monitor steps to the reference DFA's state, and its color, on
    every trace up to length 3: one walk over the pairs of states the
    traces of each length reach."""
    letters = dfa.alphabet.letters()
    monitor.reset()
    assert (monitor.current, monitor.current_rv()) == (dfa.initial, colors[dfa.initial])
    pairs = {(monitor.current, dfa.initial)}
    for _ in range(3):
        reached = set()
        for mine, theirs in pairs:
            for letter in letters:
                monitor.current = mine
                rv = monitor.step(letter)
                target = step(dfa, theirs, letter)
                assert (monitor.current, rv) == (target, colors[target]), letter
                reached.add((monitor.current, target))
        pairs = reached


def test_support_rows_match_the_letter_level_route():
    cases = list(support_cases())
    strict = [len(read_props(f, a)) < len(a.props) for f, a in cases]
    assert sum(strict) >= len(cases) // 2
    assert not strict[-1] and read_props(*cases[-3]) == read_props(*cases[-2]) == ()
    for formula, alphabet in cases:
        support = read_props(formula, alphabet)
        nfa, nfa_ref = ldlf_to_nfa(formula, alphabet), reference_ldlf_to_nfa(formula, alphabet)
        assert nfa.support == support
        assert aut_to_json(nfa) == aut_to_json(nfa_ref)
        assert nfa.labels == nfa_ref.labels
        subset, subset_ref = determinize(nfa), reference_determinize(nfa_ref)
        assert aut_to_json(subset) == aut_to_json(subset_ref)
        assert subset.labels == subset_ref.labels
        colored = color_minimal(compile_dfa(formula, alphabet))
        want = reference_compile(formula, alphabet)
        colors = reference_colors(want)
        assert colored.dfa.support == support
        assert aut_to_json(*colored) == aut_to_json(want, colors)
        assert colored.dfa.labels == want.labels
        assert_steps_agree(Monitor(colored), want, colors)


def test_a_model_over_props_shares_one_column_lookup():
    """A model monitor over a prop alphabet whose constraints read
    different props looks each event's column up once for all of its
    monitors, over the union of their supports: on every trace of single
    props up to length 3, every verdict is that of the constraint's own
    monitor (the whole model's, of the conjunction's), and the timeline
    shows the same."""
    alphabet = Alphabet.of("a", "b", "c")
    texts = {"fa": "F a", "gc": "G !c", "ab": "G (a -> X b)"}
    formulas = {name: parse_ltlf(text, alphabet) for name, text in texts.items()}
    constraints = tuple(map(Constraint, formulas, formulas.values()))
    runner = ModelMonitor(DeclareModel(alphabet, constraints))
    formulas["model"] = parse_ltlf(" && ".join(f"({text})" for text in texts.values()), alphabet)
    own = {name: ltlf_to_ldlf(formula) for name, formula in formulas.items()}
    assert {runner.locals[name].dfa.support for name in texts} == {("a",), ("c",), ("a", "b")}
    for trace in (t for n in range(4) for t in itertools.product("abc", repeat=n)):
        runner.reset()
        monitors = {name: Monitor.for_formula(f, alphabet) for name, f in own.items()}
        for p in trace:
            assert runner.step(p) == {name: m.step(frozenset((p,))) for name, m in monitors.items()}
        rows = dict(runner.timeline(trace).rows)
        assert {name: rows[name][-2] for name in own} == {
            name: m.current_rv().code for name, m in monitors.items()}


def test_compiling_lists_no_letter(monkeypatch):
    """With ``letters`` and ``columns`` refusing, a 20-prop compile of a
    formula over three of them still builds its 4-state minimal DFA."""
    def refuse(self):
        raise AssertionError("a compile listed the alphabet's letters")

    monkeypatch.setattr(Alphabet, "letters", refuse)
    monkeypatch.setattr(Alphabet, "columns", refuse)
    alphabet = Alphabet(tuple(f"p{j}" for j in range(MAX_PROPS)))
    colored = color_minimal(compile_dfa(ltlf_to_ldlf(parse_ltlf(EVERY_PROP, alphabet)), alphabet))
    assert colored.dfa.n_states == 4
    assert colored.dfa.support == ("p0", "p1", "p2")
    assert len(colored.dfa.transitions[0]) == 8


@pytest.mark.parametrize("text", [EVERY_PROP, " && ".join(f"F p{j}" for j in range(MAX_PROPS + 1))])
@pytest.mark.parametrize("command", ["compile", "monitor"])
def test_the_outputs_that_list_letters_refuse_too_many_props(command, text, capsys, monkeypatch):
    """Over ``MAX_PROPS`` + 1 props, ``compile`` and ``monitor`` exit 1
    with the ``MAX_PROPS`` message, whether the formula reads three of
    the props (the JSON or the monitor lists every letter) or all of
    them (the compile lists the letters over its support)."""
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO('["p0"]\n'))
    props = ",".join(f"p{j}" for j in range(MAX_PROPS + 1))
    argv = [command, text, "--lang", "ltlf", "--props", props]
    argv += ["--format", "json"] if command == "compile" else ["--trace", "-"]
    assert main(argv) == 1
    assert f"at most {MAX_PROPS} props are supported" in capsys.readouterr().err
