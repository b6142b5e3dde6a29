"""Compositional compilation against the monolithic pipeline it replaces.

``compile_dfa`` and the whole-model monitor build boolean structure out
of products and complements of minimal DFAs.  The reference here is the
one-automaton route, ``minimize(determinize(ldlf_to_nfa(f)))``: minimal
DFAs are canonically numbered, so both must render to the same bytes,
colors included.
"""
import random

import pytest

from ldlmon import cli
from ldlmon.automata import aut_to_json, compile_dfa
from ldlmon.declare import (
    PATTERNS,
    Constraint,
    DeclareModel,
    ModelMonitor,
    global_monitor,
)
from ldlmon.syntax import Alphabet, ldl, parse_ldlf

from genformulas import random_boolean_ldlf
from oracles import colored_json, monolithic_dfa

AB = Alphabet.of("a", "b")
TASKS = Alphabet.tasks(["a", "b", "c"])


def reference_json(formula, alphabet) -> str:
    return colored_json(monolithic_dfa(formula, alphabet))


def reported_colors_json(monitor) -> str:
    """The monitor's automaton with the colors it reports state by state."""
    colors = []
    for state in range(monitor.dfa.n_states):
        monitor.current = state
        colors.append(monitor.current_rv())
    monitor.reset()
    return aut_to_json(monitor.dfa, colors)


@pytest.mark.parametrize("alphabet", [AB, TASKS], ids=["props", "tasks"])
def test_compile_dfa_matches_the_monolithic_pipeline(alphabet):
    rng = random.Random(2021)
    for _ in range(200):
        formula = random_boolean_ldlf(rng, list(alphabet.props), depth=3)
        got = colored_json(compile_dfa(formula, alphabet))
        assert got == reference_json(formula, alphabet), ldl.print_ldlf(formula)


def random_model(rng) -> DeclareModel:
    tasks = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    constraints = []
    for index in range(rng.randint(1, 5)):
        name = rng.choice(sorted(PATTERNS))
        builder, arity = PATTERNS[name]
        args = rng.sample(tasks, arity)
        constraints.append(Constraint(f"c{index}", builder(*args)))
    return DeclareModel(Alphabet.tasks(tasks), tuple(constraints))


def test_model_monitor_matches_the_monolithic_conjunction():
    rng = random.Random(1859)
    for _ in range(100):
        model = random_model(rng)
        conjunction = model.constraints[0].to_ldlf()
        for c in model.constraints[1:]:
            conjunction = ldl.And(conjunction, c.to_ldlf())
        want = reference_json(conjunction, model.alphabet)
        assert reported_colors_json(ModelMonitor(model).overall) == want
        assert reported_colors_json(global_monitor(model)) == want


def test_long_conjunction_chains_compile_without_recursion():
    operands = [
        parse_ldlf(text, AB) for text in ("<true*>a", "<true*>b", "[true*](a -> <true>tt)")
    ]
    formula = operands[0]
    for index in range(1, 1200):
        formula = ldl.And(formula, operands[index % len(operands)])
    want = compile_dfa(ldl.And(ldl.And(operands[0], operands[1]), operands[2]), AB)
    assert aut_to_json(compile_dfa(formula, AB)) == aut_to_json(want)


def test_a_model_with_hundreds_of_constraints_builds_and_runs(
    tmp_path, capsys, monkeypatch
):
    """400 absence constraints: the old conjunction formula nested 400
    deep and overflowed the stack; the product fold does not."""
    n = 400
    tasks = [f"t{i}" for i in range(n)]
    text = f"tasks: {', '.join(tasks)}\n" + "".join(f"absence({t})\n" for t in tasks)
    model_path = tmp_path / "many.decl"
    model_path.write_text(text, encoding="utf-8")
    trace_path = tmp_path / "many.trace"
    trace_path.write_text("t7\n", encoding="utf-8")

    built = []

    class RecordingModelMonitor(ModelMonitor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "ModelMonitor", RecordingModelMonitor)
    code = cli.main(["declare", str(model_path), "--trace", str(trace_path)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    (runner,) = built
    assert len(runner.locals) == n
    assert runner.overall.dfa.n_states == 2
    rows = {}
    for line in out.splitlines():
        label, *cells = (cell.strip() for cell in line.split("|"))
        rows[label] = cells
    assert rows["absence(t7)"] == ["TT", "PF", "PF"]
    assert rows["absence(t8)"] == ["TT", "TT", "PT"]
    assert rows["model"] == ["TT", "PF", "PF"]
