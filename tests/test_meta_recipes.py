"""Directive recipes against ``compile_dfa`` of the expanded directive
formulas.

``MetaMonitor`` builds each directive with its kind's recipe from the
targets' colored DFAs, and builds no LDLf formula on the way.  The
reference expands the directive's formula (``directive_formula``) into
plain LDLf, the paper's encoding, and compiles that with ``compile_dfa``,
which never calls ``_diamond_after``, the recipes' subset construction
for RV-path modalities: tables, finals and colors must come out byte for
byte the same.
"""
import pathlib
import random

from ldlmon.automata import ColoredDfa, aut_to_json, color_minimal, compile_dfa
from ldlmon.declare import PATTERNS, MetaMonitor, parse_meta
from ldlmon.metaconstraints import expand
from ldlmon.rv import RVState
from ldlmon.syntax.base import Node

from oracles import monitor_json
from test_lockstep import random_meta_text

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def assert_recipes_match(model):
    """Every directive's monitor is the colored minimal DFA of its
    expanded formula, each compiled through a memo of its own."""
    runner = MetaMonitor(model)
    for directive in model.directives:
        memo: dict = {}
        formula = expand(model.directive_formula(directive), model.alphabet, memo)
        want = color_minimal(compile_dfa(formula, model.alphabet, memo))
        got = runner.meta[directive.name]
        assert monitor_json(got) == aut_to_json(want.dfa, want.colors), directive


def test_recipes_match_compiled_formulas_on_random_models_and_samples():
    rng = random.Random(7501)
    kinds = set()
    for _ in range(200):
        model = parse_meta(random_meta_text(rng))
        assert_recipes_match(model)
        kinds.update((d.kind, d.reactive) for d in model.directives)
    assert len(kinds) == 5
    for name in ("booking.meta", "directives.meta"):
        assert_recipes_match(parse_meta((SAMPLES / name).read_text(encoding="utf-8")))


def grid_text() -> str:
    """Defines from every catalog pattern and one ``ltl:`` define, and
    every directive kind over them: ``absence ... when`` in each RV
    state for each task, compensation plain and reactive, conflict and
    preference over every ordered pair."""
    tasks = ["a", "b", "c"]
    lines = [f"tasks: {', '.join(tasks)}"]
    names = []
    for pattern, (_, arity) in sorted(PATTERNS.items()):
        names.append(pattern)
        lines.append(f"define {pattern}: {pattern}({', '.join(tasks[:arity])})")
    names.append("custom")
    lines.append("define custom: ltl: G (a -> X F c) || F b")
    count = 0

    def meta(body):
        nonlocal count
        lines.append(f"meta m{count}: {body}")
        count += 1

    for first in names:
        for state in RVState:
            for task in tasks:
                meta(f"absence {task} when {first} = {state.code}")
        for second in names:
            meta(f"compensate {first} with {second}")
            meta(f"compensate {first} with {second} reactive")
            meta(f"conflict {first} {second}")
            meta(f"prefer {first} over {second}")
    return "\n".join(lines) + "\n"


def test_recipes_match_compiled_formulas_on_every_kind_state_and_pattern():
    model = parse_meta(grid_text())
    assert len(model.directives) == 10 * 4 * 3 + 10 * 10 * 4
    assert_recipes_match(model)


def test_pattern_defines_build_no_formula_and_minimize_no_rv_atom(monkeypatch):
    model = parse_meta((SAMPLES / "booking.meta").read_text(encoding="utf-8")
                       .replace("ltl: F return", "existence(return)"))
    assert all(c.call is not None for c in model.defines)
    assert {d.kind for d in model.directives} == {"absence-when", "compensate", "conflict",
                                                 "prefer"}
    assert any(d.reactive for d in model.directives)
    warm = MetaMonitor(model)  # fills the pattern table
    built, accepting = [], []
    real_init, real_accepting = Node.__init__, ColoredDfa.accepting

    def counting_init(self, *values):
        built.append(type(self).__name__)
        real_init(self, *values)

    def counting_accepting(self, colors):
        accepting.append(colors)
        return real_accepting(self, colors)

    monkeypatch.setattr(Node, "__init__", counting_init)
    monkeypatch.setattr(ColoredDfa, "accepting", counting_accepting)
    runner = MetaMonitor(model)
    monkeypatch.undo()
    assert built == [] and accepting == []
    assert list(map(monitor_json, runner.meta.values())) == list(
        map(monitor_json, warm.meta.values()))
    assert all("formula" not in vars(c) for c in model.defines)
