"""Pattern constraints instantiated from the pattern table against the
compile route they replace.

``local_monitors`` builds a pattern call's monitor by copying columns of
its pattern's template and renumbering the states breadth first.  The
reference compiles the constraint's own formula with ``compile_dfa``
and colors it: minimal DFAs are canonically numbered, so both must
render to the same bytes, colors included.  Every catalog pattern runs
with its arguments at every position over alphabets of 1 to arity + 3
tasks, so models with and without a task that is no argument, and with
repeated arguments such as ``response(t0, t0)``, are all covered.

An ``ltl:`` line whose formula, or a conjunct of its top-level ``&&``
chain, is a catalog pattern up to the names of its tasks reads the same
table.  Those lines are checked against the same reference, and against
the NFA construction they must no longer run.
"""
import itertools
import random

import pytest

from ldlmon import automata, declare
from ldlmon.automata import aut_to_json, color_minimal, compile_dfa, to_dot
from ldlmon.declare import (
    PATTERNS,
    MetaMonitor,
    ModelMonitor,
    global_monitor,
    local_monitors,
    parse_decl,
    parse_meta,
)

from ldlmon.syntax import ltl
from ldlmon.syntax.props import Atom

from oracles import colored_json, monitor_json
from table_digests import perfbench_inputs


def every_call_text(pattern: str, n_tasks: int) -> str:
    """A model over ``n_tasks`` tasks with one constraint per argument
    tuple of the pattern."""
    tasks = [f"t{index}" for index in range(n_tasks)]
    calls = itertools.product(tasks, repeat=PATTERNS[pattern][1])
    lines = [f"{pattern}({', '.join(args)})" for args in calls]
    return f"tasks: {', '.join(tasks)}\n" + "\n".join(lines) + "\n"


# Every pattern and equality pattern once, with a task that is no argument.
EVERY_TEMPLATE = "tasks: a, b, c\n" + "".join(
    f"{p}(a)\n" if arity == 1 else f"{p}(a, b)\n{p}(b, b)\n"
    for p, (_, arity) in PATTERNS.items()
)

CASES = [
    (pattern, n_tasks)
    for pattern, (_, arity) in PATTERNS.items()
    for n_tasks in range(1, arity + 4)
]


@pytest.mark.parametrize(
    "pattern, n_tasks", CASES, ids=[f"{p}-{n}" for p, n in CASES]
)
def test_instantiated_monitors_match_their_compiled_formulas(pattern, n_tasks):
    model = parse_decl(every_call_text(pattern, n_tasks))
    alphabet = model.alphabet
    monitors = local_monitors(model)
    for c in model.constraints:
        assert c.call == (pattern, tuple(c.name[len(pattern) + 1 : -1].split(", ")))
        want = colored_json(compile_dfa(c.to_ldlf(), alphabet))
        assert monitor_json(monitors[c.name]) == want, c.name
        assert monitors[c.name].dfa.labels == ()  # instantiated, not compiled
    runner = ModelMonitor(model)
    assert [monitor_json(m) for m in runner.locals.values()] == [
        monitor_json(m) for m in monitors.values()
    ]
    assert monitor_json(runner.overall) == monitor_json(global_monitor(model))


def test_pattern_calls_compile_nothing_once_their_templates_exist(monkeypatch):
    built = []
    build = automata.ldlf_to_nfa

    def counting(formula, alphabet):
        built.append(formula)
        return build(formula, alphabet)

    local_monitors(parse_decl(EVERY_TEMPLATE))
    monkeypatch.setattr(automata, "ldlf_to_nfa", counting)
    local_monitors(parse_decl(EVERY_TEMPLATE.replace("tasks: a, b, c", "tasks: c, b, a, d")))
    assert built == []
    # Every task an argument: no column copies the other task's.
    local_monitors(parse_decl("tasks: a\nresponse(a, a)\n"))
    assert built == []
    # A meta model's shown defines read the same table.
    calls = EVERY_TEMPLATE.splitlines()[1:]
    MetaMonitor(parse_meta("tasks: c, b, a, d\n" + "".join(
        f"define d{index}: {call}\nshow d{index}\n" for index, call in enumerate(calls)
    )))
    assert built == []


def test_calls_are_recorded_only_for_pattern_lines():
    model = parse_decl("tasks: a, b\nr: response(b, a)\nltl: G(a -> F b)\n")
    assert [c.call for c in model.constraints] == [("response", ("b", "a")), None]
    meta = parse_meta("tasks: a, b\ndefine d: absence2(a)\nshow d\n")
    assert meta.define("d").call == ("absence2", ("a",))


def test_instantiated_dot_shows_no_slot_names():
    model = parse_decl("tasks: pay, acc, get\nresponse(pay, get)\nchoice(acc, acc)\n")
    for monitor in local_monitors(model).values():
        assert monitor.dfa.labels == ()
        assert "tooltip" not in to_dot(monitor.dfa)


# The catalog written out in LTLf text, apart from ``declare.PATTERNS``.
CATALOG_LTL = {
    "existence": "F {0}",
    "absence": "!F {0}",
    "absence2": "!F ({0} && X F {0})",
    "choice": "F ({0} || {1})",
    "responded_existence": "F {0} -> F {1}",
    "response": "G ({0} -> X F {1})",
    "precedence": "(!{1} U {0}) || !F {1}",
    "not_coexistence": "!(F {0} && F {1})",
    "succession": "G ({0} -> X F {1}) && ((!{1} U {0}) || !F {1})",
}
# Every pattern and equality pattern once over five tasks: 15 shapes.
SHAPES = [
    CATALOG_LTL[p].format(*args)
    for p, (_, arity) in PATTERNS.items()
    for args in ([("c",)] if arity == 1 else [("d", "b"), ("c", "c")])
]
NOT_CATALOG = ["G (a -> F b)", "F (a && b)"]


def count_nfa_routes(monkeypatch) -> list:
    """The formulas ``automata._nfa_route`` compiles from now on."""
    built = []
    route = automata._nfa_route

    def counting(formula, alphabet):
        built.append(formula)
        return route(formula, alphabet)

    monkeypatch.setattr(automata, "_nfa_route", counting)
    return built


def ltl_monitors(formulas, monkeypatch) -> tuple[dict, int]:
    """Each formula's monitor as one ``ltl:`` line of a model over five
    tasks, checked against the constraint's own compile, and how many
    NFA-route compiles the monitors took (the pattern table warm)."""
    local_monitors(parse_decl(EVERY_TEMPLATE))
    model = parse_decl("tasks: a, b, c, d, e\n" + "".join(
        f"c{index}: ltl: {text}\n" for index, text in enumerate(formulas)))
    built = count_nfa_routes(monkeypatch)
    monitors = local_monitors(model)
    routes = len(built)
    monkeypatch.undo()
    for c in model.constraints:
        want = aut_to_json(*color_minimal(compile_dfa(c.to_ldlf(), model.alphabet)))
        assert monitor_json(monitors[c.name]) == want, c.formula
    return monitors, routes


def chain(*texts) -> str:
    return " && ".join(f"({text})" for text in texts)


def test_catalog_shapes_written_in_ltl_read_the_pattern_table(monkeypatch):
    assert len(SHAPES) == 15
    monitors, routes = ltl_monitors(SHAPES, monkeypatch)
    assert routes == 0
    assert all(m.dfa.labels == () for m in monitors.values())  # instantiated


def test_chains_of_catalog_shapes_compile_nothing(monkeypatch):
    rotate = str.maketrans("abcde", "cdeab")
    chains = [chain(SHAPES[i], SHAPES[(i + 4) % 15].translate(rotate)) for i in range(15)]
    chains += [chain(SHAPES[i], SHAPES[(i + 1) % 15], SHAPES[(i + 7) % 15].translate(rotate))
               for i in range(15)]
    _, routes = ltl_monitors(chains, monkeypatch)
    assert routes == 0


def test_chains_mixed_with_other_conjuncts_compile_only_those(monkeypatch):
    mixed = [chain(SHAPES[i], NOT_CATALOG[i % 2]) for i in range(15)]
    mixed += [chain(NOT_CATALOG[0], SHAPES[i], NOT_CATALOG[1]) for i in range(0, 15, 3)]
    _, routes = ltl_monitors(mixed, monkeypatch)
    # One build, one memo: each conjunct that is no catalog pattern once.
    assert routes == len(NOT_CATALOG)


@pytest.mark.parametrize("text", [
    "G (a -> F b)",  # response without X
    "(b U !a) || !F a",  # precedence with the U operands swapped
    "F (a && b)",
    "F (a || true)",
    chain(*NOT_CATALOG),
], ids=["response-without-X", "precedence-swapped-U", "eventually-both", "constant", "chain"])
def test_near_misses_take_the_compile_route(text, monkeypatch):
    _, routes = ltl_monitors([text], monkeypatch)
    assert routes > 0


def test_the_shape_walk_stops_at_the_largest_catalog_shape():
    """A formula far longer or deeper than any catalog pattern is
    refused after that many nodes, without recursion."""
    deep = ltl.LtlfProp(Atom("a"))
    for _ in range(20000):
        deep = ltl.Next(deep)
    wide = ltl.Eventually(ltl.LtlfProp(Atom("a")))
    for _ in range(20000):
        wide = ltl.LtlfAnd(wide, ltl.Eventually(ltl.LtlfProp(Atom("a"))))
    assert declare._catalog_call(deep) is None
    assert declare._catalog_call(wide) is None
    assert declare._catalog_call(wide.right) == ("existence", ("a",))
    assert len(declare._SHAPES) == 15


def test_warm_meta_builds_run_no_nfa_route(monkeypatch):
    """The benchmark's meta models write their third define as an ``ltl:``
    conjunction of catalog patterns: with the table warm, none of the
    120 models that ``table_digests`` pins runs the NFA construction."""
    inputs = perfbench_inputs()
    texts = [inputs.meta_model(random.Random(seed)).text for seed in range(120)]
    assert sum("ltl: (" in text for text in texts) > 60
    for text in texts:
        MetaMonitor(parse_meta(text))
    built = count_nfa_routes(monkeypatch)
    for text in texts:
        MetaMonitor(parse_meta(text))
    assert built == []
    assert len(declare._TEMPLATES) <= 15
    assert len(declare._SHAPES) == 15
