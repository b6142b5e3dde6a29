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
"""
import itertools

import pytest

from ldlmon import automata
from ldlmon.automata import compile_dfa, to_dot
from ldlmon.declare import (
    PATTERNS,
    MetaMonitor,
    ModelMonitor,
    global_monitor,
    local_monitors,
    parse_decl,
    parse_meta,
)

from oracles import colored_json, monitor_json


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
