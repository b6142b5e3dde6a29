"""The lockstep runner of model and meta monitors against a reference
that walks every monitor's colored DFA on its own, letter by letter,
through the dict-based ``Dfa.step``; the forbidden rows against a scan
of every task's letter at each state the reference passes through.
Long seeded runs mix steps with resets, timelines and unknown tasks, so
monitors settle in PT or PF and leave the step loop (see
``declare._Lockstep``) and come back; the invariant that makes that
skip safe, a permanent state being an absorbing sink, is checked over
every monitor that ``table_digests`` builds."""
import pathlib
import random

import pytest

import ldlmon.declare as declare
from ldlmon.automata import compile_dfa
from ldlmon.declare import (
    KIND_ABSENCE,
    PATTERNS,
    MetaMonitor,
    ModelMonitor,
    Verdict,
    parse_decl,
    parse_meta,
)
from ldlmon.metaconstraints import expand
from ldlmon.monitor import Monitor, color
from ldlmon.rv import RVState
from ldlmon.syntax import ldl

from oracles import step
from table_digests import CORPORA
from test_compositional import random_model

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


def reference_states(named, alphabet, max_len=4):
    """Every task trace up to ``max_len``, depth first, with the RV state
    of each named colored DFA after it."""

    def walk(trace, vector):
        yield trace, [(name, c.colors[s]) for (name, c), s in zip(named, vector)]
        if len(trace) < max_len:
            for task in alphabet.props:
                letter = frozenset((task,))
                successors = tuple(
                    step(c.dfa, s, letter) for (_, c), s in zip(named, vector)
                )
                yield from walk((*trace, task), successors)

    yield from walk((), tuple(c.dfa.initial for _, c in named))


def assert_agrees_with_reference(runner, named):
    for trace, want in reference_states(named, runner.model.alphabet):
        runner.reset()
        if trace:
            for task in trace[:-1]:
                runner.step(task)
            got = runner.step(trace[-1])
        else:
            got = runner.states()
        assert list(got.items()) == want, trace
        assert list(runner.states().items()) == want, trace


def model_reference(model):
    """Each constraint's colored DFA, compiled on its own, then the
    conjunction's under ``model``."""
    named = [
        (c.name, color(compile_dfa(c.to_ldlf(), model.alphabet)))
        for c in model.constraints
    ]
    whole = model.constraints[0].to_ldlf()
    for c in model.constraints[1:]:
        whole = ldl.And(whole, c.to_ldlf())
    named.append(("model", color(compile_dfa(whole, model.alphabet))))
    return named


def test_model_monitor_agrees_with_its_constraints_walked_alone():
    rng = random.Random(6151)
    for _ in range(100):
        model = random_model(rng)
        assert_agrees_with_reference(ModelMonitor(model), model_reference(model))


def random_meta_text(rng) -> str:
    """A ``.meta`` model over two or three tasks: two or three catalog
    definitions, some of them shown, and one or two directives."""
    tasks = ["a", "b", "c"][: rng.randint(2, 3)]
    names = [f"d{index}" for index in range(rng.randint(2, 3))]
    lines = [f"tasks: {', '.join(tasks)}"]
    for name in names:
        pattern = rng.choice(sorted(PATTERNS))
        args = rng.sample(tasks, PATTERNS[pattern][1])
        lines.append(f"define {name}: {pattern}({', '.join(args)})")
    lines += [f"show {name}" for name in rng.sample(names, rng.randint(0, 2))]
    for index in range(rng.randint(1, 2)):
        first, second = rng.sample(names, 2)
        body = rng.choice([
            f"absence {rng.choice(tasks)} when {first} = {rng.choice(list(RVState)).code}",
            f"compensate {first} with {second}{rng.choice(['', ' reactive'])}",
            f"conflict {first} {second}",
            f"prefer {first} over {second}",
        ])
        lines.append(f"meta m{index}: {body}")
    return "\n".join(lines) + "\n"


def meta_reference(model):
    """Each shown define's colored DFA, then each directive's, compiled
    from its expansion."""
    alphabet = model.alphabet
    named = [
        (name, color(compile_dfa(model.define(name).to_ldlf(), alphabet)))
        for name in model.shows
    ]
    for directive in model.directives:
        expanded = expand(model.directive_formula(directive), alphabet)
        named.append((directive.name, color(compile_dfa(expanded, alphabet))))
    return named


def test_meta_monitor_agrees_with_its_expanded_directives_walked_alone():
    rng = random.Random(6152)
    for _ in range(100):
        model = parse_meta(random_meta_text(rng))
        assert_agrees_with_reference(MetaMonitor(model), meta_reference(model))


def reference_paths(named, alphabet, max_len=3):
    """Every task trace up to ``max_len`` with, per named colored DFA,
    the states it passes through, walked letter by letter."""

    def walk(trace, paths):
        yield trace, paths
        if len(trace) < max_len:
            for task in alphabet.props:
                letter = frozenset((task,))
                yield from walk((*trace, task), [
                    (*path, step(c.dfa, path[-1], letter)) for (_, c), path in zip(named, paths)
                ])

    yield from walk((), [(c.dfa.initial,) for _, c in named])


def scanned_tasks(colored, state, alphabet) -> frozenset:
    """The tasks whose letter leads ``colored`` from ``state`` into a
    permanently violated state, trying each letter in turn."""
    return frozenset(
        task
        for task in alphabet.props
        if colored.colors[step(colored.dfa, state, frozenset((task,)))] is RVState.PERM_FALSE
    )


def forbidden_cell(governing: RVState, tasks) -> str:
    """A forbidden row's cell as the README states it: the forbidden
    tasks, or ``-`` once the governing verdict is permanent."""
    return "-" if governing.permanent else ",".join(sorted(tasks)) or "-"


def test_model_forbidden_rows_match_a_letter_by_letter_scan():
    rng = random.Random(6153)
    cells_naming_tasks = 0
    for _ in range(100):
        model = random_model(rng)
        alphabet = model.alphabet
        named = model_reference(model)
        runner = ModelMonitor(model)
        *constraints, (_, whole) = named
        for trace, paths in reference_paths(named, alphabet):
            tasks = [
                frozenset().union(*(
                    scanned_tasks(c, path[column], alphabet)
                    for (_, c), path in zip(constraints, paths)
                ))
                for column in range(len(trace) + 1)
            ]
            want = [forbidden_cell(whole.colors[s], t) for s, t in zip(paths[-1], tasks)]
            rows = dict(runner.timeline(trace).rows)
            assert rows["forbidden"] == [*want, "-"], trace
            cells_naming_tasks += sum(cell != "-" for cell in want)
            assert runner.forbidden() == tasks[-1], trace
            runner.reset()
            for task in trace:
                runner.step(task)
            assert runner.forbidden() == tasks[-1], trace
    assert cells_naming_tasks >= 1000


def test_meta_forbidden_rows_match_a_letter_by_letter_scan():
    rng = random.Random(6154)
    rows_checked = cells_naming_tasks = 0
    for _ in range(100):
        model = parse_meta(random_meta_text(rng))
        alphabet = model.alphabet
        named = meta_reference(model)
        absence = {d.name for d in model.directives if d.kind == KIND_ABSENCE}
        runner = MetaMonitor(model)
        for trace, paths in reference_paths(named, alphabet):
            rows = runner.timeline(trace).rows
            under = {
                rows[index - 1][0]: cells
                for index, (label, cells) in enumerate(rows)
                if label == "  forbidden"
            }
            assert set(under) == absence
            for (name, colored), path in zip(named, paths):
                if name in absence:
                    want = [
                        forbidden_cell(colored.colors[s], scanned_tasks(colored, s, alphabet))
                        for s in path
                    ]
                    assert under[name] == [*want, "-"], (name, trace)
                    rows_checked += 1
                    cells_naming_tasks += sum(cell != "-" for cell in want)
    assert rows_checked >= 500 and cells_naming_tasks >= 500


# A model and a meta model with monitors that start settled: an
# unsatisfiable line is PF and a valid one PT before any event.
SETTLED_AT_START_DECL = """tasks: a, b, c
never: ltl: a && !a
always: ltl: G (a || !a)
r: response(a, b)
p: precedence(b, c)
"""
SETTLED_AT_START_META = """tasks: a, b
define never: ltl: a && !a
define always: ltl: G (a || !a)
define r: response(a, b)
show never
show always
show r
meta c: conflict r always
meta w: absence b when never = PF
"""

PERMANENT = (RVState.PERM_TRUE, RVState.PERM_FALSE)
SATISFIED = (RVState.TEMP_TRUE, RVState.PERM_TRUE)


def runner_monitors(runner) -> list:
    """The runner's ``(name, monitor)`` pairs in output order."""
    if isinstance(runner, ModelMonitor):
        return [*runner.locals.items(), ("model", runner.overall)]
    return [*runner.shown.items(), *runner.meta.items()]


def long_run(runner, named, rng, steps=200) -> int:
    """Feed ``runner`` ``steps`` random tasks, with ``reset``, a
    ``timeline`` of a random trace or an unknown task at random points
    between them, and check every answer against ``named`` walked one
    letter at a time: each step's dict, key order included, and after
    every call ``states()``, which must also match each of the runner's
    monitors' own ``current_rv()``, and, for a model monitor,
    ``forbidden()`` and ``verdicts()``.  Returns how many unknown tasks
    came while some monitor was settled."""
    alphabet = runner.model.alphabet
    tasks = list(alphabet.props)
    initial = [c.dfa.initial for _, c in named]
    constraints = named[:-1] if isinstance(runner, ModelMonitor) else None
    monitors = runner_monitors(runner)
    scans = {}

    def advance(vector, task):
        letter = frozenset((task,))
        return [step(c.dfa, s, letter) for (_, c), s in zip(named, vector)]

    def want(vector):
        return [(name, c.colors[s]) for (name, c), s in zip(named, vector)]

    def check(vector):
        expected = want(vector)
        assert list(runner.states().items()) == expected
        assert [(name, m.current_rv()) for name, m in monitors] == expected
        if constraints is not None:
            forbidden = frozenset()
            for index, ((_, c), s) in enumerate(zip(constraints, vector)):
                if (index, s) not in scans:
                    scans[index, s] = scanned_tasks(c, s, alphabet)
                forbidden |= scans[index, s]
            assert runner.forbidden() == forbidden
            verdicts = [
                (name, Verdict.COMPLIANT if rv in SATISFIED else Verdict.NONCOMPLIANT)
                for name, rv in expected
            ]
            assert list(runner.verdicts().items()) == verdicts

    settled_unknowns = done = 0
    vector = list(initial)
    check(vector)
    while done < steps:
        roll = rng.random()
        if roll < 0.03:
            runner.reset()
            vector = list(initial)
        elif roll < 0.06:
            trace = [rng.choice(tasks) for _ in range(rng.randint(0, 6))]
            rows = dict(runner.timeline(trace).rows)
            vector = list(initial)
            for name, rv in want(vector):
                assert rows[name][0] == rv.code
            for column, task in enumerate(trace, start=1):
                vector = advance(vector, task)
                for name, rv in want(vector):
                    assert rows[name][column] == rv.code, (name, trace)
        elif roll < 0.09:
            settled_unknowns += any(rv in PERMANENT for _, rv in want(vector))
            with pytest.raises(ValueError, match="unknown task"):
                runner.step("no-such-task")
        else:
            task = rng.choice(tasks)
            vector = advance(vector, task)
            assert list(runner.step(task).items()) == want(vector)
            done += 1
        check(vector)
    return settled_unknowns


def test_model_monitor_long_runs_agree_with_the_reference():
    rng = random.Random(6155)
    models = [random_model(rng) for _ in range(100)]
    models += [
        parse_decl((SAMPLES / "booking.decl").read_text(encoding="utf-8")),
        parse_decl(SETTLED_AT_START_DECL),
    ]
    start = list(ModelMonitor(models[-1]).states().values())
    assert start[:2] == [RVState.PERM_FALSE, RVState.PERM_TRUE]
    settled_unknowns = 0
    for model in models:
        settled_unknowns += long_run(ModelMonitor(model), model_reference(model), rng)
    assert settled_unknowns >= 200


def test_meta_monitor_long_runs_agree_with_the_reference():
    rng = random.Random(6156)
    texts = [random_meta_text(rng) for _ in range(100)]
    texts += [
        (SAMPLES / "booking.meta").read_text(encoding="utf-8"),
        (SAMPLES / "directives.meta").read_text(encoding="utf-8"),
        SETTLED_AT_START_META,
    ]
    start = list(MetaMonitor(parse_meta(texts[-1])).states().values())
    assert start[:2] == [RVState.PERM_FALSE, RVState.PERM_TRUE]
    settled_unknowns = 0
    for text in texts:
        model = parse_meta(text)
        settled_unknowns += long_run(MetaMonitor(model), meta_reference(model), rng)
    assert settled_unknowns >= 200


@pytest.mark.parametrize("build, parse, sample", [
    (ModelMonitor, parse_decl, "booking.decl"),
    (MetaMonitor, parse_meta, "booking.meta"),
], ids=["model", "meta"])
def test_returned_state_dicts_are_the_callers_own(build, parse, sample):
    """Changing a dict that ``step`` or ``states`` returned changes
    nothing the runner reports next, also once monitors have settled."""
    runner = build(parse((SAMPLES / sample).read_text(encoding="utf-8")))
    start = runner.states()
    for task in ["pay", "acc", "cancel", "get"]:
        stepped = runner.step(task)
        want = dict(stepped)
        stepped.clear()
        assert runner.states() == want
        polled = runner.states()
        polled[next(iter(polled))] = None
        assert list(runner.states().items()) == list(want.items())
    assert any(rv in PERMANENT for rv in want.values())
    runner.reset()
    runner.states().clear()
    runner.step("pay")
    runner.reset()
    assert list(runner.states().items()) == list(start.items())


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_permanent_states_are_absorbing_sinks(corpus):
    """A settled monitor is never stepped again; that gives the same
    answers only because each PT or PF state's row is all itself."""
    permanent_states = 0
    for ident, monitor in CORPORA[corpus]():
        for state, (rv, row) in enumerate(zip(monitor.colors, monitor.dfa.transitions)):
            if rv in PERMANENT:
                assert set(row) == {state}, (ident, state, rv)
                permanent_states += 1
    assert permanent_states > 0


class CountingRows(tuple):
    """A transition table that counts its row reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


def test_settled_monitors_are_not_stepped(monkeypatch):
    """Step the booking model after every local that can settle has: only
    ``response(pay, get)``, which no trace makes permanent, reads its
    table, once per event."""

    class CountingMonitor(Monitor):
        def __init__(self, automaton):
            super().__init__(automaton)
            self.table = CountingRows(self.table)

    monkeypatch.setattr(declare, "Monitor", CountingMonitor)
    runner = ModelMonitor(parse_decl((SAMPLES / "booking.decl").read_text(encoding="utf-8")))
    for task in ["pay", "pay", "acc", "get", "cancel"]:
        runner.step(task)
    monitors = [*runner.locals.values(), runner.overall]
    live = [m for m in monitors if m.current_rv() not in PERMANENT]
    assert live == [runner.locals["response(pay, get)"]]
    reads = [m.table.reads for m in monitors]
    for _ in range(10_000):
        runner.step("get")
    steps = [m.table.reads - before for m, before in zip(monitors, reads)]
    assert steps == [10_000 if m in live else 0 for m in monitors]
