"""The lockstep runner of model and meta monitors against a reference
that walks every monitor's colored DFA on its own, letter by letter,
through the dict-based ``Dfa.step``; the forbidden rows against a scan
of every task's letter at each state the reference passes through."""
import random

from ldlmon.automata import compile_dfa
from ldlmon.declare import KIND_ABSENCE, PATTERNS, MetaMonitor, ModelMonitor, parse_meta
from ldlmon.metaconstraints import expand
from ldlmon.monitor import color
from ldlmon.rv import RVState
from ldlmon.syntax import ldl

from test_compositional import random_model


def reference_states(named, alphabet, max_len=4):
    """Every task trace up to ``max_len``, depth first, with the RV state
    of each named colored DFA after it."""

    def walk(trace, vector):
        yield trace, [(name, c.colors[s]) for (name, c), s in zip(named, vector)]
        if len(trace) < max_len:
            for task in alphabet.props:
                letter = frozenset((task,))
                successors = tuple(
                    c.dfa.step(s, letter) for (_, c), s in zip(named, vector)
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
                    (*path, c.dfa.step(path[-1], letter)) for (_, c), path in zip(named, paths)
                ])

    yield from walk((), [(c.dfa.initial,) for _, c in named])


def scanned_tasks(colored, state, alphabet) -> frozenset:
    """The tasks whose letter leads ``colored`` from ``state`` into a
    permanently violated state, trying each letter in turn."""
    return frozenset(
        task
        for task in alphabet.props
        if colored.colors[colored.dfa.step(state, frozenset((task,)))] is RVState.PERM_FALSE
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
