"""The lockstep runner of model and meta monitors against a reference
that walks every monitor's colored DFA on its own, letter by letter,
through the dict-based ``Dfa.step``."""
import random

from ldlmon.automata import compile_dfa
from ldlmon.declare import PATTERNS, MetaMonitor, ModelMonitor, parse_meta
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
            runner.run(trace[:-1])
            got = runner.step(trace[-1])
        else:
            got = runner.states()
        assert list(got.items()) == want, trace
        assert list(runner.states().items()) == want, trace


def test_model_monitor_agrees_with_its_constraints_walked_alone():
    rng = random.Random(6151)
    for _ in range(100):
        model = random_model(rng)
        named = [
            (c.name, color(compile_dfa(c.to_ldlf(), model.alphabet)))
            for c in model.constraints
        ]
        whole = model.constraints[0].to_ldlf()
        for c in model.constraints[1:]:
            whole = ldl.And(whole, c.to_ldlf())
        named.append(("model", color(compile_dfa(whole, model.alphabet))))
        assert_agrees_with_reference(ModelMonitor(model), named)


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


def test_meta_monitor_agrees_with_its_expanded_directives_walked_alone():
    rng = random.Random(6152)
    for _ in range(100):
        model = parse_meta(random_meta_text(rng))
        alphabet = model.alphabet
        named = [
            (name, color(compile_dfa(model.define(name).to_ldlf(), alphabet)))
            for name in model.shows
        ]
        for directive in model.directives:
            expanded = expand(model.directive_formula(directive), alphabet)
            named.append((directive.name, color(compile_dfa(expanded, alphabet))))
        assert_agrees_with_reference(MetaMonitor(model), named)
