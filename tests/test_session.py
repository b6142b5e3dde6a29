"""The per-build compile memo against one fresh memo per call.

A monitor build hands one memo to every ``compile_dfa`` call it makes.
The reference here builds the same monitors with a fresh memo for each
call, which is what each call computed before the memo was shared, and
builds directives through their ``expand`` encoding: tables and colors
must come out byte for byte the same.  Models read from text also take
the pattern table for their pattern calls.  The memo lives only as long
as its build, and the pattern table is bounded by the catalog, so
building monitor after monitor must not retain memory.
"""
import gc
import pathlib
import random
import tracemalloc

import pytest

from ldlmon import automata, declare
from ldlmon.automata import compile_dfa, product_fold
from ldlmon.declare import PATTERNS, MetaMonitor, ModelMonitor, parse_decl, parse_meta
from ldlmon.metaconstraints import expand
from ldlmon.syntax import Alphabet, ldl

from genformulas import random_boolean_ldlf
from oracles import colored_json, monitor_json
from test_compositional import random_model
from test_lockstep import random_meta_text
from test_templates import EVERY_TEMPLATE


@pytest.fixture
def nfa_builds(monkeypatch) -> list:
    """Every formula ``compile_dfa`` builds an NFA for, in call order:
    the NFA route and ``ldlf_to_nfa`` both build it in ``_nfa_classes``."""
    built: list = []
    build = automata._nfa_classes

    def counting(formula, alphabet):
        built.append(formula)
        return build(formula, alphabet)

    monkeypatch.setattr(automata, "_nfa_classes", counting)
    return built


def distinct_meta_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts: list[str] = []
    while len(texts) < count:
        text = random_meta_text(rng)
        if text not in texts:
            texts.append(text)
    return texts


def random_decl_text(rng, tasks) -> str:
    """A ``.decl`` model over the tasks: one to five named constraints,
    catalog calls whose arguments may repeat, and now and then an
    ``ltl:`` line."""
    lines = [f"tasks: {', '.join(tasks)}"]
    for index in range(rng.randint(1, 5)):
        if rng.random() < 0.25:
            first, second = rng.choices(tasks, k=2)
            body = rng.choice(["G({} -> X F {})", "F {} && !{}", "{} U {}"])
            lines.append(f"c{index}: ltl: {body.format(first, second)}")
        else:
            pattern = rng.choice(sorted(PATTERNS))
            args = rng.choices(tasks, k=PATTERNS[pattern][1])
            lines.append(f"c{index}: {pattern}({', '.join(args)})")
    return "\n".join(lines) + "\n"


def test_model_monitors_match_one_fresh_memo_per_compile(nfa_builds):
    rng = random.Random(7411)
    built_directly = [random_model(rng) for _ in range(60)]
    rng = random.Random(7414)
    read_from_text = [
        parse_decl(random_decl_text(rng, ["a", "b", "c", "d"][: rng.randint(1, 4)]))
        for _ in range(60)
    ]
    assert sum(c.call is None for m in read_from_text for c in m.constraints) > 10
    savings = 0
    for model in (*built_directly, *read_from_text):
        del nfa_builds[:]
        runner = ModelMonitor(model)
        shared = len(nfa_builds)
        got = [monitor_json(m) for m in (*runner.locals.values(), runner.overall)]
        del nfa_builds[:]
        dfas = [compile_dfa(c.to_ldlf(), model.alphabet, {}) for c in model.constraints]
        want = [colored_json(dfa) for dfa in (*dfas, product_fold(dfas))]
        assert got == want
        assert shared <= len(nfa_builds)
        savings += len(nfa_builds) - shared
    assert savings > 0


def test_meta_monitors_match_one_fresh_memo_per_call(nfa_builds):
    savings = 0
    for text in distinct_meta_texts(7412, 20):
        model = parse_meta(text)
        alphabet = model.alphabet
        del nfa_builds[:]
        runner = MetaMonitor(model)
        shared = len(nfa_builds)
        got = [monitor_json(m) for m in (*runner.shown.values(), *runner.meta.values())]
        del nfa_builds[:]
        want = [
            colored_json(compile_dfa(model.define(name).to_ldlf(), alphabet, {}))
            for name in model.shows
        ]
        for directive in model.directives:
            expanded = expand(model.directive_formula(directive), alphabet, {})
            want.append(colored_json(compile_dfa(expanded, alphabet, {})))
        assert got == want, text
        assert shared <= len(nfa_builds), text
        savings += len(nfa_builds) - shared
    assert savings > 0


def test_the_memo_holds_only_formulas_of_the_nfa_route():
    """Negations and chains are rebuilt from their operands' DFAs, so
    after Boolean formulas compile through one memo, twice each, every
    ``"dfa"`` key holds a formula that is neither a negation, a
    conjunction nor a disjunction."""
    rng = random.Random(7415)
    alphabet = Alphabet.of("a", "b", "c")
    formulas = [random_boolean_ldlf(rng, ["a", "b", "c"]) for _ in range(30)]
    memo: dict = {}
    for formula in formulas + formulas:
        compile_dfa(formula, alphabet, memo)
    assert len(memo) > 30
    assert all(key[0] == "dfa" for key in memo)
    assert not [key for key in memo if isinstance(key[1], (ldl.Not, ldl.And, ldl.Or))]

def test_meta_monitor_builds_compile_each_distinct_argument_once(monkeypatch):
    """Within one build, the memo answers every repeated compile: the NFA
    route runs at most once per distinct argument.  A conflict directive
    refers to its defines both alone and in their conjunction, and the
    samples' ``ltl:`` defines take the NFA route, so a build that lost the
    memo between calls would run it twice.  The recipes keep no memo:
    the subset construction of RV-path modalities runs once per
    ``absence ... when`` directive and once per reactive ``compensate``,
    also where the last model's directives share their modalities."""
    calls: list = []

    def counting(name):
        stage = getattr(automata, name)

        def counted(*args):
            calls.append((name, *args))
            return stage(*args)

        monkeypatch.setattr(automata, name, counted)

    counting("_nfa_route")
    counting("_diamond_after")
    samples = pathlib.Path(__file__).resolve().parent.parent / "samples"
    texts = distinct_meta_texts(7417, 30)
    texts += [(samples / name).read_text(encoding="utf-8")
              for name in ("booking.meta", "directives.meta")]
    # Two names for one define, so two directives share each modality.
    texts.append(
        "tasks: a, b\ndefine d0: response(a, b)\ndefine d1: existence(b)\n"
        "define d2: response(a, b)\nmeta m0: absence b when d0 = TF\n"
        "meta m1: absence b when d2 = TF\nmeta m2: compensate d0 with d1 reactive\n"
        "meta m3: compensate d2 with d1 reactive\n"
    )
    stages = set()
    for text in texts:
        model = parse_meta(text)
        del calls[:]
        MetaMonitor(model)
        compiled = [call for call in calls if call[0] == "_nfa_route"]
        assert len(compiled) == len(set(compiled)), text
        # Only a compensate directive can be reactive.
        assert len(calls) - len(compiled) == sum(
            d.kind == declare.KIND_ABSENCE or d.reactive for d in model.directives), text
        stages.update(name for name, *_ in calls)
    assert stages == {"_nfa_route", "_diamond_after"}
    assert len(calls) == 4  # the last model's: each shared modality twice


def test_meta_monitors_of_pattern_defines_build_no_nfa(nfa_builds, monkeypatch):
    """With the pattern table warm, defines come from it and every
    directive is a product, a complement or a subset construction over
    their colored DFAs.  The builds that fill
    an empty table do build NFAs, so the counter sees the route."""
    monkeypatch.setattr(declare, "_TEMPLATES", {})
    models = [parse_meta(text) for text in distinct_meta_texts(7416, 60)]
    for model in models:
        MetaMonitor(model)
    assert nfa_builds
    reactive = 0
    for model in models:
        assert all(c.call is not None for c in model.defines)
        del nfa_builds[:]
        MetaMonitor(model)
        assert nfa_builds == [], model
        reactive += any(d.reactive for d in model.directives)
    assert 0 < reactive < len(models)


def test_monitor_builds_retain_no_memory():
    texts = distinct_meta_texts(7413, 100)
    for text in texts[:10]:
        MetaMonitor(parse_meta(text))
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for text in texts[10:]:
            MetaMonitor(parse_meta(text))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained


def test_model_monitor_builds_retain_no_memory():
    ModelMonitor(parse_decl(EVERY_TEMPLATE))
    rng = random.Random(7415)
    texts = [
        random_decl_text(rng, [f"{task}{copy}" for task in "abcd"])
        for copy in range(100)
    ]
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for text in texts:
            ModelMonitor(parse_decl(text))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, retained
    assert len(declare._TEMPLATES) <= 15
