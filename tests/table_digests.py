"""Digests of the compiled tables of six fixed corpora of monitors.

Each corpus is a list of monitors built from seeded or committed inputs;
its digest is the sha256 of the concatenated ``aut_to_json(dfa, colors)``
of its monitors, in build order.  That JSON has the table, the finals
and the colors but no labels, so the digests pin what a monitor does,
and the state numbering, but not how states are named.  Beside each
sha256 the file keeps one short hash per monitor, so a mismatch can name
the first monitor that differs.  The file sits beside this script, not
under ``tests/golden``, which holds exactly the CLI runs' outputs.

A speedup must move no digest.  A change to a language, or to the
numbering policy of ``automata._explore``/``_moore``, rewrites the file
with this script and says which corpora moved and why.

    PYTHONPATH=src python tests/table_digests.py          # rewrite the file
    PYTHONPATH=src python tests/table_digests.py --check  # compare, exit 1 on a mismatch
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "table_digests.json"
SHORT = 12  # hex digits kept per monitor: enough to locate a difference


def perfbench_inputs():
    """perfbench's input generator, loaded from its file (perfbench is not
    a package); it does not import ldlmon."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _runner_monitors(item_id, runner):
    """(id, monitor) for each single-formula monitor of a model or meta
    monitor: a model's locals and then the product, a meta model's shown
    defines and then its directives."""
    if hasattr(runner, "overall"):
        named = [*runner.locals.items(), ("product", runner.overall)]
    else:
        named = [*runner.shown.items(), *runner.meta.items()]
    return [(f"{item_id} {name}", monitor) for name, monitor in named]


def corpus_meta_model():
    from ldlmon.declare import MetaMonitor, parse_meta
    inputs = perfbench_inputs()
    for seed in range(120):
        item = inputs.meta_model(random.Random(seed))
        yield from _runner_monitors(f"meta_model seed {seed}", MetaMonitor(parse_meta(item.text)))


def corpus_decl_model():
    from ldlmon.declare import ModelMonitor, parse_decl
    inputs = perfbench_inputs()
    for index, item in enumerate(inputs.build("decl", 1, 6, {}).items):
        yield from _runner_monitors(f"decl item {index}", ModelMonitor(parse_decl(item.text)))


def perfbench_formulas():
    """(LDLf formula, alphabet) of each of the 96 items of the benchmark's
    formulas workload at seed 1 and 6 seconds."""
    from ldlmon.syntax import Alphabet, parse_ltlf, parse_re
    from ldlmon.syntax.transforms import ltlf_to_ldlf, re_to_ldlf
    for item in perfbench_inputs().build("formulas", 1, 6, {}).items:
        alphabet = Alphabet.of(*item.props)
        if item.kind == "ltlf":
            yield ltlf_to_ldlf(parse_ltlf(item.text, alphabet)), alphabet
        else:
            yield re_to_ldlf(parse_re(item.text, alphabet)), alphabet


def corpus_formulas():
    from ldlmon.monitor import Monitor
    for index, (formula, alphabet) in enumerate(perfbench_formulas()):
        yield f"formula item {index}", Monitor.for_formula(formula, alphabet)


def corpus_random_meta():
    from ldlmon.declare import MetaMonitor, parse_meta
    from test_lockstep import random_meta_text
    rng = random.Random(6152)
    for index in range(100):
        model = parse_meta(random_meta_text(rng))
        yield from _runner_monitors(f"random meta {index}", MetaMonitor(model))


def corpus_samples():
    from ldlmon.declare import MetaMonitor, ModelMonitor, parse_decl, parse_meta
    samples = ROOT / "samples"
    for path in sorted(samples.glob("*.decl")):
        runner = ModelMonitor(parse_decl(path.read_text(encoding="utf-8")))
        yield from _runner_monitors(path.name, runner)
    for path in sorted(samples.glob("*.meta")):
        runner = MetaMonitor(parse_meta(path.read_text(encoding="utf-8")))
        yield from _runner_monitors(path.name, runner)


def corpus_rv_grid():
    """The grid of ``test_metaconstraints``: every reference, RV state,
    argument and modality over three tasks, compiled through ``expand``."""
    from ldlmon.automata import color, compile_dfa
    from ldlmon.metaconstraints import expand
    from ldlmon.rv import RVState, RvAtom, RvPath
    from ldlmon.syntax import Alphabet, parse_ldlf, parse_ltlf
    from ldlmon.syntax.ldl import END, FF, LAST, TT, Box, Diamond
    from ldlmon.syntax.transforms import ltlf_to_ldlf

    alphabet = Alphabet.tasks(["a", "b", "c"])
    refs = [
        ltlf_to_ldlf(parse_ltlf(text, alphabet))
        for text in ("F a", "G (a -> F b)", "!b U c", "a && !a", "a || !a", "X a")
    ]
    args = [
        TT, FF, END, LAST,
        parse_ldlf("<b><c>tt", alphabet),
        parse_ldlf("<!b>tt || end", alphabet),
        parse_ldlf("end || <!b>tt", alphabet),
        RvAtom(refs[1], RVState.TEMP_FALSE),
    ]
    for i, f in enumerate(refs):
        for state in RVState:
            for j, g in enumerate(args):
                for modality in (Diamond, Box):
                    node = modality(RvPath(f, state), g)
                    name = f"ref {i} {state.code} arg {j} {modality.__name__}"
                    memo: dict = {}
                    yield name, color(compile_dfa(expand(node, alphabet, memo), alphabet, memo))


CORPORA = {
    "meta_model": corpus_meta_model,
    "decl_model": corpus_decl_model,
    "formulas": corpus_formulas,
    "random_meta": corpus_random_meta,
    "samples": corpus_samples,
    "rv_grid": corpus_rv_grid,
}


def corpus_tables(name):
    """(monitor id, label-free JSON of its colored table) for every
    monitor of a corpus, in build order."""
    from ldlmon.automata import aut_to_json
    return [(ident, aut_to_json(m.dfa, m.colors)) for ident, m in CORPORA[name]()]


def digest(tables) -> dict:
    whole = hashlib.sha256()
    short = []
    for _, text in tables:
        data = text.encode()
        whole.update(data)
        short.append(hashlib.sha256(data).hexdigest()[:SHORT])
    return {"sha256": whole.hexdigest(), "monitors": short}


def mismatch(name, pinned) -> str | None:
    """None when the corpus hashes to its pinned digest; otherwise what
    differs, naming the first monitor whose table moved."""
    tables = corpus_tables(name)
    got = digest(tables)
    if got["sha256"] == pinned["sha256"]:
        return None
    for index, ((ident, _), now) in enumerate(zip(tables, got["monitors"])):
        if index >= len(pinned["monitors"]) or now != pinned["monitors"][index]:
            return f"corpus {name}: first monitor that differs is #{index}, {ident}"
    return (f"corpus {name}: {len(tables)} monitors built, "
            f"{len(pinned['monitors'])} pinned")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--check"]:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
        problems = [p for name in CORPORA if (p := mismatch(name, pinned[name]))]
        for problem in problems:
            print(problem)
        return 1 if problems else 0
    if argv:
        print("usage: table_digests.py [--check]", file=sys.stderr)
        return 2
    payload = {name: digest(corpus_tables(name)) for name in CORPORA}
    DIGESTS.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
