"""Replay a workload's ``product_fold`` calls in two checkouts side by side.

    python3 evidence/fold_replay.py PARENT CHANGE --workloads decl meta \\
        [--seed 1] [--seconds 12] [--rounds 10]

PARENT and CHANGE are the roots of two checkouts of this repository.
For each workload the script loads each one's ``ldlmon`` from its
``src/`` afresh, under a package name of its own (``ldlmon_parent_decl``,
``ldlmon_change_decl``, ...), builds the workload's seeded inputs with
``perfbench/inputs.py``, and builds every model or formula of them with
the parent's package, recording each call of ``automata.product_fold``
through every name a module of that package binds it to (``declare``
and ``metaconstraints`` import it).
Each recorded call is then made on both sides with the same operands
(the change gets copies built from its own classes):

- both must return equal tables, finals and initial states; labels may
  differ, and the script counts the calls whose labels do;
- both are timed in ``--rounds`` rounds, each running every call once
  per side, the side that goes first flipping from round to round; the
  script prints, per operand count and in total, each side's median
  time per round and the rounds the change won;
- one more untimed pass counts, per operand count, the tuples (pairs,
  for a pairwise fold) the product walks number and the states of the
  intermediate minimal DFAs that are not the result.

Exit status 1 means some table differed.  Only the standard library is
used, and nothing is written in either checkout (no bytecode either).
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import operator
import os
import statistics
import sys
import time
from collections import defaultdict

SIDES = ("parent", "change")


def load_package(root: str, name: str):
    """``root``'s ``ldlmon`` imported as the package ``name``."""
    package = os.path.join(root, "src", "ldlmon")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("automata", "declare", "monitor", "syntax", "syntax.transforms"):
        importlib.import_module(f"{name}.{sub}")
    return module


def load_inputs(root: str):
    spec = importlib.util.spec_from_file_location(
        "fold_replay_inputs", os.path.join(root, "perfbench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def builds(L, workload: str, items):
    """One thunk per build the benchmark's worker makes of the inputs."""
    if workload == "decl":
        return [lambda item=item: L.ModelMonitor(L.parse_decl(item.text)) for item in items.items]
    if workload == "meta":
        return [lambda item=item: L.MetaMonitor(L.parse_meta(item.text)) for item in items.items]
    if workload == "formulas":
        def formula(item):
            alphabet = L.Alphabet.of(*item.props)
            if item.kind == "ltlf":
                f = L.ltlf_to_ldlf(L.parse_ltlf(item.text, alphabet))
            else:
                f = L.re_to_ldlf(L.parse_re(item.text, alphabet))
            return L.Monitor.for_formula(f, alphabet)
        return [lambda item=item: formula(item) for item in items.items]
    thunks = []
    for _, kind, texts, _ in items.stream.models:
        make = (lambda t: L.ModelMonitor(L.parse_decl(t))) if kind == "decl" \
            else (lambda t: L.MetaMonitor(L.parse_meta(t)))
        thunks += [lambda t=t, make=make: make(t) for t in texts]
    return thunks


def record(L, thunks) -> list:
    """The (operands, disjunction) of every ``product_fold`` call the
    builds make, through whatever module of ``L`` makes it."""
    original = L.automata.product_fold
    calls = []

    def recording(dfas, disjunction=False):
        dfas = tuple(dfas)
        calls.append((dfas, disjunction))
        return original(dfas, disjunction)

    bound = [
        (module, key)
        for name, module in list(sys.modules.items())
        if module is not None and (name == L.__name__ or name.startswith(L.__name__ + "."))
        for key, value in vars(module).items()
        if value is original
    ]
    for module, key in bound:
        setattr(module, key, recording)
    try:
        for thunk in thunks:
            thunk()
    finally:
        for module, key in bound:
            setattr(module, key, original)
    return calls


def copy_calls(L, calls) -> list:
    """The calls with every operand rebuilt from ``L``'s own classes, over
    the operand's support where it has one."""
    alphabets: dict = {}

    def alphabet(a):
        key = (a.props, a.singleton_letters)
        if key not in alphabets:
            alphabets[key] = L.Alphabet(*key)
        return alphabets[key]

    return [
        (tuple(L.automata.Dfa(alphabet(d.alphabet), d.n_states, d.initial, d.transitions,
                              d.finals, d.labels, getattr(d, "support", None)) for d in dfas),
         disjunction)
        for dfas, disjunction in calls
    ]


def timed_pass(fold, calls) -> dict:
    """Seconds spent per operand count on one run of every call."""
    spent: dict = defaultdict(float)
    clock = time.perf_counter
    gc.collect()
    for dfas, disjunction in calls:
        t0 = clock()
        fold(dfas, disjunction)
        spent[len(dfas)] += clock() - t0
    return spent


def walk_counts(automata, calls) -> dict:
    """Per operand count: the keys the tuple-keyed product walks number
    and the states of the minimal DFAs ``_moore`` returns before the
    last one of each call."""
    explore, moore = automata._explore, automata._moore
    walked, results = [], []

    def counting_explore(start, cells):
        order, rows = explore(start, cells)
        if isinstance(start, tuple):
            walked.append(len(order))
        return order, rows

    def counting_moore(*args, **kwargs):
        dfa = moore(*args, **kwargs)
        results.append(dfa.n_states)
        return dfa

    counts: dict = defaultdict(lambda: [0, 0, 0])
    automata._explore, automata._moore = counting_explore, counting_moore
    try:
        for dfas, disjunction in calls:
            walked.clear()
            results.clear()
            final = automata.product_fold(dfas, disjunction).n_states
            row = counts[len(dfas)]
            row[0] += sum(walked)
            row[1] += sum(results[:-1])
            row[2] += final
    finally:
        automata._explore, automata._moore = explore, moore
    return counts


def table(dfa) -> tuple:
    """The DFA's table with its rows spread over every letter, so that one
    over its support compares with one over every prop."""
    if hasattr(dfa.alphabet, "columns_over"):
        columns = dfa.alphabet.columns_over(dfa.support).values()
    else:  # a package from before rows over the support
        columns = range(len(dfa.transitions[0]))
    rows = tuple(tuple(map(row.__getitem__, columns)) for row in dfa.transitions)
    return dfa.n_states, dfa.initial, rows, dfa.finals


def replay(roots, inputs, workload, seed, seconds, rounds, booking) -> bool:
    # Fresh packages per workload, as each benchmark run starts with cold
    # module-level tables (``declare``'s compiled patterns).
    packages = {side: load_package(roots[side], f"ldlmon_{side}_{workload}") for side in SIDES}
    items = inputs.build(workload, seed, seconds, booking)
    calls = {"parent": record(packages["parent"], builds(packages["parent"], workload, items))}
    calls["change"] = copy_calls(packages["change"], calls["parent"])
    folds = {side: packages[side].automata.product_fold for side in SIDES}
    results = {side: [folds[side](*call) for call in calls[side]] for side in SIDES}
    differ = sum(map(operator.ne, map(table, results["parent"]), map(table, results["change"])))
    relabelled = defaultdict(int)
    for (dfas, _), a, b in zip(calls["parent"], results["parent"], results["change"]):
        relabelled[len(dfas)] += a.labels != b.labels
    spent = {side: defaultdict(list) for side in SIDES}
    for number in range(rounds):
        for side in (SIDES if number % 2 == 0 else SIDES[::-1]):
            for count, seconds_spent in timed_pass(folds[side], calls[side]).items():
                spent[side][count].append(seconds_spent)
    walks = {side: walk_counts(packages[side].automata, calls[side]) for side in SIDES}

    sizes = sorted(spent["parent"])
    print(f"\n{workload}, seed {seed}, --seconds {seconds}: {len(calls['parent'])} "
          f"product_fold calls, {rounds} rounds; tables differ in {differ}")
    print("  operands  calls  relabelled  parent ms  change ms   gain  wins   "
          "walked parent/change  intermediate parent/change  final")
    for name, group in [*((n, [n]) for n in sizes), ("all", sizes)]:
        # Per side, the seconds of each round summed over the group.
        series = {side: list(map(sum, zip(*(spent[side][n] for n in group)))) for side in SIDES}
        p_med, c_med = (statistics.median(series[side]) * 1e3 for side in SIDES)
        wins = sum(map(operator.lt, series["change"], series["parent"]))
        walked, inter, final = (
            [sum(walks[side][n][i] for n in group) for side in SIDES] for i in range(3))
        print(f"  {name:>8}  {sum(len(d) in group for d, _ in calls['parent']):5}  "
              f"{sum(relabelled[n] for n in group):10}  {p_med:9.3f}  {c_med:9.3f}  "
              f"{(c_med - p_med) / p_med:+6.1%}  {wins:2}/{rounds:<2}  "
              f"{walked[0]:9} / {walked[1]:<9}  {inter[0]:12} / {inter[1]:<12}  {final[1]}")
    return differ == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workloads", nargs="+", required=True,
                        choices=("decl", "meta", "formulas", "stream"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    roots = dict(zip(SIDES, (args.parent, args.change)))
    inputs = load_inputs(args.change)
    booking = {}
    for kind in ("decl", "meta"):
        with open(os.path.join(args.change, "samples", f"booking.{kind}"), encoding="utf-8") as f:
            booking[kind] = f.read()
    same = True
    for workload in args.workloads:
        same &= replay(roots, inputs, workload, args.seed, args.seconds, args.rounds, booking)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
