"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measurement so that every run
begins with cold module-level caches (``metaconstraints`` keeps a
process-wide expansion cache that never empties).  The script imports
``ldlmon`` from ``src/`` and builds the seeded inputs (the set-up, see
``measure_setup``), runs the workload in a closed loop (one item at a
time, each starting when the previous one returned), checks every output
against ``ldlmon.semantics`` and the goldens, and prints one JSON object
as its last line.

    python3 perfbench/worker.py --workload decl --seed 1 --seconds 12 \
        --trace 0 --work perfbench/_work/decl-1-0
"""
from __future__ import annotations

import argparse
import array
import contextlib
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402

perf_counter = time.perf_counter
perf_counter_ns = time.perf_counter_ns
process_time = time.process_time

STREAM_CHECKED_PREFIX = 25
STREAM_SNAPSHOT_EVERY = 500
STREAM_CHUNK = 20_000
STREAM_POLLS = 10
CLI_SAMPLE = 5
SETUP_REPEATS = 16


def tail(values: list) -> tuple:
    """The highest of p50/p90/p99 with at least ten samples beyond it, as
    (percentile, value); the maximum when there are fewer than 20.  The
    ladder stops at p99: beyond it, single-step latencies on a shared
    machine measure the host's interruptions more than the program."""
    ordered = sorted(values)
    n = len(ordered)
    best = (100.0, ordered[-1])
    for pct in (50.0, 90.0, 99.0):
        rank = int(n * pct / 100.0)
        if n - rank - 1 >= 10:
            best = (pct, ordered[rank])
    return best


class Run:
    """What one run measures and checks.

    Every item (a build with its cases, or a chunk of a long trace) starts
    with ``calibrate``; the item's times are recorded both raw and scaled
    by the machine speed measured just before it (see calibration.py).
    """

    def __init__(self, trace, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.factor = 1.0
        self.factors: list = []
        self.compile_s: list = []  # CPU seconds per build, scaled
        self.compile_raw_s: list = []
        self.compile_wall_s: list = []  # scaled
        self.step_ns = array.array("q")  # raw, one per step
        self.step_segments: list = []  # (first step index, factor)
        self.replay_s = 0.0  # CPU seconds of step loops, scaled
        self.replay_raw_s = 0.0
        self.events = 0
        self.report_s: list = []  # wall seconds per report, scaled
        self.report_raw_s: list = []
        self.rss_kb = 0
        self.fingerprints: list = []
        self.pf_initial = 0
        self.cli_jobs: list = []
        self.notes: dict = {}
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer()

    def ok(self, condition: bool, what: str):
        self.attempted += 1
        if not condition:
            self.fail(what)

    def fail(self, what: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def root(self, name, item):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.root(name, item)

    def paused(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def calibrate(self):
        self.factor = calibration.factor()
        self.factors.append(self.factor)
        self.step_segments.append((len(self.step_ns), self.factor))
        if self.tracer is not None:
            self.tracer.scale = self.factor

    def build(self, item_id, make):
        """Calibrate, then time one build, input text to monitor, in
        process CPU time; None when it raised."""
        self.attempted += 1
        self.calibrate()
        try:
            with self.root("bench.compile", item_id):
                t0 = perf_counter()
                c0 = process_time()
                built = make()
                cpu = process_time() - c0
                wall = perf_counter() - t0
        except Exception as exc:  # a failed build is a failed operation
            self.fail(f"{item_id} build: {exc!r}")
            return None
        self.compile_raw_s.append(cpu)
        self.compile_s.append(cpu / self.factor)
        self.compile_wall_s.append(wall / self.factor)
        return built

    def step(self, runner, event):
        t0 = perf_counter_ns()
        states = runner.step(event)
        self.step_ns.append(perf_counter_ns() - t0)
        return states

    def replayed(self, cpu: float, events: int):
        self.replay_raw_s += cpu
        self.replay_s += cpu / self.factor
        self.events += events

    def reported(self, seconds: float):
        self.report_raw_s.append(seconds)
        self.report_s.append(seconds / self.factor)

    def scaled_steps_us(self) -> list:
        bounds = self.step_segments + [(len(self.step_ns), None)]
        out: list = []
        for (first, factor), (end, _) in zip(bounds, bounds[1:]):
            out.extend(ns / 1e3 / factor for ns in self.step_ns[first:end])
        return out

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return os.path.relpath(path, ROOT)


def read_text(*parts) -> str:
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return handle.read()


def trace_tasks(text: str) -> list:
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


# Oracle ----------------------------------------------------------------


def expected_code(satisfied: bool) -> str:
    return "PT" if satisfied else "PF"


def check_decl_case(run, L, item_id, alphabet, oracle, case, states, timeline):
    """Final verdict of each constraint and of the model against
    ``eval_ltlf`` on the complete trace, and the timeline's last column."""
    trace = L.trace_from_tasks(case)
    rows = dict(timeline.rows)
    overall = True
    for name, formula in oracle:
        want = L.eval_ltlf(trace, 0, formula)
        overall = overall and want
        got = states[name]
        run.ok(got.satisfied == want, f"{item_id} {name} on {case}: {got} vs {want}")
        run.ok(rows[name][-1] == expected_code(want), f"{item_id} timeline {name}")
    run.ok(states["model"].satisfied == overall, f"{item_id} model on {case}")
    run.ok(rows["model"][-1] == expected_code(overall), f"{item_id} timeline model")


def check_meta_case(run, L, item_id, shows, expanded, case, states, timeline):
    """Shown constraints against ``eval_ltlf``, each directive against
    ``eval_ldlf`` of its expanded formula."""
    trace = L.trace_from_tasks(case)
    rows = dict(timeline.rows)
    for name, formula in shows:
        want = L.eval_ltlf(trace, 0, formula)
        run.ok(states[name].satisfied == want, f"{item_id} {name} on {case}")
        run.ok(rows[name][-1] == expected_code(want), f"{item_id} timeline {name}")
    for name, formula in expanded:
        want = L.eval_ldlf(trace, 0, formula)
        run.ok(states[name].satisfied == want, f"{item_id} {name} on {case}")
        run.ok(rows[name][-1] == expected_code(want), f"{item_id} timeline {name}")


def monitors(runner) -> list:
    """The single-formula monitors inside a model or meta monitor."""
    if hasattr(runner, "overall"):
        return [*runner.locals.values(), runner.overall]
    return [*runner.shown.values(), *runner.meta.values()]


def fingerprint(run, item_id, runner):
    """The minimal state counts of the item's monitors."""
    run.fingerprints.append((item_id, tuple(m.dfa.n_states for m in monitors(runner))))


# Workloads -------------------------------------------------------------


def workload_decl(run, L, inputs):
    for index, item in enumerate(inputs.items):
        item_id = f"decl{index}"
        runner = run.build(item_id, lambda: L.ModelMonitor(L.parse_decl(item.text)))
        if runner is None:
            continue
        model = runner.model
        with run.paused():
            oracle = [(name, L.parse_ltlf(text, model.alphabet)) for name, text in item.constraints]
            fingerprint(run, item_id, runner)
            run.pf_initial += runner.overall.current_rv() is L.RVState.PERM_FALSE
        replay_cases(run, L, item_id, runner, item.cases,
                     lambda case, states, tl: check_decl_case(
                         run, L, item_id, model.alphabet, oracle, case, states, tl))
        if index < CLI_SAMPLE:
            case = item.cases[0]
            with run.paused():
                expected = runner.timeline(case).render()
            run.cli_jobs.append({
                "argv": ["declare", run.write(f"{item_id}.decl", item.text),
                         "--trace", run.write(f"{item_id}.trace", "\n".join(case) + "\n")],
                "expected": run.write(f"{item_id}.out", expected),
            })
    with run.paused():
        model = L.parse_decl(read_text("samples", "booking.decl"))
        rendered = L.ModelMonitor(model).timeline(["pay", "acc", "cancel"]).render()
        run.ok(rendered == read_text("tests", "golden", "booking_timeline.txt"),
               "booking timeline differs from its golden")


def replay_cases(run, L, item_id, runner, cases, check):
    """Each case: reset, step through it, check the final verdicts, then
    time the timeline and its rendering (the per-case report)."""
    for number, case in enumerate(cases):
        try:
            with run.root("bench.replay", item_id):
                c0 = process_time()
                runner.reset()
                states = None
                for task in case:
                    states = run.step(runner, task)
                run.replayed(process_time() - c0, len(case))
            with run.root("bench.report", item_id):
                t0 = perf_counter()
                timeline = runner.timeline(case)
                timeline.render()
                run.reported(perf_counter() - t0)
        except Exception as exc:
            run.attempted += 1
            run.fail(f"{item_id} case {number}: {exc!r}")
            continue
        with run.paused():
            check(case, states, timeline)


def workload_meta(run, L, inputs):
    seen_refs: set = set()
    rv_refs = 0
    expanded_chars = 0
    for index, item in enumerate(inputs.items):
        item_id = f"meta{index}"
        for ref in item.rv_refs:
            rv_refs += 1
            seen_refs.add(ref)
        runner = run.build(item_id, lambda: L.MetaMonitor(L.parse_meta(item.text)))
        if runner is None:
            continue
        model = runner.model
        with run.paused():
            shows = [(name, L.parse_ltlf(item.defines[name], model.alphabet)) for name in item.shows]
            expanded = []
            for directive in model.directives:
                formula = L.expand(model.directive_formula(directive), model.alphabet)
                expanded.append((directive.name, formula))
                expanded_chars += len(L.print_ldlf(formula))
            fingerprint(run, item_id, runner)
        replay_cases(run, L, item_id, runner, item.cases,
                     lambda case, states, tl: check_meta_case(
                         run, L, item_id, shows, expanded, case, states, tl))
        if index < CLI_SAMPLE:
            case = item.cases[0]
            with run.paused():
                expected = runner.timeline(case).render()
            run.cli_jobs.append({
                "argv": ["meta", run.write(f"{item_id}.meta", item.text),
                         "--trace", run.write(f"{item_id}.trace", "\n".join(case) + "\n")],
                "expected": run.write(f"{item_id}.out", expected),
            })
    run.notes["rv_refs"] = rv_refs
    run.notes["rv_ref_repeat_share"] = (rv_refs - len(seen_refs)) / rv_refs if rv_refs else 0.0
    run.notes["expanded_chars"] = expanded_chars
    with run.paused():
        model = L.parse_meta(read_text("samples", "booking.meta"))
        tasks = trace_tasks(read_text("samples", "booking-meta.trace"))
        rendered = L.MetaMonitor(model).timeline(tasks).render()
        run.ok(rendered == read_text("tests", "golden", "booking_meta_timeline.txt"),
               "booking meta timeline differs from its golden")


def formula_report(monitor, alphabet, events) -> str:
    """What ``ldlmon repl`` shows for a case: the state after each event
    and, while the verdict can change, the letters that must not come
    next."""
    monitor.reset()
    lines = [f"begin {monitor.current_rv()}"]
    for event in events:
        state = monitor.step(event)
        forbidden = monitor.forbidden_symbols()
        line = f"{state}"
        if forbidden and not state.permanent:
            names = sorted("{" + ",".join(sorted(letter)) + "}" for letter in forbidden)
            line += "  (next must avoid: " + ", ".join(names) + ")"
        lines.append(line)
    lines.append(f"final: {verdict_text(monitor.current_rv())}")
    return "\n".join(lines) + "\n"


def verdict_text(state) -> str:
    """The final verdict as the CLI prints it."""
    return "compliant" if state.satisfied else "noncompliant"


def compile_formula(L, item):
    alphabet = L.Alphabet.of(*item.props)
    if item.kind == "ltlf":
        parsed = L.parse_ltlf(item.text, alphabet)
        formula = L.ltlf_to_ldlf(parsed)
    else:
        parsed = L.parse_re(item.text, alphabet)
        formula = L.re_to_ldlf(parsed)
    return alphabet, parsed, L.Monitor.for_formula(formula, alphabet)


def workload_formulas(run, L, inputs):
    cli_props = 4
    for index, item in enumerate(inputs.items):
        item_id = f"formula{index}"
        built = run.build(item_id, lambda: compile_formula(L, item))
        if built is None:
            continue
        alphabet, parsed, monitor = built
        with run.paused():
            run.fingerprints.append((item_id, (monitor.dfa.n_states,)))
        for number, case in enumerate(item.cases):
            events = [frozenset(letter) for letter in case]
            try:
                with run.root("bench.replay", item_id):
                    c0 = process_time()
                    monitor.reset()
                    begin = monitor.current_rv()
                    states = [run.step(monitor, event) for event in events]
                    run.replayed(process_time() - c0, len(events))
                with run.root("bench.report", item_id):
                    t0 = perf_counter()
                    formula_report(monitor, alphabet, events)
                    run.reported(perf_counter() - t0)
            except Exception as exc:
                run.attempted += 1
                run.fail(f"{item_id} case {number}: {exc!r}")
                continue
            with run.paused():
                trace = tuple(events)
                if item.kind == "ltlf":
                    want = L.eval_ltlf(trace, 0, parsed)
                else:
                    want = L.path_matches(trace, 0, len(trace), parsed)
                run.ok(states[-1].satisfied == want, f"{item_id} on {case}: {states[-1]} vs {want}")
            if number == 0 and item.kind == "ltlf" and len(item.props) == cli_props \
                    and len(run.cli_jobs) < CLI_SAMPLE:
                lines = "".join(json.dumps(sorted(e)) + "\n" for e in events)
                expected = {
                    "begin": begin.value,
                    "steps": [{"event": sorted(e), "state": s.value} for e, s in zip(events, states)],
                    "final": verdict_text(states[-1]),
                }
                run.cli_jobs.append({
                    "argv": ["monitor", item.text, "--lang", "ltlf",
                             "--props", ",".join(item.props),
                             "--trace", run.write(f"{item_id}.trace", lines),
                             "--format", "json"],
                    "expected": run.write(f"{item_id}.json", json.dumps(expected) + "\n"),
                    "json": True,
                })


def workload_stream(run, L, inputs):
    stream = inputs.stream
    runners = {}
    checks = {}
    for name, kind, texts, oracle in stream.models:
        make = (lambda t: L.ModelMonitor(L.parse_decl(t))) if kind == "decl" \
            else (lambda t: L.MetaMonitor(L.parse_meta(t)))
        built = [run.build(f"{name}.{copy}", lambda: make(text))
                 for copy, text in enumerate(texts)]
        runner = built[0]
        if runner is None:
            continue
        model = runner.model
        runners[name] = (kind, runner)
        with run.paused():
            checks[name] = [(c, L.parse_ltlf(t, model.alphabet)) for c, t in oracle]
            if kind == "meta":
                checks[name + ".meta"] = [
                    (d.name, L.expand(model.directive_formula(d), model.alphabet))
                    for d in model.directives
                ]
            fingerprint(run, name, runner)

    replayed = []
    polls = []
    for name, (kind, runner) in runners.items():
        trace = stream.traces[name]
        saved: list = []
        first_report = len(run.report_s)
        try:
            for start in range(0, len(trace), STREAM_CHUNK):
                run.calibrate()
                with run.root("bench.replay", name):
                    states = stream_chunk(run, name, kind, runner, trace, start, saved)
        except Exception as exc:
            run.attempted += 1
            run.fail(f"{name} stream: {exc!r}")
            continue
        replayed.append((name, kind, trace, saved, states))
        polls.append(statistics.median(run.report_s[first_report:]))
    # One report is a poll of every monitor, so the stream's report time is
    # the sum of the per-monitor medians (a median over the three mixed
    # together would sit between their clusters and jump between runs).
    run.report_s = [sum(polls)]
    # Peak memory of the monitoring itself, before the oracle builds its
    # own copies of the long traces.
    run.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with run.paused():
        for name, kind, trace, saved, states in replayed:
            check_stream(run, L, name, kind, checks, trace, saved, states)

    with run.paused():
        run.notes["history_len"] = sum(
            len(getattr(m, "history", ()))
            for _, runner in runners.values()
            for m in monitors(runner)
        )
        goldens = {
            "booking": (["pay", "acc", "cancel"], "booking_timeline.txt"),
            "booking_meta": (trace_tasks(read_text("samples", "booking-meta.trace")),
                             "booking_meta_timeline.txt"),
        }
        for name, (tasks, golden) in goldens.items():
            if name in runners:
                rendered = runners[name][1].timeline(tasks).render()
                run.ok(rendered == read_text("tests", "golden", golden),
                       f"{name} timeline differs from its golden")
    if "booking" in runners:
        cli_trace = stream.cli_trace
        with run.paused():
            expected = runners["booking"][1].timeline(cli_trace).render()
        run.cli_jobs.append({
            "argv": ["declare", "samples/booking.decl",
                     "--trace", run.write("stream.trace", "\n".join(cli_trace) + "\n")],
            "expected": run.write("stream.out", expected),
        })


def stream_chunk(run, name, kind, runner, trace, start, saved):
    """Feed one chunk of a long trace.  Every ``STREAM_SNAPSHOT_EVERY``
    events an operator polls the monitor's status (states, and for a
    model the tasks it forbids); that poll is the stream's report.  A poll
    takes microseconds, so ``STREAM_POLLS`` of them are timed together."""
    step_ns = run.step_ns
    report_cpu = 0.0
    end = min(len(trace), start + STREAM_CHUNK)
    c0 = process_time()
    for index in range(start, end):
        t0 = perf_counter_ns()
        states = runner.step(trace[index])
        step_ns.append(perf_counter_ns() - t0)
        if index < STREAM_CHECKED_PREFIX:
            saved.append(states)
        if index % STREAM_SNAPSHOT_EVERY == 0:
            with run.root("bench.report", name):
                c1 = process_time()
                t1 = perf_counter()
                for _ in range(STREAM_POLLS):
                    snapshot = runner.states()
                    if kind == "decl":
                        snapshot["forbidden"] = runner.forbidden()
                run.reported((perf_counter() - t1) / STREAM_POLLS)
            report_cpu += process_time() - c1
    run.replayed(process_time() - c0 - report_cpu, end - start)
    return states


def check_stream(run, L, name, kind, checks, trace, saved, final_states):
    """Every checked property on each of the first prefixes, and the
    constraints (and the model) on the whole trace."""
    letters = {task: frozenset((task,)) for task in set(trace)}
    full = tuple(letters[task] for task in trace)
    for length, states in enumerate(saved, start=1):
        prefix = full[:length]
        overall = True
        for label, formula in checks[name]:
            want = L.eval_ltlf(prefix, 0, formula)
            overall = overall and want
            run.ok(states[label].satisfied == want, f"{name} {label} at {length}")
        if kind == "decl":
            run.ok(states["model"].satisfied == overall, f"{name} model at {length}")
        for label, formula in checks.get(name + ".meta", ()):
            want = L.eval_ldlf(prefix, 0, formula)
            run.ok(states[label].satisfied == want, f"{name} {label} at {length}")
    overall = True
    for label, formula in checks[name]:
        want = L.eval_ltlf(full, 0, formula)
        overall = overall and want
        run.ok(final_states[label].satisfied == want, f"{name} {label} on the whole trace")
    if kind == "decl":
        run.ok(final_states["model"].satisfied == overall, f"{name} model on the whole trace")


WORKLOADS = {
    "decl": workload_decl,
    "meta": workload_meta,
    "formulas": workload_formulas,
    "stream": workload_stream,
}


# Results ---------------------------------------------------------------


def digest(fingerprints) -> str:
    text = "\n".join(f"{item} {' '.join(map(str, counts))}" for item, counts in fingerprints)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(run, measured_s) -> dict:
    """End-to-end figures of the run, times scaled to the reference speed;
    the raw ones are kept under ``_raw``."""
    rss_kb = run.rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    compile_ms = [s * 1e3 for s in run.compile_s]
    tail_pct, tail_ms = tail(compile_ms)
    step_us = run.scaled_steps_us()
    step_tail_pct, step_tail_us = tail(step_us)
    raw_step_us = [ns / 1e3 for ns in run.step_ns]
    return {
        "compile_s": sum(run.compile_s),
        "compile_p50_ms": statistics.median(compile_ms),
        "compile_tail_ms": tail_ms,
        "events_per_s": run.events / run.replay_s,
        "step_p50_us": statistics.median(step_us),
        "step_tail_us": step_tail_us,
        "report_ms": statistics.median(run.report_s) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
        "_raw": {
            "compile_s": sum(run.compile_raw_s),
            "compile_p50_ms": statistics.median(run.compile_raw_s) * 1e3,
            "events_per_s": run.events / run.replay_raw_s,
            "step_p50_us": statistics.median(raw_step_us),
            "report_ms": statistics.median(run.report_raw_s) * 1e3,
        },
        "_speed_factor": statistics.median(run.factors),
        "_calibrations": len(run.factors),
        "_compile_tail_pct": tail_pct,
        "_compile_samples": len(compile_ms),
        "_step_tail_pct": step_tail_pct,
        "_step_samples": len(step_us),
        "_measured_s": measured_s,
        "_compile_wall_scaled_s": sum(run.compile_wall_s),
    }


def per_layer(run) -> dict:
    t = run.tracer
    counts = t.counts
    parse_s = t.inclusive("syntax.parse")
    out = {
        "syntax.parse_s": parse_s,
        "syntax.parse_chars_per_s": counts.get("syntax.parse_chars", 0) / parse_s if parse_s else 0.0,
        "syntax.ltlf_to_ldlf_s": t.inclusive("syntax.ltlf_to_ldlf"),
        "syntax.nnf_s": t.inclusive("syntax.nnf"),
        "syntax.print_s": t.inclusive("syntax.print"),
        "automata.nfa_s": t.inclusive("automata.nfa"),
        "automata.nfa_states": counts.get("automata.nfa_states", 0),
        "automata.letters": counts.get("automata.letters", 0),
        "automata.subset_s": t.inclusive("automata.subset"),
        "automata.subset_states": counts.get("automata.subset_states", 0),
        "automata.minimize_s": t.inclusive("automata.minimize"),
        "automata.min_states": counts.get("automata.min_states", 0),
        "monitor.color_s": t.inclusive("monitor.color"),
        "monitor.step_s": t.inclusive("monitor.step"),
        "monitor.forbidden_s": t.inclusive("monitor.forbidden"),
        "monitor.history_len": run.notes.get("history_len", 0),
        "regexfold.fold_s": t.inclusive("regexfold.fold"),
        "metaconstraints.expand_s": t.inclusive("metaconstraints.expand"),
        "metaconstraints.expanded_chars": run.notes.get("expanded_chars", 0),
        "metaconstraints.rv_refs": run.notes.get("rv_refs", 0),
        "metaconstraints.rv_ref_repeat_share": run.notes.get("rv_ref_repeat_share", 0.0),
        "declare.model_step_s": t.inclusive("declare.model_step"),
        "declare.timeline_s": t.inclusive("declare.timeline"),
        "declare.render_s": t.inclusive("declare.render"),
        "declare.initial_pf_share": run.pf_initial / max(1, len(run.compile_s)),
    }
    for layer, seconds in t.layer_self().items():
        out[f"self.{layer}_s"] = seconds
    inside_builds = t.layer_self("compile")
    out["_build_bench_self_s"] = inside_builds.pop("bench")
    out["_build_layer_self_s"] = sum(inside_builds.values())
    return out


def run_cli_in_process(run, L):
    """The CLI sample through ``ldlmon.cli.main`` in this process, so the
    traced run books the CLI's own work under the ``cli`` layer."""
    import contextlib
    import io

    for job in run.cli_jobs:
        out = io.StringIO()
        with run.root("bench.cli", "cli"):
            with contextlib.redirect_stdout(out):
                code = L.cli.main(list(job["argv"]))
        run.ok(code == 0, f"in-process cli {job['argv'][0]} exit {code}")


def measure_setup(args) -> tuple:
    """Set-up: import ``ldlmon`` with none of its modules loaded, then
    build the inputs, ``SETUP_REPEATS`` times, each scaled by a
    calibration just before it; returns the median, the first (raw CPU
    time of this fresh interpreter up to then) and the inputs.

    The CPU time of a fresh interpreter follows the host's load and no
    calibration tracked it, so the reported figure is measured inside this
    process instead: dropping the ``ldlmon`` modules from ``sys.modules``
    makes the next import execute all of them again, from bytecode.  The
    standard-library modules they use stay loaded after the first round.
    """
    import inputs as gen

    booking = {
        "decl": read_text("samples", "booking.decl"),
        "meta": read_text("samples", "booking.meta"),
    }
    first = None
    samples = []
    for _ in range(SETUP_REPEATS):
        factor = calibration.factor() if first is not None else 1.0
        for name in [n for n in sys.modules if n == "ldlmon" or n.startswith("ldlmon.")]:
            del sys.modules[name]
        c0 = process_time()
        importlib.import_module("ldlmon")
        inputs = gen.build(args.workload, args.seed, args.seconds, booking)
        if first is None:
            first = process_time()
        else:
            samples.append((process_time() - c0) / factor)
    return statistics.median(samples), first, inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    setup_s, first_setup_s, inputs = measure_setup(args)
    import ldlmon as L

    os.makedirs(args.work, exist_ok=True)
    run = Run(args.trace, args.work)
    if run.tracer is not None:
        import ldlmon.cli  # noqa: F401  (so its functions get wrapped too)

        run.tracer.install()
    t0 = perf_counter()
    WORKLOADS[args.workload](run, L, inputs)
    measured_s = perf_counter() - t0
    result = {
        "setup_s": setup_s,
        "first_setup_s": first_setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "fingerprints": run.fingerprints,
        "digest": digest(run.fingerprints),
        "cli_jobs": run.cli_jobs,
        "initial_pf_share": run.pf_initial / max(1, len(run.compile_s)),
        "notes": run.notes,
        "e2e": end_to_end(run, measured_s),
    }
    if run.tracer is not None:
        layers = per_layer(run)
        run_cli_in_process(run, L)
        layers["cli.self_s"] = layers["self.cli_s"] = run.tracer.layer_self("cli")["cli"]
        result["attempted"] = run.attempted
        result["failed"] = run.failed
        result["failures"] = run.failures
        result["layers"] = layers
        result["item_counts"] = {
            str(item): counts for item, counts in run.tracer.item_counts.items()
        }
        spans = os.path.join(args.work, "spans.json")
        run.tracer.dump(spans)
        result["spans"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
