"""Seeded end-to-end benchmark of ldlmon.

    python3 perfbench/run.py --workload decl --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  Workloads (see BENCHMARK.json and
perfbench/README.md for why each exists):

* ``decl``     random Declare models built into ``ModelMonitor``s, then
               short cases replayed and rendered as timelines;
* ``meta``     random ``.meta`` models built into ``MetaMonitor``s, same
               replay;
* ``formulas`` LTLf and regex texts over 3 to 8 propositions compiled by
               ``Monitor.for_formula``, with a few short traces each;
* ``stream``   the booking models and one mid-sized model fed one long
               trace each, without reset.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs the same inputs untraced and then traced, and
reports per-layer metrics and the tracing overhead.  Each measurement
runs in a fresh interpreter (``worker.py``).  Every output is checked
against ``ldlmon.semantics`` and the golden tables; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status 1 means the run could not be
made (for instance, no ``src/ldlmon`` to measure).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

CLI_REPEATS = 2
IMPORT_PROBES = 5
RUN_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "compile_s": "s",
    "compile_p50_ms": "ms",
    "compile_tail_ms": "ms",
    "events_per_s": "1/s",
    "step_p50_us": "us",
    "report_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "syntax.parse_s": "s",
    "syntax.parse_chars_per_s": "1/s",
    "syntax.ltlf_to_ldlf_s": "s",
    "syntax.nnf_s": "s",
    "syntax.print_s": "s",
    "automata.nfa_s": "s",
    "automata.nfa_states": "count",
    "automata.letters": "count",
    "automata.subset_s": "s",
    "automata.subset_states": "count",
    "automata.minimize_s": "s",
    "automata.min_states": "count",
    "monitor.color_s": "s",
    "monitor.step_s": "s",
    "monitor.forbidden_s": "s",
    "monitor.history_len": "count",
    "regexfold.fold_s": "s",
    "metaconstraints.expand_s": "s",
    "metaconstraints.expanded_chars": "count",
    "metaconstraints.rv_refs": "count",
    "metaconstraints.rv_ref_repeat_share": "ratio",
    "declare.model_step_s": "s",
    "declare.timeline_s": "s",
    "declare.render_s": "s",
    "declare.initial_pf_share": "ratio",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "self.syntax_s": "s",
    "self.automata_s": "s",
    "self.monitor_s": "s",
    "self.regexfold_s": "s",
    "self.metaconstraints_s": "s",
    "self.declare_s": "s",
    "self.cli_s": "s",
    "self.bench_s": "s",
    "trace.overhead_s": "s",
    "trace.compile_unaccounted_s": "s",
}


class BenchError(Exception):
    """The run could not be made; reported on stderr, exit status 1."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed string hashing, so set and dict orders inside the program, and
    # with them its timings, repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline) -> str:
    """Run a child interpreter to completion and return its standard
    output; the child measures its own time."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv[:3])}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv[:4])}")
    return proc.stdout


def worker(args, work, deadline, *, trace) -> dict:
    argv = [
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--work", work,
    ]
    out = run_child(argv, deadline)
    return json.loads(out.strip().splitlines()[-1])


def run_cli(jobs, deadline) -> tuple:
    """Each CLI job ``CLI_REPEATS`` times, each in a fresh interpreter, one
    at a time; the CPU seconds of each run and the jobs whose output
    differs from the expected file."""
    times = []
    wrong = []
    for _ in range(CLI_REPEATS):
        for job in jobs:
            out = run_child([os.path.join(HERE, "cli_probe.py"), *job["argv"]], deadline)
            probe = json.loads(out)
            times.append(probe["cpu_s"])
            with open(os.path.join(ROOT, job["expected"]), encoding="utf-8") as handle:
                expected = handle.read()
            if job.get("json"):
                same = json.loads(probe["stdout"]) == json.loads(expected)
            else:
                same = probe["stdout"] == expected
            if probe["code"] != 0 or not same:
                wrong.append(" ".join(job["argv"][:2]))
    return times, wrong


def import_probe(deadline) -> float:
    """CPU seconds a fresh interpreter spends in ``import ldlmon.cli``."""
    code = (
        "import time; t = time.process_time(); import ldlmon.cli; "
        "print(time.process_time() - t)"
    )
    out = run_child(["-c", code], deadline)
    return float(out.strip())


def check_checkout():
    for part in ("src/ldlmon/__init__.py", "samples/booking.decl",
                 "tests/golden/booking_timeline.txt"):
        if not os.path.exists(os.path.join(ROOT, part)):
            raise BenchError(f"{part} not found under {ROOT}; run from a checkout of ldlmon")


def report_lines(args, result):
    e2e = result["e2e"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}")
    for item, counts in result["fingerprints"]:
        print(f"  states {item}: min {' '.join(map(str, counts))}")
    for item, counts in sorted(result.get("item_counts", {}).items()):
        stages = {}
        for stage, n in counts:
            stages.setdefault(stage, []).append(n)
        print("  counts " + item + ": "
              + "; ".join(f"{s} {' '.join(map(str, stages[s]))}" for s in ("nfa", "subset", "min")
                          if s in stages))
    print(f"fingerprint digest (minimal states): {result['digest']}")
    print(f"measured phase: {e2e['_measured_s']:.3f} s wall")
    print(f"speed factor: median {e2e['_speed_factor']:.3f} over {e2e['_calibrations']} "
          f"calibrations (reference loop {calibration.REFERENCE_S * 1e3:g} ms); raw figures: "
          + ", ".join(f"{k} {v:.6g}" for k, v in e2e["_raw"].items()))
    print(f"compile tail: p{e2e['_compile_tail_pct']:g} of {e2e['_compile_samples']} builds")
    print(f"step tail: p{e2e['_step_tail_pct']:g} of {e2e['_step_samples']} steps, "
          f"{e2e['step_tail_us']:.4g} us (printed only: it jumps by up to a third "
          f"between runs of one seed)")
    print(f"initial PF share of models: {result['initial_pf_share']:.3f}")
    for key, value in sorted(result["notes"].items()):
        print(f"{key}: {value}")


def layer_metrics(untraced: dict, traced: dict, imports: list) -> dict:
    """Per-layer figures of the traced run, and the tracing overhead
    against the untraced run of the same inputs."""
    layers = dict(traced["layers"])
    layers["cli.import_s"] = statistics.median(imports)

    def scaled(e2e, key):
        return e2e[key] / e2e["_speed_factor"]

    overhead = scaled(traced["e2e"], "_measured_s") - scaled(untraced, "_measured_s")
    builds = untraced["_compile_wall_scaled_s"]
    build_overhead = traced["e2e"]["_compile_wall_scaled_s"] - builds
    inside = layers.pop("_build_layer_self_s")
    glue = layers.pop("_build_bench_self_s")
    unaccounted = builds - inside
    layers["trace.overhead_s"] = overhead
    layers["trace.compile_unaccounted_s"] = unaccounted
    print(f"tracing overhead: {overhead:.3f} s on the measured phase, {build_overhead:.3f} s "
          f"on builds (scaled wall seconds, traced minus untraced)")
    print(f"builds: {builds:.3f} s untraced; layer self times inside traced builds "
          f"{inside:.3f} s, benchmark glue {glue:.3f} s; unaccounted {unaccounted:.3f} s "
          f"({unaccounted / builds:+.1%}) against a build overhead of "
          f"{build_overhead / builds:+.1%}")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["decl", "meta", "formulas", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        check_checkout()
        work = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        rel_work = os.path.relpath(work, ROOT)
        result = worker(args, rel_work, deadline, trace=0)
        if args.trace:
            # The CLI sample runs in-process inside the traced worker.
            traced = worker(args, rel_work, deadline, trace=1)
            imports = [import_probe(deadline) for _ in range(IMPORT_PROBES)]
            cli_times, cli_wrong = [], []
        else:
            traced = None
            cli_times, cli_wrong = run_cli(result["cli_jobs"], deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = result["attempted"] + len(cli_times)
    failed = result["failed"] + len(cli_wrong)
    failures = result["failures"] + [f"cli output differs: {w}" for w in cli_wrong]
    shown = traced if traced is not None else result
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
    report_lines(args, shown)
    if traced is not None and traced["digest"] != result["digest"]:
        failed += 1
        failures.append("traced and untraced runs built different automata")
    print(f"fail_ratio: {failed / attempted:.6f} ({failed} of {attempted})")
    for line in failures:
        print(f"FAILED {line}")

    e2e = result["e2e"]
    if traced is None:
        values = {key: e2e[key] for key in END_TO_END_UNITS if key in e2e}
        values["setup_s"] = result["setup_s"]
        print(f"first set-up of the fresh worker interpreter: {result['first_setup_s']:.4f} s CPU "
              f"(printed only, not scaled)")
        print(f"cli: median {statistics.median(cli_times):.4f} s CPU over {len(cli_times)} "
              f"runs (printed only: the CPU time of fresh interpreters moved by a third "
              f"between runs, and no calibration tracked it)")
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}
    else:
        layers = layer_metrics(e2e, traced, imports)
        print(f"spans written to {traced['spans']}")
        metrics = {key: {"value": layers[key], "unit": unit}
                   for key, unit in PER_LAYER_UNITS.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
