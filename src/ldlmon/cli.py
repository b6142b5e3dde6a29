"""Command line front end.

Subcommands::

    ldlmon compile  FORMULA  [--lang ...] [--format dot|json|ascii]
    ldlmon monitor  FORMULA  --trace FILE [--format ascii|json]
    ldlmon declare  MODEL    --trace FILE [--format ascii|json]
    ldlmon meta     MODEL    --trace FILE [--format ascii|json]
    ldlmon repl     FORMULA  [--lang ...]

Formulas are LDLf by default; ``--lang`` selects LTLf, a bare regular
expression (matched against the whole trace), or a constraint pattern
call such as ``response(pay, get)``.

The alphabet comes from ``--props`` (free interpretations) or
``--tasks`` (one task per step); with neither, names are collected from
the formula itself, in first-use order, as ``--props`` for the logic
languages and ``--tasks`` for patterns.

Traces are files with one event per line: a task name (bare or quoted)
in task mode, a JSON list of the true propositions otherwise.  As in
model files, ``#`` starts a comment and blank lines are skipped, in
trace files, standard input (``-``) and the repl alike.

Each command compiles through one memo (see ``automata.compile_dfa``),
dropped when it returns: ``compile``, ``monitor`` and ``repl`` make one
compile call, which creates it, and ``declare`` and ``meta`` get theirs
from the monitor constructor.

Exit status: 0 on success, 1 on a usage or input error (including a
formula nested too deeply to process), 2 if an internal invariant broke.
"""
from __future__ import annotations

import argparse
import json
import sys

from .automata import aut_to_json, compile_dfa, determinize, guards_by_target, ldlf_to_nfa, to_dot
from .declare import (
    MetaMonitor,
    ModelMonitor,
    _logical_lines,
    _split_names,
    finalize,
    parse_decl,
    parse_meta,
    parse_pattern,
)
from .monitor import Monitor, color
from .syntax import (
    Alphabet,
    parse_ldlf,
    parse_ltlf,
    parse_re,
    print_prop,
    re_to_ldlf,
    scan_names,
)
from .syntax.transforms import ltlf_to_ldlf


class CliError(Exception):
    """A user-facing error: reported on stderr, exit status 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _resolve_formula(args) -> tuple:
    """Parse args.formula per args.lang; returns (ldlf, alphabet)."""
    alphabet = None
    if args.tasks is not None:
        alphabet = Alphabet.tasks(_split_names(args.tasks))
    elif args.props is not None:
        alphabet = Alphabet.of(*_split_names(args.props))
    if args.lang == "pattern":
        formula, alphabet = parse_pattern(args.formula, alphabet)
        return ltlf_to_ldlf(formula), alphabet
    if alphabet is None:
        names = scan_names(args.formula)
        if not names:
            raise CliError("cannot infer an alphabet; pass --props or --tasks")
        alphabet = Alphabet.of(*names)
    if args.lang == "ltlf":
        return ltlf_to_ldlf(parse_ltlf(args.formula, alphabet)), alphabet
    if args.lang == "re":
        return re_to_ldlf(parse_re(args.formula, alphabet)), alphabet
    return parse_ldlf(args.formula, alphabet), alphabet


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(str(exc)) from None


def _read_trace(path: str, alphabet: Alphabet) -> list[frozenset]:
    lines = (sys.stdin.read() if path == "-" else _read_file(path)).splitlines()
    return [_parse_event_line(text, alphabet, no) for no, text in _logical_lines(lines)]


def _parse_event_line(text: str, alphabet: Alphabet, no: int) -> frozenset:
    """The event on a logical trace line (comment cut off, not blank)."""
    if text.startswith(("[", '"')):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"trace line {no}: {exc}") from None
        if isinstance(data, str):
            event = frozenset({data})
        elif all(isinstance(item, str) for item in data):
            event = frozenset(data)
        else:
            raise CliError(f"trace line {no}: expected a list of names")
    else:
        event = frozenset({text})
    try:
        alphabet.check_letter(event)
    except ValueError as exc:
        raise CliError(f"trace line {no}: {exc}") from None
    return event


def _event_text(event: frozenset, alphabet: Alphabet) -> str:
    if alphabet.singleton_letters:
        return next(iter(event))
    return "{" + ",".join(sorted(event)) + "}"


def _aut_to_text(aut, colors) -> str:
    """Plain text transition listing, guard-compressed like the dot
    output."""
    lines = [f"states: {aut.n_states}  initial: {aut.initial}"]
    for state in range(aut.n_states):
        tags = []
        if state in aut.finals:
            tags.append("accepting")
        if colors is not None:
            tags.append(str(colors[state]))
        suffix = f"  ({', '.join(tags)})" if tags else ""
        lines.append(f"state {state}{suffix}")
        for target, guard in sorted(guards_by_target(aut, state).items()):
            lines.append(f"  {print_prop(guard)} -> {target}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(str(exc)) from None


def _cmd_compile(args) -> int:
    formula, alphabet = _resolve_formula(args)
    if args.no_minimize:
        dfa = determinize(ldlf_to_nfa(formula, alphabet))
    else:
        dfa = compile_dfa(formula, alphabet)
    colors = color(dfa).colors if args.colors else None
    if args.format == "dot":
        text = to_dot(dfa, colors)
    elif args.format == "json":
        text = aut_to_json(dfa, colors)
    else:
        text = _aut_to_text(dfa, colors)
    _write_output(text, args.out)
    return 0


def _cmd_monitor(args) -> int:
    formula, alphabet = _resolve_formula(args)
    monitor = Monitor.for_formula(formula, alphabet)
    events = _read_trace(args.trace, alphabet)
    begin = monitor.current_rv()
    steps = []
    for event in events:
        state = monitor.step(event)
        steps.append((event, state))
    verdict = finalize(monitor.current_rv())
    if args.format == "json":
        payload = {
            "begin": begin.value,
            "steps": [
                {"event": sorted(event), "state": state.value}
                for event, state in steps
            ],
            "final": verdict.value,
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"begin {begin}"]
    for index, (event, state) in enumerate(steps, start=1):
        lines.append(f"{index} {_event_text(event, alphabet)} {state}")
    lines.append(f"final: {verdict}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_model(args) -> int:
    """``declare`` and ``meta``: parse the model with ``args.parse_model``
    and replay the trace through an ``args.runner`` monitor."""
    model = args.parse_model(_read_file(args.model))
    events = _read_trace(args.trace, model.alphabet)
    timeline = args.runner(model).timeline([next(iter(event)) for event in events])
    text = timeline.to_json() if args.format == "json" else timeline.render()
    _write_output(text, args.out)
    return 0


def _cmd_repl(args) -> int:
    formula, alphabet = _resolve_formula(args)
    monitor = Monitor.for_formula(formula, alphabet)
    out = sys.stdout
    out.write(f"begin {monitor.current_rv()}\n")
    out.write("one event per line; :end completes the trace\n")
    for no, text in _logical_lines(sys.stdin):
        if text == ":end":
            break
        try:
            event = _parse_event_line(text, alphabet, no)
        except CliError as exc:
            out.write(f"error: {exc}\n")
            continue
        state = monitor.step(event)
        out.write(f"{state}")
        forbidden, _ = monitor.forbidden_at(monitor.current)
        if forbidden and not state.permanent:
            names = sorted(_event_text(l, alphabet) for l in forbidden)
            out.write(f"  (next must avoid: {', '.join(names)})")
        out.write("\n")
    out.write(f"final: {finalize(monitor.current_rv())}\n")
    return 0


def _add_formula_args(parser):
    parser.add_argument("formula", help="the property to work with")
    parser.add_argument(
        "--lang",
        choices=["ldlf", "ltlf", "re", "pattern"],
        default="ldlf",
        help="input language (default: ldlf)",
    )
    names = parser.add_mutually_exclusive_group()
    names.add_argument("--props", help="comma-separated proposition names")
    names.add_argument("--tasks", help="comma-separated task names (one per step)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ldlmon",
        description="Compile temporal properties to monitors and run them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="formula to colored automaton")
    _add_formula_args(p_compile)
    p_compile.add_argument(
        "--format", choices=["ascii", "dot", "json"], default="ascii"
    )
    p_compile.add_argument("--colors", action="store_true", help="color states")
    p_compile.add_argument(
        "--no-minimize", action="store_true", help="skip minimization"
    )
    p_compile.add_argument("--out", help="write here instead of stdout")
    p_compile.set_defaults(run=_cmd_compile)

    p_monitor = sub.add_parser("monitor", help="run one formula over a trace")
    _add_formula_args(p_monitor)
    p_monitor.add_argument("--trace", required=True, help="trace file, - for stdin")
    p_monitor.add_argument("--format", choices=["ascii", "json"], default="ascii")
    p_monitor.add_argument("--out", help="write here instead of stdout")
    p_monitor.set_defaults(run=_cmd_monitor)

    for name, help_text, parse_model, runner in (
        ("declare", "run a constraint model", parse_decl, ModelMonitor),
        ("meta", "run a model with RV-state constraints", parse_meta, MetaMonitor),
    ):
        p_model = sub.add_parser(name, help=help_text)
        p_model.add_argument("model", help="model file")
        p_model.add_argument("--trace", required=True, help="trace file, - for stdin")
        p_model.add_argument("--format", choices=["ascii", "json"], default="ascii")
        p_model.add_argument("--out", help="write here instead of stdout")
        p_model.set_defaults(run=_cmd_model, parse_model=parse_model, runner=runner)

    p_repl = sub.add_parser("repl", help="monitor events typed interactively")
    _add_formula_args(p_repl)
    p_repl.set_defaults(run=_cmd_repl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (CliError, ValueError) as exc:
        print(f"ldlmon: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("ldlmon: formula nested too deeply to process", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # an invariant broke
        print(f"ldlmon: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
