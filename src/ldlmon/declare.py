"""Declarative process models: constraint patterns, model files, monitors.

A model is a set of tasks plus a list of constraints drawn from a small
pattern catalog (or written directly in linear temporal logic).  Each
step of a process execution is exactly one task, so letters are the
singleton interpretations.

Two file formats live here as well.  ``parse_decl`` reads a plain
constraint model::

    tasks: pay, acc, get, cancel

    # at most one payment
    a2: absence2(pay)
    responded_existence(pay, acc)
    custom: ltl: G(pay -> F acc)

``parse_meta`` reads a model that can also constrain the *monitoring
states* of other constraints::

    tasks: pay, acc, get, cancel, return

    define re1: responded_existence(pay, acc)
    define ret: ltl: F return
    show re1

    meta ca:  absence get when re1 = TF
    meta cmp: compensate re1 with ret reactive
    meta cnf: conflict re1 ret
    meta prf: prefer ret over re1

Monitoring facades (``ModelMonitor``, ``MetaMonitor``) run all the
constraint monitors in lockstep: each event costs one column lookup,
shared by every monitor, and one table index per monitor.  They keep no
record of past events; ``timeline`` takes the trace and renders the run
as a table.  The whole-model monitor is the minimized product of the
local constraints' minimal DFAs, never one automaton compiled from the
conjunction formula.
"""
from __future__ import annotations

import json
import re as _re
from dataclasses import dataclass, field
from enum import Enum

from .automata import compile_dfa, product_fold
from .metaconstraints import (
    compensation,
    conflict,
    contextual_absence,
    expand,
    preference,
    reactive_compensation,
)
from .monitor import Monitor
from .rv import RVState
from .syntax import ldl, ltl
from .syntax.alphabet import Alphabet
from .syntax.parser import FormulaSyntaxError, parse_ltlf
from .syntax.props import Atom
from .syntax.transforms import ltlf_to_ldlf


def _task(name: str) -> ltl.Ltlf:
    return ltl.LtlfProp(Atom(name))


def existence(a: str) -> ltl.Ltlf:
    """Task a happens at least once."""
    return ltl.Eventually(_task(a))


def absence(a: str) -> ltl.Ltlf:
    """Task a never happens."""
    return ltl.LtlfNot(existence(a))


def absence2(a: str) -> ltl.Ltlf:
    """Task a happens at most once."""
    return ltl.LtlfNot(ltl.Eventually(ltl.LtlfAnd(_task(a), ltl.Next(existence(a)))))


def choice(a: str, b: str) -> ltl.Ltlf:
    """At least one of the two tasks happens."""
    return ltl.Eventually(ltl.LtlfOr(_task(a), _task(b)))


def responded_existence(a: str, b: str) -> ltl.Ltlf:
    """If a happens, b happens as well (before or after)."""
    return ltl.LtlfImplies(existence(a), existence(b))


def response(a: str, b: str) -> ltl.Ltlf:
    """Every a is eventually followed by a b."""
    return ltl.Always(ltl.LtlfImplies(_task(a), ltl.Next(existence(b))))


def precedence(a: str, b: str) -> ltl.Ltlf:
    """b can happen only after a has happened."""
    no_b = ltl.LtlfNot(_task(b))
    return ltl.LtlfOr(ltl.Until(no_b, _task(a)), ltl.LtlfNot(existence(b)))


def not_coexistence(a: str, b: str) -> ltl.Ltlf:
    """The two tasks never both happen in the same trace."""
    return ltl.LtlfNot(ltl.LtlfAnd(existence(a), existence(b)))


def succession(a: str, b: str) -> ltl.Ltlf:
    """Response and precedence combined."""
    return ltl.LtlfAnd(response(a, b), precedence(a, b))


PATTERNS = {
    "existence": (existence, 1),
    "absence": (absence, 1),
    "absence2": (absence2, 1),
    "choice": (choice, 2),
    "responded_existence": (responded_existence, 2),
    "response": (response, 2),
    "precedence": (precedence, 2),
    "not_coexistence": (not_coexistence, 2),
    "succession": (succession, 2),
}


@dataclass(frozen=True)
class Constraint:
    name: str
    formula: ltl.Ltlf

    def to_ldlf(self) -> ldl.Ldlf:
        return ltlf_to_ldlf(self.formula)


@dataclass(frozen=True)
class DeclareModel:
    alphabet: Alphabet
    constraints: tuple[Constraint, ...]

    def constraint(self, name: str) -> Constraint:
        for c in self.constraints:
            if c.name == name:
                return c
        msg = f"no constraint named {name!r}"
        raise KeyError(msg)


class ModelSyntaxError(ValueError):
    """A model file failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_NAME_RE = _re.compile(r"[A-Za-z_]\w*")
_LABELED_RE = _re.compile(r"^([A-Za-z_][\w-]*)\s*:\s*(.*)$")
_CALL_RE = _re.compile(r"^(\w+)\s*\(([^)]*)\)\s*$")


def _logical_lines(text: str):
    """Non-blank, non-comment lines with their 1-based numbers."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _parse_tasks(line: str, no: int) -> Alphabet:
    names = [part.strip() for part in line.split(",") if part.strip()]
    if not names:
        raise ModelSyntaxError("empty task list", no)
    try:
        return Alphabet.tasks(names)
    except ValueError as exc:
        raise ModelSyntaxError(str(exc), no) from None


def parse_pattern(
    text: str, alphabet: Alphabet | None = None
) -> tuple[ltl.Ltlf, Alphabet]:
    """The formula of a pattern call such as ``response(pay, get)``, and
    its alphabet: the given one, or with none the call's own tasks.

    Raises ValueError on a malformed call, an unknown pattern, a wrong
    number of tasks or a task outside the alphabet.
    """
    call = _CALL_RE.match(text.strip())
    if call is None:
        msg = f"expected pattern(task, ...), got {text!r}"
        raise ValueError(msg)
    pattern, arg_text = call.group(1), call.group(2)
    entry = PATTERNS.get(pattern)
    if entry is None:
        known = ", ".join(sorted(PATTERNS))
        raise ValueError(f"unknown pattern {pattern!r} (known: {known})")
    builder, arity = entry
    args = [part.strip() for part in arg_text.split(",") if part.strip()]
    if len(args) != arity:
        raise ValueError(f"{pattern} takes {arity} task(s), got {len(args)}")
    if alphabet is None:
        alphabet = Alphabet.tasks(args)
    for arg in args:
        if arg not in alphabet:
            raise ValueError(f"unknown task {arg!r}")
    return builder(*args), alphabet


def _build_pattern(body: str, alphabet: Alphabet, no: int) -> ltl.Ltlf:
    try:
        return parse_pattern(body, alphabet)[0]
    except ValueError as exc:
        raise ModelSyntaxError(str(exc), no) from None


def _build_body(body: str, alphabet: Alphabet, no: int) -> ltl.Ltlf:
    if body.startswith("ltl:"):
        text = body[len("ltl:"):].strip()
        try:
            return parse_ltlf(text, alphabet)
        except FormulaSyntaxError as exc:
            raise ModelSyntaxError(str(exc), no) from None
    return _build_pattern(body, alphabet, no)


def parse_decl(text: str) -> DeclareModel:
    alphabet = None
    constraints: list[Constraint] = []
    names_seen = {"model"}  # the whole-model monitor's name
    for no, line in _logical_lines(text):
        labeled = _LABELED_RE.match(line)
        if labeled is not None and labeled.group(1) == "tasks":
            if alphabet is not None:
                raise ModelSyntaxError("duplicate tasks line", no)
            alphabet = _parse_tasks(labeled.group(2), no)
            continue
        if alphabet is None:
            raise ModelSyntaxError("tasks line must come first", no)
        if (
            labeled is not None
            and "(" not in labeled.group(1)
            and labeled.group(1) != "ltl"
        ):
            name, body = labeled.group(1), labeled.group(2)
        else:
            # Unnamed constraints (including bare ``ltl:`` lines) go by
            # their own text.
            name, body = line, line
        if name in names_seen:
            raise ModelSyntaxError(f"duplicate constraint name {name!r}", no)
        names_seen.add(name)
        constraints.append(Constraint(name, _build_body(body, alphabet, no)))
    if alphabet is None:
        raise ModelSyntaxError("missing tasks line", len(text.splitlines()) or 1)
    if not constraints:
        raise ModelSyntaxError("model has no constraints", len(text.splitlines()) or 1)
    return DeclareModel(alphabet, tuple(constraints))


def local_monitors(model: DeclareModel) -> dict[str, Monitor]:
    return {
        c.name: Monitor.for_formula(c.to_ldlf(), model.alphabet)
        for c in model.constraints
    }


def global_monitor(model: DeclareModel) -> Monitor:
    """The whole-model monitor: the minimized product of the constraints'
    minimal DFAs."""
    dfas = (compile_dfa(c.to_ldlf(), model.alphabet) for c in model.constraints)
    return Monitor(product_fold(dfas))


class Verdict(Enum):
    COMPLIANT = "compliant"
    NONCOMPLIANT = "noncompliant"

    def __str__(self) -> str:
        return self.value


def finalize(state: RVState) -> Verdict:
    """The verdict once the trace is declared complete: whatever holds
    now is what holds, so temporary states collapse."""
    return Verdict.COMPLIANT if state.satisfied else Verdict.NONCOMPLIANT


def final_state(state: RVState) -> RVState:
    """The RV state at trace completion (temporary becomes permanent)."""
    return RVState.PERM_TRUE if state.satisfied else RVState.PERM_FALSE


EMPTY_CELL = "-"


@dataclass
class Timeline:
    """A monitoring run laid out column by column.

    One column for the empty trace, one per event, and one for trace
    completion.  Rows hold RV states for monitors, task lists for
    forbidden rows, and marks for conflict rows.
    """

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[str, list[str]]] = field(default_factory=list)

    def add_row(self, label: str, cells: list[str]):
        self.rows.append((label, cells))

    def render(self) -> str:
        header = [""] + self.columns
        table = [header] + [[label] + cells for label, cells in self.rows]
        widths = [
            max(len(row[i]) for row in table) for i in range(len(header))
        ]
        lines = []
        for index, row in enumerate(table):
            padded = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
            lines.append(" | ".join(padded).rstrip())
            if index == 0:
                lines.append("-+-".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "columns": self.columns,
            "rows": [{"label": label, "cells": cells} for label, cells in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _forbidden_cell(governing: RVState, forbidden) -> str:
    """The tasks ``forbidden()`` names, or an empty cell once the governing
    verdict can no longer change (nothing left to guard)."""
    if governing.permanent:
        return EMPTY_CELL
    return ",".join(sorted(forbidden())) or EMPTY_CELL


def _forbidden_tasks(monitors) -> frozenset[str]:
    """Tasks some of the monitors forbid as the next step."""
    return frozenset(
        task
        for monitor in monitors
        for letter in monitor.forbidden_symbols()
        for task in letter
    )


class _Lockstep:
    """Named monitors over one task alphabet, advanced together.

    ``_monitors`` holds the ``(name, Monitor)`` pairs in output order.  An
    event costs one task -> column lookup, shared by every monitor, and
    one table index per monitor, whose new state is written back to it.
    ``_extra_rows`` maps a monitor's name to the label of the timeline
    row under its own, whose cells ``_extra_cell`` fills.
    """

    def __init__(self, alphabet: Alphabet, monitors):
        self._monitors = tuple(monitors)
        columns = alphabet.columns()
        self._columns = {task: columns[frozenset((task,))] for task in alphabet.props}

    def reset(self):
        for _, monitor in self._monitors:
            monitor.reset()

    def step(self, task: str) -> dict[str, RVState]:
        """Feed one task to every monitor; returns the states after it.
        An unknown task raises ValueError before any monitor moves."""
        try:
            column = self._columns[task]
        except (KeyError, TypeError):  # TypeError: an unhashable event
            msg = f"unknown task {task!r}"
            raise ValueError(msg) from None
        states = {}
        for name, monitor in self._monitors:
            monitor.current = state = monitor.table[monitor.current][column]
            states[name] = monitor.colors[state]
        return states

    def run(self, tasks) -> dict[str, RVState]:
        for task in tasks:
            self.step(task)
        return self.states()

    def states(self) -> dict[str, RVState]:
        return {name: monitor.current_rv() for name, monitor in self._monitors}

    def timeline(self, tasks) -> Timeline:
        """Run the given trace from the start and lay it out as a table."""
        tasks = list(tasks)
        self.reset()
        columns = [self._cells()]
        for task in tasks:
            self.step(task)
            columns.append(self._cells())
        columns.append(self._cells(complete=True))
        timeline = Timeline(columns=["begin", *tasks, "complete"])
        for row in zip(*columns):
            timeline.add_row(row[0][0], [cell for _, cell in row])
        return timeline

    def _cells(self, complete=False) -> list[tuple[str, str]]:
        """One timeline column as (row label, cell) pairs; at trace
        completion temporary states become permanent and extra rows
        are empty."""
        cells = []
        for name, monitor in self._monitors:
            state = monitor.current_rv()
            cells.append((name, (final_state(state) if complete else state).code))
            label = self._extra_rows.get(name)
            if label is not None:
                cell = EMPTY_CELL if complete else self._extra_cell(label, monitor)
                cells.append((label, cell))
        return cells


class ModelMonitor(_Lockstep):
    """All of a model's constraint monitors plus the whole-model monitor,
    advanced in lockstep; ``step`` and ``states`` report the whole-model
    state under the key ``"model"``.

    The whole-model monitor is the minimized product of the DFAs the
    local monitors already hold, so no constraint is compiled twice.
    """

    _extra_rows = {"model": "forbidden"}

    def __init__(self, model: DeclareModel):
        self.model = model
        self.locals = local_monitors(model)
        self.overall = Monitor(product_fold(m.dfa for m in self.locals.values()))
        super().__init__(model.alphabet, [*self.locals.items(), ("model", self.overall)])

    # Bound in each class so that each owns these in its ``__dict__``,
    # where perfbench's tracer looks for the methods it wraps.
    step = _Lockstep.step
    timeline = _Lockstep.timeline

    def forbidden(self) -> frozenset[str]:
        """Tasks some individual constraint forbids as the next step."""
        return _forbidden_tasks(self.locals.values())

    def verdicts(self) -> dict[str, Verdict]:
        return {name: finalize(state) for name, state in self.states().items()}

    def _extra_cell(self, label: str, monitor: Monitor) -> str:
        return _forbidden_cell(monitor.current_rv(), self.forbidden)


KIND_ABSENCE = "absence-when"
KIND_COMPENSATE = "compensate"
KIND_CONFLICT = "conflict"
KIND_PREFER = "prefer"


@dataclass(frozen=True)
class MetaDirective:
    """One constraint over monitoring states, still in symbolic form."""

    name: str
    kind: str
    targets: tuple[str, ...]
    task: str | None = None
    state: RVState | None = None
    reactive: bool = False


@dataclass(frozen=True)
class MetaModel:
    alphabet: Alphabet
    defines: tuple[Constraint, ...]
    shows: tuple[str, ...]
    directives: tuple[MetaDirective, ...]

    def define(self, name: str) -> Constraint:
        for c in self.defines:
            if c.name == name:
                return c
        msg = f"no defined constraint named {name!r}"
        raise KeyError(msg)

    def directive_formula(self, directive: MetaDirective) -> ldl.Ldlf:
        """The directive as an LDLf formula over RV atoms and paths."""
        refs = [self.define(t).to_ldlf() for t in directive.targets]
        if directive.kind == KIND_ABSENCE:
            return contextual_absence(refs[0], directive.state, directive.task)
        if directive.kind == KIND_COMPENSATE:
            build = reactive_compensation if directive.reactive else compensation
            return build(refs[0], refs[1])
        if directive.kind == KIND_CONFLICT:
            return conflict(refs[0], refs[1])
        if directive.kind == KIND_PREFER:
            return preference(refs[0], refs[1])
        msg = f"unknown directive kind {directive.kind!r}"
        raise ValueError(msg)


_ABSENCE_RE = _re.compile(r"^absence\s+(\w+)\s+when\s+(\w+)\s*=\s*(\w+)$")
_COMPENSATE_RE = _re.compile(r"^compensate\s+(\w+)\s+with\s+(\w+)(\s+reactive)?$")
_CONFLICT_RE = _re.compile(r"^conflict\s+(\w+)\s+(\w+)$")
_PREFER_RE = _re.compile(r"^prefer\s+(\w+)\s+over\s+(\w+)$")


def parse_meta(text: str) -> MetaModel:
    alphabet = None
    defines: list[Constraint] = []
    shows: list[str] = []
    directives: list[MetaDirective] = []
    defined: set[str] = set()
    used: set[str] = set()

    def check_ref(name: str, no: int):
        if name not in defined:
            raise ModelSyntaxError(f"reference to undefined constraint {name!r}", no)

    for no, line in _logical_lines(text):
        labeled = _LABELED_RE.match(line)
        if labeled is not None and labeled.group(1) == "tasks":
            if alphabet is not None:
                raise ModelSyntaxError("duplicate tasks line", no)
            alphabet = _parse_tasks(labeled.group(2), no)
            continue
        if alphabet is None:
            raise ModelSyntaxError("tasks line must come first", no)
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "define":
            labeled = _LABELED_RE.match(rest)
            if labeled is None:
                raise ModelSyntaxError("expected: define NAME: constraint", no)
            name, body = labeled.group(1), labeled.group(2)
            if name in defined:
                raise ModelSyntaxError(f"duplicate definition {name!r}", no)
            defined.add(name)
            defines.append(Constraint(name, _build_body(body, alphabet, no)))
            continue
        if head == "show":
            check_ref(rest, no)
            if rest in shows:
                raise ModelSyntaxError(f"duplicate show {rest!r}", no)
            shows.append(rest)
            continue
        if head == "meta":
            labeled = _LABELED_RE.match(rest)
            if labeled is None:
                raise ModelSyntaxError("expected: meta NAME: directive", no)
            name, body = labeled.group(1), labeled.group(2)
            if name in used or name in defined:
                raise ModelSyntaxError(f"duplicate name {name!r}", no)
            used.add(name)
            directives.append(_parse_directive(name, body, alphabet, check_ref, no))
            continue
        raise ModelSyntaxError(f"unrecognized line {line!r}", no)

    if alphabet is None:
        raise ModelSyntaxError("missing tasks line", len(text.splitlines()) or 1)
    if not shows and not directives:
        raise ModelSyntaxError("nothing to monitor", len(text.splitlines()) or 1)
    return MetaModel(alphabet, tuple(defines), tuple(shows), tuple(directives))


def _parse_directive(name, body, alphabet, check_ref, no) -> MetaDirective:
    m = _ABSENCE_RE.match(body)
    if m is not None:
        task, target, state_text = m.groups()
        if task not in alphabet:
            raise ModelSyntaxError(f"unknown task {task!r}", no)
        check_ref(target, no)
        try:
            state = RVState.parse(state_text)
        except ValueError as exc:
            raise ModelSyntaxError(str(exc), no) from None
        return MetaDirective(name, KIND_ABSENCE, (target,), task=task, state=state)
    m = _COMPENSATE_RE.match(body)
    if m is not None:
        target, comp, reactive = m.groups()
        check_ref(target, no)
        check_ref(comp, no)
        return MetaDirective(
            name, KIND_COMPENSATE, (target, comp), reactive=reactive is not None
        )
    m = _CONFLICT_RE.match(body)
    if m is not None:
        first, second = m.groups()
        check_ref(first, no)
        check_ref(second, no)
        return MetaDirective(name, KIND_CONFLICT, (first, second))
    m = _PREFER_RE.match(body)
    if m is not None:
        preferred, other = m.groups()
        check_ref(preferred, no)
        check_ref(other, no)
        return MetaDirective(name, KIND_PREFER, (preferred, other))
    raise ModelSyntaxError(f"unrecognized directive {body!r}", no)


class MetaMonitor(_Lockstep):
    """Monitors for the shown constraints and every directive, advanced
    in lockstep; states are reported shown constraints first, then
    directives in file order.  Directive formulas are expanded to plain
    LDLf first."""

    def __init__(self, model: MetaModel):
        self.model = model
        self.shown = {
            name: Monitor.for_formula(model.define(name).to_ldlf(), model.alphabet)
            for name in model.shows
        }
        self.meta = {}
        for directive in model.directives:
            expanded = expand(model.directive_formula(directive), model.alphabet)
            self.meta[directive.name] = Monitor.for_formula(expanded, model.alphabet)
        super().__init__(model.alphabet, [*self.shown.items(), *self.meta.items()])
        self._extra_rows = {
            d.name: "  forbidden" if d.kind == KIND_ABSENCE else "  conflict"
            for d in model.directives
            if d.kind in (KIND_ABSENCE, KIND_CONFLICT)
        }

    step = _Lockstep.step
    timeline = _Lockstep.timeline

    def _extra_cell(self, label: str, monitor: Monitor) -> str:
        """The tasks an absence directive forbids next, or for a conflict
        directive an X marking an in-place conflict: the meta constraint
        holding right now with the chance to stop holding later."""
        state = monitor.current_rv()
        if label == "  forbidden":
            return _forbidden_cell(state, lambda: _forbidden_tasks([monitor]))
        return "X" if state is RVState.TEMP_TRUE else EMPTY_CELL
