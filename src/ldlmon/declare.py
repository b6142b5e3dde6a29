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

Both go through one reader, ``_read_model``, which owns the tasks line
and line numbers.  Defines and directives share one namespace, and each
directive kind is one entry of ``_DIRECTIVES``: its syntax, its
metaconstraint builder, the recipe that builds its monitor from the
targets' colored DFAs and the timeline row under it.

Monitoring facades (``ModelMonitor``, ``MetaMonitor``) run all the
constraint monitors in lockstep: each event costs one column lookup,
shared by every monitor, and one table index per monitor whose verdict
can still change.  A monitor in PT or PF is not stepped again until
``reset`` or ``timeline``: in a minimal DFA such a state is an absorbing
sink, so stepping would leave it, and every answer, where it is.  They
keep no record of past events; ``timeline`` takes the trace, walks each
monitor's transition table through it once and reads the timeline's
rows off the states passed, the forbidden rows from each monitor's
per-state forbidden table (see ``monitor.Monitor``).  The whole-model
monitor is the minimized product of the local constraints' minimal
DFAs, never one automaton compiled from the conjunction formula.

A constraint read from a pattern call is not compiled on its own.  Over
a task alphabet, a pattern's minimal DFA depends only on which argument
an event is, or that it is none of them.  So the pattern table,
``_TEMPLATES``, holds one colored minimal DFA per pattern and equality
pattern of its arguments (``response(a, b)`` and ``response(a, a)``
differ), compiled over the distinct argument slots plus one task that
stands for every other task.  A constraint's monitor copies each
task's column from its slot's, or from the other task's, and renumbers
the states breadth first (``automata.rename_columns``).  When every task
is an argument, none copies the other task's column, and the result is
still the compiled minimal DFA (``tests/test_templates.py``).  The table is
filled on first use and holds at most 15 entries, one per pattern and
equality pattern of the catalog, whatever the input; it is the only
compiled automaton kept between builds, and ``.meta`` defines that are
pattern calls read it too.  Parsing a pattern call builds no LTLf
formula (``Constraint.formula`` is built when first read), nor does a
``.meta`` build for its directives.  Everything
else compiles through one memo per build (see ``automata.compile_dfa``),
so a property that several constraints refer to is compiled once per
build, and the memo is dropped when it returns.  A ``.meta`` build
shares work through three things only: the pattern table, its defines'
colored DFAs keyed by name, and that memo.
"""
from __future__ import annotations

import functools
import json
import re as _re
from enum import Enum
from typing import Callable, NamedTuple

from .automata import (
    ColoredDfa, color_minimal, compile_dfa, product_fold, rename_columns, shared_columns)
from .metaconstraints import (
    compensation, compensation_dfa, conflict, conflict_dfa, contextual_absence,
    contextual_absence_dfa, preference, preference_dfa, reactive_compensation)
from .monitor import Monitor
from .rv import RVState
from .syntax import ldl, ltl
from .syntax.alphabet import Alphabet
from .syntax.parser import parse_ltlf
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


class Constraint:
    """A named constraint.  ``call`` is the pattern call it was read from,
    ``(pattern, args)``, or None for an ``ltl:`` line or a constraint
    built directly; ``local_monitors`` instantiates a call's monitor
    from the pattern table.  A parsed call passes ``formula=None`` and
    builds it when first read, so a model served by the table builds none."""

    def __init__(self, name: str, formula: ltl.Ltlf | None, call: tuple | None = None):
        self.name, self.call = name, call
        if formula is not None:
            self.formula = formula

    @functools.cached_property
    def formula(self) -> ltl.Ltlf:
        return PATTERNS[self.call[0]][0](*self.call[1])

    @functools.cached_property
    def _ldlf(self) -> ldl.Ldlf:
        return ltlf_to_ldlf(self.formula)

    def _key(self):
        return self.name, self.formula, self.call

    def __eq__(self, other):
        return isinstance(other, Constraint) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Constraint{self._key()!r}"

    def to_ldlf(self) -> ldl.Ldlf:
        """The LDLf translation, made once: every reference is one tree."""
        return self._ldlf


class DeclareModel(NamedTuple):
    alphabet: Alphabet
    constraints: tuple[Constraint, ...]


class ModelSyntaxError(ValueError):
    """A model file failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# One name pattern for labels, defines and the names directives refer to.
_NAME = r"[A-Za-z_][\w-]*"
_LABELED_RE = _re.compile(rf"^({_NAME})\s*:\s*(.*)$")
_CALL_RE = _re.compile(r"^(\w+)\s*\(([^)]*)\)\s*$")


def _logical_lines(lines):
    """Lines with any ``#`` comment cut off, skipping those left blank,
    each with its 1-based number; model and trace files share this rule."""
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _split_names(text: str) -> list[str]:
    """The comma-separated names of a tasks line or a ``--tasks`` or
    ``--props`` option, stripped; [] when all are empty, a ValueError
    when only some are."""
    names = [part.strip() for part in text.split(",")]
    if not any(names):
        return []
    if "" in names:
        raise ValueError(f"empty name in {text.strip()!r}")
    return names


def _read_model(text: str, read_line) -> Alphabet:
    """Read a model file, the tasks line first, then every other line
    through ``read_line(line, alphabet)``; returns the alphabet.  A line's
    ValueError becomes a ModelSyntaxError carrying its line number."""
    alphabet = None
    for no, line in _logical_lines(text.splitlines()):
        try:
            labeled = _LABELED_RE.match(line)
            if labeled is not None and labeled.group(1) == "tasks":
                if alphabet is not None:
                    raise ValueError("duplicate tasks line")
                names = _split_names(labeled.group(2))
                if not names:
                    raise ValueError("empty task list")
                alphabet = Alphabet.tasks(names)
            elif alphabet is None:
                raise ValueError("tasks line must come first")
            else:
                read_line(line, alphabet)
        except ValueError as exc:
            raise ModelSyntaxError(str(exc), no) from None
    if alphabet is None:
        raise ModelSyntaxError("missing tasks line", len(text.splitlines()) or 1)
    return alphabet


def parse_pattern(text: str, alphabet: Alphabet | None) -> tuple[ltl.Ltlf, Alphabet]:
    """The formula of a pattern call such as ``response(pay, get)``, and
    its alphabet: the given one, or with none the call's own distinct
    tasks, in first-use order.

    Raises ValueError on a malformed call, an unknown pattern, an empty
    or a wrong number of tasks, or a task outside the alphabet.
    """
    (pattern, args), alphabet = _parse_call(text, alphabet)
    return PATTERNS[pattern][0](*args), alphabet


def _parse_call(
    text: str, alphabet: Alphabet | None
) -> tuple[tuple[str, tuple[str, ...]], Alphabet]:
    """The pattern call ``(pattern, args)`` a text states, checked as
    ``parse_pattern`` describes, and its alphabet."""
    call = _CALL_RE.match(text.strip())
    if call is None:
        msg = f"expected pattern(task, ...), got {text!r}"
        raise ValueError(msg)
    pattern, arg_text = call.group(1), call.group(2)
    entry = PATTERNS.get(pattern)
    if entry is None:
        known = ", ".join(sorted(PATTERNS))
        raise ValueError(f"unknown pattern {pattern!r} (known: {known})")
    arity = entry[1]
    args = [part.strip() for part in arg_text.split(",")] if arg_text.strip() else []
    if "" in args:
        raise ValueError(f"empty task in {call.group(0)!r}")
    if len(args) != arity:
        raise ValueError(f"{pattern} takes {arity} task(s), got {len(args)}")
    if alphabet is None:
        alphabet = Alphabet.tasks(list(dict.fromkeys(args)))
    for arg in args:
        if arg not in alphabet:
            raise ValueError(f"unknown task {arg!r}")
    return (pattern, tuple(args)), alphabet


def _build_body(name: str, body: str, alphabet: Alphabet) -> Constraint:
    """The constraint a model line's body states, named ``name``."""
    if body.startswith("ltl:"):
        return Constraint(name, parse_ltlf(body[len("ltl:"):].strip(), alphabet))
    return Constraint(name, None, _parse_call(body, alphabet)[0])


def parse_decl(text: str) -> DeclareModel:
    constraints: list[Constraint] = []
    # The whole-model monitor's name and its timeline row's label.
    names = {"model", "forbidden"}

    def read_line(line: str, alphabet: Alphabet):
        labeled = _LABELED_RE.match(line)
        if labeled is not None and labeled.group(1) != "ltl":
            name, body = labeled.groups()
        else:
            # Unnamed constraints (including bare ``ltl:`` lines) go by
            # their own text.
            name, body = line, line
        if name in names:
            raise ValueError(f"duplicate constraint name {name!r}")
        names.add(name)
        constraints.append(_build_body(name, body, alphabet))

    alphabet = _read_model(text, read_line)
    if not constraints:
        raise ModelSyntaxError("model has no constraints", len(text.splitlines()) or 1)
    return DeclareModel(alphabet, tuple(constraints))


def local_monitors(model: DeclareModel) -> dict[str, Monitor]:
    """One monitor per constraint.  A constraint read from a pattern call
    is instantiated from the pattern table (see the module docstring);
    the others are compiled through one memo."""
    memo: dict = {}
    return {
        c.name: Monitor(_local_automaton(c, model.alphabet, memo))
        for c in model.constraints
    }


# The pattern table: (pattern, argument slots) -> the colored minimal DFA
# of the pattern over its slots plus ``_OTHER``, the task that stands for
# every task that is no argument.  Slots number the distinct arguments in
# first-use order, so ``response(a, a)`` has slots (0, 0).  Entries are
# never changed, and two callers that fill one entry at once store equal DFAs.
_TEMPLATES: dict[tuple[str, tuple[int, ...]], ColoredDfa] = {}
_OTHER = "other"


def _template(pattern: str, slots: tuple[int, ...]) -> ColoredDfa:
    colored = _TEMPLATES.get((pattern, slots))
    if colored is None:
        names = [f"s{slot}" for slot in range(max(slots) + 1)]
        formula = ltlf_to_ldlf(PATTERNS[pattern][0](*(names[slot] for slot in slots)))
        alphabet = Alphabet.tasks((*names, _OTHER))
        colored = _TEMPLATES[pattern, slots] = color_minimal(compile_dfa(formula, alphabet))
    return colored


def _local_automaton(constraint: Constraint, alphabet: Alphabet, memo: dict) -> ColoredDfa:
    """The constraint's colored minimal DFA over the alphabet."""
    if constraint.call is not None and alphabet.singleton_letters:
        pattern, args = constraint.call
        slot = {arg: index for index, arg in enumerate(dict.fromkeys(args))}
        template = _template(pattern, tuple(map(slot.get, args)))
        source = [slot.get(task, len(slot)) for task in alphabet.props]
        return rename_columns(template, alphabet, source)
    return color_minimal(compile_dfa(constraint.to_ldlf(), alphabet, memo))


def global_monitor(model: DeclareModel) -> Monitor:
    """The whole-model monitor: the minimized product of the constraints'
    minimal DFAs, compiled through one memo."""
    memo: dict = {}
    dfas = (compile_dfa(c.to_ldlf(), model.alphabet, memo) for c in model.constraints)
    return Monitor(color_minimal(product_fold(dfas)))


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


class Timeline:
    """A monitoring run laid out column by column.

    One column for the empty trace, one per event, and one for trace
    completion.  Rows hold RV states for monitors, task lists for
    forbidden rows, and marks for conflict rows.
    """

    def __init__(self, columns: list[str]):
        self.columns = columns
        self.rows = []

    def add_row(self, label: str, cells: list[str]):
        self.rows.append((label, cells))

    def render(self) -> str:
        table = [["", *self.columns], *([label, *cells] for label, cells in self.rows)]
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = [" | ".join(map(str.ljust, row, widths)).rstrip() for row in table]
        lines.insert(1, "-+-".join("-" * width for width in widths))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "columns": self.columns,
            "rows": [{"label": label, "cells": cells} for label, cells in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _forbidden_cell(governing: RVState, tasks) -> str:
    """The forbidden tasks, or an empty cell once the governing verdict
    can no longer change (nothing left to guard)."""
    if governing.permanent:
        return EMPTY_CELL
    return ",".join(sorted(tasks)) or EMPTY_CELL


def _forbidden_row(governing: Monitor, monitors, paths) -> list[str]:
    """A forbidden row up to trace completion: per column, the tasks the
    monitors forbid next at their states in ``paths`` (see
    ``_Lockstep``), under the governing monitor's verdict there."""
    colors = governing.colors
    task_sets = zip(*([m.forbidden_at(state)[1] for state in paths[m]] for m in monitors))
    return [
        _forbidden_cell(colors[state], frozenset().union(*sets))
        for state, sets in zip(paths[governing], task_sets)
    ]


def _unsettled(entries) -> list:
    """The ``_Lockstep`` entries whose monitor is not in a PT or PF state."""
    return [entry for entry in entries if not entry[4][entry[1].current]]


class _Lockstep:
    """Named monitors over one alphabet, advanced together.

    ``_entries`` holds one ``(name, monitor, table, colors, permanent)``
    entry per monitor in output order, ``permanent[state]`` true where the
    state is PT or PF.  ``table`` is the monitor's own table, read over
    the union of the monitors' supports (``automata.shared_columns``;
    over a task alphabet every monitor's support is every task, so it is
    the table itself).  An event costs one task -> column lookup, shared
    by every monitor, and one table index per monitor in ``_live``, whose
    new state is written back to it.  A monitor that reaches a permanent
    state settles: it leaves ``_live`` until ``reset`` or ``timeline``,
    as in a minimal DFA that state is an absorbing sink.  ``_states`` maps
    every name, in output order, to its monitor's verdict; a step
    overwrites the live monitors' entries in place.

    ``extra_rows`` maps a monitor's name to the ``(label, cells)`` of the
    timeline row under its own (or to None): ``cells(monitor, paths)``
    gives the row up to trace completion, where ``paths`` maps each
    monitor to the states it passes through, one per column.
    """

    def __init__(self, alphabet: Alphabet, monitors, extra_rows):
        tables, columns = shared_columns(
            alphabet, [m.table for _, m in monitors], [m.dfa.support for _, m in monitors])
        self._entries = tuple(
            (name, m, table, m.colors, tuple(rv.permanent for rv in m.colors))
            for (name, m), table in zip(monitors, tables)
        )
        self._extra_rows = extra_rows
        self._columns = {task: columns[frozenset((task,))] for task in alphabet.props}
        self._settle()
        self._start = self._live, self._states.copy()

    def _settle(self):
        """Derive ``_live`` and ``_states`` from the current states."""
        self._live = _unsettled(self._entries)
        self._states = {name: colors[m.current] for name, m, _, colors, _ in self._entries}

    def reset(self):
        for _, monitor, _, _, _ in self._entries:
            monitor.current = monitor.dfa.initial
        live, states = self._start
        self._live, self._states = live, states.copy()

    def step(self, task: str) -> dict[str, RVState]:
        """Feed one task to every live monitor; returns every monitor's
        state after it.  An unknown task raises ValueError before any
        monitor moves."""
        try:
            column = self._columns[task]
        except (KeyError, TypeError):  # TypeError: an unhashable event
            column = self._column(task)  # raises the unknown-task error
        states = self._states
        settled = False
        for name, monitor, table, colors, permanent in self._live:
            monitor.current = state = table[monitor.current][column]
            states[name] = colors[state]
            if permanent[state]:
                settled = True
        if settled:
            self._live = _unsettled(self._live)
        return states.copy()

    def states(self) -> dict[str, RVState]:
        return self._states.copy()

    def timeline(self, tasks) -> Timeline:
        """Run the given trace from the start and lay it out as a table.

        Each monitor walks its own table through the trace's columns, and
        its rows are read off the states it passes through.  At trace
        completion temporary states become permanent and extra rows are
        empty.  An unknown task raises ValueError before any monitor
        moves."""
        tasks = list(tasks)
        columns = [self._column(task) for task in tasks]
        paths = {}
        for _, monitor, table, _, _ in self._entries:
            state = monitor.dfa.initial
            path = [state]
            for column in columns:
                state = table[state][column]
                path.append(state)
            monitor.current = state
            paths[monitor] = path
        self._settle()
        timeline = Timeline(["begin", *tasks, "complete"])
        for name, monitor, _, colors, _ in self._entries:
            path = paths[monitor]
            cells = [colors[state].code for state in path]
            cells.append(final_state(colors[path[-1]]).code)
            timeline.add_row(name, cells)
            extra = self._extra_rows.get(name)
            if extra is not None:
                label, row = extra
                timeline.add_row(label, [*row(monitor, paths), EMPTY_CELL])
        return timeline

    def _column(self, task) -> int:
        try:
            return self._columns[task]
        except (KeyError, TypeError):  # TypeError: an unhashable event
            msg = f"unknown task {task!r}"
            raise ValueError(msg) from None


class ModelMonitor(_Lockstep):
    """All of a model's constraint monitors plus the whole-model monitor,
    advanced in lockstep; ``step`` and ``states`` report the whole-model
    state under the key ``"model"``.

    The whole-model monitor is the minimized product of the DFAs the
    local monitors already hold, so no constraint is compiled twice.
    The local monitors come from ``local_monitors``: pattern calls are
    instantiated from the pattern table, the rest compiled through one
    memo, which the monitor does not keep.
    """

    def __init__(self, model: DeclareModel):
        self.model = model
        self.locals = local_monitors(model)
        self.overall = Monitor(color_minimal(product_fold(m.dfa for m in self.locals.values())))
        monitors = [*self.locals.items(), ("model", self.overall)]
        forbidden = ("forbidden", lambda m, paths: _forbidden_row(m, self.locals.values(), paths))
        super().__init__(model.alphabet, monitors, {"model": forbidden})

    # Bound in each class so that each owns these in its ``__dict__``,
    # where perfbench's tracer looks for the methods it wraps.
    step = _Lockstep.step
    timeline = _Lockstep.timeline

    def forbidden(self) -> frozenset[str]:
        """Tasks some individual constraint forbids as the next step."""
        return frozenset().union(*(m.forbidden_at(m.current)[1] for m in self.locals.values()))

    def verdicts(self) -> dict[str, Verdict]:
        return {name: finalize(state) for name, state in self._states.items()}


KIND_ABSENCE = "absence-when"
KIND_COMPENSATE = "compensate"
KIND_CONFLICT = "conflict"
KIND_PREFER = "prefer"


class _Kind(NamedTuple):
    """A directive kind: its syntax, a regex whose named groups give the
    ``MetaDirective`` fields (``first`` and ``second`` the targets), its
    metaconstraint ``build(directive, *target_formulas)``, its minimal DFA
    ``recipe(directive, *target_colored_dfas)``, and the
    ``(label, cells)`` of the timeline row under its own, if any (see
    ``_Lockstep``)."""

    syntax: str
    build: Callable
    recipe: Callable
    row: tuple[str, Callable[[Monitor, dict], list[str]]] | None = None


_DIRECTIVES = {
    KIND_ABSENCE: _Kind(
        rf"absence\s+(?P<task>\w+)\s+when\s+(?P<first>{_NAME})\s*=\s*(?P<state>\w+)",
        lambda d, ref: contextual_absence(ref, d.state, d.task),
        lambda d, ref: contextual_absence_dfa(ref, d.state, d.task),
        ("  forbidden", lambda m, paths: _forbidden_row(m, [m], paths)),
    ),
    KIND_COMPENSATE: _Kind(
        rf"compensate\s+(?P<first>{_NAME})\s+with\s+(?P<second>{_NAME})"
        r"(?P<reactive>\s+reactive)?",
        lambda d, ref, comp: (reactive_compensation if d.reactive else compensation)(ref, comp),
        lambda d, ref, comp: compensation_dfa(ref, comp, d.reactive),
    ),
    KIND_CONFLICT: _Kind(
        rf"conflict\s+(?P<first>{_NAME})\s+(?P<second>{_NAME})",
        lambda d, first, second: conflict(first, second),
        lambda d, first, second: conflict_dfa(first, second),
        # An X marks an in-place conflict: the directive holds right now
        # with the chance to stop holding later.
        ("  conflict", lambda m, paths: [
            "X" if m.colors[state] is RVState.TEMP_TRUE else EMPTY_CELL for state in paths[m]
        ]),
    ),
    KIND_PREFER: _Kind(
        rf"prefer\s+(?P<first>{_NAME})\s+over\s+(?P<second>{_NAME})",
        lambda d, preferred, other: preference(preferred, other),
        lambda d, preferred, other: preference_dfa(preferred, other),
    ),
}


class MetaDirective(NamedTuple):
    """One constraint over monitoring states, still in symbolic form."""

    name: str
    kind: str
    targets: tuple[str, ...]
    task: str | None
    state: RVState | None
    reactive: bool


class MetaModel(NamedTuple):
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
        kind = _DIRECTIVES.get(directive.kind)
        if kind is None:
            msg = f"unknown directive kind {directive.kind!r}"
            raise ValueError(msg)
        return kind.build(directive, *(self.define(t).to_ldlf() for t in directive.targets))


def parse_meta(text: str) -> MetaModel:
    # One namespace: defines map to their constraint, directives to None.
    names: dict[str, Constraint | None] = {}
    shows: list[str] = []
    directives: list[MetaDirective] = []

    def ref(name: str) -> str:
        if names.get(name) is None:
            raise ValueError(f"reference to undefined constraint {name!r}")
        return name

    def read_line(line: str, alphabet: Alphabet):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        labeled = _LABELED_RE.match(rest)
        if head == "show":
            if ref(rest) in shows:
                raise ValueError(f"duplicate show {rest!r}")
            shows.append(rest)
        elif head == "define":
            if labeled is None:
                raise ValueError("expected: define NAME: constraint")
            name, body = labeled.groups()
            if name in names:
                raise ValueError(f"duplicate definition {name!r}")
            names[name] = _build_body(name, body, alphabet)
        elif head == "meta":
            if labeled is None:
                raise ValueError("expected: meta NAME: directive")
            name, body = labeled.groups()
            if name in names:
                raise ValueError(f"duplicate name {name!r}")
            names[name] = None
            directives.append(_parse_directive(name, body, alphabet, ref))
        else:
            raise ValueError(f"unrecognized line {line!r}")

    alphabet = _read_model(text, read_line)
    if not shows and not directives:
        raise ModelSyntaxError("nothing to monitor", len(text.splitlines()) or 1)
    defines = tuple(c for c in names.values() if c is not None)
    return MetaModel(alphabet, defines, tuple(shows), tuple(directives))


def _parse_directive(name: str, body: str, alphabet: Alphabet, ref) -> MetaDirective:
    """The directive a ``meta`` line's body states; ``ref`` checks that a
    name refers to a define."""
    for kind, entry in _DIRECTIVES.items():
        match = _re.fullmatch(entry.syntax, body)
        if match is not None:
            break
    else:
        raise ValueError(f"unrecognized directive {body!r}")
    fields = match.groupdict()
    task = fields.get("task")
    if task is not None and task not in alphabet:
        raise ValueError(f"unknown task {task!r}")
    targets = tuple(ref(fields[g]) for g in ("first", "second") if g in fields)
    state = fields.get("state") and RVState.parse(fields["state"])
    return MetaDirective(name, kind, targets, task, state, fields.get("reactive") is not None)


class MetaMonitor(_Lockstep):
    """Monitors for the shown constraints and every directive, advanced
    in lockstep; states are reported shown constraints first, then
    directives in file order.  Each define they refer to gets its colored
    DFA as in ``local_monitors``, keyed by name; a shown define's monitor
    is that DFA, and each directive's is its kind's recipe over its
    targets' DFAs.  The build's memo, dropped when it returns, serves
    only the compiles of ``ltl:`` defines."""

    def __init__(self, model: MetaModel):
        memo: dict = {}
        self.model = model
        alphabet = model.alphabet
        colored = {}
        for name in [*model.shows, *(t for d in model.directives for t in d.targets)]:
            if name not in colored:
                colored[name] = _local_automaton(model.define(name), alphabet, memo)
        self.shown = {name: Monitor(colored[name]) for name in model.shows}
        self.meta = {
            d.name: Monitor(color_minimal(
                _DIRECTIVES[d.kind].recipe(d, *map(colored.__getitem__, d.targets))))
            for d in model.directives
        }
        rows = {d.name: _DIRECTIVES[d.kind].row for d in model.directives}
        super().__init__(alphabet, [*self.shown.items(), *self.meta.items()], rows)

    step = _Lockstep.step
    timeline = _Lockstep.timeline
