"""Spans around the public stage functions of ``ldlmon``, installed from
the benchmark's side.

``Tracer.install`` wraps each stage function once and rebinds the wrapper,
matched by identity, in every ``ldlmon`` module that holds the function,
so a span follows the path the program actually takes.  A stage that a
later change bypasses drops to zero instead of being timed by a stale copy
of the pipeline.  Recursive stages get a span on their outermost call only.

Spans carry a name, start, end, parent and item id and stay in memory
until ``dump``; their times are raw ``perf_counter`` readings, while the
totals per name and per layer are divided by the speed factor of the item
they belong to (see calibration.py).  Stages called once per event (``step`` and friends) are
too many to keep one by one; they are summed per name instead, and their
time still counts against their parent's self time.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

perf_counter = time.perf_counter

LAYERS = (
    "syntax", "automata", "monitor", "regexfold",
    "metaconstraints", "declare", "cli", "bench",
)


def _count_nfa(tracer, result, args):
    tracer.add("automata.nfa_states", result.n_states)
    tracer.add("automata.letters", len(args[1].letters()))
    tracer.item_counts.setdefault(tracer.item, []).append(("nfa", result.n_states))


def _count_subset(tracer, result, args):
    tracer.add("automata.subset_states", result.n_states)
    tracer.item_counts.setdefault(tracer.item, []).append(("subset", result.n_states))


def _count_min(tracer, result, args):
    tracer.add("automata.min_states", result.n_states)
    tracer.item_counts.setdefault(tracer.item, []).append(("min", result.n_states))


def _count_parse(tracer, result, args):
    tracer.add("syntax.parse_chars", len(args[0]))


# (module, attribute, span name, keep each span, outermost only, counter)
FUNCTIONS = (
    ("ldlmon.syntax.parser", "parse_ltlf", "syntax.parse", True, False, _count_parse),
    ("ldlmon.syntax.parser", "parse_ldlf", "syntax.parse", True, False, _count_parse),
    ("ldlmon.syntax.parser", "parse_re", "syntax.parse", True, False, _count_parse),
    ("ldlmon.syntax.transforms", "ltlf_to_ldlf", "syntax.ltlf_to_ldlf", True, True, None),
    ("ldlmon.syntax.transforms", "re_to_ldlf", "syntax.re_to_ldlf", True, False, None),
    ("ldlmon.syntax.transforms", "to_nnf", "syntax.nnf", True, True, None),
    ("ldlmon.syntax.ldl", "print_ldlf", "syntax.print", False, False, None),
    ("ldlmon.automata", "ldlf_to_nfa", "automata.nfa", True, False, _count_nfa),
    ("ldlmon.automata", "determinize", "automata.subset", True, False, _count_subset),
    ("ldlmon.automata", "minimize", "automata.minimize", True, False, _count_min),
    ("ldlmon.automata", "prefix_closure", "automata.prefix_closure", True, False, None),
    ("ldlmon.automata", "complement", "automata.complement", True, False, None),
    ("ldlmon.monitor", "color", "monitor.color", True, False, None),
    ("ldlmon.monitor", "rv_formula", "monitor.rv_formula", True, False, None),
    ("ldlmon.monitor", "monitor_automaton", "monitor.monitor_automaton", True, False, None),
    ("ldlmon.regexfold", "automaton_to_regex", "regexfold.fold", True, False, None),
    ("ldlmon.regexfold", "pref_regex", "regexfold.pref_regex", True, False, None),
    ("ldlmon.regexfold", "regex_for_rv", "regexfold.regex_for_rv", True, False, None),
    ("ldlmon.metaconstraints", "expand", "metaconstraints.expand", True, True, None),
    ("ldlmon.declare", "parse_decl", "declare.parse", True, False, None),
    ("ldlmon.declare", "parse_meta", "declare.parse", True, False, None),
    ("ldlmon.declare", "local_monitors", "declare.local_monitors", True, False, None),
    ("ldlmon.declare", "global_monitor", "declare.global_monitor", True, False, None),
    ("ldlmon.cli", "main", "cli.main", True, False, None),
)

# (module, class, attribute, span name, keep each span)
METHODS = (
    ("ldlmon.monitor", "Monitor", "for_formula", "monitor.for_formula", True),
    ("ldlmon.monitor", "Monitor", "step", "monitor.step", False),
    ("ldlmon.monitor", "Monitor", "forbidden_symbols", "monitor.forbidden", False),
    ("ldlmon.declare", "ModelMonitor", "__init__", "declare.model_monitor", True),
    ("ldlmon.declare", "MetaMonitor", "__init__", "declare.meta_monitor", True),
    ("ldlmon.declare", "MetaModel", "directive_formula", "declare.directive_formula", True),
    ("ldlmon.declare", "ModelMonitor", "step", "declare.model_step", False),
    ("ldlmon.declare", "MetaMonitor", "step", "declare.model_step", False),
    ("ldlmon.declare", "ModelMonitor", "forbidden", "declare.forbidden", False),
    ("ldlmon.declare", "ModelMonitor", "timeline", "declare.timeline", True),
    ("ldlmon.declare", "MetaMonitor", "timeline", "declare.timeline", True),
    ("ldlmon.declare", "Timeline", "render", "declare.render", True),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, item)
        self.stack: list = []  # frames: [child time, span index]
        self.totals: dict = {}  # name -> [calls, inclusive s, self s], scaled
        self.phase_self: dict = {}  # (phase, layer) -> self s, scaled
        self.counts: dict = {}
        self.item_counts: dict = {}  # item -> [(stage, states), ...]
        self.active: dict = {}  # name -> depth, for outermost-only spans
        self.item = None
        self.phase = None
        self.enabled = True
        self.scale = 1.0  # speed factor of the current item; totals are divided by it

    def add(self, counter: str, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, name, fn, *, keep=True, outermost=False, counter=None):
        tracer = self
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            if not tracer.enabled or (outermost and tracer.active.get(name)):
                return fn(*args, **kwargs)
            if outermost:
                tracer.active[name] = 1
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            index = parent
            if keep:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if outermost:
                    tracer.active[name] = 0
                tracer._close(name, layer, start, end, frame, keep, index, parent)
            if counter is not None:
                counter(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name, layer, start, end, frame, keep, index, parent):
        duration = end - start
        if self.stack:
            self.stack[-1][0] += duration
        own = duration - frame[0]
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration / self.scale
        total[2] += own / self.scale
        key = (self.phase, layer)
        self.phase_self[key] = self.phase_self.get(key, 0.0) + own / self.scale
        if keep:
            self.spans[index] = (name, start, end, parent, self.item)

    @contextmanager
    def root(self, name: str, item):
        """A span of the benchmark's own code; its name's second part is
        the phase that layer self times are booked under."""
        outer = (self.item, self.phase)
        self.item = item
        self.phase = name.split(".", 1)[1]
        stack = self.stack
        parent = stack[-1][1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [0.0, index]
        stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self._close(name, "bench", start, end, frame, True, index, parent)
            self.item, self.phase = outer

    @contextmanager
    def paused(self):
        """Calls made here (oracle checks, fingerprints) leave no span."""
        before = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = before

    def install(self):
        """Wrap every stage function and method and rebind the wrappers
        wherever ``ldlmon`` modules refer to the originals."""
        import importlib

        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "ldlmon" or name.startswith("ldlmon."))
        ]
        for modname, attr, name, keep, outermost, counter in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(
                name, original, keep=keep, outermost=outermost, counter=counter
            )
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for modname, clsname, attr, name, keep in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, keep=keep))
            else:
                wrapped = self.wrap(name, original, keep=keep)
            setattr(cls, attr, wrapped)

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def layer_self(self, phase=None) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for (span_phase, layer), seconds in self.phase_self.items():
            if phase is None or span_phase == phase:
                out[layer] = out.get(layer, 0.0) + seconds
        return out

    def dump(self, path: str):
        payload = {
            "fields": ["name", "start", "end", "parent", "item"],
            "spans": [list(span) for span in self.spans if span is not None],
            "totals": {
                name: {"calls": calls, "inclusive_s": incl, "self_s": own}
                for name, (calls, incl, own) in sorted(self.totals.items())
            },
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
