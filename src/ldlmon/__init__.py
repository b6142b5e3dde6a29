"""Finite-trace temporal logic, automata, and runtime monitors.

The pipeline: parse an LDLf or LTLf formula (or build one from the
constraint pattern catalog), compile it to a finite automaton, color
the states with the four runtime-verification verdicts, and feed events
to a monitor one at a time.  On top sit whole-model monitoring for
declarative process models and constraints over the monitoring states
of other constraints.
"""
from .automata import (
    ColoredDfa,
    Dfa,
    Nfa,
    aut_to_json,
    color,
    complement,
    compile_dfa,
    determinize,
    ldlf_to_nfa,
    minimize,
    prefix_closure,
    to_dot,
)
from .declare import (
    Constraint,
    DeclareModel,
    MetaModel,
    MetaMonitor,
    ModelMonitor,
    ModelSyntaxError,
    PATTERNS,
    Timeline,
    Verdict,
    finalize,
    global_monitor,
    local_monitors,
    parse_decl,
    parse_meta,
)
from .metaconstraints import (
    RvAtom,
    RvPath,
    compensation,
    conflict,
    contextual_absence,
    expand,
    preference,
    reactive_compensation,
)
from .monitor import (
    Monitor,
    monitor_automaton,
    rv_formula,
    shape_equivalent,
)
from .regexfold import automaton_to_regex, pref_regex, regex_for_rv
from .rv import RVState
from .semantics import (
    eval_ldlf,
    eval_ltlf,
    path_matches,
    trace_from_tasks,
)
from .syntax import (
    Alphabet,
    FormulaSyntaxError,
    ltlf_to_ldlf,
    parse_ldlf,
    parse_ltlf,
    parse_prop,
    parse_re,
    print_ldlf,
    print_ltlf,
    print_path,
    print_prop,
    re_to_ldlf,
    to_nnf,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
