"""Constraint patterns, model files, and the lockstep monitors."""
import json

import pytest

from ldlmon.declare import (
    Constraint,
    DeclareModel,
    EMPTY_CELL,
    MetaModel,
    MetaMonitor,
    ModelMonitor,
    ModelSyntaxError,
    PATTERNS,
    Timeline,
    Verdict,
    absence,
    absence2,
    choice,
    existence,
    final_state,
    finalize,
    global_monitor,
    local_monitors,
    not_coexistence,
    parse_decl,
    parse_meta,
    precedence,
    responded_existence,
    response,
    succession,
)
from ldlmon.metaconstraints import RvAtom
from ldlmon.monitor import monitor_automaton
from ldlmon.rv import RVState
from ldlmon.semantics import eval_ltlf, trace_from_tasks
from ldlmon.syntax import Alphabet

TT_ = RVState.TEMP_TRUE
TF_ = RVState.TEMP_FALSE
PT_ = RVState.PERM_TRUE
PF_ = RVState.PERM_FALSE

ABC = Alphabet.tasks(["a", "b", "c"])

BOOKING_DECL = """\
tasks: pay, acc, get, cancel

absence2(pay)
responded_existence(pay, acc)
precedence(pay, get)
response(pay, get)
not_coexistence(get, cancel)
"""

BOOKING_META = """\
tasks: pay, acc, get, cancel, return

define re1: responded_existence(pay, acc)
define ncx: not_coexistence(get, cancel)
define resp: response(pay, get)
define ret: ltl: F return

show re1
show ncx

meta ca: absence get when re1 = TF
meta cmp: compensate ncx with ret reactive
meta cnf: conflict resp ncx
meta prf: prefer ncx over resp
"""


def holds(formula, tasks):
    return eval_ltlf(trace_from_tasks(tasks), 0, formula)


# The pattern catalog ----------------------------------------------------


def test_existence_and_absence():
    assert not holds(existence("a"), [])
    assert holds(existence("a"), ["b", "a"])
    assert holds(absence("a"), ["b", "b"])
    assert not holds(absence("a"), ["b", "a"])


def test_absence2_allows_at_most_one():
    assert holds(absence2("a"), [])
    assert holds(absence2("a"), ["a", "b"])
    assert not holds(absence2("a"), ["a", "b", "a"])
    assert not holds(absence2("a"), ["a", "a"])


def test_choice():
    assert holds(choice("a", "b"), ["c", "b"])
    assert holds(choice("a", "b"), ["a"])
    assert not holds(choice("a", "b"), ["c", "c"])
    assert not holds(choice("a", "b"), [])


def test_responded_existence_is_order_free():
    pattern = responded_existence("a", "b")
    assert holds(pattern, [])
    assert holds(pattern, ["b"])
    assert holds(pattern, ["b", "a"])
    assert holds(pattern, ["a", "c", "b"])
    assert not holds(pattern, ["a", "c"])


def test_response_needs_a_later_occurrence():
    pattern = response("a", "b")
    assert holds(pattern, [])
    assert holds(pattern, ["b"])
    assert holds(pattern, ["a", "b"])
    assert holds(pattern, ["a", "b", "a", "c", "b"])
    assert not holds(pattern, ["a"])
    assert not holds(pattern, ["b", "a"])
    assert not holds(pattern, ["a", "b", "a"])


def test_precedence_needs_an_earlier_occurrence():
    pattern = precedence("a", "b")
    assert holds(pattern, [])
    assert holds(pattern, ["a", "b"])
    assert holds(pattern, ["a", "b", "b"])
    assert holds(pattern, ["c", "a", "b"])
    assert not holds(pattern, ["b"])
    assert not holds(pattern, ["b", "a"])


def test_not_coexistence():
    pattern = not_coexistence("a", "b")
    assert holds(pattern, [])
    assert holds(pattern, ["a", "a", "c"])
    assert holds(pattern, ["b"])
    assert not holds(pattern, ["a", "c", "b"])
    assert not holds(pattern, ["b", "a"])


def test_succession_combines_response_and_precedence():
    pattern = succession("a", "b")
    assert holds(pattern, [])
    assert holds(pattern, ["a", "b"])
    assert not holds(pattern, ["a"])
    assert not holds(pattern, ["b", "a", "b"])


def test_pattern_catalog_arities():
    assert set(PATTERNS) == {
        "existence",
        "absence",
        "absence2",
        "choice",
        "responded_existence",
        "response",
        "precedence",
        "not_coexistence",
        "succession",
    }
    for builder, arity in PATTERNS.values():
        formula = builder(*["a", "b"][:arity])
        assert holds(formula, []) in (True, False)


# Monitor shapes for a few patterns --------------------------------------


def test_response_monitor_shape():
    colored = monitor_automaton(
        Constraint("r", response("a", "b")).to_ldlf(), ABC
    )
    assert colored.dfa.n_states == 2
    assert colored.colors == (TT_, TF_)
    table = colored.dfa.transitions
    a, b, c = (frozenset({x}) for x in "abc")
    assert table[0] == {a: 1, b: 0, c: 0}
    assert table[1] == {a: 1, b: 0, c: 1}


def test_not_coexistence_monitor_shape():
    colored = monitor_automaton(
        Constraint("n", not_coexistence("a", "b")).to_ldlf(), ABC
    )
    assert colored.dfa.n_states == 4
    assert colored.colors == (TT_, TT_, TT_, PF_)
    a, b, c = (frozenset({x}) for x in "abc")
    table = colored.dfa.transitions
    assert table[0] == {a: 1, b: 2, c: 0}
    assert table[1] == {a: 1, b: 3, c: 1}
    assert table[2] == {a: 3, b: 2, c: 2}
    assert table[3] == {a: 3, b: 3, c: 3}


def test_precedence_monitor_shape():
    colored = monitor_automaton(
        Constraint("p", precedence("a", "b")).to_ldlf(), ABC
    )
    assert colored.dfa.n_states == 3
    assert colored.colors == (TT_, PT_, PF_)


# Model files ------------------------------------------------------------


def test_parse_decl_reads_the_booking_model():
    model = parse_decl(BOOKING_DECL)
    assert model.alphabet == Alphabet.tasks(["pay", "acc", "get", "cancel"])
    assert [c.name for c in model.constraints] == [
        "absence2(pay)",
        "responded_existence(pay, acc)",
        "precedence(pay, get)",
        "response(pay, get)",
        "not_coexistence(get, cancel)",
    ]
    looked_up = model.constraint("response(pay, get)")
    assert looked_up.formula == response("pay", "get")
    with pytest.raises(KeyError):
        model.constraint("nope")


def test_parse_decl_labels_comments_and_ltl_bodies():
    model = parse_decl(
        """
        tasks: a, b  # our two tasks

        # named pattern
        one: existence(a)
        two: ltl: G (a -> F b)
        ltl: F b
        """
    )
    assert [c.name for c in model.constraints] == ["one", "two", "ltl: F b"]
    assert model.constraint("one").formula == existence("a")
    assert model.constraint("ltl: F b").formula == model.constraint("two").formula.arg.right  # noqa: E501


def test_parse_decl_error_positions():
    cases = [
        ("existence(a)", "line 1: tasks line must come first"),
        ("tasks: a\ntasks: b\nexistence(a)", "line 2: duplicate tasks line"),
        ("tasks:  ,\nexistence(a)", "line 1: empty task list"),
        ("tasks: a\nnope(a)", "line 2: unknown pattern"),
        ("tasks: a\nexistence(a, a)", "line 2: existence takes 1 task(s)"),
        ("tasks: a\nexistence(b)", "line 2: unknown task 'b'"),
        ("tasks: a\nx: existence(a)\nx: existence(a)", "line 3: duplicate constraint"),
        ("tasks: a\nmodel: existence(a)", "line 2: duplicate constraint name 'model'"),
        ("tasks: a\nx: ltl: F (", "line 2: "),
        ("tasks: a", "no constraints"),
        ("", "missing tasks line"),
    ]
    for text, needle in cases:
        with pytest.raises(ModelSyntaxError) as err:
            parse_decl(text)
        assert needle.split(":")[0] in str(err.value), text
        if needle.startswith("line"):
            assert str(err.value).startswith(needle.split(":")[0] + ":"), text


def test_parse_decl_reports_line_numbers_attribute():
    with pytest.raises(ModelSyntaxError) as err:
        parse_decl("tasks: a\n\n\nbad stuff here")
    assert err.value.line_no == 4


def test_duplicate_unnamed_constraints_are_rejected():
    with pytest.raises(ModelSyntaxError, match="duplicate"):
        parse_decl("tasks: a\nexistence(a)\nexistence(a)")


def test_model_has_no_constraints():
    with pytest.raises(ModelSyntaxError, match="no constraints"):
        parse_decl("tasks: a\n# just a comment\n")


# Verdicts ---------------------------------------------------------------


def test_finalize_and_final_state():
    assert finalize(TT_) is Verdict.COMPLIANT
    assert finalize(PT_) is Verdict.COMPLIANT
    assert finalize(TF_) is Verdict.NONCOMPLIANT
    assert finalize(PF_) is Verdict.NONCOMPLIANT
    assert final_state(TT_) is PT_
    assert final_state(TF_) is PF_
    assert final_state(PT_) is PT_
    assert final_state(PF_) is PF_
    assert str(Verdict.COMPLIANT) == "compliant"


# The lockstep model monitor --------------------------------------------


BOOKING_ROWS = {
    "absence2(pay)": ["TT", "TT", "TT", "TT", "PT"],
    "responded_existence(pay, acc)": ["TT", "TF", "PT", "PT", "PT"],
    "precedence(pay, get)": ["TT", "PT", "PT", "PT", "PT"],
    "response(pay, get)": ["TT", "TF", "TF", "TF", "PF"],
    "not_coexistence(get, cancel)": ["TT", "TT", "TT", "TT", "PT"],
    "model": ["TT", "TF", "TF", "PF", "PF"],
    "forbidden": ["get", "pay", "pay", "-", "-"],
}


def test_booking_run_states_step_by_step():
    monitor = ModelMonitor(parse_decl(BOOKING_DECL))
    begin = monitor.states()
    assert begin["model"] is TT_
    assert all(state is TT_ for state in begin.values())
    assert monitor.forbidden() == frozenset({"get"})

    after_pay = monitor.step("pay")
    assert after_pay["responded_existence(pay, acc)"] is TF_
    assert after_pay["response(pay, get)"] is TF_
    assert after_pay["precedence(pay, get)"] is PT_
    assert after_pay["model"] is TF_
    assert monitor.forbidden() == frozenset({"pay"})

    after_acc = monitor.step("acc")
    assert after_acc["responded_existence(pay, acc)"] is PT_
    assert after_acc["model"] is TF_

    after_cancel = monitor.step("cancel")
    assert after_cancel["not_coexistence(get, cancel)"] is TT_
    assert after_cancel["model"] is PF_

    verdicts = monitor.verdicts()
    assert verdicts["model"] is Verdict.NONCOMPLIANT
    assert verdicts["response(pay, get)"] is Verdict.NONCOMPLIANT
    assert verdicts["absence2(pay)"] is Verdict.COMPLIANT
    assert verdicts["not_coexistence(get, cancel)"] is Verdict.COMPLIANT


def test_booking_timeline_rows():
    monitor = ModelMonitor(parse_decl(BOOKING_DECL))
    timeline = monitor.timeline(["pay", "acc", "cancel"])
    assert timeline.columns == ["begin", "pay", "acc", "cancel", "complete"]
    assert dict(timeline.rows) == BOOKING_ROWS
    labels = [label for label, _ in timeline.rows]
    assert labels[-2:] == ["model", "forbidden"]


def test_timeline_replays_its_trace_from_the_start():
    monitor = ModelMonitor(parse_decl(BOOKING_DECL))
    monitor.run(["cancel", "get"])
    timeline = monitor.timeline(["pay", "acc", "cancel"])
    assert timeline.columns == ["begin", "pay", "acc", "cancel", "complete"]
    assert dict(timeline.rows) == BOOKING_ROWS


def test_model_monitor_reset_and_validation():
    monitor = ModelMonitor(parse_decl(BOOKING_DECL))
    monitor.run(["pay"])
    monitor.reset()
    assert monitor.states()["model"] is TT_
    with pytest.raises(ValueError):
        monitor.step("fly")
    assert monitor.run([])["model"] is TT_


def test_an_unknown_task_moves_no_monitor():
    for runner in (
        ModelMonitor(parse_decl(BOOKING_DECL)),
        MetaMonitor(parse_meta(BOOKING_META)),
    ):
        runner.run(["pay", "cancel"])
        before = runner.states()
        for task in ("fly", {"pay"}):
            with pytest.raises(ValueError, match="unknown task"):
                runner.step(task)
            assert runner.states() == before


def test_local_and_global_monitors():
    model = parse_decl(BOOKING_DECL)
    locals_ = local_monitors(model)
    assert set(locals_) == {c.name for c in model.constraints}
    overall = global_monitor(model)
    assert overall.current_rv() is TT_
    overall.step({"cancel"})
    overall.step({"get"})
    assert overall.current_rv() is PF_


# Timeline rendering -----------------------------------------------------


def test_timeline_render_layout():
    timeline = Timeline(columns=["begin", "complete"])
    timeline.add_row("c", ["TT", "PT"])
    assert timeline.render() == (
        "  | begin | complete\n"
        "--+-------+---------\n"
        "c | TT    | PT\n"
    )


def test_timeline_json():
    timeline = Timeline(columns=["begin", "complete"])
    timeline.add_row("c", ["TT", "PT"])
    payload = json.loads(timeline.to_json())
    assert payload == {
        "columns": ["begin", "complete"],
        "rows": [{"label": "c", "cells": ["TT", "PT"]}],
    }


def test_empty_cell_constant():
    assert EMPTY_CELL == "-"


# Meta model files -------------------------------------------------------


def test_parse_meta_reads_the_booking_meta_model():
    model = parse_meta(BOOKING_META)
    assert model.alphabet == Alphabet.tasks(["pay", "acc", "get", "cancel", "return"])
    assert [c.name for c in model.defines] == ["re1", "ncx", "resp", "ret"]
    assert model.shows == ("re1", "ncx")
    kinds = {d.name: d.kind for d in model.directives}
    assert kinds == {
        "ca": "absence-when",
        "cmp": "compensate",
        "cnf": "conflict",
        "prf": "prefer",
    }
    ca = model.directives[0]
    assert ca.task == "get"
    assert ca.state is TF_
    assert ca.targets == ("re1",)
    cmp_ = model.directives[1]
    assert cmp_.reactive
    assert cmp_.targets == ("ncx", "ret")
    with pytest.raises(KeyError):
        model.define("nope")


def test_meta_directive_formulas_reference_rv_atoms():
    model = parse_meta(BOOKING_META)
    cnf = model.directive_formula(model.directives[2])
    assert isinstance(cnf.left, RvAtom)
    assert cnf.left.state is PF_


def test_parse_meta_error_positions():
    cases = [
        ("define x: existence(a)", "tasks line must come first"),
        ("tasks: a\nshow x", "undefined constraint 'x'"),
        ("tasks: a\ndefine x: existence(a)\ndefine x: existence(a)", "duplicate definition"),
        ("tasks: a\ndefine x: existence(a)\nshow x\nshow x", "duplicate show"),
        ("tasks: a\ndefine x: existence(a)\nmeta m: absence b when x = TF", "unknown task"),
        ("tasks: a\ndefine x: existence(a)\nmeta m: absence a when x = XX", "not an RV state"),
        ("tasks: a\ndefine x: existence(a)\nmeta m: frobnicate x", "unrecognized directive"),
        ("tasks: a\ndefine x: existence(a)\nwat", "unrecognized line"),
        ("tasks: a\ndefine x: existence(a)", "nothing to monitor"),
        ("tasks: a\ndefine x: existence(a)\nmeta x: conflict x x", "duplicate name"),
    ]
    for text, needle in cases:
        with pytest.raises(ModelSyntaxError) as err:
            parse_meta(text)
        assert needle in str(err.value), text


# The meta monitor over the booking trace -------------------------------


META_TRACE = ["pay", "acc", "cancel", "get", "return"]

META_ROWS = [
    ("re1", ["TT", "TF", "PT", "PT", "PT", "PT", "PT"]),
    ("ncx", ["TT", "TT", "TT", "TT", "PF", "PF", "PF"]),
    ("ca", ["TT", "TT", "PT", "PT", "PT", "PT", "PT"]),
    ("  forbidden", ["-", "get", "-", "-", "-", "-", "-"]),
    ("cmp", ["TT", "TT", "TT", "TT", "TF", "PT", "PT"]),
    ("cnf", ["TF", "TF", "TF", "TT", "PF", "PF", "PF"]),
    ("  conflict", ["-", "-", "-", "X", "-", "-", "-"]),
    ("prf", ["TT", "TT", "TT", "TT", "PF", "PF", "PF"]),
]


def test_meta_monitor_timeline():
    monitor = MetaMonitor(parse_meta(BOOKING_META))
    timeline = monitor.timeline(META_TRACE)
    assert timeline.columns == ["begin"] + META_TRACE + ["complete"]
    assert timeline.rows == META_ROWS


def test_meta_monitor_stepwise_states():
    monitor = MetaMonitor(parse_meta(BOOKING_META))
    assert monitor.states()["cnf"] is TF_
    monitor.step("pay")
    monitor.step("acc")
    states = monitor.step("cancel")
    # The conflict is visible: the pair is doomed while neither
    # constraint alone is.
    assert states["cnf"] is TT_
    assert states["ncx"] is TT_
    assert states["prf"] is TT_
    states = monitor.step("get")
    assert states["cnf"] is PF_
    assert states["ncx"] is PF_
    assert states["cmp"] is TF_
    states = monitor.step("return")
    assert states["cmp"] is PT_


def test_meta_monitor_run_reset_and_validation():
    monitor = MetaMonitor(parse_meta(BOOKING_META))
    states = monitor.run(META_TRACE)
    assert states["cmp"] is PT_
    monitor.reset()
    assert monitor.states()["cnf"] is TF_
    with pytest.raises(ValueError):
        monitor.step("fly")


# The shipped sample files ----------------------------------------------


def test_sample_files_match_the_inline_models(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    decl = (root / "samples" / "booking.decl").read_text()
    model = parse_decl(decl)
    assert [c.name for c in model.constraints] == [
        c.name for c in parse_decl(BOOKING_DECL).constraints
    ]
    meta = (root / "samples" / "booking.meta").read_text()
    assert parse_meta(meta).shows == ("re1", "ncx")
    trace = (root / "samples" / "booking.trace").read_text()
    tasks = [
        line.strip()
        for line in trace.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    assert tasks == ["pay", "acc", "cancel"]
