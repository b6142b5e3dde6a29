"""The acceptance suite: ten criteria, one test and one report line each.

Every criterion first gathers its evidence, then records a PASS/FAIL
line through the ``acceptance_report`` fixture (shown in the terminal
summary), and only then asserts.  Expected automata, tables, and
regular expressions are written out by hand; the golden files under
``tests/golden`` hold the byte-exact renderings the tooling must keep
producing.
"""
import random
import time
from pathlib import Path

from ldlmon.automata import (
    Dfa,
    aut_to_json,
    determinize,
    ldlf_to_nfa,
)
from ldlmon.declare import (
    MetaMonitor,
    ModelMonitor,
    Verdict,
    absence,
    absence2,
    choice,
    existence,
    not_coexistence,
    parse_decl,
    parse_meta,
    precedence,
    responded_existence,
    response,
)
from ldlmon.metaconstraints import conflict, expand
from ldlmon.monitor import (
    ColoredDfa,
    monitor_automaton,
    rv_formula,
    shape_equivalent,
)
from ldlmon.regexfold import automaton_to_regex, pref_regex, regex_for_rv
from ldlmon.rv import RVState
from ldlmon.semantics import eval_ldlf, eval_ltlf
from ldlmon.syntax import Alphabet, And, Diamond, END, parse_ltlf, parse_re
from ldlmon.syntax.transforms import ltlf_to_ldlf

from genformulas import (
    all_traces,
    column_of,
    column_rows,
    random_dfa,
    random_ldlf,
    random_ltlf,
    random_nnf_ldlf,
)
from oracles import accepts, colored_isomorphic, language_equal, monolithic_dfa, rv_family
from reference_json import aut_from_json
from reference_product import tuple_product

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

PROPS2 = Alphabet.of("a", "b")
TASKS_ABO = Alphabet.tasks(["a", "b", "o"])
BOOKING5 = Alphabet.tasks(["pay", "acc", "get", "cancel", "return"])

WORKED_FORMULA = "X (a -> WX b)"

L_A, L_B, L_O = (frozenset({name}) for name in ("a", "b", "o"))


def hand_monitor(rows, finals, colors) -> ColoredDfa:
    """A colored automaton written out state by state, for comparing
    against compiled ones."""
    return ColoredDfa(
        Dfa(
            alphabet=TASKS_ABO,
            n_states=len(rows),
            initial=0,
            transitions=column_rows(
                TASKS_ABO, {state: dict(row) for state, row in enumerate(rows)}
            ),
            finals=frozenset(finals),
        ),
        tuple(RVState.parse(code) for code in colors),
    )


def walk_color(colored: ColoredDfa, trace) -> RVState:
    state = colored.dfa.initial
    for event in trace:
        state = colored.dfa.transitions[state][column_of(colored.dfa, event)]
    return colored.colors[state]


# Criterion 1 -----------------------------------------------------------


def test_criterion_01_compiled_automata_match_direct_evaluation(
    acceptance_report,
):
    rng = random.Random(20260801)
    traces = list(all_traces(PROPS2, 4))
    failures = []
    start = time.monotonic()
    for index in range(1000):
        formula = random_nnf_ldlf(rng, ["a", "b"], depth=4, star_depth=2)
        dfa = determinize(ldlf_to_nfa(formula, PROPS2))
        for trace in traces:
            if accepts(dfa, trace) != eval_ldlf(trace, 0, formula):
                failures.append((index, trace))
                break
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    acceptance_report(
        1,
        "compilation matches direct evaluation (1000 formulas, traces <= 4)",
        ok,
        f" [{elapsed:.1f}s]",
    )
    assert not failures, failures[:5]
    assert elapsed < 120.0


# Criterion 2 -----------------------------------------------------------


def test_criterion_02_ltlf_translation_preserves_evaluation(
    acceptance_report,
):
    rng = random.Random(20260802)
    traces = list(all_traces(PROPS2, 4))
    failures = []
    for index in range(500):
        formula = random_ltlf(rng, ["a", "b"], depth=4)
        translated = ltlf_to_ldlf(formula)
        for trace in traces:
            if eval_ltlf(trace, 0, formula) != eval_ldlf(
                trace, 0, translated
            ):
                failures.append((index, trace))
                break
    ok = not failures
    acceptance_report(
        2, "translation preserves evaluation (500 formulas)", ok
    )
    assert not failures, failures[:5]


# Criterion 3 -----------------------------------------------------------


def test_criterion_03_worked_monitor_matches_golden(acceptance_report):
    formula = ltlf_to_ldlf(parse_ltlf(WORKED_FORMULA, PROPS2))
    compiled = monitor_automaton(formula, PROPS2)
    text = (GOLDEN / "next_weaknext_monitor.json").read_text(encoding="utf-8")
    golden_aut, golden_colors = aut_from_json(text)
    golden = ColoredDfa(
        golden_aut, tuple(RVState.parse(value) for value in golden_colors)
    )
    checks = {
        "five states": compiled.dfa.n_states == 5,
        "color multiset": sorted(state.code for state in compiled.colors)
        == ["PF", "PT", "TF", "TF", "TT"],
        "isomorphic to golden": colored_isomorphic(compiled, golden),
    }
    ok = all(checks.values())
    acceptance_report(3, "worked monitor matches the committed golden", ok)
    assert ok, checks


def test_worked_monitor_serialization_is_stable():
    # Not a criterion by itself: the golden bytes pin the deterministic
    # state numbering as well.
    formula = ltlf_to_ldlf(parse_ltlf(WORKED_FORMULA, PROPS2))
    compiled = monitor_automaton(formula, PROPS2)
    text = (GOLDEN / "next_weaknext_monitor.json").read_text(encoding="utf-8")
    assert aut_to_json(compiled.dfa, compiled.colors) == text


# Criterion 4 -----------------------------------------------------------

CATALOG_TABLE = [
    (
        "existence(a)",
        existence("a"),
        hand_monitor(
            [{L_A: 1, L_B: 0, L_O: 0}, {L_A: 1, L_B: 1, L_O: 1}],
            {1},
            ("TF", "PT"),
        ),
        "true*",
    ),
    (
        "absence(a)",
        absence("a"),
        hand_monitor(
            [{L_A: 1, L_B: 0, L_O: 0}, {L_A: 1, L_B: 1, L_O: 1}],
            {0},
            ("TT", "PF"),
        ),
        "(!a)*",
    ),
    (
        "absence2(a)",
        absence2("a"),
        hand_monitor(
            [
                {L_A: 1, L_B: 0, L_O: 0},
                {L_A: 2, L_B: 1, L_O: 1},
                {L_A: 2, L_B: 2, L_O: 2},
            ],
            {0, 1},
            ("TT", "TT", "PF"),
        ),
        "(!a)* + (!a)*; a; (!a)*",
    ),
    (
        "choice(a, b)",
        choice("a", "b"),
        hand_monitor(
            [{L_A: 1, L_B: 1, L_O: 0}, {L_A: 1, L_B: 1, L_O: 1}],
            {1},
            ("TF", "PT"),
        ),
        "true*",
    ),
    (
        "responded_existence(a, b)",
        responded_existence("a", "b"),
        hand_monitor(
            [
                {L_A: 1, L_B: 2, L_O: 0},
                {L_A: 1, L_B: 2, L_O: 1},
                {L_A: 2, L_B: 2, L_O: 2},
            ],
            {0, 2},
            ("TT", "TF", "PT"),
        ),
        "true*",
    ),
    (
        "response(a, b)",
        response("a", "b"),
        hand_monitor(
            [{L_A: 1, L_B: 0, L_O: 0}, {L_A: 1, L_B: 0, L_O: 1}],
            {0},
            ("TT", "TF"),
        ),
        "true*",
    ),
    (
        "precedence(a, b)",
        precedence("a", "b"),
        hand_monitor(
            [
                {L_A: 1, L_B: 2, L_O: 0},
                {L_A: 1, L_B: 1, L_O: 1},
                {L_A: 2, L_B: 2, L_O: 2},
            ],
            {0, 1},
            ("TT", "PT", "PF"),
        ),
        "(!a && !b)* + (!a && !b)*; a; true*",
    ),
    (
        "not_coexistence(a, b)",
        not_coexistence("a", "b"),
        hand_monitor(
            [
                {L_A: 1, L_B: 2, L_O: 0},
                {L_A: 1, L_B: 3, L_O: 1},
                {L_A: 3, L_B: 2, L_O: 2},
                {L_A: 3, L_B: 3, L_O: 3},
            ],
            {0, 1, 2},
            ("TT", "TT", "TT", "PF"),
        ),
        "(!a)* + (!b)*",
    ),
]


def test_criterion_04_catalog_matches_hand_tables(acceptance_report):
    failures = []
    for name, pattern, hand, pref_text in CATALOG_TABLE:
        formula = ltlf_to_ldlf(pattern)
        compiled = monitor_automaton(formula, TASKS_ABO)
        if not colored_isomorphic(compiled, hand):
            failures.append((name, "automaton"))
        want = monolithic_dfa(
            Diamond(parse_re(pref_text, TASKS_ABO), END), TASKS_ABO
        )
        via_closure = monolithic_dfa(
            Diamond(pref_regex(formula, TASKS_ABO), END), TASKS_ABO
        )
        if not language_equal(via_closure, want):
            failures.append((name, "prefix closure regex"))
        alive = (RVState.TEMP_TRUE, RVState.TEMP_FALSE, RVState.PERM_TRUE)
        pieces = [
            monolithic_dfa(
                Diamond(regex_for_rv(formula, state, TASKS_ABO), END),
                TASKS_ABO,
            )
            for state in alive
        ]
        union = pieces[0]
        for piece in pieces[1:]:
            union = tuple_product((union, piece), disjunction=True)[0]
        if not language_equal(union, want):
            failures.append((name, "state-language union"))
    ok = not failures
    acceptance_report(
        4, "catalog monitors and prefix regexes match hand tables", ok
    )
    assert not failures, failures


# Criterion 5 -----------------------------------------------------------

BOOKING_ROWS = {
    "absence2(pay)": ["TT", "TT", "TT", "TT", "PT"],
    "responded_existence(pay, acc)": ["TT", "TF", "PT", "PT", "PT"],
    "precedence(pay, get)": ["TT", "PT", "PT", "PT", "PT"],
    "response(pay, get)": ["TT", "TF", "TF", "TF", "PF"],
    "not_coexistence(get, cancel)": ["TT", "TT", "TT", "TT", "PT"],
    "model": ["TT", "TF", "TF", "PF", "PF"],
    "forbidden": ["get", "pay", "pay", "-", "-"],
}


def test_criterion_05_booking_timeline_matches_golden(acceptance_report):
    model = parse_decl(
        (ROOT / "samples" / "booking.decl").read_text(encoding="utf-8")
    )
    runner = ModelMonitor(model)
    timeline = runner.timeline(["pay", "acc", "cancel"])
    golden = (GOLDEN / "booking_timeline.txt").read_text(encoding="utf-8")
    verdicts = runner.verdicts()
    checks = {
        "columns": timeline.columns
        == ["begin", "pay", "acc", "cancel", "complete"],
        "rows": dict(timeline.rows) == BOOKING_ROWS,
        "bytes": timeline.render() == golden,
        "response verdict": verdicts["response(pay, get)"]
        is Verdict.NONCOMPLIANT,
        "absence2 verdict": verdicts["absence2(pay)"] is Verdict.COMPLIANT,
        "not_coexistence verdict": verdicts["not_coexistence(get, cancel)"]
        is Verdict.COMPLIANT,
        "model verdict": verdicts["model"] is Verdict.NONCOMPLIANT,
    }
    ok = all(checks.values())
    acceptance_report(5, "booking run reproduces its golden table", ok)
    assert ok, checks


# Criterion 6 -----------------------------------------------------------

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


def test_criterion_06_meta_timeline_matches_golden(acceptance_report):
    model = parse_meta(
        (ROOT / "samples" / "booking.meta").read_text(encoding="utf-8")
    )
    timeline = MetaMonitor(model).timeline(
        ["pay", "acc", "cancel", "get", "return"]
    )
    golden = (GOLDEN / "booking_meta_timeline.txt").read_text(
        encoding="utf-8"
    )
    rows = dict(timeline.rows)
    checks = {
        "rows": timeline.rows == META_ROWS,
        "bytes": timeline.render() == golden,
        "conflict flagged at the third event": rows["  conflict"][3] == "X",
        "compensation settles at the fifth event": rows["cmp"][5] == "PT",
    }
    ok = all(checks.values())
    acceptance_report(
        6, "state-directed constraints reproduce their golden table", ok
    )
    assert ok, checks


# Criterion 7 -----------------------------------------------------------


def test_criterion_07_state_languages_partition_all_traces(
    acceptance_report,
):
    rng = random.Random(20260807)
    traces = list(all_traces(PROPS2, 4))
    failures = []
    for index in range(200):
        formula = random_ldlf(rng, ["a", "b"], depth=3, star_depth=1)
        colored = monitor_automaton(formula, PROPS2)
        state_dfas = {
            state: monolithic_dfa(
                rv_formula(formula, state, PROPS2), PROPS2
            )
            for state in RVState
        }
        for trace in traces:
            hits = [
                state
                for state, dfa in state_dfas.items()
                if accepts(dfa, trace)
            ]
            visited = walk_color(colored, trace)
            if len(hits) != 1 or hits[0] is not visited:
                failures.append((index, trace, hits, visited))
                break
    ok = not failures
    acceptance_report(
        7, "the four state languages partition every trace (200 formulas)", ok
    )
    assert not failures, failures[:5]


# Criterion 8 -----------------------------------------------------------


def test_criterion_08_regex_extraction_roundtrips(acceptance_report):
    rng = random.Random(20260808)
    failures = []
    for index in range(200):
        dfa = random_dfa(rng, PROPS2, max_states=8)
        rho = automaton_to_regex(dfa)
        back = monolithic_dfa(Diamond(rho, END), PROPS2)
        if not language_equal(back, dfa):
            failures.append(index)
    ok = not failures
    acceptance_report(
        8, "extracted regexes have the automaton's language (200 automata)",
        ok,
    )
    assert not failures, failures[:5]


# Criterion 9 -----------------------------------------------------------


def test_criterion_09_shape_bijections_identity_and_products(
    acceptance_report,
):
    failures = []
    subjects = [
        ("worked", ltlf_to_ldlf(parse_ltlf(WORKED_FORMULA, PROPS2)), PROPS2)
    ]
    subjects += [
        (name, ltlf_to_ldlf(pattern), TASKS_ABO)
        for name, pattern, _, _ in CATALOG_TABLE
    ]
    for name, formula, alphabet in subjects:
        family = list(rv_family(formula, alphabet).values())
        identity = {s: s for s in range(family[0].n_states)}
        for left in family:
            for right in family:
                if shape_equivalent(left, right) != identity:
                    failures.append((name, "identity bijection"))
    rng = random.Random(20260809)
    for trial in range(50):
        first = random_ldlf(rng, ["a", "b"], depth=2, star_depth=1)
        second = random_ldlf(rng, ["a", "b"], depth=2, star_depth=1)
        fam1 = rv_family(first, PROPS2)
        fam2 = rv_family(second, PROPS2)
        both, both_pairs = tuple_product((fam1["formula"], fam2["formula"]))
        negs, negs_pairs = tuple_product((fam1["negation"], fam2["negation"]))
        if both_pairs != negs_pairs:
            failures.append((trial, "pair tables differ"))
            continue
        constructed = {
            index: negs_pairs.index(pair)
            for index, pair in enumerate(both_pairs)
        }
        if shape_equivalent(both, negs) != constructed:
            failures.append((trial, "product bijection"))
        if not language_equal(
            both, monolithic_dfa(And(first, second), PROPS2)
        ):
            failures.append((trial, "conjunction language"))
    ok = not failures
    acceptance_report(
        9, "shape bijections are the identity and survive products", ok
    )
    assert not failures, failures[:5]


# Criterion 10 ----------------------------------------------------------


def test_criterion_10_conflict_monitor_never_permanently_true(
    acceptance_report,
):
    resp = ltlf_to_ldlf(response("pay", "get"))
    ncx = ltlf_to_ldlf(not_coexistence("get", "cancel"))
    lowered = expand(conflict(resp, ncx), BOOKING5)
    colored = monitor_automaton(lowered, BOOKING5)
    ok = RVState.PERM_TRUE not in colored.colors
    acceptance_report(
        10, "conflict monitor has no permanently satisfied state", ok
    )
    assert ok, colored.colors
