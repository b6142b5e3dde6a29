"""End-to-end checks of the ``ldlmon`` command line driver."""
import json
import random

import pytest

from ldlmon import cli
from ldlmon.automata import color_minimal
from ldlmon.cli import build_parser, main
from ldlmon.rv import RVState
from ldlmon.syntax import print_ldlf, print_ltlf, print_path

from golden_runs import GOLDEN, ROOT, RUNS
from reference_json import aut_from_json
from reference_pipeline import reference_colors
from genformulas import random_ldlf, random_ltlf, random_path


def run_cli(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# compile ---------------------------------------------------------------


def test_compile_ascii_lists_states(capsys):
    code, out, err = run_cli(
        ["compile", "<true*> a", "--colors"], capsys
    )
    assert code == 0
    assert err == ""
    assert out == (
        "states: 2  initial: 0\n"
        "state 0  (temp_false)\n"
        "  !a -> 0\n"
        "  a -> 1\n"
        "state 1  (accepting, perm_true)\n"
        "  true -> 1\n"
    )


def test_compile_json_roundtrips(capsys):
    code, out, _ = run_cli(
        ["compile", "[true*](a -> <true><true>tt)", "--format", "json",
         "--colors"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_states"] == len(payload["colors"])
    names = {state.value for state in RVState}
    assert all(value in names for value in payload["colors"])


def test_compile_dot_mentions_colors(capsys):
    code, out, _ = run_cli(
        ["compile", "<true*> a", "--format", "dot", "--colors"], capsys
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out


def test_compile_ltlf_and_pattern_languages(capsys):
    code, out_ltlf, _ = run_cli(
        ["compile", "F a", "--lang", "ltlf", "--props", "a", "--format", "json"],
        capsys,
    )
    assert code == 0
    code, out_ldlf, _ = run_cli(
        ["compile", "<true*> a", "--props", "a", "--format", "json"], capsys
    )
    assert code == 0
    assert out_ltlf == out_ldlf
    code, out_pat, _ = run_cli(
        ["compile", "existence(a)", "--lang", "pattern", "--format", "json"],
        capsys,
    )
    assert code == 0
    aut, _ = aut_from_json(out_pat)
    # Task alphabets induce singleton letters only.
    assert aut.alphabet.singleton_letters
    assert aut.alphabet.letters() == (frozenset({"a"}),)


def test_pattern_with_a_repeated_task_infers_the_distinct_tasks(capsys):
    """Without --tasks a pattern call's alphabet is its distinct tasks in
    first-use order, as a .decl model reads ``response(a, a)``."""
    call = ["compile", "response(a, a)", "--lang", "pattern"]
    for fmt in ("ascii", "json"):
        inferred = run_cli([*call, "--format", fmt], capsys)
        given = run_cli([*call, "--tasks", "a", "--format", fmt], capsys)
        assert inferred == given
        assert inferred[0] == 0
    code, out, _ = run_cli(
        ["compile", "response(b, a)", "--lang", "pattern", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["props"] == ["b", "a"]


def test_compile_re_lang(capsys):
    code, out, _ = run_cli(
        ["compile", "a; b", "--lang", "re", "--props", "a,b", "--format", "json"],
        capsys,
    )
    assert code == 0
    aut, _ = aut_from_json(out)
    assert len(aut.alphabet.letters()) == 4


def test_compile_no_minimize_keeps_more_states(capsys):
    formula = "<true*> (a && <true> b)"
    code, raw, _ = run_cli(
        ["compile", formula, "--props", "a,b", "--no-minimize", "--format", "json"],
        capsys,
    )
    assert code == 0
    code, small, _ = run_cli(
        ["compile", formula, "--props", "a,b", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(raw)["n_states"] >= json.loads(small)["n_states"]


def test_compile_no_minimize_colors_the_subset_dfa_by_its_closures(capsys):
    """The subset DFA is not minimal: one of its two permanently
    satisfied states is not absorbing, so only the backward walks of
    ``color`` color it right."""
    code, out, _ = run_cli(
        ["compile", "<true*> (a && <true> b)", "--props", "a,b", "--no-minimize",
         "--format", "json", "--colors"],
        capsys,
    )
    assert code == 0
    dfa, colors = aut_from_json(out)
    assert tuple(RVState(value) for value in colors) == reference_colors(dfa)
    assert colors.count("perm_true") == 2
    assert color_minimal(dfa).colors != reference_colors(dfa)


def test_compile_out_writes_file(tmp_path, capsys):
    target = tmp_path / "aut.json"
    code, out, _ = run_cli(
        ["compile", "<a>tt", "--format", "json", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["n_states"] >= 2


# monitor ---------------------------------------------------------------


def test_monitor_ascii_output(tmp_path, capsys):
    trace = write(tmp_path / "t.trace", "a\nb\n")
    code, out, _ = run_cli(
        [
            "monitor",
            "existence(b)",
            "--lang",
            "pattern",
            "--tasks",
            "a,b",
            "--trace",
            trace,
        ],
        capsys,
    )
    assert code == 0
    assert out == (
        "begin temp_false\n"
        "1 a temp_false\n"
        "2 b perm_true\n"
        "final: compliant\n"
    )


def test_monitor_json_output(tmp_path, capsys):
    trace = write(tmp_path / "t.trace", '["a"]\n[]\n')
    code, out, _ = run_cli(
        [
            "monitor",
            "[true*](a -> <true> b)",
            "--props",
            "a,b",
            "--trace",
            trace,
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["begin"] == "temp_true"
    assert payload["steps"] == [
        {"event": ["a"], "state": "temp_false"},
        {"event": [], "state": "perm_false"},
    ]
    assert payload["final"] == "noncompliant"


def test_monitor_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["monitor", "<true*> a", "--props", "a", "--trace", "-"],
        capsys,
        stdin='["a"]\n',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "perm_true" in out
    assert out.endswith("final: compliant\n")


def test_monitor_and_repl_take_a_regular_expression(capsys, monkeypatch):
    code, out, err = run_cli(
        ["monitor", "pay;get", "--lang", "re", "--tasks", "pay,get", "--trace", "-"],
        capsys,
        stdin="pay\nget\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0, err
    assert out.endswith("final: compliant\n")
    code, out, err = run_cli(
        ["repl", "pay;get", "--lang", "re", "--tasks", "pay,get"],
        capsys,
        stdin="pay\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0, err
    assert out.endswith("final: noncompliant\n")


def test_monitor_trace_comments_and_quoting(tmp_path, capsys):
    trace = write(
        tmp_path / "t.trace", '# setup\n\n"a"\n  b  \n'
    )
    code, out, _ = run_cli(
        ["monitor", "existence(b)", "--lang", "pattern", "--tasks", "a,b",
         "--trace", trace],
        capsys,
    )
    assert code == 0
    assert "1 a temp_false" in out
    assert "2 b perm_true" in out


# declare / meta --------------------------------------------------------


def test_declare_runs_the_sample_model(capsys):
    code, out, err = run_cli(
        ["declare", "samples/booking.decl", "--trace", "samples/booking.trace"],
        capsys,
    )
    assert code == 0, err
    assert out.splitlines()[0].endswith("complete")
    assert "model" in out
    assert "forbidden" in out
    assert out.endswith("\n")


def test_declare_json_format(tmp_path, capsys):
    model = write(
        tmp_path / "m.decl", "tasks: a, b\nexistence(b)\n"
    )
    trace = write(tmp_path / "t.trace", "a\nb\n")
    code, out, _ = run_cli(
        ["declare", model, "--trace", trace, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "begin"
    assert payload["columns"][-1] == "complete"
    rows = {row["label"]: row["cells"] for row in payload["rows"]}
    assert rows["existence(b)"] == ["TF", "TF", "PT", "PT"]


@pytest.mark.parametrize("name, argv, stdin", RUNS, ids=[run[0] for run in RUNS])
def test_cli_runs_reproduce_their_goldens(name, argv, stdin, capsys, monkeypatch):
    # Each file under tests/golden has exactly one run in RUNS.
    assert sorted(run[0] for run in RUNS) == sorted(path.name for path in GOLDEN.iterdir())
    monkeypatch.chdir(ROOT)
    code, out, err = run_cli(argv, capsys, stdin, monkeypatch)
    assert code == 0, err
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")


def test_booking_in_ltl_monitors_like_the_pattern_calls():
    """``booking-ltl.decl`` writes ``booking.decl``'s five constraints as
    labelled ``ltl:`` lines: their rows match cell for cell."""

    def rows(name):
        lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()[2:]
        return [[cell.strip() for cell in line.split("|")[1:]] for line in lines]

    assert rows("booking_ltl_timeline.txt")[:5] == rows("booking_timeline.txt")[:5]


def test_meta_runs_the_sample_model(capsys):
    code, out, err = run_cli(
        ["meta", "samples/booking.meta", "--trace", "samples/booking-meta.trace"],
        capsys,
    )
    assert code == 0, err
    assert "  conflict" in out
    assert "X" in out


def test_meta_monitors_a_deep_define_like_its_short_form(tmp_path, capsys):
    """A define of 500 conjuncts referred to by two directives is
    monitored like the one-conjunct define it is equivalent to."""
    trace = write(tmp_path / "t.trace", "a\nr\n")

    def run_meta(body):
        model = write(
            tmp_path / "m.meta",
            f"tasks: a, r\n\ndefine big: ltl: {body}\ndefine r: ltl: F r\n\n"
            "meta x: conflict big r\nmeta y: compensate big with r\n",
        )
        return run_cli(["meta", model, "--trace", trace], capsys)

    code, out, err = run_meta(" && ".join(["F a"] * 500))
    assert code == 0, err
    assert (code, out, err) == run_meta("F a")


# repl ------------------------------------------------------------------


def test_repl_streams_states(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["repl", "existence(b)", "--lang", "pattern", "--tasks", "a,b"],
        capsys,
        stdin="a\nb\n:end\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "begin temp_false"
    assert lines[1].startswith("one event per line")
    assert lines[2] == "temp_false"
    assert lines[3] == "perm_true"
    assert lines[4] == "final: compliant"


def test_repl_reports_forbidden_events(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["repl", "absence(a)", "--lang", "pattern", "--tasks", "a,b"],
        capsys,
        stdin="b\n:end\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "(next must avoid: a)" in out


def test_repl_recovers_from_bad_event(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["repl", "existence(a)", "--lang", "pattern", "--tasks", "a"],
        capsys,
        stdin="zap\na\n:end\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "error:" in out
    assert "final: compliant" in out


def test_repl_ends_without_end_marker(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["repl", "existence(a)", "--lang", "pattern", "--tasks", "a"],
        capsys,
        stdin="",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.endswith("final: noncompliant\n")


# errors ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "<a tt"],
        ["compile", "true"],
        ["compile", "nope(a)", "--lang", "pattern"],
        ["compile", "existence(a, b)", "--lang", "pattern"],
        ["compile", "existence(a)", "--lang", "pattern", "--tasks", "b"],
        ["compile", "<a>tt", "--tasks", "a", "--props", "b"],
        ["compile", "<p0>tt", "--props", ",".join(f"p{j}" for j in range(25)), "--format", "json"],
        ["monitor", "<a>tt", "--trace", "/no/such/file"],
        ["declare", "/no/such/model.decl", "--trace", "-"],
        ["compile"],
        ["compile", "<a>tt", "--format", "yaml"],
        ["frobnicate"],
        ["compile", "response(pay,, get)", "--lang", "pattern"],
        ["compile", "absence2(,pay)", "--lang", "pattern", "--tasks", "pay"],
        ["compile", "existence(a)", "--lang", "pattern", "--tasks", "a,,b"],
        ["compile", "<a>tt", "--props", "a,,b"],
        ["compile", "<a>tt", "--props", "a, b,"],
        ["meta", "/no/such/model.meta", "--trace", "-"],
        ["compile", "<a>tt", "--out", "/no/such/dir/aut.txt"],
        ["compile", "<a>tt", "--tasks", ""],
        ["compile", "<a>tt", "--props", ""],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err != ""


def test_a_monitor_over_25_props_exits_one(tmp_path, capsys):
    """A monitor's event map lists every letter of the alphabet, so
    ``<p0>tt`` over 25 props is refused, with the ``MAX_PROPS`` message,
    before its one-line trace is read."""
    trace = write(tmp_path / "t.trace", '["p0", "p24"]\n')
    props = ",".join(f"p{j}" for j in range(25))
    code, out, err = run_cli(["monitor", "<p0>tt", "--props", props, "--trace", trace], capsys)
    assert (code, out) == (1, "")
    assert "at most 20 props are supported" in err


@pytest.mark.parametrize(
    "formula, lang",
    [
        (" ".join(["X"] * 5000 + ["a"]), "ltlf"),
        ("(" * 2000 + "a" + ")" * 2000, "ltlf"),
        ("!" * 3000 + "a", "ltlf"),
        ("<a>" * 1500 + "tt", "ldlf"),
        ("<" + "(a;" * 400 + "a" + ")" * 400 + ">tt", "ldlf"),
    ],
    ids=["next-5000", "parens-2000", "not-3000", "diamond-1500", "nested-seq-400"],
)
def test_deeply_nested_formulas_exit_one(formula, lang, capsys):
    code, _, err = run_cli(["compile", formula, "--lang", lang], capsys)
    assert code == 1
    assert "nested too deeply" in err
    assert "internal error" not in err


def test_a_broken_invariant_exits_two(capsys, monkeypatch):
    """A ``KeyError`` is no input error: it reaches ``main`` only when an
    invariant broke, and exits 2."""

    def broken(args):
        raise KeyError("no such state")

    monkeypatch.setattr(cli, "_cmd_compile", broken)
    code, out, err = run_cli(["compile", "<a>tt"], capsys)
    assert code == 2
    assert out == ""
    assert "internal error" in err


def _guard_only_regex(rng, names):
    """A regular expression of steps, choices, sequences and stars: a
    drawn path with no test (a test prints as ``...?``)."""
    while True:
        text = print_path(random_path(rng, names, 3, 1))
        if "?" not in text:
            return text


def test_generated_valid_input_exits_zero(tmp_path, capsys):
    """Seeded formulas in each language, over props and over tasks,
    through ``compile`` in every format and option and through
    ``monitor``: valid input never exits with status 2, nor 1."""
    rng = random.Random(4401)
    alphabets = [
        ("--props", ["a", "b", "c"], ("ascii", "dot", "json")),
        ("--tasks", ["a", "b", "c"], ("ascii", "dot", "json")),
        # Formulas over a, b and c printed over 12 props: the ascii and
        # dot guards read the rows over the support.
        ("--props", ["a", "b", "c", *(f"u{j}" for j in range(9))], ("ascii", "dot")),
    ]
    runs = 0
    for index, (flag, names, formats) in enumerate(alphabets):
        if flag == "--tasks":
            events = [rng.choice(names) for _ in range(5)]
        else:
            events = [json.dumps(sorted(rng.sample(names, rng.randint(0, 2)))) for _ in range(5)]
        trace = write(tmp_path / f"trace{index}.txt", "\n".join(events) + "\n")
        for _ in range(6):
            inputs = [
                (print_ldlf(random_ldlf(rng, names[:3])), "ldlf"),
                (print_ltlf(random_ltlf(rng, names[:3], depth=3)), "ltlf"),
                (_guard_only_regex(rng, names[:3]), "re"),
            ]
            for text, lang in inputs:
                common = [text, "--lang", lang, flag, ",".join(names)]
                argvs = [
                    ["compile", *common, "--format", fmt, *colors, *minimize]
                    for fmt in formats
                    for colors in ([], ["--colors"])
                    for minimize in ([], ["--no-minimize"])
                ]
                argvs += [["monitor", *common, "--trace", trace, "--format", fmt]
                          for fmt in ("ascii", "json")]
                for argv in argvs:
                    code, out, err = run_cli(argv, capsys)
                    assert (code, err) == (0, ""), argv
                    assert out
                    runs += 1
    assert runs == 2 * 6 * 3 * 14 + 6 * 3 * 10


def test_flat_seq_path_compiles(capsys):
    """A 400-step ``;`` path nests only as deep as it is written."""
    code, _, err = run_cli(["compile", "<" + ";".join(["a"] * 400) + ">tt"], capsys)
    assert code == 0, err


def test_long_ltlf_conjunction_compiles_like_its_ldlf_form(capsys):
    formula = " && ".join(["a"] * 2000)
    code, out, err = run_cli(["compile", formula, "--lang", "ltlf"], capsys)
    assert code == 0, err
    assert run_cli(["compile", formula, "--lang", "ldlf"], capsys) == (0, out, "")


def test_bad_trace_line_is_located(tmp_path, capsys):
    cases = [
        ('a\n["a", 3]\n', "trace line 2: expected a list of names"),
        ('["a"\n', "trace line 1: Expecting ',' delimiter"),
    ]
    for text, message in cases:
        trace = write(tmp_path / "t.trace", text)
        code, _, err = run_cli(
            ["monitor", "existence(a)", "--lang", "pattern", "--tasks", "a",
             "--trace", trace],
            capsys,
        )
        assert code == 1
        assert message in err, text


def test_unknown_event_is_located(tmp_path, capsys):
    trace = write(tmp_path / "t.trace", "a\nzap\n")
    code, _, err = run_cli(
        ["monitor", "existence(a)", "--lang", "pattern", "--tasks", "a",
         "--trace", trace],
        capsys,
    )
    assert code == 1
    assert "trace line 2" in err


def test_trace_lines_may_end_in_a_comment(tmp_path, capsys, monkeypatch):
    model = write(tmp_path / "m.decl", "tasks: pay, get\nresponse(pay, get)\n")
    plain = write(tmp_path / "plain.trace", "pay\nget\n")
    commented = 'pay  # paid\n\n  # nothing here\n"get"# quoted\n'
    expected = run_cli(["declare", model, "--trace", plain], capsys)
    assert expected[0] == 0
    trace = write(tmp_path / "t.trace", commented)
    assert run_cli(["declare", model, "--trace", trace], capsys) == expected
    piped = run_cli(["declare", model, "--trace", "-"], capsys, commented, monkeypatch)
    assert piped == expected
    code, out, _ = run_cli(
        ["repl", "response(pay, get)", "--lang", "pattern", "--tasks", "pay,get"],
        capsys,
        stdin=commented + ":end  # done\npay\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.splitlines()[2:] == ["temp_false", "temp_true", "final: compliant"]


def test_model_errors_carry_line_numbers(tmp_path, capsys):
    model = write(tmp_path / "m.decl", "tasks: a\nexistence(zap)\n")
    code, _, err = run_cli(["declare", model, "--trace", "-"], capsys)
    assert code == 1
    assert "line 2" in err


def test_parser_object_is_reusable():
    parser = build_parser()
    args = parser.parse_args(["compile", "<a>tt", "--format", "json"])
    assert args.command == "compile"
    assert args.run.__name__ == "_cmd_compile"
