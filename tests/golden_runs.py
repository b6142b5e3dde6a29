"""The ``ldlmon`` runs that print the files under ``tests/golden``.

``RUNS`` holds one ``(golden file, argv, stdin)`` entry per golden file,
with paths relative to the repository root; ``tests/test_cli.py`` runs
each through ``cli.main``.  Run as a script after ``pip install .``, this
file runs each through the installed ``ldlmon`` from the repository root,
prints a unified diff for every output that differs from its golden
byte for byte, exits 1 on a difference or a non-zero exit, and writes
no file.
"""
import difflib
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_DECLARE = ["declare", "samples/booking.decl", "--trace", "samples/booking.trace"]
_META = ["meta", "samples/booking.meta", "--trace", "samples/booking-meta.trace"]
# Without colors a DOT node's tooltip is its label: the product pairs of
# a minimal DFA, or the subsets of an unminimized one.
_DOT = ["compile", "<(a;b)*>tt && [true*](a -> <true>b)", "--props", "a,b", "--format", "dot"]
_TASKS = ["--lang", "pattern", "--tasks", "pay,acc,get,cancel"]

RUNS = [
    # The CLI's default format, as the README's first command-line example.
    ("compile_colors_ascii.txt",
     ["compile", "<true*> (a && <true> b)", "--props", "a,b", "--colors"], None),
    ("booking_timeline.txt", _DECLARE, None),
    ("booking_meta_timeline.txt", _META, None),
    ("booking_timeline.json", [*_DECLARE, "--format", "json"], None),
    ("booking_meta_timeline.json", [*_META, "--format", "json"], None),
    ("directives_meta_timeline.txt",
     ["meta", "samples/directives.meta", "--trace", "samples/directives.trace"], None),
    ("next_weaknext_monitor.json",
     ["compile", "X (a -> WX b)", "--lang", "ltlf", "--props", "a,b", "--format", "json",
      "--colors"], None),
    ("tooltips_minimized.dot", _DOT, None),
    ("tooltips_subsets.dot", [*_DOT, "--no-minimize"], None),
    ("ltlf_operators_subsets.dot",
     ["compile", "(a U b) || (b R c) || G (a <-> F c) || (WX a -> X !b)", "--lang", "ltlf",
      "--props", "a,b,c", "--no-minimize", "--format", "dot"], None),
    ("booking_response_monitor.txt",
     ["monitor", "response(pay, get)", *_TASKS, "--trace", "samples/booking.trace"], None),
    ("absence2_repl.txt", ["repl", "absence2(pay)", *_TASKS], "pay\nacc\n"),
    # A formula over 3 of 20 props: its guards name only the 3 it reads.
    ("support_guards_20_props.dot",
     ["compile", "G (p0 -> F p1) && F (p2 && X p1)", "--lang", "ltlf",
      "--props", ",".join(f"p{j}" for j in range(20)), "--format", "dot"], None),
]


def main() -> int:
    failed = 0
    for name, argv, stdin in RUNS:
        run = subprocess.run(
            ["ldlmon", *argv], cwd=ROOT, input=(stdin or "").encode(), capture_output=True
        )
        golden = (GOLDEN / name).read_bytes()
        if run.returncode != 0:
            print(f"{name}: ldlmon exited {run.returncode}", file=sys.stderr)
            sys.stderr.write(run.stderr.decode(errors="replace"))
            failed += 1
        elif run.stdout != golden:
            sys.stderr.writelines(difflib.unified_diff(
                golden.decode(errors="replace").splitlines(keepends=True),
                run.stdout.decode(errors="replace").splitlines(keepends=True),
                f"tests/golden/{name}",
                shlex.join(["ldlmon", *argv]),
            ))
            failed += 1
    print(f"{len(RUNS) - failed} of {len(RUNS)} goldens reproduced", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
