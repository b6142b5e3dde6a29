"""The evidence scripts still run on the package they load by path."""
import re
import subprocess
import sys
from pathlib import Path

from ldlmon.declare import KIND_COMPENSATE, KIND_CONFLICT, KIND_PREFER, parse_meta

from table_digests import perfbench_inputs

ROOT = Path(__file__).resolve().parent.parent


def checkout_files() -> dict:
    """Every path of the checkout outside ``.git``, with a file's
    modification time (None for a directory)."""
    return {
        path: path.stat().st_mtime_ns if path.is_file() else None
        for path in ROOT.rglob("*")
        if ".git" not in path.relative_to(ROOT).parts
    }


def test_fold_replay_runs_the_repository_against_itself():
    """``fold_replay.py`` loads ``automata``, ``declare``, ``monitor`` and
    ``syntax`` internals; with both sides this checkout, every recorded
    fold gives the same table, and the run writes nothing.  The recipes
    fold through ``metaconstraints``, so on meta it records at least the
    folds the directives of its inputs make: one per compensate, two per
    conflict and two per prefer."""
    before = checkout_files()
    run = subprocess.run(
        [sys.executable, str(ROOT / "evidence" / "fold_replay.py"), str(ROOT), str(ROOT),
         "--workloads", "decl", "meta", "--seconds", "0.5", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    heads = [line for line in run.stdout.splitlines() if "product_fold calls" in line]
    assert [head.split(",")[0] for head in heads] == ["decl", "meta"], run.stdout
    assert all(head.endswith("tables differ in 0") for head in heads), run.stdout
    assert checkout_files() == before
    folds = {KIND_COMPENSATE: 1, KIND_CONFLICT: 2, KIND_PREFER: 2}
    needed = sum(
        folds.get(d.kind, 0)
        for item in perfbench_inputs().build("meta", 1, 0.5, {}).items
        for d in parse_meta(item.text).directives
    )
    assert int(re.search(r": (\d+) product_fold", heads[1])[1]) >= needed > 0, run.stdout


def test_props_scaling_reports_each_prop_count_and_writes_nothing():
    """``props_scaling.py`` runs one child per prop count; each reports
    the formula's 4-state DFA, and the run writes nothing."""
    before = checkout_files()
    run = subprocess.run(
        [sys.executable, str(ROOT / "evidence" / "props_scaling.py"), "--props", "3", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()[2:]]
    assert [row[:2] for row in rows] == [["3", "4"], ["4", "4"]], run.stdout
    assert all(len(row) == 7 and "-" not in row for row in rows), run.stdout
    assert checkout_files() == before
