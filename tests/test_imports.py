"""The package's import graph is the one its module headers show."""
import ast
import subprocess
import sys
from pathlib import Path

import ldlmon
from ldlmon import automata, monitor, regexfold


def test_no_import_inside_a_function():
    root = Path(ldlmon.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.relative_to(root)}:{n.lineno}"
                    for n in ast.walk(scope)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_coloring_lives_in_automata_and_stays_importable_from_monitor():
    assert monitor.color is automata.color
    assert monitor.ColoredDfa is automata.ColoredDfa
    assert not hasattr(regexfold, "prefix_regex")


def test_automata_knows_no_rv_node():
    """The construction compiles plain LDLf: from ``rv`` it imports only
    the four states, and no path node stands for an automaton."""
    root = Path(ldlmon.__file__).parent
    tree = ast.parse((root / "automata.py").read_text(encoding="utf-8"))
    from_rv = [
        alias.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "rv" and n.level == 1
        for alias in n.names
    ]
    assert from_rv == ["RVState"]
    ldl_tree = ast.parse((root / "syntax" / "ldl.py").read_text(encoding="utf-8"))
    classes = {n.name for n in ast.walk(ldl_tree) if isinstance(n, ast.ClassDef)}
    assert "AutomatonPath" not in classes


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """Both cost start-up that a one-shot run pays for nothing: the
    records are plain classes and named tuples."""
    script = "import sys, ldlmon.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    # ``-c`` puts the working directory first on the path: the package's parent.
    run = subprocess.run([sys.executable, "-c", script], cwd=Path(ldlmon.__file__).parent.parent,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def test_the_cli_fills_no_pattern_table_at_import():
    """The pattern table and the catalog's shapes are built on first use,
    so a one-shot run that reads no pattern pays nothing for them."""
    script = "import ldlmon.cli, ldlmon.declare as d; print(len(d._SHAPES), len(d._TEMPLATES))"
    run = subprocess.run([sys.executable, "-c", script], cwd=Path(ldlmon.__file__).parent.parent,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "0 0\n"), run.stderr


def test_references_import_no_kernel_stage():
    """A reference that ran the kernel it checks would agree with it
    whatever the kernel did: from ``automata`` the ``tests/reference_*``
    modules take the two records and nothing else."""
    records, kernel = set(), []
    for path in sorted(Path(__file__).parent.glob("reference_*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.ImportFrom) and n.module == "ldlmon.automata":
                names = {alias.name for alias in n.names}
                records |= names
                kernel += [f"{path.name}: {name}" for name in sorted(names - {"Dfa", "Nfa"})]
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                prefix = "" if isinstance(n, ast.Import) else f"{n.module}."
                modules = [prefix + alias.name for alias in n.names]
                kernel += [f"{path.name}: {m}" for m in modules if m == "ldlmon.automata"]
    assert "Dfa" in records
    assert kernel == []
