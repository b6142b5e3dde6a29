"""Every function, class and method in ``src/`` has a caller.

A name defined at the top level of a module, or as a method of a
top-level class, must be referenced somewhere in ``src/`` outside its
own definition and the package ``__init__`` re-exports, or somewhere in
``perfbench/`` (whose tracer names what it wraps in strings).  A method
is reached only through an attribute load or a perfbench identifier
string: a bare name of the same spelling is some other variable.  The
exceptions are the names the README's Python API section documents and
the test oracles below, which tests use as references for the fast
paths.  Dunder methods, and methods that override one of a base class
from outside the package (``argparse``'s ``error`` hook), are called by
Python or by that base, and are skipped.
"""
import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Names only tests call, each kept as a reference the tests compare against.
ORACLES = (
    "accepts",  # runs any automaton over a trace: the language oracle
    "is_empty",  # emptiness of a language, beside language_equal
    "language_equal",  # the equivalence check of the differential tests
    "rv_family",  # the four RV-state languages read off one coloring
    "colored_isomorphic",  # compares a compiled monitor with a golden one up to renumbering
    "is_nnf",  # checks that to_nnf's output is in negation normal form
    "trace_from_props",  # builds traces for the semantics oracle from prop lists
    "rv_state_oracle",  # the RV state of a trace by evaluating the formula on extensions
)


def _references(tree, *, strings=False) -> Counter:
    """Load-context names and attributes in ``tree``, a bare name counted
    under ``name`` and an attribute under ``.name``; with ``strings``,
    string constants that are identifiers count as attributes too."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found["." + node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found["." + node.value] += 1
    return found


def _definitions(tree):
    """The top-level functions and classes of a module and the methods
    of its top-level classes, as (class name or None, name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item.name, item


def _called_by_python(path, owner, name) -> bool:
    """Whether a method is a dunder or overrides one of a base class
    defined outside the package."""
    if name.startswith("__") and name.endswith("__"):
        return True
    if owner is None:
        return False
    module = importlib.import_module(".".join(path.relative_to(SRC).with_suffix("").parts))
    bases = getattr(module, owner).__mro__[1:]
    return any(name in vars(base) for base in bases if not base.__module__.startswith("ldlmon"))


def _api_names() -> set:
    """The identifiers in the code of the README's Python API section:
    its code blocks and its inline code spans."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```.*?```", section, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", section, flags=re.S))
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


def test_every_definition_in_src_is_reached():
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    used = Counter()
    for path, tree in modules.items():
        if path.name != "__init__.py":
            used += _references(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used += _references(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    kept = _api_names() | set(ORACLES)
    dead = []
    for path, tree in modules.items():
        for owner, name, node in _definitions(tree):
            if name in kept or _called_by_python(path, owner, name):
                continue
            keys = ["." + name] if owner else [name, "." + name]
            own = _references(node)
            if sum(used[k] - own[k] for k in keys) <= 0:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not dead, "defined but never reached:\n" + "\n".join(dead)


def test_oracles_are_defined_in_src():
    defined = {
        name
        for path in SRC.rglob("*.py")
        for _, name, _ in _definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert set(ORACLES) <= defined
