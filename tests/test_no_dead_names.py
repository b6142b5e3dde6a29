"""Every function, class and method in ``src/`` has a caller.

A name defined at the top level of a module, or as a method of a
top-level class, must be referenced somewhere in ``src/`` outside its
own definition and the package ``__init__`` re-exports, or somewhere in
``perfbench/`` (whose tracer names what it wraps in strings).  A method
is reached only through an attribute load or a perfbench identifier
string: a bare name of the same spelling is some other variable.  Where
the AST shows the receiver's class (``self``, a class name, a local
bound to a constructor call), the load reaches only methods of classes
related to it, and a load from an imported module reaches no method;
elsewhere any load of the name counts, and the test prints the methods
that only such loads reach.  The exceptions are the names the README's
Python API section documents.  Dunder methods, and methods that override
one of a base class from outside the package (``argparse``'s ``error``
hook), are called by Python or by that base, and are skipped.
"""
import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _Loads(ast.NodeVisitor):
    """Every load in one module as (key, receiver, line): a bare name
    under ``name`` and an attribute under ``.name``.

    An attribute's receiver is the name of the class the AST shows it to
    be: ``self``/``cls`` (the first parameter of a method, also inside
    its nested functions) or ``super()`` stands for the method's class,
    a class name for that class, and a local of a function for the class
    whose constructor every assignment to it calls.  A name bound to an
    imported module is ``MODULE``.  ``getattr(x, "name")`` loads
    ``.name`` from x.  Any other receiver is ``None``.  With
    ``strings``, string constants that are identifiers count as
    attributes with receiver ``None`` (perfbench's tracer names what it
    wraps in strings).
    """

    def __init__(self, classes, modules=frozenset(), strings=False):
        self.classes, self.modules, self.strings = classes, modules, strings
        self.found: list = []
        self.scope: dict = {}  # local name -> class name, or None when unknown
        self.owner = None  # the class whose method body is being walked

    def visit_ClassDef(self, node):
        owner, self.owner = self.owner, node.name
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                self.visit_function(item, method=True)
            else:
                self.visit(item)
        for item in node.decorator_list + node.bases:
            self.visit(item)
        self.owner = owner

    def visit_FunctionDef(self, node):
        self.visit_function(node, method=False)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef

    def visit_function(self, node, method):
        scope = dict(self.scope)
        params = [*node.args.posonlyargs, *node.args.args]
        for arg in ast.walk(node.args):
            if isinstance(arg, ast.arg):
                scope[arg.arg] = None
        if method and params and not _decorated(node, "staticmethod"):
            scope[params[0].arg] = self.owner
        scope.update(_constructed(node, self.classes))
        saved, self.scope = self.scope, scope
        self.generic_visit(node)
        self.scope = saved

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.found.append((node.id, None, node.lineno))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.found.append(("." + node.attr, self.receiver(node.value), node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node):
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "getattr" and len(args) > 1:
            name = args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self.found.append(("." + name.value, self.receiver(args[0]), node.lineno))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str) and node.value.isidentifier():
            self.found.append(("." + node.value, None, node.lineno))

    def receiver(self, value):
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return self.owner if value.func.id == "super" and not value.args else None
        if not isinstance(value, ast.Name):
            return None
        if value.id in self.scope:
            return self.scope[value.id]
        if value.id in self.classes:
            return value.id
        return MODULE if value.id in self.modules else None


MODULE = "<module>"


def _decorated(node, name) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in node.decorator_list)


def _constructed(function, classes) -> dict:
    """The names a function stores to, each mapped to the class whose
    constructor every store of it calls, or to None."""
    bound: dict = {}
    calls = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value, target = node.value, node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in classes
            ):
                calls.add(id(target))
                bound.setdefault(target.id, set()).add(value.func.id)
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and id(node) not in calls:
            bound.setdefault(node.id, set()).add(None)
    return {name: next(iter(kinds)) if len(kinds) == 1 else None for name, kinds in bound.items()}


def _imported_modules(tree, path=None) -> frozenset:
    """The names a module's ``import`` statements bind, and with the
    ``path`` of a ``src/`` module, every name it binds to a module."""
    names = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    }
    if path is not None:
        module = importlib.import_module(_module_name(path))
        names.update(name for name, value in vars(module).items() if inspect.ismodule(value))
    return frozenset(names)


def _module_name(path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


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
    module = importlib.import_module(_module_name(path))
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


def _related(classes, owner, receiver) -> bool:
    """Whether a method of ``owner`` can be what an attribute load on an
    instance of ``receiver`` reaches: one class derives from the other."""
    return any(
        issubclass(a, b) or issubclass(b, a)
        for a in classes.get(owner, ()) for b in classes.get(receiver, ())
    )


def test_every_definition_in_src_is_reached():
    """A top-level name is reached by any bare or attribute load of it.
    A method is reached by an attribute load whose receiver class is
    related to the method's class; where the AST does not show the
    receiver, by any attribute load of its name, and such methods are
    printed, since a load on some other object may be all that keeps
    them."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    classes: dict = {}
    for path, tree in modules.items():
        module = importlib.import_module(_module_name(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(getattr(module, node.name))
    loads = []  # (path, key, receiver, line)
    for path, tree in modules.items():
        if path.name != "__init__.py":
            visitor = _Loads(classes, _imported_modules(tree, path))
            visitor.visit(tree)
            loads += [(path, *load) for load in visitor.found]
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = _Loads(classes, _imported_modules(tree), strings=True)
        visitor.visit(tree)
        loads += [(path, *load) for load in visitor.found]
    by_key: dict = {}
    for path, key, receiver, line in loads:
        by_key.setdefault(key, []).append((path, receiver, line))
    kept = _api_names()
    dead, unresolved = [], []
    for path, tree in modules.items():
        for owner, name, node in _definitions(tree):
            if name in kept or _called_by_python(path, owner, name):
                continue
            receivers = [
                receiver
                for key in (["." + name] if owner else [name, "." + name])
                for where, receiver, line in by_key.get(key, ())
                if not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            at = f"{path.relative_to(ROOT)}:{node.lineno} {owner + '.' if owner else ''}{name}"
            if owner is None or any(_related(classes, owner, r) for r in receivers):
                reached = bool(receivers)
            else:
                reached = None in receivers
                if reached:
                    unresolved.append(at)
            if not reached:
                dead.append(at)
    print("methods reached only through a receiver the AST does not show:")
    print("\n".join(unresolved))
    assert not dead, "defined but never reached:\n" + "\n".join(dead)

