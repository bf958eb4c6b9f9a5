"""Every name a ``shockline`` module imports is used in that module, every
parameter of a function is used in its body, and every dataclass field is
read somewhere in the project.  ``cli`` raises no ``ConfigError`` and
catches no ``ValueError``: whether a config is valid is ``config``'s call.
No module but ``config`` reads JSON or defines a spec reader or writer:
the scenario format is ``config``'s alone.

``__init__`` is left out, since its imports are the package's re-exports,
and so is ``from __future__ import annotations``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shockline"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_module_is_checked():
    assert {"bayes.py", "cli.py", "flux.py", "front_tracking.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imported_names_are_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def unused_parameters(tree):
    """(function, parameter) for each parameter its function's body never names.

    Lambdas count as functions; the ``self`` or ``cls`` of a method does not
    count as a parameter.
    """
    methods = {
        id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
        if isinstance(f, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args]
            if id(node) in methods:
                params = params[1:]
            params += [*a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            used = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            yield from ((name, p.arg) for p in params if p.arg not in used)


def test_unused_parameters_are_found():
    tree = ast.parse(
        "class A:\n"
        "    def m(self, a, b): return a\n"
        "    @staticmethod\n"
        "    def s(x): return 1\n"
        "def f(a, *args, k, **kw): return lambda y: k\n"
    )
    assert sorted(unused_parameters(tree)) == [
        ("<lambda>", "y"), ("f", "a"), ("f", "args"), ("f", "kw"), ("m", "b"), ("s", "x"),
    ]


@pytest.mark.parametrize("module", MODULES)
def test_parameters_are_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(unused_parameters(tree)) == []


def dataclass_fields(tree):
    """(class, field) for each annotated field of each ``@dataclass`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def read_attributes(tree):
    """Names read as ``obj.name`` anywhere in the tree."""
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_unread_fields_are_found():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    unread: int = 0\n"
        "    plain = 1\n"
        "class B:\n"
        "    other: int\n"
        "def f(a):\n"
        "    a.unread = 2\n"
        "    return a.kept\n"
    )
    read = read_attributes(tree)
    assert [(c, f) for c, f in dataclass_fields(tree) if f not in read] == [("A", "unread")]


def test_dataclass_fields_are_read():
    read = set()
    for folder in ("src", "tests", "demos", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            read |= read_attributes(ast.parse(path.read_text(encoding="utf-8")))
    unread = [
        (module, cls, field)
        for module in MODULES
        for cls, field in dataclass_fields(ast.parse((SRC / module).read_text(encoding="utf-8")))
        if field not in read
    ]
    assert unread == []


def config_decisions(tree):
    """Lines that raise a ``ConfigError`` or catch a ``ValueError`` or ``ConfigError``."""
    def names(node):
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        return {getattr(n, "attr", getattr(n, "id", None)) for n in nodes}

    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if "ConfigError" in names(exc):
                yield node.lineno
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            if names(node.type) & {"ValueError", "ConfigError"}:
                yield node.lineno


def test_config_decisions_are_found():
    tree = ast.parse(
        "try:\n"
        "    f()\n"
        "except (KeyError, ValueError):\n"
        "    raise cfgio.ConfigError('bad')\n"
        "except ConfigError:\n"
        "    raise\n"
        "except Exception as exc:\n"
        "    raise RuntimeError(exc)\n"
    )
    assert sorted(config_decisions(tree)) == [3, 4, 5]


def test_cli_leaves_config_validity_to_config():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert list(config_decisions(tree)) == []


def format_code(tree):
    """Lines that define ``to_spec``, ``from_spec`` or ``*_from_spec``, or
    call or import ``json.load`` or ``json.loads``."""
    readers = {"load", "loads"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in ("to_spec", "from_spec") or node.name.endswith("_from_spec"):
                yield node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in readers and getattr(node.func.value, "id", None) == "json":
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if readers & {alias.name for alias in node.names}:
                yield node.lineno


def test_format_code_is_found():
    tree = ast.parse(
        "import json\n"
        "from json import loads\n"
        "class A:\n"
        "    def to_spec(self): return json.dumps({})\n"
        "    @classmethod\n"
        "    def from_spec(cls, s): return json.load(s)\n"
        "def flux_from_spec(s): return s\n"
        "def spec(s): return json.loads(s)\n"
    )
    assert sorted(format_code(tree)) == [2, 4, 6, 6, 7, 8]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                    if p.name != "config.py"))
def test_only_config_reads_and_writes_the_scenario_format(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert list(format_code(tree)) == []
