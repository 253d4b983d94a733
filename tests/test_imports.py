"""Imports and names of the package: every name a module imports is used in
that module, every private module-level name is read somewhere in the
package, every ``raise`` raises an AddcastError subclass, and ``import
addcast`` is lazy.

No linter runs on the package, so the first tests stand in for the
unused-import and dead-helper checks. An import statement marked
``# noqa: F401`` is exempt: it binds a name for code outside the module. ``__init__.py`` imports no
public name: its ``__getattr__`` imports a name's submodule on first use,
so a bare ``import addcast`` loads neither numpy nor any submodule.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import addcast

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "addcast"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of ``source`` that no name in
    it reads, skipping ``__future__`` imports and ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .a import (  # noqa: F401 -- wrapped from outside\n"
        "    kept,\n"
        ")\n"
        "from .b import used, unused\n"
        "def f(x: used) -> None:\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == ["os", "unused"]


def unread_private_names(sources: dict) -> list[str]:
    """``module:name`` of each module-level ``_name`` (a function, a class
    or an assigned name) defined in ``sources`` ({module: text}) that no
    code in them reads, as a name or an attribute. A definition that refers
    to its own name does not count as a reader of it."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = [node.name]
            elif isinstance(node, ast.Assign):
                own = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                own = [node.target.id]
            defined += [(module, n) for n in own if n.startswith("_") and not n.endswith("__")]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    return [f"{module}:{name}" for module, name in defined if name not in read]


def test_every_private_module_level_name_is_read():
    sources = {module: (PACKAGE / module).read_text() for module in MODULES}
    assert unread_private_names(sources) == []


def test_checker_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "def _helper(x):\n"
            "    return _helper(x - 1) if x else _LIMIT\n"
            "def _used():\n"
            "    return 1\n"
            "class _Record:\n"
            "    pass\n"
        ),
        "b.py": "import a\nvalue = a._used() + a._Record.__name__.count('R')\n",
    }
    assert unread_private_names(sources) == ["a.py:_UNUSED", "a.py:_helper"]


ERROR_NAMES = {
    name for name, value in vars(addcast.errors).items()
    if isinstance(value, type) and issubclass(value, addcast.errors.AddcastError)
}
# (module, function, raised) of the raises that are not of an AddcastError;
# each must still exist, so that the list cannot go stale
ALLOWED_RAISES = {
    # the module protocol: a name a module lacks is an AttributeError
    ("__init__.py", "__getattr__", "AttributeError"),
    # config_from_dict turns it into a SchemaError naming the missing key
    ("config.py", "_spec", "KeyError"),
    # re-raise a caught AddcastError as its own type, with context in front
    ("cli.py", "cmd_compare", "type(exc)"),
    ("evaluation.py", "_cv_fold", "type(exc)"),
}


def foreign_raises(sources: dict, error_names) -> list[str]:
    """``module:function:raised`` of each ``raise`` in ``sources`` ({module:
    text}) whose exception, or the callable that makes it, is not one of
    ``error_names``; ``function`` is the innermost one around the raise, or
    ``<module>``. A bare ``raise`` re-raises what its handler caught and is
    not counted."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc) not in error_names:
                    found.append(f"{module}:{function}:{ast.unparse(exc)}")
            visit(child, module, function)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return found


def test_every_raise_raises_an_addcast_error():
    sources = {module: (PACKAGE / module).read_text() for module in MODULES}
    allowed = {":".join(triple) for triple in ALLOWED_RAISES}
    assert sorted(set(foreign_raises(sources, ERROR_NAMES))) == sorted(allowed)


def test_checker_finds_a_foreign_raise():
    source = (
        "from .errors import DomainError\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise DomainError('x')\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError as exc:\n"
        "        raise type(exc)('zero') from exc\n"
        "    except OverflowError:\n"
        "        raise\n"
        "def g():\n"
        "    def inner():\n"
        "        raise ValueError\n"
        "    return inner\n"
        "raise KeyError('k')\n"
    )
    assert foreign_raises({"a.py": source}, {"DomainError"}) == [
        "a.py:f:type(exc)", "a.py:inner:ValueError", "a.py:<module>:KeyError",
    ]


def test_import_loads_no_numpy_and_no_submodule():
    script = (
        "import json, sys\n"
        "import addcast\n"
        "loaded = sorted(sys.modules)\n"
        "print(json.dumps([loaded, addcast.cli.__name__, addcast.fit.__module__]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded, cli, fit_module = json.loads(proc.stdout)
    assert "addcast" in loaded
    assert [m for m in loaded if m.split(".")[0] == "numpy" or m.startswith("addcast.")] == []
    # a submodule and a public name still resolve after the bare import
    assert (cli, fit_module) == ("addcast.cli", "addcast.estimator")


def test_every_public_name_resolves_to_its_submodules_object():
    for name, module in addcast._EXPORTS.items():
        assert getattr(addcast, name) is getattr(
            importlib.import_module(f"addcast.{module}"), name
        ), name
    for module in addcast._SUBMODULES:
        assert getattr(addcast, module) is importlib.import_module(f"addcast.{module}")
    assert set(dir(addcast)) >= {*addcast._EXPORTS, *addcast._SUBMODULES, "__version__"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        addcast.frobnicate
