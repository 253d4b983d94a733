"""Imports of the package: every name a module imports is used in that
module, and ``import addcast`` is lazy.

No linter runs on the package, so the first test stands in for the
unused-import check. An import statement marked ``# noqa: F401`` is exempt:
it binds a name for code outside the module. ``__init__.py`` imports no
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
