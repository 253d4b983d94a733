"""Every name a module of the package imports is used in that module.

No linter runs on the package, so this test stands in for the unused-import
check. An import statement marked ``# noqa: F401`` is exempt: it binds a
name for code outside the module. ``__init__.py`` imports the package's
public names in order to re-export them, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "addcast"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
