"""Every module-level import in the package is used (no linter runs in CI; this test does)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).parents[1] / "src" / "tbrisim").glob("*.py")
    if path.name != "__init__.py"   # the package namespace re-exports by design
)


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    An import whose lines carry ``# noqa: F401`` is a deliberate re-export
    and is not reported.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Callable\n"
        "from .pipeline import run  # noqa: F401\n"
        "def f(x: Callable) -> None:\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(source) == ["line 2: os"]
