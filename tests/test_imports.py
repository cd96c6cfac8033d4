"""Every module reads each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([
    *(ROOT / "src" / "degradesched").glob("*.py"),
    *(ROOT / "tests").glob("*.py"),
    *(ROOT / "perfbench").glob("**/*.py"),
])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`.
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom x import a, b\nprint(np, b)\n"
    assert unused_imports(source) == [(1, "math"), (3, "a")]
