"""Import hygiene: every name a module imports is read somewhere in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the package's __init__ is its re-export list: its imports are its API
PACKAGE = ROOT / "src" / "wavedd"
MODULES = sorted(p for p in [*(ROOT / "tests").glob("*.py"), *PACKAGE.glob("*.py")]
                 if p != PACKAGE / "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads; an
    import on a line marked ``# noqa: F401`` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_import():
    src = "import os\nimport sys  # noqa: F401\nimport a.b\nfrom c import d, e\nprint(a, e)\n"
    assert unused_imports(src) == [(1, "os"), (4, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
