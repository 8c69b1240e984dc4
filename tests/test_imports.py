"""Every module-level import in ``src/evmcontrol`` is read by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "evmcontrol"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom . import csvio\nos.sep\n"
    assert unused_imports(source) == ["csvio", "json"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_its_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
