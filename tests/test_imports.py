"""Every module-level import in ``src/evmcontrol`` is read by its module,
and every function, class and method it defines is named somewhere."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "evmcontrol"
# where a definition in the package may be named
READERS = ("src", "tests", "scripts", "perfbench")


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


def definitions(source: str) -> list[tuple[str, str]]:
    """``(qualified name, name)`` of each top-level function and class, and of
    each method other than a dunder."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def named(source: str) -> set[str]:
    """Every name, attribute, imported name and string constant in a module
    (a string may name an attribute that ``getattr`` looks up)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def dead_definitions(package: dict[str, str], readers: list[str]) -> list[str]:
    """Definitions in ``package`` (module name -> source) that no source in
    ``readers`` names; a definition's own ``def`` or ``class`` line is not a use."""
    used = set().union(*(named(source) for source in readers))
    return sorted(f"{module}.{qualified}" for module, source in package.items()
                  for qualified, name in definitions(source) if name not in used)


def test_checker_finds_a_dead_definition():
    module = ("class Spec:\n"
              "    def __post_init__(self): pass\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "def helper(): pass\n"
              "def traced(): pass\n"
              "def orphan(): pass\n")
    reader = "from m import Spec as S\nS().used()\nhelper()\ngetattr(m, 'traced')\n"
    assert dead_definitions({"m": module}, [module, reader]) == ["m.Spec.unused", "m.orphan"]


def test_package_has_no_dead_definitions():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for d in READERS for p in sorted((REPO / d).rglob("*.py"))]
    assert dead_definitions(package, readers) == []
