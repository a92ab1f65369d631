"""Source hygiene of the package, read from its syntax trees: exact means no
floating point, and every import is used.  README's Limits table names each
cap's constant and shows its value."""
import ast
import importlib
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "intpoly").glob("*.py"))
FLOAT_NAMES = {"float", "ceil", "floor"}
README = Path(__file__).parent.parent / "README.md"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            found.append(f"line {node.lineno}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES:
            found.append(f"line {node.lineno}: attribute {node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rpartition(".")[2] in FLOAT_NAMES:
                    found.append(f"line {node.lineno}: import {alias.name}")
    assert not found, found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_import(path):
    tree = _tree(path)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, unused


def _limits_rows() -> list:
    """The cells of each row of README's Limits table, the header left out."""
    section = README.read_text().split("\n## Limits", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("| ")]
    return [[cell.strip() for cell in row] for row in rows[1:]]


def _written_forms(value: int) -> list:
    """The ways the table writes a number: 1,600, 10^5, 2^4096 or plain digits."""
    forms = [str(value), f"{value:,}"]
    for base in (2, 10):
        k = 0
        while base**k < value:
            k += 1
        if base**k == value:
            forms.append(f"{base}^{k}")
    return forms


@pytest.mark.parametrize("row", _limits_rows(), ids=lambda row: row[-1].replace("`", ""))
def test_readme_limits_match_the_constants(row):
    _, shown, _, constant = row
    names = re.findall(r"`(\w+)\.(\w+)`", constant)
    assert names, constant
    for module, name in names:
        value = getattr(importlib.import_module(f"intpoly.{module}"), name)
        forms = _written_forms(value)
        assert any(re.search(rf"(?<![\d,]){re.escape(f)}(?!,?\d)", shown) for f in forms), (
            f"{module}.{name} = {value} is not shown in {shown!r}"
        )
