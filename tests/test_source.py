"""Source hygiene of the package, read from its syntax trees: exact means no
floating point, every import is used, and the modules load by need.
README's Limits table names each cap's constant and shows its value."""
import ast
import importlib
import re
import sys
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


def _module_level_imports(path: Path) -> list:
    """(line, module) of each import that runs when the module loads, that is
    outside a function; a relative module is written with its leading dots."""
    found = []
    stack = list(_tree(path).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return found


def _package(path_name: str) -> Path:
    return next(p for p in SOURCES if p.name == path_name)


def test_package_init_loads_no_module():
    found = [
        (line, name)
        for line, name in _module_level_imports(_package("__init__.py"))
        if name.startswith(".") or name.partition(".")[0] == "intpoly"
    ]
    assert not found, found


def test_cli_loads_only_arith_and_poly():
    allowed = {".arith", ".poly"}
    found = [
        (line, name)
        for line, name in _module_level_imports(_package("cli.py"))
        if name not in allowed and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not found, found


def test_cli_imports_nothing_inside_a_function():
    # subcommands reach the library through the package, as
    # `intpoly.vorder.v_ordering`, so no import statement runs per request
    lines = {
        inner.lineno
        for node in ast.walk(_tree(_package("cli.py")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    assert not lines, sorted(lines)


def _defined_names(path: Path) -> set:
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_exports_name_what_their_module_defines():
    init = _tree(_package("__init__.py"))
    (table,) = [
        node.value for node in init.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]
    ]
    exports = ast.literal_eval(table)
    missing = {
        module: sorted(set(names) - _defined_names(_package(f"{module}.py")))
        for module, names in exports.items()
    }
    assert not any(missing.values()), missing
    every = [name for names in exports.values() for name in names]
    assert len(every) == len(set(every))


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
