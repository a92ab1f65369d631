"""Loading by need: `import intpoly` loads no module of the package, each
public name is loaded from its module on first use, and a CLI request of
each subcommand loads only the modules that subcommand calls.  Each case
runs in a fresh interpreter, since the test process has long since loaded
every module."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parent.parent / "src")
LOADED = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('intpoly'))))"
CLI_CORE = ["intpoly", "intpoly.arith", "intpoly.cli", "intpoly.poly"]
# `spectrum` builds on the window and set types of `sequences` and `vorder`
SPECTRUM = ["sequences", "spectrum", "vorder"]


def _run(code: str) -> str:
    """Standard output of a fresh interpreter that runs `code` with src/ on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_module():
    assert json.loads(_run("import intpoly" + LOADED)) == ["intpoly"]


def test_dir_lists_every_name_before_loading():
    code = "import intpoly\nprint(sorted(set(intpoly.__all__) - set(dir(intpoly))))" + LOADED
    missing, loaded = _run(code).splitlines()
    assert missing == "[]"
    assert json.loads(loaded) == ["intpoly"]


def test_each_name_is_the_attribute_of_its_module():
    code = """
import importlib, intpoly
from intpoly import Polynomial
assert len(set(intpoly.__all__)) == len(intpoly.__all__)
for name in intpoly.__all__:
    value = getattr(intpoly, name)
    module = importlib.import_module('intpoly.' + intpoly._MODULE_OF[name])
    assert value is getattr(module, name), name
    assert getattr(value, '__module__', module.__name__) == module.__name__, name
    assert vars(intpoly)[name] is value, name
assert Polynomial is intpoly.poly.Polynomial
print(len(intpoly.__all__))
"""
    assert int(_run(code)) > 0


def test_submodule_resolves_after_import():
    code = "import intpoly\nprint(intpoly.poly.__name__, intpoly.poly.Polynomial is intpoly.Polynomial)"
    assert _run(code + LOADED).splitlines() == [
        "intpoly.poly True", json.dumps(["intpoly", "intpoly.arith", "intpoly.poly"])
    ]


def test_unknown_name_raises_attribute_error():
    code = """
import intpoly
for name in ('no_such_name', '_vp'):
    try:
        getattr(intpoly, name)
    except AttributeError as exc:
        print(exc)
"""
    assert _run(code + LOADED).splitlines() == [
        "module 'intpoly' has no attribute 'no_such_name'",
        "module 'intpoly' has no attribute '_vp'",
        '["intpoly"]',
    ]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["residues", "--poly", "X^2", "--p", "3"], []),
        (["snf", "--matrix", "2,4;6,8"], ["matrices"]),
        (["member", "--poly", "X", "--set", "1,2", "--p", "2"], ["vorder"]),
        (["classify", "--p", "2", "--seq", "0,1,2"], ["sequences"]),
        (["residues", "--poly", "X", "--p", "4"], []),
        (["vorder", "--set", "0,1,2,4", "--p", "2", "--n", "3"], ["vorder"]),
        (["basis", "--all", "--p", "2", "--k", "2"], ["vorder"]),
        (["expand", "--poly", "X^2", "--all", "--p", "3", "--n", "2"], ["vorder"]),
        (["pseudolimit", "--p", "2", "--seq", "1,3,7,15", "--x", "-1"], ["sequences"]),
        (["imageclass", "--p", "2", "--seq", "1,3,7,15", "--poly", "X^2"], ["sequences"]),
        (["ideal", "member", "--ideal", "max:p=2,a=3", "--poly", "X"], SPECTRUM),
        (["representative", "--ideal", "comp:p=3,x=4,N=2", "--poly", "X"], SPECTRUM),
        (["frisch", "--poly", "X*(X-1)/2", "--p", "2"], SPECTRUM),
        (["bezout4", "2", "3", "4", "5"], ["matrices"]),
        (["content", "--entries", "2;X^2+X"], ["matrices"]),
        (["ucs", "--B", "2,X;X+1,3", "--C", "1,0;0,1"], ["matrices"]),
        (["tracenorm", "--B", "2,1;1,1", "--C", "1,1;1,1"], ["matrices"]),
        (["idem", "--M", "1,0;0,0"], ["matrices"]),
        (["example", "verify"], ["example_lab", "matrices"]),
    ],
    ids=[
        "residues", "snf", "member --set", "classify", "residues domain error", "vorder",
        "basis", "expand", "pseudolimit", "imageclass", "ideal", "representative", "frisch",
        "bezout4", "content", "ucs", "tracenorm", "idem", "example",
    ],
)
def test_cli_request_loads_only_its_modules(argv, modules):
    code = (
        "import contextlib, io\nfrom intpoly.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    main({argv!r})"
    )
    assert json.loads(_run(code + LOADED)) == sorted(CLI_CORE + [f"intpoly.{m}" for m in modules])


def test_no_module_loads_dataclasses():
    """The records are built on `arith.Record`, so neither `dataclasses` nor
    the `inspect` it imports is loaded by any module or by a request."""
    code = """
import contextlib, importlib, io, os, sys
import intpoly
for name in os.listdir(os.path.dirname(intpoly.__file__)):
    if name.endswith('.py') and name != '__init__.py':
        importlib.import_module('intpoly.' + name[:-3])
from intpoly.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(['example', 'verify']) == 0
print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))
print(len([m for m in sys.modules if m.startswith('intpoly.')]))
"""
    loaded, count = _run(code).splitlines()
    assert loaded == "[]"
    assert int(count) == 8
