"""Every file ``irrev`` writes goes through one helper, ``evolution._rewrite``,
which overwrites the file from its start and cuts it after the new bytes,
never truncating it first.  A writer opened any other way would bring the
truncation back, so no module may open a file for writing by itself.

Every JSON file is read and written by orjson, whose parser refuses what
RFC 8259 refuses (``NaN``, ``Infinity``, a number beyond a double) and whose
encoder writes none of them, so no module may import the stdlib ``json``,
which reads all three and writes the first two."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "irrev"

#: the one function allowed to open a file for writing, by module file name
HELPER = {"evolution.py": "_rewrite"}

#: calls that write a whole file (``Path``, numpy) or into an open one (``json``)
WRITE_CALLS = {"write_text", "write_bytes", "savetxt", "tofile", "dump"}


def _open_mode(call: ast.Call) -> str | None:
    """The mode of an ``open`` call as written, ``"r"`` when not given and
    ``None`` when it is not a literal; ``path.open`` takes it first."""
    first = 0 if isinstance(call.func, ast.Attribute) else 1
    given = call.args[first:first + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else None


def file_writes(source: str, helper: str | None = None) -> list[str]:
    """``line: call`` for each call in ``source`` that opens a file for
    writing or writes one, outside the function named ``helper``; every use
    of ``O_TRUNC`` counts, in the helper too."""
    found = []

    def visit(node: ast.AST, in_helper: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == helper:
            in_helper = True
        if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC" or \
                isinstance(node, ast.Name) and node.id == "O_TRUNC":
            found.append(f"{node.lineno}: O_TRUNC")
        if isinstance(node, ast.ImportFrom) and node.module == "json" and \
                any(alias.name == "dump" for alias in node.names):
            found.append(f"{node.lineno}: from json import dump")
        if isinstance(node, ast.Call) and not in_helper:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", "") == "os"
            if name in WRITE_CALLS or name == "open" and (
                    on_os or not set(_open_mode(node) or "w") <= set("rbt")):
                found.append(f"{node.lineno}: {ast.unparse(func)}")
        for child in ast.iter_child_nodes(node):
            visit(child, in_helper)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_opens_a_file_for_writing_but_through_the_helper(path):
    assert file_writes(path.read_text(), HELPER.get(path.name)) == []


@pytest.mark.parametrize("source,writes", [
    ("open(p, 'w')", 1), ("open(p, mode='wb')", 1), ("open(p, 'a')", 1), ("open(p, 'r+')", 1),
    ("open(p, 'x')", 1), ("open(p, mode)", 1), ("p.open('w')", 1), ("os.open(p, flags)", 1),
    ("p.write_text(s)", 1), ("p.write_bytes(b)", 1), ("json.dump(v, fh)", 1),
    ("from json import dump", 1), ("np.savetxt(p, a)", 1), ("a.tofile(p)", 1),
    ("flags = os.O_WRONLY | os.O_TRUNC", 1),
    ("open(p)", 0), ("open(p, 'rb')", 0), ("p.open()", 0), ("p.read_text()", 0),
    ("json.load(fh)", 0), ("json.dumps(v)", 0),
    ("def _rewrite(p):\n    open(os.open(p, os.O_WRONLY), 'wb')", 0),
    ("def _rewrite(p):\n    os.open(p, os.O_TRUNC)", 1),
    ("def other(p):\n    open(p, 'w')", 1),
], ids=lambda v: v if isinstance(v, str) else None)
def test_the_guard_sees_every_way_to_write_a_file(source, writes):
    assert len(file_writes(source, helper="_rewrite")) == writes


def json_imports(source: str) -> list[str]:
    """``line: import`` for each import of the stdlib ``json`` or one of its
    submodules in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:   # not a relative one
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name == "json" or name.startswith("json.")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_the_stdlib_json(path):
    assert json_imports(path.read_text()) == []


@pytest.mark.parametrize("source,imports", [
    ("import json", 1), ("import json as j", 1), ("import os, json", 1), ("import json.decoder", 1),
    ("from json import loads", 1), ("from json.decoder import JSONDecodeError", 1),
    ("def f():\n    import json", 1),
    ("import orjson", 0), ("from orjson import loads", 0), ("import jsonschema", 0),
    ("from . import json", 0), ("from .json import x", 0), ("orjson.loads(b)", 0),
], ids=lambda v: v if isinstance(v, str) else None)
def test_the_json_guard_sees_every_import_of_the_stdlib_json(source, imports):
    assert len(json_imports(source)) == imports
