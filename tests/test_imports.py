"""Every name a module imports is used in it, and no pmsem module
imports another's private names (stdlib `ast`, no linter)."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pmsem").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Names listed in __all__ are exported, which counts as a use.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 2: b",
        "line 1: os",
    ]


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names taken from another module."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_the_check_sees_a_private_import():
    source = "from .propsem import (\n    PropAssignment,\n    _ev,\n)\nfrom . import _x as y\n"
    assert private_imports(source) == ["line 1: _ev", "line 5: _x"]


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_hashcons_holds_weak_references():
    """Hash-consing is decided in one module: no other imports weakref."""
    holders = [path.name for path in PACKAGE if "weakref" in imported_modules(path.read_text())]
    assert holders == ["hashcons.py"]


def package_imports(source: str) -> set[str]:
    """Modules of the package that source imports: relative imports, and
    absolute ones from `pmsem`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pmsem":
            names |= {node.module.partition(".")[2] or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[2] for alias in node.names
                      if alias.name.startswith("pmsem.")}
    return names


def test_the_check_sees_package_imports():
    source = ("from .ontology import World\nfrom . import meanings\n"
              "from pmsem.propsem import eval_prop\nfrom pmsem import fosem\n"
              "import pmsem.oracle\nimport os\nfrom collections import Counter\n")
    assert package_imports(source) == {"ontology", "meanings", "propsem", "fosem", "oracle"}


def test_classical_referee_imports_only_syntax():
    """The classical referee shares the AST with the meaning side and
    nothing else, so it can referee it."""
    assert package_imports((ROOT / "src" / "pmsem" / "classical.py").read_text()) == {"syntax"}


def writes(source: str, exempt: str | None = None) -> list[str]:
    """What source writes outside its top-level function exempt: calls of
    print, uses of sys.stdout and sys.stderr, and open in a write,
    append, exclusive or update mode (or a mode not written out)."""
    tree = ast.parse(source)
    skipped = {id(node) for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name == exempt
               for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append((node.lineno, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, f"sys.{alias.name}") for alias in node.names
                      if alias.name in ("stdout", "stderr")]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "print":
                found.append((node.lineno, "print"))
            elif node.func.id == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                if modes and not (isinstance(modes[0], ast.Constant)
                                  and set(modes[0].value).isdisjoint("wax+")):
                    found.append((node.lineno, "open for writing"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_cli_main_writes(path):
    """Commands return their reports and `cli.main` alone writes them."""
    exempt = "main" if path.name == "cli.py" else None
    assert writes(path.read_text(), exempt) == []


def test_the_check_sees_writes():
    source = ("import sys\nfrom sys import stderr\n"
              "def main():\n    print(1)\n    sys.stdout.write('')\n"
              "def emit(path, mode):\n    print('x', file=sys.stderr)\n"
              "    open(path, 'a')\n    open(path, mode=mode)\n    open(path, 'rb')\n"
              "    open(path)\n    open(path, 'r+')\n")
    assert writes(source, "main") == [
        "line 2: sys.stderr", "line 7: print", "line 7: sys.stderr",
        "line 8: open for writing", "line 9: open for writing", "line 12: open for writing",
    ]
