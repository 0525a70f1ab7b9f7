"""No module of the package or of its tests imports a name it never reads,
the package reads every private name it defines, and it raises every error
class it exports.

No linter is a dependency, so the checks are the stdlib ``ast``: every name
an import binds must be read somewhere in its module, or listed in an
``__all__``; ``__future__`` features are exempt.  Every private top-level
name of the package (``_x``, not a dunder) must be read somewhere in the
package outside its own definition.  Every exported error class but the
catch-all ``PreorderBcaError`` must appear in a ``raise`` statement.  No
module of the package imports ``typing`` or ``dataclasses``, which would add
their import time to every process.
"""

import ast
import pathlib
from collections import Counter

import preorder_bca

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "preorder_bca").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [name for name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json, os.path\nfrom re import escape as e, sub\n"
              "__all__ = ['sub']\nos.path.join(e('x'))\n")
    assert unused_imports(source) == ["json"]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 20
    unused = {str(path.relative_to(ROOT)): names for path in MODULES
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def _reads(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]


def unread_private_names(sources: list[str]) -> list[str]:
    """The private top-level names defined in ``sources`` (one package's
    modules) that no module reads outside the name's own definition."""
    trees = [ast.parse(source) for source in sources]
    reads = sum((_reads(tree) for tree in trees), Counter())
    return [name for tree in trees for node in tree.body
            for name in _defined_names(node)
            if name.startswith("_") and not name.startswith("__")
            and reads[name] == _reads(node)[name]]


def test_the_check_finds_an_unread_private_name():
    sources = ["def _used():\n    return 1\n\n"
               "def _dead(n):\n    return _dead(n - 1)\n\n"
               "_TABLE, __all__ = {}, []\n",
               "from m import _used\nimport m\nm._used(_used())\n"]
    assert unread_private_names(sources) == ["_dead", "_TABLE"]


def test_the_package_reads_every_private_name_it_defines():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unread_private_names(sources) == []


def raised_names(source: str) -> set[str]:
    """The names ``source`` raises, as ``raise X`` or ``raise X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_the_scan_finds_raised_names():
    source = ("raise A\nraise B('x')\nraise c.D()\n"
              "try:\n    pass\nexcept E:\n    raise\n")
    assert raised_names(source) == {"A", "B"}


def test_every_exported_error_class_is_raised():
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8"))
                           for path in PACKAGE))
    exported = set(preorder_bca._EXPORTS["errors"]) - {"PreorderBcaError"}
    assert exported - raised == set()


def imported_modules(source: str) -> set[str]:
    """The top-level modules ``source`` imports, relative imports aside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_scan_finds_imported_modules():
    source = ("import os.path, json as j\nfrom typing import Iterator\n"
              "from .core import x\nif X:\n    import dataclasses\n")
    assert imported_modules(source) == {"os", "json", "typing", "dataclasses"}


def test_no_package_module_imports_typing_or_dataclasses():
    heavy = {str(path.relative_to(ROOT)): found for path in PACKAGE
             if (found := imported_modules(path.read_text(encoding="utf-8"))
                 & {"typing", "dataclasses"})}
    assert heavy == {}
