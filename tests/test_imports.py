"""No module of the package or of its tests imports a name it never reads,
and the package raises every error class it exports.

No linter is a dependency, so the checks are the stdlib ``ast``: every name
an import binds must be read somewhere in its module, or listed in an
``__all__``; ``__future__`` features are exempt.  Every exported error class
but the catch-all ``PreorderBcaError`` must appear in a ``raise`` statement.
"""

import ast
import pathlib

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
