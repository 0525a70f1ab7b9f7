"""Package surface: lazy public names, what the CLI imports at start-up, and
the frozen-record semantics of the public value classes."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import preorder_bca
from preorder_bca import (
    ApproximationReport,
    DocumentError,
    GroundSet,
    Preorder,
    Relation,
    RelationDocument,
    ViolationError,
    to_total,
)
from preorder_bca.cli import build_parser

SRC = str(pathlib.Path(preorder_bca.__file__).resolve().parents[1])
ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "data" / "fixtures"


def _run_python(script: str, *argv: str) -> str:
    """stdout of ``script`` run in a fresh interpreter on this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_solver_stack():
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import preorder_bca.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    loaded = set(json.loads(_run_python(script)))
    assert "preorder_bca.cli" in loaded
    for heavy in ("dataclasses", "preorder_bca.solver", "preorder_bca.families",
                  "preorder_bca.scoring", "preorder_bca.metrics",
                  "preorder_bca.completions"):
        assert heavy not in loaded, heavy


def _readme_load_table() -> dict[str, set[str]]:
    """README's "What each subcommand loads" table: subcommand -> modules."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | modules added on top |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        commands, modules = line.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = set(re.findall(r"`([^`]+)`", modules))
    return table


# One run of each subcommand on a fixture; the modules every process loads
# come with ``import preorder_bca.cli`` and are not listed in the table.
_SUBCOMMAND_RUNS = {
    "check": ["check", "chain3.json"],
    "dot": ["dot", "chain3.json"],
    "canonical": ["canonical", "ex5_base.json"],
    "index": ["index", "ex5_base.json"],
    "metric": ["metric", "ex1_base.json", "ex1_swap_top.json"],
    "bca": ["bca", "ex5_base.json"],
    "condition-star": ["condition-star", "ex5_base.json"],
    "covering-radius": ["covering-radius", "--n", "3"],
    "generate": ["generate", "chain", "--n", "3"],
}
_ALWAYS_LOADED = {"cli", "core", "documents", "errors", "_record"}


def test_readme_load_table_names_every_subcommand():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert set(_readme_load_table()) == set(sub.choices) == set(_SUBCOMMAND_RUNS)


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_RUNS))
def test_subcommand_loads_what_the_readme_says(command):
    argv = [str(FIXTURES / arg) if arg.endswith(".json") else arg
            for arg in _SUBCOMMAND_RUNS[command]]
    script = (
        "import contextlib, io, json, sys\n"
        "from preorder_bca import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    code, modules = json.loads(_run_python(script, *argv))
    assert code == 0
    loaded = {name.split(".", 1)[1] for name in modules
              if name.startswith("preorder_bca.")}
    readme = _readme_load_table()[command]
    assert loaded - _ALWAYS_LOADED == readme
    assert _ALWAYS_LOADED <= loaded


def test_every_public_name_resolves_and_is_listed():
    listed = dir(preorder_bca)
    assert len(set(preorder_bca.__all__)) == len(preorder_bca.__all__)
    for name in preorder_bca.__all__:
        assert getattr(preorder_bca, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        preorder_bca.no_such_name  # noqa: B018


def _pair():
    ground = GroundSet(("a", "b"))
    return ground, Preorder(ground, (3, 2))


def test_preorder_record_semantics():
    ground, p = _pair()
    assert Preorder(ground=ground, rows=[3, 2]) == p
    assert Preorder(ground, rows=(3, 2)) == p
    assert hash(Preorder(ground, (3, 2))) == hash(p) == hash((ground, (3, 2)))
    assert p != Preorder(ground, (3, 3))
    assert p != Relation(ground, (3, 2)) and Relation(ground, (3, 2)) != p
    assert repr(p) == "Preorder(ground=GroundSet(labels=('a', 'b')), rows=(3, 2))"
    with pytest.raises(ViolationError):
        Preorder(GroundSet(("a", "b", "c")), (3, 6, 4))
    with pytest.raises(TypeError):
        Preorder(ground)
    with pytest.raises(TypeError):
        Preorder(ground, (3, 2), rows=(3, 2))
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        p.rows = (3, 3)
    with pytest.raises(AttributeError, match="cannot delete field 'rows'"):
        del p.rows
    assert p.strict_up == (0, 1)  # cached properties still work


def test_relation_document_record_semantics():
    doc = RelationDocument(labels=("a", "b"), pairs=((0, 1),))
    assert doc.reflexive_closure and doc.transitive_closure
    assert doc.schema == "preorder-doc/1"
    same = RelationDocument(("a", "b"), ((0, 1),), True, True, "preorder-doc/1")
    assert doc == same and hash(doc) == hash(same)
    assert doc != RelationDocument(("a", "b"), ((0, 1),), transitive_closure=False)
    assert repr(doc) == (
        "RelationDocument(labels=('a', 'b'), pairs=((0, 1),), "
        "reflexive_closure=True, transitive_closure=True, "
        "schema='preorder-doc/1')")
    with pytest.raises(DocumentError):
        RelationDocument(labels=("a",), pairs=(), schema="preorder-doc/2")
    with pytest.raises(TypeError):
        RelationDocument(labels=("a",), pairs=(), colour="red")
    with pytest.raises(AttributeError):
        doc.labels = ("c",)


def test_approximation_report_record_semantics():
    ground, p = _pair()
    total = to_total(p)
    report = ApproximationReport(bca_set=(total,), distance=3, indices=(12,),
                                 method="duality")
    assert report.complete_set is True
    assert report == ApproximationReport((total,), 3, (12,), "duality", True)
    assert report != ApproximationReport((total,), 3, (12,), "duality", False)
    assert len({report, ApproximationReport((total,), 3, (12,), "duality")}) == 1
    assert repr(report) == (
        "ApproximationReport(bca_set=(TotalPreorder(ground=GroundSet("
        "labels=('a', 'b')), blocks=(1, 2)),), distance=3, indices=(12,), "
        "method='duality', complete_set=True)")
    with pytest.raises(AttributeError):
        report.distance = 0
