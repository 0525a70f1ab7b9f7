"""Package surface: lazy public names, what the CLI imports at start-up, and
the frozen-record semantics of the public value classes."""

import json
import os
import pathlib
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

SRC = str(pathlib.Path(preorder_bca.__file__).resolve().parents[1])


def test_cli_import_loads_no_solver_stack():
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import preorder_bca.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "preorder_bca.cli" in loaded
    for heavy in ("dataclasses", "preorder_bca.solver", "preorder_bca.families",
                  "preorder_bca.scoring", "preorder_bca.metrics",
                  "preorder_bca.completions"):
        assert heavy not in loaded, heavy


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
