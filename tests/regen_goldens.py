"""Regenerate the committed CLI fixtures and golden outputs.

Run from the repository root:

    python3 tests/regen_goldens.py

Fixture documents are written as cover edges with both closures enabled.
Golden files freeze CLI output byte-for-byte; review the diff before
committing a regeneration.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import worked_examples as wx
from preorder_bca import cli
from preorder_bca.documents import RelationDocument, document_to_json

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = DATA / "fixtures"
GOLDEN = DATA / "golden"


def cover_document(labels, pairs) -> RelationDocument:
    pos = {lab: i for i, lab in enumerate(labels)}
    return RelationDocument(
        labels=tuple(labels),
        pairs=tuple((pos[hi], pos[lo]) for hi, lo in pairs),
        reflexive_closure=True,
        transitive_closure=True,
    )


FIXTURE_DOCS = {
    "ex1_base": cover_document(wx.X1, [("x1", "x2"), ("x2", "x3"),
                                          ("x3", "x4"), ("x4", "x5")]),
    "ex1_swap_top": cover_document(wx.X1, [("x2", "x1"), ("x1", "x3"),
                                              ("x3", "x4"), ("x4", "x5")]),
    "ex1_swap_bottom": cover_document(wx.X1, [("x1", "x2"), ("x2", "x3"),
                                                 ("x3", "x5"), ("x5", "x4")]),
    "ex2_base": cover_document(wx.X2, [("a", "a1"), ("a1", "a2")]),
    "ex4_base": cover_document(("x", "a1", "a2", "y"),
                               [("x", "a1"), ("x", "a2"),
                                ("a1", "y"), ("a2", "y")]),
    "ex4_c0": cover_document(("x", "a1", "a2", "y"),
                             [("x", "a1"), ("a1", "a2"), ("a2", "a1"),
                              ("a1", "y")]),
    "ex5_base": cover_document(wx.X2, [("a", "a1"), ("a", "a2")]),
    "ex6_fence": cover_document(wx.X6, [("x2", "x1"), ("x2", "x3"),
                                           ("x4", "x3"), ("x4", "x5"),
                                           ("x6", "x5")]),
    "ex6_crown": cover_document(wx.X6, [("x2", "x1"), ("x2", "x3"),
                                           ("x4", "x3"), ("x4", "x5"),
                                           ("x6", "x5"), ("x6", "x1")]),
    "ex7_k3": cover_document(("x", "a", "a1", "a2", "a3"),
                             [("a", "a1"), ("a", "a2"), ("a", "a3")]),
    "ex8_base": cover_document(wx.X8, [("alpha", "a"), ("alpha", "x"),
                                          ("a", "b"), ("a", "c"), ("a", "d"),
                                          ("x", "y")]),
    "ex8_c1": cover_document(
        wx.X8,
        [("alpha", "a"), ("a", "b"), ("b", "c"), ("c", "b"), ("c", "d"),
         ("d", "c"), ("d", "x"), ("x", "b"), ("x", "y")]),
    "chain3": cover_document(("x1", "x2", "x3"), [("x1", "x2"), ("x2", "x3")]),
    "indifferent3": cover_document(
        ("x1", "x2", "x3"),
        [("x1", "x2"), ("x2", "x1"), ("x2", "x3"), ("x3", "x2")]),
    "broken_transitivity": RelationDocument(
        labels=("a", "b", "c"),
        pairs=((0, 0), (1, 1), (2, 2), (0, 1), (1, 2)),
        reflexive_closure=False,
        transitive_closure=False,
    ),
}

GOLDEN_COMMANDS = {
    "ex2_bca.txt": ["bca", str(FIXTURES / "ex2_base.json"), "--method", "bruteforce"],
    "ex5_bca.txt": ["bca", str(FIXTURES / "ex5_base.json"), "--method", "auto"],
    "ex5_bca.json": ["--emit", "json", "bca", str(FIXTURES / "ex5_base.json"),
                     "--method", "auto"],
    "ex7_k3_condition_star.txt": ["condition-star", str(FIXTURES / "ex7_k3.json")],
    "ex8_c1_index.txt": ["index", str(FIXTURES / "ex8_c1.json")],
    "ex4_canonical.txt": ["canonical", str(FIXTURES / "ex4_base.json")],
    "ex2_base.dot": ["dot", str(FIXTURES / "ex2_base.json")],
    "ex4_base.dot": ["dot", str(FIXTURES / "ex4_base.json")],
    "ex4_c0.dot": ["dot", str(FIXTURES / "ex4_c0.json")],
    "ex5_base.dot": ["dot", str(FIXTURES / "ex5_base.json")],
    "ex6_crown.dot": ["dot", str(FIXTURES / "ex6_crown.json")],
    "ex6_fence.dot": ["dot", str(FIXTURES / "ex6_fence.json")],
    "ex8_base.dot": ["dot", str(FIXTURES / "ex8_base.json")],
    "chain3.dot": ["dot", str(FIXTURES / "chain3.json")],
    "indifferent3.dot": ["dot", str(FIXTURES / "indifferent3.json")],
    "generate_containment_z2.json": ["generate", "containment", "--z", "2"],
    "generate_coordinatewise_m2_pair.json": [
        "generate", "coordinatewise", "--m", "2", "--expected-bca"],
    "covering_radius_n3.txt": ["covering-radius", "--n", "3"],
}


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, doc in FIXTURE_DOCS.items():
        (FIXTURES / f"{name}.json").write_text(document_to_json(doc))
    for name, argv in GOLDEN_COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"golden command {name} exited {code}")
        (GOLDEN / name).write_text(out.getvalue())
    print(f"wrote {len(FIXTURE_DOCS)} fixtures, {len(GOLDEN_COMMANDS)} goldens")


if __name__ == "__main__":
    main()
