import json

import pytest
from hypothesis import given, strategies as st

import worked_examples as wx
from preorder_bca import (
    DocumentError,
    RelationDocument,
    ViolationError,
    document_from_relation,
    document_to_json,
    document_to_preorder,
    document_to_relation,
    parse_document,
    render_dot,
)
from worked_examples import spec


def test_parse_rejects_deep_nesting_and_lone_surrogate_labels():
    with pytest.raises(DocumentError, match="nests too deeply"):
        parse_document("[" * 100_000)
    text = json.dumps({"schema": "preorder-doc/1", "labels": ["a", "\ud800"],
                       "pairs": []})
    with pytest.raises(DocumentError, match="not valid Unicode"):
        parse_document(text)


def test_parse_minimal_document():
    doc = parse_document(json.dumps({
        "schema": "preorder-doc/1",
        "labels": ["a", "b"],
        "pairs": [[0, 1]],
        "reflexive_closure": True,
        "transitive_closure": True,
    }))
    p = document_to_preorder(doc)
    assert p.holds(0, 1) and not p.holds(1, 0)


def test_parse_rejects_bad_documents():
    with pytest.raises(DocumentError):
        parse_document("not json at all")
    with pytest.raises(DocumentError):
        parse_document(json.dumps({"schema": "preorder-doc/1", "labels": ["a"]}))
    with pytest.raises(DocumentError):
        parse_document(json.dumps(
            {"schema": "preorder-doc/2", "labels": ["a"], "pairs": []}))
    with pytest.raises(DocumentError):
        parse_document(json.dumps(
            {"schema": "preorder-doc/1", "labels": ["a", "a"], "pairs": []}))
    with pytest.raises(DocumentError):
        parse_document(json.dumps(
            {"schema": "preorder-doc/1", "labels": ["a"], "pairs": [[0, 3]]}))
    with pytest.raises(DocumentError):
        parse_document(json.dumps(
            {"schema": "preorder-doc/1", "labels": ["a"], "pairs": [[0, True]]}))


def test_parse_is_strict_about_field_types():
    base = {"schema": "preorder-doc/1", "labels": ["a", "b"], "pairs": [[0, 1]]}
    for field, value in (("reflexive_closure", "false"),
                         ("transitive_closure", 1),
                         ("reflexive_closure", None),
                         ("schema", 1),
                         ("schema", ["preorder-doc/1"])):
        with pytest.raises(DocumentError, match=field):
            parse_document(json.dumps({**base, field: value}))
    doc = parse_document(json.dumps({**base, "reflexive_closure": False}))
    assert doc.reflexive_closure is False and doc.transitive_closure is False


def test_parse_leaves_value_checks_to_the_record():
    # the schema is checked first; labels and pairs meet the record's checks
    # and messages, a bad pair entry shown as the list it was
    base = {"schema": "preorder-doc/1", "labels": ["a", "b"], "pairs": []}
    for fields, message in (({"schema": "x", "labels": 5}, "^unsupported schema: 'x'$"),
                            ({"labels": 5}, "^labels must be a list or tuple, got 5$"),
                            ({"labels": {"a": 1}}, "^labels must be a list or tuple"),
                            ({"labels": [1]}, "^labels must be a list of strings$"),
                            ({"pairs": "ab"}, "^pairs must be a list or tuple, got 'ab'$"),
                            ({"pairs": [[0, 1, 2]]}, r"^bad pair entry: \[0, 1, 2\]$"),
                            ({"pairs": [[0, 2]]}, r"^pair \(0, 2\) is out of range")):
        with pytest.raises(DocumentError, match=message):
            parse_document(json.dumps({**base, **fields}))
    assert parse_document(json.dumps({**base, "pairs": [[1, 0]]})).pairs == ((1, 0),)


def test_constructor_rejects_bad_pair_entries():
    for entry in ((0, 0, 0), ("0", 0), (True, 0), (0, False), [0, 1], (0,), 5):
        with pytest.raises(DocumentError, match="^bad pair entry: "):
            RelationDocument(labels=("a", "b"), pairs=(entry,))


def test_constructor_checks_labels_and_flags_as_parsing_does():
    for fields, message in (({"transitive_closure": "no"}, "transitive_closure must"),
                            ({"reflexive_closure": 1}, "reflexive_closure must"),
                            ({"labels": (1, 2)}, "labels must be a list of strings"),
                            ({"labels": ("a", "\ud800")}, "not valid Unicode")):
        with pytest.raises(DocumentError, match=message):
            RelationDocument(**{"labels": ("a", "b", "c"), "pairs": ((0, 1), (1, 2)),
                                **fields})
    # the containers are lists or tuples, stored as tuples, so the document
    # hashes; a string is not a list of labels
    for fields, message in (({"labels": 5}, "labels must be a list or tuple"),
                            ({"labels": "abc"}, "labels must be a list or tuple"),
                            ({"pairs": 5}, "pairs must be a list or tuple"),
                            ({"pairs": {(0, 1)}}, "pairs must be a list or tuple")):
        with pytest.raises(DocumentError, match=message):
            RelationDocument(**{"labels": ("a", "b", "c"), "pairs": (), **fields})
    doc = RelationDocument(labels=["a", "b"], pairs=[(0, 1)])
    assert doc == RelationDocument(labels=("a", "b"), pairs=((0, 1),))
    assert doc.labels == ("a", "b") and doc.pairs == ((0, 1),)
    assert hash(doc) == hash(RelationDocument(labels=("a", "b"), pairs=((0, 1),)))


def test_closures_applied():
    doc = RelationDocument(labels=("a", "b", "c"), pairs=((0, 1), (1, 2)),
                           reflexive_closure=True, transitive_closure=True)
    p = document_to_preorder(doc)
    assert p.holds(0, 2)

    raw = RelationDocument(labels=("a", "b", "c"), pairs=((0, 0), (1, 1), (2, 2), (0, 1), (1, 2)),
                           reflexive_closure=False, transitive_closure=False)
    with pytest.raises(ViolationError):
        document_to_preorder(raw)


def test_document_needs_reflexivity_when_closures_off():
    doc = RelationDocument(labels=("a",), pairs=(), reflexive_closure=False,
                           transitive_closure=False)
    with pytest.raises(DocumentError):
        document_to_relation(doc)


def test_roundtrip_worked_example():
    doc = document_from_relation(wx.example2_base())
    assert parse_document(document_to_json(doc)) == doc
    assert document_to_preorder(doc) == wx.example2_base()


@given(st.integers(2, 6), st.integers(0, 10**6), st.floats(0.1, 0.7))
def test_roundtrip_random_documents(n, seed, density):
    import random

    from conftest import random_preorder

    p = random_preorder(random.Random(seed), n, density)
    doc = document_from_relation(p)
    again = parse_document(document_to_json(doc))
    assert again == doc
    assert document_to_preorder(again) == p


def test_document_of_a_total_preorder():
    total = spec("containment", z=2).expected_bca()
    doc = document_from_relation(total)
    assert document_to_preorder(doc).rows == total.rows


def test_render_dot_chain():
    dot = render_dot(spec("chain", n=3).build())
    assert dot == (
        "digraph hasse {\n"
        "  rankdir=TB;\n"
        '  n0 [label="x1"];\n'
        '  n1 [label="x2"];\n'
        '  n2 [label="x3"];\n'
        "  n0 -> n1;\n"
        "  n1 -> n2;\n"
        "}\n"
    )


def test_render_dot_single_class():
    dot = render_dot(spec("indifferent", n=3).build())
    assert '  n0 [label="x1,x2,x3"];' in dot
    assert "->" not in dot


def test_render_dot_comma_label_and_class_stay_apart():
    # the element "a,b" and the class {a, b} share a label but not a node
    doc = RelationDocument(labels=("a,b", "a", "b", "c"),
                           pairs=((1, 2), (2, 1), (1, 3), (0, 3)),
                           reflexive_closure=True, transitive_closure=True)
    lines = render_dot(document_to_preorder(doc)).splitlines()
    nodes = [line for line in lines if "[label=" in line]
    edges = [line for line in lines if "->" in line]
    assert nodes == ['  n0 [label="a,b"];', '  n1 [label="a,b"];',
                     '  n2 [label="c"];']
    assert edges == ["  n0 -> n2;", "  n1 -> n2;"]
    assert len(set(edges)) == 2


def test_render_dot_stable():
    base = wx.example8_base()
    assert render_dot(base) == render_dot(base)
