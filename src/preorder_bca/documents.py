"""Relation documents: the JSON wire format and the DOT export.

A document carries labels plus an explicit pair list, with optional closure
flags so fixtures can be written either as Hasse edges (closures on) or as
full relations (closures off).  Emission is byte-stable: fixed key order,
two-space indent, trailing newline.

Every check on a document's values lives in the :class:`RelationDocument`
constructor, so JSON text and library callers meet the same checks with the
same messages.  :func:`parse_document` checks only the JSON text, that it
is an object with the three required fields, and the ``schema``, which a
document does not keep; it turns each ``[i, j]`` list into a tuple.
"""

from __future__ import annotations

import json
import reprlib

from ._record import record
from .core import (
    GroundSet,
    Preorder,
    Relation,
    _check_arguments,
    class_label,
    transitive_closure_rows,
    validate_preorder,
)
from .errors import BadParameter, DocumentError

SCHEMA = "preorder-doc/1"

_repr = reprlib.Repr()
_repr.maxstring = 60


def _short(value) -> str:
    """repr of an offending input value for an error message: short values
    keep their repr, large or deeply nested ones are cut to 80 characters."""
    text = _repr.repr(value)
    return text if len(text) <= 80 else text[:40] + "..." + text[-37:]


def _is_pair(entry, kind: type) -> bool:
    """Whether ``entry`` is a ``kind`` (tuple or list) of two integers;
    booleans are not integers here."""
    return (isinstance(entry, kind) and len(entry) == 2 and all(
        isinstance(t, int) and not isinstance(t, bool) for t in entry))


@record
class RelationDocument:
    labels: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    reflexive_closure: bool = True
    transitive_closure: bool = True

    def __post_init__(self):
        for name, value in (("labels", self.labels), ("pairs", self.pairs)):
            if not isinstance(value, (tuple, list)):
                raise DocumentError(f"{name} must be a list or tuple, got {_short(value)}")
            object.__setattr__(self, name, tuple(value))
        if not all(isinstance(s, str) for s in self.labels):
            raise DocumentError("labels must be a list of strings")
        for label in self.labels:
            try:
                label.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DocumentError(f"label {_short(label)} is not valid Unicode "
                                    f"text (lone surrogate)") from exc
        if not self.labels:
            raise DocumentError("document needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise DocumentError("document labels must be distinct")
        n = len(self.labels)
        for pair in self.pairs:
            if not _is_pair(pair, tuple):
                raise DocumentError(f"bad pair entry: {_short(pair)}")
            i, j = pair
            if not (0 <= i < n and 0 <= j < n):
                raise DocumentError(f"pair {_short(pair)} is out of range for "
                                    f"{n} labels")
        for name in ("reflexive_closure", "transitive_closure"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise DocumentError(f"{name} must be true or false, got "
                                    f"{_short(value)}")


def parse_document(text: str) -> RelationDocument:
    """Parse JSON text into a document; raises DocumentError on any defect."""
    _check_arguments(text, str, DocumentError)
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("JSON nests too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    try:
        schema = raw["schema"]
        labels = raw["labels"]
        pairs = raw["pairs"]
    except KeyError as exc:
        raise DocumentError(f"missing document field: {exc}") from exc
    if not isinstance(schema, str):
        raise DocumentError(f"schema must be a string, got {_short(schema)}")
    if schema != SCHEMA:
        raise DocumentError(f"unsupported schema: {_short(schema)}")
    if isinstance(pairs, list):  # JSON pairs are lists; the record's are tuples
        pairs = [tuple(p) if _is_pair(p, list) else p for p in pairs]
    return RelationDocument(labels, pairs, raw.get("reflexive_closure", False),
                            raw.get("transitive_closure", False))


def document_payload(doc: RelationDocument) -> dict:
    """The document as the JSON object it is written as."""
    _check_arguments(doc, RelationDocument, DocumentError)
    return {
        "schema": SCHEMA,
        "labels": list(doc.labels),
        "pairs": [list(p) for p in doc.pairs],
        "reflexive_closure": doc.reflexive_closure,
        "transitive_closure": doc.transitive_closure,
    }


def document_to_json(doc: RelationDocument) -> str:
    return json.dumps(document_payload(doc), indent=2) + "\n"


def document_to_relation(doc: RelationDocument) -> Relation:
    """Apply the requested closures and return the raw relation.

    The result may still violate transitivity when closures are off; run it
    through validation to obtain a preorder.
    """
    _check_arguments(doc, RelationDocument, DocumentError)
    n = len(doc.labels)
    rows = [0] * n
    for i, j in doc.pairs:
        rows[i] |= 1 << j
    if doc.reflexive_closure:
        for i in range(n):
            rows[i] |= 1 << i
    if doc.transitive_closure:
        rows = transitive_closure_rows(rows)
    try:
        return Relation(GroundSet(tuple(doc.labels)), tuple(rows))
    except BadParameter as exc:
        raise DocumentError(str(exc)) from exc


def document_to_preorder(doc: RelationDocument) -> Preorder:
    return validate_preorder(document_to_relation(doc))


def document_from_relation(rel: Relation) -> RelationDocument:
    """Document with the full off-diagonal pair list, closures marked done."""
    _check_arguments(rel, Relation)
    pairs = [(i, j) for i, j in rel.pairs() if i != j]
    return RelationDocument(
        labels=rel.ground.labels,
        pairs=tuple(sorted(pairs)),
        reflexive_closure=True,
        transitive_closure=False,
    )


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(p: Preorder, name: str = "hasse") -> str:
    """Graphviz digraph of the Hasse diagram, one node per indifference
    class, edges pointing downward; byte-stable.  Node ``n<c>`` is class
    ``c`` of the quotient, labelled with its members' labels, so labels that
    contain commas cannot merge two nodes."""
    _check_arguments(p)
    q = p.quotient
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    lines.extend(f"  n{c} [label={_dot_quote(class_label(p, cls))}];"
                 for c, cls in enumerate(q.classes))
    lines.extend(f"  n{upper} -> n{lower};" for upper, lower in q.covers())
    lines.append("}")
    return "\n".join(lines) + "\n"
