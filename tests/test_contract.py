"""The argument contract: every public function and input record, given a
value of the wrong type in place of a preorder, relation, ground set,
document or int, raises a package error, ``DocumentError`` where a document
is due and ``BadParameter`` everywhere else.  The test walks
``preorder_bca.__all__``, so a new public name cannot skip it."""

import inspect
from collections.abc import Iterator

import pytest

import preorder_bca as pb
from worked_examples import spec

CHAIN = spec("chain", n=3).build()
DOC = pb.document_from_relation(CHAIN)

# a valid value for every required parameter of the public API, by name
VALID = {
    **dict.fromkeys(("p", "q", "base", "cand", "rel"), CHAIN),
    "ground": CHAIN.ground, "labels": CHAIN.ground.labels, "rows": CHAIN.rows,
    "blocks": pb.to_total(CHAIN).blocks, "doc": DOC, "pairs": DOC.pairs,
    "text": pb.document_to_json(DOC), "x": 0, "s": 1, "sizes": [1, 2],
    "kind": "chain", "params": {"n": 3},
}

# the wrong values put in place of each argument: 3 for a preorder, relation,
# ground set or document, "x" and True for an int
WRONG = {
    **dict.fromkeys(("p", "q", "base", "cand", "rel", "ground", "labels", "doc",
                     "text"), (3,)),
    **dict.fromkeys(("x", "s", "max_n", "max_classes", "max_layer"), ("x", True)),
    "sizes": (["x"], [True]),
    "params": ({"n": "x"}, {"n": True}),
}

DOCUMENT_INPUTS = {"RelationDocument", "document_to_json", "document_to_preorder",
                   "document_to_relation", "parse_document"}

# ``Mask`` is ``int``; the report records are outputs that no function takes
EXEMPT = {"Mask", "ApproximationReport", "ConditionStarReport",
          "ConditionStarWitness", "CoveringRadiusReport", "StrictCompletionReport"}

PUBLIC = sorted(name for name in pb.__all__ if name not in EXEMPT and not (
    isinstance(getattr(pb, name), type) and issubclass(getattr(pb, name), Exception)))

_REQUIRED = object()


def _parameters(target) -> list[tuple[str, object]]:
    """(name, default or _REQUIRED) for each parameter of a function or the
    fields of a record."""
    if hasattr(target, "__record__"):
        names, defaults, _ = target.__record__
        return [(name, defaults.get(name, _REQUIRED)) for name in names]
    return [(name, _REQUIRED if p.default is p.empty else p.default)
            for name, p in inspect.signature(target).parameters.items()]


def _call(target, arguments: dict) -> None:
    """Call ``target`` and iterate any stream it returns."""
    result = target(**arguments)
    if isinstance(result, (Iterator, pb.CompletionStream)):
        list(result)


def test_six_error_classes():
    from preorder_bca import errors

    six = {"PreorderBcaError", "BadParameter", "ViolationError", "NotTotal",
           "TooLarge", "DocumentError"}
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == set(pb._EXPORTS["errors"]) == six
    assert all(issubclass(getattr(pb, name), pb.PreorderBcaError) for name in six)
    assert issubclass(pb.ViolationError, pb.BadParameter)
    assert issubclass(pb.NotTotal, pb.BadParameter)


def test_exemptions_are_public_names():
    assert EXEMPT <= set(pb.__all__)
    assert DOCUMENT_INPUTS <= set(PUBLIC)


@pytest.mark.parametrize("name", PUBLIC)
def test_wrong_typed_arguments_raise_a_package_error(name):
    target = getattr(pb, name)
    parameters = _parameters(target)
    valid = {p: VALID[p] if default is _REQUIRED else default
             for p, default in parameters}
    _call(target, valid)  # so each failure below is the wrong value's
    expected = pb.DocumentError if name in DOCUMENT_INPUTS else pb.BadParameter
    replaced = [p for p, _ in parameters if p in WRONG]
    assert replaced, f"{name} takes no argument the contract checks"
    failures = []
    for p in replaced:
        for wrong in WRONG[p]:
            try:
                _call(target, {**valid, p: wrong})
            except expected:
                continue
            except Exception as exc:
                failures.append(f"{p}={wrong!r}: {type(exc).__name__}: {exc}")
            else:
                failures.append(f"{p}={wrong!r}: no error")
    assert failures == []
