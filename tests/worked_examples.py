"""The worked examples used across the test modules.

Relations are built from cover/strict pair lists through an independent
reflexive-transitive closure (plain triple loop) so fixture construction does
not lean on the library's own closure code.
"""

from __future__ import annotations

from preorder_bca import (FamilySpec, GroundSet, Preorder, Relation, TotalPreorder,
                          validate_preorder)
from preorder_bca.core import class_label


def spec(kind: str, **params: int) -> FamilySpec:
    return FamilySpec(kind, params)


def cover_labels(p: Preorder) -> tuple[tuple[str, str], ...]:
    """``p.quotient.covers()``, the edges ``render_dot`` draws, as sorted
    (upper, lower) pairs of class labels."""
    classes = p.quotient.classes
    return tuple(sorted((class_label(p, classes[a]), class_label(p, classes[b]))
                        for a, b in p.quotient.covers()))


def closure_preorder(labels, strict_pairs) -> Preorder:
    """Reflexive-transitive closure of the given (upper, lower) label pairs."""
    labels = tuple(labels)
    n = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    holds = [[i == j for j in range(n)] for i in range(n)]
    for hi, lo in strict_pairs:
        holds[pos[hi]][pos[lo]] = True
    for k in range(n):
        for i in range(n):
            if holds[i][k]:
                for j in range(n):
                    if holds[k][j]:
                        holds[i][j] = True
    rows = tuple(sum(1 << j for j in range(n) if holds[i][j]) for i in range(n))
    return validate_preorder(Relation(GroundSet(labels), rows))


def converse(p: Preorder) -> Preorder:
    """The converse order, x >= y iff y >= x in ``p``, by a plain pair loop."""
    n = p.n
    rows = tuple(sum(1 << j for j in range(n) if p.holds(j, i)) for i in range(n))
    return Preorder(p.ground, rows)


def total(labels, *blocks) -> TotalPreorder:
    labels = tuple(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    masks = []
    for block in blocks:
        masks.append(sum(1 << pos[lab] for lab in block))
    return TotalPreorder(GroundSet(labels), tuple(masks))


X1 = ("x1", "x2", "x3", "x4", "x5")


def example1_base() -> Preorder:
    return closure_preorder(X1, [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")])


def example1_swap_top() -> Preorder:
    return closure_preorder(X1, [("x2", "x1"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5")])


def example1_swap_bottom() -> Preorder:
    return closure_preorder(X1, [("x1", "x2"), ("x2", "x3"), ("x3", "x5"), ("x5", "x4")])


X2 = ("x", "a", "a1", "a2")


def example2_base() -> Preorder:
    return closure_preorder(X2, [("a", "a1"), ("a1", "a2")])


def example2_completions() -> list[TotalPreorder]:
    t = lambda *blocks: total(X2, *blocks)
    return [
        t(("a", "x"), ("a1",), ("a2",)),
        t(("a",), ("a1", "x"), ("a2",)),
        t(("a",), ("a1",), ("a2", "x")),
        t(("x",), ("a",), ("a1",), ("a2",)),
        t(("a",), ("x",), ("a1",), ("a2",)),
        t(("a",), ("a1",), ("x",), ("a2",)),
        t(("a",), ("a1",), ("a2",), ("x",)),
    ]


def example3_base() -> Preorder:
    return closure_preorder(X2, [("a", "x"), ("a", "a1"), ("a1", "a2")])


def example3_maximal() -> list[TotalPreorder]:
    return [
        total(X2, ("a",), ("a1", "x"), ("a2",)),
        total(X2, ("a",), ("a1",), ("a2", "x")),
    ]


def example4_base(k: int = 2) -> Preorder:
    labels = ("x",) + tuple(f"a{i}" for i in range(1, k + 1)) + ("y",)
    pairs = [("x", f"a{i}") for i in range(1, k + 1)]
    pairs += [(f"a{i}", "y") for i in range(1, k + 1)]
    return closure_preorder(labels, pairs)


def example4_answer(k: int = 2) -> TotalPreorder:
    labels = ("x",) + tuple(f"a{i}" for i in range(1, k + 1)) + ("y",)
    return total(labels, ("x",), tuple(f"a{i}" for i in range(1, k + 1)), ("y",))


def example5_base() -> Preorder:
    return closure_preorder(X2, [("a", "a1"), ("a", "a2")])


def example5_maximal() -> list[TotalPreorder]:
    return [
        total(X2, ("a", "x"), ("a1", "a2")),
        total(X2, ("a",), ("a1", "a2", "x")),
    ]


X6 = tuple(f"x{i}" for i in range(1, 7))


def example6_fence() -> Preorder:
    return closure_preorder(
        X6, [("x2", "x1"), ("x2", "x3"), ("x4", "x3"), ("x4", "x5"), ("x6", "x5")])


def example6_crown() -> Preorder:
    return closure_preorder(
        X6, [("x2", "x1"), ("x2", "x3"), ("x4", "x3"), ("x4", "x5"),
             ("x6", "x5"), ("x6", "x1")])


def example6_answer() -> TotalPreorder:
    return total(X6, ("x2", "x4", "x6"), ("x1", "x3", "x5"))


def example7_base(k: int) -> Preorder:
    labels = ("x", "a") + tuple(f"a{i}" for i in range(1, k + 1))
    return closure_preorder(labels, [("a", f"a{i}") for i in range(1, k + 1)])


def example7_completions(k: int) -> tuple[TotalPreorder, TotalPreorder]:
    labels = ("x", "a") + tuple(f"a{i}" for i in range(1, k + 1))
    bottom = tuple(f"a{i}" for i in range(1, k + 1))
    c0 = total(labels, ("a", "x"), bottom)
    c1 = total(labels, ("a",), ("x",) + bottom)
    return c0, c1


X8 = ("alpha", "x", "y", "a", "b", "c", "d")


def example8_base() -> Preorder:
    return closure_preorder(
        X8, [("alpha", "a"), ("alpha", "x"), ("a", "b"), ("a", "c"),
             ("a", "d"), ("x", "y")])


def example8_named() -> list[TotalPreorder]:
    t = lambda *blocks: total(X8, *blocks)
    return [
        t(("alpha",), ("a", "x"), ("b", "c", "d", "y")),
        t(("alpha",), ("a",), ("b", "c", "d", "x"), ("y",)),
        t(("alpha",), ("x",), ("a", "y"), ("b", "c", "d")),
    ]


def three_member_tie_base() -> Preorder:
    # ten elements: a1 > a2 ~ a3 > a4 ~ ... ~ a9 with x incomparable to all
    labels = ("x",) + tuple(f"a{i}" for i in range(1, 10))
    pairs = [("a1", f"a{i}") for i in range(2, 10)]
    pairs += [(f"a{i}", f"a{j}") for i in (2, 3) for j in range(4, 10)]
    pairs += [("a2", "a3"), ("a3", "a2")]
    pairs += [(f"a{i}", f"a{j}") for i in range(4, 10) for j in range(4, 10) if i != j]
    return closure_preorder(labels, pairs)


def three_member_tie_completions() -> list[TotalPreorder]:
    labels = ("x",) + tuple(f"a{i}" for i in range(1, 10))
    low = tuple(f"a{i}" for i in range(4, 10))
    t = lambda *blocks: total(labels, *blocks)
    return [
        t(("a1", "x"), ("a2", "a3"), low),
        t(("a1",), ("a2", "a3", "x"), low),
        t(("a1",), ("a2", "a3"), low + ("x",)),
    ]


def fubini(n: int) -> int:
    # a(n) = sum_k C(n,k) a(n-k), a(0) = 1
    from math import comb

    table = [1]
    for m in range(1, n + 1):
        table.append(sum(comb(m, k) * table[m - k] for k in range(1, m + 1)))
    return table[n]
