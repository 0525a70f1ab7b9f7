import pytest
from hypothesis import given, strategies as st

import worked_examples as wx
from preorder_bca import (
    EmptySubset,
    GroundSet,
    NotTotal,
    Preorder,
    Relation,
    TotalPreorder,
    ViolationError,
    down_set,
    enumerate_preorders,
    hasse_edges,
    incomparable_witness,
    is_completion,
    is_total,
    layers,
    maximal_elements,
    to_total,
    validate_preorder,
)
from preorder_bca import families
from preorder_bca.core import iter_bits, mask_of
from conftest import random_preorder
from quotient_oracle import restrict


def test_ground_set_rejects_duplicates_and_bad_sizes():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))
    with pytest.raises(ValueError):
        GroundSet(())
    with pytest.raises(ValueError):
        GroundSet(tuple(f"x{i}" for i in range(65)))


def test_construction_checks_raise_invalid_relation():
    from preorder_bca import InvalidRelation, PreorderBcaError

    assert issubclass(InvalidRelation, PreorderBcaError)
    assert issubclass(InvalidRelation, ValueError)
    ground = GroundSet(("a", "b"))
    with pytest.raises(InvalidRelation):
        GroundSet(tuple(f"x{i}" for i in range(65)))
    with pytest.raises(InvalidRelation):
        Relation(ground, (0b11,))
    with pytest.raises(InvalidRelation):
        TotalPreorder(ground, (0b01,))
    for labels in ("ab", ("a", 1), 5, None):
        with pytest.raises(InvalidRelation, match="list or tuple of strings"):
            GroundSet(labels)
    assert GroundSet(["a", "b"]) == ground


_AB = GroundSet(("a", "b"))


@pytest.mark.parametrize("build, message", [
    (lambda: Relation(_AB, 5), "rows must be a list or tuple of ints"),
    (lambda: TotalPreorder(_AB, 5), "blocks must be a list or tuple of ints"),
    (lambda: Preorder(_AB, None), "rows must be a list or tuple of ints"),
    (lambda: Relation("ab", (1, 2)), "ground must be a GroundSet, got str"),
    (lambda: TotalPreorder(None, (3,)), "ground must be a GroundSet, got NoneType"),
    (lambda: Relation(_AB, (1, 2.0)), "rows must be a list or tuple of ints"),
    (lambda: Preorder(_AB, (True, 2)), "rows must be a list or tuple of ints"),
    (lambda: TotalPreorder(_AB, ("1", 2)), "blocks must be a list or tuple of ints"),
    (lambda: TotalPreorder(_AB, (1, True)), "blocks must be a list or tuple of ints"),
], ids=["relation-int", "total-int", "preorder-none", "relation-str-ground",
        "total-none-ground", "row-float", "row-bool", "block-str", "block-bool"])
def test_malformed_arguments_raise_invalid_relation(build, message):
    from preorder_bca import InvalidRelation

    with pytest.raises(InvalidRelation, match=message):
        build()


def test_relation_requires_reflexivity():
    with pytest.raises(ValueError):
        Relation(GroundSet(("a", "b")), (0b01, 0b01))


def test_validate_identity_is_preorder():
    rel = Relation(GroundSet(("a", "b", "c")), (0b001, 0b010, 0b100))
    p = validate_preorder(rel)
    assert isinstance(p, Preorder)


def test_validate_reports_transitivity_witness():
    rel = Relation(GroundSet(("a", "b", "c")), (0b011, 0b110, 0b100))
    with pytest.raises(ViolationError) as err:
        validate_preorder(rel)
    assert ("transitivity", 0, 1, 2) in err.value.witnesses


def test_validate_fence_closure():
    assert wx.example6_fence().n == 6  # construction validates


def test_asymmetric_and_symmetric_parts():
    # the strict down-sets are the asymmetric part, the indifference
    # classes the symmetric one
    eq = families.equality(3)
    assert eq.strict_down == (0, 0, 0)
    assert eq.quotient.classes == (0b001, 0b010, 0b100)

    chain = families.chain(3)
    assert sum(m.bit_count() for m in chain.strict_down) == 3

    indiff = families.indifferent(3)
    assert indiff.strict_down == (0, 0, 0)
    assert indiff.quotient.classes == (0b111,)


def test_restrict_chain_and_identity():
    chain = families.chain(3)  # x1 > x2 > x3
    sub = restrict(chain, mask_of([0, 2]))
    assert sub.ground.labels == ("x1", "x3")
    assert sub.holds(0, 1) and not sub.holds(1, 0)
    assert restrict(chain, chain.ground.full_mask) == chain


def test_restrict_example3():
    ex3 = wx.example3_base()
    idx = {lab: i for i, lab in enumerate(ex3.ground.labels)}
    sub = restrict(ex3, mask_of([idx["a1"], idx["a2"]]))
    assert sub.ground.labels == ("a1", "a2")
    assert sub.holds(0, 1) and not sub.holds(1, 0)


def test_maximal_elements_examples():
    ex2 = wx.example2_base()
    labels = ex2.ground.labels
    m = maximal_elements(ex2, ex2.ground.full_mask)
    assert ex2.ground.label_set(m) == ("a", "x")

    ex1 = wx.example1_base()
    s = mask_of([3, 4])  # {x4, x5}
    assert ex1.ground.label_set(maximal_elements(ex1, s)) == ("x4",)

    with pytest.raises(EmptySubset):
        maximal_elements(ex2, 0)
    assert labels == ("x", "a", "a1", "a2")

    # every nonempty menu has a maximal element
    for p in enumerate_preorders(GroundSet(("a", "b", "c", "d"))):
        assert all(maximal_elements(p, s) for s in range(1, 16))


def test_down_up_sets():
    chain = families.chain(4)  # x1 top .. x4 bottom; x_i has i elements above-eq
    for i in range(4):
        assert down_set(chain, i).bit_count() == 4 - i
        assert chain.strict_up[i].bit_count() == i

    indiff = families.indifferent(3)
    for x in range(3):
        assert indiff.strict_up[x] == 0

    # the four middle elements of the second named completion of the
    # seven-element example each weakly dominate five elements
    c1 = wx.example8_named()[1].as_preorder
    idx = {lab: i for i, lab in enumerate(c1.ground.labels)}
    for lab in ("b", "c", "d", "x"):
        assert down_set(c1, idx[lab]).bit_count() == 5


def test_layers():
    cont = families.containment_order(3)
    assert tuple(m.bit_count() for m in layers(cont)) == (1, 3, 3, 1)

    indiff = families.indifferent(4)
    assert layers(indiff) == (indiff.ground.full_mask,)

    ex7 = wx.example7_base(2)
    lay = layers(ex7)
    assert ex7.ground.label_set(lay[0]) == ("a", "x")
    assert ex7.ground.label_set(lay[1]) == ("a1", "a2")


def test_layers_partition_random(rng):
    for _ in range(30):
        p = random_preorder(rng, 6)
        lay = layers(p)
        seen = 0
        for m in lay:
            assert m and m & seen == 0
            seen |= m
        assert seen == p.ground.full_mask


def test_totality():
    assert is_total(families.chain(4))
    assert to_total(families.chain(4)).block_sizes() == (1, 1, 1, 1)

    ex5 = wx.example5_base()
    assert not is_total(ex5)
    witness = incomparable_witness(ex5)
    assert witness is not None
    i, j = witness
    assert {ex5.ground.labels[i], ex5.ground.labels[j]} == {"x", "a"}
    with pytest.raises(NotTotal):
        to_total(ex5)

    ex4_answer = wx.example4_answer()
    got = to_total(ex4_answer.as_preorder)
    assert got == ex4_answer


def test_total_roundtrip_small():
    from preorder_bca import enumerate_total_preorders

    ground = GroundSet(("a", "b", "c", "d"))
    for t in enumerate_total_preorders(ground):
        assert to_total(t.as_preorder) == t


def test_is_completion():
    eq = families.equality(3)
    from preorder_bca import enumerate_total_preorders

    for t in enumerate_total_preorders(eq.ground):
        assert is_completion(t, eq)

    ex2 = wx.example2_base()
    for c in wx.example2_completions():
        assert is_completion(c, ex2)

    # reversing a strict pair of the base is not a completion
    bad = wx.total(wx.X2, ("a2",), ("a1",), ("a",), ("x",))
    assert not is_completion(bad, ex2)


def test_self_completion_of_totals():
    from preorder_bca import enumerate_total_preorders

    ground = GroundSet(("a", "b", "c", "d"))
    for t in enumerate_total_preorders(ground):
        assert is_completion(t, t.as_preorder)
    for t in (families.cardinality_ordering(2), families.sum_ordering(2),
              wx.example4_answer()):
        assert is_completion(t, t.as_preorder)


def test_hasse_edges():
    chain = families.chain(3)
    assert hasse_edges(chain) == (("x1", "x2"), ("x2", "x3"))

    crown = families.crown(6)
    assert len(hasse_edges(crown)) == 6

    fence = families.fence(6)
    assert len(hasse_edges(fence)) == 5

    indiff = families.indifferent(3)
    assert hasse_edges(indiff) == ()

    ex4 = wx.example4_answer().as_preorder
    assert hasse_edges(ex4) == (("a1,a2", "y"), ("x", "a1,a2"))


@given(st.integers(1, 6), st.data())
def test_restrict_of_preorder_validates(n, data):
    import random as _random

    p = random_preorder(_random.Random(data.draw(st.integers(0, 10**6))), n)
    members = data.draw(st.integers(1, p.ground.full_mask))
    sub = restrict(p, members)
    assert validate_preorder(Relation(sub.ground, sub.rows)) == sub
    assert sub.ground.labels == tuple(
        p.ground.labels[i] for i in iter_bits(members))
