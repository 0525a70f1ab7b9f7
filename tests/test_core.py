import re

import pytest
from hypothesis import given, strategies as st

import worked_examples as wx
import preorder_bca as pb
from preorder_bca import (
    BadParameter,
    GroundSet,
    NotTotal,
    Preorder,
    Relation,
    TotalPreorder,
    ViolationError,
    down_set,
    enumerate_preorders,
    enumerate_total_preorders,
    incomparable_witness,
    is_completion,
    is_total,
    layers,
    maximal_elements,
    to_total,
    validate_preorder,
)
from preorder_bca.core import iter_bits, mask_of
from conftest import random_preorder
from worked_examples import spec
from quotient_oracle import restrict


def test_ground_set_rejects_duplicates_and_bad_sizes():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))
    with pytest.raises(ValueError):
        GroundSet(())
    with pytest.raises(ValueError):
        GroundSet(tuple(f"x{i}" for i in range(65)))


def test_construction_checks_raise_invalid_relation():
    from preorder_bca import PreorderBcaError

    assert issubclass(BadParameter, PreorderBcaError)
    assert issubclass(BadParameter, ValueError)
    ground = GroundSet(("a", "b"))
    with pytest.raises(BadParameter, match=r"^ground set size must be in 1\.\.64, got 65$"):
        GroundSet(tuple(f"x{i}" for i in range(65)))
    with pytest.raises(BadParameter, match="^row count does not match ground set size$"):
        Relation(ground, (0b11,))
    with pytest.raises(BadParameter, match="^blocks do not partition the ground set$"):
        TotalPreorder(ground, (0b01,))
    for labels in ("ab", ("a", 1), 5, None):
        with pytest.raises(BadParameter, match="^ground set labels must be a list "
                                               "or tuple of strings$"):
            GroundSet(labels)
    assert GroundSet(["a", "b"]) == ground


_AB = GroundSet(("a", "b"))


@pytest.mark.parametrize("build, message, error", [
    (lambda: Relation(_AB, 5), "relation rows must be a list or tuple of ints", BadParameter),
    (lambda: TotalPreorder(_AB, 5),
     "total preorder blocks must be a list or tuple of ints", BadParameter),
    (lambda: Preorder(_AB, None), "relation rows must be a list or tuple of ints", BadParameter),
    (lambda: Relation("ab", (1, 2)), "ground must be a GroundSet, got str", BadParameter),
    (lambda: TotalPreorder(None, (3,)), "ground must be a GroundSet, got NoneType", BadParameter),
    (lambda: Relation(_AB, (1, 2.0)),
     "relation rows must be a list or tuple of ints", BadParameter),
    (lambda: Preorder(_AB, (True, 2)),
     "relation rows must be a list or tuple of ints", BadParameter),
    (lambda: TotalPreorder(_AB, ("1", 2)),
     "total preorder blocks must be a list or tuple of ints", BadParameter),
    (lambda: TotalPreorder(_AB, (1, True)),
     "total preorder blocks must be a list or tuple of ints", BadParameter),
    (lambda: list(enumerate_preorders(3)), "ground must be a GroundSet, got int", BadParameter),
    (lambda: list(pb.enumerate_total_preorders(3)),
     "ground must be a GroundSet, got int", BadParameter),
    (lambda: pb.covering_radius(3), "ground must be a GroundSet, got int", BadParameter),
    (lambda: validate_preorder((1, 2)), "expected a Relation, got tuple", BadParameter),
    (lambda: Relation(_AB, (1, 6)), "row 1 has bits outside the ground set", BadParameter),
    (lambda: TotalPreorder(_AB, (3, 0)), "empty block in total preorder", BadParameter),
    (lambda: TotalPreorder(_AB, (3, 1)), "overlapping blocks in total preorder", BadParameter),
    (lambda: GroundSet(("a",), "x"),
     "GroundSet() takes 1 positional arguments but 2 were given", TypeError),
], ids=["relation-int", "total-int", "preorder-none", "relation-str-ground",
        "total-none-ground", "row-float", "row-bool", "block-str", "block-bool",
        "enumerate-preorders-int", "enumerate-totals-int", "covering-radius-int",
        "validate-tuple", "row-outside-ground", "total-empty-block",
        "total-overlapping-blocks", "record-extra-positional"])
def test_malformed_arguments_raise_invalid_relation(build, message, error):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("call, message", [
    (lambda p: maximal_elements(p, -1), "menu -1 is not a subset of the ground set"),
    (lambda p: maximal_elements(p, 1 << 70), "is not a subset of the ground set"),
    (lambda p: maximal_elements(p, "x"), "menu 'x' is not a subset of the ground set"),
    (lambda p: maximal_elements(p, 2.0), "menu 2.0 is not a subset of the ground set"),
    (lambda p: maximal_elements(p, True), "menu True is not a subset of the ground set"),
    (lambda p: down_set(p, 99), "element 99 is not in 0..2"),
    (lambda p: down_set(p, 1.0), "element 1.0 is not in 0..2"),
    (lambda p: down_set(p, True), "element True is not in 0..2"),
    (lambda p: pb.score(p, 99), "element 99 is not in 0..2"),
], ids=["menu-negative", "menu-wide", "menu-str", "menu-float", "menu-bool",
        "down-set", "down-set-float", "down-set-bool", "score"])
def test_out_of_range_arguments_raise_bad_parameter(call, message):
    with pytest.raises(BadParameter, match=message):
        call(spec("chain", n=3).build())


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
    eq = spec("equality", n=3).build()
    assert eq.strict_down == (0, 0, 0)
    assert eq.quotient.classes == (0b001, 0b010, 0b100)

    chain = spec("chain", n=3).build()
    assert sum(m.bit_count() for m in chain.strict_down) == 3

    indiff = spec("indifferent", n=3).build()
    assert indiff.strict_down == (0, 0, 0)
    assert indiff.quotient.classes == (0b111,)


def test_derived_views_match_their_definitions():
    # every preorder and every total preorder with n <= 4, each view against
    # a plain pair loop over ``holds``
    count = 0
    for n in range(1, 5):
        ground = GroundSet(tuple(f"x{i}" for i in range(n)))
        for p in (*enumerate_preorders(ground), *enumerate_total_preorders(ground)):
            ge = [[p.holds(a, b) for b in range(n)] for a in range(n)]
            assert p.strict_up == tuple(
                mask_of(a for a in range(n) if ge[a][x] and not ge[x][a]) for x in range(n))
            assert p.strict_down == tuple(
                mask_of(a for a in range(n) if ge[x][a] and not ge[a][x]) for x in range(n))
            # classes by smallest member
            assert p.quotient.classes == tuple(
                mask_of(a for a in range(n) if ge[x][a] and ge[a][x]) for x in range(n)
                if not any(ge[x][a] and ge[a][x] for a in range(x)))
            assert incomparable_witness(p) == next(
                ((x, a) for x in range(n) for a in range(n)
                 if not ge[x][a] and not ge[a][x]), None)
            count += 1
    assert count == (1 + 4 + 29 + 355) + (1 + 3 + 13 + 75)


def test_restrict_chain_and_identity():
    chain = spec("chain", n=3).build()  # x1 > x2 > x3
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

    with pytest.raises(BadParameter, match="^maxima are defined only for nonempty menus$"):
        maximal_elements(ex2, 0)
    assert labels == ("x", "a", "a1", "a2")

    # every nonempty menu has a maximal element
    for p in enumerate_preorders(GroundSet(("a", "b", "c", "d"))):
        assert all(maximal_elements(p, s) for s in range(1, 16))


def test_down_up_sets():
    chain = spec("chain", n=4).build()  # x1 top .. x4 bottom; x_i has i elements above-eq
    for i in range(4):
        assert down_set(chain, i).bit_count() == 4 - i
        assert chain.strict_up[i].bit_count() == i

    indiff = spec("indifferent", n=3).build()
    for x in range(3):
        assert indiff.strict_up[x] == 0

    # the four middle elements of the second named completion of the
    # seven-element example each weakly dominate five elements
    c1 = wx.example8_named()[1]
    idx = {lab: i for i, lab in enumerate(c1.ground.labels)}
    for lab in ("b", "c", "d", "x"):
        assert down_set(c1, idx[lab]).bit_count() == 5


def test_layers():
    cont = spec("containment", z=3).build()
    assert tuple(m.bit_count() for m in layers(cont)) == (1, 3, 3, 1)

    indiff = spec("indifferent", n=4).build()
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
    assert is_total(spec("chain", n=4).build())
    assert to_total(spec("chain", n=4).build()).block_sizes() == (1, 1, 1, 1)

    ex5 = wx.example5_base()
    assert not is_total(ex5)
    witness = incomparable_witness(ex5)
    assert witness is not None
    i, j = witness
    assert {ex5.ground.labels[i], ex5.ground.labels[j]} == {"x", "a"}
    with pytest.raises(NotTotal):
        to_total(ex5)

    ex4_answer = wx.example4_answer()
    got = to_total(Preorder(ex4_answer.ground, ex4_answer.rows))
    assert got == ex4_answer


def test_total_roundtrip_small():
    # the lazy rows of every total preorder pass the transitivity check
    from preorder_bca import enumerate_total_preorders

    for n in range(1, 6):
        ground = GroundSet(tuple("abcde"[:n]))
        totals = list(enumerate_total_preorders(ground))
        for t in totals:
            assert to_total(Preorder(t.ground, t.rows)) == t
    assert len(totals) == 541


_EQUIVALENT_ON_A_TOTAL_PREORDER = {
    "top_difference_fast": lambda base, t: (pb.top_difference_fast(base, t),
                                            pb.top_difference_fast(t, base)),
    "top_difference_direct": lambda base, t: pb.top_difference_direct(base, t),
    "ksb_distance": lambda base, t: pb.ksb_distance(base, t),
    "bca_bruteforce": lambda base, t: pb.bca_bruteforce(t),
    "bca_duality": lambda base, t: pb.bca_duality(t),
    "layers": lambda base, t: layers(t),
    "hasse_edges": lambda base, t: tuple(t.quotient.covers()),
    "render_dot": lambda base, t: pb.render_dot(t),
    "document_from_relation": lambda base, t: pb.document_from_relation(t),
}


@pytest.mark.parametrize("name", sorted(_EQUIVALENT_ON_A_TOTAL_PREORDER))
def test_total_preorder_acts_as_its_preorder(name):
    call = _EQUIVALENT_ON_A_TOTAL_PREORDER[name]
    base = spec("fence", k=4).build()
    for t in pb.enumerate_total_preorders(base.ground):
        p = Preorder(t.ground, t.rows)
        assert isinstance(t, Preorder) and t != p
        assert call(base, t) == call(base, p)


def test_completion_and_index_checks_require_a_total_candidate():
    from preorder_bca import (index_total, is_maximal_completion,
                              normalized_index)

    base = spec("fence", k=4).build()
    partial = Preorder(base.ground, base.rows)
    for check in (is_completion, is_maximal_completion):
        with pytest.raises(NotTotal):
            check(partial, base)
    for index in (index_total, normalized_index):
        with pytest.raises(NotTotal):
            index(partial)
    answer = spec("fence", k=4).expected_bca()
    plain = Preorder(answer.ground, answer.rows)
    assert to_total(answer) is answer
    assert is_completion(plain, base) and is_maximal_completion(plain, base)
    assert index_total(plain) == index_total(answer)
    assert normalized_index(plain) == normalized_index(answer)


def test_is_completion():
    eq = spec("equality", n=3).build()
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
        assert is_completion(t, Preorder(t.ground, t.rows))
    for t in (spec("containment", z=2).expected_bca(),
              spec("coordinatewise", m=2).expected_bca(),
              wx.example4_answer()):
        assert is_completion(t, Preorder(t.ground, t.rows))


def test_hasse_edges():
    chain = spec("chain", n=3).build()
    assert wx.cover_labels(chain) == (("x1", "x2"), ("x2", "x3"))

    crown = spec("crown", k=6).build()
    assert len(wx.cover_labels(crown)) == 6

    fence = spec("fence", k=6).build()
    assert len(wx.cover_labels(fence)) == 5

    indiff = spec("indifferent", n=3).build()
    assert wx.cover_labels(indiff) == ()

    ex4 = wx.example4_answer()
    assert wx.cover_labels(ex4) == (("a1,a2", "y"), ("x", "a1,a2"))


@given(st.integers(1, 6), st.data())
def test_restrict_of_preorder_validates(n, data):
    import random as _random

    p = random_preorder(_random.Random(data.draw(st.integers(0, 10**6))), n)
    members = data.draw(st.integers(1, p.ground.full_mask))
    sub = restrict(p, members)
    assert validate_preorder(Relation(sub.ground, sub.rows)) == sub
    assert sub.ground.labels == tuple(
        p.ground.labels[i] for i in iter_bits(members))
