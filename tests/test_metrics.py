import itertools

import pytest

import worked_examples as wx
from preorder_bca import (
    BadParameter,
    GroundSet,
    Preorder,
    TooLarge,
    enumerate_preorders,
    enumerate_total_preorders,
    is_completion,
    ksb_distance,
    maximal_elements,
    top_difference_direct,
    top_difference_fast,
    verify_strict_optimality,
)
from preorder_bca import _backend
from worked_examples import spec
from preorder_bca.core import mask_of
from bases import SHAPES
from conftest import random_preorder
from quotient_oracle import ksb_minimisers


def menu_sum_distance(p, q):
    """Third, dumbest oracle: materialize both maximal sets per menu."""
    total = 0
    for s in range(1, 1 << p.n):
        total += (maximal_elements(p, s) ^ maximal_elements(q, s)).bit_count()
    return total


def test_delta_menu_examples():
    ex1 = wx.example1_base()
    for q, menu, delta in ((ex1, [0, 1], 0), (wx.example1_swap_bottom(), [3, 4], 2),
                           (wx.example1_swap_top(), [0, 1], 2)):
        s = mask_of(menu)
        assert (maximal_elements(ex1, s) ^ maximal_elements(q, s)).bit_count() == delta


def test_example1_distances():
    ex1 = wx.example1_base()
    assert top_difference_direct(ex1, wx.example1_swap_top()) == 16
    assert top_difference_direct(ex1, wx.example1_swap_bottom()) == 2
    assert top_difference_fast(ex1, wx.example1_swap_top()) == 16
    assert top_difference_fast(ex1, wx.example1_swap_bottom()) == 2
    assert ksb_distance(ex1, wx.example1_swap_top()) == 2
    assert ksb_distance(ex1, wx.example1_swap_bottom()) == 2
    for distance in (top_difference_direct, top_difference_fast, ksb_distance):
        with pytest.raises(BadParameter,
                           match="^relations live on different ground sets$"):
            distance(ex1, wx.example2_base())


def test_example2_distances():
    ex2 = wx.example2_base()
    expected = [3, 5, 6, 7, 7, 7, 7]
    for completion, want in zip(wx.example2_completions(), expected):
        assert top_difference_direct(ex2, completion) == want
        assert top_difference_fast(ex2, completion) == want


def test_example3_distances():
    ex3 = wx.example3_base()
    c0, c1 = wx.example3_maximal()
    assert top_difference_fast(ex3, c0) == 1
    assert top_difference_fast(ex3, c1) == 2


def test_example4_semimetric_degeneracy():
    ex4 = wx.example4_base()
    answer = wx.example4_answer()
    assert ex4.rows != answer.rows
    assert top_difference_fast(ex4, answer) == 0
    assert top_difference_direct(ex4, answer) == 0


def test_example5_distances():
    ex5 = wx.example5_base()
    for completion in wx.example5_maximal():
        assert top_difference_fast(ex5, completion) == 4


def test_direct_guard():
    with pytest.raises(TooLarge):
        top_difference_direct(spec("containment", z=5).build(),
                              spec("containment", z=5).build())


def test_three_routes_agree_exhaustive_n3():
    ground = GroundSet(("a", "b", "c"))
    universe = list(enumerate_preorders(ground))
    assert len(universe) == 29
    for p, q in itertools.product(universe, repeat=2):
        direct = top_difference_direct(p, q)
        assert direct == top_difference_fast(p, q)
        assert direct == menu_sum_distance(p, q)


def test_fast_equals_direct_random(rng):
    for n in (4, 5, 6):
        for _ in range(150):
            p = random_preorder(rng, n, density=rng.choice([0.2, 0.4, 0.6]))
            q = random_preorder(rng, n, density=rng.choice([0.2, 0.4, 0.6]))
            assert top_difference_fast(p, q) == top_difference_direct(p, q)


def test_symmetry_and_triangle(rng):
    for _ in range(60):
        p = random_preorder(rng, 5)
        q = random_preorder(rng, 5)
        r = random_preorder(rng, 5)
        dpq = top_difference_fast(p, q)
        assert dpq == top_difference_fast(q, p)
        assert dpq >= 0
        assert top_difference_fast(p, p) == 0
        assert top_difference_fast(p, r) <= dpq + top_difference_fast(q, r)
        assert ksb_distance(p, q) == ksb_distance(q, p)


def test_zero_iff_same_asymmetric_part_n3():
    # the semimetric only sees strict parts, so D = 0 exactly on matching
    # asymmetric parts; checked exhaustively at n = 3
    ground = GroundSet(("a", "b", "c"))
    universe = list(enumerate_preorders(ground))
    for p, q in itertools.product(universe, repeat=2):
        same = p.strict_down == q.strict_down
        assert (top_difference_fast(p, q) == 0) == same


def test_metric_on_totals_separates_points():
    ground = GroundSet(("a", "b", "c", "d"))
    totals = list(enumerate_total_preorders(ground))
    for p, q in itertools.combinations(totals, 2):
        assert top_difference_fast(p, q) > 0


def test_fast_distance_past_word_size():
    # at 64 elements n * 2^n is far past a machine word; for any completion
    # q of p the closed form collapses to
    # sum_x 2^(n - |strict dominators of x in p| - 1) - index(q) / 2,
    # which gives an independent arithmetic cross-check at this size
    from preorder_bca import canonical_completion, index_total

    base = spec("containment", z=6).build()
    assert base.n == 64
    q = canonical_completion(base)
    d = top_difference_fast(base, q)
    const = sum(1 << (base.n - base.strict_up[x].bit_count() - 1)
                for x in range(base.n))
    assert d == const - index_total(q) // 2
    assert d > 0
    assert top_difference_fast(base, base) == 0


def test_pure_direct_matches_bruteforce_definition():
    # one tiny hand case: chain a>b against the flat relation
    # menus {a,b}: maximal sets {a} vs {a,b} -> delta 1; singletons agree
    assert _backend.direct_distance(2, (0, 1), (0, 0)) == 1
    assert _backend.fast_distance(2, (0, 1), (0, 0)) == 1


def test_completion_distance_identity_small(rng):
    # same identity as above, cross-checked against the definitional sweep
    from preorder_bca import enumerate_completions, index_total

    for _ in range(10):
        p = random_preorder(rng, 5)
        const = sum(1 << (p.n - p.strict_up[x].bit_count() - 1)
                    for x in range(p.n))
        for q in enumerate_completions(p):
            want = const - index_total(q) // 2
            assert top_difference_direct(p, q) == want


def test_ksb_examples():
    eq = spec("equality", n=3).build()
    indiff = spec("indifferent", n=3).build()
    assert ksb_distance(eq, indiff) == 6
    assert ksb_distance(eq, eq) == 0


def test_strict_optimality_equality_base():
    eq = spec("equality", n=2).build()
    report = verify_strict_optimality(eq)
    assert report.minimum == 1
    assert len(report.strict_completions) == 2
    assert (report.minimum, set(report.strict_completions)) == ksb_minimisers(eq)


def test_strict_optimality_total_base():
    total = spec("chain", n=3).build()
    report = verify_strict_optimality(total)
    assert report.minimum == 0
    assert [t.blocks for t in report.strict_completions] == [(1, 2, 4)]
    assert (report.minimum, set(report.strict_completions)) == ksb_minimisers(total)


def test_strict_optimality_containment_two_elements():
    # two-element base set: the KSB-best total preorders are exactly the two
    # linear orders with the full set on top and the empty set at the bottom
    base = spec("containment", z=2).build()
    report = verify_strict_optimality(base)
    assert report.minimum == 1
    assert sorted(t.render() for t in report.strict_completions) == [
        "[{a,b}] > [{a}] > [{b}] > [{}]",
        "[{a,b}] > [{b}] > [{a}] > [{}]",
    ]
    assert (report.minimum, set(report.strict_completions)) == ksb_minimisers(base)
    cardinality = spec("containment", z=2).expected_bca()
    assert cardinality.blocks not in {t.blocks for t in report.strict_completions}


def test_strict_optimality_random_preorders(rng):
    for _ in range(20):
        base = random_preorder(rng, 4)
        report = verify_strict_optimality(base)
        assert (report.minimum, set(report.strict_completions)) == \
            ksb_minimisers(base)
        for cand in report.strict_completions:
            assert is_completion(cand, base)


@pytest.mark.parametrize("shape, n, seed", [
    *((shape, 6, seed) for shape in sorted(SHAPES) for seed in range(5)),
    ("layered", 7, 0), ("star_union", 7, 0),
])
def test_strict_optimality_matches_the_scan_past_five_elements(shape, n, seed):
    # the closed form answers where the scan it replaced refused (n > 5)
    base = Preorder(GroundSet(tuple(f"x{i}" for i in range(1, n + 1))),
                    tuple(SHAPES[shape](seed, n)))
    report = verify_strict_optimality(base)
    assert len(set(report.strict_completions)) == len(report.strict_completions)
    assert (report.minimum, set(report.strict_completions)) == ksb_minimisers(base)


def test_strict_optimality_containment_three_elements():
    # eight elements: 9 incomparable pairs, and 48 linear extensions of the
    # Boolean lattice B_3
    report = verify_strict_optimality(spec("containment", z=3).build())
    assert report.minimum == 9
    assert len(report.strict_completions) == 48
    assert all(len(t.blocks) == 8 for t in report.strict_completions)
