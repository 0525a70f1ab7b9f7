import pytest

import worked_examples as wx
from preorder_bca import (
    GroundSet,
    TooLarge,
    bca_auto,
    bca_bruteforce,
    bca_duality,
    bca_theorem5,
    canonical_completion,
    condition_star,
    covering_radius,
    index_general,
    is_maximal_completion,
    enumerate_preorders,
    top_difference_fast,
)
from preorder_bca import _backend, families
from conftest import random_preorder


def test_bca_example2():
    report = bca_bruteforce(wx.example2_base())
    assert [c.blocks for c in report.bca_set] == [wx.example2_completions()[0].blocks]
    assert report.distance == 3
    assert report.method == "bruteforce"


def test_bca_example3():
    report = bca_bruteforce(wx.example3_base())
    assert [c.blocks for c in report.bca_set] == [wx.example3_maximal()[0].blocks]
    assert report.distance == 1


def test_bca_example5():
    report = bca_bruteforce(wx.example5_base())
    assert {c.blocks for c in report.bca_set} == {c.blocks for c in wx.example5_maximal()}
    assert report.distance == 4


def test_bca_example6():
    for base in (wx.example6_fence(), wx.example6_crown()):
        report = bca_bruteforce(base)
        assert [c.blocks for c in report.bca_set] == [wx.example6_answer().blocks]


def test_bca_example7():
    report2 = bca_duality(wx.example7_base(2))
    c0, c1 = wx.example7_completions(2)
    assert {c.blocks for c in report2.bca_set} == {c0.blocks, c1.blocks}
    assert report2.indices == (40, 40)

    for k in (3, 4):
        report = bca_duality(wx.example7_base(k))
        _, c1 = wx.example7_completions(k)
        assert [c.blocks for c in report.bca_set] == [c1.blocks]


def test_bca_example8():
    report = bca_duality(wx.example8_base())
    assert [c.blocks for c in report.bca_set] == [wx.example8_named()[1].blocks]
    assert report.indices == (2**7 + 194,)


def test_bca_total_base_is_itself():
    total = families.sum_ordering(2)
    report = bca_bruteforce(total.as_preorder)
    assert report.bca_set == (total,)
    assert report.distance == 0


def test_three_member_tie_ten_elements():
    # ten elements: too big to sweep every total preorder, but the duality
    # route needs only the completions; the three named completions tie
    base = wx.three_member_tie_base()
    named = wx.three_member_tie_completions()
    distances = {top_difference_fast(base, c.as_preorder) for c in named}
    assert len(distances) == 1
    report = bca_duality(base)
    assert {c.blocks for c in report.bca_set} == {c.blocks for c in named}
    for c in named:
        assert is_maximal_completion(c, base)


def test_duality_equals_bruteforce_exhaustive_n3():
    ground = GroundSet(("a", "b", "c"))
    for base in enumerate_preorders(ground):
        brute = bca_bruteforce(base)
        dual = bca_duality(base)
        assert [c.blocks for c in brute.bca_set] == [c.blocks for c in dual.bca_set]
        assert brute.distance == dual.distance


def test_duality_equals_bruteforce_random_n5(rng):
    for _ in range(25):
        base = random_preorder(rng, 5)
        brute = bca_bruteforce(base)
        dual = bca_duality(base)
        assert [c.blocks for c in brute.bca_set] == [c.blocks for c in dual.bca_set]
        assert brute.distance == dual.distance
        assert dual.indices == tuple(index_general(base) for _ in dual.bca_set)


def test_every_bca_member_is_maximal_exhaustive_n3():
    ground = GroundSet(("a", "b", "c"))
    for base in enumerate_preorders(ground):
        for cand in bca_bruteforce(base).bca_set:
            assert is_maximal_completion(cand, base)


def test_condition_star_linear_orders():
    for n in (2, 4, 6):
        assert condition_star(families.chain(n)).verdict == "strict"


def test_condition_star_example5_weak_witness():
    report = condition_star(wx.example5_base())
    assert report.verdict == "weak"
    ground = wx.example5_base().ground
    witness = report.witnesses[0]
    assert witness.layer == 1
    assert ground.label_set(witness.subset) == ("a",)
    assert ground.label_set(witness.below) == ("a1", "a2")
    assert witness.index_value == 2 * 2**2 == 8
    assert witness.bound == 2 ** (1 + 2)


def test_condition_star_example7_threshold():
    assert condition_star(wx.example7_base(2)).verdict == "weak"
    for k in (3, 4, 5):
        report = condition_star(wx.example7_base(k))
        assert report.verdict == "fails"
        violation = [w for w in report.witnesses if w.index_value > w.bound][0]
        assert violation.index_value == k * 2**k
        assert violation.bound == 2 ** (1 + k)


def test_condition_star_examples_2_3_4_6():
    for base in (wx.example2_base(), wx.example3_base(),
                 wx.example4_base(), wx.example6_fence(),
                 wx.example6_crown()):
        assert condition_star(base).verdict == "strict"


def test_condition_star_example8_fails():
    assert condition_star(wx.example8_base()).verdict == "fails"


def test_theorem5_fixtures():
    report = bca_theorem5(families.containment_order(3))
    assert report is not None and report.complete_set
    assert report.bca_set == (families.cardinality_ordering(3),)

    report = bca_theorem5(families.word_prefix_order(2, 2))
    assert report is not None and report.complete_set
    assert report.bca_set == (families.word_length_ordering(2, 2),)

    assert bca_theorem5(wx.example8_base()) is None

    weak = bca_theorem5(wx.example5_base())
    assert weak is not None and not weak.complete_set
    assert weak.bca_set == (canonical_completion(wx.example5_base()),)


def test_theorem5_strict_implies_unique_bruteforce(rng):
    seen_strict = 0
    for _ in range(40):
        base = random_preorder(rng, 5)
        report = condition_star(base)
        brute = bca_bruteforce(base)
        canonical = canonical_completion(base)
        if report.verdict == "strict":
            seen_strict += 1
            assert brute.bca_set == (canonical,)
        if report.verdict in ("strict", "weak"):
            assert canonical.blocks in {c.blocks for c in brute.bca_set}
    assert seen_strict > 0


def test_bca_auto_routes():
    strict = bca_auto(families.containment_order(2))
    assert strict.method == "theorem5"
    weak = bca_auto(wx.example5_base())
    assert weak.method == "duality"
    assert len(weak.bca_set) == 2
    fails = bca_auto(wx.example8_base())
    assert fails.method == "duality"


def test_bruteforce_guard():
    with pytest.raises(TooLarge):
        bca_bruteforce(wx.three_member_tie_base())


def test_covering_radius_small():
    g2 = GroundSet(("x1", "x2"))
    assert covering_radius(g2).radius == 0
    g3 = GroundSet(("x1", "x2", "x3"))
    report = covering_radius(g3)
    assert report.radius == 1
    # witness attains the radius
    assert bca_bruteforce(report.witness).distance == 1
    with pytest.raises(TooLarge):
        covering_radius(GroundSet(tuple(f"x{i}" for i in range(1, 6))))


def test_report_invariants(rng):
    for _ in range(10):
        base = random_preorder(rng, 4)
        report = bca_bruteforce(base)
        assert len(set(report.indices)) == 1
        for cand in report.bca_set:
            assert top_difference_fast(base, cand.as_preorder) == report.distance


def naive_bruteforce(base):
    # object-level reimplementation, independent of the sweep kernel
    from preorder_bca import enumerate_total_preorders

    best = None
    argmin = []
    for cand in enumerate_total_preorders(base.ground):
        d = top_difference_fast(base, cand.as_preorder)
        if best is None or d < best:
            best, argmin = d, [cand.blocks]
        elif d == best:
            argmin.append(cand.blocks)
    return best, sorted(argmin)


def test_sweep_kernel_matches_naive_loop(rng):
    ground = GroundSet(("a", "b", "c"))
    for base in enumerate_preorders(ground):
        report = bca_bruteforce(base)
        want_d, want_set = naive_bruteforce(base)
        assert report.distance == want_d
        assert [c.blocks for c in report.bca_set] == want_set
    for _ in range(20):
        base = random_preorder(rng, 4)
        report = bca_bruteforce(base)
        want_d, want_set = naive_bruteforce(base)
        assert report.distance == want_d
        assert [c.blocks for c in report.bca_set] == want_set


def test_pure_sweep_counts_candidates():
    # the sweep visits every ordered set partition: tie list for the
    # everywhere-incomparable base of equality must be the single top block
    got_d, got_parts = _backend.sweep_min_distance(3, (0, 0, 0))
    assert got_d == 0
    assert got_parts == [(0b111,)]


def test_solvers_reach_the_traced_kernel_names(monkeypatch):
    # perfbench/tracer.py times the kernels by wrapping these two module
    # attributes; a caller that bound them elsewhere would drop the
    # kernels.* and metrics.fast_distance_* layers from its report
    calls = []
    for name in ("fast_distance", "sweep_min_distance"):
        def counted(*args, _name=name, _kernel=getattr(_backend, name)):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(_backend, name, counted)
    base = families.chain(3)
    top_difference_fast(base, base)
    assert calls == ["fast_distance"]
    calls.clear()
    bca_bruteforce(base)
    assert calls == ["sweep_min_distance"]
    calls.clear()
    covering_radius(base.ground)
    # one sweep per preorder on three elements
    assert calls == ["sweep_min_distance"] * 29


def test_bca_members_maximal_random_n5(rng):
    for _ in range(25):
        base = random_preorder(rng, 5, rng.choice([0.2, 0.4]))
        for cand in bca_bruteforce(base).bca_set:
            assert is_maximal_completion(cand, base)
